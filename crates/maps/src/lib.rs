//! Array maps (§4.1 of the OPTIK paper).
//!
//! A *map* here is a fixed-capacity array of key–value pairs with the three
//! search-data-structure operations: `search`, `insert`, `delete`. There is
//! no resizing (matching the paper: "insertions that do not find an empty
//! spot return false").
//!
//! Three implementations:
//!
//! - [`SeqArrayMap`] — plain sequential baseline (and test oracle).
//! - [`LockArrayMap`] — the paper's pessimistic baseline: every operation
//!   runs under a global MCS lock (*mcs* in Figure 7).
//! - [`OptikArrayMap`] — the OPTIK-based map of Figure 6: searches and
//!   infeasible updates complete without ever locking; feasible updates
//!   lock-and-validate with a single CAS (*optik* in Figure 7).
//!
//! Keys and values are `u64`; key `0` is reserved as the empty-slot marker
//! (the paper uses `NULL`).

#![warn(missing_docs)]

mod lock_map;
mod optik_map;
mod seq_map;

pub use lock_map::LockArrayMap;
pub use optik_map::OptikArrayMap;
pub use seq_map::SeqArrayMap;

/// Key type. `0` is reserved (empty-slot marker) and must not be inserted.
pub type Key = u64;
/// Value type.
pub type Val = u64;

/// Reserved key marking an empty slot.
pub const EMPTY_KEY: Key = 0;

/// Common interface of the array maps, used by the benchmarks and the
/// cross-implementation tests.
pub trait ArrayMap: Send + Sync {
    /// Searches for `key`, returning its value if present.
    fn search(&self, key: Key) -> Option<Val>;
    /// Inserts `key → val` if `key` is absent and a slot is free.
    /// Returns whether the insertion happened.
    fn insert(&self, key: Key, val: Val) -> bool;
    /// Removes `key`, returning its value if it was present.
    fn delete(&self, key: Key) -> Option<Val>;
    /// Number of occupied slots (O(capacity); linearizes only when quiesced).
    fn len(&self) -> usize;
    /// Whether the map is empty (see [`ArrayMap::len`]).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Slot capacity.
    fn capacity(&self) -> usize;
}

// The array maps expose the harness's three-operation set interface
// directly (an insert on a full map fails, like any other infeasible
// insert), so the scenario registry and the correctness tiers can drive
// them without per-call-site adapters.
macro_rules! impl_concurrent_set {
    ($ty:ty) => {
        impl optik_harness::api::ConcurrentSet for $ty {
            fn search(&self, key: Key) -> Option<Val> {
                ArrayMap::search(self, key)
            }
            fn insert(&self, key: Key, val: Val) -> bool {
                ArrayMap::insert(self, key, val)
            }
            fn delete(&self, key: Key) -> Option<Val> {
                ArrayMap::delete(self, key)
            }
            fn len(&self) -> usize {
                ArrayMap::len(self)
            }
        }
    };
}

impl_concurrent_set!(SeqArrayMap);
impl_concurrent_set!(LockArrayMap);
impl_concurrent_set!(OptikArrayMap<optik::OptikVersioned>);
impl_concurrent_set!(OptikArrayMap<optik::OptikTicket>);

#[cfg(test)]
mod cross_tests {
    //! Behavioural equivalence of all three maps, single-threaded.

    use super::*;

    fn implementations(cap: usize) -> Vec<(&'static str, Box<dyn ArrayMap>)> {
        vec![
            ("seq", Box::new(SeqArrayMap::new(cap))),
            ("mcs", Box::new(LockArrayMap::new(cap))),
            (
                "optik",
                Box::new(OptikArrayMap::<optik::OptikVersioned>::new(cap)),
            ),
        ]
    }

    #[test]
    fn insert_search_delete_roundtrip() {
        for (name, m) in implementations(8) {
            assert!(m.insert(5, 50), "{name}");
            assert!(!m.insert(5, 51), "{name}: duplicate insert must fail");
            assert_eq!(m.search(5), Some(50), "{name}");
            assert_eq!(m.delete(5), Some(50), "{name}");
            assert_eq!(m.delete(5), None, "{name}");
            assert_eq!(m.search(5), None, "{name}");
            assert!(m.is_empty(), "{name}");
        }
    }

    #[test]
    fn capacity_limit_rejects_insert() {
        for (name, m) in implementations(2) {
            assert!(m.insert(1, 10), "{name}");
            assert!(m.insert(2, 20), "{name}");
            assert!(!m.insert(3, 30), "{name}: map is full");
            assert_eq!(m.len(), 2, "{name}");
            // Freeing a slot admits a new key.
            assert_eq!(m.delete(1), Some(10), "{name}");
            assert!(m.insert(3, 30), "{name}");
            assert_eq!(m.search(3), Some(30), "{name}");
        }
    }

    #[test]
    fn slots_are_reused_after_delete() {
        for (name, m) in implementations(4) {
            for round in 0..50u64 {
                let k = round + 1;
                assert!(m.insert(k, k * 10), "{name}");
                assert_eq!(m.delete(k), Some(k * 10), "{name}");
            }
            assert!(m.is_empty(), "{name}");
            assert_eq!(m.capacity(), 4, "{name}");
        }
    }

    #[test]
    fn random_ops_match_oracle() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let oracle = SeqArrayMap::new(16);
        let subjects: Vec<(&str, Box<dyn ArrayMap>)> = vec![
            ("mcs", Box::new(LockArrayMap::new(16))),
            (
                "optik",
                Box::new(OptikArrayMap::<optik::OptikVersioned>::new(16)),
            ),
        ];
        for _ in 0..20_000 {
            let key = rng.gen_range(1..=24u64);
            match rng.gen_range(0..3) {
                0 => {
                    let expect = oracle.insert(key, key * 7);
                    for (name, s) in &subjects {
                        assert_eq!(s.insert(key, key * 7), expect, "{name} insert({key})");
                    }
                }
                1 => {
                    let expect = oracle.delete(key);
                    for (name, s) in &subjects {
                        assert_eq!(s.delete(key), expect, "{name} delete({key})");
                    }
                }
                _ => {
                    let expect = oracle.search(key);
                    for (name, s) in &subjects {
                        assert_eq!(s.search(key), expect, "{name} search({key})");
                    }
                }
            }
        }
    }
}
