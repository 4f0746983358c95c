//! Sorted concurrent linked lists (§4.2 and §5.1 of the OPTIK paper).
//!
//! The paper's Figure 9 compares seven list series; all are implemented
//! here, from scratch, as five list types — node caching (§5.1) is a
//! per-thread handle on the list it caches, not a list of its own:
//!
//! | paper name   | type                  | design |
//! |--------------|-----------------------|--------|
//! | `harris`     | [`HarrisList`]        | lock-free, marked next-pointers (Harris \[19\]) |
//! | `lazy`       | [`LazyList`]          | lock-based, logical-delete marks (Heller et al. \[22\]) |
//! | `lazy-cache` | [`LazyListHandle`]    | lazy list through a node-caching handle ([`LazyList::handle`]) |
//! | `mcs-gl-opt` | [`GlobalLockList`]    | global MCS lock, non-synchronized searches |
//! | `optik-gl`   | [`OptikGlList`]       | global OPTIK lock: infeasible updates never lock |
//! | `optik`      | [`OptikList`]         | fine-grained OPTIK, hand-over-hand version tracking (Fig. 8) |
//! | `optik-cache`| [`OptikListHandle`]   | optik list through a node-caching handle ([`OptikList::handle`]) |
//!
//! All lists store `u64 → u64` with sentinel head/tail keys `0` and
//! `u64::MAX`; user keys must lie strictly between. Memory reclamation is
//! QSBR (the `reclaim` crate): every operation announces a quiescent point
//! on entry, so plain library users never interact with reclamation.
//! Nodes come from a type-stable [`reclaim::NodePool`].

#![warn(missing_docs)]

mod cache;
mod global_lock;
mod harris;
mod lazy;
mod optik_fine;
mod optik_gl;
mod seq;

pub use global_lock::GlobalLockList;
pub use harris::HarrisList;
pub use lazy::{LazyList, LazyListHandle, LazyListPool};
pub use optik_fine::{OptikList, OptikListHandle, OptikListPool};
pub use optik_gl::{OptikGlList, OptikGlListPool};
pub use seq::SeqList;

pub use optik_harness::api::{ConcurrentSet, Key, SetHandle, Val};

/// Node-pool chunk size of a list built with `new()`, which owns its pool:
/// a quarter of the pool default, so a small standalone list reserves
/// little. Bucketed hash tables share one `*ListPool` (pool default chunk)
/// across all buckets instead.
pub(crate) const LIST_POOL_CHUNK: usize = 256;

/// Sentinel key of the head node; user keys must be greater.
pub const HEAD_KEY: Key = 0;
/// Sentinel key of the tail node; user keys must be smaller.
pub const TAIL_KEY: Key = u64::MAX;

#[inline]
pub(crate) fn assert_user_key(key: Key) {
    debug_assert!(
        key > HEAD_KEY && key < TAIL_KEY,
        "user keys must be in (0, u64::MAX)"
    );
}

#[cfg(test)]
mod cross_tests {
    //! One behavioural suite run over every list implementation.

    use super::*;
    use std::sync::Arc;

    pub(crate) fn implementations() -> Vec<(&'static str, Arc<dyn ConcurrentSet>)> {
        vec![
            ("seq", Arc::new(SeqList::new())),
            ("mcs-gl-opt", Arc::new(GlobalLockList::new())),
            (
                "optik-gl",
                Arc::new(OptikGlList::<optik::OptikVersioned>::new()),
            ),
            ("optik", Arc::new(OptikList::new())),
            ("lazy", Arc::new(LazyList::new())),
            ("harris", Arc::new(HarrisList::new())),
        ]
    }

    #[test]
    fn roundtrip_semantics() {
        for (name, l) in implementations() {
            assert!(l.is_empty(), "{name}");
            assert!(l.insert(10, 100), "{name}");
            assert!(l.insert(5, 50), "{name}");
            assert!(l.insert(20, 200), "{name}");
            assert!(!l.insert(10, 999), "{name}: duplicate");
            assert_eq!(l.search(10), Some(100), "{name}");
            assert_eq!(l.search(5), Some(50), "{name}");
            assert_eq!(l.search(15), None, "{name}");
            assert_eq!(l.len(), 3, "{name}");
            assert_eq!(l.delete(10), Some(100), "{name}");
            assert_eq!(l.delete(10), None, "{name}");
            assert_eq!(l.search(10), None, "{name}");
            assert_eq!(l.len(), 2, "{name}");
        }
    }

    #[test]
    fn ascending_and_descending_inserts() {
        for (name, l) in implementations() {
            for k in 1..=50u64 {
                assert!(l.insert(k, k), "{name}");
            }
            for k in (51..=100u64).rev() {
                assert!(l.insert(k, k), "{name}");
            }
            assert_eq!(l.len(), 100, "{name}");
            for k in 1..=100u64 {
                assert_eq!(l.search(k), Some(k), "{name} key {k}");
            }
            for k in 1..=100u64 {
                assert_eq!(l.delete(k), Some(k), "{name} key {k}");
            }
            assert!(l.is_empty(), "{name}");
        }
    }

    #[test]
    fn boundary_keys_accepted() {
        for (name, l) in implementations() {
            assert!(l.insert(1, 11), "{name}: smallest user key");
            assert!(l.insert(u64::MAX - 1, 22), "{name}: largest user key");
            assert_eq!(l.search(1), Some(11), "{name}");
            assert_eq!(l.search(u64::MAX - 1), Some(22), "{name}");
            assert_eq!(l.delete(1), Some(11), "{name}");
            assert_eq!(l.delete(u64::MAX - 1), Some(22), "{name}");
        }
    }

    #[test]
    fn random_ops_match_oracle() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for (name, l) in implementations() {
            let mut rng = StdRng::seed_from_u64(0xB0BA);
            let mut model = std::collections::BTreeMap::new();
            for _ in 0..10_000 {
                let k = rng.gen_range(1..=64u64);
                match rng.gen_range(0..3) {
                    0 => {
                        let expect = !model.contains_key(&k);
                        if expect {
                            model.insert(k, k * 3);
                        }
                        assert_eq!(l.insert(k, k * 3), expect, "{name} insert {k}");
                    }
                    1 => {
                        let expect = model.remove(&k);
                        assert_eq!(l.delete(k), expect, "{name} delete {k}");
                    }
                    _ => {
                        assert_eq!(l.search(k), model.get(&k).copied(), "{name} search {k}");
                    }
                }
            }
            assert_eq!(l.len(), model.len(), "{name} final size");
        }
    }

    #[test]
    fn concurrent_disjoint_ranges_are_exact() {
        const THREADS: u64 = 8;
        const RANGE: u64 = 200;
        for (name, l) in implementations() {
            if name == "seq" {
                continue; // not thread-safe
            }
            let mut handles = Vec::new();
            for t in 0..THREADS {
                let l = Arc::clone(&l);
                handles.push(std::thread::spawn(move || {
                    let lo = t * RANGE + 1;
                    for k in lo..lo + RANGE {
                        assert!(l.insert(k, k * 2));
                    }
                    for k in lo..lo + RANGE {
                        assert_eq!(l.search(k), Some(k * 2));
                    }
                    for k in (lo..lo + RANGE).step_by(2) {
                        assert_eq!(l.delete(k), Some(k * 2));
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(
                l.len() as u64,
                THREADS * RANGE / 2,
                "{name}: half of each range deleted"
            );
        }
    }

    #[test]
    fn concurrent_contended_net_count() {
        use std::sync::atomic::{AtomicI64, Ordering};
        const THREADS: u64 = 8;
        const OPS: u64 = 20_000;
        const KEYS: u64 = 32; // heavy contention
        for (name, l) in implementations() {
            if name == "seq" {
                continue;
            }
            let net = Arc::new(AtomicI64::new(0));
            let mut handles = Vec::new();
            for t in 0..THREADS {
                let l = Arc::clone(&l);
                let net = Arc::clone(&net);
                handles.push(std::thread::spawn(move || {
                    let mut x = t.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                    for _ in 0..OPS {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = x % KEYS + 1;
                        match x % 3 {
                            0 => {
                                if l.insert(k, k) {
                                    net.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            1 => {
                                if l.delete(k).is_some() {
                                    net.fetch_sub(1, Ordering::Relaxed);
                                }
                            }
                            _ => {
                                if let Some(v) = l.search(k) {
                                    assert_eq!(v, k, "{name}: value corrupted");
                                }
                            }
                        }
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(
                l.len() as i64,
                net.load(Ordering::Relaxed),
                "{name}: net count mismatch"
            );
        }
    }
}
