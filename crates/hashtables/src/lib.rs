//! Hash tables (§5.2 of the OPTIK paper).
//!
//! Figure 10 compares six tables; all are implemented here:
//!
//! | paper name  | type                      | design |
//! |-------------|---------------------------|--------|
//! | `optik-gl`  | [`OptikGlHashTable`]      | per-bucket global-lock OPTIK list (the paper's fastest) |
//! | `optik`     | [`OptikHashTable`]        | per-bucket fine-grained OPTIK list |
//! | `optik-map` | [`OptikMapHashTable`]     | per-bucket OPTIK array map, contiguous bucket storage |
//! | `lazy-gl`   | [`LazyGlHashTable`]       | per-bucket lazy (Heller) list |
//! | `java`      | [`StripedHashTable`]      | ConcurrentHashMap-style lock striping (n = 128 segments), updates lock then traverse |
//! | `java-optik`| [`StripedOptikHashTable`] | striping + OPTIK: infeasible updates never lock; validated updates skip the second bucket traversal |
//! | `java-resize` (extension) | [`ResizableStripedHashTable`] | striping with the per-segment resizing half of CHM's design: each segment grows independently under its own lock |
//!
//! Buckets are selected by `key % num_buckets` (as in ASCYLIB; a
//! power-of-two `num_buckets` computes it with a mask — the same bucket,
//! without the division); the paper sets `num_buckets == initial size` so
//! each bucket holds ~1 element.

#![warn(missing_docs)]

mod bucketed;
mod map_table;
mod striped;
mod striped_optik;
mod striped_resize;

pub use bucketed::{LazyGlHashTable, OptikGlHashTable, OptikHashTable};
pub use map_table::OptikMapHashTable;
pub use striped::StripedHashTable;
pub use striped_optik::StripedOptikHashTable;
pub use striped_resize::ResizableStripedHashTable;

pub use optik_harness::api::{ConcurrentMap, ConcurrentSet, Key, Val};

/// Default number of lock stripes for the Java-style tables; the paper
/// configures 128 "to accommodate as many threads as will ever concurrently
/// modify the table".
pub const DEFAULT_SEGMENTS: usize = 128;

/// `key % buckets`, as in ASCYLIB. A power-of-two `buckets` takes the
/// mask, which is the same function without the 64-bit division; both
/// arms select the same bucket for every key.
#[inline]
pub fn bucket_of(key: Key, buckets: usize) -> usize {
    let n = buckets as u64;
    if n.is_power_of_two() {
        (key & (n - 1)) as usize
    } else {
        (key % n) as usize
    }
}

#[cfg(test)]
mod cross_tests {
    use super::*;
    use std::sync::Arc;

    fn implementations(buckets: usize) -> Vec<(&'static str, Arc<dyn ConcurrentSet>)> {
        vec![
            ("optik-gl", Arc::new(OptikGlHashTable::new(buckets))),
            ("optik", Arc::new(OptikHashTable::new(buckets))),
            (
                "optik-map",
                Arc::new(OptikMapHashTable::with_bucket_capacity(buckets, 64)),
            ),
            ("lazy-gl", Arc::new(LazyGlHashTable::new(buckets))),
            ("java", Arc::new(StripedHashTable::new(buckets, 16))),
            (
                "java-optik",
                Arc::new(StripedOptikHashTable::new(buckets, 16)),
            ),
        ]
    }

    #[test]
    fn bucket_of_is_the_modulo_for_every_bucket_count() {
        // The mask arm must select the bucket `%` selects, so no key moves.
        for n in [1usize, 2, 3, 8, 24, 64, 100, 2048, 1 << 20] {
            for k in (1..=5_000u64).chain([u64::MAX - 1, 1 << 63, 0x9E37_79B9_7F4A_7C15]) {
                assert_eq!(bucket_of(k, n), (k % n as u64) as usize, "{k} % {n}");
            }
        }
    }

    #[test]
    fn roundtrip_semantics() {
        for (name, t) in implementations(8) {
            assert!(t.is_empty(), "{name}");
            assert!(t.insert(11, 110), "{name}");
            assert!(t.insert(19, 190), "{name}"); // same bucket as 11 (mod 8)
            assert!(!t.insert(11, 111), "{name}");
            assert_eq!(t.search(11), Some(110), "{name}");
            assert_eq!(t.search(19), Some(190), "{name}");
            assert_eq!(t.search(3), None, "{name}");
            assert_eq!(t.delete(11), Some(110), "{name}");
            assert_eq!(t.delete(11), None, "{name}");
            assert_eq!(t.len(), 1, "{name}");
        }
    }

    #[test]
    fn many_keys_across_buckets() {
        for (name, t) in implementations(16) {
            for k in 1..=400u64 {
                assert!(t.insert(k, k * 2), "{name} {k}");
            }
            assert_eq!(t.len(), 400, "{name}");
            for k in 1..=400u64 {
                assert_eq!(t.search(k), Some(k * 2), "{name} {k}");
            }
            for k in (1..=400u64).filter(|k| k % 3 == 0) {
                assert_eq!(t.delete(k), Some(k * 2), "{name} {k}");
            }
            assert_eq!(t.len(), 400 - 133, "{name}");
        }
    }

    #[test]
    fn random_ops_match_oracle() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for (name, t) in implementations(8) {
            let mut rng = StdRng::seed_from_u64(0xFACE);
            let mut model = std::collections::BTreeMap::new();
            for _ in 0..10_000 {
                let k = rng.gen_range(1..=48u64);
                match rng.gen_range(0..3) {
                    0 => {
                        let expect = !model.contains_key(&k);
                        if expect {
                            model.insert(k, k);
                        }
                        assert_eq!(t.insert(k, k), expect, "{name} insert {k}");
                    }
                    1 => {
                        assert_eq!(t.delete(k), model.remove(&k), "{name} delete {k}");
                    }
                    _ => {
                        assert_eq!(t.search(k), model.get(&k).copied(), "{name} search {k}");
                    }
                }
            }
            assert_eq!(t.len(), model.len(), "{name}");
        }
    }

    fn map_implementations(buckets: usize) -> Vec<(&'static str, Arc<dyn ConcurrentMap>)> {
        vec![
            (
                "optik-map",
                Arc::new(OptikMapHashTable::with_bucket_capacity(buckets, 64)),
            ),
            ("java", Arc::new(StripedHashTable::new(buckets, 16))),
            (
                "java-optik",
                Arc::new(StripedOptikHashTable::new(buckets, 16)),
            ),
            (
                "java-resize",
                Arc::new(ResizableStripedHashTable::new(4, 2)),
            ),
        ]
    }

    #[test]
    fn map_interface_random_ops_match_oracle() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for (name, t) in map_implementations(8) {
            let mut rng = StdRng::seed_from_u64(0xBEEF);
            let mut model = std::collections::BTreeMap::new();
            for _ in 0..10_000 {
                let k = rng.gen_range(1..=48u64);
                let v = rng.gen_range(0..1_000u64);
                match rng.gen_range(0..3) {
                    0 => {
                        assert_eq!(t.put(k, v), model.insert(k, v), "{name} put {k}");
                    }
                    1 => {
                        assert_eq!(t.remove(k), model.remove(&k), "{name} remove {k}");
                    }
                    _ => {
                        assert_eq!(t.get(k), model.get(&k).copied(), "{name} get {k}");
                    }
                }
            }
            assert_eq!(ConcurrentMap::len(t.as_ref()), model.len(), "{name}");
            let mut scanned = std::collections::BTreeMap::new();
            t.for_each(&mut |k, v| {
                assert!(scanned.insert(k, v).is_none(), "{name}: duplicate key {k}");
            });
            assert_eq!(scanned, model, "{name}: quiescent scan mismatch");
        }
    }

    #[test]
    fn map_put_is_tear_free_under_concurrent_gets() {
        // Writers upsert their own key with values tagged by the key;
        // readers must never see a value from a different key or a torn
        // one. Exercises the in-place AtomicU64 swap path of every table.
        use std::sync::atomic::{AtomicBool, Ordering};
        for (name, t) in map_implementations(4) {
            let stop = Arc::new(AtomicBool::new(false));
            let mut handles = Vec::new();
            for w in 1..=4u64 {
                let t = Arc::clone(&t);
                handles.push(std::thread::spawn(move || {
                    for i in 0..synchro::stress::ops(20_000) {
                        t.put(w, w * 1_000_000 + i);
                    }
                }));
            }
            for _ in 0..2 {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                handles.push(std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        for w in 1..=4u64 {
                            if let Some(v) = t.get(w) {
                                assert_eq!(v / 1_000_000, w, "foreign/torn value {v} at key {w}");
                            }
                        }
                    }
                }));
            }
            reclaim::offline_while(|| {
                for h in handles.drain(..4) {
                    h.join().unwrap();
                }
                stop.store(true, Ordering::Relaxed);
                for h in handles {
                    h.join().unwrap();
                }
            });
            assert_eq!(ConcurrentMap::len(t.as_ref()), 4, "{name}");
        }
    }

    #[test]
    fn concurrent_contended_net_count() {
        use std::sync::atomic::{AtomicI64, Ordering};
        for (name, t) in implementations(32) {
            let net = Arc::new(AtomicI64::new(0));
            let mut handles = Vec::new();
            for tid in 0..8u64 {
                let t = Arc::clone(&t);
                let net = Arc::clone(&net);
                handles.push(std::thread::spawn(move || {
                    let mut x = tid.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                    for _ in 0..synchro::stress::ops(20_000) {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = x % 64 + 1;
                        match x % 3 {
                            0 => {
                                if t.insert(k, k * 7) {
                                    net.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            1 => {
                                if t.delete(k).is_some() {
                                    net.fetch_sub(1, Ordering::Relaxed);
                                }
                            }
                            _ => {
                                if let Some(v) = t.search(k) {
                                    assert_eq!(v, k * 7, "{name}");
                                }
                            }
                        }
                    }
                }));
            }
            reclaim::offline_while(|| {
                for h in handles {
                    h.join().unwrap();
                }
            });
            assert_eq!(t.len() as i64, net.load(Ordering::Relaxed), "{name}");
        }
    }
}
