//! Skip lists (§5.3 of the OPTIK paper).
//!
//! Figure 11 compares five algorithms, all implemented here:
//!
//! | paper name | type                      | design |
//! |------------|---------------------------|--------|
//! | `herlihy`  | [`HerlihySkipList`]       | optimistic skip list, Herlihy/Lev/Luchangco/Shavit \[29\] |
//! | `herl-optik`| [`HerlihyOptikSkipList`] | same, with `lock_version` replacing per-level fine validation |
//! | `optik1`   | [`OptikSkipList1`]        | new OPTIK design; fine-grained re-validation on version failure |
//! | `optik2`   | [`OptikSkipList2`]        | new OPTIK design; immediate restart on version failure |
//! | `fraser`   | [`FraserSkipList`]        | lock-free, per-level marked pointers (Fraser \[15\]) |
//!
//! The paper notes skip lists are "somewhat of an exception" for OPTIK:
//! per-node version granularity covers *all* of a node's next pointers, so
//! updates at one level falsely conflict with validation at another. The
//! OPTIK designs win anyway under contention because failed validation
//! costs one CAS instead of a lock acquisition.

#![warn(missing_docs)]
// Indexing preds/succs by level is the idiomatic way to express skip-list
// algorithms (matching the paper's pseudocode); zip-based iteration would
// obscure the per-level lockstep.
#![allow(clippy::needless_range_loop)]

mod fraser;
mod herlihy;
mod herlihy_optik;
mod level;
mod optik_sl;
mod tower;

pub use fraser::FraserSkipList;
pub use herlihy::HerlihySkipList;
pub use herlihy_optik::HerlihyOptikSkipList;
pub use level::{random_level, MAX_LEVEL};
pub use optik_sl::{OptikSkipList1, OptikSkipList2};

pub use optik_harness::api::{ConcurrentMap, ConcurrentSet, Key, OrderedMap, Val};

/// Sentinel key of the head tower.
pub const HEAD_KEY: Key = 0;
/// Sentinel key of the tail tower.
pub const TAIL_KEY: Key = u64::MAX;

/// Consecutive per-step validation failures a range traversal tolerates
/// before falling back to a locked step (see each list's `OrderedMap`
/// impl). Matches the kv store's optimistic-attempt budget in spirit:
/// cheap retries first, guaranteed progress after.
pub(crate) const RANGE_OPTIMISTIC_ATTEMPTS: usize = 8;

#[inline]
pub(crate) fn assert_user_key(key: Key) {
    debug_assert!(
        key > HEAD_KEY && key < TAIL_KEY,
        "user keys must be in (0, u64::MAX)"
    );
}

/// Clamps a user-supplied range bound below the tail sentinel.
#[inline]
pub(crate) fn clamp_hi(hi: Key) -> Key {
    hi.min(TAIL_KEY - 1)
}

#[cfg(test)]
mod cross_tests {
    use super::*;
    use std::sync::Arc;

    /// Every list, as trait objects of the caller's choosing.
    macro_rules! every_list {
        () => {
            vec![
                ("herlihy", Arc::new(HerlihySkipList::new())),
                ("herl-optik", Arc::new(HerlihyOptikSkipList::new())),
                ("optik1", Arc::new(OptikSkipList1::new())),
                ("optik2", Arc::new(OptikSkipList2::new())),
                ("fraser", Arc::new(FraserSkipList::new())),
            ]
        };
    }

    fn implementations() -> Vec<(&'static str, Arc<dyn ConcurrentSet>)> {
        every_list!()
    }

    #[test]
    fn roundtrip_semantics() {
        for (name, s) in implementations() {
            assert!(s.is_empty(), "{name}");
            assert!(s.insert(50, 500), "{name}");
            assert!(s.insert(30, 300), "{name}");
            assert!(s.insert(70, 700), "{name}");
            assert!(!s.insert(50, 501), "{name}: duplicate");
            assert_eq!(s.search(30), Some(300), "{name}");
            assert_eq!(s.search(50), Some(500), "{name}");
            assert_eq!(s.search(40), None, "{name}");
            assert_eq!(s.delete(50), Some(500), "{name}");
            assert_eq!(s.delete(50), None, "{name}");
            assert_eq!(s.len(), 2, "{name}");
        }
    }

    #[test]
    fn large_sequential_volume() {
        for (name, s) in implementations() {
            for k in 1..=2000u64 {
                assert!(s.insert(k, k * 2), "{name} insert {k}");
            }
            assert_eq!(s.len(), 2000, "{name}");
            for k in 1..=2000u64 {
                assert_eq!(s.search(k), Some(k * 2), "{name} search {k}");
            }
            for k in (1..=2000u64).step_by(2) {
                assert_eq!(s.delete(k), Some(k * 2), "{name} delete {k}");
            }
            assert_eq!(s.len(), 1000, "{name}");
            for k in (1..=2000u64).step_by(2) {
                assert_eq!(s.search(k), None, "{name}");
            }
            for k in (2..=2000u64).step_by(2) {
                assert_eq!(s.search(k), Some(k * 2), "{name}");
            }
        }
    }

    #[test]
    fn random_ops_match_oracle() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for (name, s) in implementations() {
            let mut rng = StdRng::seed_from_u64(0x5EED);
            let mut model = std::collections::BTreeMap::new();
            for _ in 0..10_000 {
                let k = rng.gen_range(1..=96u64);
                match rng.gen_range(0..3) {
                    0 => {
                        let expect = !model.contains_key(&k);
                        if expect {
                            model.insert(k, k);
                        }
                        assert_eq!(s.insert(k, k), expect, "{name} insert {k}");
                    }
                    1 => {
                        assert_eq!(s.delete(k), model.remove(&k), "{name} delete {k}");
                    }
                    _ => {
                        assert_eq!(s.search(k), model.get(&k).copied(), "{name} search {k}");
                    }
                }
            }
            assert_eq!(s.len(), model.len(), "{name}");
        }
    }

    #[test]
    fn concurrent_disjoint_ranges() {
        const THREADS: u64 = 8;
        const RANGE: u64 = 300;
        for (name, s) in implementations() {
            let mut handles = Vec::new();
            for t in 0..THREADS {
                let s = Arc::clone(&s);
                handles.push(std::thread::spawn(move || {
                    let lo = t * RANGE + 1;
                    for k in lo..lo + RANGE {
                        assert!(s.insert(k, k * 3));
                    }
                    for k in lo..lo + RANGE {
                        assert_eq!(s.search(k), Some(k * 3));
                    }
                    for k in (lo..lo + RANGE).step_by(3) {
                        assert_eq!(s.delete(k), Some(k * 3));
                    }
                }));
            }
            reclaim::offline_while(|| {
                for h in handles {
                    h.join().unwrap();
                }
            });
            let expected = THREADS * RANGE - THREADS * RANGE.div_ceil(3);
            assert_eq!(s.len() as u64, expected, "{name}");
        }
    }

    fn ordered_implementations() -> Vec<(&'static str, Arc<dyn OrderedMap>)> {
        every_list!()
    }

    #[test]
    fn map_upsert_roundtrip() {
        for (name, m) in ordered_implementations() {
            assert_eq!(m.put(10, 100), None, "{name}");
            assert_eq!(m.put(10, 101), Some(100), "{name}: in-place update");
            assert_eq!(m.get(10), Some(101), "{name}");
            assert_eq!(m.put(5, 50), None, "{name}");
            assert_eq!(m.remove(10), Some(101), "{name}");
            assert_eq!(m.get(10), None, "{name}");
            assert_eq!(m.remove(10), None, "{name}");
            assert_eq!(m.put(10, 102), None, "{name}: reinsert after remove");
            assert_eq!(ConcurrentMap::len(m.as_ref()), 2, "{name}");
        }
    }

    #[test]
    fn range_matches_btreemap_windows() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for (name, m) in ordered_implementations() {
            let mut rng = StdRng::seed_from_u64(0x0A11CE);
            let mut model = std::collections::BTreeMap::new();
            for _ in 0..4_000 {
                let k = rng.gen_range(1..=128u64);
                if rng.gen_range(0..3) < 2 {
                    model.insert(k, k * 7);
                    m.put(k, k * 7);
                } else {
                    assert_eq!(m.remove(k), model.remove(&k), "{name} remove {k}");
                }
                if rng.gen_range(0..16) == 0 {
                    let lo = rng.gen_range(1..=128u64);
                    let hi = rng.gen_range(lo..=160u64);
                    let got = m.range_collect(lo, hi);
                    let want: Vec<(u64, u64)> =
                        model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
                    assert_eq!(got, want, "{name} range [{lo}, {hi}]");
                }
            }
            // Full sweep == for_each == model.
            let full = m.range_collect(1, u64::MAX - 1);
            let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(full, want, "{name} full range");
            let mut each = Vec::new();
            m.for_each(&mut |k, v| each.push((k, v)));
            assert_eq!(each, want, "{name} for_each");
        }
    }

    /// 2^15 resident keys put about 2048 towers above the one-line class
    /// (height 5+), so puts, removes and range walks cross between small
    /// and tall nodes, and removed slots of both classes are recycled.
    #[test]
    fn large_map_matches_btreemap_across_tower_classes() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const RESIDENT: u64 = 1 << 15;
        const KEYS: u64 = 1 << 16;
        for (name, m) in ordered_implementations() {
            let mut rng = StdRng::seed_from_u64(0x70E5);
            let mut model = std::collections::BTreeMap::new();
            while (model.len() as u64) < RESIDENT {
                let k = rng.gen_range(1..=KEYS);
                assert_eq!(m.put(k, k * 3), model.insert(k, k * 3), "{name} fill {k}");
            }
            // A quarter of the fill: fraser's identity-based unlink walks
            // level 0 from the head, so its removes are O(n) here.
            for i in 0..RESIDENT / 4 {
                let k = rng.gen_range(1..=KEYS);
                if rng.gen_range(0..2) == 0 {
                    assert_eq!(m.put(k, k + i), model.insert(k, k + i), "{name} put {k}");
                } else {
                    assert_eq!(m.remove(k), model.remove(&k), "{name} remove {k}");
                }
                if i % 64 == 0 {
                    let lo = rng.gen_range(1..=KEYS);
                    let hi = lo + rng.gen_range(0..512u64);
                    let want: Vec<(u64, u64)> =
                        model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
                    assert_eq!(m.range_collect(lo, hi), want, "{name} range [{lo}, {hi}]");
                }
            }
            let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(m.range_collect(1, u64::MAX - 1), want, "{name} full range");
            assert_eq!(ConcurrentMap::len(m.as_ref()), model.len(), "{name} len");
        }
    }

    #[test]
    fn concurrent_ranges_stay_sorted_and_unique() {
        use std::sync::atomic::{AtomicBool, Ordering};
        for (name, m) in ordered_implementations() {
            // Stable backbone the scans must always observe.
            for k in (10..=200u64).step_by(10) {
                m.put(k, k);
            }
            let stop = Arc::new(AtomicBool::new(false));
            let mut churners = Vec::new();
            for t in 0..3u64 {
                let m = Arc::clone(&m);
                let stop = Arc::clone(&stop);
                churners.push(std::thread::spawn(move || {
                    let mut x = t.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                    while !stop.load(Ordering::Relaxed) {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = x % 200 + 1;
                        if k % 10 == 0 {
                            continue; // never touch the backbone
                        }
                        if x & 1 == 0 {
                            m.put(k, k);
                        } else {
                            m.remove(k);
                        }
                    }
                    reclaim::offline();
                }));
            }
            for round in 0..synchro::stress::ops(300) {
                let lo = (round % 50) * 2 + 1;
                let got = m.range_collect(lo, 220);
                assert!(
                    got.windows(2).all(|w| w[0].0 < w[1].0),
                    "{name}: unsorted or duplicated keys in {got:?}"
                );
                for &(k, v) in &got {
                    assert_eq!(v, k, "{name}: foreign value");
                }
                // Backbone keys in range must all be present.
                for k in (10..=200u64).step_by(10).filter(|&k| k >= lo) {
                    assert!(
                        got.iter().any(|&(g, _)| g == k),
                        "{name}: scan missed stable key {k} (lo={lo})"
                    );
                }
                reclaim::quiescent();
            }
            stop.store(true, Ordering::Relaxed);
            for h in churners {
                h.join().unwrap();
            }
            reclaim::online();
        }
    }

    #[test]
    fn concurrent_upserts_on_one_key_never_tear() {
        use std::sync::atomic::{AtomicBool, Ordering};
        for (name, m) in ordered_implementations() {
            m.put(42, 1_000);
            let stop = Arc::new(AtomicBool::new(false));
            let mut writers = Vec::new();
            for t in 0..3u64 {
                let m = Arc::clone(&m);
                let stop = Arc::clone(&stop);
                writers.push(std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        // Every binding this test ever writes is >= 1000.
                        m.put(42, 1_000 + t * 1_000_000 + i);
                        i += 1;
                    }
                    reclaim::offline();
                }));
            }
            for _ in 0..synchro::stress::ops(5_000) {
                let v = m.get(42).unwrap_or_else(|| panic!("{name}: key vanished"));
                assert!(v >= 1_000, "{name}: torn or foreign value {v}");
                reclaim::quiescent();
            }
            stop.store(true, Ordering::Relaxed);
            for h in writers {
                h.join().unwrap();
            }
            reclaim::online();
        }
    }

    #[test]
    fn concurrent_contended_net_count() {
        use std::sync::atomic::{AtomicI64, Ordering};
        const THREADS: u64 = 8;
        const OPS: u64 = 15_000;
        const KEYS: u64 = 48;
        for (name, s) in implementations() {
            let net = Arc::new(AtomicI64::new(0));
            let mut handles = Vec::new();
            for t in 0..THREADS {
                let s = Arc::clone(&s);
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
                                if s.insert(k, k * 11) {
                                    net.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            1 => {
                                if s.delete(k).is_some() {
                                    net.fetch_sub(1, Ordering::Relaxed);
                                }
                            }
                            _ => {
                                if let Some(v) = s.search(k) {
                                    assert_eq!(v, k * 11, "{name}: corrupt value");
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
            assert_eq!(s.len() as i64, net.load(Ordering::Relaxed), "{name}");
        }
    }
}
