//! Concurrent external binary search trees built with the OPTIK pattern.
//!
//! This crate is the workspace's *extension* beyond the paper's figures.
//! The paper's related-work section singles out BST-TK (David, Guerraoui
//! and Trigonakis, ASPLOS '15) as a tree that "detects concurrency with
//! version numbers (as OPTIK does)" — i.e. the OPTIK pattern applied to a
//! binary search tree. We build that tree on top of the workspace's OPTIK
//! locks, together with the same baseline ladder the list crate uses:
//!
//! | name        | type              | design |
//! |-------------|-------------------|--------|
//! | `seq`       | [`SeqBst`]        | single-threaded oracle |
//! | `mcs-gl`    | [`GlobalLockBst`] | global MCS lock, non-synchronized searches |
//! | `optik-gl`  | [`OptikGlBst`]    | one global OPTIK lock: infeasible updates never lock |
//! | `optik-tk`  | [`OptikBst`]      | per-node OPTIK locks, BST-TK style |
//!
//! All trees are **external** (leaf-oriented): internal nodes are pure
//! routers, every key-value pair lives in a leaf. Routing follows
//! `key < node.key → left`, otherwise right. External trees keep deletions
//! local — a delete splices out one router and one leaf, never relocates
//! another element's node — which is exactly the property that lets a
//! version number on the parent router stand in for the ad-hoc validation
//! of internal-tree designs.
//!
//! Keys/values and reclamation follow the workspace conventions: `u64 →
//! u64` with `u64::MAX` reserved for the sentinel leaves, QSBR grace
//! periods announced at operation entry.

#![warn(missing_docs)]

mod global_lock;
mod optik_gl;
mod optik_tk;
mod seq;

pub use global_lock::GlobalLockBst;
pub use optik_gl::OptikGlBst;
pub use optik_tk::OptikBst;
pub use seq::SeqBst;

pub use optik_harness::api::{ConcurrentSet, Key, SetHandle, Val};

/// Sentinel key of the initial leaves and the root router; user keys must
/// be smaller.
pub const SENTINEL_KEY: Key = u64::MAX;

#[inline]
pub(crate) fn assert_user_key(key: Key) {
    debug_assert!(
        (1..SENTINEL_KEY).contains(&key),
        "user keys must be in (0, u64::MAX)"
    );
}

#[cfg(test)]
mod cross_tests {
    //! One behavioural suite run over every tree implementation.

    use super::*;
    use std::sync::Arc;

    pub(crate) fn implementations() -> Vec<(&'static str, Arc<dyn ConcurrentSet>)> {
        vec![
            ("seq", Arc::new(SeqBst::new())),
            ("mcs-gl", Arc::new(GlobalLockBst::new())),
            (
                "optik-gl",
                Arc::new(OptikGlBst::<optik::OptikVersioned>::new()),
            ),
            ("optik-tk", Arc::new(OptikBst::new())),
        ]
    }

    #[test]
    fn roundtrip_semantics() {
        for (name, t) in implementations() {
            assert!(t.is_empty(), "{name}");
            assert!(t.insert(10, 100), "{name}");
            assert!(t.insert(5, 50), "{name}");
            assert!(t.insert(20, 200), "{name}");
            assert!(!t.insert(10, 999), "{name}: duplicate");
            assert_eq!(t.search(10), Some(100), "{name}");
            assert_eq!(t.search(5), Some(50), "{name}");
            assert_eq!(t.search(15), None, "{name}");
            assert_eq!(t.len(), 3, "{name}");
            assert_eq!(t.delete(10), Some(100), "{name}");
            assert_eq!(t.delete(10), None, "{name}");
            assert_eq!(t.search(10), None, "{name}");
            assert_eq!(t.len(), 2, "{name}");
        }
    }

    #[test]
    fn ascending_descending_and_alternating_inserts() {
        for (name, t) in implementations() {
            for k in 1..=40u64 {
                assert!(t.insert(k, k * 10), "{name}");
            }
            for k in (41..=80u64).rev() {
                assert!(t.insert(k, k * 10), "{name}");
            }
            for i in 0..20u64 {
                let k = if i % 2 == 0 { 100 + i } else { 200 - i };
                assert!(t.insert(k, k * 10), "{name}");
            }
            assert_eq!(t.len(), 100, "{name}");
            for k in 1..=80u64 {
                assert_eq!(t.search(k), Some(k * 10), "{name} key {k}");
            }
            for k in 1..=80u64 {
                assert_eq!(t.delete(k), Some(k * 10), "{name} key {k}");
            }
            assert_eq!(t.len(), 20, "{name}");
        }
    }

    #[test]
    fn boundary_keys_accepted() {
        for (name, t) in implementations() {
            assert!(t.insert(1, 11), "{name}: smallest user key");
            assert!(t.insert(SENTINEL_KEY - 1, 22), "{name}: largest user key");
            assert_eq!(t.search(1), Some(11), "{name}");
            assert_eq!(t.search(SENTINEL_KEY - 1), Some(22), "{name}");
            assert_eq!(t.delete(1), Some(11), "{name}");
            assert_eq!(t.delete(SENTINEL_KEY - 1), Some(22), "{name}");
            assert!(t.is_empty(), "{name}");
        }
    }

    #[test]
    fn delete_root_region_repeatedly() {
        // Exercises the gp == root splice path: a single element's parent
        // router hangs directly under the root.
        for (name, t) in implementations() {
            for round in 0..50u64 {
                let k = round + 1;
                assert!(t.insert(k, k), "{name}");
                assert_eq!(t.delete(k), Some(k), "{name}");
                assert!(t.is_empty(), "{name} round {round}");
            }
        }
    }

    #[test]
    fn reinsert_after_delete_takes_the_new_value() {
        for (name, t) in implementations() {
            assert!(t.insert(10, 100), "{name}");
            assert!(t.insert(5, 50), "{name}");
            assert_eq!(t.delete(10), Some(100), "{name}");
            assert!(t.insert(10, 101), "{name}: reinsert after delete");
            assert_eq!(t.search(10), Some(101), "{name}");
            assert!(!t.insert(10, 102), "{name}: duplicate");
            assert_eq!(
                t.search(10),
                Some(101),
                "{name}: a failed insert keeps the value"
            );
            assert_eq!(t.len(), 2, "{name}");
        }
    }

    #[test]
    fn concurrent_churn_never_hides_interleaved_stable_keys() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // Stable keys sit between churned ones, so every splice the
        // churners make lands next to a node the searcher must still find.
        for (name, t) in implementations().into_iter().filter(|(n, _)| *n != "seq") {
            for k in (10..=200u64).step_by(10) {
                assert!(t.insert(k, k), "{name}");
            }
            let stop = Arc::new(AtomicBool::new(false));
            let mut churners = Vec::new();
            for i in 0..3u64 {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                churners.push(std::thread::spawn(move || {
                    let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                    while !stop.load(Ordering::Relaxed) {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = x % 200 + 1;
                        if k % 10 == 0 {
                            continue; // never touch the stable keys
                        }
                        if x & 1 == 0 {
                            t.insert(k, k);
                        } else {
                            t.delete(k);
                        }
                    }
                    reclaim::offline();
                }));
            }
            for _ in 0..synchro::stress::ops(300) {
                for k in (10..=200u64).step_by(10) {
                    assert_eq!(t.search(k), Some(k), "{name}: search missed stable key {k}");
                }
                reclaim::quiescent();
            }
            stop.store(true, Ordering::Relaxed);
            for h in churners {
                h.join().unwrap();
            }
            reclaim::online();
            for k in (10..=200u64).step_by(10) {
                assert_eq!(t.delete(k), Some(k), "{name}: stable key {k} after churn");
            }
        }
    }

    #[test]
    fn concurrent_disjoint_inserts_then_deletes_all_land() {
        let (threads, per) = (4u64, 300u64);
        for (name, t) in implementations().into_iter().filter(|(n, _)| *n != "seq") {
            let hs: Vec<_> = (0..threads)
                .map(|i| {
                    let t = Arc::clone(&t);
                    std::thread::spawn(move || {
                        // Interleaved stripes: neighbours belong to other threads.
                        let keys = (0..per).map(move |j| 1 + j * threads + i);
                        for k in keys.clone() {
                            assert!(t.insert(k, k));
                        }
                        for k in keys.filter(|k| k % 2 == 0) {
                            assert_eq!(t.delete(k), Some(k));
                        }
                        reclaim::offline();
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            reclaim::online();
            assert_eq!(t.len() as u64, threads * per / 2, "{name}");
            for k in 1..=threads * per {
                let want = (k % 2 == 1).then_some(k);
                assert_eq!(t.search(k), want, "{name} key {k}");
            }
        }
    }

    #[test]
    fn agrees_with_oracle_on_random_mix() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xB57);
        for (name, t) in implementations() {
            let mut oracle = std::collections::BTreeMap::new();
            for _ in 0..4_000 {
                let key = rng.gen_range(1..128u64);
                match rng.gen_range(0..3) {
                    0 => {
                        let val = rng.gen_range(0..1_000);
                        // Set semantics: a failed insert must not overwrite.
                        let expect = !oracle.contains_key(&key);
                        if expect {
                            oracle.insert(key, val);
                        }
                        assert_eq!(t.insert(key, val), expect, "{name} insert {key}");
                    }
                    1 => assert_eq!(t.delete(key), oracle.remove(&key), "{name} delete {key}"),
                    _ => assert_eq!(
                        t.search(key),
                        oracle.get(&key).copied(),
                        "{name} search {key}"
                    ),
                }
            }
            assert_eq!(t.len(), oracle.len(), "{name} final length");
        }
    }
}
