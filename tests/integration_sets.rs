//! Cross-crate integration: every set row of the subject table (lists,
//! hash tables, skip lists, array maps, BSTs) is run through the same
//! paper-style concurrent workload and checked against count and
//! visibility invariants. Adding a row to `optik_bench::subjects`
//! enrolls its structure here. The lists with node caching (§5.1) are run
//! once more through their per-thread handles.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

use optik_bench::subjects::{self, Subject};
use optik_suite::harness::api::{ConcurrentSet, Key, SetHandle};
use optik_suite::lists::{LazyList, OptikList};

/// The largest key any test here uses; every set is sized for it.
const MAX_KEY: Key = 128;

/// Every set row of the subject table, freshly built.
fn sets() -> Vec<(&'static str, Arc<dyn ConcurrentSet>)> {
    subjects::table()
        .into_iter()
        .filter_map(|(id, subject)| match subject {
            Subject::Set(make) => Some((id, make(MAX_KEY))),
            _ => None,
        })
        .collect()
}

/// Body of the net-count stress test, parameterized so the tier-1 run can
/// scale with the core count (see `optik_harness::stress`) while the
/// `--ignored` variant always runs at full 8-core strength.
fn concurrent_workload_preserves_net_count(ops: u64) {
    const THREADS: u64 = 8;
    const KEYS: u64 = 96;
    let ops = ops.max(64);
    for (name, set) in sets() {
        let net = Arc::new(AtomicI64::new(0));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let set = Arc::clone(&set);
            let net = Arc::clone(&net);
            handles.push(std::thread::spawn(move || {
                let mut x = t.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                for _ in 0..ops {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = x % KEYS + 1;
                    match x % 3 {
                        0 => {
                            if set.insert(k, k * 31) {
                                net.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        1 => {
                            if set.delete(k).is_some() {
                                net.fetch_sub(1, Ordering::Relaxed);
                            }
                        }
                        _ => {
                            if let Some(v) = set.search(k) {
                                assert_eq!(v, k * 31, "{name}: corrupted value for key {k}");
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
        assert_eq!(
            set.len() as i64,
            net.load(Ordering::Relaxed),
            "{name}: final size vs net successful updates"
        );
    }
}

#[test]
fn concurrent_workload_preserves_net_count_everywhere() {
    concurrent_workload_preserves_net_count(optik_suite::harness::stress::ops(15_000));
}

#[test]
#[ignore = "full 8-core-strength stress tier; run via --ignored"]
fn concurrent_workload_preserves_net_count_everywhere_full() {
    concurrent_workload_preserves_net_count(15_000);
}

fn stable_keys_remain_visible(churn_iters: u64) {
    // Half the key space is immutable; churning the other half must never
    // make a stable key invisible or corrupt its value.
    for (name, set) in sets() {
        for k in (2..=120u64).step_by(2) {
            assert!(set.insert(k, k + 7), "{name}");
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut churners = Vec::new();
        for t in 0..4u64 {
            let set = Arc::clone(&set);
            churners.push(std::thread::spawn(move || {
                for i in 0..churn_iters {
                    let k = ((t * 17 + i) % 60) * 2 + 1; // odd keys only
                    if i % 2 == 0 {
                        set.insert(k, k + 7);
                    } else {
                        set.delete(k);
                    }
                }
            }));
        }
        let mut readers = Vec::new();
        for _ in 0..4 {
            let set = Arc::clone(&set);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for k in (2..=120u64).step_by(2) {
                        assert_eq!(set.search(k), Some(k + 7), "stable key {k} lost");
                    }
                }
            }));
        }
        reclaim::offline_while(|| {
            for c in churners {
                c.join().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
            for r in readers {
                r.join().unwrap();
            }
        });
        // Cleanup for the next implementation (fresh structures each loop,
        // so nothing to do — but assert the stable half is intact).
        for k in (2..=120u64).step_by(2) {
            assert_eq!(set.search(k), Some(k + 7), "{name}");
        }
    }
}

#[test]
fn stable_keys_remain_visible_during_churn() {
    stable_keys_remain_visible(optik_suite::harness::stress::ops(30_000));
}

#[test]
#[ignore = "full 8-core-strength stress tier; run via --ignored"]
fn stable_keys_remain_visible_during_churn_full() {
    stable_keys_remain_visible(30_000);
}

/// A list with node-caching handles.
trait Caching: ConcurrentSet + Send + Sync + 'static {
    /// Runs `f` on two fresh handles; returns its result and the handles'
    /// cache hits.
    fn with_handles<R>(&self, f: impl FnOnce([&mut dyn SetHandle; 2]) -> R) -> (R, u64);
}

impl Caching for OptikList {
    fn with_handles<R>(&self, f: impl FnOnce([&mut dyn SetHandle; 2]) -> R) -> (R, u64) {
        let (mut a, mut b) = (self.handle(), self.handle());
        (f([&mut a, &mut b]), a.cache_hits() + b.cache_hits())
    }
}

impl Caching for LazyList {
    fn with_handles<R>(&self, f: impl FnOnce([&mut dyn SetHandle; 2]) -> R) -> (R, u64) {
        let (mut a, mut b) = (self.handle(), self.handle());
        (f([&mut a, &mut b]), a.cache_hits() + b.cache_hits())
    }
}

/// `stable_keys_remain_visible` through node-caching handles, over a key
/// range small enough that the nodes a handle caches are deleted, and
/// their slots recycled, by other threads. Each churner owns its keys, so
/// every answer it gets about them has exactly one right value, and it
/// alternates between two handles at random: an operation that entered at
/// a stale cached node would miss a key the other handle inserted after
/// that node was unlinked.
fn handles_keep_stable_keys_and_net_count<L: Caching>(name: &str, set: L, churn_iters: u64) {
    // Stable keys are the multiples of 5; churner t owns the keys 5j + t + 1,
    // so a key's neighbours mostly belong to other threads.
    const CHURNERS: u64 = 4;
    const KEYS: u64 = 40;
    let set = Arc::new(set);
    for k in (5..=KEYS).step_by(5) {
        assert!(set.insert(k, k + 7), "{name}");
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut churners = Vec::new();
    for t in 0..CHURNERS {
        let set = Arc::clone(&set);
        churners.push(std::thread::spawn(move || {
            set.with_handles(|mut hs| {
                let mut present = [false; (KEYS / 5) as usize];
                let mut x = (t + 1).wrapping_mul(0x9E3779B97F4A7C15);
                for _ in 0..churn_iters {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let h = &mut hs[(x >> 20) as usize % 2];
                    let j = (x >> 8) as usize % present.len();
                    let k = 5 * j as u64 + t + 1;
                    let expect = present[j].then_some(k + 7);
                    match x % 3 {
                        0 => {
                            assert_eq!(h.insert(k, k + 7), !present[j], "insert {k}");
                            present[j] = true;
                        }
                        1 => {
                            assert_eq!(h.delete(k), expect, "delete {k}");
                            present[j] = false;
                        }
                        _ => assert_eq!(h.search(k), expect, "search {k}"),
                    }
                }
                present.iter().filter(|&&p| p).count()
            })
        }));
    }
    let mut readers = Vec::new();
    for _ in 0..2 {
        let set = Arc::clone(&set);
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            set.with_handles(|[h, _]| {
                while !stop.load(Ordering::Relaxed) {
                    for k in (5..=KEYS).step_by(5) {
                        assert_eq!(h.search(k), Some(k + 7), "stable key {k} lost");
                    }
                }
            })
            .1
        }));
    }
    let (mut churned, mut hits) = (0, 0);
    reclaim::offline_while(|| {
        for c in churners {
            let (n, h) = c.join().unwrap();
            churned += n;
            hits += h;
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            hits += r.join().unwrap();
        }
    });
    assert!(hits > 0, "{name}: no operation entered through its cache");
    for k in (5..=KEYS).step_by(5) {
        assert_eq!(set.search(k), Some(k + 7), "{name}");
    }
    assert_eq!(
        set.len(),
        (KEYS / 5) as usize + churned,
        "{name}: final size vs stable keys plus the churners' present keys"
    );
}

#[test]
fn caching_handles_keep_stable_keys_and_net_count() {
    let iters = optik_suite::harness::stress::ops(200_000);
    handles_keep_stable_keys_and_net_count("list/optik", OptikList::new(), iters);
    handles_keep_stable_keys_and_net_count("list/lazy", LazyList::new(), iters);
}

#[test]
fn single_key_histories_are_linearizable() {
    // Four threads hammer one key; the recorded timed history must admit a
    // legal linearization of the two-state set spec — checked exhaustively
    // by the harness's Wing–Gong style checker.
    use optik_suite::harness::linearize::{check, HistoryRecorder, SetOp, SetSpec};
    use std::sync::{Barrier, Mutex};

    const KEY: u64 = 42;
    for (name, set) in sets() {
        let all = Arc::new(Mutex::new(Vec::new()));
        let barrier = Arc::new(Barrier::new(4));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let set = Arc::clone(&set);
            let all = Arc::clone(&all);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let mut rec = HistoryRecorder::new();
                barrier.wait();
                for i in 0..12u64 {
                    match (t + i) % 3 {
                        0 => rec.record(|| set.insert(KEY, KEY), SetOp::Insert),
                        1 => rec.record(|| set.delete(KEY).is_some(), SetOp::Delete),
                        _ => rec.record(|| set.search(KEY).is_some(), SetOp::Search),
                    }
                }
                all.lock().unwrap().extend(rec.into_ops());
            }));
        }
        reclaim::offline_while(|| {
            for h in handles {
                h.join().unwrap();
            }
        });
        let history = all.lock().unwrap().clone();
        assert!(
            check(
                &SetSpec {
                    initially_present: false
                },
                &history
            ),
            "{name}: non-linearizable single-key history"
        );
        // Clean up the key for the next loop iteration's fresh structure.
        let _ = set.delete(KEY);
    }
}

fn sequential_agreement(tape_len: u64) {
    // Drive every structure with the same operation tape; all must agree
    // with a BTreeMap model (and hence with each other).
    let sets = sets();
    let mut model = std::collections::BTreeMap::new();
    let mut x = 0x12345678u64;
    for _ in 0..tape_len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = x % 128 + 1;
        match x % 3 {
            0 => {
                let expect = !model.contains_key(&k);
                if expect {
                    model.insert(k, k);
                }
                for (name, s) in &sets {
                    assert_eq!(s.insert(k, k), expect, "{name} insert {k}");
                }
            }
            1 => {
                let expect = model.remove(&k);
                for (name, s) in &sets {
                    assert_eq!(s.delete(k), expect, "{name} delete {k}");
                }
            }
            _ => {
                let expect = model.get(&k).copied();
                for (name, s) in &sets {
                    assert_eq!(s.search(k), expect, "{name} search {k}");
                }
            }
        }
    }
    for (name, s) in &sets {
        assert_eq!(s.len(), model.len(), "{name} final length");
    }
}

#[test]
fn sequential_agreement_across_all_implementations() {
    sequential_agreement(optik_suite::harness::stress::ops(30_000));
}

#[test]
#[ignore = "full-length model-agreement tape; run via --ignored"]
fn sequential_agreement_across_all_implementations_full() {
    sequential_agreement(30_000);
}
