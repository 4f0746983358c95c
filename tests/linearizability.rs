//! The linearizability tier, driven by the subject table.
//!
//! Every row of `optik_bench::subjects::table` is built for this tier's
//! keys (up to [`MAX_KEY`]) and hammered by a handful of threads while a
//! [`HistoryRecorder`] timestamps each operation; the recorded history is
//! then decided by the Wing–Gong checker against the matching sequential
//! specification:
//!
//! - sets → single-key two-state spec ([`SetSpec`]),
//! - queues → FIFO content spec ([`FifoSpec`]),
//! - stacks → LIFO content spec ([`LifoSpec`]),
//! - maps (the kv stores and their backends) → single-key *value-carrying*
//!   spec ([`MapSpec`]): distinct put values per operation, so torn reads
//!   and lost updates are caught, not just presence errors.
//!
//! Adding a row to the table enrolls its structure here.
//! The in-tier tests run a few rounds (scaled for tier-1); the `_full`
//! variants behind `--ignored` run many more and back the CI
//! linearizability job.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Barrier, Mutex};

use optik_bench::subjects::{self, Subject};
use optik_suite::harness::api::{ConcurrentMap, Key, OrderedMap, Val};
use optik_suite::harness::linearize::{
    check, FifoSpec, HistoryRecorder, LifoSpec, MapOp, MapSpec, QueueOp, RangeMapSpec, RangeOp,
    SetOp, SetSpec, StackOp, Timed, TtlMapSpec, TtlOp, RANGE_KEYS,
};
use optik_suite::harness::{ConcurrentQueue, ConcurrentSet, ConcurrentStack};
use optik_suite::kv::{FakeClock, KvStore};

/// The largest key the rounds touch (the single-key rounds' `KEY`); every
/// subject is sized for it.
const MAX_KEY: Key = 42;

/// Adapter presenting an ordered subject as a plain map subject, so the
/// single-key map rounds run on ordered implementations too without
/// relying on `dyn` upcasting (MSRV predates it).
struct OrderedAsMap(Arc<dyn OrderedMap>);

impl ConcurrentMap for OrderedAsMap {
    fn get(&self, key: Key) -> Option<Val> {
        self.0.get(key)
    }
    fn put(&self, key: Key, val: Val) -> Option<Val> {
        self.0.put(key, val)
    }
    fn remove(&self, key: Key) -> Option<Val> {
        self.0.remove(key)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn for_each(&self, f: &mut dyn FnMut(Key, Val)) {
        self.0.for_each(f)
    }
}

/// Fails the test on a non-linearizable verdict — after writing what a
/// diagnosis needs to a file under the test target's tmp dir: the active
/// `STRESS_SEED`, the subject, the round and the full recorded history
/// (one timed op per line, sorted by invocation). The panic message names
/// the file and the seed.
fn require_linearizable<O: std::fmt::Debug + Copy>(
    linearizable: bool,
    name: &str,
    kind: &str,
    round: usize,
    history: &[Timed<O>],
) {
    if linearizable {
        return;
    }
    let seed = synchro::stress::seed();
    let mut ops = history.to_vec();
    ops.sort_by_key(|o| o.invoke);
    let mut dump = format!(
        "STRESS_SEED={seed:#x}\nsubject: {name}\nverdict: non-linearizable {kind} history\n\
         round: {round}\nops: {}\n",
        ops.len()
    );
    for o in &ops {
        use std::fmt::Write;
        let _ = writeln!(dump, "{} {} {:?}", o.invoke, o.response, o.op);
    }
    let file = format!(
        "linearizability-{}-round{round}.txt",
        name.replace(|c: char| !c.is_ascii_alphanumeric(), "_")
    );
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(file);
    let saved = match std::fs::write(&path, &dump) {
        Ok(()) => format!("history saved to {}", path.display()),
        Err(e) => format!("history could not be saved ({e}):\n{dump}"),
    };
    panic!(
        "{name}: non-linearizable {kind} history (round {round}); \
         STRESS_SEED={seed:#x}; {saved}"
    );
}

/// Single-key set history: 4 threads × 12 ops on one key (48 ops keeps the
/// checker's 64-op mask budget and decides in microseconds).
fn check_set_rounds(
    name: &str,
    make: &(dyn Fn() -> Arc<dyn ConcurrentSet> + Send + Sync),
    rounds: usize,
) {
    const KEY: u64 = 42;
    for round in 0..rounds {
        let set = make();
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
                    match (t + i + round as u64) % 3 {
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
        require_linearizable(
            check(
                &SetSpec {
                    initially_present: false,
                },
                &history,
            ),
            name,
            "single-key",
            round,
            &history,
        );
    }
}

/// FIFO history: 3 threads × 6 ops with distinct enqueue values (18 ops —
/// the content-state search stays tractable).
fn check_queue_rounds(
    name: &str,
    make: &(dyn Fn() -> Arc<dyn ConcurrentQueue> + Send + Sync),
    rounds: usize,
) {
    for round in 0..rounds {
        let q = make();
        let all = Arc::new(Mutex::new(Vec::new()));
        let barrier = Arc::new(Barrier::new(3));
        let mut handles = Vec::new();
        for t in 0..3u64 {
            let q = Arc::clone(&q);
            let all = Arc::clone(&all);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let mut rec = HistoryRecorder::new();
                barrier.wait();
                for i in 0..6u64 {
                    if (t + i + round as u64) % 2 == 0 {
                        let v = t * 1000 + i; // distinct within the round
                        rec.record(|| q.enqueue(v), |()| QueueOp::Enqueue(v));
                    } else {
                        rec.record(|| q.dequeue(), QueueOp::Dequeue);
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
        require_linearizable(check(&FifoSpec, &history), name, "FIFO", round, &history);
    }
}

/// LIFO history: the stack analogue of [`check_queue_rounds`].
fn check_stack_rounds(
    name: &str,
    make: &(dyn Fn() -> Arc<dyn ConcurrentStack> + Send + Sync),
    rounds: usize,
) {
    for round in 0..rounds {
        let s = make();
        let all = Arc::new(Mutex::new(Vec::new()));
        let barrier = Arc::new(Barrier::new(3));
        let mut handles = Vec::new();
        for t in 0..3u64 {
            let s = Arc::clone(&s);
            let all = Arc::clone(&all);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let mut rec = HistoryRecorder::new();
                barrier.wait();
                for i in 0..6u64 {
                    if (t + i + round as u64) % 2 == 0 {
                        let v = t * 1000 + i;
                        rec.record(|| s.push(v), |()| StackOp::Push(v));
                    } else {
                        rec.record(|| s.pop(), StackOp::Pop);
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
        require_linearizable(check(&LifoSpec, &history), name, "LIFO", round, &history);
    }
}

/// Single-key map history: 4 threads × 12 ops on one key with distinct
/// put values, decided against the value-carrying [`MapSpec`]. Catches
/// upserts that tear (delete+insert windows) or lose updates — failures
/// the presence-only set spec cannot see.
fn check_map_rounds(
    name: &str,
    make: &(dyn Fn() -> Arc<dyn ConcurrentMap> + Send + Sync),
    rounds: usize,
) {
    const KEY: u64 = 42;
    for round in 0..rounds {
        let map = make();
        let all = Arc::new(Mutex::new(Vec::new()));
        let barrier = Arc::new(Barrier::new(4));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let map = Arc::clone(&map);
            let all = Arc::clone(&all);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let mut rec = HistoryRecorder::new();
                barrier.wait();
                for i in 0..12u64 {
                    match (t + i + round as u64) % 3 {
                        0 => {
                            let v = t * 1_000 + i + 1; // distinct in-history
                            rec.record(|| map.put(KEY, v), |prev| MapOp::Put(v, prev));
                        }
                        1 => rec.record(|| map.remove(KEY), MapOp::Remove),
                        _ => rec.record(|| map.get(KEY), MapOp::Get),
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
        require_linearizable(
            check(&MapSpec::default(), &history),
            name,
            "single-key map",
            round,
            &history,
        );
    }
}

/// Multi-key history with range observations: 4 threads × 10 ops over
/// [`RANGE_KEYS`] tracked keys, where one op class is a full `range`
/// traversal reporting every tracked binding it saw. Decided against
/// [`RangeMapSpec`], this catches ranges that are not snapshots — e.g. a
/// traversal that observes a late write to one key after missing an
/// earlier write to another.
///
/// Only subjects whose ranges are **validated snapshots** qualify: the
/// kv stores (`kv/…` subject ids), whose `range_scan` walks every shard
/// the window touches inside one windowed read. Built for [`MAX_KEY`], a
/// range-routed store's partitions are a few keys wide, so the tracked
/// keys span partitions and every round checks the cross-shard snapshot.
/// The raw backends
/// deliberately promise only quiescence-consistent ranges (see
/// `OrderedMap`'s docs: concurrent updates "can be missed or included"),
/// so asserting snapshot linearizability on them would be a false alarm
/// waiting for enough parallelism; they are covered by the single-key
/// map rounds here, by the `BTreeMap` range property tests, and by the
/// under-lock exactness the kv stress tier exercises.
fn check_range_rounds(
    name: &str,
    make: &(dyn Fn() -> Arc<dyn OrderedMap> + Send + Sync),
    rounds: usize,
) {
    const KEYS: [u64; RANGE_KEYS] = [10, 20, 30];
    for round in 0..rounds {
        let map = make();
        let all = Arc::new(Mutex::new(Vec::new()));
        let barrier = Arc::new(Barrier::new(4));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let map = Arc::clone(&map);
            let all = Arc::clone(&all);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let mut rec = HistoryRecorder::new();
                barrier.wait();
                for i in 0..10u64 {
                    let idx = ((t + 2 * i) % RANGE_KEYS as u64) as usize;
                    match (t + i + round as u64) % 4 {
                        0 => {
                            let v = t * 1_000 + i + 1; // distinct in-history
                            rec.record(|| map.put(KEYS[idx], v), |prev| RangeOp::Put(idx, v, prev));
                        }
                        1 => rec.record(|| map.remove(KEYS[idx]), |r| RangeOp::Remove(idx, r)),
                        2 => rec.record(|| map.get(KEYS[idx]), |g| RangeOp::Get(idx, g)),
                        _ => rec.record(
                            || {
                                let mut obs = [None; RANGE_KEYS];
                                map.range(KEYS[0], KEYS[RANGE_KEYS - 1], &mut |k, v| {
                                    if let Some(p) = KEYS.iter().position(|&kk| kk == k) {
                                        obs[p] = Some(v);
                                    }
                                });
                                obs
                            },
                            RangeOp::Range,
                        ),
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
        require_linearizable(
            check(&RangeMapSpec::default(), &history),
            name,
            "range-observing",
            round,
            &history,
        );
    }
}

/// Runs every subject-table row through the appropriate checker,
/// `rounds` histories per row.
fn run_tier(rounds: usize) {
    // Subject ids enrolled per kind; "ranged" holds the ordered subjects
    // that also run the range-observing rounds.
    let mut enrolled: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (id, subject) in subjects::table() {
        enrolled.entry(subject.kind()).or_default().insert(id);
        match &subject {
            Subject::Set(make) => check_set_rounds(id, &|| make(MAX_KEY), rounds),
            Subject::Queue(make) => check_queue_rounds(id, make.as_ref(), rounds),
            Subject::Stack(make) => check_stack_rounds(id, make.as_ref(), rounds),
            Subject::Map(make) => check_map_rounds(id, &|| make(MAX_KEY), rounds),
            Subject::Ordered(make) => {
                // Ordered subjects run the value-carrying single-key
                // rounds; store-backed ones (validated-snapshot ranges)
                // additionally run the range-observing rounds — see
                // `check_range_rounds` for why raw backends do not.
                let as_map = || -> Arc<dyn ConcurrentMap> { Arc::new(OrderedAsMap(make(MAX_KEY))) };
                check_map_rounds(id, &as_map, rounds);
                if id.starts_with("kv/") {
                    enrolled.entry("ranged").or_default().insert(id);
                    check_range_rounds(id, &|| make(MAX_KEY), rounds);
                }
            }
        }
    }
    // The table must actually be feeding the tier, with exactly these
    // subjects: a structure that leaves or joins the table fails here
    // until this list names the change.
    let expected: [(&str, &[&str]); 6] = [
        (
            "set",
            &[
                "bst/mcs-gl",
                "bst/optik-gl",
                "bst/optik-tk",
                "ht/java",
                "ht/java-optik",
                "ht/java-resize",
                "ht/java-undersized",
                "ht/lazy-gl",
                "ht/optik",
                "ht/optik-gl",
                "ht/optik-map",
                "list/harris",
                "list/lazy",
                "list/mcs-gl-opt",
                "list/optik",
                "list/optik-gl",
                "list/optik-gl-ticket",
                "map/mcs",
                "map/optik",
                "sl/fraser",
                "sl/herl-optik",
                "sl/herlihy",
                "sl/optik1",
                "sl/optik2",
            ],
        ),
        (
            "queue",
            &[
                "queue/ms-lb",
                "queue/ms-lf",
                "queue/optik0",
                "queue/optik1",
                "queue/optik2",
                "queue/optik3",
                "queue/optik3-t0",
                "queue/optik3-t1",
                "queue/optik3-t16",
                "queue/optik3-t2",
                "queue/optik3-t4",
                "queue/optik3-t8",
                "queue/optik3-tinf",
            ],
        ),
        ("stack", &["stack/elim", "stack/optik", "stack/treiber"]),
        (
            "map",
            &[
                "kv/optik-map",
                "kv/optik-map-small",
                "kv/resizable",
                "kv/striped",
                "kv/striped-optik",
                "kv/striped-optik-s1",
                "kv/striped-optik-s16",
                "kv/striped-optik-s2",
                "kv/striped-optik-s32",
                "kv/striped-optik-s4",
                "kv/striped-optik-s8",
                "kv/ttl-optik-map",
                "kv/ttl-resizable",
                "kv/ttl-striped-optik",
            ],
        ),
        (
            "ordered",
            &[
                "kv/hash-skiplist",
                "kv/nested-hash-over-ord",
                "kv/nested-ord-over-hash",
                "kv/range-sl-fraser",
                "kv/range-sl-herl-optik",
                "kv/range-sl-herlihy",
                "kv/range-sl-optik2",
                "omap/sl-fraser",
                "omap/sl-herl-optik",
                "omap/sl-herlihy",
                "omap/sl-optik1",
                "omap/sl-optik2",
            ],
        ),
        (
            "ranged",
            &[
                "kv/hash-skiplist",
                "kv/nested-hash-over-ord",
                "kv/nested-ord-over-hash",
                "kv/range-sl-fraser",
                "kv/range-sl-herl-optik",
                "kv/range-sl-herlihy",
                "kv/range-sl-optik2",
            ],
        ),
    ];
    let got: Vec<(&str, Vec<&str>)> = enrolled
        .iter()
        .map(|(kind, ids)| (*kind, ids.iter().copied().collect()))
        .collect();
    let mut want: Vec<(&str, Vec<&str>)> = expected
        .iter()
        .map(|(kind, ids)| {
            let mut ids = ids.to_vec();
            ids.sort_unstable();
            (*kind, ids)
        })
        .collect();
    want.sort();
    assert_eq!(got, want, "subjects enrolled in the linearizability tier");
}

#[test]
fn registry_structures_are_linearizable() {
    run_tier(2);
}

#[test]
#[ignore = "full-strength linearizability tier; run in CI via --ignored"]
fn registry_structures_are_linearizable_full() {
    run_tier(25);
}

// ---------------------------------------------------------------------------
// TTL rounds: fake-clock histories against the TTL-aware map spec.
// ---------------------------------------------------------------------------

/// Single-key TTL history: 4 threads × 12 ops on one key mixing plain
/// puts, TTL puts, `expire_after`, gets, and removes, while thread 0
/// also advances the shared fake clock through *recorded* `Advance`
/// operations — so expiry is an event in the history and a read that
/// observes an expired binding cannot linearize.
fn check_ttl_rounds<B: ConcurrentMap + 'static>(
    name: &str,
    make: impl Fn(Arc<FakeClock>) -> KvStore<B>,
    rounds: usize,
) {
    const KEY: u64 = 42;
    for round in 0..rounds {
        let clock = Arc::new(FakeClock::new());
        let store = Arc::new(make(Arc::clone(&clock)));
        let all = Arc::new(Mutex::new(Vec::new()));
        let barrier = Arc::new(Barrier::new(4));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let store = Arc::clone(&store);
            let clock = Arc::clone(&clock);
            let all = Arc::clone(&all);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let mut rec = HistoryRecorder::new();
                barrier.wait();
                for i in 0..12u64 {
                    let v = t * 1_000 + i + 1; // distinct in-history
                    match (t + i + round as u64) % 6 {
                        0 => rec.record(|| store.put(KEY, v), |prev| TtlOp::Put(v, prev)),
                        1 => rec.record(
                            || store.put_with_ttl(KEY, v, 3),
                            |prev| TtlOp::PutTtl(v, 3, prev),
                        ),
                        2 => rec.record(
                            || store.expire_after(KEY, 2),
                            |found| TtlOp::ExpireAfter(2, found),
                        ),
                        3 => rec.record(|| store.remove(KEY), TtlOp::Remove),
                        4 if t == 0 => rec.record(|| clock.advance(1), TtlOp::Advance),
                        _ => rec.record(|| store.get(KEY), TtlOp::Get),
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
        require_linearizable(
            check(&TtlMapSpec::default(), &history),
            name,
            "TTL",
            round,
            &history,
        );
    }
}

fn run_ttl_tier(rounds: usize) {
    check_ttl_rounds(
        "kv/ttl-striped-optik",
        |clock| {
            KvStore::with_shards_ttl(4, clock, |_| {
                optik_suite::hashtables::StripedOptikHashTable::new(32, 8)
            })
        },
        rounds,
    );
    check_ttl_rounds(
        "kv/ttl-ordered-optik2",
        |clock| {
            KvStore::with_ordered_shards_ttl(4, 128, clock, |_| {
                optik_suite::skiplists::OptikSkipList2::new()
            })
        },
        rounds,
    );
}

#[test]
fn ttl_stores_are_linearizable_under_the_fake_clock() {
    run_ttl_tier(3);
}

#[test]
#[ignore = "full-strength TTL linearizability tier; run in CI via --ignored"]
fn ttl_stores_are_linearizable_under_the_fake_clock_full() {
    run_ttl_tier(30);
}

// ---------------------------------------------------------------------------
// Forced migrations: single-key histories across boundary shifts.
// ---------------------------------------------------------------------------

/// 4 threads run the value-carrying map mix on a key that sits between
/// two oscillating partition boundaries while a migrating thread forces
/// split/merge migrations (the key changes shards continuously). The
/// recorded history must stay linearizable against the plain `MapSpec` —
/// migration is invisible to clients or it is broken.
fn check_migration_rounds(rounds: usize, shifts_per_round: u64) {
    const KEY: u64 = 20;
    for round in 0..rounds {
        let store = Arc::new(KvStore::with_ordered_shards(4, 40, |_| {
            optik_suite::skiplists::OptikSkipList2::new()
        }));
        let all = Arc::new(Mutex::new(Vec::new()));
        let barrier = Arc::new(Barrier::new(5));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let store = Arc::clone(&store);
            let all = Arc::clone(&all);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let mut rec = HistoryRecorder::new();
                barrier.wait();
                for i in 0..12u64 {
                    match (t + i + round as u64) % 3 {
                        0 => {
                            let v = t * 1_000 + i + 1; // distinct in-history
                            rec.record(|| store.put(KEY, v), |prev| MapOp::Put(v, prev));
                        }
                        1 => rec.record(|| store.remove(KEY), MapOp::Remove),
                        _ => rec.record(|| store.get(KEY), MapOp::Get),
                    }
                }
                all.lock().unwrap().extend(rec.into_ops());
            }));
        }
        // The rebalancer: walk the boundary under KEY back and forth so
        // the key's owning shard flips on every shift.
        let rebalancer = {
            let store = Arc::clone(&store);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                // Partition bounds start at [10, 20, 30, MAX]; walking
                // bounds[1] between 15 and 25 flips KEY = 20 between
                // shards 1 and 2 on every shift.
                for i in 0..shifts_per_round {
                    let bound = if i % 2 == 0 { KEY + 5 } else { KEY - 5 };
                    store.shift_boundary(1, bound).expect("legal shift");
                }
            })
        };
        reclaim::offline_while(|| {
            for h in handles {
                h.join().unwrap();
            }
            rebalancer.join().unwrap();
        });
        let history = all.lock().unwrap().clone();
        require_linearizable(
            check(&MapSpec::default(), &history),
            "kv/rebalance",
            "across-migration",
            round,
            &history,
        );
    }
}

#[test]
fn kv_store_stays_linearizable_across_forced_rebalances() {
    check_migration_rounds(3, 40);
}

// ---------------------------------------------------------------------------
// Grouped multi_get rounds: multi-key reads across forced boundary
// migrations, decided against the range spec.
// ---------------------------------------------------------------------------

/// 4 threads run the multi-key mix over the tracked keys while a
/// rebalancer walks a partition boundary back and forth underneath them,
/// so the batch's shard *grouping* changes continuously. The multi-key
/// read op is the store's grouped `multi_get` over all tracked keys,
/// recorded as a [`RangeOp::Range`] observation: against [`RangeMapSpec`]
/// it must be a snapshot — one atomic window across every shard-group the
/// batch touched, no matter how the router regrouped it mid-read. A
/// grouped read that misses a routing flip (probing a key's old shard
/// after migration) shows up here as a non-linearizable observation.
fn check_multiget_migration_rounds(rounds: usize, shifts_per_round: u64) {
    const KEYS: [u64; RANGE_KEYS] = [10, 20, 30];
    for round in 0..rounds {
        let store = Arc::new(KvStore::with_ordered_shards(4, 40, |_| {
            optik_suite::skiplists::OptikSkipList2::new()
        }));
        let all = Arc::new(Mutex::new(Vec::new()));
        let barrier = Arc::new(Barrier::new(5));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let store = Arc::clone(&store);
            let all = Arc::clone(&all);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let mut rec = HistoryRecorder::new();
                barrier.wait();
                for i in 0..10u64 {
                    let idx = ((t + 2 * i) % RANGE_KEYS as u64) as usize;
                    match (t + i + round as u64) % 4 {
                        0 => {
                            let v = t * 1_000 + i + 1; // distinct in-history
                            rec.record(
                                || store.put(KEYS[idx], v),
                                |prev| RangeOp::Put(idx, v, prev),
                            );
                        }
                        1 => rec.record(|| store.remove(KEYS[idx]), |r| RangeOp::Remove(idx, r)),
                        2 => rec.record(|| store.get(KEYS[idx]), |g| RangeOp::Get(idx, g)),
                        _ => rec.record(
                            || {
                                let vals = store.multi_get(&KEYS);
                                let mut obs = [None; RANGE_KEYS];
                                obs.copy_from_slice(&vals);
                                obs
                            },
                            RangeOp::Range,
                        ),
                    }
                }
                all.lock().unwrap().extend(rec.into_ops());
            }));
        }
        // Walk bounds[1] between 15 and 25: KEYS[1] = 20 flips between
        // shards 1 and 2 on every shift, regrouping the batch mid-flight.
        let rebalancer = {
            let store = Arc::clone(&store);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..shifts_per_round {
                    let bound = if i % 2 == 0 { 25 } else { 15 };
                    store.shift_boundary(1, bound).expect("legal shift");
                }
            })
        };
        reclaim::offline_while(|| {
            for h in handles {
                h.join().unwrap();
            }
            rebalancer.join().unwrap();
        });
        let history = all.lock().unwrap().clone();
        require_linearizable(
            check(&RangeMapSpec::default(), &history),
            "kv/multiget-rebalance",
            "grouped multi_get",
            round,
            &history,
        );
    }
}

#[test]
fn kv_grouped_multi_get_stays_linearizable_across_rebalances() {
    check_multiget_migration_rounds(3, 40);
}

#[test]
#[ignore = "full-strength grouped-multiget rebalance linearizability tier; run in CI via --ignored"]
fn kv_grouped_multi_get_stays_linearizable_across_rebalances_full() {
    check_multiget_migration_rounds(30, 400);
}

#[test]
#[ignore = "full-strength rebalance linearizability tier; run in CI via --ignored"]
fn kv_store_stays_linearizable_across_forced_rebalances_full() {
    check_migration_rounds(30, 400);
}
