//! Bounded schedule exploration over the real kv store's OPTIK
//! validation points.
//!
//! These suites only exist under `--cfg optik_explore`: that cfg turns
//! the `synchro::shim` atomics inside the shard version locks, routing
//! bounds, TTL clock, and sweep cursor into scheduler yield points, so
//! the explorer can enumerate every bounded interleaving of two store
//! operations racing through them. Build and run with:
//!
//! ```text
//! RUSTFLAGS='--cfg optik_explore' cargo test -p optik-explore --test explore_kv
//! ```
//!
//! Eight interleaving families, one per dynamic behaviour the stress
//! tier can only sample:
//!
//! 1. **TTL expiry vs put** — a `FakeClock` advance racing reads and
//!    writes of a deadline-armed key ([`TtlMapSpec`]).
//! 2. **`shift_boundary` flip vs get/put** — a routing-table flip with
//!    live migration racing point ops on the migrating key
//!    ([`MapSpec`]).
//! 3. **`range_scan` vs a boundary migration** — a cross-shard window
//!    scan racing a `shift_boundary` migration plus a write
//!    ([`RangeMapSpec`]).
//! 4. **lock-free `remove` miss vs put / `multi_put`** — the infeasible
//!    remove returns without the shard lock, racing a single-key writer
//!    and a batch writer that hold it ([`MapSpec`]).
//! 5. **`multi_get` vs writers on two shards** — the cross-shard batch
//!    read, whose repair rounds re-probe only the shard that moved, racing
//!    single-key puts and a `multi_put` of the same two keys
//!    (`multi_get_model::PairSpec`).
//! 6. **`range_scan` vs writers on two hash shards** — the cross-shard
//!    window read, all of whose shards sit inside one windowed read,
//!    racing a put, a remove and a `multi_put` ([`RangeMapSpec`]; model in
//!    `range_scan_model`).
//! 7. **skip-list single writer vs `get` and `range_scan`** — a shard's
//!    writer links a fresh node and claims and unlinks another through
//!    `OptikSkipList`'s `put_exclusive`/`remove_exclusive`, whose only
//!    lock-word writes are the level-0 predecessor's bump and the victim's
//!    forever-held lock, racing a lock-free `get` and a validated window
//!    read over both nodes ([`RangeMapSpec`]).
//! 8. **ordered batch walk vs put** — a `multi_put` and then a
//!    `multi_remove` over two partitions walk to their keys before they
//!    lock, racing a `put` between the batch's shard-0 keys that, landing
//!    between a walk and its locks, leaves that shard's walk stale
//!    ([`RangeMapSpec`]; model in `batch_walk_model`).
//!
//! One more test runs no scheduler: `optimistic_reads_trap_only_loads`
//! records the shim accesses of uncontended `get`, `multi_get`,
//! `range_scan` and `scan` calls on a range-routed and a hash-routed
//! store, and requires every one to be a load — an optimistic read
//! writes no shared word of the store.
//!
//! `locked_writes_release_with_one_store` records the shim accesses of
//! uncontended `put` and `remove` calls on a hash-routed and a
//! range-routed store: each shard or node lock word a write takes is
//! acquired with one read-modify-write (its CAS) and released with one
//! plain store.
//!
//! Every enumerated schedule replays the ops against the sequential
//! spec with the Wing–Gong checker; a failure message always carries
//! the schedule token, which `optik_explore::replay` re-runs
//! byte-exactly.
//!
//! Preemption bounds keep the trees tractable: a kv operation crosses
//! ~5–30 shim accesses, so the unbounded tree is astronomically large,
//! but (per the CHESS observation) almost all real concurrency bugs
//! need only a couple of preemptions. Within the stated bound the
//! enumeration is exhaustive — `Stats::truncated` is asserted false.

#![cfg(optik_explore)]

mod batch_walk_model;
mod multi_get_model;
mod range_scan_model;
mod support;

use std::collections::BTreeSet;
use std::sync::Arc;

use optik_explore::{explore, Config, Hist, Trial};
use optik_harness::linearize::{
    check, MapOp, MapSpec, RangeMapSpec, RangeOp, SeqSpec, TtlMapSpec, TtlOp,
};
use optik_hashtables::StripedOptikHashTable;
use optik_kv::{FakeClock, KvStore};
use optik_skiplists::OptikSkipList2;
use support::{arrive_and_wait, timed};
use synchro::shim;

/// Exploration bounds shared by the kv families. Two preemptions is the
/// classic CHESS sweet spot; the per-family tests assert the tree was
/// exhausted within it.
fn kv_config(preemptions: u32) -> Config {
    Config {
        max_steps: 20_000,
        max_schedules: 400_000,
        preemptions: Some(preemptions),
        sleep_sets: true,
    }
}

/// Checks one schedule's history, failing with the replay token.
fn assert_linearizable<S>(spec: &S, hist: &Hist<S::Op>, trial: &Trial, family: &str)
where
    S: SeqSpec,
    S::Op: std::fmt::Debug,
{
    let h = timed(&hist.take_sorted());
    assert!(
        check(spec, &h),
        "{family}: non-linearizable history {h:?}; replay with schedule token {}",
        trial.token()
    );
}

// ---------------------------------------------------------------------------
// Family 1: TTL expiry vs put (FakeClock advance as a history event).
// ---------------------------------------------------------------------------

const TTL_KEY: u64 = 7;

fn ttl_store(clock: &Arc<FakeClock>) -> KvStore<StripedOptikHashTable> {
    // One shard: the race under test is *within* a shard (value,
    // deadline, clock), not across the routing table.
    KvStore::with_shards_ttl(1, clock.clone(), |_| StripedOptikHashTable::new(16, 2))
}

#[test]
fn ttl_expiry_races_put_and_get() {
    let mut outcomes: BTreeSet<(Option<u64>, Option<u64>)> = BTreeSet::new();
    let stats = explore(kv_config(2), |trial| {
        let clock = Arc::new(FakeClock::new());
        let store = ttl_store(&clock);
        let hist: Hist<TtlOp> = Hist::new();
        // Setup runs unscheduled (no hook on this thread): arm the key
        // with deadline 5. `TtlMapSpec::initial` cannot carry a
        // deadline, so the arming put is recorded as a history event
        // that provably linearizes first (its window [0,0] precedes
        // every in-run op, whose timestamps are >= 1).
        store.put_with_ttl(TTL_KEY, 1, 5);
        hist.push(0, 0, TtlOp::PutTtl(1, 5, None));
        trial.run(&[
            &|| {
                // Advance the clock exactly to the deadline (deadline
                // <= now means expired), then read.
                let i = trial.now();
                let t = clock.advance(5);
                hist.push(i, trial.now(), TtlOp::Advance(t));
                let i = trial.now();
                let got = store.get(TTL_KEY);
                hist.push(i, trial.now(), TtlOp::Get(got));
            },
            &|| {
                // An untimed overwrite racing the expiry: depending on
                // where it linearizes it sees Some(1) or None.
                let i = trial.now();
                let prev = store.put(TTL_KEY, 2);
                hist.push(i, trial.now(), TtlOp::Put(2, prev));
            },
        ]);
        let h = timed(&hist.take_sorted());
        // Record the (get, put-prev) pair to prove both sides of the
        // race are enumerated.
        let got = h.iter().find_map(|t| match t.op {
            TtlOp::Get(g) => Some(g),
            _ => None,
        });
        let prev = h.iter().find_map(|t| match t.op {
            TtlOp::Put(_, p) => Some(p),
            _ => None,
        });
        outcomes.insert((got.unwrap(), prev.unwrap()));
        assert!(
            check(&TtlMapSpec { initial: None }, &h),
            "ttl expiry-vs-put: non-linearizable history {h:?}; replay with schedule token {}",
            trial.token()
        );
    });
    eprintln!("explore_kv::ttl_expiry_races_put_and_get: {stats}");
    assert!(!stats.truncated, "tree not exhausted: {stats}");
    assert_eq!(
        stats.schedules, 13,
        "the order of shim accesses changed: {stats}"
    );
    // The put must land on both sides of the expiry across schedules:
    // before it (sees the armed value) and after it (fresh insert).
    assert!(
        outcomes.iter().any(|&(_, prev)| prev == Some(1)),
        "no schedule put before expiry: {outcomes:?}"
    );
    assert!(
        outcomes.iter().any(|&(_, prev)| prev.is_none()),
        "no schedule expired before the put: {outcomes:?}"
    );
    // And the get must observe the overwrite in at least one schedule.
    assert!(
        outcomes.iter().any(|&(got, _)| got == Some(2)),
        "no schedule saw the racing put: {outcomes:?}"
    );
}

#[test]
fn ttl_expire_after_races_get() {
    let mut gets: BTreeSet<(Option<u64>, Option<u64>)> = BTreeSet::new();
    let stats = explore(kv_config(2), |trial| {
        let clock = Arc::new(FakeClock::new());
        let store = ttl_store(&clock);
        let hist: Hist<TtlOp> = Hist::new();
        // A plain (never-expiring) binding this time: `expire_after`
        // arms the deadline mid-run.
        store.put(TTL_KEY, 1);
        hist.push(0, 0, TtlOp::Put(1, None));
        trial.run(&[
            &|| {
                let i = trial.now();
                let found = store.expire_after(TTL_KEY, 3);
                hist.push(i, trial.now(), TtlOp::ExpireAfter(3, found));
                let i = trial.now();
                let t = clock.advance(3);
                hist.push(i, trial.now(), TtlOp::Advance(t));
            },
            &|| {
                let i = trial.now();
                let a = store.get(TTL_KEY);
                hist.push(i, trial.now(), TtlOp::Get(a));
                let i = trial.now();
                let b = store.get(TTL_KEY);
                hist.push(i, trial.now(), TtlOp::Get(b));
            },
        ]);
        let h = timed(&hist.take_sorted());
        // Both gets come from one thread, so sorted-by-invoke order is
        // their program order.
        let g: Vec<Option<u64>> = h
            .iter()
            .filter_map(|t| match t.op {
                TtlOp::Get(v) => Some(v),
                _ => None,
            })
            .collect();
        gets.insert((g[0], g[1]));
        assert!(
            check(&TtlMapSpec { initial: None }, &h),
            "ttl expire_after-vs-get: non-linearizable history {h:?}; replay with schedule token {}",
            trial.token()
        );
    });
    eprintln!("explore_kv::ttl_expire_after_races_get: {stats}");
    assert!(!stats.truncated, "tree not exhausted: {stats}");
    assert_eq!(
        stats.schedules, 23,
        "the order of shim accesses changed: {stats}"
    );
    // Both reads before expiry, and at least the second read after it,
    // must each occur in some schedule.
    assert!(gets.contains(&(Some(1), Some(1))), "gets seen: {gets:?}");
    assert!(
        gets.iter().any(|&(_, b)| b.is_none()),
        "no schedule observed the expiry: {gets:?}"
    );
}

#[test]
fn ttl_sweep_races_put() {
    let stats = explore(kv_config(2), |trial| {
        let clock = Arc::new(FakeClock::new());
        let store = ttl_store(&clock);
        let hist: Hist<TtlOp> = Hist::new();
        store.put_with_ttl(TTL_KEY, 1, 2);
        hist.push(0, 0, TtlOp::PutTtl(1, 2, None));
        trial.run(&[
            &|| {
                let i = trial.now();
                let t = clock.advance(2);
                hist.push(i, trial.now(), TtlOp::Advance(t));
                // The physical reclaim: logically a no-op (expiry
                // already happened at the advance), so it is not a
                // history event — but its collect-then-reverify window
                // races the put below at full schedule granularity.
                store.sweep_expired(4);
                let i = trial.now();
                let got = store.get(TTL_KEY);
                hist.push(i, trial.now(), TtlOp::Get(got));
            },
            &|| {
                let i = trial.now();
                let prev = store.put_with_ttl(TTL_KEY, 2, 10);
                hist.push(i, trial.now(), TtlOp::PutTtl(2, 10, prev));
            },
        ]);
        assert_linearizable(
            &TtlMapSpec { initial: None },
            &hist,
            trial,
            "ttl sweep-vs-put",
        );
    });
    eprintln!("explore_kv::ttl_sweep_races_put: {stats}");
    assert!(!stats.truncated, "tree not exhausted: {stats}");
    assert_eq!(
        stats.schedules, 33,
        "the order of shim accesses changed: {stats}"
    );
}

// ---------------------------------------------------------------------------
// Family 2: shift_boundary flip vs point ops on the migrating key.
// ---------------------------------------------------------------------------

/// Key space 0..=100 over two shards: bounds start at [50, MAX], so key
/// 60 lives in shard 1 and migrates to shard 0 when the boundary shifts
/// to 80.
const FLIP_KEY: u64 = 60;

#[test]
fn boundary_flip_races_get_and_put() {
    let mut outcomes: BTreeSet<(Option<u64>, Option<u64>)> = BTreeSet::new();
    let stats = explore(kv_config(2), |trial| {
        let store: KvStore<OptikSkipList2> =
            KvStore::with_ordered_shards(2, 100, |_| OptikSkipList2::new());
        let hist: Hist<MapOp> = Hist::new();
        store.put(FLIP_KEY, 1);
        trial.run(&[
            &|| {
                // Routing is logically invisible: the flip (and the
                // migration it drives) is not a history event. Every
                // get/put racing it must still read/write the one true
                // binding of FLIP_KEY.
                store.shift_boundary(0, 80).expect("legal shift");
            },
            &|| {
                let i = trial.now();
                let got = store.get(FLIP_KEY);
                hist.push(i, trial.now(), MapOp::Get(got));
                let i = trial.now();
                let prev = store.put(FLIP_KEY, 2);
                hist.push(i, trial.now(), MapOp::Put(2, prev));
            },
        ]);
        let h = timed(&hist.take_sorted());
        let got = h.iter().find_map(|t| match t.op {
            MapOp::Get(g) => Some(g),
            _ => None,
        });
        let prev = h.iter().find_map(|t| match t.op {
            MapOp::Put(_, p) => Some(p),
            _ => None,
        });
        outcomes.insert((got.unwrap(), prev.unwrap()));
        assert!(
            check(&MapSpec { initial: Some(1) }, &h),
            "flip-vs-get: non-linearizable history {h:?}; replay with schedule token {}",
            trial.token()
        );
        // The put may land on either side of the migration; after the
        // run the binding must be the put's value, reachable through
        // the *final* routing table.
        assert_eq!(
            store.get(FLIP_KEY),
            Some(2),
            "flip-vs-put lost the write; replay with schedule token {}",
            trial.token()
        );
    });
    eprintln!("explore_kv::boundary_flip_races_get_and_put: {stats}");
    assert!(!stats.truncated, "tree not exhausted: {stats}");
    assert_eq!(
        stats.schedules, 206,
        "the order of shim accesses changed: {stats}"
    );
    // Reads and writes must stay coherent on both sides of the flip.
    assert_eq!(
        outcomes.iter().map(|&(g, _)| g).collect::<BTreeSet<_>>(),
        BTreeSet::from([Some(1)]),
        "a get raced the migration into a miss or torn value: {outcomes:?}"
    );
    assert_eq!(
        outcomes.iter().map(|&(_, p)| p).collect::<BTreeSet<_>>(),
        BTreeSet::from([Some(1)]),
        "a put raced the migration into losing the old binding: {outcomes:?}"
    );
}

// ---------------------------------------------------------------------------
// Family 3: range_scan vs rebalance migration plus a racing write.
// ---------------------------------------------------------------------------

/// Key space 0..=300 over three shards (bounds [100, 200, MAX]). The
/// tracked keys start one per shard; the shift to 160 migrates key 150
/// from shard 1 to shard 0 while the scan walks the window.
const RANGE_KEYS_TRACKED: [u64; 3] = [90, 150, 210];

#[test]
fn range_scan_races_rebalance_and_put() {
    let mut scans: BTreeSet<[Option<u64>; 3]> = BTreeSet::new();
    let stats = explore(kv_config(2), |trial| {
        let store: KvStore<OptikSkipList2> =
            KvStore::with_ordered_shards(3, 300, |_| OptikSkipList2::new());
        let hist: Hist<RangeOp> = Hist::new();
        store.put(RANGE_KEYS_TRACKED[0], 1);
        store.put(RANGE_KEYS_TRACKED[2], 3);
        trial.run(&[
            &|| {
                // Migrate key 150's span (shard 1 → shard 0), then bind
                // it: the write routes through whichever table version
                // it observes and must re-check under the shard lock.
                store.shift_boundary(0, 160).expect("legal shift");
                let i = trial.now();
                let prev = store.put(RANGE_KEYS_TRACKED[1], 22);
                hist.push(i, trial.now(), RangeOp::Put(1, 22, prev));
            },
            &|| {
                let i = trial.now();
                let scan = store.range_scan(0, 300);
                let seen = RANGE_KEYS_TRACKED
                    .map(|k| scan.iter().find(|&&(key, _)| key == k).map(|&(_, v)| v));
                hist.push(i, trial.now(), RangeOp::Range(seen));
            },
        ]);
        let h = timed(&hist.take_sorted());
        scans.extend(h.iter().filter_map(|t| match t.op {
            RangeOp::Range(seen) => Some(seen),
            _ => None,
        }));
        assert!(
            check(
                &RangeMapSpec {
                    initial: [Some(1), None, Some(3)],
                },
                &h
            ),
            "range-vs-rebalance: non-linearizable history {h:?}; replay with schedule token {}",
            trial.token()
        );
    });
    eprintln!("explore_kv::range_scan_races_rebalance_and_put: {stats}");
    assert!(!stats.truncated, "tree not exhausted: {stats}");
    assert_eq!(
        stats.schedules, 238,
        "the order of shim accesses changed: {stats}"
    );
    // The scan must never tear: both snapshots are legal, a mixture
    // (e.g. seeing 22 but missing an untouched neighbour) is not —
    // that is what the spec check inside enforces. Here we just prove
    // both sides of the race actually happened.
    assert!(
        scans.contains(&[Some(1), None, Some(3)]),
        "no scan linearized before the put: {scans:?}"
    );
    assert!(
        scans.contains(&[Some(1), Some(22), Some(3)]),
        "no scan linearized after the put: {scans:?}"
    );
}

// ---------------------------------------------------------------------------
// Family 4: the lock-free remove miss vs a put and a batch put.
// ---------------------------------------------------------------------------

/// The tracked key and a bystander the batch writes first, so the
/// remover can run while the batch is half applied. One shard, so both
/// land under the same lock.
const MISS_KEY: u64 = 7;
const MISS_BYSTANDER: u64 = 8;

#[test]
fn remove_miss_races_put_and_multi_put() {
    let mut removed: BTreeSet<Option<u64>> = BTreeSet::new();
    let stats = explore(kv_config(2), |trial| {
        // Statically routed, no TTL: the store on which a `remove` that
        // finds nothing returns without touching the shard lock. The key
        // starts absent, so the remover misses unless a writer got there
        // first — and then it must take the lock and find the key again.
        let store: KvStore<StripedOptikHashTable> =
            KvStore::with_shards(1, |_| StripedOptikHashTable::new(16, 2));
        let hist: Hist<MapOp> = Hist::new();
        // Completion barrier: the writers allocate chain nodes in-run.
        let done = shim::AtomicU64::new(0);
        trial.run(&[
            &|| {
                let i = trial.now();
                let gone = store.remove(MISS_KEY);
                hist.push(i, trial.now(), MapOp::Remove(gone));
                arrive_and_wait(&done, 3);
            },
            &|| {
                let i = trial.now();
                let prev = store.put(MISS_KEY, 2);
                hist.push(i, trial.now(), MapOp::Put(2, prev));
                arrive_and_wait(&done, 3);
            },
            &|| {
                let i = trial.now();
                let prevs = store.multi_put(&[(MISS_BYSTANDER, 9), (MISS_KEY, 3)]);
                hist.push(i, trial.now(), MapOp::Put(3, prevs[1]));
                arrive_and_wait(&done, 3);
            },
        ]);
        // The binding left behind is part of the history: a remove that
        // reported a miss but unlinked something, or a hit that removed
        // nothing, shows here.
        let end = trial.now() + 1;
        hist.push(end, end, MapOp::Get(store.get(MISS_KEY)));
        let h = timed(&hist.take_sorted());
        removed.extend(h.iter().filter_map(|t| match t.op {
            MapOp::Remove(gone) => Some(gone),
            _ => None,
        }));
        assert!(
            check(&MapSpec { initial: None }, &h),
            "remove-miss-vs-writers: non-linearizable history {h:?}; replay with schedule token {}",
            trial.token()
        );
        assert_eq!(
            store.get(MISS_BYSTANDER),
            Some(9),
            "the batch lost its other key; replay with schedule token {}",
            trial.token()
        );
    });
    eprintln!("explore_kv::remove_miss_races_put_and_multi_put: {stats}");
    assert!(!stats.truncated, "tree not exhausted: {stats}");
    assert_eq!(
        stats.schedules, 4_764,
        "the order of shim accesses changed: {stats}"
    );
    // The tree must contain the lock-free miss and a locked hit on each
    // writer's value.
    assert_eq!(
        removed,
        BTreeSet::from([None, Some(2), Some(3)]),
        "the remover did not land on every side of the writers"
    );
}

// ---------------------------------------------------------------------------
// Family 5: one cross-shard multi_get vs single-key puts and a batch put.
// ---------------------------------------------------------------------------

#[test]
fn multi_get_races_writers_on_two_shards() {
    use multi_get_model::{run, PairSpec, INITIAL};
    let mut reads: BTreeSet<[Option<u64>; 2]> = BTreeSet::new();
    let mut lookups: BTreeSet<usize> = BTreeSet::new();
    let stats = explore(kv_config(2), |trial| {
        let out = run(trial);
        reads.insert(out.read);
        lookups.insert(out.lookups);
        let h = timed(&out.history);
        assert!(
            check(&PairSpec { initial: INITIAL }, &h),
            "multi_get-vs-writers: non-linearizable history {h:?} ({} lookups); \
             replay with schedule token {}",
            out.lookups,
            trial.token()
        );
    });
    eprintln!("explore_kv::multi_get_races_writers_on_two_shards: {stats}");
    eprintln!("  reads seen: {reads:?}; reader lookups seen: {lookups:?}");
    assert!(!stats.truncated, "tree not exhausted: {stats}");
    assert_eq!(
        stats.schedules, 681,
        "the order of shim accesses changed: {stats}"
    );
    // The read must land before every write, after the batch, and between
    // the two single-key puts; the spec check above is what rejects the
    // torn pairs (the batch's A with the B from before it, and so on).
    for want in [INITIAL, [Some(21), Some(22)], [Some(11), Some(2)]] {
        assert!(reads.contains(&want), "no read saw {want:?}: {reads:?}");
    }
    // The tree must hold the clean pass and a repair round of one shard.
    assert!(lookups.contains(&2), "no clean pass: {lookups:?}");
    assert!(lookups.contains(&3), "no repair round: {lookups:?}");
}

// ---------------------------------------------------------------------------
// Family 6: one range_scan over two hash shards vs a put, a remove and a
// batch put.
// ---------------------------------------------------------------------------

#[test]
fn range_scan_races_writers_on_two_hash_shards() {
    use range_scan_model::{run, Scan, INITIAL};
    let mut scans: BTreeSet<[Option<u64>; 3]> = BTreeSet::new();
    let stats = explore(kv_config(2), |trial| {
        let out = run(trial, Scan::Snapshot);
        scans.insert(out.seen);
        assert!(
            out.linearizable(),
            "range_scan-vs-writers: non-linearizable history {:?}; \
             replay with schedule token {}",
            timed(&out.history),
            trial.token()
        );
    });
    eprintln!("explore_kv::range_scan_races_writers_on_two_hash_shards: {stats}");
    eprintln!("  scans seen: {scans:?}");
    assert!(!stats.truncated, "tree not exhausted: {stats}");
    assert_eq!(
        stats.schedules, 28_068,
        "the order of shim accesses changed: {stats}"
    );
    // The scan must land before every write, after the batch, and between
    // the single-key writer's put and its remove; the spec check above is
    // what rejects the torn windows (shard 0 from before the writers with
    // shard 1 from after them, and so on).
    for want in [
        INITIAL,
        [Some(21), Some(22), None],
        [Some(11), Some(2), None],
        [Some(11), None, None],
    ] {
        assert!(scans.contains(&want), "no scan saw {want:?}: {scans:?}");
    }
}

// ---------------------------------------------------------------------------
// Family 7: the skip list's single writer vs a get and a range_scan.
// ---------------------------------------------------------------------------

/// Tracked keys in one partition: `[0]` and `[2]` are resident, the
/// writer links `[1]` between them and then removes `[0]` — the fresh
/// node's level-0 predecessor, so one node's version takes the link's bump
/// and then the claim's forever-held lock.
const EXCLUSIVE_KEYS: [u64; 3] = [20, 30, 40];

#[test]
fn ordered_exclusive_writer_races_get_and_range_scan() {
    let initial = [Some(1), None, Some(3)];
    let mut scans: BTreeSet<[Option<u64>; 3]> = BTreeSet::new();
    let mut gets: BTreeSet<Option<u64>> = BTreeSet::new();
    let stats = explore(kv_config(2), |trial| {
        let store: KvStore<OptikSkipList2> =
            KvStore::with_ordered_shards(1, 100, |_| OptikSkipList2::new());
        store.put(EXCLUSIVE_KEYS[0], 1);
        store.put(EXCLUSIVE_KEYS[2], 3);
        let hist: Hist<RangeOp> = Hist::new();
        // Completion barrier: the put allocates a node in-run and the
        // remove retires one.
        let done = shim::AtomicU64::new(0);
        trial.run(&[
            &|| {
                let i = trial.now();
                let prev = store.put(EXCLUSIVE_KEYS[1], 2);
                hist.push(i, trial.now(), RangeOp::Put(1, 2, prev));
                let i = trial.now();
                let gone = store.remove(EXCLUSIVE_KEYS[0]);
                hist.push(i, trial.now(), RangeOp::Remove(0, gone));
                arrive_and_wait(&done, 2);
            },
            &|| {
                let i = trial.now();
                let got = store.get(EXCLUSIVE_KEYS[1]);
                hist.push(i, trial.now(), RangeOp::Get(1, got));
                let i = trial.now();
                let window = store.range_scan(EXCLUSIVE_KEYS[0], EXCLUSIVE_KEYS[2]);
                let seen = EXCLUSIVE_KEYS
                    .map(|k| window.iter().find(|&&(key, _)| key == k).map(|&(_, v)| v));
                hist.push(i, trial.now(), RangeOp::Range(seen));
                arrive_and_wait(&done, 2);
            },
        ]);
        let h = timed(&hist.take_sorted());
        for t in &h {
            match t.op {
                RangeOp::Get(_, got) => {
                    gets.insert(got);
                }
                RangeOp::Range(seen) => {
                    scans.insert(seen);
                }
                _ => {}
            }
        }
        assert!(
            check(&RangeMapSpec { initial }, &h),
            "exclusive-writer-vs-get-and-range: non-linearizable history {h:?}; \
             replay with schedule token {}",
            trial.token()
        );
        assert_eq!(
            store.range_scan(0, 100),
            vec![(EXCLUSIVE_KEYS[1], 2), (EXCLUSIVE_KEYS[2], 3)],
            "the writer's link or unlink was lost; replay with schedule token {}",
            trial.token()
        );
    });
    eprintln!("explore_kv::ordered_exclusive_writer_races_get_and_range_scan: {stats}");
    eprintln!("  gets seen: {gets:?}; scans seen: {scans:?}");
    assert!(!stats.truncated, "tree not exhausted: {stats}");
    assert_eq!(
        stats.schedules, 300,
        "the order of shim accesses changed: {stats}"
    );
    // The get must land on both sides of the link, and the scan before
    // the link, between the link and the unlink, and after the unlink.
    assert_eq!(gets, BTreeSet::from([None, Some(2)]), "gets seen");
    for want in [
        initial,
        [Some(1), Some(2), Some(3)],
        [None, Some(2), Some(3)],
    ] {
        assert!(scans.contains(&want), "no scan saw {want:?}: {scans:?}");
    }
}

// ---------------------------------------------------------------------------
// Family 8: an ordered batch writer's pre-lock walk vs a put between its
// keys.
// ---------------------------------------------------------------------------

#[test]
fn ordered_batch_walk_races_put() {
    use batch_walk_model::run;
    let mut removed: BTreeSet<Option<u64>> = BTreeSet::new();
    let mut rewalks: BTreeSet<usize> = BTreeSet::new();
    let stats = explore(kv_config(2), |trial| {
        let out = run(trial);
        assert!(
            out.linearizable(),
            "batch-walk-vs-put: non-linearizable history {:?} ending in {:?}; \
             replay with schedule token {}",
            timed(&out.history),
            out.contents,
            trial.token()
        );
        rewalks.insert(out.rewalks);
        removed.extend(out.history.iter().filter_map(|&(_, _, op)| match op {
            RangeOp::MultiRemove(gone) => gone[1],
            _ => None,
        }));
    });
    eprintln!("explore_kv::ordered_batch_walk_races_put: {stats}");
    eprintln!("  second descents seen: {rewalks:?}; removals of the put's key: {removed:?}");
    assert!(!stats.truncated, "tree not exhausted: {stats}");
    assert_eq!(
        stats.schedules, 3_661,
        "the order of shim accesses changed: {stats}"
    );
    // The put must land on both sides of the batch removal, and between a
    // batch's walk and its locks in some schedule.
    assert_eq!(removed, BTreeSet::from([None, Some(2)]), "removals seen");
    assert!(
        rewalks.iter().any(|&n| n > 0),
        "no put landed between a walk and its locks: {rewalks:?}"
    );
    assert!(
        rewalks.contains(&0),
        "no schedule kept every walk: {rewalks:?}"
    );
}

// ---------------------------------------------------------------------------
// Optimistic reads write nothing: every shim word a read touches, it loads.
// ---------------------------------------------------------------------------

/// Records every shim access (address and kind) on the thread it is
/// installed on, and parks nothing: no scheduler runs.
struct RecordAccesses(std::sync::Mutex<Vec<(usize, shim::AccessKind)>>);

impl RecordAccesses {
    /// Installs a fresh recorder on this thread, runs `op` under it and
    /// returns the accesses `op` trapped.
    fn during(op: impl FnOnce()) -> Vec<(usize, shim::AccessKind)> {
        let hook = Arc::new(RecordAccesses(std::sync::Mutex::new(Vec::new())));
        {
            let _g = shim::install_hook(hook.clone());
            op();
        }
        let trace = std::mem::take(&mut *hook.0.lock().unwrap());
        trace
    }
}

impl shim::ExploreHook for RecordAccesses {
    fn yield_point(&self, access: shim::Access) {
        self.0.lock().unwrap().push((access.addr, access.kind));
    }
}

/// Runs `get`, `multi_get`, `range_scan` and `scan` over `store`, filled
/// with every other key of `1..=64`, under a recording hook on this thread
/// alone: uncontended, every read takes its optimistic path. Asserts they
/// trapped accesses, and that every one was a load.
fn reads_trap_only_loads<B: optik_kv::OrderedMap>(name: &str, store: &KvStore<B>) {
    for k in (2..=64u64).step_by(2) {
        store.put(k, k);
    }
    let trace = RecordAccesses::during(|| {
        for k in 1..=66u64 {
            assert_eq!(store.get(k), (k % 2 == 0 && k <= 64).then_some(k), "{name}");
        }
        let keys: Vec<u64> = (1..=64).step_by(7).collect();
        let got = store.multi_get(&keys);
        assert_eq!(got.iter().flatten().count(), keys.len() / 2, "{name}");
        assert_eq!(store.range_scan(10, 40).len(), 16, "{name}");
        assert_eq!(store.range_scan(1, 64).len(), 32, "{name}");
        let mut seen = 0;
        store.scan(|_, _| seen += 1);
        assert_eq!(seen, 32, "{name}");
    });
    assert!(!trace.is_empty(), "{name}: the reads trapped nothing");
    let writes: Vec<_> = trace
        .iter()
        .filter(|&&(_, k)| k != shim::AccessKind::Load)
        .collect();
    assert!(
        writes.is_empty(),
        "{name}: optimistic reads wrote shared words: {writes:?} among {} accesses",
        trace.len()
    );
}

#[test]
fn optimistic_reads_trap_only_loads() {
    let ranged: KvStore<OptikSkipList2> =
        KvStore::with_ordered_shards(4, 64, |_| OptikSkipList2::new());
    reads_trap_only_loads("range-routed", &ranged);
    let hashed: KvStore<OptikSkipList2> = KvStore::with_shards(4, |_| OptikSkipList2::new());
    reads_trap_only_loads("hash-routed", &hashed);
}

// ---------------------------------------------------------------------------
// Locked writes release with one store: one RMW per lock word taken.
// ---------------------------------------------------------------------------

/// Runs `op` under a recording hook and checks the lock words it wrote.
/// A lock word is a word the op both loads and writes: every OPTIK
/// acquisition pre-checks the word before its CAS, while the node pool's
/// exchange epoch is a bare `fetch_add` and is not counted. Each lock word
/// must take one RMW (the acquiring CAS) and then at most one store (the
/// release); the op must take `rmws` of them and release all but
/// `held` (a claimed victim's lock stays held until its slot is recycled).
fn assert_one_store_per_release(name: &str, rmws: usize, held: usize, op: impl FnOnce()) {
    use shim::AccessKind::{Load, Rmw, Store};
    let trace = RecordAccesses::during(op);
    let mut words: Vec<usize> = trace
        .iter()
        .filter(|&&(addr, kind)| kind != Load && trace.iter().any(|&(a, k)| a == addr && k == Load))
        .map(|&(addr, _)| addr)
        .collect();
    words.sort_unstable();
    words.dedup();
    let mut released = 0;
    for &w in &words {
        let writes: Vec<_> = trace
            .iter()
            .filter(|&&(a, k)| a == w && k != Load)
            .map(|&(_, k)| k)
            .collect();
        assert!(
            writes == [Rmw] || writes == [Rmw, Store],
            "{name}: lock word {w:#x} was written {writes:?}, not one RMW then at most one store"
        );
        released += writes.len() - 1;
    }
    assert_eq!(words.len(), rmws, "{name}: lock words taken in {trace:?}");
    assert_eq!(released, rmws - held, "{name}: lock words released");
}

#[test]
fn locked_writes_release_with_one_store() {
    let hashed: KvStore<StripedOptikHashTable> =
        KvStore::with_shards(2, |_| StripedOptikHashTable::new(16, 2));
    let ordered: KvStore<OptikSkipList2> =
        KvStore::with_ordered_shards(2, 64, |_| OptikSkipList2::new());
    for k in (2..=64u64).step_by(2) {
        hashed.put(k, k);
        ordered.put(k, k);
    }
    assert_one_store_per_release("hash put miss", 1, 0, || assert_eq!(hashed.put(3, 3), None));
    assert_one_store_per_release("hash put hit", 1, 0, || {
        assert_eq!(hashed.put(4, 5), Some(4))
    });
    assert_one_store_per_release("hash remove hit", 1, 0, || {
        assert_eq!(hashed.remove(6), Some(6))
    });
    // The shard lock and the level-0 predecessor's lock.
    assert_one_store_per_release("ordered put miss", 2, 0, || {
        assert_eq!(ordered.put(35, 35), None)
    });
    // ... and the claimed victim's, which is never released.
    assert_one_store_per_release("ordered remove hit", 3, 1, || {
        assert_eq!(ordered.remove(40), Some(40))
    });
}
