//! Stress tier for the `optik-kv` sharded store: cross-shard batch
//! atomicity, deadlock freedom under overlapping batches, exact net
//! counts, validated snapshot consistency, range-scan consistency over
//! ordered backends, TTL expiry under churn, and boundary-migration
//! atomicity under the online rebalancer — across every backend family
//! the kv scenarios sweep.
//!
//! Iteration counts scale with `synchro::stress` (tier-1 stays fast on a
//! 1-core box); the `_full` variants behind `--ignored` run the
//! 8-core-tuned strength and back the CI linearizability/stress jobs.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Barrier};

use optik_bench::subjects::{self, Subject};
use optik_suite::harness::api::{ConcurrentMap, OrderedMap, MAX_USER_KEY};
use optik_suite::hashtables::StripedOptikHashTable;
use optik_suite::kv::{FakeClock, KvStore};
use optik_suite::skiplists::OptikSkipList2;

/// The run's xorshift seed for thread `t`'s stream: distinct per thread,
/// derived from [`synchro::stress::seed`] so `STRESS_SEED=<hex>` replays
/// the exact key/op sequences of a failed run.
fn stream(t: u64, salt: u64) -> u64 {
    (synchro::stress::seed() ^ t.wrapping_mul(salt)) | 1
}

/// Announces the active stress seed. Cargo prints captured output only
/// for failing tests, so every stress failure leads with the
/// reproduction knob.
fn announce_seed() {
    let seed = synchro::stress::seed();
    eprintln!("stress seed: {seed:#018x} (set STRESS_SEED={seed:#x} to reproduce)");
}

/// Typed store (the batch API lives on `KvStore`, not the trait).
fn striped_store(shards: usize) -> Arc<KvStore<StripedOptikHashTable>> {
    Arc::new(KvStore::with_shards(shards, |_| {
        StripedOptikHashTable::new(64, 8)
    }))
}

// ---------------------------------------------------------------------------
// Mixed single-key workload: exact net counts on every backend.
// ---------------------------------------------------------------------------

/// Mixed single-key ops on every hash-routed store of the subject table
/// (its map rows: each backend family and shard count the kv scenarios
/// sweep), built for keys up to 96: the final length must equal the net
/// count of successful inserts and removes.
fn mixed_ops_net_count(scale: u64) {
    announce_seed();
    for (name, subject) in subjects::table() {
        let Subject::Map(make) = subject else {
            continue;
        };
        let s = make(96);
        let net = Arc::new(AtomicI64::new(0));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = Arc::clone(&s);
            let net = Arc::clone(&net);
            handles.push(std::thread::spawn(move || {
                let mut x = stream(t, 0x9E3779B97F4A7C15);
                for _ in 0..scale {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = x % 96 + 1;
                    match x % 4 {
                        0 => {
                            if s.put(k, k * 31).is_none() {
                                net.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        1 => {
                            if s.remove(k).is_some() {
                                net.fetch_sub(1, Ordering::Relaxed);
                            }
                        }
                        _ => {
                            if let Some(v) = s.get(k) {
                                assert_eq!(v, k * 31, "{k} bound to foreign value");
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
            ConcurrentMap::len(s.as_ref()) as i64,
            net.load(Ordering::Relaxed),
            "{name}: net count drifted"
        );
    }
}

#[test]
fn kv_mixed_ops_keep_exact_net_count() {
    mixed_ops_net_count(synchro::stress::ops(15_000));
}

#[test]
#[ignore = "full-strength kv stress; run in CI via --ignored"]
fn kv_mixed_ops_keep_exact_net_count_full() {
    mixed_ops_net_count(60_000);
}

// ---------------------------------------------------------------------------
// Batch atomicity: a multi_get must never observe half a multi_put.
// ---------------------------------------------------------------------------

fn batch_atomicity(rounds: u64, shards: usize) {
    announce_seed();
    let s = striped_store(shards);
    // A working set that provably spans several shards.
    let keys: Vec<u64> = (1..=12).collect();
    assert!(
        keys.iter()
            .map(|&k| s.shard_of(k))
            .collect::<std::collections::HashSet<_>>()
            .len()
            > 1
            || shards == 1,
        "working set must cross shards for the test to mean anything"
    );
    s.multi_put(&keys.iter().map(|&k| (k, 0)).collect::<Vec<_>>());
    let stop = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    let mut readers = Vec::new();
    for w in 0..2u64 {
        let s = Arc::clone(&s);
        let keys = keys.clone();
        writers.push(std::thread::spawn(move || {
            for round in 0..rounds {
                let tag = round * 2 + w;
                let batch: Vec<(u64, u64)> = keys.iter().map(|&k| (k, tag)).collect();
                s.multi_put(&batch);
            }
        }));
    }
    for _ in 0..2 {
        let s = Arc::clone(&s);
        let keys = keys.clone();
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let mut observed = 0u64;
            // Check-after-work: on a 1-core box the writers can finish
            // before this thread is first scheduled, and every run must
            // still observe at least one atomic batch.
            loop {
                let vals = s.multi_get(&keys);
                let first = vals[0].expect("keys are never removed");
                assert!(
                    vals.iter().all(|&v| v == Some(first)),
                    "torn cross-shard batch: {vals:?}"
                );
                observed += 1;
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            observed
        }));
    }
    reclaim::offline_while(|| {
        for h in writers {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for h in readers {
            assert!(h.join().unwrap() > 0, "readers must have made progress");
        }
    });
}

#[test]
fn kv_multi_get_observes_multi_put_atomically() {
    batch_atomicity(synchro::stress::ops(4_000), 4);
}

#[test]
fn kv_multi_get_observes_one_shard_multi_put_atomically() {
    // Every batch lands on the one shard and takes the same sorted-lock
    // batch path as a cross-shard batch.
    batch_atomicity(synchro::stress::ops(4_000), 1);
}

#[test]
#[ignore = "full-strength kv batch atomicity; run in CI via --ignored"]
fn kv_multi_get_observes_multi_put_atomically_full() {
    batch_atomicity(20_000, 4);
    batch_atomicity(20_000, 1);
    batch_atomicity(20_000, 16);
}

// ---------------------------------------------------------------------------
// Grouped multi_get: the shard-grouped read path must be observationally
// identical to per-key reads, under churn, on both sharding modes.
// ---------------------------------------------------------------------------

/// The probe batch: deliberately unsorted, with duplicates, spanning
/// every shard of the 4-shard stores below. The grouped path routes and
/// sorts probes internally; the scatter back to input order (and the
/// one-window guarantee for duplicate keys) is exactly what this pins.
const MG_KEYS: [u64; 14] = [66, 9, 2, 91, 2, 33, 9, 55, 28, 70, 9, 11, 44, 55];

/// Values encode their key (`k * 1_000_000 + round`), so a result
/// scattered to the wrong input position is caught immediately, not as a
/// silent wrong read.
fn grouped_multiget_matches_per_key<B: ConcurrentMap + 'static>(
    name: &'static str,
    s: Arc<KvStore<B>>,
    rounds: u64,
) {
    announce_seed();
    let keys: Vec<u64> = MG_KEYS.to_vec();
    assert!(
        keys.iter()
            .map(|&k| s.shard_of(k))
            .collect::<std::collections::HashSet<_>>()
            .len()
            > 1,
        "{name}: working set must cross shards for grouping to mean anything"
    );
    let stop = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for w in 0..2u64 {
        let s = Arc::clone(&s);
        let keys = keys.clone();
        writers.push(std::thread::spawn(move || {
            let mut x = stream(w, 0xA24BAED4963EE407);
            for round in 0..rounds {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let k = keys[(x % keys.len() as u64) as usize];
                if x % 8 == 0 {
                    s.remove(k);
                } else {
                    s.put(k, k * 1_000_000 + round % 1_000_000);
                }
            }
        }));
    }
    let mut readers = Vec::new();
    for _ in 0..2 {
        let s = Arc::clone(&s);
        let keys = keys.clone();
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let mut observed = 0u64;
            // Check-after-work, as in `batch_atomicity`: every run must
            // observe at least one batch even if writers finish first.
            loop {
                let vals = s.multi_get(&keys);
                assert_eq!(vals.len(), keys.len(), "{name}: result not scattered 1:1");
                for (i, v) in vals.iter().enumerate() {
                    if let Some(v) = v {
                        assert_eq!(
                            v / 1_000_000,
                            keys[i],
                            "{name}: position {i} holds a foreign key's value: {vals:?}"
                        );
                    }
                }
                // Duplicate keys probe the same shard window: one batch
                // must never report two bindings for one key.
                for i in 0..keys.len() {
                    for j in i + 1..keys.len() {
                        if keys[i] == keys[j] {
                            assert_eq!(
                                vals[i], vals[j],
                                "{name}: duplicate key {} tore across one batch: {vals:?}",
                                keys[i]
                            );
                        }
                    }
                }
                observed += 1;
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            observed
        }));
    }
    reclaim::offline_while(|| {
        for h in writers {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for h in readers {
            assert!(h.join().unwrap() > 0, "{name}: readers made no progress");
        }
    });
    // Quiesced: the batch and the single gets must agree exactly.
    let grouped = s.multi_get(&keys);
    let singles: Vec<Option<u64>> = keys.iter().map(|&k| s.get(k)).collect();
    assert_eq!(
        grouped, singles,
        "{name}: grouped batch vs single gets diverged at rest"
    );
}

fn grouped_multiget_rounds(rounds: u64) {
    // Hash sharding: routing scatters the batch, groups are sparse.
    grouped_multiget_matches_per_key("kv/hash", striped_store(4), rounds);
    // Ordered sharding: routing by partition bounds, groups are runs.
    grouped_multiget_matches_per_key(
        "kv/ordered",
        Arc::new(KvStore::with_ordered_shards(4, 100, |_| {
            OptikSkipList2::new()
        })),
        rounds,
    );
}

#[test]
fn kv_grouped_multi_get_matches_per_key_reads_under_churn() {
    grouped_multiget_rounds(synchro::stress::ops(6_000));
}

#[test]
#[ignore = "full-strength grouped multi_get equivalence tier; run in CI via --ignored"]
fn kv_grouped_multi_get_matches_per_key_reads_under_churn_full() {
    grouped_multiget_rounds(30_000);
}

// ---------------------------------------------------------------------------
// Deadlock freedom: overlapping batches over random shard subsets.
// ---------------------------------------------------------------------------

/// Threads fire batched writes whose shard sets overlap arbitrarily (random
/// keys, random batch sizes, occasionally interleaved with batched reads).
/// Sorted-shard acquisition must make every batch complete; a deadlock
/// shows up as this test hanging (CI kills it) rather than as an assert.
fn overlapping_batches(iters: u64) {
    announce_seed();
    let s = striped_store(8);
    let barrier = Arc::new(Barrier::new(4));
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let s = Arc::clone(&s);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut x = stream(t, 0xA24BAED4963EE407);
            barrier.wait(); // maximal overlap
            for i in 0..iters {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let len = (x % 7 + 2) as usize; // 2..=8 keys
                let mut keys: Vec<u64> = Vec::with_capacity(len);
                let mut seed = x;
                for _ in 0..len {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(t);
                    keys.push(seed % 256 + 1);
                }
                match i % 3 {
                    0 => {
                        let batch: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k * 9)).collect();
                        s.multi_put(&batch);
                    }
                    1 => {
                        s.multi_remove(&keys);
                    }
                    _ => {
                        for v in s.multi_get(&keys).into_iter().flatten() {
                            assert_eq!(v % 9, 0, "foreign value {v}");
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
    // Every surviving binding is one of ours.
    s.scan(|k, v| assert_eq!(v, k * 9));
}

#[test]
fn kv_overlapping_batches_complete_without_deadlock() {
    overlapping_batches(synchro::stress::ops(6_000));
}

#[test]
#[ignore = "full-strength kv deadlock-freedom tier; run in CI via --ignored"]
fn kv_overlapping_batches_complete_without_deadlock_full() {
    overlapping_batches(30_000);
}

// ---------------------------------------------------------------------------
// Snapshot scans: per-shard consistency under concurrent batch writes.
// ---------------------------------------------------------------------------

/// Writers rewrite a *single-shard* working set wholesale (all keys → one
/// tag, or all removed) while scanners snapshot. Because every batch stays
/// inside one shard and scans validate per shard, a snapshot must show the
/// working set either complete-with-one-tag or entirely absent.
fn scan_consistency(rounds: u64) {
    let s = striped_store(4);
    // Collect keys that land in shard 0.
    let keys: Vec<u64> = (1..=10_000u64)
        .filter(|&k| s.shard_of(k) == 0)
        .take(8)
        .collect();
    assert_eq!(keys.len(), 8, "need 8 colocated keys");
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let s = Arc::clone(&s);
        let keys = keys.clone();
        std::thread::spawn(move || {
            for round in 1..=rounds {
                let batch: Vec<(u64, u64)> = keys.iter().map(|&k| (k, round)).collect();
                s.multi_put(&batch);
                if round % 3 == 0 {
                    s.multi_remove(&keys);
                }
            }
        })
    };
    let mut scanners = Vec::new();
    for _ in 0..2 {
        let s = Arc::clone(&s);
        let keys = keys.clone();
        let stop = Arc::clone(&stop);
        scanners.push(std::thread::spawn(move || {
            let mut snapshots = 0u64;
            // Check-after-work, as in `batch_atomicity`: at least one
            // snapshot per run even if the writer finishes first.
            loop {
                let snap = s.snapshot();
                let ours: Vec<(u64, u64)> = snap
                    .iter()
                    .copied()
                    .filter(|(k, _)| keys.contains(k))
                    .collect();
                assert!(
                    ours.is_empty() || ours.len() == keys.len(),
                    "partial working set in snapshot: {} of {} keys",
                    ours.len(),
                    keys.len()
                );
                if let Some(&(_, tag)) = ours.first() {
                    assert!(
                        ours.iter().all(|&(_, v)| v == tag),
                        "mixed tags in one shard snapshot: {ours:?}"
                    );
                }
                snapshots += 1;
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            snapshots
        }));
    }
    reclaim::offline_while(|| {
        writer.join().unwrap();
        stop.store(true, Ordering::Relaxed);
        for h in scanners {
            assert!(h.join().unwrap() > 0, "scanners must have made progress");
        }
    });
}

#[test]
fn kv_snapshots_are_shard_consistent_under_batch_writes() {
    scan_consistency(synchro::stress::ops(3_000));
}

#[test]
#[ignore = "full-strength kv scan tier; run in CI via --ignored"]
fn kv_snapshots_are_shard_consistent_under_batch_writes_full() {
    scan_consistency(15_000);
}

// ---------------------------------------------------------------------------
// Range scans over ordered backends: sorted, duplicate-free, consistent.
// ---------------------------------------------------------------------------

/// Concurrent range scans vs. random single-key writers, over every
/// ordered store of the subject table (its ordered `kv/` rows: range- and
/// hash-routed, nested) built for keys up to 250: each returned window
/// must be sorted, duplicate-free, value-consistent, and must contain
/// every key of an untouched backbone.
fn range_scans_under_churn(scan_rounds: u64) {
    announce_seed();
    for (name, subject) in subjects::table() {
        let Subject::Ordered(make) = subject else {
            continue;
        };
        if !name.starts_with("kv/") {
            continue;
        }
        let s = make(250);
        for k in (10..=250u64).step_by(10) {
            s.put(k, k);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let mut writers = Vec::new();
        for t in 0..3u64 {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop);
            writers.push(std::thread::spawn(move || {
                let mut x = stream(t, 0x9E3779B97F4A7C15);
                while !stop.load(Ordering::Relaxed) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = x % 250 + 1;
                    if k % 10 == 0 {
                        continue; // never touch the backbone
                    }
                    if x & 1 == 0 {
                        s.put(k, k * 3);
                    } else {
                        s.remove(k);
                    }
                }
                reclaim::offline();
            }));
        }
        for round in 0..scan_rounds {
            let lo = round % 97 + 1;
            let hi = lo + 120;
            let win = OrderedMap::range_collect(s.as_ref(), lo, hi);
            assert!(
                win.windows(2).all(|w| w[0].0 < w[1].0),
                "{name}: unsorted or duplicate keys in [{lo}, {hi}]: {win:?}"
            );
            for &(k, v) in &win {
                assert!((lo..=hi).contains(&k), "{name}: key {k} outside window");
                assert!(
                    v == k || v == k * 3,
                    "{name}: foreign value {v} for key {k}"
                );
            }
            for k in (10..=250u64).step_by(10).filter(|k| (lo..=hi).contains(k)) {
                assert!(
                    win.iter().any(|&(g, _)| g == k),
                    "{name}: range missed stable key {k} in [{lo}, {hi}]"
                );
            }
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
fn kv_range_scans_stay_sorted_and_complete_under_churn() {
    range_scans_under_churn(synchro::stress::ops(400));
}

#[test]
#[ignore = "full-strength kv range tier; run in CI via --ignored"]
fn kv_range_scans_stay_sorted_and_complete_under_churn_full() {
    range_scans_under_churn(2_000);
}

/// Writers rewrite a working set wholesale (batched: all keys → one tag,
/// or all removed) while scanners take bounded range scans over exactly
/// that window. `range_scan` is a snapshot across every shard its window
/// touches, so every returned window must show the working set
/// complete-with-one-tag or entirely absent — wherever its keys live: in
/// one partition (`shards_touched == 1`), across a partition boundary, or
/// scattered over every shard of a hash-routed store.
fn range_scan_snapshot_consistency(
    rounds: u64,
    s: Arc<KvStore<OptikSkipList2>>,
    keys: std::ops::RangeInclusive<u64>,
    shards_touched: usize,
) {
    let (lo, hi) = (*keys.start(), *keys.end());
    let keys: Vec<u64> = keys.collect();
    assert_eq!(
        keys.iter()
            .map(|&k| s.shard_of(k))
            .collect::<std::collections::HashSet<_>>()
            .len(),
        shards_touched,
        "working set must sit where the case says"
    );
    s.multi_put(&keys.iter().map(|&k| (k, 1)).collect::<Vec<_>>());
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let s = Arc::clone(&s);
        let keys = keys.clone();
        std::thread::spawn(move || {
            for round in 2..=rounds {
                let batch: Vec<(u64, u64)> = keys.iter().map(|&k| (k, round)).collect();
                s.multi_put(&batch);
                if round % 3 == 0 {
                    s.multi_remove(&keys);
                }
            }
        })
    };
    let mut scanners = Vec::new();
    for _ in 0..2 {
        let s = Arc::clone(&s);
        let keys = keys.clone();
        let stop = Arc::clone(&stop);
        scanners.push(std::thread::spawn(move || {
            let mut windows = 0u64;
            // Check-after-work: at least one window per run even if the
            // writer finishes before this thread is first scheduled.
            loop {
                let win = s.range_scan(lo, hi);
                assert!(
                    win.is_empty() || win.len() == keys.len(),
                    "partial working set in range window: {} of {} keys",
                    win.len(),
                    keys.len()
                );
                if let Some(&(_, tag)) = win.first() {
                    assert!(
                        win.iter().all(|&(_, v)| v == tag),
                        "mixed tags in one validated range window: {win:?}"
                    );
                }
                assert!(win.windows(2).all(|w| w[0].0 < w[1].0), "unsorted: {win:?}");
                windows += 1;
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            windows
        }));
    }
    reclaim::offline_while(|| {
        writer.join().unwrap();
        stop.store(true, Ordering::Relaxed);
        for h in scanners {
            assert!(h.join().unwrap() > 0, "scanners must have made progress");
        }
    });
}

fn range_scan_snapshot_rounds(rounds: u64) {
    // span = 64: keys 11..=18 are colocated in shard 0, 61..=68 straddle
    // the boundary between shards 0 and 1.
    let ordered = || {
        Arc::new(KvStore::with_ordered_shards(4, 256, |_| {
            OptikSkipList2::new()
        }))
    };
    range_scan_snapshot_consistency(rounds, ordered(), 11..=18, 1);
    range_scan_snapshot_consistency(rounds, ordered(), 61..=68, 2);
    let hashed = Arc::new(KvStore::with_shards(4, |_| OptikSkipList2::new()));
    range_scan_snapshot_consistency(rounds, hashed, 11..=18, 4);
}

#[test]
fn kv_range_windows_are_consistent_snapshots_under_batch_writes() {
    range_scan_snapshot_rounds(synchro::stress::ops(3_000));
}

#[test]
#[ignore = "full-strength kv range-snapshot tier; run in CI via --ignored"]
fn kv_range_windows_are_consistent_snapshots_under_batch_writes_full() {
    range_scan_snapshot_rounds(15_000);
}

// ---------------------------------------------------------------------------
// TTL: expiry under churn, with the sweeper racing writers and readers.
// ---------------------------------------------------------------------------

/// Writers hammer TTL puts on a churn key range while an advancer drives
/// the fake clock, a sweeper reclaims incrementally, and readers verify
/// that (a) an untouched no-TTL backbone never goes missing or stale and
/// (b) churn keys only ever surface their own values. Afterwards the
/// clock jumps past every deadline and repeated sweeps must drain the
/// store back to exactly the backbone — nothing lost, nothing leaked.
type TtlStores = Vec<(&'static str, Arc<KvStore<OptikSkipList2>>, Arc<FakeClock>)>;

fn ttl_expiry_under_churn(rounds: u64) {
    let make_stores = || -> TtlStores {
        let hash_clock = Arc::new(FakeClock::new());
        let ord_clock = Arc::new(FakeClock::new());
        vec![
            (
                "kv/ttl-hash",
                Arc::new(KvStore::with_shards_ttl(
                    4,
                    Arc::clone(&hash_clock) as Arc<dyn optik_suite::kv::Clock>,
                    |_| OptikSkipList2::new(),
                )),
                hash_clock,
            ),
            (
                "kv/ttl-ordered",
                Arc::new(KvStore::with_ordered_shards_ttl(
                    4,
                    96,
                    Arc::clone(&ord_clock) as Arc<dyn optik_suite::kv::Clock>,
                    |_| OptikSkipList2::new(),
                )),
                ord_clock,
            ),
        ]
    };
    for (name, s, clock) in make_stores() {
        const BACKBONE: u64 = 16;
        for k in 1..=BACKBONE {
            s.put(k, k * 7);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::new();
        // TTL writers on the churn range.
        for t in 0..2u64 {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop);
            workers.push(std::thread::spawn(move || {
                let mut x = stream(t, 0x9E3779B97F4A7C15);
                while !stop.load(Ordering::Relaxed) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = x % 80 + BACKBONE + 1; // churn keys 17..=96
                    s.put_with_ttl(k, k * 13, 1 + x % 8);
                }
                reclaim::offline();
            }));
        }
        // Clock advancer: expiry actually happens mid-run.
        {
            let clock = Arc::clone(&clock);
            let stop = Arc::clone(&stop);
            workers.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    clock.advance(1);
                    std::thread::yield_now();
                }
            }));
        }
        // Incremental sweeper.
        {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop);
            workers.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    s.sweep_expired(64);
                }
                reclaim::offline();
            }));
        }
        // Reader (this thread): the backbone is inviolate, churn values
        // are never foreign, snapshots only show live bindings.
        for round in 0..rounds {
            let k = round % BACKBONE + 1;
            assert_eq!(s.get(k), Some(k * 7), "{name}: backbone key {k}");
            let ck = round % 80 + BACKBONE + 1;
            if let Some(v) = s.get(ck) {
                assert_eq!(v, ck * 13, "{name}: foreign churn value");
            }
            if round % 64 == 0 {
                for (k, v) in s.snapshot() {
                    if k <= BACKBONE {
                        assert_eq!(v, k * 7, "{name}: backbone in snapshot");
                    } else {
                        assert_eq!(v, k * 13, "{name}: churn in snapshot");
                    }
                }
            }
            reclaim::quiescent();
        }
        stop.store(true, Ordering::Relaxed);
        let mut handles = workers.into_iter();
        reclaim::offline_while(|| {
            for h in handles.by_ref() {
                h.join().unwrap();
            }
        });
        // Drain: everything with a TTL must expire and sweep away.
        clock.advance(1_000);
        while s.sweep_expired(1024) > 0 {}
        assert_eq!(
            s.len() as u64,
            BACKBONE,
            "{name}: sweeps must reclaim every expired entry"
        );
        let snap = s.snapshot();
        assert_eq!(
            snap,
            (1..=BACKBONE).map(|k| (k, k * 7)).collect::<Vec<_>>(),
            "{name}: only the backbone survives"
        );
    }
}

#[test]
fn kv_ttl_expiry_is_exact_under_churn() {
    ttl_expiry_under_churn(synchro::stress::ops(3_000));
}

#[test]
#[ignore = "full-strength kv TTL stress; run in CI via --ignored"]
fn kv_ttl_expiry_is_exact_under_churn_full() {
    ttl_expiry_under_churn(15_000);
}

// ---------------------------------------------------------------------------
// Rebalancing: no lost or duplicated keys across boundary migrations.
// ---------------------------------------------------------------------------

/// Oscillates every movable partition boundary (`shifts` migrations in
/// total) while churn writers mutate non-backbone keys and a reader takes
/// validated range windows. Every window must stay sorted and
/// duplicate-free with the untouched backbone complete — i.e. migration
/// never loses or double-serves a key — and the final quiesced snapshot
/// must be exactly the union of backbone and surviving churn entries.
fn rebalance_migration_atomicity(shifts: u64) {
    announce_seed();
    const MAX_KEY: u64 = 1024;
    const SPAN: u64 = 128; // 8 shards ⇒ default bounds at 128, 256, …
    let s = Arc::new(KvStore::with_ordered_shards(8, MAX_KEY, |_| {
        OptikSkipList2::new()
    }));
    // Backbone: every 16th key, never written after the fill.
    let backbone: Vec<u64> = (16..=MAX_KEY - 16).step_by(16).collect();
    for &k in &backbone {
        s.put(k, k + 5);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut churners = Vec::new();
    for t in 0..2u64 {
        let s = Arc::clone(&s);
        let stop = Arc::clone(&stop);
        churners.push(std::thread::spawn(move || {
            let mut x = stream(t, 0xA24BAED4963EE407);
            while !stop.load(Ordering::Relaxed) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let k = x % MAX_KEY + 1;
                if k % 16 == 0 {
                    continue; // never touch the backbone
                }
                if x & 1 == 0 {
                    s.put(k, k * 3);
                } else {
                    s.remove(k);
                }
            }
            reclaim::offline();
        }));
    }
    // Window reader racing the migrations.
    let reader = {
        let s = Arc::clone(&s);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut windows = 0u64;
            let mut lo = 1u64;
            loop {
                let hi = lo + 120;
                let win = s.range_scan(lo, hi);
                assert!(
                    win.windows(2).all(|w| w[0].0 < w[1].0),
                    "unsorted or duplicated keys in [{lo}, {hi}]: {win:?}"
                );
                for &(k, v) in &win {
                    assert!((lo..=hi).contains(&k), "key {k} outside window");
                    if k % 16 == 0 {
                        assert_eq!(v, k + 5, "backbone key {k} corrupted");
                    } else {
                        assert_eq!(v, k * 3, "foreign churn value for {k}");
                    }
                }
                for k in (16..=MAX_KEY - 16)
                    .step_by(16)
                    .filter(|k| (lo..=hi).contains(k))
                {
                    assert!(
                        win.iter().any(|&(g, _)| g == k),
                        "migration lost backbone key {k} in [{lo}, {hi}]"
                    );
                }
                windows += 1;
                lo = lo % 900 + 7;
                reclaim::quiescent();
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            reclaim::offline();
            windows
        })
    };
    // The migrator (this thread): walk every movable boundary back and
    // forth; ±63 keeps every intermediate table strictly sorted.
    let mut moved_total = 0u64;
    for i in 0..shifts {
        let b = (i % 7) as usize;
        let base = SPAN * (b as u64 + 1);
        let target = if (i / 7) % 2 == 0 {
            base - 63
        } else {
            base + 63
        };
        let stats = s.shift_boundary(b, target).expect("legal oscillation");
        moved_total += stats.moved;
        reclaim::quiescent();
    }
    stop.store(true, Ordering::Relaxed);
    reclaim::offline_while(|| {
        for h in churners {
            h.join().unwrap();
        }
        assert!(reader.join().unwrap() > 0, "reader must have made progress");
    });
    assert!(
        moved_total > 0,
        "oscillating boundaries over a populated store must migrate keys"
    );
    // Quiesced: the store is exactly backbone ∪ surviving churn, no
    // duplicates, and every partition agrees with the routing table.
    let snap = s.snapshot();
    assert!(
        snap.windows(2).all(|w| w[0].0 < w[1].0),
        "final snapshot has duplicates"
    );
    for &k in &backbone {
        assert_eq!(s.get(k), Some(k + 5), "backbone key {k} after migrations");
    }
    assert_eq!(
        snap.iter().filter(|&&(k, _)| k % 16 == 0).count(),
        backbone.len(),
        "backbone complete in final snapshot"
    );
    for &(k, v) in &snap {
        assert_eq!(v, if k % 16 == 0 { k + 5 } else { k * 3 });
    }
    assert_eq!(s.len(), snap.len(), "per-shard counts agree with the scan");
}

#[test]
fn kv_rebalance_loses_and_duplicates_nothing() {
    rebalance_migration_atomicity(synchro::stress::ops(210));
}

#[test]
#[ignore = "full-strength kv rebalance stress (>= 1000 migrations); run in CI via --ignored"]
fn kv_rebalance_loses_and_duplicates_nothing_full() {
    rebalance_migration_atomicity(1_400);
}

// ---------------------------------------------------------------------------
// Ordered-sharding edge regressions: empty partitions, boundary keys,
// and the top of the key space.
// ---------------------------------------------------------------------------

#[test]
fn kv_range_scan_on_empty_partitions() {
    let s: KvStore<OptikSkipList2> =
        KvStore::with_ordered_shards(4, 400, |_| OptikSkipList2::new());
    // Entirely empty store: every window shape is empty, none panic.
    assert!(s.range_scan(1, 400).is_empty());
    assert!(s.range_scan(150, 160).is_empty(), "single empty partition");
    assert!(s.range_scan(1, u64::MAX).is_empty(), "unbounded window");
    // Populate only shard 2 (keys 201..=300): windows over the empty
    // flanking partitions stay empty, crossing windows see the edge.
    for k in 201..=300u64 {
        s.put(k, k);
    }
    assert!(s.range_scan(1, 200).is_empty());
    assert!(s.range_scan(301, 400).is_empty());
    assert_eq!(
        s.range_scan(195, 205).len(),
        5,
        "edge of the populated span"
    );
    // An empty-*span* partition (created by the rebalancer) routes
    // around itself: shard 1 becomes (100, 100] = nothing.
    s.shift_boundary(1, 100).expect("legal merge");
    assert_eq!(s.partition_bounds().unwrap(), vec![100, 100, 300, u64::MAX]);
    assert_eq!(s.range_scan(1, 400).len(), 100, "no keys lost to the merge");
    s.put(150, 999); // routes past the empty-span partition
    assert_eq!(s.get(150), Some(999));
    assert_eq!(s.range_scan(100, 201).first(), Some(&(150, 999)));
    // Splitting the empty partition back out is just another shift.
    s.shift_boundary(1, 200).expect("legal split");
    assert_eq!(s.get(150), Some(999));
    assert_eq!(s.range_scan(1, 400).len(), 101);
}

#[test]
fn kv_ordered_sharding_boundary_keys_route_exactly() {
    let s: KvStore<OptikSkipList2> =
        KvStore::with_ordered_shards(4, 400, |_| OptikSkipList2::new());
    // Keys exactly at and adjacent to every partition bound.
    let edges = [1u64, 100, 101, 200, 201, 300, 301, 400];
    for &k in &edges {
        assert_eq!(s.put(k, k * 2), None);
    }
    assert_eq!(s.shard_of(100), 0, "inclusive upper bound");
    assert_eq!(s.shard_of(101), 1);
    assert_eq!(s.shard_of(300), 2);
    assert_eq!(s.shard_of(301), 3);
    // Windows that straddle a boundary concatenate both partitions.
    assert_eq!(s.range_scan(100, 101), vec![(100, 200), (101, 202)]);
    assert_eq!(s.range_scan(200, 201), vec![(200, 400), (201, 402)]);
    // Degenerate one-key windows on each side of a bound.
    assert_eq!(s.range_scan(300, 300), vec![(300, 600)]);
    assert_eq!(s.range_scan(301, 301), vec![(301, 602)]);
    let all = s.range_scan(1, 400);
    assert_eq!(all.len(), edges.len());
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
}

#[test]
fn kv_ordered_sharding_survives_the_top_of_the_key_space() {
    // Partitions over the full user key space: spans this wide used to be
    // an overflow hazard, and MAX_USER_KEY sits one below the sentinel.
    let s: KvStore<OptikSkipList2> =
        KvStore::with_ordered_shards(4, MAX_USER_KEY, |_| OptikSkipList2::new());
    assert_eq!(s.shard_of(u64::MAX), 3, "sentinel routes, never panics");
    for k in [1u64, MAX_USER_KEY / 2, MAX_USER_KEY - 1, MAX_USER_KEY] {
        assert_eq!(s.put(k, 7), None, "key {k}");
        assert_eq!(s.get(k), Some(7), "key {k}");
    }
    // Windows touching the top of the key space, including hi = u64::MAX
    // (backends clamp at their tail sentinel).
    assert_eq!(
        s.range_scan(MAX_USER_KEY - 5, u64::MAX),
        vec![(MAX_USER_KEY - 1, 7), (MAX_USER_KEY, 7)]
    );
    assert_eq!(s.range_scan(u64::MAX, u64::MAX), vec![]);
    let all = s.range_scan(1, u64::MAX);
    assert_eq!(all.len(), 4);
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    // A boundary shift right at the top of the key space.
    let bounds = s.partition_bounds().unwrap();
    assert_eq!(*bounds.last().unwrap(), u64::MAX);
    s.shift_boundary(2, MAX_USER_KEY - 2).expect("legal shift");
    for k in [MAX_USER_KEY - 1, MAX_USER_KEY] {
        assert_eq!(s.get(k), Some(7), "key {k} after top-shift");
    }
}
