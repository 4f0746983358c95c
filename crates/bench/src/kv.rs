//! The `kv.*` scenarios' operation mix and its one-op body.
//!
//! Follows the paper's §5 methodology through [`Workload`] (key range
//! double the initial size, optional zipfian skew with the largest keys
//! most popular, the same uniform initial fill) and the harness's one
//! measurement loop ([`measure`]: per-thread streams, quiescence between
//! operations), extended with the store-level operations the set
//! microbenchmark has no counterpart for: batched multi-key ops, snapshot
//! scans, TTL puts with incremental expiry sweeps, bounded range scans and
//! load-driven rebalance rounds.

use optik_harness::api::{ConcurrentMap, Key, OrderedMap, Val};
use optik_harness::runner::{measure, Lap};
use optik_harness::scenario::{Measurement, RunSpec};
use optik_harness::{FastRng, OpKind, Workload};
use optik_kv::KvStore;

/// Issued operation mix, in permille of issued operations.
///
/// The named permilles must not exceed 1000; the remainder goes to
/// single-key gets. Batched operations draw [`KvMix::batch`] keys per
/// call, and batched writes alternate between `multi_put` and an
/// equal-size `multi_remove` so — like the paper's equal insert/delete
/// rates — the store size stays near the initial fill. Range scans and
/// rebalance rounds are meaningful over [`Ordered`] stores; TTL puts and
/// sweeps need a store built with a clock.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct KvMix {
    /// Permille of single-key puts.
    pub put_pm: u32,
    /// Permille of single-key removes.
    pub remove_pm: u32,
    /// Permille of batched multi-gets.
    pub batch_get_pm: u32,
    /// Permille of batched writes (alternating multi-put / multi-remove).
    pub batch_write_pm: u32,
    /// Permille of full-store snapshot scans.
    pub scan_pm: u32,
    /// Keys per batched operation.
    pub batch: usize,
    /// Permille of bounded range scans.
    pub range_pm: u32,
    /// Window width of a range scan: `[lo, lo + range_span - 1]` with a
    /// sampled `lo`.
    pub range_span: u64,
    /// Permille of TTL puts (`put_with_ttl`).
    pub ttl_put_pm: u32,
    /// Lifetime (clock ticks) of a TTL put.
    pub ttl_span: u64,
    /// Permille of incremental expiry sweeps (`sweep_expired`).
    pub sweep_pm: u32,
    /// Candidate budget per sweep call.
    pub sweep_budget: usize,
    /// Permille of load-driven rebalance rounds.
    pub rebalance_pm: u32,
}

impl KvMix {
    /// Cumulative permille thresholds of the named classes, in the body's
    /// dispatch order: put, remove, then [`Class`] order.
    ///
    /// # Panics
    ///
    /// Panics if the permilles exceed 1000 or a batched, ranged, TTL or
    /// sweeping mix lacks its size knob.
    pub fn thresholds(&self) -> [u32; 9] {
        let mut t = [
            self.put_pm,
            self.remove_pm,
            self.ttl_put_pm,
            self.batch_get_pm,
            self.batch_write_pm,
            self.scan_pm,
            self.range_pm,
            self.sweep_pm,
            self.rebalance_pm,
        ];
        for i in 1..t.len() {
            t[i] = t[i].saturating_add(t[i - 1]);
        }
        assert!(t[8] <= 1000, "mix permilles exceed 1000");
        assert!(
            self.batch > 0 || (self.batch_get_pm == 0 && self.batch_write_pm == 0),
            "batched mixes need a batch size"
        );
        assert!(
            self.range_span > 0 || self.range_pm == 0,
            "range mixes need a range span"
        );
        assert!(
            self.ttl_span > 0 || self.ttl_put_pm == 0,
            "TTL mixes need a ttl span"
        );
        assert!(
            self.sweep_budget > 0 || self.sweep_pm == 0,
            "sweeping mixes need a sweep budget"
        );
        t
    }
}

/// The mix's classes past single-key get/put/remove, in dispatch order.
/// None of them is timed: the loop counts their units only.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Class {
    TtlPut,
    BatchGet,
    BatchWrite,
    Scan,
    Range,
    Sweep,
    Rebalance,
}

/// Per [`Class`]: the calls made, and the entries they read, wrote,
/// scanned, swept or migrated. A rebalance round that moved nothing is
/// not a call.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Tally {
    calls: [u64; 7],
    entries: [u64; 7],
}

impl Tally {
    fn add(&mut self, class: Class, entries: u64) {
        self.calls[class as usize] += 1;
        self.entries[class as usize] += entries;
    }

    /// Calls of `class` across the run.
    pub fn calls(&self, class: Class) -> u64 {
        self.calls[class as usize]
    }

    /// Entries per call of `class`, if it ran.
    pub fn per_call(&self, class: Class) -> Option<f64> {
        let calls = self.calls(class);
        (calls > 0).then(|| self.entries[class as usize] as f64 / calls as f64)
    }
}

/// How a store serves the two key-ordered classes: one bounded range
/// scan (entries returned) and one rebalance round (entries migrated).
pub(crate) trait KeyOrder<B>: 'static {
    fn range(store: &KvStore<B>, lo: Key, hi: Key) -> u64;
    fn rebalance(store: &KvStore<B>) -> u64;
}

/// A store over an [`OrderedMap`] backend: ranges through
/// [`KvStore::range_scan`], rounds through [`KvStore::rebalance_round`].
pub(crate) enum Ordered {}

impl<B: OrderedMap> KeyOrder<B> for Ordered {
    fn range(store: &KvStore<B>, lo: Key, hi: Key) -> u64 {
        store.range_scan(lo, hi).len() as u64
    }
    fn rebalance(store: &KvStore<B>) -> u64 {
        store.rebalance_round().map_or(0, |s| s.moved)
    }
}

/// A store over a backend without key order. Its mixes draw no range
/// scans (the registry's hash mixes leave `range_pm` at 0; a full-store
/// read is the `scan` class), and hash routing leaves a rebalance round
/// nothing to move: both report no entries.
pub(crate) enum Unordered {}

impl<B: ConcurrentMap> KeyOrder<B> for Unordered {
    fn range(_: &KvStore<B>, _: Key, _: Key) -> u64 {
        0
    }
    fn rebalance(_: &KvStore<B>) -> u64 {
        0
    }
}

/// A worker's batch buffers, write-batch parity and class tally.
struct Worker {
    keys: Vec<Key>,
    entries: Vec<(Key, Val)>,
    flip: u64,
    tally: Tally,
}

/// Runs one window of `mix` over `store`, drawing keys from `keys`.
///
/// Single-key gets, puts and removes are timed (as search, insert and
/// delete); every operation is followed by a QSBR quiescent point. The
/// measurement carries the entries-per-call extras of the classes that
/// ran (`keys_per_scan`, `keys_per_range`, `swept_per_sweep`,
/// `keys_per_migration`).
pub(crate) fn run_kv<B: ConcurrentMap, O: KeyOrder<B>>(
    spec: &RunSpec,
    store: &KvStore<B>,
    keys: &Workload,
    mix: &KvMix,
) -> (Measurement, Tally) {
    let [put, remove, ttl_put, batch_get, batch_write, scan, range, sweep, rebalance] =
        mix.thresholds();
    let setup = |tid| Worker {
        keys: Vec::with_capacity(mix.batch),
        entries: Vec::with_capacity(mix.batch),
        flip: tid as u64,
        tally: Tally::default(),
    };
    let body = |w: &mut Worker, rng: &mut FastRng, lap: &mut Lap| {
        let p = rng.next_below(1000) as u32;
        let units = if p < put {
            let k = keys.sample_key(rng);
            lap.time(|| {
                store.put(k, k);
                OpKind::InsertSuc
            });
            1
        } else if p < remove {
            let k = keys.sample_key(rng);
            lap.time(|| match store.remove(k) {
                Some(_) => OpKind::DeleteSuc,
                None => OpKind::DeleteFail,
            });
            1
        } else if p < ttl_put {
            let k = keys.sample_key(rng);
            store.put_with_ttl(k, k, mix.ttl_span);
            w.tally.add(Class::TtlPut, 1);
            1
        } else if p < batch_get {
            w.keys.clear();
            w.keys.extend((0..mix.batch).map(|_| keys.sample_key(rng)));
            let n = store.multi_get(&w.keys).len() as u64;
            w.tally.add(Class::BatchGet, n);
            n
        } else if p < batch_write {
            // Alternate put/remove batches so the store size holds.
            w.flip += 1;
            if w.flip % 2 == 0 {
                w.entries.clear();
                w.entries.extend((0..mix.batch).map(|_| {
                    let k = keys.sample_key(rng);
                    (k, k)
                }));
                store.multi_put(&w.entries);
            } else {
                w.keys.clear();
                w.keys.extend((0..mix.batch).map(|_| keys.sample_key(rng)));
                store.multi_remove(&w.keys);
            }
            w.tally.add(Class::BatchWrite, mix.batch as u64);
            mix.batch as u64
        } else if p < scan {
            let mut seen = 0u64;
            store.scan(|_, _| seen += 1);
            w.tally.add(Class::Scan, seen);
            1
        } else if p < range {
            let lo = keys.sample_key(rng);
            let hi = lo.saturating_add(mix.range_span - 1);
            w.tally.add(Class::Range, O::range(store, lo, hi));
            1
        } else if p < sweep {
            w.tally
                .add(Class::Sweep, store.sweep_expired(mix.sweep_budget));
            1
        } else if p < rebalance {
            let moved = O::rebalance(store);
            if moved > 0 {
                w.tally.add(Class::Rebalance, moved);
            }
            u64::from(moved > 0)
        } else {
            let k = keys.sample_key(rng);
            lap.time(|| match store.get(k) {
                Some(_) => OpKind::SearchHit,
                None => OpKind::SearchMiss,
            });
            1
        };
        // Quiescent point between operations (ssmem-style).
        reclaim::quiescent();
        units
    };
    let (mut m, tallies) = measure(spec, setup, body, |w| w.tally);
    let mut tally = Tally::default();
    for t in &tallies {
        for i in 0..t.calls.len() {
            tally.calls[i] += t.calls[i];
            tally.entries[i] += t.entries[i];
        }
    }
    for (class, name) in [
        (Class::Scan, "keys_per_scan"),
        (Class::Range, "keys_per_range"),
        (Class::Sweep, "swept_per_sweep"),
        (Class::Rebalance, "keys_per_migration"),
    ] {
        if let Some(v) = tally.per_call(class) {
            m = m.with_extra(name, v);
        }
    }
    (m, tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use optik_hashtables::StripedOptikHashTable;
    use optik_kv::{Clock, FakeClock};
    use std::sync::Arc;
    use std::time::Duration;

    fn spec(ms: u64, seed: u64, record_latency: bool) -> RunSpec {
        RunSpec {
            threads: 2,
            duration: Duration::from_millis(ms),
            seed,
            record_latency,
        }
    }

    fn fill<B: ConcurrentMap>(keys: &Workload, seed: u64, store: &KvStore<B>) {
        keys.initial_fill(seed, |k, v| store.put(k, v).is_none());
    }

    #[test]
    fn thresholds_are_cumulative_and_leave_the_rest_to_gets() {
        let full = KvMix {
            put_pm: 100,
            remove_pm: 100,
            batch_get_pm: 300,
            batch_write_pm: 200,
            scan_pm: 10,
            batch: 8,
            ttl_put_pm: 50,
            ttl_span: 10,
            sweep_pm: 10,
            sweep_budget: 64,
            ..KvMix::default()
        };
        // put, remove, ttl put, batch get, batch write, scan, range,
        // sweep, rebalance; draws at or past the last are gets (230).
        assert_eq!(
            full.thresholds(),
            [100, 200, 250, 550, 750, 760, 760, 770, 770]
        );
    }

    #[test]
    #[should_panic(expected = "exceed 1000")]
    fn oversubscribed_mix_is_rejected() {
        let _ = KvMix {
            put_pm: 600,
            remove_pm: 600,
            ..KvMix::default()
        }
        .thresholds();
    }

    #[test]
    #[should_panic(expected = "ttl span")]
    fn ttl_mix_without_span_is_rejected() {
        let _ = KvMix {
            ttl_put_pm: 100,
            ..KvMix::default()
        }
        .thresholds();
    }

    #[test]
    fn body_executes_every_op_class() {
        let keys = Workload::paper(64, 0, true);
        let mix = KvMix {
            put_pm: 150,
            remove_pm: 150,
            batch_get_pm: 150,
            batch_write_pm: 150,
            scan_pm: 20,
            batch: 4,
            ..KvMix::default()
        };
        let s: KvStore<StripedOptikHashTable> =
            KvStore::with_shards(4, |_| StripedOptikHashTable::new(64, 8));
        fill(&keys, 3, &s);
        assert_eq!(s.len(), 64, "the fill reaches the initial size");
        assert!(s
            .snapshot()
            .iter()
            .all(|&(k, v)| k == v && (1..=128).contains(&k)));
        let (m, tally) = run_kv::<_, Unordered>(&spec(60, 5, true), &s, &keys, &mix);
        assert!(
            m.count(OpKind::SearchHit) + m.count(OpKind::SearchMiss) > 0,
            "gets ran"
        );
        assert!(m.count(OpKind::InsertSuc) > 0, "puts ran");
        assert!(
            m.count(OpKind::DeleteSuc) + m.count(OpKind::DeleteFail) > 0,
            "removes ran"
        );
        assert!(tally.calls(Class::BatchGet) > 0, "multi-gets ran");
        assert!(tally.calls(Class::BatchWrite) > 0, "batched writes ran");
        assert!(tally.calls(Class::Scan) > 0, "scans ran");
        assert!(m.extra.iter().any(|(k, _)| k == "keys_per_scan"));
        assert!(m.mops() > 0.0);
        let sampled = OpKind::ALL.iter().any(|&k| m.latency.count(k) > 0);
        assert!(sampled, "single-op latency was requested");
        // The balanced mix must keep the store near its initial size.
        let len = s.len() as i64;
        assert!((0..=128).contains(&len), "size ran away: {len}");
    }

    #[test]
    fn ttl_mix_expires_and_sweeps() {
        let clock = Arc::new(FakeClock::new());
        let s: KvStore<StripedOptikHashTable> =
            KvStore::with_shards_ttl(4, Arc::clone(&clock) as Arc<dyn Clock>, |_| {
                StripedOptikHashTable::new(64, 8)
            });
        let keys = Workload::paper(64, 0, false);
        // Phase 1: a TTL-put-heavy mix populates deadlines.
        let arm = KvMix {
            ttl_put_pm: 400,
            ttl_span: 10,
            ..KvMix::default()
        };
        let (m, tally) = run_kv::<_, Unordered>(&spec(40, 5, false), &s, &keys, &arm);
        assert!(tally.calls(Class::TtlPut) > 0, "TTL puts ran");
        assert!(
            m.count(OpKind::SearchHit) + m.count(OpKind::SearchMiss) > 0,
            "gets ran"
        );
        // Phase 2: jump past every deadline, then drive sweeps only —
        // nothing else may touch (and thereby normalize) the expired
        // entries, so the sweeper must be the one reclaiming them.
        clock.advance(1_000);
        assert!(!s.is_empty(), "expiry is lazy: physical entries remain");
        let sweep = KvMix {
            sweep_pm: 1000,
            sweep_budget: 16,
            ..KvMix::default()
        };
        let (m, tally) = run_kv::<_, Unordered>(&spec(40, 7, false), &s, &keys, &sweep);
        assert!(tally.calls(Class::Sweep) > 0, "sweeps ran");
        assert!(
            tally.per_call(Class::Sweep).unwrap() > 0.0,
            "expired entries were reclaimed"
        );
        assert_eq!(s.len(), 0, "every TTL entry expired and was swept");
        assert!(m.mops() > 0.0);
    }

    #[test]
    fn ordered_mix_executes_range_scans_and_rebalances() {
        use optik_skiplists::OptikSkipList2;
        // Skew concentrates load so rebalance rounds trigger.
        let keys = Workload::paper(64, 0, true);
        let mix = KvMix {
            put_pm: 100,
            remove_pm: 100,
            range_pm: 100,
            range_span: 16,
            rebalance_pm: 50,
            ..KvMix::default()
        };
        let s: KvStore<OptikSkipList2> =
            KvStore::with_ordered_shards(4, 128, |_| OptikSkipList2::new());
        fill(&keys, 3, &s);
        let (m, tally) = run_kv::<_, Ordered>(&spec(60, 5, false), &s, &keys, &mix);
        assert!(tally.calls(Class::Range) > 0, "range scans ran");
        assert!(
            tally.per_call(Class::Range).unwrap() > 0.0,
            "windows over a half-full store must hit entries"
        );
        assert!(
            m.count(OpKind::SearchHit) + m.count(OpKind::SearchMiss) > 0,
            "gets ran"
        );
        assert!(m.mops() > 0.0);
        // Skewed (zipf) load on contiguous partitions is exactly the
        // imbalance the rebalancer exists for.
        assert!(
            tally.calls(Class::Rebalance) > 0,
            "skewed ordered load must trigger migrations"
        );
        assert!(tally.per_call(Class::Rebalance).unwrap() > 0.0);
    }
}
