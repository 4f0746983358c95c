//! KV workload generation and the multi-threaded benchmark driver for the
//! `kv.*` registry scenarios.
//!
//! Follows the paper's §5 methodology (key range double the initial size,
//! optional zipfian skew with the largest keys most popular, per-iteration
//! quiescence) extended with the store-level operations the set
//! microbenchmark has no counterpart for: batched multi-key ops, snapshot
//! scans, TTL puts with incremental expiry sweeps, and load-driven
//! rebalance rounds.

use std::time::{Duration, Instant};

use optik_harness::api::{Key, OrderedMap, Val};
use optik_harness::latency::{LatencyRecorder, OpKind};
use optik_harness::rng::FastRng;
use optik_harness::runner::run_workers;
use optik_harness::zipf::Zipf;

use crate::{ConcurrentMap, KvStore};

/// Issued operation mix, in permille of issued operations.
///
/// The named permilles must not exceed 1000; the remainder goes to
/// single-key gets. Batched operations draw [`KvMix::batch`] keys per
/// call, and batched writes alternate between `multi_put` and an
/// equal-size `multi_remove` so — like the paper's equal insert/delete
/// rates — the store size stays near the initial fill. Range scans
/// ([`KvMix::range_pm`]) and rebalance rounds ([`KvMix::rebalance_pm`])
/// require an [`OrderedMap`] backend and the [`run_kv_workload_ordered`]
/// driver; TTL puts and sweeps ([`KvMix::ttl_put_pm`], [`KvMix::sweep_pm`])
/// require a store built with a clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct KvMix {
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
    /// Permille of bounded range scans (`range_scan`, ordered backends
    /// only).
    pub range_pm: u32,
    /// Window width of a range scan: `[lo, lo + range_span - 1]` with a
    /// sampled `lo`.
    pub range_span: u64,
    /// Permille of TTL puts (`put_with_ttl`, TTL-enabled stores only).
    pub ttl_put_pm: u32,
    /// Lifetime (clock ticks) of a TTL put.
    pub ttl_span: u64,
    /// Permille of incremental expiry sweeps (`sweep_expired`,
    /// TTL-enabled stores only).
    pub sweep_pm: u32,
    /// Candidate budget per sweep call.
    pub sweep_budget: usize,
    /// Permille of load-driven rebalance rounds (`rebalance_round`,
    /// ordered stores only; hash-sharded rounds are no-ops).
    pub rebalance_pm: u32,
}

impl KvMix {
    /// Sum of the named (non-get) permilles.
    fn named_pm(&self) -> u32 {
        self.put_pm
            .saturating_add(self.remove_pm)
            .saturating_add(self.batch_get_pm)
            .saturating_add(self.batch_write_pm)
            .saturating_add(self.scan_pm)
            .saturating_add(self.range_pm)
            .saturating_add(self.ttl_put_pm)
            .saturating_add(self.sweep_pm)
            .saturating_add(self.rebalance_pm)
    }

    /// Permille of single-key gets (the remainder). Saturating: a mix
    /// built by hand with more than 1000 named permille (the fields are
    /// public; only [`KvWorkload::new`] enforces the invariant) reports 0
    /// rather than underflowing.
    pub fn get_pm(&self) -> u32 {
        1000u32.saturating_sub(self.named_pm())
    }
}

/// A kv workload: initial size, key range, skew, and operation mix.
#[derive(Debug, Clone)]
pub struct KvWorkload {
    /// Target steady-state entry count; the store is pre-filled to this.
    pub initial_size: u64,
    /// Inclusive key range `[lo, hi]`, double the initial size as in §5.
    pub key_lo: Key,
    /// See [`KvWorkload::key_lo`].
    pub key_hi: Key,
    /// Zipfian sampler (`None` = uniform).
    pub zipf: Option<Zipf>,
    /// Operation mix.
    pub mix: KvMix,
}

impl KvWorkload {
    /// Builds a workload with the paper's key-range convention (`[1, 2 *
    /// initial_size]`).
    ///
    /// # Panics
    ///
    /// Panics if `initial_size` is zero, the mix permilles exceed 1000, or
    /// a batched/ranged/TTL/sweeping mix lacks its size knob.
    pub fn new(initial_size: u64, skewed: bool, mix: KvMix) -> Self {
        assert!(initial_size > 0, "initial size must be positive");
        assert!(mix.named_pm() <= 1000, "mix permilles exceed 1000");
        assert!(
            mix.batch > 0 || (mix.batch_get_pm == 0 && mix.batch_write_pm == 0),
            "batched mixes need a batch size"
        );
        assert!(
            mix.range_span > 0 || mix.range_pm == 0,
            "range mixes need a range span"
        );
        assert!(
            mix.ttl_span > 0 || mix.ttl_put_pm == 0,
            "TTL mixes need a ttl span"
        );
        assert!(
            mix.sweep_budget > 0 || mix.sweep_pm == 0,
            "sweeping mixes need a sweep budget"
        );
        let key_hi = 2 * initial_size;
        Self {
            initial_size,
            key_lo: 1,
            key_hi,
            zipf: skewed.then(|| Zipf::paper(key_hi as usize)),
            mix,
        }
    }

    /// [`KvWorkload::new`] with an explicit zipfian exponent: the
    /// hot-key scenarios sweep the skew (s = 0.99, 1.2) past the
    /// paper's 0.9 default to concentrate writes on a few shards.
    pub fn with_alpha(initial_size: u64, alpha: f64, mix: KvMix) -> Self {
        let mut w = Self::new(initial_size, false, mix);
        w.zipf = Some(Zipf::new(w.key_hi as usize, alpha));
        w
    }

    /// Draws a key from the configured distribution.
    #[inline]
    pub fn sample_key(&self, rng: &mut FastRng) -> Key {
        match &self.zipf {
            Some(z) => z.sample_key(rng, self.key_lo, self.key_hi),
            None => rng.range_inclusive(self.key_lo, self.key_hi),
        }
    }

    /// Pre-fills `store` to `initial_size` distinct uniform keys
    /// (`val = key`, as in the paper's microbenchmarks).
    pub fn initial_fill<B: ConcurrentMap>(&self, seed: u64, store: &KvStore<B>) {
        let mut rng = FastRng::new(seed ^ 0xF111_0F11);
        let mut inserted = 0;
        while inserted < self.initial_size {
            let k = rng.range_inclusive(self.key_lo, self.key_hi);
            if store.put(k, k).is_none() {
                inserted += 1;
            }
        }
    }
}

/// Operation counters for one kv run. Batched operations count one unit
/// per key touched; scans, sweeps, and rebalance rounds count one unit
/// per call (their cost scales with store size or migration volume, not
/// batch size — throughput comparisons should keep their permilles small
/// and equal across series).
#[derive(Debug, Clone, Copy, Default)]
pub struct KvCounts {
    /// Single gets that found their key.
    pub get_hit: u64,
    /// Single gets that missed.
    pub get_miss: u64,
    /// Puts that inserted a fresh key.
    pub put_fresh: u64,
    /// Puts that replaced an existing value.
    pub put_update: u64,
    /// Removes that removed.
    pub remove_suc: u64,
    /// Removes that missed.
    pub remove_fail: u64,
    /// Keys read through `multi_get`.
    pub batch_get_keys: u64,
    /// Keys written/removed through `multi_put`/`multi_remove`.
    pub batch_write_keys: u64,
    /// Snapshot scans completed.
    pub scans: u64,
    /// Entries observed by scans (not counted as ops).
    pub scanned_entries: u64,
    /// Bounded range scans completed.
    pub range_scans: u64,
    /// Entries returned by range scans (not counted as ops).
    pub ranged_entries: u64,
    /// TTL puts (`put_with_ttl`) issued.
    pub ttl_puts: u64,
    /// Expiry sweeps (`sweep_expired`) issued.
    pub sweeps: u64,
    /// Entries reclaimed by sweeps (not counted as ops).
    pub swept_keys: u64,
    /// Rebalance rounds that migrated something.
    pub rebalances: u64,
    /// Entries migrated by rebalance rounds (not counted as ops).
    pub migrated_keys: u64,
}

impl KvCounts {
    /// Total operation units (see the type docs for batch/scan weighting).
    pub fn total(&self) -> u64 {
        self.get_hit
            + self.get_miss
            + self.put_fresh
            + self.put_update
            + self.remove_suc
            + self.remove_fail
            + self.batch_get_keys
            + self.batch_write_keys
            + self.scans
            + self.range_scans
            + self.ttl_puts
            + self.sweeps
            + self.rebalances
    }

    fn merge(&mut self, o: &KvCounts) {
        self.get_hit += o.get_hit;
        self.get_miss += o.get_miss;
        self.put_fresh += o.put_fresh;
        self.put_update += o.put_update;
        self.remove_suc += o.remove_suc;
        self.remove_fail += o.remove_fail;
        self.batch_get_keys += o.batch_get_keys;
        self.batch_write_keys += o.batch_write_keys;
        self.scans += o.scans;
        self.scanned_entries += o.scanned_entries;
        self.range_scans += o.range_scans;
        self.ranged_entries += o.ranged_entries;
        self.ttl_puts += o.ttl_puts;
        self.sweeps += o.sweeps;
        self.swept_keys += o.swept_keys;
        self.rebalances += o.rebalances;
        self.migrated_keys += o.migrated_keys;
    }
}

/// Result of one kv measurement window.
#[derive(Debug)]
pub struct KvBenchResult {
    /// Merged counters.
    pub counts: KvCounts,
    /// Wall-clock window.
    pub duration: Duration,
    /// Single-key operation latencies (batches and scans are not sampled).
    pub latency: LatencyRecorder,
}

impl KvBenchResult {
    /// Throughput in million operation units per second.
    pub fn mops(&self) -> f64 {
        self.counts.total() as f64 / self.duration.as_secs_f64().max(1e-12) / 1e6
    }
}

/// Runs the kv microbenchmark: each thread draws operations from
/// `workload` against the shared store until `duration` elapses.
///
/// Threads announce QSBR quiescence between operations (ssmem-style, as
/// in the paper's runner); latency is recorded for single-key operations
/// only (gets as search, puts as insert, removes as delete). TTL puts and
/// sweeps require a store built with a clock ([`KvStore::with_shards_ttl`]).
///
/// # Panics
///
/// Panics if the mix contains range scans or rebalance rounds — those
/// need an [`OrderedMap`] backend; use [`run_kv_workload_ordered`].
pub fn run_kv_workload<B: ConcurrentMap>(
    store: &KvStore<B>,
    threads: usize,
    duration: Duration,
    workload: &KvWorkload,
    seed: u64,
    record_latency: bool,
) -> KvBenchResult {
    assert!(
        workload.mix.range_pm == 0,
        "range mixes need an OrderedMap backend (run_kv_workload_ordered)"
    );
    assert!(
        workload.mix.rebalance_pm == 0,
        "rebalance mixes need an OrderedMap backend (run_kv_workload_ordered)"
    );
    run_kv_inner(
        store,
        threads,
        duration,
        workload,
        seed,
        record_latency,
        &|_, _| unreachable!("range op drawn with range_pm == 0"),
        &|| unreachable!("rebalance op drawn with rebalance_pm == 0"),
    )
}

/// [`run_kv_workload`] over an [`OrderedMap`]-backed store: additionally
/// executes the mix's bounded range scans through [`KvStore::range_scan`]
/// and its rebalance rounds through [`KvStore::rebalance_round`].
pub fn run_kv_workload_ordered<B: OrderedMap>(
    store: &KvStore<B>,
    threads: usize,
    duration: Duration,
    workload: &KvWorkload,
    seed: u64,
    record_latency: bool,
) -> KvBenchResult {
    run_kv_inner(
        store,
        threads,
        duration,
        workload,
        seed,
        record_latency,
        &|lo, hi| store.range_scan(lo, hi).len() as u64,
        &|| store.rebalance_round().map_or(0, |s| s.moved),
    )
}

/// Shared driver core; `range_exec` runs one bounded range scan and
/// reports how many entries it returned, `rebalance_exec` runs one
/// rebalance round and reports how many entries migrated.
#[allow(clippy::too_many_arguments)] // two exec hooks close over the typed store
fn run_kv_inner<B: ConcurrentMap>(
    store: &KvStore<B>,
    threads: usize,
    duration: Duration,
    workload: &KvWorkload,
    seed: u64,
    record_latency: bool,
    range_exec: &(dyn Fn(Key, Key) -> u64 + Sync),
    rebalance_exec: &(dyn Fn() -> u64 + Sync),
) -> KvBenchResult {
    let mix = workload.mix;
    let start = Instant::now();
    let results = run_workers(threads, duration, |ctx| {
        let mut rng = FastRng::for_thread(seed, ctx.tid);
        let mut counts = KvCounts::default();
        let mut lat = LatencyRecorder::new();
        let mut keybuf: Vec<Key> = Vec::with_capacity(mix.batch);
        let mut entbuf: Vec<(Key, Val)> = Vec::with_capacity(mix.batch);
        let mut batch_write_flip = ctx.tid as u64;
        // Cumulative permille thresholds, in dispatch order.
        let t_put = mix.put_pm;
        let t_remove = t_put + mix.remove_pm;
        let t_ttl_put = t_remove + mix.ttl_put_pm;
        let t_batch_get = t_ttl_put + mix.batch_get_pm;
        let t_batch_write = t_batch_get + mix.batch_write_pm;
        let t_scan = t_batch_write + mix.scan_pm;
        let t_range = t_scan + mix.range_pm;
        let t_sweep = t_range + mix.sweep_pm;
        let t_rebalance = t_sweep + mix.rebalance_pm;
        while !ctx.should_stop() {
            let p = rng.next_below(1000) as u32;
            if p < t_put {
                let k = workload.sample_key(&mut rng);
                let t0 = record_latency.then(synchro::cycles::now);
                let prev = store.put(k, k);
                if let Some(t0) = t0 {
                    lat.record(
                        OpKind::InsertSuc,
                        synchro::cycles::elapsed(t0, synchro::cycles::now()),
                    );
                }
                if prev.is_none() {
                    counts.put_fresh += 1;
                } else {
                    counts.put_update += 1;
                }
            } else if p < t_remove {
                let k = workload.sample_key(&mut rng);
                let t0 = record_latency.then(synchro::cycles::now);
                let removed = store.remove(k);
                let kind = if removed.is_some() {
                    counts.remove_suc += 1;
                    OpKind::DeleteSuc
                } else {
                    counts.remove_fail += 1;
                    OpKind::DeleteFail
                };
                if let Some(t0) = t0 {
                    lat.record(kind, synchro::cycles::elapsed(t0, synchro::cycles::now()));
                }
            } else if p < t_ttl_put {
                let k = workload.sample_key(&mut rng);
                store.put_with_ttl(k, k, mix.ttl_span);
                counts.ttl_puts += 1;
            } else if p < t_batch_get {
                keybuf.clear();
                keybuf.extend((0..mix.batch).map(|_| workload.sample_key(&mut rng)));
                counts.batch_get_keys += store.multi_get(&keybuf).len() as u64;
            } else if p < t_batch_write {
                // Alternate put/remove batches so the store size holds.
                batch_write_flip += 1;
                if batch_write_flip % 2 == 0 {
                    entbuf.clear();
                    entbuf.extend((0..mix.batch).map(|_| {
                        let k = workload.sample_key(&mut rng);
                        (k, k)
                    }));
                    store.multi_put(&entbuf);
                } else {
                    keybuf.clear();
                    keybuf.extend((0..mix.batch).map(|_| workload.sample_key(&mut rng)));
                    store.multi_remove(&keybuf);
                }
                counts.batch_write_keys += mix.batch as u64;
            } else if p < t_scan {
                let mut seen = 0u64;
                store.scan(|_, _| seen += 1);
                counts.scans += 1;
                counts.scanned_entries += seen;
            } else if p < t_range {
                let lo = workload.sample_key(&mut rng);
                let hi = lo.saturating_add(mix.range_span - 1);
                counts.ranged_entries += range_exec(lo, hi);
                counts.range_scans += 1;
            } else if p < t_sweep {
                counts.swept_keys += store.sweep_expired(mix.sweep_budget);
                counts.sweeps += 1;
            } else if p < t_rebalance {
                let moved = rebalance_exec();
                if moved > 0 {
                    counts.rebalances += 1;
                    counts.migrated_keys += moved;
                }
            } else {
                let k = workload.sample_key(&mut rng);
                let t0 = record_latency.then(synchro::cycles::now);
                let hit = store.get(k).is_some();
                let kind = if hit {
                    counts.get_hit += 1;
                    OpKind::SearchHit
                } else {
                    counts.get_miss += 1;
                    OpKind::SearchMiss
                };
                if let Some(t0) = t0 {
                    lat.record(kind, synchro::cycles::elapsed(t0, synchro::cycles::now()));
                }
            }
            // Quiescent point between operations (ssmem-style).
            reclaim::quiescent();
        }
        (counts, lat)
    });
    let duration = start.elapsed();
    let mut counts = KvCounts::default();
    let mut latency = LatencyRecorder::new();
    for (c, l) in &results {
        counts.merge(c);
        latency.merge(l);
    }
    KvBenchResult {
        counts,
        duration,
        latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FakeClock;
    use optik_hashtables::StripedOptikHashTable;
    use std::sync::Arc;

    /// The mix used by the read-heavy scenarios: 90% gets.
    fn read_heavy() -> KvMix {
        KvMix {
            put_pm: 50,
            remove_pm: 50,
            batch_get_pm: 0,
            batch_write_pm: 0,
            scan_pm: 0,
            batch: 0,
            ..KvMix::default()
        }
    }

    #[test]
    fn mix_remainder_is_gets() {
        let m = read_heavy();
        assert_eq!(m.get_pm(), 900);
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
        assert_eq!(full.get_pm(), 230);
    }

    #[test]
    fn hand_built_oversubscribed_mix_saturates_instead_of_underflowing() {
        // The fields are public, so get_pm() must stay total even when the
        // 1000-permille invariant (enforced by KvWorkload::new) is bypassed.
        let m = KvMix {
            put_pm: 600,
            remove_pm: 600,
            batch_get_pm: 0,
            batch_write_pm: 0,
            scan_pm: 0,
            batch: 0,
            ..KvMix::default()
        };
        assert_eq!(m.get_pm(), 0);
    }

    #[test]
    #[should_panic(expected = "exceed 1000")]
    fn oversubscribed_mix_is_rejected() {
        let _ = KvWorkload::new(
            16,
            false,
            KvMix {
                put_pm: 600,
                remove_pm: 600,
                batch_get_pm: 0,
                batch_write_pm: 0,
                scan_pm: 0,
                batch: 0,
                ..KvMix::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "ttl span")]
    fn ttl_mix_without_span_is_rejected() {
        let _ = KvWorkload::new(
            16,
            false,
            KvMix {
                ttl_put_pm: 100,
                ..KvMix::default()
            },
        );
    }

    #[test]
    fn initial_fill_reaches_target() {
        let w = KvWorkload::new(128, false, read_heavy());
        let s: KvStore<StripedOptikHashTable> =
            KvStore::with_shards(4, |_| StripedOptikHashTable::new(64, 8));
        w.initial_fill(7, &s);
        assert_eq!(s.len(), 128);
        let snap = s.snapshot();
        assert!(snap.iter().all(|&(k, v)| k == v && (1..=256).contains(&k)));
    }

    #[test]
    fn driver_executes_every_op_class() {
        let w = KvWorkload::new(
            64,
            true,
            KvMix {
                put_pm: 150,
                remove_pm: 150,
                batch_get_pm: 150,
                batch_write_pm: 150,
                scan_pm: 20,
                batch: 4,
                ..KvMix::default()
            },
        );
        let s: KvStore<StripedOptikHashTable> =
            KvStore::with_shards(4, |_| StripedOptikHashTable::new(64, 8));
        w.initial_fill(3, &s);
        let res = run_kv_workload(&s, 2, Duration::from_millis(60), &w, 5, true);
        assert!(res.counts.get_hit + res.counts.get_miss > 0, "gets ran");
        assert!(res.counts.put_fresh + res.counts.put_update > 0, "puts ran");
        assert!(
            res.counts.remove_suc + res.counts.remove_fail > 0,
            "removes ran"
        );
        assert!(res.counts.batch_get_keys > 0, "multi-gets ran");
        assert!(res.counts.batch_write_keys > 0, "batched writes ran");
        assert!(res.counts.scans > 0, "scans ran");
        assert!(res.mops() > 0.0);
        let sampled = OpKind::ALL.iter().any(|&k| res.latency.count(k) > 0);
        assert!(sampled, "single-op latency was requested");
        // The balanced mix must keep the store near its initial size.
        let len = s.len() as i64;
        assert!((0..=128).contains(&len), "size ran away: {len}");
    }

    #[test]
    fn ttl_driver_expires_and_sweeps() {
        let clock = Arc::new(FakeClock::new());
        let s: KvStore<StripedOptikHashTable> =
            KvStore::with_shards_ttl(4, Arc::clone(&clock) as Arc<dyn crate::Clock>, |_| {
                StripedOptikHashTable::new(64, 8)
            });
        // Phase 1: a TTL-put-heavy mix populates deadlines.
        let arm = KvWorkload::new(
            64,
            false,
            KvMix {
                ttl_put_pm: 400,
                ttl_span: 10,
                ..KvMix::default()
            },
        );
        let res = run_kv_workload(&s, 2, Duration::from_millis(40), &arm, 5, false);
        assert!(res.counts.ttl_puts > 0, "TTL puts ran");
        assert!(res.counts.get_hit + res.counts.get_miss > 0, "gets ran");
        // Phase 2: jump past every deadline, then drive sweeps only —
        // nothing else may touch (and thereby normalize) the expired
        // entries, so the sweeper must be the one reclaiming them.
        clock.advance(1_000);
        assert!(!s.is_empty(), "expiry is lazy: physical entries remain");
        let sweep = KvWorkload::new(
            64,
            false,
            KvMix {
                sweep_pm: 1000,
                sweep_budget: 16,
                ..KvMix::default()
            },
        );
        let res = run_kv_workload(&s, 2, Duration::from_millis(40), &sweep, 7, false);
        assert!(res.counts.sweeps > 0, "sweeps ran");
        assert!(res.counts.swept_keys > 0, "expired entries were reclaimed");
        assert_eq!(s.len(), 0, "every TTL entry expired and was swept");
        assert!(res.mops() > 0.0);
    }

    #[test]
    fn ordered_driver_executes_range_scans_and_rebalances() {
        use optik_skiplists::OptikSkipList2;
        let w = KvWorkload::new(
            64,
            true, // skew concentrates load so rebalance rounds trigger
            KvMix {
                put_pm: 100,
                remove_pm: 100,
                range_pm: 100,
                range_span: 16,
                rebalance_pm: 50,
                ..KvMix::default()
            },
        );
        let s: KvStore<OptikSkipList2> =
            KvStore::with_ordered_shards(4, 128, |_| OptikSkipList2::new());
        w.initial_fill(3, &s);
        let res = run_kv_workload_ordered(&s, 2, Duration::from_millis(60), &w, 5, false);
        assert!(res.counts.range_scans > 0, "range scans ran");
        assert!(
            res.counts.ranged_entries > 0,
            "windows over a half-full store must hit entries"
        );
        assert!(res.counts.get_hit + res.counts.get_miss > 0, "gets ran");
        assert!(res.mops() > 0.0);
        // Skewed (zipf) load on contiguous partitions is exactly the
        // imbalance the rebalancer exists for.
        assert!(
            res.counts.rebalances > 0,
            "skewed ordered load must trigger migrations"
        );
        assert!(res.counts.migrated_keys > 0);
    }

    #[test]
    #[should_panic(expected = "range mixes need an OrderedMap backend")]
    fn plain_driver_rejects_range_mixes() {
        let w = KvWorkload::new(
            16,
            false,
            KvMix {
                range_pm: 10,
                range_span: 4,
                ..KvMix::default()
            },
        );
        let s: KvStore<StripedOptikHashTable> =
            KvStore::with_shards(2, |_| StripedOptikHashTable::new(16, 4));
        let _ = run_kv_workload(&s, 1, Duration::from_millis(5), &w, 1, false);
    }

    #[test]
    #[should_panic(expected = "rebalance mixes need an OrderedMap backend")]
    fn plain_driver_rejects_rebalance_mixes() {
        let w = KvWorkload::new(
            16,
            false,
            KvMix {
                rebalance_pm: 10,
                ..KvMix::default()
            },
        );
        let s: KvStore<StripedOptikHashTable> =
            KvStore::with_shards(2, |_| StripedOptikHashTable::new(16, 4));
        let _ = run_kv_workload(&s, 1, Duration::from_millis(5), &w, 1, false);
    }
}
