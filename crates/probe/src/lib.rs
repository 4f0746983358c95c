//! Zero-cost-when-disabled instrumentation for the OPTIK workspace.
//!
//! The paper's whole argument (Guerraoui & Trigonakis, PPoPP '16) is that
//! validate-and-retry beats pessimistic locking *because* validation
//! failures are rare — a claim that is only honest when the failure rates
//! are measurable. This crate is the measuring instrument:
//!
//! - **Per-thread event counters** ([`Event`], [`count`]) keyed by the
//!   process-wide [`thread_index`] registry (shared with `reclaim`'s node
//!   pools): validation failures, lock acquisitions, backoff waits,
//!   QSBR epoch advances, magazine hits, TTL sweeps, migration batches.
//!   Counters are owner-written (plain load+store, no `lock`-prefixed RMW)
//!   exactly like the pool's magazine counters, so the enabled hooks add no
//!   coherence traffic to the loops they observe.
//! - **Log-bucketed cycle histograms** ([`HistKind`], [`record`]):
//!   power-of-two buckets, HDR-style, for retry-loop duration, lock hold
//!   time, per-range validation windows, and QSBR grace latency.
//! - **Trace-event timelines** ([`trace`]): a bounded per-thread span ring
//!   dumped as Chrome trace-event JSON (loadable in Perfetto / `about:tracing`).
//!
//! Everything above is compiled in only under the `probe` cargo feature.
//! Without it every hook body is empty and [`Snapshot::take`] returns all
//! zeros — the same gating pattern as `synchro::shim`, but driven by a
//! feature instead of `--cfg optik_explore`. The one unconditionally
//! compiled piece is the thread-index registry, which `reclaim` uses to key
//! its per-thread magazines.
//!
//! Aggregation mirrors `reclaim::PoolStats`: [`Snapshot::take`] sums the
//! per-thread slabs, [`Snapshot::delta_since`] isolates one measurement
//! window, [`Snapshot::conservation`] exposes the ledger equalities that
//! must hold at rest, and [`Snapshot::metrics`] derives the per-operation
//! rates the harness reports as a scenario's `internals`.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, Ordering};

pub mod trace;

// ---------------------------------------------------------------------------
// Process-wide thread index registry (moved here from `reclaim::pool` so the
// probe's per-thread slabs and the pool's magazines share one keying).
// ---------------------------------------------------------------------------

/// Maximum number of concurrently live threads the registry (and everything
/// keyed by it: probe slabs, `reclaim` magazines and QSBR slots) supports.
pub const MAX_THREADS: usize = 256;

/// One claimable index per live OS thread. Indices are exclusive while
/// claimed and recycled on thread exit, so consumers can key per-thread
/// state by index with no per-structure registration.
static CLAIMED: [AtomicBool; MAX_THREADS] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const FREE: AtomicBool = AtomicBool::new(false);
    [FREE; MAX_THREADS]
};

struct ThreadIndexGuard(u32);

impl Drop for ThreadIndexGuard {
    fn drop(&mut self) {
        // Release pairs with the Acquire CAS of the next claimant, so
        // per-thread state written by this thread is visible to it.
        CLAIMED[self.0 as usize].store(false, Ordering::Release);
    }
}

fn claim_thread_index() -> ThreadIndexGuard {
    for (i, slot) in CLAIMED.iter().enumerate() {
        if !slot.load(Ordering::Relaxed)
            && slot
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            return ThreadIndexGuard(i as u32);
        }
    }
    panic!("thread registry exhausted: more than {MAX_THREADS} live threads");
}

std::thread_local! {
    static THREAD_INDEX: ThreadIndexGuard = claim_thread_index();
}

/// This thread's registry index (claimed on first use, released at thread
/// exit). Exclusive among live threads; exited threads' indices — and any
/// per-thread state filed under them — are inherited by later threads.
///
/// `None` during thread teardown: TLS destructors may run after this TLS is
/// already gone (destruction order is unspecified). Callers fall back to a
/// shared slow path.
#[inline]
pub fn thread_index() -> Option<usize> {
    THREAD_INDEX.try_with(|g| g.0 as usize).ok()
}

/// Whether the `probe` feature was compiled in (hooks are live).
#[inline(always)]
pub const fn enabled() -> bool {
    cfg!(feature = "probe")
}

// ---------------------------------------------------------------------------
// Events and histogram kinds (present in both builds — they are just names).
// ---------------------------------------------------------------------------

/// Counted events, one counter per kind per thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Event {
    /// OPTIK validation failure: `try_lock_version*` pre-check or CAS
    /// failure, or a `lock_version` that acquired a different version.
    ValidationFail = 0,
    /// Versioned-lock acquisition (successful CAS).
    LockAcquire = 1,
    /// Optimistic read round that failed revalidation and retried
    /// (kv `multi_get`/`get`/snapshot/range loops).
    ReadRetry = 2,
    /// `Backoff::backoff` invocation.
    BackoffWait = 3,
    /// Adaptive backoff soft-ceiling escalation.
    BackoffEscalate = 4,
    /// Classic spinlock (ttas/mcs) acquisition.
    SpinAcquire = 5,
    /// QSBR quiescent-point announcement.
    EpochAdvance = 6,
    /// QSBR limbo batch freed after its grace period.
    GraceBatchFree = 7,
    /// Node-pool allocation served from the per-thread magazine.
    MagazineHit = 8,
    /// Node-pool allocation that took the pool lock (depot/bump/direct).
    MagazineMiss = 9,
    /// TTL sweep invocation (`sweep_expired`).
    TtlSweep = 10,
    /// Entry physically dropped by a TTL sweep.
    TtlExpired = 11,
    /// Rebalance migration batch copied and flipped.
    MigrationBatch = 12,
    /// Key moved by a rebalance migration.
    MigrationMoved = 13,
    /// Software prefetch issued one hop ahead of a traversal.
    PrefetchIssued = 14,
    /// Shard window re-opened by a repair round of a kv windowed read
    /// (`multi_get`, `range_scan`): it broke, its version was re-read and
    /// its share read again while the other shards' reads were kept (an
    /// attempt that starts over counts as [`Event::ReadRetry`] instead).
    ReadRepair = 15,
    /// Shard whose pre-lock walk a kv batch write threw away: its version
    /// moved between the window's opening and the lock, so the backend
    /// descends to that shard's keys again under it (counted where the
    /// locks are taken, and only for a backend that walked).
    BatchRewalk = 16,
}

/// Number of [`Event`] kinds.
pub const EVENT_COUNT: usize = 17;

impl Event {
    /// All events, in counter order.
    pub const ALL: [Event; EVENT_COUNT] = [
        Event::ValidationFail,
        Event::LockAcquire,
        Event::ReadRetry,
        Event::BackoffWait,
        Event::BackoffEscalate,
        Event::SpinAcquire,
        Event::EpochAdvance,
        Event::GraceBatchFree,
        Event::MagazineHit,
        Event::MagazineMiss,
        Event::TtlSweep,
        Event::TtlExpired,
        Event::MigrationBatch,
        Event::MigrationMoved,
        Event::PrefetchIssued,
        Event::ReadRepair,
        Event::BatchRewalk,
    ];

    /// Stable snake_case key (report/JSON field name).
    pub fn key(self) -> &'static str {
        match self {
            Event::ValidationFail => "validation_fail",
            Event::LockAcquire => "lock_acquire",
            Event::ReadRetry => "read_retry",
            Event::BackoffWait => "backoff_wait",
            Event::BackoffEscalate => "backoff_escalate",
            Event::SpinAcquire => "spin_acquire",
            Event::EpochAdvance => "epoch_advance",
            Event::GraceBatchFree => "grace_batch_free",
            Event::MagazineHit => "magazine_hit",
            Event::MagazineMiss => "magazine_miss",
            Event::TtlSweep => "ttl_sweep",
            Event::TtlExpired => "ttl_expired",
            Event::MigrationBatch => "migration_batch",
            Event::MigrationMoved => "migration_moved",
            Event::PrefetchIssued => "prefetch_issued",
            Event::ReadRepair => "read_repair",
            Event::BatchRewalk => "batch_rewalk",
        }
    }
}

/// Log-bucketed cycle histograms, one per kind per thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistKind {
    /// Duration of a retry-laden optimistic read loop (first attempt to
    /// final validation; recorded only when at least one round retried).
    RetryLoop = 0,
    /// Versioned-lock hold time (acquisition to unlock/revert).
    LockHold = 1,
    /// Duration of one validated kv windowed read: first version read of
    /// the attempt that succeeded to its validation (reported as
    /// `range_window`, after its first user).
    ValidationWindow = 2,
    /// QSBR grace latency: limbo batch seal to batch free.
    GraceLatency = 3,
}

/// Number of [`HistKind`]s.
pub const HIST_COUNT: usize = 4;

/// Buckets per histogram: bucket `b` counts values in `[2^b, 2^(b+1))`
/// (bucket 0 additionally holds zero).
pub const HIST_BUCKETS: usize = 64;

impl HistKind {
    /// All kinds, in storage order.
    pub const ALL: [HistKind; HIST_COUNT] = [
        HistKind::RetryLoop,
        HistKind::LockHold,
        HistKind::ValidationWindow,
        HistKind::GraceLatency,
    ];

    /// Stable snake_case key.
    pub fn key(self) -> &'static str {
        match self {
            HistKind::RetryLoop => "retry",
            HistKind::LockHold => "hold",
            HistKind::ValidationWindow => "range_window",
            HistKind::GraceLatency => "grace",
        }
    }
}

/// The log-2 bucket a value falls into.
#[cfg_attr(not(feature = "probe"), allow(dead_code))]
#[inline]
fn bucket_of(v: u64) -> usize {
    63 - (v | 1).leading_zeros() as usize
}

// ---------------------------------------------------------------------------
// Enabled storage and hooks.
// ---------------------------------------------------------------------------

#[cfg(feature = "probe")]
mod active {
    use super::{bucket_of, Event, HistKind, EVENT_COUNT, HIST_BUCKETS, HIST_COUNT, MAX_THREADS};
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Slab slots: one per registry index plus one shared overflow slot for
    /// threads counting during TLS teardown (index [`MAX_THREADS`]).
    pub(super) const SLOTS: usize = MAX_THREADS + 1;

    pub(super) struct ThreadSlab {
        pub(super) counts: [AtomicU64; EVENT_COUNT],
        pub(super) sums: [AtomicU64; HIST_COUNT],
        pub(super) buckets: [[AtomicU64; HIST_BUCKETS]; HIST_COUNT],
    }

    /// Padded so one thread's hot counters never share a cache line with
    /// another's (the whole point of per-thread slabs).
    #[repr(align(128))]
    pub(super) struct Aligned(pub(super) ThreadSlab);

    pub(super) static SLABS: [Aligned; SLOTS] = {
        #[allow(clippy::declare_interior_mutable_const)]
        const Z: AtomicU64 = AtomicU64::new(0);
        #[allow(clippy::declare_interior_mutable_const)]
        const ROW: [AtomicU64; HIST_BUCKETS] = [Z; HIST_BUCKETS];
        #[allow(clippy::declare_interior_mutable_const)]
        const SLAB: Aligned = Aligned(ThreadSlab {
            counts: [Z; EVENT_COUNT],
            sums: [Z; HIST_COUNT],
            buckets: [ROW; HIST_COUNT],
        });
        [SLAB; SLOTS]
    };

    /// The calling thread's slab index; teardown falls back to the shared
    /// overflow slot so late events still land in the ledger.
    #[inline]
    pub(super) fn slot_index() -> usize {
        super::thread_index().unwrap_or(MAX_THREADS)
    }

    /// Owner-exclusive bump (plain load+store) for registry-owned slots;
    /// the shared overflow slot needs the real RMW.
    #[inline]
    pub(super) fn bump(idx: usize, counter: &AtomicU64, delta: u64) {
        if idx == MAX_THREADS {
            counter.fetch_add(delta, Ordering::Relaxed);
        } else {
            counter.store(
                counter.load(Ordering::Relaxed).wrapping_add(delta),
                Ordering::Relaxed,
            );
        }
    }

    #[inline]
    pub(super) fn count_n(e: Event, n: u64) {
        let idx = slot_index();
        bump(idx, &SLABS[idx].0.counts[e as usize], n);
    }

    #[inline]
    pub(super) fn record(kind: HistKind, value: u64) {
        let idx = slot_index();
        let slab = &SLABS[idx].0;
        bump(idx, &slab.buckets[kind as usize][bucket_of(value)], 1);
        bump(idx, &slab.sums[kind as usize], value);
    }

    std::thread_local! {
        /// Acquisition timestamps of versioned locks this thread currently
        /// holds. LIFO: the workspace's release order is reverse-acquisition
        /// (batch paths release in reverse), so pops pair with their pushes;
        /// a mismatch only swaps hold attributions, totals stay conserved.
        pub(super) static HOLDS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    }
}

/// Reads the probe timestamp: cycles on x86_64 (`rdtsc`), monotonic
/// nanoseconds elsewhere — the same counter as `synchro::cycles::now`, so
/// values are interchangeable. Compiles to a constant `0` when disabled.
#[inline]
pub fn now() -> u64 {
    #[cfg(feature = "probe")]
    {
        trace::raw_now()
    }
    #[cfg(not(feature = "probe"))]
    {
        0
    }
}

/// Elapsed ticks between two [`now`] readings (zero-saturating).
#[inline]
pub fn elapsed(start: u64, end: u64) -> u64 {
    end.saturating_sub(start)
}

/// Counts one occurrence of `e` against the calling thread.
#[inline]
pub fn count(e: Event) {
    count_n(e, 1);
}

/// Counts `n` occurrences of `e` against the calling thread.
#[inline]
pub fn count_n(e: Event, n: u64) {
    #[cfg(feature = "probe")]
    active::count_n(e, n);
    #[cfg(not(feature = "probe"))]
    {
        let _ = (e, n);
    }
}

/// Records `value` (cycles) into the calling thread's `kind` histogram.
#[inline]
pub fn record(kind: HistKind, value: u64) {
    #[cfg(feature = "probe")]
    active::record(kind, value);
    #[cfg(not(feature = "probe"))]
    {
        let _ = (kind, value);
    }
}

/// Hook for a successful versioned-lock acquisition: counts
/// [`Event::LockAcquire`] and pushes an acquisition timestamp so the
/// matching [`lock_released`] can record the hold time.
#[inline]
pub fn lock_acquired() {
    #[cfg(feature = "probe")]
    {
        active::count_n(Event::LockAcquire, 1);
        let t = now();
        let _ = active::HOLDS.try_with(|h| h.borrow_mut().push(t));
    }
}

/// Hook for a versioned-lock release (`unlock` or `revert`): records the
/// hold duration into [`HistKind::LockHold`].
#[inline]
pub fn lock_released() {
    #[cfg(feature = "probe")]
    {
        let start = active::HOLDS
            .try_with(|h| h.borrow_mut().pop())
            .ok()
            .flatten();
        if let Some(start) = start {
            active::record(HistKind::LockHold, elapsed(start, now()));
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshots.
// ---------------------------------------------------------------------------

/// A point-in-time summary of one histogram (log-2 buckets + value sum).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Count per log-2 bucket (see [`HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Sum of recorded values (for means).
    pub sum: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; HIST_BUCKETS],
            sum: 0,
        }
    }
}

impl HistSnapshot {
    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean recorded value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Approximate `p`-quantile (`0.0..=1.0`): the upper bound of the
    /// bucket containing the target rank. `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let target = ((n as f64 * p.clamp(0.0, 1.0)).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(if b >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (b + 1)) - 1
                });
            }
        }
        None
    }

    fn delta_since(&self, earlier: &HistSnapshot) -> HistSnapshot {
        let mut out = *self;
        for (o, e) in out.buckets.iter_mut().zip(&earlier.buckets) {
            *o = o.wrapping_sub(*e);
        }
        out.sum = out.sum.wrapping_sub(earlier.sum);
        out
    }
}

/// A point-in-time aggregate of every thread's probe counters and
/// histograms (the probe-layer analogue of `reclaim::PoolStats`). Exact
/// whenever every instrumented thread is at rest; counter fields are
/// monotonic, so deltas between snapshots isolate one measurement window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// One total per [`Event`], indexed by discriminant.
    pub counts: [u64; EVENT_COUNT],
    /// One histogram per [`HistKind`], indexed by discriminant.
    pub hists: [HistSnapshot; HIST_COUNT],
}

impl Default for Snapshot {
    fn default() -> Self {
        Self {
            counts: [0; EVENT_COUNT],
            hists: [HistSnapshot::default(); HIST_COUNT],
        }
    }
}

impl Snapshot {
    /// Sums every thread slab. All zeros when the feature is disabled.
    pub fn take() -> Self {
        #[cfg(feature = "probe")]
        {
            use std::sync::atomic::Ordering;
            let mut snap = Self::default();
            for slab in active::SLABS.iter() {
                for (i, c) in slab.0.counts.iter().enumerate() {
                    snap.counts[i] = snap.counts[i].wrapping_add(c.load(Ordering::Relaxed));
                }
                for (k, s) in slab.0.sums.iter().enumerate() {
                    snap.hists[k].sum = snap.hists[k].sum.wrapping_add(s.load(Ordering::Relaxed));
                }
                for (k, row) in slab.0.buckets.iter().enumerate() {
                    for (b, c) in row.iter().enumerate() {
                        snap.hists[k].buckets[b] =
                            snap.hists[k].buckets[b].wrapping_add(c.load(Ordering::Relaxed));
                    }
                }
            }
            snap
        }
        #[cfg(not(feature = "probe"))]
        {
            Self::default()
        }
    }

    /// The counters/histograms accumulated since `earlier` (wrapping
    /// subtraction — counters are monotonic).
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = *self;
        for (o, e) in out.counts.iter_mut().zip(&earlier.counts) {
            *o = o.wrapping_sub(*e);
        }
        for (k, h) in out.hists.iter_mut().enumerate() {
            *h = h.delta_since(&earlier.hists[k]);
        }
        out
    }

    /// Count for one event.
    #[inline]
    pub fn get(&self, e: Event) -> u64 {
        self.counts[e as usize]
    }

    /// Histogram for one kind.
    #[inline]
    pub fn hist(&self, k: HistKind) -> &HistSnapshot {
        &self.hists[k as usize]
    }

    /// Whether nothing was recorded (always true with the feature off).
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0) && self.hists.iter().all(|h| h.count() == 0)
    }

    /// Fraction of pool allocations served without the pool lock
    /// (1.0 when no allocations were observed).
    pub fn magazine_hit_rate(&self) -> f64 {
        let hit = self.get(Event::MagazineHit);
        let total = hit + self.get(Event::MagazineMiss);
        if total == 0 {
            1.0
        } else {
            hit as f64 / total as f64
        }
    }

    /// The ledger equalities that must hold whenever every instrumented
    /// thread is at rest (all critical sections exited, all grace periods
    /// drained), as `(description, lhs, rhs)` — the probe analogue of the
    /// `PoolStats` capacity conservation check.
    pub fn conservation(&self) -> Vec<(&'static str, u64, u64)> {
        vec![
            (
                "every lock acquisition (versioned or spin) recorded a hold",
                self.get(Event::LockAcquire) + self.get(Event::SpinAcquire),
                self.hist(HistKind::LockHold).count(),
            ),
            (
                "every freed grace batch recorded a grace latency",
                self.get(Event::GraceBatchFree),
                self.hist(HistKind::GraceLatency).count(),
            ),
        ]
    }

    /// Derives the `internals` metrics the harness attaches to a scenario
    /// point: per-op rates against `ops`, histogram percentiles, and the
    /// magazine hit rate. Empty when nothing was recorded (feature off or
    /// an uninstrumented workload), so reports stay clean.
    pub fn metrics(&self, ops: u64) -> Vec<(String, f64)> {
        if self.is_empty() {
            return Vec::new();
        }
        let per_op = |n: u64| {
            if ops == 0 {
                n as f64
            } else {
                n as f64 / ops as f64
            }
        };
        let mut out: Vec<(String, f64)> = vec![
            (
                "validation_fail_per_op".into(),
                per_op(self.get(Event::ValidationFail)),
            ),
            (
                "lock_acquires_per_op".into(),
                per_op(self.get(Event::LockAcquire)),
            ),
            (
                "read_retry_per_op".into(),
                per_op(self.get(Event::ReadRetry)),
            ),
            (
                "backoff_waits_per_op".into(),
                per_op(self.get(Event::BackoffWait)),
            ),
            (
                "epoch_advances_per_op".into(),
                per_op(self.get(Event::EpochAdvance)),
            ),
        ];
        let hit = self.get(Event::MagazineHit);
        if hit + self.get(Event::MagazineMiss) > 0 {
            out.push(("magazine_hit_rate".into(), self.magazine_hit_rate()));
        }
        for (kind, p, label) in [
            (HistKind::RetryLoop, 0.50, "retry_p50_cycles"),
            (HistKind::RetryLoop, 0.99, "retry_p99_cycles"),
            (HistKind::LockHold, 0.50, "hold_p50_cycles"),
            (HistKind::LockHold, 0.99, "hold_p99_cycles"),
            (HistKind::ValidationWindow, 0.99, "range_window_p99_cycles"),
            (HistKind::GraceLatency, 0.99, "grace_p99_cycles"),
        ] {
            if let Some(v) = self.hist(kind).percentile(p) {
                out.push((label.into(), v as f64));
            }
        }
        for (e, label) in [
            (Event::BackoffEscalate, "backoff_escalations"),
            (Event::SpinAcquire, "spin_acquires"),
            (Event::TtlSweep, "ttl_sweeps"),
            (Event::TtlExpired, "ttl_expired"),
            (Event::MigrationBatch, "migration_batches"),
            (Event::MigrationMoved, "migration_moved"),
            (Event::GraceBatchFree, "grace_batches"),
            (Event::PrefetchIssued, "prefetch_issued"),
            (Event::ReadRepair, "read_repairs"),
            (Event::BatchRewalk, "batch_rewalks"),
        ] {
            if self.get(e) > 0 {
                out.push((label.into(), self.get(e) as f64));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_indices_are_exclusive_and_recycled() {
        let mine = thread_index().expect("live thread has an index");
        let other = std::thread::spawn(thread_index).join().unwrap().unwrap();
        assert_ne!(mine, other, "live threads never share an index");
        // The exited thread's index is claimable again.
        let third = std::thread::spawn(thread_index).join().unwrap().unwrap();
        assert_ne!(mine, third);
    }

    #[test]
    fn bucket_of_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn hist_percentiles_from_known_buckets() {
        let mut h = HistSnapshot::default();
        // 90 values in [2,4), 10 values in [1024,2048).
        h.buckets[1] = 90;
        h.buckets[10] = 10;
        h.sum = 90 * 2 + 10 * 1024;
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(0.50), Some(3), "median in bucket 1");
        assert_eq!(h.percentile(0.99), Some(2047), "tail in bucket 10");
        assert_eq!(h.percentile(0.0), Some(3), "floor clamps to rank 1");
        assert!((h.mean() - (90.0 * 2.0 + 10.0 * 1024.0) / 100.0).abs() < 1e-9);
        assert_eq!(HistSnapshot::default().percentile(0.5), None);
    }

    #[test]
    fn metrics_of_empty_snapshot_is_empty() {
        assert!(Snapshot::default().metrics(1000).is_empty());
        assert!(Snapshot::default().is_empty());
    }

    #[test]
    fn metrics_derive_rates_and_percentiles() {
        let mut s = Snapshot::default();
        s.counts[Event::ValidationFail as usize] = 50;
        s.counts[Event::LockAcquire as usize] = 1000;
        s.counts[Event::MagazineHit as usize] = 99;
        s.counts[Event::MagazineMiss as usize] = 1;
        s.counts[Event::MigrationBatch as usize] = 3;
        s.hists[HistKind::RetryLoop as usize].buckets[5] = 10;
        let m = s.metrics(1000);
        let get = |k: &str| m.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert_eq!(get("validation_fail_per_op"), Some(0.05));
        assert_eq!(get("lock_acquires_per_op"), Some(1.0));
        assert_eq!(get("magazine_hit_rate"), Some(0.99));
        assert_eq!(get("migration_batches"), Some(3.0));
        assert_eq!(get("retry_p99_cycles"), Some(63.0));
        assert_eq!(get("ttl_sweeps"), None, "zero counters stay out");
    }

    #[test]
    fn delta_isolates_a_window() {
        let mut a = Snapshot::default();
        let mut b = Snapshot::default();
        a.counts[0] = 5;
        b.counts[0] = 12;
        b.hists[0].buckets[3] = 7;
        b.hists[0].sum = 70;
        let d = b.delta_since(&a);
        assert_eq!(d.counts[0], 7);
        assert_eq!(d.hists[0].buckets[3], 7);
        assert_eq!(d.hists[0].sum, 70);
    }

    #[cfg(feature = "probe")]
    #[test]
    fn enabled_hooks_land_in_the_ledger() {
        // One sequential test for all global-state behavior (counters are
        // process-wide; deltas keep it robust against sibling tests).
        let before = Snapshot::take();
        count(Event::TtlSweep);
        count_n(Event::TtlExpired, 4);
        record(HistKind::ValidationWindow, 100);
        lock_acquired();
        lock_released();
        // Another thread's events aggregate into the same snapshot.
        std::thread::spawn(|| count(Event::TtlSweep))
            .join()
            .unwrap();
        let d = Snapshot::take().delta_since(&before);
        assert_eq!(d.get(Event::TtlSweep), 2);
        assert_eq!(d.get(Event::TtlExpired), 4);
        assert_eq!(d.get(Event::LockAcquire), 1);
        assert_eq!(d.hist(HistKind::ValidationWindow).count(), 1);
        assert_eq!(d.hist(HistKind::LockHold).count(), 1);
        for (what, lhs, rhs) in d.conservation() {
            assert_eq!(lhs, rhs, "conservation violated: {what}");
        }
        assert!(!d.metrics(10).is_empty());
    }

    #[cfg(not(feature = "probe"))]
    #[test]
    fn disabled_hooks_are_noops() {
        assert!(!enabled());
        let before = Snapshot::take();
        count(Event::ValidationFail);
        count_n(Event::MigrationMoved, 99);
        record(HistKind::RetryLoop, 12345);
        lock_acquired();
        lock_released();
        assert_eq!(now(), 0, "disabled timestamp is a constant");
        let after = Snapshot::take();
        assert_eq!(after, before);
        assert!(after.is_empty());
        assert!(after.metrics(1).is_empty());
    }
}
