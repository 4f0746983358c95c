//! The sharded store: per-shard OPTIK version locks over a pluggable
//! [`ConcurrentMap`] backend, routed by a pluggable [`ShardPolicy`].

use std::sync::atomic::Ordering;
use std::sync::Arc;

// Shard op counters (and, via `ttl`, the sweep cursor) are inputs to the
// rebalancer's validation-point logic, so they use the schedulable shim
// atomics: raw in normal builds, explorer yield points under
// `--cfg optik_explore`.
use synchro::shim::{AtomicU64, AtomicUsize};

use optik::{OptikLock, OptikVersioned};
use synchro::{Backoff, CachePadded, PubList};

use optik_harness::api::{ConcurrentMap, Key, OrderedMap, Val};

use crate::policy::{home_shard, HashPolicy, RangePolicy, ShardPolicy};
use crate::ttl::{Clock, TtlState};

/// Optimistic attempts per shard before a cross-shard read operation
/// (multi-get, scan, range scan) falls back to taking the shard lock(s).
pub(crate) const OPTIMISTIC_ATTEMPTS: usize = 8;

/// Probes handed to one [`ConcurrentMap::get_each`] call: the batched
/// paths route their keys into a stack array of this many `(map, key)`
/// pairs, so a batch of any length allocates nothing for its lookups.
const PROBE_CHUNK: usize = 16;

/// Per-call scratch for [`KvStore::multi_get`]'s shard grouping: the
/// routed probes, the distinct-shard set, and the per-shard versions.
/// Allocated once per call and reused across optimistic attempts and
/// the lock fallback — the grouped read path does no per-attempt
/// allocation.
///
/// Two planning modes share this scratch. Hash-routed stores keep the
/// probes in arrival order and only deduplicate the shard set (an
/// epoch-stamped seen array — no sort at all: one OPTIK window per
/// involved shard is the property that matters, and a hashed backend
/// scatters keys regardless of probe order). Contiguous-partition
/// stores additionally counting-sort the probes by shard and key-sort
/// within each shard so ordered backends are walked front-to-back — and
/// so that each shard's probes are one span, which is what a repair
/// round re-probes.
struct ProbePlan {
    /// `(shard, key, input index)` in shard-then-key order (grouped
    /// mode; unused in flat mode).
    probes: Vec<(usize, Key, u32)>,
    /// Routed shard per input key, parallel to `keys` (flat mode; the
    /// whole plan is this 4-byte-per-key array plus the shard set).
    flat: Vec<u32>,
    /// Counting-sort input (grouped mode only), arrival order.
    routed: Vec<(usize, Key, u32)>,
    /// Last epoch each shard was seen (flat mode) / scatter cursors
    /// (grouped mode).
    stamp: Vec<u64>,
    /// Bumped per plan; `stamp[s] == epoch` means shard `s` is involved
    /// (saves re-zeroing `stamp` on every attempt).
    epoch: u64,
    /// Distinct involved shards; with `spans`, the probe range of each.
    shards_hit: Vec<usize>,
    /// `(start, end)` probe range per involved shard (grouped mode;
    /// empty in flat mode, where probes are taken in arrival order).
    spans: Vec<(usize, usize)>,
    /// Shard versions, parallel to `shards_hit`.
    versions: Vec<optik::Version>,
    /// Whether each shard's window failed the last validation pass,
    /// parallel to `shards_hit` (see `KvStore::repair_windows`).
    broken: Vec<bool>,
}

impl ProbePlan {
    const fn empty() -> Self {
        ProbePlan {
            probes: Vec::new(),
            flat: Vec::new(),
            routed: Vec::new(),
            stamp: Vec::new(),
            epoch: 0,
            shards_hit: Vec::new(),
            spans: Vec::new(),
            versions: Vec::new(),
            broken: Vec::new(),
        }
    }
}

thread_local! {
    /// Per-thread [`ProbePlan`] reused by every [`KvStore::multi_get`]
    /// call on this thread (stores may share it — the epoch stamps keep
    /// shard sets from bleeding between calls). Steady-state planning
    /// allocates nothing; only the result vector is fresh per call.
    static PROBE_PLAN: std::cell::RefCell<ProbePlan> =
        const { std::cell::RefCell::new(ProbePlan::empty()) };
}

/// Contention level (a [`Backoff`] cap value) at which an adaptive writer
/// stops spinning on `try_lock_version` and publishes its op for a
/// combiner instead. 64 is four escalations above `Backoff`'s initial
/// cap: a writer whose last few acquisitions went cleanly never gets
/// there (the fast path costs nothing extra), while a thread hammering a
/// hot shard crosses it within one storm — or arrives already past it
/// via the per-thread EWMA that [`Backoff::adaptive`] seeds from.
const ENGAGE_LEVEL: u32 = 64;

/// When the flat-combining write path engages on a (statically routed)
/// store. See the `write_combining` docs for the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CombineMode {
    /// Never combine: every write is a plain OPTIK critical section
    /// (the pre-combining code path, kept for A/B baselines).
    Off,
    /// The default: writers take the plain `try_lock_version` fast path
    /// and publish for a combiner only once their per-thread contention
    /// EWMA crosses `ENGAGE_LEVEL` (64) — uncontended shards pay nothing.
    #[default]
    Adaptive,
    /// Every write publishes and a combiner applies it, even uncontended.
    /// A coverage knob: deterministic tests (schedule exploration,
    /// linearizability rounds) use it to drive the publication protocol
    /// without having to manufacture an EWMA storm first.
    Eager,
}

/// A published write request: what a combiner needs to apply the op on
/// the publisher's behalf. `Copy` on purpose — ops are small enough that
/// handing the slot a bitwise copy beats any shared-ownership scheme.
#[derive(Clone, Copy)]
pub(crate) enum CombineOp {
    /// [`KvStore::put`]: upsert, response is the previous live value.
    Put { key: Key, val: Val },
    /// [`KvStore::remove`]: response is the removed live value.
    Remove { key: Key },
    /// [`KvStore::multi_put`] whose keys all route to one shard: the
    /// combiner applies the entries in order and writes each previous
    /// value through `prevs`; the slot response itself is `None`.
    PutBatch {
        /// The caller's `&[(Key, Val)]`, as a raw view.
        entries: *const (Key, Val),
        /// Length of both buffers.
        len: usize,
        /// The caller's pre-sized `Vec<Option<Val>>`, as a raw view.
        prevs: *mut Option<Val>,
    },
}

// SAFETY: the raw views in `PutBatch` point into the publishing thread's
// frame, which blocks in its poll loop until the op is answered — the
// buffers outlive every dereference, and the combiner is the only thread
// touching them while the op is published (the publisher reads `prevs`
// only after the DONE hand-off, which is a release/acquire edge).
unsafe impl Send for CombineOp {}

/// Files the duration of a retry-laden optimistic read loop (first attempt
/// to resolution) into the probe's retry histogram. Callers invoke it only
/// when at least one round failed revalidation, so clean first-try reads
/// never pollute the distribution.
#[inline]
fn record_retry_loop(t0: u64) {
    optik_probe::record(
        optik_probe::HistKind::RetryLoop,
        optik_probe::elapsed(t0, optik_probe::now()),
    );
}

pub(crate) struct Shard<B> {
    /// Guards every *write* to `map` (single-key and batched) and arbitrates
    /// read-side validation: multi-gets and scans read optimistically and
    /// validate against this version, OPTIK style, instead of locking.
    /// On TTL stores the same version covers the companion `deadlines`
    /// table, so a validated read can never pair a fresh value with a
    /// stale deadline.
    ///
    /// On its own lines: every writer CASes this word twice, and the
    /// `map`/`deadlines` headers below are what every lock-free `get`
    /// dereferences — they must stay in readers' caches across writes.
    pub(crate) lock: CachePadded<OptikVersioned>,
    pub(crate) map: B,
    /// Companion deadline table (`key → absolute expiry tick`), present
    /// exactly when the store was built with a clock. Same backend type
    /// as `map`: deadline reads are lock-free backend lookups.
    pub(crate) deadlines: Option<B>,
    /// Per-shard op counter feeding the rebalancer's load heuristics.
    /// Only maintained under dynamic routing policies — hash stores never
    /// rebalance, so their hot paths skip the counter.
    ///
    /// All accesses are `Relaxed`, which is sound because the counter is
    /// advisory: no other memory is published through it, each RMW is
    /// still atomic (no lost increments), and its only reader
    /// (`rebalance_round` via [`KvStore::shard_loads`]) treats the values
    /// as a heuristic sample — a reordered or stale read can at worst
    /// pick a different shard to split, never corrupt data.
    ///
    /// Padded onto its own line: under dynamic routing this counter is
    /// RMW'd by *readers* too (`get_dynamic`), and sharing a line with
    /// the lock word would have every counted read invalidate the
    /// validators' cached copy of the version — exactly the ping-pong
    /// the OPTIK read path exists to avoid.
    pub(crate) ops: CachePadded<AtomicU64>,
    /// Flat-combining publication list for this shard's write path: one
    /// cache-padded request slot per registry thread, drained in one
    /// critical section by whichever writer holds the lock. Only used
    /// when the store's [`CombineMode`] engages (statically routed
    /// stores, contention past [`ENGAGE_LEVEL`]); the plain write path
    /// never touches it beyond one `pending()` head read.
    pub(crate) combine: PubList<CombineOp, Option<Val>>,
}

impl<B> Shard<B> {
    /// The lock word shares no 128-byte block with the backend headers.
    const LAYOUT: () = {
        let lock = std::mem::offset_of!(Self, lock) / 128;
        assert!(std::mem::offset_of!(Self, map) / 128 != lock);
        assert!(std::mem::offset_of!(Self, deadlines) / 128 != lock);
    };
}

impl<B: ConcurrentMap> Shard<B> {
    /// Debug check in front of the single-writer backend calls
    /// ([`ConcurrentMap::put_exclusive`] / `remove_exclusive`), which are
    /// sound only while this shard's lock excludes every other writer of
    /// `map` and `deadlines`. Compiled out under the explorer, where
    /// reading the lock word would add a yield point to every write.
    #[inline]
    pub(crate) fn debug_assert_locked(&self) {
        debug_assert!(cfg!(optik_explore) || self.lock.is_locked());
    }

    /// Under the shard lock: the full upsert sequence shared by `put`
    /// and `multi_put` — normalize an expired previous binding, upsert,
    /// and clear any deadline (a plain put lives forever). Returns the
    /// previous live value.
    pub(crate) fn put_live(&self, key: Key, val: Val, now: Option<u64>) -> Option<Val> {
        if let Some(now) = now {
            self.drop_expired(key, now);
        }
        self.debug_assert_locked();
        // SAFETY: shard lock held — every writer of `map` and `deadlines`
        // takes it first.
        unsafe {
            let prev = self.map.put_exclusive(key, val);
            if prev.is_some() {
                if let Some(dl) = &self.deadlines {
                    dl.remove_exclusive(key);
                }
            }
            prev
        }
    }

    /// Under the shard lock: physically drops `key` if its deadline has
    /// passed, making room for the caller to act on a normalized shard.
    /// Returns whether the maps were modified.
    pub(crate) fn drop_expired(&self, key: Key, now: u64) -> bool {
        let Some(dl) = &self.deadlines else {
            return false;
        };
        if dl.get(key).is_some_and(|d| d <= now) {
            self.debug_assert_locked();
            // SAFETY: shard lock held.
            unsafe {
                self.map.remove_exclusive(key);
                dl.remove_exclusive(key);
            }
            true
        } else {
            false
        }
    }

    /// Under the shard lock: the full removal sequence shared by
    /// `remove`, `multi_remove` and the combiner — normalize an expired
    /// binding, remove, clear the deadline. Returns `(removed live value,
    /// modified)`.
    pub(crate) fn remove_live(&self, key: Key, now: Option<u64>) -> (Option<Val>, bool) {
        let dropped = now.is_some_and(|now| self.drop_expired(key, now));
        self.debug_assert_locked();
        // SAFETY: shard lock held.
        let prev = unsafe {
            let prev = self.map.remove_exclusive(key);
            if prev.is_some() {
                if let Some(dl) = &self.deadlines {
                    dl.remove_exclusive(key);
                }
            }
            prev
        };
        (prev, dropped || prev.is_some())
    }

    /// Under the shard lock: applies one published op, returning its
    /// slot response and whether the maps were modified. Pure dispatch
    /// over the same `put_live`/`remove_live` building blocks the plain
    /// write path uses, so combined and un-combined writes are
    /// observably identical.
    pub(crate) fn apply_op(&self, op: CombineOp, now: Option<u64>) -> (Option<Val>, bool) {
        match op {
            CombineOp::Put { key, val } => (self.put_live(key, val, now), true),
            CombineOp::Remove { key } => self.remove_live(key, now),
            CombineOp::PutBatch {
                entries,
                len,
                prevs,
            } => {
                // SAFETY: see `CombineOp`'s `Send` impl — the publisher
                // keeps both buffers alive and untouched until this op
                // is answered, and this combiner is the sole accessor.
                let entries = unsafe { core::slice::from_raw_parts(entries, len) };
                let prevs = unsafe { core::slice::from_raw_parts_mut(prevs, len) };
                for (slot, &(k, v)) in prevs.iter_mut().zip(entries) {
                    *slot = self.put_live(k, v, now);
                }
                (None, len > 0)
            }
        }
    }
}

/// A sharded key–value store over a pluggable [`ConcurrentMap`] backend.
///
/// Keys route to one of N shards through a [`ShardPolicy`] (Fibonacci
/// hashing by default, contiguous key partitions under
/// [`KvStore::with_ordered_shards`]); each shard pairs a backend map with
/// an OPTIK version lock:
///
/// - [`KvStore::get`] goes straight to the backend, lock-free — the
///   backends are linearizable maps on their own. Under a *dynamic*
///   routing policy (rebalanceable partitions) the lookup additionally
///   validates the routing version, retrying if a migration raced it;
///   on TTL stores it validates the shard version around the
///   (value, deadline) pair and treats a passed deadline as a miss;
/// - [`KvStore::put`] / [`KvStore::remove`] run under their shard's lock
///   (re-checking the route once locked, so a migration cannot strand a
///   write in a shard that no longer owns the key) — the only lock they
///   take: the backend is written through its single-writer entry points
///   ([`ConcurrentMap::put_exclusive`]) — so shard versions count
///   completed writes. A `remove` that cannot change anything (static
///   routing, no TTL, key absent) returns without locking;
/// - batched operations ([`KvStore::multi_put`], [`KvStore::multi_remove`])
///   acquire every involved shard lock **in ascending shard order** —
///   the classic total-order claim that makes overlapping batches
///   deadlock-free — and apply the whole batch atomically; over
///   key-ordered shards they walk their keys *before* locking, so the
///   cache misses of the batch are taken outside its critical section;
/// - [`KvStore::multi_get`] and [`KvStore::scan`] are optimistic: read the
///   routing and shard versions, read the data, validate — retrying (and
///   eventually falling back to sorted locking) on interference. A
///   `multi_get` over key-ordered shards looks its keys up as one
///   batched [`ConcurrentMap::get_each`] and, when a shard moved under
///   it, reads only that shard again.
///   Traversal safety under concurrent removal comes from the workspace's
///   QSBR domain (`reclaim`): scanning threads are registered
///   participants and do not announce quiescence mid-scan, so retired
///   entries stay readable.
///
/// The store itself implements [`ConcurrentMap`], so a `KvStore` can be
/// nested, benchmarked, and linearizability-checked exactly like the
/// backends it composes. TTL, sweeping, and rebalancing live in the
/// sibling modules (`ttl`, `rebalance`).
pub struct KvStore<B> {
    pub(crate) shards: Box<[CachePadded<Shard<B>>]>,
    pub(crate) policy: Box<dyn ShardPolicy>,
    /// Cached `policy.is_dynamic()`: read on every operation, so it
    /// lives as a plain field instead of a virtual call.
    pub(crate) dynamic: bool,
    /// When the flat-combining write path engages (see [`CombineMode`]).
    /// Only consulted on statically routed stores: dynamic routing needs
    /// the under-lock route re-check of `write_shard`, which a combiner
    /// applying someone else's op cannot replay per-publisher.
    pub(crate) combine_mode: CombineMode,
    pub(crate) ttl: Option<TtlState>,
}

impl<B: ConcurrentMap> KvStore<B> {
    /// Creates a hash-sharded store with `shards` shards, building each
    /// backend with `make(shard_index)`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards(shards: usize, make: impl FnMut(usize) -> B) -> Self {
        Self::build(Box::new(HashPolicy::new(shards)), None, make)
    }

    /// [`KvStore::with_shards`] with native TTL support: entries gain
    /// per-key expiry deadlines against `clock` (see the `ttl` module).
    /// `make` is called **twice** per shard — once for the data map, once
    /// for the same-type deadline table.
    pub fn with_shards_ttl(
        shards: usize,
        clock: Arc<dyn Clock>,
        make: impl FnMut(usize) -> B,
    ) -> Self {
        Self::build(Box::new(HashPolicy::new(shards)), Some(clock), make)
    }

    /// Creates a store routed by an arbitrary [`ShardPolicy`] (the
    /// named constructors cover the common hash / contiguous cases).
    ///
    /// # Panics
    ///
    /// Panics if the policy routes over zero shards.
    pub fn with_policy(policy: Box<dyn ShardPolicy>, make: impl FnMut(usize) -> B) -> Self {
        Self::build(policy, None, make)
    }

    /// [`KvStore::with_policy`] with native TTL support.
    pub fn with_policy_ttl(
        policy: Box<dyn ShardPolicy>,
        clock: Arc<dyn Clock>,
        make: impl FnMut(usize) -> B,
    ) -> Self {
        Self::build(policy, Some(clock), make)
    }

    pub(crate) fn build(
        policy: Box<dyn ShardPolicy>,
        clock: Option<Arc<dyn Clock>>,
        mut make: impl FnMut(usize) -> B,
    ) -> Self {
        let shards = policy.num_shards();
        assert!(shards > 0, "need at least one shard");
        let dynamic = policy.is_dynamic();
        let () = Shard::<B>::LAYOUT;
        Self {
            shards: (0..shards)
                .map(|i| {
                    CachePadded::new(Shard {
                        lock: CachePadded::new(OptikVersioned::new()),
                        map: make(i),
                        deadlines: clock.is_some().then(|| make(i)),
                        ops: CachePadded::new(AtomicU64::new(0)),
                        combine: PubList::new(),
                    })
                })
                .collect(),
            policy,
            dynamic,
            combine_mode: CombineMode::default(),
            ttl: clock.map(|clock| TtlState {
                clock,
                cursor: AtomicUsize::new(0),
            }),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The store's flat-combining engagement mode (see [`CombineMode`]).
    pub fn combine_mode(&self) -> CombineMode {
        self.combine_mode
    }

    /// Sets the flat-combining engagement mode. Takes `&mut self` — mode
    /// changes are a construction-time decision, not something to flip
    /// under live traffic.
    pub fn set_combine_mode(&mut self, mode: CombineMode) {
        self.combine_mode = mode;
    }

    /// Builder-style [`KvStore::set_combine_mode`].
    pub fn with_combine_mode(mut self, mode: CombineMode) -> Self {
        self.combine_mode = mode;
        self
    }

    /// Whether single-key writes go through the combining path: requires
    /// a static routing policy (see the `combine_mode` field docs) and a
    /// mode other than [`CombineMode::Off`].
    #[inline]
    fn combinable(&self) -> bool {
        !self.dynamic && self.combine_mode != CombineMode::Off
    }

    /// Shard index for `key`, as the routing table currently stands.
    #[inline]
    pub fn shard_of(&self, key: Key) -> usize {
        self.policy.route(key)
    }

    /// The backend map of shard `i` (read-only introspection — e.g.
    /// capacity reporting; going around the store's locks for *writes*
    /// voids every consistency claim above: the store's own writes use the
    /// backend's single-writer entry points and rely on the shard lock as
    /// the only writer exclusion).
    pub fn backend(&self, i: usize) -> &B {
        &self.shards[i].map
    }

    /// Per-shard op counters (maintained under dynamic routing policies;
    /// all-zero for hash stores), feeding the rebalancer's heuristics.
    pub fn shard_loads(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.ops.load(Ordering::Relaxed))
            .collect()
    }

    /// The partition table's downcast, when range-sharded.
    pub(crate) fn range_policy(&self) -> Option<&RangePolicy> {
        self.policy.as_range()
    }

    /// The current tick, when TTL-enabled.
    #[inline]
    pub(crate) fn now_opt(&self) -> Option<u64> {
        self.ttl.as_ref().map(|t| t.clock.now())
    }

    /// Drops entries of `buf` whose deadline (in `shard`'s companion
    /// table) has passed. Call inside the same validated section that
    /// collected `buf`, so value and deadline belong to one version.
    fn filter_expired(&self, shard: &Shard<B>, buf: &mut Vec<(Key, Val)>, now: Option<u64>) {
        let (Some(now), Some(dl)) = (now, &shard.deadlines) else {
            return;
        };
        buf.retain(|&(k, _)| !dl.get(k).is_some_and(|d| d <= now));
    }

    /// One locked single-key critical section with route re-validation:
    /// locks the key's shard, re-checks the route (a concurrent boundary
    /// migration may have moved the key while we waited on the lock) and
    /// retries on a stale route, then runs `f`. `f` returns `(result,
    /// modified)`; unmodified critical sections release with `revert` so
    /// optimistic readers see no false conflicts.
    ///
    /// The TTL clock is sampled **under the lock**, so `f`'s expiry
    /// decisions coincide with the write's linearization point. Sampling
    /// before acquisition is observably wrong: a writer stalled between
    /// sample and lock acts on a stale `now`, and can e.g. report an
    /// already-expired previous binding as live after a reader has
    /// published the expiry — a real-time cycle the schedule explorer
    /// finds in a few hundred interleavings (`tests/explore_kv.rs`).
    pub(crate) fn write_shard<R>(
        &self,
        key: Key,
        mut f: impl FnMut(&Shard<B>, Option<u64>) -> (R, bool),
    ) -> R {
        let dynamic = self.dynamic;
        loop {
            let s = self.policy.route(key);
            let shard = &self.shards[s];
            shard.lock.lock();
            if dynamic {
                if self.policy.route(key) != s {
                    shard.lock.revert();
                    continue;
                }
                shard.ops.fetch_add(1, Ordering::Relaxed);
            }
            let (out, modified) = f(shard, self.now_opt());
            if modified {
                shard.lock.unlock();
            } else {
                shard.lock.revert();
            }
            return out;
        }
    }

    /// The contention-adaptive combining write path (statically routed
    /// stores; see [`CombineMode`]).
    ///
    /// Fast path: one plain OPTIK `try_lock_version` attempt. Success
    /// means the shard is uncontended — apply directly (draining any
    /// stragglers another writer published) and decay this thread's
    /// contention EWMA. The uncontended cost over the pre-combining
    /// path is one publication-list head read.
    ///
    /// Contended: spin with [`Backoff::adaptive`] retrying the CAS, and
    /// once the backoff cap (in-loop or carried over from this thread's
    /// recent history) crosses [`ENGAGE_LEVEL`], stop fighting for the
    /// lock line and publish the op for whichever writer wins it next.
    /// [`CombineMode::Eager`] skips straight to publication.
    fn write_combining(&self, s: usize, op: CombineOp) -> Option<Val> {
        let shard = &self.shards[s];
        if self.combine_mode == CombineMode::Eager {
            return self.publish_and_wait(s, op);
        }
        let v = shard.lock.get_version();
        if !OptikVersioned::is_locked_version(v) && shard.lock.try_lock_version(v) {
            let out = self.apply_and_release(shard, op);
            synchro::backoff::note_calm();
            return out;
        }
        let mut bo = Backoff::adaptive();
        loop {
            if bo.level() >= ENGAGE_LEVEL || synchro::backoff::contention_level() >= ENGAGE_LEVEL {
                return self.publish_and_wait(s, op);
            }
            bo.backoff();
            let v = shard.lock.get_version();
            if !OptikVersioned::is_locked_version(v) && shard.lock.try_lock_version(v) {
                return self.apply_and_release(shard, op);
            }
        }
    }

    /// Holding `shard`'s lock: applies `op`, drains any publications
    /// that piled up behind the lock, and releases — `unlock` (one
    /// version bump for the *whole* batch) if anything was modified,
    /// `revert` otherwise, so optimistic readers see a combined batch
    /// exactly as they would one plain write.
    fn apply_and_release(&self, shard: &Shard<B>, op: CombineOp) -> Option<Val> {
        let now = self.now_opt();
        let (out, mut modified) = shard.apply_op(op, now);
        if shard.combine.pending() {
            modified |= self.drain_published(shard, now);
        }
        if modified {
            shard.lock.unlock();
        } else {
            shard.lock.revert();
        }
        out
    }

    /// Holding `shard`'s lock: the combiner role. Drains the publication
    /// list, applying each op at the clock tick `now` (one tick for the
    /// whole batch — the batch linearizes as a single step, matching the
    /// single version bump the caller releases with). Returns whether
    /// the maps were modified.
    fn drain_published(&self, shard: &Shard<B>, now: Option<u64>) -> bool {
        let me = optik_probe::thread_index();
        let mut modified = false;
        let n = shard.combine.drain(|slot, op| {
            optik_probe::count(if Some(slot) == me {
                optik_probe::Event::CombineSelfServe
            } else {
                optik_probe::Event::CombineApplied
            });
            let (out, m) = shard.apply_op(op, now);
            modified |= m;
            out
        });
        if n > 0 {
            optik_probe::count(optik_probe::Event::CombineBatch);
            optik_probe::record(optik_probe::HistKind::CombineBatch, n);
        }
        modified
    }

    /// Publishes `op` into shard `s`'s list and waits for a combiner to
    /// answer it — becoming the combiner itself if it wins the lock
    /// first (the timeout path: no publication can be stranded, because
    /// every waiter doubles as a candidate combiner). Threads contest
    /// the combiner role on their *home* shard every round and on other
    /// shards every second round, so steady hot-shard load converges on
    /// one drainer whose cache already owns the shard (see
    /// [`home_shard`]).
    fn publish_and_wait(&self, s: usize, op: CombineOp) -> Option<Val> {
        let shard = &self.shards[s];
        let Some(idx) = shard.combine.publish(op) else {
            // No registry slot (TLS teardown): plain blocking write.
            shard.lock.lock();
            return self.apply_and_release(shard, op);
        };
        optik_probe::count(optik_probe::Event::CombinePublished);
        let home =
            optik_probe::thread_index().is_some_and(|t| home_shard(t, self.shards.len()) == s);
        let mut round = 0u32;
        loop {
            if let Some(resp) = shard.combine.poll(idx) {
                return resp;
            }
            if home || round % 2 == 0 {
                let v = shard.lock.get_version();
                if !OptikVersioned::is_locked_version(v) && shard.lock.try_lock_version(v) {
                    if round == 0 {
                        // Won the lock on the very first attempt after
                        // publishing: the storm that triggered engagement
                        // has passed, so decay the EWMA — otherwise a
                        // stale streak seed keeps this thread publishing
                        // (and paying the protocol) on a calm shard.
                        synchro::backoff::note_calm();
                    }
                    let now = self.now_opt();
                    let modified = self.drain_published(shard, now);
                    if modified {
                        shard.lock.unlock();
                    } else {
                        shard.lock.revert();
                    }
                    // Our publication was in the chain we just drained
                    // or in one an earlier combiner detached; either
                    // way it is answered by the time a drain completes.
                    return shard
                        .combine
                        .poll(idx)
                        .expect("a completed drain answers every earlier publication");
                }
            }
            round = round.wrapping_add(1);
            synchro::relax();
        }
    }

    /// Looks up `key`. Lock-free: delegates to the backend; TTL stores
    /// validate the (value, deadline) pair against the shard version and
    /// report expired entries as misses; dynamically-routed stores
    /// validate the routing version and retry across migrations.
    #[inline]
    pub fn get(&self, key: Key) -> Option<Val> {
        if self.dynamic {
            self.get_dynamic(key)
        } else {
            self.read_entry(&self.shards[self.policy.route(key)], key)
        }
    }

    /// Validated single-shard lookup (see [`KvStore::get`]). Plain
    /// stores read the backend directly; TTL stores run the read-side
    /// OPTIK pattern over the (value, deadline) pair.
    ///
    /// The clock is sampled **inside** the validated section: the
    /// (value, deadline) pair is stable across `[version read,
    /// validate]`, so pairing it with a clock tick from the same window
    /// makes the sample instant the read's linearization point. A sample
    /// taken before the window can pair a fresh pair with a stale `now`
    /// across a retry and resurrect an expiry another reader already
    /// observed.
    fn read_entry(&self, shard: &Shard<B>, key: Key) -> Option<Val> {
        let Some(dl) = &shard.deadlines else {
            return shard.map.get(key);
        };
        let mut bo = Backoff::adaptive();
        let t0 = optik_probe::now();
        let mut retried = false;
        for _ in 0..OPTIMISTIC_ATTEMPTS {
            let v = shard.lock.get_version_wait();
            let val = shard.map.get(key);
            let deadline = dl.get(key);
            let now = self.now_opt().expect("deadline table implies a clock");
            if shard.lock.validate(v) {
                if retried {
                    record_retry_loop(t0);
                }
                return val.filter(|_| !deadline.is_some_and(|d| d <= now));
            }
            optik_probe::count(optik_probe::Event::ReadRetry);
            retried = true;
            bo.backoff();
        }
        shard.lock.lock();
        let val = shard.map.get(key);
        let deadline = dl.get(key);
        let now = self.now_opt().expect("deadline table implies a clock");
        shard.lock.revert(); // read-only critical section
        record_retry_loop(t0);
        val.filter(|_| !deadline.is_some_and(|d| d <= now))
    }

    /// [`KvStore::get`] under a dynamic routing policy: optimistic
    /// route-read-validate, with a shard-lock fallback whose route
    /// re-check pins the key (a migration needs that shard's lock).
    fn get_dynamic(&self, key: Key) -> Option<Val> {
        self.shards[self.policy.route(key)]
            .ops
            .fetch_add(1, Ordering::Relaxed);
        let mut bo = Backoff::adaptive();
        let t0 = optik_probe::now();
        let mut retried = false;
        for _ in 0..OPTIMISTIC_ATTEMPTS {
            let rv = self.policy.version();
            let out = self.read_entry(&self.shards[self.policy.route(key)], key);
            if self.policy.validate(rv) {
                if retried {
                    record_retry_loop(t0);
                }
                return out;
            }
            optik_probe::count(optik_probe::Event::ReadRetry);
            retried = true;
            bo.backoff();
        }
        record_retry_loop(t0);
        loop {
            let s = self.policy.route(key);
            let shard = &self.shards[s];
            shard.lock.lock();
            if self.policy.route(key) != s {
                shard.lock.revert();
                continue;
            }
            let val = shard.map.get(key);
            let deadline = shard.deadlines.as_ref().and_then(|dl| dl.get(key));
            let now = self.now_opt();
            shard.lock.revert(); // read-only critical section
            return val.filter(|_| !now.is_some_and(|now| deadline.is_some_and(|d| d <= now)));
        }
    }

    /// Inserts or atomically updates `key → val` under the shard lock,
    /// returning the previous **live** value. On TTL stores an expired
    /// previous binding reports `None` (and is physically dropped), and a
    /// plain put clears any deadline — the fresh binding lives forever.
    pub fn put(&self, key: Key, val: Val) -> Option<Val> {
        if self.combinable() {
            return self.write_combining(self.policy.route(key), CombineOp::Put { key, val });
        }
        self.write_shard(key, |shard, now| (shard.put_live(key, val, now), true))
    }

    /// Removes `key`, returning its **live** value (an expired binding
    /// reports `None` and is physically dropped).
    ///
    /// OPTIK-shaped: on a statically routed store without TTL the
    /// operation first looks the key up lock-free, and a miss — the
    /// infeasible update — returns `None` without reading or writing the
    /// shard lock and without publishing to the combiner. It linearizes
    /// where the backend read does, exactly like a [`KvStore::get`] miss
    /// (so, like a get, it may fall inside a `multi_put`'s application).
    /// A hit goes on to the locked path, which finds the key again under
    /// the lock. TTL stores always lock (an expired binding still has to
    /// be dropped), and so do dynamically routed ones (the route is only
    /// stable under the lock).
    ///
    /// A locked miss releases with `revert`: the critical section
    /// modified nothing, so optimistic readers must not see a version
    /// bump.
    pub fn remove(&self, key: Key) -> Option<Val> {
        if !self.dynamic {
            let s = self.policy.route(key);
            if self.ttl.is_none() && self.shards[s].map.get(key).is_none() {
                return None;
            }
            if self.combine_mode != CombineMode::Off {
                return self.write_combining(s, CombineOp::Remove { key });
            }
        }
        self.write_shard(key, |shard, now| shard.remove_live(key, now))
    }

    /// Involved shard indices, ascending and deduplicated — the canonical
    /// acquisition order for every batched operation.
    fn shard_ids(&self, keys: impl Iterator<Item = Key>) -> Vec<usize> {
        let mut ids: Vec<usize> = keys.map(|k| self.policy.route(k)).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Raw per-key lookup used inside already-validated batched reads.
    fn read_raw(&self, key: Key, now: Option<u64>) -> Option<Val> {
        let shard = &self.shards[self.policy.route(key)];
        let val = shard.map.get(key);
        match (now, &shard.deadlines) {
            (Some(now), Some(dl)) => val.filter(|_| !dl.get(key).is_some_and(|d| d <= now)),
            _ => val,
        }
    }

    /// Routes every key once and plans the batch: the distinct shard
    /// set (one OPTIK window each) plus the probe order. Hash-routed
    /// stores get the flat plan — probes stay in arrival order, because
    /// a hashed backend scatters keys whatever order they arrive in,
    /// and any sort is pure overhead (a comparison sort here measured
    /// ~25% of end-to-end multi-get throughput at batch 16).
    /// Contiguous-partition stores get the grouped plan — a stable
    /// `O(keys + shards)` counting sort clusters probes by shard and
    /// key-sorts each span, so ordered backends are walked
    /// front-to-back (adjacent probes re-walk the warm front of the
    /// same traversal path instead of restarting cold). The within-span
    /// key sorts run on tiny slices where `sort_unstable` is
    /// insertion-class.
    fn group_probes(&self, keys: &[Key], plan: &mut ProbePlan) {
        let n = keys.len();
        let ns = self.shards.len();
        let ProbePlan {
            probes,
            flat,
            routed,
            stamp,
            epoch,
            shards_hit,
            spans,
            ..
        } = plan;
        if stamp.len() < ns {
            stamp.resize(ns, 0);
        }
        shards_hit.clear();
        spans.clear();
        probes.clear();
        flat.clear();
        if !self.policy.key_ordered_shards() {
            // Flat mode: probes run in arrival order, so the plan is
            // just the routed shard per key; the epoch-stamped seen
            // array collects the distinct shard set in the same pass.
            *epoch += 1;
            let e = *epoch;
            flat.extend(keys.iter().map(|&k| {
                let s = self.policy.route(k);
                if stamp[s] != e {
                    stamp[s] = e;
                    shards_hit.push(s);
                }
                s as u32
            }));
            return;
        }
        // Grouped mode: one routing pass builds the tuples and the shard
        // occupancy (`stamp` doubles as the counting-sort cursor array);
        // prefix sums yield the spans, a scatter pass orders the probes
        // by shard, and each span is key-sorted so the ordered backend
        // is walked front-to-back.
        routed.clear();
        for c in stamp[..ns].iter_mut() {
            *c = 0;
        }
        routed.extend(keys.iter().enumerate().map(|(i, &k)| {
            let s = self.policy.route(k);
            stamp[s] += 1;
            (s, k, i as u32)
        }));
        let mut acc = 0usize;
        for (s, c) in stamp[..ns].iter_mut().enumerate() {
            let cnt = *c as usize;
            if cnt > 0 {
                shards_hit.push(s);
                spans.push((acc, acc + cnt));
            }
            *c = acc as u64;
            acc += cnt;
        }
        probes.resize(n, (0, 0, 0));
        for &p in routed.iter() {
            let dst = &mut stamp[p.0];
            probes[*dst as usize] = p;
            *dst += 1;
        }
        // The cursor values are small and could collide with a future
        // epoch — re-zero so a later flat-mode plan through the same
        // scratch can trust its stamps.
        for c in stamp[..ns].iter_mut() {
            *c = 0;
        }
        for &(a, b) in spans.iter() {
            probes[a..b].sort_unstable_by_key(|&(_, k, _)| k);
        }
    }

    /// Looks every `(map, key)` of `probes` up through
    /// [`ConcurrentMap::get_each`], [`PROBE_CHUNK`] at a time from a stack
    /// array, and hands `sink` each probe's position and result.
    fn get_each_chunked<'a>(
        probes: impl Iterator<Item = (&'a B, Key)>,
        mut sink: impl FnMut(usize, Option<Val>),
    ) where
        B: 'a,
    {
        let mut probes = probes.peekable();
        let mut base = 0;
        while let Some(&first) = probes.peek() {
            let mut routed = [first; PROBE_CHUNK];
            let mut n = 0;
            for (slot, probe) in routed.iter_mut().zip(&mut probes) {
                *slot = probe;
                n += 1;
            }
            let mut vals = [None; PROBE_CHUNK];
            B::get_each(&routed[..n], &mut vals[..n]);
            for (i, &val) in vals[..n].iter().enumerate() {
                sink(base + i, val);
            }
            base += n;
        }
    }

    /// Probes a run of the grouped plan (already under validated windows
    /// or the shard locks) as one batched lookup, scattering results back
    /// to input order. The run may cross shards: that is what puts the
    /// lanes of an interleaving backend to work. TTL stores send the
    /// `deadlines` tables through the same call.
    fn probe_span(&self, probes: &[(usize, Key, u32)], now: Option<u64>, out: &mut [Option<Val>]) {
        Self::get_each_chunked(
            probes.iter().map(|&(s, k, _)| (&self.shards[s].map, k)),
            |p, val| out[probes[p].2 as usize] = val,
        );
        if let Some(now) = now {
            let deadlines = |s: usize| {
                self.shards[s]
                    .deadlines
                    .as_ref()
                    .expect("a clock implies deadline tables")
            };
            Self::get_each_chunked(probes.iter().map(|&(s, k, _)| (deadlines(s), k)), |p, d| {
                if d.is_some_and(|d| d <= now) {
                    out[probes[p].2 as usize] = None;
                }
            });
        }
    }

    /// Runs every planned probe against its pre-routed shard (already
    /// under validated windows or the shard locks): flat arrival order
    /// when the plan is flat, shard-clustered otherwise.
    fn probe_plan(
        &self,
        keys: &[Key],
        plan: &ProbePlan,
        now: Option<u64>,
        out: &mut [Option<Val>],
    ) {
        if !plan.flat.is_empty() {
            if now.is_none() {
                // No TTL: the zipped loop is bounds-check-free and
                // writes `out` sequentially.
                for ((&k, &s), slot) in keys.iter().zip(&plan.flat).zip(out.iter_mut()) {
                    *slot = self.shards[s as usize].map.get(k);
                }
            } else {
                for ((&k, &s), slot) in keys.iter().zip(&plan.flat).zip(out.iter_mut()) {
                    let shard = &self.shards[s as usize];
                    let val = shard.map.get(k);
                    *slot = match (now, &shard.deadlines) {
                        (Some(now), Some(dl)) => {
                            val.filter(|_| !dl.get(k).is_some_and(|d| d <= now))
                        }
                        _ => val,
                    };
                }
            }
        } else {
            self.probe_span(&plan.probes, now, out);
        }
    }

    /// One repair round of [`KvStore::multi_get`] on a grouped plan: for
    /// every shard whose window broke, re-reads the shard's version and
    /// re-probes **that shard's span only**; the values of the other
    /// shards were read inside windows that still hold and are therefore
    /// still current. A TTL store treats every window as broken: its one
    /// clock sample has to sit inside all of them, so it is taken again
    /// after all the versions.
    fn repair_windows(&self, plan: &mut ProbePlan, now: &mut Option<u64>, out: &mut [Option<Val>]) {
        let ProbePlan {
            probes,
            shards_hit,
            spans,
            versions,
            broken,
            ..
        } = plan;
        let ttl = self.ttl.is_some();
        broken.clear();
        for (&s, v) in shards_hit.iter().zip(versions.iter_mut()) {
            let lock = &self.shards[s].lock;
            let b = ttl || !lock.validate(*v);
            if b {
                *v = lock.get_version_wait();
                optik_probe::count(optik_probe::Event::ReadRepair);
            }
            broken.push(b);
        }
        if ttl {
            *now = self.now_opt();
        }
        // Spans tile `probes` in shard order, so a run of broken shards is
        // one contiguous run of probes: one batched lookup per run.
        let mut j = 0;
        while j < broken.len() {
            if !broken[j] {
                j += 1;
                continue;
            }
            let start = spans[j].0;
            while j < broken.len() && broken[j] {
                j += 1;
            }
            self.probe_span(&probes[start..spans[j - 1].1], *now, out);
        }
    }

    /// Atomically reads every key: the returned values coexisted at one
    /// linearization point, even across shards.
    ///
    /// Locality-aware and optimistic (no locks) in the common case: keys
    /// are routed once, one shard version is read per *involved shard*,
    /// the probes run (on contiguous-partition stores clustered by shard,
    /// key-sorted and handed to the backend as **one batched lookup**,
    /// [`ConcurrentMap::get_each`], so that a pointer-chasing backend
    /// overlaps the cache misses of different keys; in arrival order on
    /// hash-routed stores; see `group_probes`), and every shard's window
    /// is validated after the last read.
    ///
    /// **Repair rounds** (contiguous-partition stores). When some windows
    /// broke, the values read in the windows that still hold are still
    /// current, so only the broken shards are read again: their versions
    /// are re-read, their spans re-probed, and then *all* shards are
    /// validated again — up to eight rounds inside one routing-version
    /// window, before the whole read is retried. The argument for one
    /// linearization point is the snapshot object's: in the pass that
    /// succeeds, every shard's values were read inside that shard's own
    /// last `[version read, validate]` window, and all of that pass's
    /// validations follow all probes of all rounds; so the instant just
    /// before its first validation lies inside every shard's window, and
    /// at that instant every returned value is the shard's current one.
    /// It is *not* the case that every version is read before the first
    /// value read — a repaired shard's version is read after other
    /// shards' values — and it does not need to be: a window only has to
    /// enclose its own shard's reads and reach the common instant. A TTL
    /// store compares every deadline with **one** clock sample, which has
    /// to lie inside all windows: there a broken window breaks them all
    /// (all versions re-read, the clock sampled again, everything
    /// re-probed — the full retry, through the same loop). A moved route
    /// invalidates the plan rather than a window and retries in full.
    ///
    /// After eight failed full rounds the read degrades to locking the
    /// involved shards in ascending order (read-only, released with
    /// `revert`) and probing the same plan under the locks, re-validating
    /// the shard set against racing migrations.
    ///
    /// Planning scratch lives in a thread-local (`PROBE_PLAN`) and the
    /// batched lookups go through a stack array, so a steady-state call
    /// allocates only the result vector.
    pub fn multi_get(&self, keys: &[Key]) -> Vec<Option<Val>> {
        if keys.is_empty() {
            return Vec::new();
        }
        PROBE_PLAN.with(|cell| {
            let mut plan = cell.borrow_mut();
            self.multi_get_planned(keys, &mut plan)
        })
    }

    fn multi_get_planned(&self, keys: &[Key], plan: &mut ProbePlan) -> Vec<Option<Val>> {
        let dynamic = self.dynamic;
        let mut bo = Backoff::adaptive();
        let t0 = optik_probe::now();
        let mut retried = false;
        let mut out = vec![None; keys.len()];
        // Static routing cannot move a key between shards, so the
        // grouping survives any number of attempts; dynamic routing is
        // re-grouped per attempt under the `policy.version()` guard.
        if !dynamic {
            self.group_probes(keys, plan);
        }
        for _ in 0..OPTIMISTIC_ATTEMPTS {
            let rv = self.policy.version();
            if dynamic {
                self.group_probes(keys, plan);
            }
            plan.versions.clear();
            plan.versions.extend(
                plan.shards_hit
                    .iter()
                    .map(|&s| self.shards[s].lock.get_version_wait()),
            );
            // Clock sample inside the validated window (see
            // `read_entry`): all (value, deadline) pairs are stable
            // until `validate`, so the batch linearizes at this tick.
            let mut now = self.now_opt();
            self.probe_plan(keys, plan, now, &mut out);
            // Validate; while it is only shard windows that break, read
            // those shards again in place (`multi_get`'s docs argue why
            // the result still has one linearization point).
            let mut repairs = 0;
            loop {
                let routed = self.policy.validate(rv);
                if routed
                    && plan
                        .shards_hit
                        .iter()
                        .zip(&plan.versions)
                        .all(|(&s, &v)| self.shards[s].lock.validate(v))
                {
                    if dynamic {
                        for &s in &plan.shards_hit {
                            self.shards[s].ops.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    if retried {
                        record_retry_loop(t0);
                    }
                    return out;
                }
                // A moved route invalidates the plan itself, and a flat
                // plan has no spans to re-probe: both retry in full.
                if !routed || plan.spans.is_empty() || repairs == OPTIMISTIC_ATTEMPTS {
                    break;
                }
                repairs += 1;
                retried = true;
                self.repair_windows(plan, &mut now, &mut out);
            }
            optik_probe::count(optik_probe::Event::ReadRetry);
            retried = true;
            bo.backoff();
        }
        record_retry_loop(t0);
        // Contended fallback: sorted acquisition, guaranteed progress
        // (lock_batch revalidates the shard set against racing
        // migrations and maintains the load counters). Routing is frozen
        // under the locks, so the groups rebuilt here stay accurate.
        let ids = self.lock_batch(&|| self.shard_ids(keys.iter().copied()));
        self.group_probes(keys, plan);
        let now = self.now_opt();
        self.probe_plan(keys, plan, now, &mut out);
        for &i in ids.iter().rev() {
            self.shards[i].lock.revert();
        }
        out
    }

    /// The pre-grouping [`KvStore::multi_get`]: re-routes every key on
    /// every probe and validates the involved shard set collected by
    /// `KvStore::shard_ids`. Same results and the same atomicity
    /// guarantee — kept as the A-side of the `kv.multiget.*` interleaved
    /// benchmark twins, so the grouped path's gain stays measurable.
    pub fn multi_get_per_key(&self, keys: &[Key]) -> Vec<Option<Val>> {
        let dynamic = self.dynamic;
        let mut bo = Backoff::adaptive();
        let t0 = optik_probe::now();
        let mut retried = false;
        for _ in 0..OPTIMISTIC_ATTEMPTS {
            let rv = self.policy.version();
            let ids = self.shard_ids(keys.iter().copied());
            let versions: Vec<optik::Version> = ids
                .iter()
                .map(|&i| self.shards[i].lock.get_version_wait())
                .collect();
            let now = self.now_opt();
            let out: Vec<Option<Val>> = keys.iter().map(|&k| self.read_raw(k, now)).collect();
            if self.policy.validate(rv)
                && ids
                    .iter()
                    .zip(&versions)
                    .all(|(&i, &v)| self.shards[i].lock.validate(v))
            {
                if dynamic {
                    for &i in &ids {
                        self.shards[i].ops.fetch_add(1, Ordering::Relaxed);
                    }
                }
                if retried {
                    record_retry_loop(t0);
                }
                return out;
            }
            optik_probe::count(optik_probe::Event::ReadRetry);
            retried = true;
            bo.backoff();
        }
        record_retry_loop(t0);
        let ids = self.lock_batch(&|| self.shard_ids(keys.iter().copied()));
        let now = self.now_opt();
        let out = keys.iter().map(|&k| self.read_raw(k, now)).collect();
        for &i in ids.iter().rev() {
            self.shards[i].lock.revert();
        }
        out
    }

    /// Locks every shard of `ids` ascending, re-validating the shard set
    /// for `keys` under dynamic routing. Returns the stable shard set.
    fn lock_batch(&self, keys_of: &dyn Fn() -> Vec<usize>) -> Vec<usize> {
        let dynamic = self.dynamic;
        loop {
            let ids = keys_of();
            for &i in &ids {
                self.shards[i].lock.lock();
            }
            if dynamic && keys_of() != ids {
                for &i in ids.iter().rev() {
                    self.shards[i].lock.revert();
                }
                continue;
            }
            if dynamic {
                for &i in &ids {
                    self.shards[i].ops.fetch_add(1, Ordering::Relaxed);
                }
            }
            return ids;
        }
    }

    /// The batch writers' pre-lock walk (key-ordered stores only): looks
    /// every key of the batch up, overlapped, and throws the results away.
    /// The lookups pull the nodes the locked applies are about to traverse
    /// into this core's cache **before** the shard locks are taken — the
    /// paper's traversal outside the critical section, applied to a batch
    /// — so the applies, which find every key again, miss less while
    /// readers and writers of up to all shards wait. Only a hint: routes
    /// are unvalidated and nothing read here is used, so whatever races
    /// the walk (a write, a boundary migration) costs a cold descent
    /// under the lock and nothing else.
    fn warm_batch(&self, keys: impl Iterator<Item = Key>) {
        if self.policy.key_ordered_shards() {
            Self::get_each_chunked(
                keys.map(|k| (&self.shards[self.policy.route(k)].map, k)),
                |_, val| {
                    std::hint::black_box(val);
                },
            );
        }
    }

    /// Atomically applies every `(key, val)` upsert, returning the
    /// previous **live** value per entry. Entries with duplicate keys
    /// apply in order (the later previous-value observes the earlier
    /// entry). On TTL stores each touched key's deadline is cleared,
    /// exactly as for [`KvStore::put`].
    ///
    /// All involved shard locks are acquired in ascending shard order
    /// before the first write and released (in reverse) after the last, so
    /// concurrent batches over overlapping shard sets cannot deadlock and
    /// no *validated* reader ([`KvStore::multi_get`], [`KvStore::scan`])
    /// sees a partially applied batch. Lock-free single-key gets do not
    /// validate shard versions and may observe a batch mid-application —
    /// per-key atomicity is the most a single-key read can claim.
    ///
    /// On a contiguous-partition store the batch's keys are first looked
    /// up, overlapped and **before any lock is taken** (`warm_batch`): the
    /// descents, where the cache misses are, happen outside the critical
    /// section, and the locked applies — unchanged, each finding its key
    /// again — run over warm lines, so everything that waits on up to all
    /// of the store's shard locks waits for less. The walk promises
    /// nothing: its routes and results are unvalidated and unused, it
    /// takes part in no linearization argument, and a write or a boundary
    /// migration between walk and lock costs a cold descent under the
    /// lock, never a wrong answer. The caller pays for it with a slightly
    /// longer call of its own.
    pub fn multi_put(&self, entries: &[(Key, Val)]) -> Vec<Option<Val>> {
        // Hot-batch fast path: a batch whose keys all route to one shard
        // (the common shape under key affinity) publishes as a single
        // combinable op — one slot, one lock hold, one version bump —
        // instead of paying the sorted lock_batch machinery.
        if self.combinable() && !entries.is_empty() {
            let s = self.policy.route(entries[0].0);
            if entries.iter().all(|&(k, _)| self.policy.route(k) == s) {
                let mut prevs: Vec<Option<Val>> = vec![None; entries.len()];
                let resp = self.write_combining(
                    s,
                    CombineOp::PutBatch {
                        entries: entries.as_ptr(),
                        len: entries.len(),
                        prevs: prevs.as_mut_ptr(),
                    },
                );
                debug_assert!(resp.is_none(), "batch results travel via `prevs`");
                return prevs;
            }
        }
        self.warm_batch(entries.iter().map(|&(k, _)| k));
        self.multi_put_locked(entries)
    }

    /// [`KvStore::multi_put`] past its single-shard fast path and its
    /// walk: sorted acquisition, the applies, release. Out of line on
    /// purpose: sharing a function with the walk's call site changed how
    /// the apply loop is laid out, and a batch put on a hash store — which
    /// never walks — measured 72 → 79 ns per key (`kv.multi_put8`).
    #[inline(never)]
    fn multi_put_locked(&self, entries: &[(Key, Val)]) -> Vec<Option<Val>> {
        let ids = self.lock_batch(&|| self.shard_ids(entries.iter().map(|&(k, _)| k)));
        let now = self.now_opt();
        let out = entries
            .iter()
            .map(|&(k, v)| self.shards[self.policy.route(k)].put_live(k, v, now))
            .collect();
        for &i in ids.iter().rev() {
            self.shards[i].lock.unlock();
        }
        out
    }

    /// Atomically removes every key, returning the removed **live** value
    /// per key (expired bindings report `None` and are dropped). Shards
    /// whose maps end up unmodified release with `revert`. Like
    /// [`KvStore::multi_put`], a contiguous-partition store walks the keys
    /// before it locks — present or not: the walk is a hint and does not
    /// look at what it finds.
    pub fn multi_remove(&self, keys: &[Key]) -> Vec<Option<Val>> {
        self.warm_batch(keys.iter().copied());
        let ids = self.lock_batch(&|| self.shard_ids(keys.iter().copied()));
        let now = self.now_opt();
        let mut modified = vec![false; ids.len()];
        let out: Vec<Option<Val>> = keys
            .iter()
            .map(|&k| {
                let s = self.policy.route(k);
                let slot = ids.binary_search(&s).expect("shard id collected above");
                let (removed, m) = self.shards[s].remove_live(k, now);
                modified[slot] |= m;
                removed
            })
            .collect();
        for (&i, &m) in ids.iter().zip(&modified).rev() {
            if m {
                self.shards[i].lock.unlock();
            } else {
                self.shards[i].lock.revert();
            }
        }
        out
    }

    /// One shard's entries as a version-consistent snapshot: optimistic
    /// collect-and-validate, falling back to the shard lock. TTL stores
    /// filter expired entries inside the validated section.
    fn shard_snapshot(&self, i: usize, buf: &mut Vec<(Key, Val)>) {
        let shard = &self.shards[i];
        let mut bo = Backoff::adaptive();
        for _ in 0..OPTIMISTIC_ATTEMPTS {
            buf.clear();
            let v = shard.lock.get_version_wait();
            shard.map.for_each(&mut |k, val| buf.push((k, val)));
            // Clock sample inside the validated window (see
            // `read_entry`): the snapshot linearizes at this tick.
            self.filter_expired(shard, buf, self.now_opt());
            if shard.lock.validate(v) {
                return;
            }
            bo.backoff();
        }
        buf.clear();
        shard.lock.lock();
        shard.map.for_each(&mut |k, val| buf.push((k, val)));
        self.filter_expired(shard, buf, self.now_opt());
        shard.lock.revert(); // read-only critical section
    }

    /// Streams every entry, shard by shard. Each shard's entries form a
    /// consistent snapshot (no torn writes, no half-applied batches within
    /// the shard); the store-wide view is per-shard sequential, like a
    /// QSBR-epoch scan — shards visited earlier may have mutated by the
    /// time later shards are read. Under a dynamic routing policy the
    /// whole walk additionally validates the routing version (so a
    /// concurrent boundary migration cannot show a moving key twice or
    /// not at all), falling back to locking every shard.
    pub fn scan(&self, mut f: impl FnMut(Key, Val)) {
        let mut buf = Vec::new();
        if !self.dynamic {
            for i in 0..self.shards.len() {
                self.shard_snapshot(i, &mut buf);
                for &(k, v) in &buf {
                    f(k, v);
                }
            }
            return;
        }
        let mut all: Vec<(Key, Val)> = Vec::new();
        let mut bo = Backoff::adaptive();
        for _ in 0..OPTIMISTIC_ATTEMPTS {
            all.clear();
            let rv = self.policy.version();
            for i in 0..self.shards.len() {
                self.shard_snapshot(i, &mut buf);
                all.append(&mut buf);
            }
            if self.policy.validate(rv) {
                for &(k, v) in &all {
                    f(k, v);
                }
                return;
            }
            bo.backoff();
        }
        // Migration storm: lock every shard (ascending — the same total
        // order as every other batch path, and the rebalancer's own
        // acquisition order, so no deadlock) and collect exactly.
        let now = self.now_opt();
        all.clear();
        for s in self.shards.iter() {
            s.lock.lock();
        }
        for s in self.shards.iter() {
            buf.clear();
            s.map.for_each(&mut |k, val| buf.push((k, val)));
            self.filter_expired(s, &mut buf, now);
            all.append(&mut buf);
        }
        for s in self.shards.iter().rev() {
            s.lock.revert();
        }
        for &(k, v) in &all {
            f(k, v);
        }
    }

    /// Collects [`KvStore::scan`] into a key-sorted vector.
    pub fn snapshot(&self) -> Vec<(Key, Val)> {
        let mut out = Vec::new();
        self.scan(|k, v| out.push((k, v)));
        out.sort_unstable();
        out
    }

    /// Total entries across shards (O(n); exact only in quiescence; on
    /// TTL stores this counts *physical* entries, including expired ones
    /// the sweeper has not reclaimed yet).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.map.len()).sum()
    }

    /// Whether the store is empty (see [`KvStore::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// The store is itself a `ConcurrentMap`: composable (shards of shards) and
// enrolled in the registry-driven correctness tiers like any backend.
impl<B: ConcurrentMap> ConcurrentMap for KvStore<B> {
    fn get(&self, key: Key) -> Option<Val> {
        KvStore::get(self, key)
    }
    fn put(&self, key: Key, val: Val) -> Option<Val> {
        KvStore::put(self, key, val)
    }
    fn remove(&self, key: Key) -> Option<Val> {
        KvStore::remove(self, key)
    }
    fn len(&self) -> usize {
        KvStore::len(self)
    }
    fn for_each(&self, f: &mut dyn FnMut(Key, Val)) {
        // Raw backend sweep (quiescence-consistent, per the trait
        // contract); `scan` is the validated variant. TTL stores still
        // hide logically-expired entries — raw deadline reads suffice
        // for a sweep that never promised a consistent point in time.
        let now = self.now_opt();
        for s in self.shards.iter() {
            match (now, &s.deadlines) {
                (Some(now), Some(dl)) => s.map.for_each(&mut |k, v| {
                    if !dl.get(k).is_some_and(|d| d <= now) {
                        f(k, v);
                    }
                }),
                _ => s.map.for_each(f),
            }
        }
    }
}

impl<B: OrderedMap> KvStore<B> {
    /// Creates an **ordered-sharded** store: `shards` contiguous key
    /// partitions covering `[1, max_key]` (keys above `max_key` fall into
    /// the last shard), each backed by `make(shard_index)`.
    ///
    /// Range scans on an ordered-sharded store touch only the shards the
    /// window intersects and concatenate their (already sorted) partition
    /// scans without a merge step. Point operations work exactly as under
    /// hash sharding — only the key→shard map differs — but load balance
    /// now follows the key distribution: the online rebalancer
    /// ([`KvStore::rebalance_round`], [`KvStore::shift_boundary`]) exists
    /// to move partition boundaries when it does not.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `max_key` is zero.
    pub fn with_ordered_shards(shards: usize, max_key: Key, make: impl FnMut(usize) -> B) -> Self {
        Self::build(
            Box::new(RangePolicy::contiguous(shards, max_key)),
            None,
            make,
        )
    }

    /// [`KvStore::with_ordered_shards`] with native TTL support (see
    /// [`KvStore::with_shards_ttl`] for the `make` contract).
    pub fn with_ordered_shards_ttl(
        shards: usize,
        max_key: Key,
        clock: Arc<dyn Clock>,
        make: impl FnMut(usize) -> B,
    ) -> Self {
        Self::build(
            Box::new(RangePolicy::contiguous(shards, max_key)),
            Some(clock),
            make,
        )
    }

    /// One shard's `[lo, hi]` window as a version-consistent snapshot:
    /// optimistic collect-and-validate, falling back to the shard lock
    /// (under which the backend's range pass is exact — writers are
    /// excluded, so the backend traversal sees a quiescent structure).
    fn shard_range(&self, i: usize, lo: Key, hi: Key, buf: &mut Vec<(Key, Val)>) {
        let shard = &self.shards[i];
        let mut bo = Backoff::adaptive();
        for _ in 0..OPTIMISTIC_ATTEMPTS {
            buf.clear();
            let t0 = optik_probe::now();
            let v = shard.lock.get_version_wait();
            shard.map.range(lo, hi, &mut |k, val| buf.push((k, val)));
            // Clock sample inside the validated window (see
            // `read_entry`): the window scan linearizes at this tick.
            self.filter_expired(shard, buf, self.now_opt());
            if shard.lock.validate(v) {
                optik_probe::record(
                    optik_probe::HistKind::ValidationWindow,
                    optik_probe::elapsed(t0, optik_probe::now()),
                );
                return;
            }
            optik_probe::count(optik_probe::Event::ReadRetry);
            bo.backoff();
        }
        buf.clear();
        shard.lock.lock();
        shard.map.range(lo, hi, &mut |k, val| buf.push((k, val)));
        self.filter_expired(shard, buf, self.now_opt());
        shard.lock.revert(); // read-only critical section
    }

    /// Collects every entry with key in `[lo, hi]`, sorted by key, each
    /// shard's contribution a version-consistent snapshot (the same
    /// guarantee as [`KvStore::scan`], restricted to the window).
    ///
    /// Under ordered sharding only the shards intersecting the window are
    /// visited, in key order, so the result is a concatenation — and the
    /// routing version is validated across the whole walk, so a window
    /// raced by a boundary migration retries rather than missing or
    /// double-counting migrated keys (after eight failed rounds: lock
    /// every shard, under which routing is frozen and the passes are
    /// exact). Under hash sharding every shard is visited and the result
    /// is sorted afterwards.
    pub fn range_scan(&self, lo: Key, hi: Key) -> Vec<(Key, Val)> {
        let mut out = Vec::new();
        if lo > hi {
            return out;
        }
        let mut buf = Vec::new();
        if self.policy.range_cover(lo, hi).is_none() {
            for i in 0..self.shards.len() {
                self.shard_range(i, lo, hi, &mut buf);
                out.append(&mut buf);
            }
            out.sort_unstable();
            return out;
        }
        let mut bo = Backoff::adaptive();
        for _ in 0..OPTIMISTIC_ATTEMPTS {
            out.clear();
            let rv = self.policy.version();
            let (first, last) = self
                .policy
                .range_cover(lo, hi)
                .expect("contiguous policy stays contiguous");
            for i in first..=last {
                self.shard_range(i, lo, hi, &mut buf);
                out.append(&mut buf);
            }
            if self.policy.validate(rv) {
                return out;
            }
            optik_probe::count(optik_probe::Event::ReadRetry);
            bo.backoff();
        }
        // Migration storm: lock every shard — routing is frozen and the
        // backend passes are exact.
        out.clear();
        for s in self.shards.iter() {
            s.lock.lock();
        }
        let now = self.now_opt();
        let (first, last) = self
            .policy
            .range_cover(lo, hi)
            .expect("contiguous policy stays contiguous");
        for i in first..=last {
            buf.clear();
            self.shards[i]
                .map
                .range(lo, hi, &mut |k, v| buf.push((k, v)));
            self.filter_expired(&self.shards[i], &mut buf, now);
            out.append(&mut buf);
        }
        for s in self.shards.iter().rev() {
            s.lock.revert();
        }
        out
    }
}

// An ordered-backed store is itself an `OrderedMap`: stores nest, and the
// range-observing correctness tiers drive `KvStore` and raw backends
// through one interface.
impl<B: OrderedMap> OrderedMap for KvStore<B> {
    fn range(&self, lo: Key, hi: Key, f: &mut dyn FnMut(Key, Val)) {
        for (k, v) in self.range_scan(lo, hi) {
            f(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optik_hashtables::StripedOptikHashTable;
    use optik_maps::OptikArrayMap;
    use std::sync::atomic::{AtomicI64, Ordering};
    use std::sync::Arc;

    fn striped_store(shards: usize) -> KvStore<StripedOptikHashTable> {
        KvStore::with_shards(shards, |_| StripedOptikHashTable::new(64, 8))
    }

    #[test]
    fn single_key_roundtrip() {
        let s = striped_store(4);
        assert_eq!(s.get(1), None);
        assert_eq!(s.put(1, 10), None);
        assert_eq!(s.put(1, 11), Some(10));
        assert_eq!(s.get(1), Some(11));
        assert_eq!(s.remove(1), Some(11));
        assert_eq!(s.remove(1), None);
        assert!(s.is_empty());
    }

    #[test]
    fn array_map_backend_works_too() {
        let s: KvStore<OptikArrayMap> = KvStore::with_shards(4, |_| OptikArrayMap::new(128));
        for k in 1..=100u64 {
            assert_eq!(s.put(k, k * 2), None);
        }
        assert_eq!(s.len(), 100);
        for k in 1..=100u64 {
            assert_eq!(s.get(k), Some(k * 2));
        }
    }

    #[test]
    fn keys_spread_across_shards() {
        let s = striped_store(8);
        let mut hit = vec![false; 8];
        for k in 1..=1_000u64 {
            hit[s.shard_of(k)] = true;
        }
        assert!(hit.iter().all(|&h| h), "some shard never selected: {hit:?}");
    }

    #[test]
    fn batched_ops_roundtrip_and_report_prev_values() {
        let s = striped_store(4);
        let entries: Vec<(u64, u64)> = (1..=20).map(|k| (k, k * 10)).collect();
        assert!(s.multi_put(&entries).iter().all(Option::is_none));
        let keys: Vec<u64> = (1..=20).collect();
        assert_eq!(
            s.multi_get(&keys),
            (1..=20).map(|k| Some(k * 10)).collect::<Vec<_>>()
        );
        // Overwrite half, remove the other half.
        let overwrite: Vec<(u64, u64)> = (1..=10).map(|k| (k, k * 100)).collect();
        assert_eq!(
            s.multi_put(&overwrite),
            (1..=10).map(|k| Some(k * 10)).collect::<Vec<_>>()
        );
        let gone: Vec<u64> = (11..=20).collect();
        assert_eq!(
            s.multi_remove(&gone),
            (11..=20).map(|k| Some(k * 10)).collect::<Vec<_>>()
        );
        assert_eq!(s.len(), 10);
        // Misses come back as None, in input order.
        assert_eq!(s.multi_get(&[5, 15, 7]), vec![Some(500), None, Some(700)]);
    }

    #[test]
    fn duplicate_keys_in_one_batch_apply_in_order() {
        let s = striped_store(2);
        let prev = s.multi_put(&[(1, 10), (1, 20), (1, 30)]);
        assert_eq!(prev, vec![None, Some(10), Some(20)]);
        assert_eq!(s.get(1), Some(30));
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let s = striped_store(4);
        for k in (1..=50u64).rev() {
            s.put(k, k + 1000);
        }
        let snap = s.snapshot();
        assert_eq!(snap.len(), 50);
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "sorted by key");
        assert!(snap.iter().all(|&(k, v)| v == k + 1000));
    }

    #[test]
    fn failed_remove_does_not_bump_shard_version() {
        let s = striped_store(1);
        s.put(1, 10);
        let v = s.shards[0].lock.get_version();
        assert_eq!(s.remove(999), None);
        assert_eq!(s.multi_remove(&[998, 997]), vec![None, None]);
        assert_eq!(
            s.shards[0].lock.get_version(),
            v,
            "read-only paths must not signal conflicts"
        );
        assert_eq!(s.remove(1), Some(10));
        assert_ne!(s.shards[0].lock.get_version(), v);
    }

    #[test]
    fn hash_stores_skip_the_load_counters() {
        let s = striped_store(2);
        for k in 1..=64u64 {
            s.put(k, k);
            s.get(k);
        }
        assert!(
            s.shard_loads().iter().all(|&c| c == 0),
            "static routing must not pay for rebalance accounting"
        );
    }

    #[test]
    fn concurrent_mixed_ops_keep_exact_net_count() {
        let s = Arc::new(striped_store(4));
        let net = Arc::new(AtomicI64::new(0));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = Arc::clone(&s);
            let net = Arc::clone(&net);
            handles.push(std::thread::spawn(move || {
                let mut x = t.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                for _ in 0..synchro::stress::ops(20_000) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = x % 64 + 1;
                    match x % 3 {
                        0 => {
                            if s.put(k, k * 3).is_none() {
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
                                assert_eq!(v, k * 3);
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
        assert_eq!(s.len() as i64, net.load(Ordering::Relaxed));
    }

    #[test]
    fn eager_combining_matches_plain_semantics() {
        // Every write travels the full publish → combine → poll protocol
        // (self-drained when uncontended) and must be observably
        // identical to the plain path.
        let s = striped_store(2).with_combine_mode(CombineMode::Eager);
        assert_eq!(s.put(1, 10), None);
        assert_eq!(s.put(1, 11), Some(10));
        assert_eq!(s.get(1), Some(11));
        assert_eq!(s.remove(1), Some(11));
        assert_eq!(s.remove(1), None);
        // Single-shard batch via the PutBatch fast path (1 shard ⇒ every
        // batch is single-shard), duplicate keys applying in order.
        let s1 = striped_store(1).with_combine_mode(CombineMode::Eager);
        assert_eq!(
            s1.multi_put(&[(7, 70), (7, 71), (8, 80)]),
            vec![None, Some(70), None]
        );
        assert_eq!(s1.get(7), Some(71));
        assert_eq!(s1.get(8), Some(80));
    }

    #[test]
    fn combining_failed_ops_still_release_with_revert() {
        // The combined remove-miss must preserve the no-false-conflict
        // guarantee the plain path has (`failed_remove_does_not_bump_...`).
        // On a TTL store: there a miss still takes the lock (an expired
        // binding would have to be dropped), so it still reaches the
        // combiner — without TTL it returns before publishing anything.
        use crate::ttl::FakeClock;
        let mut s: KvStore<StripedOptikHashTable> =
            KvStore::with_shards_ttl(1, Arc::new(FakeClock::new()), |_| {
                StripedOptikHashTable::new(64, 8)
            });
        s.set_combine_mode(CombineMode::Eager);
        s.put(1, 10);
        let v = s.shards[0].lock.get_version();
        assert_eq!(s.remove(999), None);
        assert_eq!(
            s.shards[0].lock.get_version(),
            v,
            "a drained batch of misses must not signal a conflict"
        );
    }

    #[test]
    fn remove_miss_leaves_every_lock_word_alone() {
        // The infeasible update leaves the shard version alone in every
        // combine mode (that it takes no lock at all is counted in
        // `tests/one_lock_per_write.rs`); a hit bumps it exactly once.
        for mode in [CombineMode::Off, CombineMode::Adaptive, CombineMode::Eager] {
            let s = striped_store(1).with_combine_mode(mode);
            s.put(1, 10);
            let v = s.shards[0].lock.get_version();
            assert_eq!(s.remove(999), None, "{mode:?}");
            assert_eq!(s.shards[0].lock.get_version(), v, "{mode:?}: miss");
            assert_eq!(s.remove(1), Some(10), "{mode:?}");
            assert_eq!(s.shards[0].lock.get_version(), v + 2, "{mode:?}: hit");
            assert_eq!(s.remove(1), None, "{mode:?}: now absent");
            assert_eq!(s.shards[0].lock.get_version(), v + 2, "{mode:?}: miss");
        }
    }

    #[test]
    fn remove_miss_still_locks_where_the_lock_decides() {
        // TTL: the expired binding is logically absent, but the remove
        // must still take the lock to drop it physically.
        use crate::ttl::FakeClock;
        let clock = Arc::new(FakeClock::new());
        let s: KvStore<StripedOptikHashTable> =
            KvStore::with_shards_ttl(1, clock.clone(), |_| StripedOptikHashTable::new(64, 8));
        s.put_with_ttl(1, 10, 5);
        clock.advance(5);
        let v = s.shards[0].lock.get_version();
        assert_eq!(s.remove(1), None, "expired is a miss");
        assert_eq!(s.len(), 0, "but the physical entry is dropped");
        assert_ne!(s.shards[0].lock.get_version(), v, "under the lock");
        // Dynamic routing: the route is only stable under the lock; a
        // miss reverts.
        let o: KvStore<OptikSkipList2> =
            KvStore::with_ordered_shards(2, 100, |_| OptikSkipList2::new());
        o.put(60, 6);
        let loads = o.shard_loads()[1];
        let v = o.shards[1].lock.get_version();
        assert_eq!(o.remove(70), None);
        assert_eq!(o.shards[1].lock.get_version(), v);
        assert_eq!(
            o.shard_loads()[1],
            loads + 1,
            "the locked write path counts the op"
        );
    }

    #[test]
    fn eager_combining_concurrent_ops_keep_exact_net_count() {
        // The concurrent-mixed-ops invariant, forced through the
        // publication protocol on a deliberately tiny shard count so
        // combiners drain real multi-op batches.
        let s = Arc::new(striped_store(1).with_combine_mode(CombineMode::Eager));
        let net = Arc::new(AtomicI64::new(0));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = Arc::clone(&s);
            let net = Arc::clone(&net);
            handles.push(std::thread::spawn(move || {
                let mut x = t.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                for _ in 0..synchro::stress::ops(20_000) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = x % 16 + 1;
                    match x % 3 {
                        0 => {
                            if s.put(k, k * 3).is_none() {
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
                                assert_eq!(v, k * 3);
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
        assert_eq!(s.len() as i64, net.load(Ordering::Relaxed));
    }

    #[test]
    fn combining_respects_ttl_expiry() {
        use crate::ttl::FakeClock;
        let clock = Arc::new(FakeClock::new());
        let mut s: KvStore<StripedOptikHashTable> =
            KvStore::with_shards_ttl(1, clock.clone(), |_| StripedOptikHashTable::new(64, 8));
        s.set_combine_mode(CombineMode::Eager);
        s.put_with_ttl(1, 10, 5);
        clock.advance(10);
        // The combined put must normalize the expired previous binding
        // exactly like the plain path: prev reports None, not Some(10).
        assert_eq!(s.put(1, 11), None);
        assert_eq!(s.get(1), Some(11));
    }

    // Concurrent batch atomicity, deadlock freedom, snapshot consistency,
    // TTL expiry under churn, and migration atomicity are exercised at
    // scale (and across shard counts and backends) by the dedicated
    // stress tier in `tests/integration_kv.rs`.

    use optik_bsts::OptikBst;
    use optik_skiplists::{HerlihyOptikSkipList, OptikSkipList2};

    #[test]
    fn ordered_sharding_partitions_contiguously() {
        let s: KvStore<OptikSkipList2> =
            KvStore::with_ordered_shards(4, 1000, |_| OptikSkipList2::new());
        assert_eq!(s.shard_of(1), 0);
        assert_eq!(s.shard_of(250), 0);
        assert_eq!(s.shard_of(251), 1);
        assert_eq!(s.shard_of(1000), 3);
        // Keys beyond max_key fall into the last shard, never out of range.
        assert_eq!(s.shard_of(u64::MAX - 1), 3);
        // Partitions are ascending: a smaller key never lands in a later
        // shard than a bigger one.
        let mut prev = 0;
        for k in 1..=1000u64 {
            let sh = s.shard_of(k);
            assert!(sh >= prev, "shard map not monotonic at {k}");
            prev = sh;
        }
    }

    #[test]
    fn range_scan_returns_sorted_window_on_both_shardings() {
        let hash: KvStore<HerlihyOptikSkipList> =
            KvStore::with_shards(4, |_| HerlihyOptikSkipList::new());
        let ordered: KvStore<HerlihyOptikSkipList> =
            KvStore::with_ordered_shards(4, 400, |_| HerlihyOptikSkipList::new());
        for s in [&hash, &ordered] {
            for k in (2..=400u64).step_by(2) {
                s.put(k, k * 10);
            }
            let win = s.range_scan(100, 200);
            let want: Vec<(u64, u64)> = (100..=200u64)
                .filter(|k| k % 2 == 0)
                .map(|k| (k, k * 10))
                .collect();
            assert_eq!(win, want);
            assert!(s.range_scan(401, 500).is_empty());
            assert!(s.range_scan(7, 7).is_empty(), "odd keys were never put");
            assert_eq!(s.range_scan(8, 8), vec![(8, 80)]);
            assert!(s.range_scan(10, 9).is_empty(), "inverted window");
        }
    }

    #[test]
    fn range_scan_works_over_bst_shards() {
        let s: KvStore<OptikBst> = KvStore::with_ordered_shards(3, 300, |_| OptikBst::new());
        for k in 1..=300u64 {
            assert_eq!(s.put(k, k + 7), None);
        }
        assert_eq!(s.put(42, 1000), Some(49), "in-place update through shard");
        let all = s.range_scan(1, 300);
        assert_eq!(all.len(), 300);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(s.range_scan(42, 42), vec![(42, 1000)]);
    }

    #[test]
    fn kv_store_is_itself_an_ordered_map() {
        // Nesting: a store of stores, ranged through the trait.
        let s: KvStore<KvStore<OptikSkipList2>> = KvStore::with_ordered_shards(2, 100, |_| {
            KvStore::with_ordered_shards(2, 100, |_| OptikSkipList2::new())
        });
        for k in [5u64, 50, 95] {
            s.put(k, k);
        }
        let got = OrderedMap::range_collect(&s, 1, 100);
        assert_eq!(got, vec![(5, 5), (50, 50), (95, 95)]);
    }

    #[test]
    fn custom_policies_plug_in() {
        // A deliberately silly policy: parity routing. The store must
        // route, batch, and scan through it like any built-in.
        struct ParityPolicy;
        impl ShardPolicy for ParityPolicy {
            fn num_shards(&self) -> usize {
                2
            }
            fn route(&self, key: Key) -> usize {
                (key % 2) as usize
            }
        }
        let s: KvStore<StripedOptikHashTable> =
            KvStore::with_policy(Box::new(ParityPolicy), |_| {
                StripedOptikHashTable::new(32, 8)
            });
        for k in 1..=40u64 {
            s.put(k, k);
        }
        assert_eq!(s.shard_of(7), 1);
        assert_eq!(s.shard_of(8), 0);
        assert_eq!(s.multi_get(&[3, 4]), vec![Some(3), Some(4)]);
        assert_eq!(s.snapshot().len(), 40);
    }
}
