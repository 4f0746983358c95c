//! The sharded store: per-shard OPTIK version locks over a pluggable
//! [`ConcurrentMap`] backend, routed by hash or by contiguous key
//! partitions (`policy.rs`).

use std::sync::Arc;

// The TTL sweep cursor is a validation point of racing sweepers, so it
// uses the schedulable shim atomic: raw in normal builds, an explorer
// yield point under `--cfg optik_explore`.
use synchro::shim::AtomicUsize;

use optik::{OptikLock, OptikVersioned};
use synchro::{Backoff, CachePadded};

use optik_harness::api::{ConcurrentMap, Key, OrderedMap, Val};

use crate::policy::{RangePolicy, Routing};
use crate::ttl::{expired, Clock, TtlState};

/// Optimistic attempts before a windowed read falls back to taking its
/// shard locks, and repair rounds inside one attempt before it starts
/// over (see `KvStore::read_windows`).
const OPTIMISTIC_ATTEMPTS: usize = 8;

/// Probes handed to one [`ConcurrentMap::get_each`] call: the batched
/// paths route their keys into a stack array of this many `(map, key)`
/// pairs, so a batch of any length allocates nothing for its lookups. A
/// batch write of up to this many keys keeps its ops on the stack too.
const PROBE_CHUNK: usize = 16;

/// One shard's `[version read, validate]` window of a validated read (see
/// `KvStore::read_windows`).
#[derive(Clone, Copy)]
struct Window {
    shard: usize,
    /// The shard version this window's reads have to sit inside.
    version: optik::Version,
    /// Whether the read's body still has to read this shard: true from
    /// planning, and again whenever a validation finds the window broken.
    stale: bool,
    /// The caller's share for this shard, in the caller's own terms: the
    /// probe run of a grouped `multi_get`, the output segment of a scan.
    span: (usize, usize),
    /// Whether a batch write changed this shard, which it then releases
    /// with `unlock` rather than `revert`.
    modified: bool,
}

impl Window {
    fn new(shard: usize) -> Self {
        Window {
            shard,
            version: 0,
            stale: true,
            span: (0, 0),
            modified: false,
        }
    }
}

/// Per-call scratch for the shard grouping of [`KvStore::multi_get`] and
/// of the batch writes (`KvStore::write_batch`): the probes counting-sorted
/// by shard and key-sorted within each shard, and one [`Window`] per
/// distinct shard whose `span` is that shard's run of probes — what a
/// repair round re-probes and what a batch write locks. Reused across
/// optimistic attempts, repair rounds and the lock fallback: planning
/// does no per-attempt allocation.
struct ProbePlan {
    /// `(shard, key, input index)` in shard-then-key order.
    probes: Vec<(usize, Key, u32)>,
    /// Counting-sort input, arrival order.
    routed: Vec<(usize, Key, u32)>,
    /// Probes per shard, then the scatter cursors.
    cursors: Vec<usize>,
    /// One window per distinct involved shard, ascending by shard.
    windows: Vec<Window>,
}

impl ProbePlan {
    const fn empty() -> Self {
        ProbePlan {
            probes: Vec::new(),
            routed: Vec::new(),
            cursors: Vec::new(),
            windows: Vec::new(),
        }
    }
}

impl AsMut<[Window]> for ProbePlan {
    fn as_mut(&mut self) -> &mut [Window] {
        &mut self.windows
    }
}

/// The shards a scan walked, and what it found in each: `windows[j].span`
/// is shard `j`'s segment of `entries` (see `KvStore::collect`).
#[derive(Default)]
struct Collected {
    windows: Vec<Window>,
    entries: Vec<(Key, Val)>,
}

impl AsMut<[Window]> for Collected {
    fn as_mut(&mut self) -> &mut [Window] {
        &mut self.windows
    }
}

thread_local! {
    /// Per-thread [`ProbePlan`] reused by every [`KvStore::multi_get`] and
    /// batch write on this thread (stores may share it: every plan starts
    /// from cleared vectors). Steady-state planning allocates nothing;
    /// only the result vector is fresh per call.
    static PROBE_PLAN: std::cell::RefCell<ProbePlan> =
        const { std::cell::RefCell::new(ProbePlan::empty()) };
}

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

    /// The binding of `key` that is live at tick `now`: the raw lookup a
    /// validated read makes inside its window (or under the shard lock).
    #[inline]
    fn live_get(&self, key: Key, now: Option<u64>) -> Option<Val> {
        let val = self.map.get(key);
        match (now, &self.deadlines) {
            (Some(now), Some(dl)) => val.filter(|_| !expired(dl.get(key), now)),
            _ => val,
        }
    }

    /// Under the shard lock: the one single-writer upsert of the shard.
    /// Binds `key → val` in `map` and gives it `deadline` as its expiry;
    /// `None` means it lives forever, so a deadline the previous binding
    /// had is cleared. Returns the previous value, expired or not.
    pub(crate) fn put_entry(&self, key: Key, val: Val, deadline: Option<u64>) -> Option<Val> {
        self.debug_assert_locked();
        // SAFETY: shard lock held — every writer of `map` and `deadlines`
        // takes it first.
        unsafe {
            let prev = self.map.put_exclusive(key, val);
            if let Some(dl) = &self.deadlines {
                match deadline {
                    Some(d) => {
                        dl.put_exclusive(key, d);
                    }
                    None if prev.is_some() => {
                        dl.remove_exclusive(key);
                    }
                    None => {}
                }
            }
            prev
        }
    }

    /// Under the shard lock: the one single-writer removal of the shard.
    /// Unbinds `key` from `map`, and from `deadlines` when it was bound.
    /// Returns the removed value, expired or not.
    pub(crate) fn remove_entry(&self, key: Key) -> Option<Val> {
        self.debug_assert_locked();
        // SAFETY: shard lock held, as for `put_entry`.
        unsafe {
            let prev = self.map.remove_exclusive(key);
            if prev.is_some() {
                if let Some(dl) = &self.deadlines {
                    dl.remove_exclusive(key);
                }
            }
            prev
        }
    }

    /// Under the shard lock: `put`'s upsert sequence — normalize an
    /// expired previous binding, upsert, and clear any deadline (a plain
    /// put lives forever). Returns the previous live value.
    pub(crate) fn put_live(&self, key: Key, val: Val, now: Option<u64>) -> Option<Val> {
        if let Some(now) = now {
            self.drop_expired(key, now);
        }
        self.put_entry(key, val, None)
    }

    /// Under the shard lock: physically drops `key` if its deadline has
    /// passed, making room for the caller to act on a normalized shard.
    /// Returns whether the maps were modified.
    pub(crate) fn drop_expired(&self, key: Key, now: u64) -> bool {
        let expired = self
            .deadlines
            .as_ref()
            .is_some_and(|dl| expired(dl.get(key), now));
        if expired {
            self.remove_entry(key);
        }
        expired
    }

    /// Under the shard lock: `remove`'s removal sequence — normalize an
    /// expired binding, remove, clear the deadline. Returns `(removed live
    /// value, modified)`.
    pub(crate) fn remove_live(&self, key: Key, now: Option<u64>) -> (Option<Val>, bool) {
        let dropped = now.is_some_and(|now| self.drop_expired(key, now));
        let prev = self.remove_entry(key);
        (prev, dropped || prev.is_some())
    }
}

/// A sharded key–value store over a pluggable [`ConcurrentMap`] backend.
///
/// Keys route to one of N shards by Fibonacci hashing (the default) or
/// by contiguous key partitions ([`KvStore::with_ordered_shards`]); each
/// shard pairs a backend map with an OPTIK version lock:
///
/// - [`KvStore::get`] goes straight to the backend, lock-free — the
///   backends are linearizable maps on their own. Under *dynamic*
///   (range) routing, whose boundaries [`KvStore::shift_boundary`] moves
///   on request, the lookup additionally validates the routing version,
///   retrying if a migration raced it;
///   on TTL stores it validates the shard version around the
///   (value, deadline) pair and treats a passed deadline as a miss;
/// - [`KvStore::put`] / [`KvStore::remove`] run under their shard's lock
///   (re-checking the route once locked, so a migration cannot strand a
///   write in a shard that no longer owns the key) and write the backend
///   through its single-writer entry points
///   ([`ConcurrentMap::put_exclusive`]) — so shard versions count
///   completed writes. Over `StripedOptikHashTable` the shard lock is then
///   the only lock a write takes; over the OPTIK skip lists a write is one
///   descent with no trylock or retry, whose only lock-word writes are the
///   level-0 predecessor's version bump and a removed node's forever-held
///   lock; other backends keep the default, their own `put`/`remove`. A
///   `remove` that cannot change anything (static routing, no TTL, key
///   absent) returns without locking;
/// - batched operations ([`KvStore::multi_put`], [`KvStore::multi_remove`])
///   acquire every involved shard lock **in ascending shard order** —
///   the classic total-order claim that makes overlapping batches
///   deadlock-free — and apply the whole batch atomically. They are
///   windowed reads validated by the lock acquisition: each lock is taken
///   with `lock_version` at the version read before the backend walked to
///   the keys ([`ConcurrentMap::write_each`]), so over OPTIK skip-list
///   shards a batch descends once, outside its critical section, and
///   descends again only in a shard written between walk and lock;
/// - every read that is more than one backend lookup — a `get` that has a
///   deadline or a route to validate, [`KvStore::multi_get`],
///   [`KvStore::range_scan`], [`KvStore::scan`] — is the same optimistic
///   loop: read the routing and shard versions, read the data, validate,
///   read only the shards that moved again, and eventually fall back to
///   sorted locking. `multi_get` and `range_scan` put all their shards
///   into one such read and return a snapshot; `scan` takes one per shard
///   and is per-shard-consistent. A `multi_get` groups its keys by shard
///   and looks them up as one batched [`ConcurrentMap::get_each`].
///   Traversal safety under concurrent removal comes from the workspace's
///   QSBR domain (`reclaim`): scanning threads are registered
///   participants and do not announce quiescence mid-scan, so retired
///   entries stay readable.
///
/// The store itself implements [`ConcurrentMap`], so a `KvStore` can be
/// nested, benchmarked, and linearizability-checked exactly like the
/// backends it composes. TTL and sweeping live in the sibling module
/// `ttl`, boundary migration in `rebalance`.
pub struct KvStore<B> {
    pub(crate) shards: Box<[CachePadded<Shard<B>>]>,
    pub(crate) routing: Routing,
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
        Self::build(Routing::Hash { shards }, None, make)
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
        Self::build(Routing::Hash { shards }, Some(clock), make)
    }

    fn build(
        routing: Routing,
        clock: Option<Arc<dyn Clock>>,
        mut make: impl FnMut(usize) -> B,
    ) -> Self {
        let shards = routing.num_shards();
        assert!(shards > 0, "need at least one shard");
        let () = Shard::<B>::LAYOUT;
        Self {
            shards: (0..shards)
                .map(|i| {
                    CachePadded::new(Shard {
                        lock: CachePadded::new(OptikVersioned::new()),
                        map: make(i),
                        deadlines: clock.is_some().then(|| make(i)),
                    })
                })
                .collect(),
            routing,
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

    /// Shard index for `key`, as the routing table currently stands.
    #[inline]
    pub fn shard_of(&self, key: Key) -> usize {
        self.routing.route(key)
    }

    /// The backend map of shard `i` (read-only introspection — e.g.
    /// capacity reporting; going around the store's locks for *writes*
    /// voids every consistency claim above: the store's own writes use the
    /// backend's single-writer entry points and rely on the shard lock as
    /// the only writer exclusion).
    pub fn backend(&self, i: usize) -> &B {
        &self.shards[i].map
    }

    /// The current tick, when TTL-enabled.
    #[inline]
    pub(crate) fn now_opt(&self) -> Option<u64> {
        self.ttl.as_ref().map(|t| t.clock.now())
    }

    /// Drops the entries of `buf[from..]` whose deadline (in `shard`'s
    /// companion table) has passed. Call inside the same validated section
    /// that collected them, so value and deadline belong to one version —
    /// and after the walk that collected them has returned: a backend
    /// lookup announces quiescence, which a traversal in flight must not.
    fn filter_expired(
        &self,
        shard: &Shard<B>,
        buf: &mut Vec<(Key, Val)>,
        from: usize,
        now: Option<u64>,
    ) {
        let (Some(now), Some(dl)) = (now, &shard.deadlines) else {
            return;
        };
        let mut seen = 0;
        buf.retain(|&(k, _)| {
            seen += 1;
            seen <= from || !expired(dl.get(k), now)
        });
    }

    /// The store's one locked single-key critical section: locks the key's
    /// shard, runs `f`, and releases. `f` returns `(result, modified)`;
    /// unmodified critical sections release with `revert` so optimistic
    /// readers see no false conflicts.
    ///
    /// How the lock is taken follows the routing (DESIGN.md, "Hot
    /// shards", has the measurements behind both choices):
    ///
    /// - **Static routing** takes it the paper's way: one
    ///   `try_lock_version` attempt, and on a clean win [`note_calm`]
    ///   decays this thread's contention EWMA; a lost attempt retries
    ///   under [`Backoff::adaptive`], so a thread in a hot-shard storm
    ///   backs off at the level its recent loops ended at instead of
    ///   re-climbing from the floor, and stays off the lock line while
    ///   the holder works.
    /// - **Dynamic routing** calls `lock()`, then re-checks the route (a
    ///   concurrent boundary migration may have moved the key while we
    ///   waited) and retries on a stale one. Migrations and batches hold
    ///   these locks for long stretches, and a writer backing off behind
    ///   one wakes late.
    ///
    /// The TTL clock is sampled **under the lock**, so `f`'s expiry
    /// decisions coincide with the write's linearization point. Sampling
    /// before acquisition is observably wrong: a writer stalled between
    /// sample and lock acts on a stale `now`, and can e.g. report an
    /// already-expired previous binding as live after a reader has
    /// published the expiry — a real-time cycle the schedule explorer
    /// finds in a few hundred interleavings (`tests/explore_kv.rs`).
    ///
    /// [`note_calm`]: synchro::backoff::note_calm
    pub(crate) fn write_shard<R>(
        &self,
        key: Key,
        f: impl FnOnce(&Shard<B>, Option<u64>) -> (R, bool),
    ) -> R {
        let shard = match &self.routing {
            Routing::Range(rp) => loop {
                let s = rp.route(key);
                let shard = &self.shards[s];
                shard.lock.lock();
                if rp.route(key) == s {
                    break shard;
                }
                shard.lock.revert();
            },
            Routing::Hash { .. } => {
                let shard = &self.shards[self.routing.route(key)];
                let v = shard.lock.get_version();
                if !OptikVersioned::is_locked_version(v) && shard.lock.try_lock_version(v) {
                    synchro::backoff::note_calm();
                } else {
                    let mut bo = Backoff::adaptive();
                    loop {
                        bo.backoff();
                        let v = shard.lock.get_version();
                        if !OptikVersioned::is_locked_version(v) && shard.lock.try_lock_version(v) {
                            break;
                        }
                    }
                }
                shard
            }
        };
        let (out, modified) = f(shard, self.now_opt());
        if modified {
            shard.lock.unlock();
        } else {
            shard.lock.revert();
        }
        out
    }

    /// The store's one validated read. Every read that is more than a
    /// single backend lookup is this loop and differs only in its shard
    /// set (`plan`) and in what it reads there (`body`); DESIGN.md, "One
    /// windowed read", argues why the result has one linearization point.
    ///
    /// An attempt reads the routing version and lets `plan` fill `read`'s
    /// windows, one per involved shard, each born stale. A round then
    /// opens every stale window (`get_version_wait`), samples the clock,
    /// runs `body` over the stale windows, and validates the route and
    /// **every** window. All intact: done. Only shard windows broken: they
    /// alone are stale now and the next round *repairs* them — the reads
    /// of the windows that held are still current. On a TTL store a broken
    /// window re-opens them all, because the one clock sample has to sit
    /// inside every window. A moved route voids the plan, a set of one
    /// window has no intact read to keep, and [`OPTIMISTIC_ATTEMPTS`]
    /// repairs are enough: each of these backs off and starts the next
    /// attempt. After `OPTIMISTIC_ATTEMPTS` attempts the shard set is
    /// locked in ascending order (`lock_batch`, which pins the plan against
    /// migrations), `body` runs once more, and the locks are released with
    /// `revert`.
    ///
    /// `body` reads the shards of the stale windows through raw backend
    /// calls, leaves what it read for the others alone, and may run any
    /// number of times. `versioned: false` is for a body that is one
    /// backend lookup, linearizable by itself: only its route is validated
    /// and no shard version is read. The optimistic rounds write nothing
    /// shared; only the lock fallback does.
    fn read_windows<R: AsMut<[Window]>>(
        &self,
        read: &mut R,
        versioned: bool,
        mut plan: impl FnMut(&mut R),
        mut body: impl FnMut(&mut R, Option<u64>),
    ) {
        let mut bo = Backoff::adaptive();
        let t0 = optik_probe::now();
        let mut opened = t0;
        let mut retried = false;
        for _ in 0..OPTIMISTIC_ATTEMPTS {
            // Hash routing has no version: this reads nothing there.
            let rv = self.routing.version();
            plan(read);
            for repairs in 0..=OPTIMISTIC_ATTEMPTS {
                if versioned {
                    for w in read.as_mut().iter_mut().filter(|w| w.stale) {
                        w.version = self.shards[w.shard].lock.get_version_wait();
                    }
                }
                // The clock is sampled inside every window: the values and
                // deadlines `body` reads are stable until `validate`, so
                // the read linearizes at this tick. A sample from before
                // the windows can pair fresh bindings with a stale `now`
                // and resurrect an expiry another reader already saw.
                let now = self.now_opt();
                body(read, now);
                let windows = read.as_mut();
                let routed = self.routing.validate(rv);
                let mut broken = 0;
                if routed && versioned {
                    for w in windows.iter_mut() {
                        w.stale = !self.shards[w.shard].lock.validate(w.version);
                        broken += usize::from(w.stale);
                    }
                }
                if routed && broken == 0 {
                    optik_probe::record(
                        optik_probe::HistKind::ValidationWindow,
                        optik_probe::elapsed(opened, optik_probe::now()),
                    );
                    if retried {
                        record_retry_loop(t0);
                    }
                    return;
                }
                if !routed || windows.len() == 1 || repairs == OPTIMISTIC_ATTEMPTS {
                    break;
                }
                retried = true;
                if self.ttl.is_some() {
                    broken = windows.len();
                    windows.iter_mut().for_each(|w| w.stale = true);
                }
                optik_probe::count_n(optik_probe::Event::ReadRepair, broken as u64);
            }
            optik_probe::count(optik_probe::Event::ReadRetry);
            retried = true;
            bo.backoff();
            opened = optik_probe::now();
        }
        record_retry_loop(t0);
        let ids = self.lock_batch(&mut || {
            plan(read);
            let mut ids: Vec<usize> = read.as_mut().iter().map(|w| w.shard).collect();
            ids.sort_unstable();
            ids
        });
        body(read, self.now_opt());
        for &i in ids.iter().rev() {
            self.shards[i].lock.revert(); // read-only critical section
        }
    }

    /// Looks up `key`. Lock-free: on a statically routed store without
    /// TTL, one backend lookup. Otherwise a windowed read of the key's one
    /// shard: a TTL store validates the (value, deadline, clock) triple
    /// against the shard version and reports an expired entry as a miss; a
    /// dynamically routed one validates the route and retries across
    /// migrations (and reads no shard version unless it has deadlines to
    /// pair: the lookup is linearizable by itself).
    #[inline]
    pub fn get(&self, key: Key) -> Option<Val> {
        if let Routing::Hash { .. } = self.routing {
            let shard = &self.shards[self.routing.route(key)];
            if shard.deadlines.is_none() {
                return shard.map.get(key);
            }
        }
        self.get_windowed(key)
    }

    /// [`KvStore::get`] where it takes a window: the engine over the
    /// key's one shard, the set on the stack.
    fn get_windowed(&self, key: Key) -> Option<Val> {
        let mut out = None;
        self.read_windows(
            &mut [Window::new(0)],
            self.ttl.is_some(),
            |w| w[0] = Window::new(self.routing.route(key)),
            |w, now| out = self.shards[w[0].shard].live_get(key, now),
        );
        out
    }

    /// Inserts or atomically updates `key → val` under the shard lock,
    /// returning the previous **live** value. On TTL stores an expired
    /// previous binding reports `None` (and is physically dropped), and a
    /// plain put clears any deadline — the fresh binding lives forever.
    pub fn put(&self, key: Key, val: Val) -> Option<Val> {
        self.write_shard(key, |shard, now| (shard.put_live(key, val, now), true))
    }

    /// Removes `key`, returning its **live** value (an expired binding
    /// reports `None` and is physically dropped).
    ///
    /// OPTIK-shaped: on a statically routed store without TTL the
    /// operation first looks the key up lock-free, and a miss — the
    /// infeasible update — returns `None` without reading or writing the
    /// shard lock. It linearizes
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
        if let (Routing::Hash { .. }, None) = (&self.routing, &self.ttl) {
            self.shards[self.routing.route(key)].map.get(key)?;
        }
        self.write_shard(key, |shard, now| shard.remove_live(key, now))
    }

    /// Routes every key once and plans the batch: the distinct shard
    /// set (one OPTIK window each) plus the probe order. A stable
    /// `O(keys + shards)` counting sort clusters the probes by shard and
    /// each shard's span is then key-sorted, so ordered backends are
    /// walked front-to-back (adjacent probes re-walk the warm front of the
    /// same traversal path instead of restarting cold). Both sorts are
    /// stable, so duplicate keys keep their input order (a batch write
    /// applies them in it).
    fn group_probes(&self, keys: impl Iterator<Item = Key>, plan: &mut ProbePlan) {
        let ProbePlan {
            probes,
            routed,
            cursors,
            windows,
        } = plan;
        // One routing pass builds the tuples and the shard occupancy;
        // prefix sums yield the spans, and a scatter pass orders the
        // probes by shard.
        cursors.clear();
        cursors.resize(self.shards.len(), 0);
        routed.clear();
        routed.extend(keys.enumerate().map(|(i, k)| {
            let s = self.routing.route(k);
            cursors[s] += 1;
            (s, k, i as u32)
        }));
        // Every shard writes a window and only an occupied one keeps it:
        // whether a shard is in a small batch is a coin flip, which a
        // branch would mispredict.
        windows.clear();
        windows.resize(cursors.len(), Window::new(0));
        let (mut acc, mut w) = (0, 0);
        for (s, c) in cursors.iter_mut().enumerate() {
            let cnt = *c;
            windows[w] = Window {
                span: (acc, acc + cnt),
                ..Window::new(s)
            };
            w += usize::from(cnt > 0);
            *c = acc;
            acc += cnt;
        }
        windows.truncate(w);
        probes.clear();
        probes.resize(routed.len(), (0, 0, 0));
        for &p in routed.iter() {
            let dst = &mut cursors[p.0];
            probes[*dst] = p;
            *dst += 1;
        }
        // The probes are grouped by shard already, so this sort only
        // orders the keys inside each span. One call over them all is
        // cheaper than one per span, whose lengths a loop branches on.
        probes.sort_by_key(|&(s, k, _)| (s, k));
    }

    /// Looks every probe of `probes` up in its shard's `table` through
    /// [`ConcurrentMap::get_each`], [`PROBE_CHUNK`] at a time from a stack
    /// array, and hands `sink` each probe's input index and result.
    fn get_each_chunked<'a>(
        probes: &[(usize, Key, u32)],
        table: impl Fn(usize) -> &'a B,
        mut sink: impl FnMut(usize, Option<Val>),
    ) where
        B: 'a,
    {
        for chunk in probes.chunks(PROBE_CHUNK) {
            let mut lookups = [(table(0), 0); PROBE_CHUNK];
            for (l, &(s, k, _)) in lookups.iter_mut().zip(chunk) {
                *l = (table(s), k);
            }
            let mut vals = [None; PROBE_CHUNK];
            B::get_each(&lookups[..chunk.len()], &mut vals[..chunk.len()]);
            for (&(_, _, i), &val) in chunk.iter().zip(&vals) {
                sink(i as usize, val);
            }
        }
    }

    /// Probes a run of the grouped plan (already under validated windows
    /// or the shard locks) as one batched lookup, scattering results back
    /// to input order. The run may cross shards: that is what puts the
    /// lanes of an interleaving backend to work. TTL stores send the
    /// `deadlines` tables through the same call.
    fn probe_span(&self, probes: &[(usize, Key, u32)], now: Option<u64>, out: &mut [Option<Val>]) {
        Self::get_each_chunked(probes, |s| &self.shards[s].map, |i, val| out[i] = val);
        if let Some(now) = now {
            let deadlines = |s: usize| {
                self.shards[s]
                    .deadlines
                    .as_ref()
                    .expect("a clock implies deadline tables")
            };
            Self::get_each_chunked(probes, deadlines, |i, d| {
                if expired(d, now) {
                    out[i] = None;
                }
            });
        }
    }

    /// The body of [`KvStore::multi_get`]: probes the keys of the plan's
    /// stale windows (already inside their windows or under the shard
    /// locks), one batched lookup per run of stale shards.
    fn probe_plan(&self, plan: &ProbePlan, now: Option<u64>, out: &mut [Option<Val>]) {
        let windows = &plan.windows;
        // Spans tile `probes` in shard order, so a run of stale shards is
        // one contiguous run of probes: one batched lookup per run (the
        // first pass is a single run over everything).
        let mut j = 0;
        while j < windows.len() {
            if !windows[j].stale {
                j += 1;
                continue;
            }
            let start = windows[j].span.0;
            while j < windows.len() && windows[j].stale {
                j += 1;
            }
            self.probe_span(&plan.probes[start..windows[j - 1].span.1], now, out);
        }
    }

    /// Atomically reads every key: the returned values coexisted at one
    /// linearization point, even across shards (DESIGN.md, "One windowed
    /// read").
    ///
    /// Locality-aware and optimistic (no locks) in the common case: keys
    /// are routed once, one shard version is read per *involved shard*,
    /// the probes run (clustered by shard, key-sorted and handed to the
    /// backend as **one batched lookup**, [`ConcurrentMap::get_each`], so
    /// that a pointer-chasing backend overlaps the cache misses of
    /// different keys; see `group_probes`), and every shard's window is
    /// validated after the last read. When a shard moved under the read,
    /// only that shard's keys are looked up again.
    ///
    /// Planning scratch lives in a thread-local (`PROBE_PLAN`) and the
    /// batched lookups go through a stack array, so a steady-state call
    /// allocates only the result vector.
    pub fn multi_get(&self, keys: &[Key]) -> Vec<Option<Val>> {
        let mut out = vec![None; keys.len()];
        PROBE_PLAN.with(|cell| {
            self.read_windows(
                &mut *cell.borrow_mut(),
                true,
                |plan| self.group_probes(keys.iter().copied(), plan),
                |plan, now| self.probe_plan(plan, now, &mut out),
            );
        });
        out
    }

    /// Locks every shard of `keys_of()` ascending, then re-plans and
    /// starts over if the shard set moved meanwhile (a boundary migration;
    /// a hash route never moves). Returns the stable shard set.
    fn lock_batch(&self, keys_of: &mut dyn FnMut() -> Vec<usize>) -> Vec<usize> {
        loop {
            let ids = keys_of();
            for &i in &ids {
                self.shards[i].lock.lock();
            }
            if keys_of() != ids {
                for &i in ids.iter().rev() {
                    self.shards[i].lock.revert();
                }
                continue;
            }
            return ids;
        }
    }

    /// Runs `f` over `n` copies of `fill`: a stack array up to
    /// [`PROBE_CHUNK`] long, the heap beyond.
    fn scratch<T: Copy, R>(n: usize, fill: T, f: impl FnOnce(&mut [T]) -> R) -> R {
        if n <= PROBE_CHUNK {
            f(&mut [fill; PROBE_CHUNK][..n])
        } else {
            f(&mut vec![fill; n])
        }
    }

    /// The store's one batch write, behind [`KvStore::multi_put`] and
    /// [`KvStore::multi_remove`]: op `i` of the `n` is `op(i)`, `(key,
    /// Some(val))` to put and `(key, None)` to remove. Returns every op's
    /// previous **live** value, in input order.
    ///
    /// A windowed read whose validation is the lock acquisition
    /// (DESIGN.md, "Where a batch takes its misses"). The keys are planned
    /// as for `multi_get` (`group_probes`), every involved shard's window
    /// is opened (`get_version_wait`), and the ops go, in plan order, to
    /// [`ConcurrentMap::write_each`] — which may walk to all of them
    /// before any lock is taken — with an `exclude` that locks the shards
    /// in ascending order, each with `lock_version` at its window's
    /// version. A shard whose version held is fresh: every critical
    /// section that modifies a shard releases with `unlock`, so nothing
    /// wrote it since the window opened, and what the walk found there is
    /// current. `exclude` then re-checks every key's route (only a
    /// boundary migration moves one); a moved one reverts every lock and
    /// the batch is planned again. On TTL stores the write is normalized in the same locked
    /// section, after the apply: a binding the write found whose deadline
    /// had passed reports `None`, and the deadline goes (a put's binding
    /// lives forever, a removed key has none). Modified shards release
    /// with `unlock`, the rest with `revert`.
    fn write_batch(&self, n: usize, op: impl Fn(usize) -> (Key, Option<Val>)) -> Vec<Option<Val>> {
        let mut out = vec![None; n];
        let fill = (&self.shards[0].map, 0, None);
        Self::scratch(n, fill, |ops| {
            Self::scratch(n, None, |raw| {
                Self::scratch(n, (0, 0), |at| {
                    PROBE_PLAN.with_borrow_mut(|plan| loop {
                        self.group_probes((0..n).map(|i| op(i).0), plan);
                        let ProbePlan {
                            probes, windows, ..
                        } = plan;
                        // Input index and window of every op of the plan.
                        for (w, window) in windows.iter().enumerate() {
                            for j in window.span.0..window.span.1 {
                                at[j] = (probes[j].2 as usize, w);
                            }
                        }
                        for w in windows.iter_mut() {
                            w.version = self.shards[w.shard].lock.get_version_wait();
                        }
                        for (slot, &(i, w)) in ops.iter_mut().zip(at.iter()) {
                            let (key, val) = op(i);
                            *slot = (&self.shards[windows[w].shard].map, key, val);
                        }
                        let ops = &*ops;
                        let mut exclude = |fresh: &mut [bool]| {
                            for w in windows.iter_mut() {
                                w.stale = !self.shards[w.shard].lock.lock_version(w.version);
                            }
                            if ops
                                .iter()
                                .zip(at.iter())
                                .any(|(op, &(_, w))| self.routing.route(op.1) != windows[w].shard)
                            {
                                for w in windows.iter().rev() {
                                    self.shards[w.shard].lock.revert();
                                }
                                return false;
                            }
                            for (f, &(_, w)) in fresh.iter_mut().zip(at.iter()) {
                                *f = !windows[w].stale;
                            }
                            if !fresh.is_empty() {
                                let stale = windows.iter().filter(|w| w.stale).count();
                                optik_probe::count_n(optik_probe::Event::BatchRewalk, stale as u64);
                            }
                            true
                        };
                        // SAFETY: `exclude` returns `true` holding the lock
                        // of every shard of the batch — every writer of
                        // their maps and deadline tables takes it first —
                        // and reports a shard fresh only if its version held
                        // from before this call to the lock. It announces no
                        // quiescence. The locks are still held for the
                        // deadline removals.
                        unsafe {
                            if !B::write_each(ops, raw, &mut exclude) {
                                continue;
                            }
                            let now = self.now_opt();
                            for ((&(_, key, val), &prev), &(i, w)) in
                                ops.iter().zip(raw.iter()).zip(at.iter())
                            {
                                let window = &mut windows[w];
                                window.modified |= val.is_some() || prev.is_some();
                                out[i] = prev;
                                // The binding the write found loses its
                                // deadline; if that had passed, it was absent.
                                if let (Some(now), Some(_)) = (now, prev) {
                                    let dl = self.shards[window.shard].deadlines.as_ref();
                                    if dl.is_some_and(|dl| expired(dl.remove_exclusive(key), now)) {
                                        out[i] = None;
                                    }
                                }
                            }
                        }
                        for w in windows.iter().rev() {
                            if w.modified {
                                self.shards[w.shard].lock.unlock();
                            } else {
                                self.shards[w.shard].lock.revert();
                            }
                        }
                        break;
                    });
                });
            });
        });
        out
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
    /// The locks are taken at the versions of windows opened before the
    /// backend walks to the keys, so on a contiguous-partition store of
    /// OPTIK skip lists every key is descended to once, **before** any
    /// lock is taken, and the locked applies reuse those descents on
    /// every shard nothing wrote in between (`write_batch`).
    pub fn multi_put(&self, entries: &[(Key, Val)]) -> Vec<Option<Val>> {
        self.write_batch(entries.len(), |i| (entries[i].0, Some(entries[i].1)))
    }

    /// Atomically removes every key, returning the removed **live** value
    /// per key (expired bindings report `None` and are dropped). Shards
    /// whose maps end up unmodified release with `revert`. Locks, order
    /// and descents as for [`KvStore::multi_put`].
    pub fn multi_remove(&self, keys: &[Key]) -> Vec<Option<Val>> {
        self.write_batch(keys.len(), |i| (keys[i], None))
    }

    /// The windowed read behind the scans: walks every shard of `cover()`
    /// (an inclusive index pair, asked inside the routing window) with
    /// `walk` and leaves what the walks found, expired entries dropped, in
    /// `got.entries`, shard after shard. All of `cover()` is **one**
    /// windowed read, so the entries coexisted at one instant; a shard
    /// whose window broke is walked again alone and its segment replaced.
    fn collect(
        &self,
        got: &mut Collected,
        cover: impl Fn() -> (usize, usize),
        walk: impl Fn(&B, &mut dyn FnMut(Key, Val)),
    ) {
        self.read_windows(
            got,
            true,
            |got| {
                let (first, last) = cover();
                got.entries.clear();
                got.windows.clear();
                got.windows.extend((first..=last).map(Window::new));
            },
            |Collected { windows, entries }, now| {
                let mut at = 0;
                for w in windows.iter_mut() {
                    let mut len = w.span.1 - w.span.0;
                    if w.stale {
                        // The walk appends: the segments after this one
                        // step aside (none in a first pass, which walks
                        // the shards in order) and come back behind it.
                        let after = entries.split_off(at + len);
                        entries.truncate(at);
                        let shard = &self.shards[w.shard];
                        walk(&shard.map, &mut |k, v| entries.push((k, v)));
                        self.filter_expired(shard, entries, at, now);
                        len = entries.len() - at;
                        entries.extend_from_slice(&after);
                    }
                    w.span = (at, at + len);
                    at += len;
                }
            },
        );
    }

    /// Streams every entry, shard by shard. **Per-shard-consistent**, and
    /// deliberately no more: each shard's entries are one validated
    /// snapshot of that shard (no torn writes, no half-applied batch
    /// within it), but the shards are read one after the other — one
    /// windowed read each — so a shard visited earlier may have changed
    /// by the time a later one is read. A store-wide snapshot would need
    /// every window to hold at once, which a walk over a large store
    /// under writes never gets without locking every shard;
    /// [`KvStore::range_scan`] over the whole key space is that read, for
    /// callers who want it. Under dynamic (range) routing the routing
    /// version is validated across the whole walk, so a boundary
    /// migration cannot show a moving key twice or not at all: a walk it
    /// raced is taken again as one windowed read of all shards.
    pub fn scan(&self, mut f: impl FnMut(Key, Val)) {
        let walk = |map: &B, sink: &mut dyn FnMut(Key, Val)| map.for_each(sink);
        let mut got = Collected::default();
        let Routing::Range(_) = self.routing else {
            for i in 0..self.shards.len() {
                self.collect(&mut got, || (i, i), walk);
                for &(k, v) in &got.entries {
                    f(k, v);
                }
            }
            return;
        };
        let rv = self.routing.version();
        let mut all = Vec::new();
        for i in 0..self.shards.len() {
            self.collect(&mut got, || (i, i), walk);
            all.append(&mut got.entries);
        }
        if !self.routing.validate(rv) {
            self.collect(&mut got, || (0, self.shards.len() - 1), walk);
            all = got.entries;
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
                    if !expired(dl.get(k), now) {
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
    /// now follows the key distribution: [`KvStore::shift_boundary`]
    /// moves a partition boundary online when the caller decides it
    /// should.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `max_key` is zero.
    pub fn with_ordered_shards(shards: usize, max_key: Key, make: impl FnMut(usize) -> B) -> Self {
        Self::build(
            Routing::Range(RangePolicy::contiguous(shards, max_key)),
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
            Routing::Range(RangePolicy::contiguous(shards, max_key)),
            Some(clock),
            make,
        )
    }

    /// Collects every entry with key in `[lo, hi]`, sorted by key: a
    /// **snapshot** — the entries coexisted at one linearization point,
    /// across shards, because every shard the window touches is walked
    /// inside one windowed read (DESIGN.md, "One windowed read").
    ///
    /// Under ordered sharding only the shards intersecting the window are
    /// visited, in key order, so the result is a concatenation, and a
    /// window inside one partition reads and validates one shard version.
    /// The cover is computed inside the routing window, so a scan raced
    /// by a boundary migration retries rather than missing or
    /// double-counting migrated keys. Under hash sharding every shard is
    /// visited and the result is sorted afterwards.
    pub fn range_scan(&self, lo: Key, hi: Key) -> Vec<(Key, Val)> {
        let mut got = Collected::default();
        if lo > hi {
            return got.entries;
        }
        let everywhere = (0, self.shards.len() - 1);
        self.collect(
            &mut got,
            // A cover read while a boundary moves can come out inverted;
            // the routing validation rejects it, but the lock fallback has
            // to hold *some* shard to pin the next one, so it widens.
            || match self.routing.range_cover(lo, hi) {
                Some((first, last)) if first <= last => (first, last),
                _ => everywhere,
            },
            |map, sink| map.range(lo, hi, sink),
        );
        if let Routing::Hash { .. } = self.routing {
            got.entries.sort_unstable();
        }
        got.entries
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
    fn optik_map_backend_works_too() {
        use optik_hashtables::OptikMapHashTable;
        let s: KvStore<OptikMapHashTable> = KvStore::with_shards(4, |_| OptikMapHashTable::new(32));
        for k in 1..=100u64 {
            assert_eq!(s.put(k, k * 2), None);
        }
        assert_eq!(s.put(42, 1000), Some(84), "in-place update through shard");
        assert_eq!(s.len(), 100);
        for k in (1..=100u64).filter(|&k| k != 42) {
            assert_eq!(s.get(k), Some(k * 2));
        }
        assert_eq!(s.remove(42), Some(1000));
        assert_eq!(s.get(42), None);
        assert_eq!(s.len(), 99);
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
        assert!(s.multi_get(&[]).is_empty());
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

    /// Four threads churn `put`/`remove`/`get` over `keys` keys of `s`,
    /// writing through `put`; the store's final size must equal the net
    /// count of fresh puts minus hit removes.
    fn churn_keeps_exact_net_count<B: ConcurrentMap + 'static>(
        s: KvStore<B>,
        keys: u64,
        put: fn(&KvStore<B>, Key, Val) -> Option<Val>,
    ) {
        let s = Arc::new(s);
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
                    let k = x % keys + 1;
                    match x % 3 {
                        0 => {
                            if put(&s, k, k * 3).is_none() {
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
    fn concurrent_mixed_ops_keep_exact_net_count() {
        churn_keeps_exact_net_count(striped_store(4), 64, KvStore::put);
    }

    #[test]
    fn one_shard_concurrent_ops_keep_exact_net_count() {
        // Every writer meets on one lock word, so the contended
        // trylock-and-back-off acquisition carries most writes.
        churn_keeps_exact_net_count(striped_store(1), 16, KvStore::put);
    }

    #[test]
    fn one_shard_ttl_writes_keep_exact_net_count() {
        // `put_with_ttl` and `expire_after` take the same contended
        // trylock path as `put` on a statically routed store. The clock
        // never moves, so no deadline passes and the count stays exact.
        use crate::ttl::FakeClock;
        let s: KvStore<StripedOptikHashTable> =
            KvStore::with_shards_ttl(1, Arc::new(FakeClock::new()), |_| {
                StripedOptikHashTable::new(64, 8)
            });
        churn_keeps_exact_net_count(s, 16, |s, k, v| {
            let prev = s.put_with_ttl(k, v, 1 << 20);
            s.expire_after(k, 1 << 21);
            prev
        });
    }

    #[test]
    fn ordered_concurrent_ops_keep_exact_net_count() {
        // Dynamically routed: every write locks and re-checks its route,
        // and the keys straddle the partition boundary.
        let s: KvStore<OptikSkipList2> =
            KvStore::with_ordered_shards(2, 128, |_| OptikSkipList2::new());
        churn_keeps_exact_net_count(s, 96, KvStore::put);
    }

    /// This thread holds the lock of `key`'s shard while another thread
    /// puts `key`: the put must not finish before the release, and it
    /// must then apply with exactly one version bump.
    fn put_waits_out_a_held_shard_lock<B: ConcurrentMap + 'static>(s: KvStore<B>, key: Key) {
        use std::sync::atomic::AtomicBool;
        let s = Arc::new(s);
        let shard = s.shard_of(key);
        let v = s.shards[shard].lock.get_version();
        s.shards[shard].lock.lock();
        let done = Arc::new(AtomicBool::new(false));
        let writer = {
            let s = Arc::clone(&s);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let prev = s.put(key, 7);
                done.store(true, Ordering::SeqCst);
                prev
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(
            !done.load(Ordering::SeqCst),
            "a put finished while its shard lock was held"
        );
        s.shards[shard].lock.revert();
        let prev = reclaim::offline_while(|| writer.join().unwrap());
        assert_eq!(prev, None);
        assert_eq!(s.get(key), Some(7));
        assert_eq!(s.shards[shard].lock.get_version(), v + 2);
    }

    #[test]
    fn put_waits_out_a_held_shard_lock_on_a_static_store() {
        // The trylock attempt fails, so the put backs off and retries.
        put_waits_out_a_held_shard_lock(striped_store(2), 1);
    }

    #[test]
    fn put_waits_out_a_held_shard_lock_on_a_dynamic_store() {
        let s: KvStore<OptikSkipList2> =
            KvStore::with_ordered_shards(2, 100, |_| OptikSkipList2::new());
        put_waits_out_a_held_shard_lock(s, 70);
    }

    #[test]
    fn ttl_writes_bump_the_version_only_when_they_modify() {
        use crate::ttl::FakeClock;
        let clock = Arc::new(FakeClock::new());
        let s: KvStore<StripedOptikHashTable> =
            KvStore::with_shards_ttl(1, clock.clone(), |_| StripedOptikHashTable::new(64, 8));
        let v = s.shards[0].lock.get_version();
        assert_eq!(s.put_with_ttl(1, 10, 5), None);
        assert_eq!(s.shards[0].lock.get_version(), v + 2, "put_with_ttl");
        assert!(s.expire_after(1, 9));
        assert_eq!(s.shards[0].lock.get_version(), v + 4, "expire_after hit");
        assert!(!s.expire_after(999, 9));
        assert_eq!(
            s.shards[0].lock.get_version(),
            v + 4,
            "an expire_after miss releases with revert"
        );
        clock.advance(9);
        assert!(!s.expire_after(1, 5), "an expired entry is not re-armed");
        assert_eq!(
            s.shards[0].lock.get_version(),
            v + 6,
            "but dropping it is a modification"
        );
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn one_shard_batches_apply_in_order() {
        // A batch on a one-shard store locks that one shard and applies
        // its entries in order, duplicate keys included.
        let s = striped_store(1);
        assert_eq!(
            s.multi_put(&[(7, 70), (7, 71), (8, 80)]),
            vec![None, Some(70), None]
        );
        assert_eq!(s.get(7), Some(71));
        assert_eq!(s.get(8), Some(80));
    }

    #[test]
    fn ttl_remove_miss_releases_with_revert() {
        // On a TTL store a remove miss still takes the lock (an expired
        // binding would have to be dropped), and must still release it
        // without a version bump, like the lock-free miss
        // (`failed_remove_does_not_bump_shard_version`).
        use crate::ttl::FakeClock;
        let s: KvStore<StripedOptikHashTable> =
            KvStore::with_shards_ttl(1, Arc::new(FakeClock::new()), |_| {
                StripedOptikHashTable::new(64, 8)
            });
        s.put(1, 10);
        let v = s.shards[0].lock.get_version();
        assert_eq!(s.remove(999), None);
        assert_eq!(
            s.shards[0].lock.get_version(),
            v,
            "a locked miss must not signal a conflict"
        );
    }

    #[test]
    fn remove_miss_leaves_every_lock_word_alone() {
        // The infeasible update leaves the shard version alone (that it
        // takes no lock at all is counted in `tests/one_lock_per_write.rs`);
        // a hit bumps it exactly once.
        let s = striped_store(1);
        s.put(1, 10);
        let v = s.shards[0].lock.get_version();
        assert_eq!(s.remove(999), None);
        assert_eq!(s.shards[0].lock.get_version(), v, "miss");
        assert_eq!(s.remove(1), Some(10));
        assert_eq!(s.shards[0].lock.get_version(), v + 2, "hit");
        assert_eq!(s.remove(1), None, "now absent");
        assert_eq!(s.shards[0].lock.get_version(), v + 2, "miss");
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
        // Dynamic routing: the route is only stable under the lock, so a
        // miss waits out a held shard lock, then reverts.
        let o = Arc::new(KvStore::with_ordered_shards(2, 100, |_| {
            OptikSkipList2::new()
        }));
        o.put(60, 6);
        let v = o.shards[1].lock.get_version();
        o.shards[1].lock.lock();
        let remover = {
            let o = Arc::clone(&o);
            std::thread::spawn(move || o.remove(70))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(
            !remover.is_finished(),
            "a range-routed remove miss finished while its shard lock was held"
        );
        o.shards[1].lock.revert();
        assert_eq!(reclaim::offline_while(|| remover.join().unwrap()), None);
        assert_eq!(o.shards[1].lock.get_version(), v, "the miss reverts");
    }

    /// This thread holds the lock of `key`'s shard while another thread
    /// gets `key`: without TTL a get reads no shard version (a hash-routed
    /// one is one backend lookup, a range-routed one validates only its
    /// route), so it must finish before the release.
    fn get_ignores_a_held_shard_lock<B: ConcurrentMap + 'static>(s: KvStore<B>, key: Key) {
        let s = Arc::new(s);
        s.put(key, 7);
        let shard = s.shard_of(key);
        s.shards[shard].lock.lock();
        let reader = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || s.get(key))
        };
        let give_up = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !reader.is_finished() && std::time::Instant::now() < give_up {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let finished = reader.is_finished();
        s.shards[shard].lock.revert();
        assert!(finished, "a get waited for its shard lock");
        assert_eq!(reclaim::offline_while(|| reader.join().unwrap()), Some(7));
    }

    #[test]
    fn get_ignores_a_held_shard_lock_on_a_static_store() {
        get_ignores_a_held_shard_lock(striped_store(2), 1);
    }

    #[test]
    fn get_ignores_a_held_shard_lock_on_a_dynamic_store() {
        let s: KvStore<OptikSkipList2> =
            KvStore::with_ordered_shards(2, 100, |_| OptikSkipList2::new());
        get_ignores_a_held_shard_lock(s, 70);
    }

    #[test]
    fn range_routed_reads_leave_every_lock_word_alone() {
        // The reads validate against the routing and shard versions and
        // release nothing they did not take: every version reads the same
        // after them, as `failed_remove_does_not_bump_shard_version`
        // checks for the hash store's read-only writes.
        let s: KvStore<OptikSkipList2> =
            KvStore::with_ordered_shards(4, 64, |_| OptikSkipList2::new());
        for k in (2..=64u64).step_by(2) {
            s.put(k, k);
        }
        let versions = |s: &KvStore<OptikSkipList2>| {
            let shards: Vec<_> = s.shards.iter().map(|sh| sh.lock.get_version()).collect();
            (s.routing.version(), shards)
        };
        let before = versions(&s);
        for k in 1..=66u64 {
            assert_eq!(s.get(k), (k % 2 == 0 && k <= 64).then_some(k));
        }
        let keys: Vec<u64> = (1..=64).step_by(7).collect();
        assert_eq!(s.multi_get(&keys).iter().flatten().count(), keys.len() / 2);
        assert_eq!(s.range_scan(10, 40).len(), 16);
        assert_eq!(s.snapshot().len(), 32);
        assert_eq!(versions(&s), before);
    }

    #[test]
    fn put_over_expired_ttl_binding_reports_none() {
        use crate::ttl::FakeClock;
        let clock = Arc::new(FakeClock::new());
        let s: KvStore<StripedOptikHashTable> =
            KvStore::with_shards_ttl(1, clock.clone(), |_| StripedOptikHashTable::new(64, 8));
        s.put_with_ttl(1, 10, 5);
        clock.advance(10);
        // A plain put normalizes the expired previous binding: prev
        // reports None, not Some(10), and the binding is dropped.
        assert_eq!(s.put(1, 11), None);
        assert_eq!(s.get(1), Some(11));
        assert_eq!(s.len(), 1, "the expired binding was replaced, not kept");
        let deadlines = s.shards[0].deadlines.as_ref().expect("TTL store");
        assert_eq!(deadlines.get(1), None, "the fresh binding lives forever");
    }

    // Concurrent batch atomicity, deadlock freedom, snapshot consistency,
    // TTL expiry under churn, and migration atomicity are exercised at
    // scale (and across shard counts and backends) by the dedicated
    // stress tier in `tests/integration_kv.rs`.

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
    fn range_scan_works_over_fraser_shards() {
        use optik_skiplists::FraserSkipList;
        let s: KvStore<FraserSkipList> =
            KvStore::with_ordered_shards(3, 300, |_| FraserSkipList::new());
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
}
