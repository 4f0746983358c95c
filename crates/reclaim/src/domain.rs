//! The QSBR domain: thread slots, limbo batches, and collection.
//!
//! # Protocol
//!
//! The domain owns one global grace-period counter, `epoch`, and each
//! registered thread owns one padded word, `seen`: the last epoch it
//! announced, or [`OFFLINE`].
//!
//! - **Announce** ([`QsbrHandle::quiescent`]): load `epoch` (`Acquire`);
//!   only if it differs from the handle's cached copy, store it to `seen`
//!   (`Release`). No read-modify-write, and in steady state no store.
//! - **Seal** (every [`BATCH_SIZE`] retires, or [`QsbrHandle::flush`]):
//!   `fence(SeqCst)`, `target = epoch.fetch_add(1) + 1`, `fence(SeqCst)`,
//!   then record every slot with `seen < target`. The batch is free once
//!   each recorded slot shows `seen >= target` — announced the new epoch,
//!   went offline, or exited.
//! - **Come online** ([`Qsbr::register`], [`QsbrHandle::online`]): store
//!   the current epoch to `seen`, then `fence(SeqCst)`.
//!
//! # Why a batch is never freed under a reader
//!
//! *A reader that was online at the seal.* The sealer records it and waits
//! for `seen >= target`. The reader stores such a value only after an
//! `Acquire` load of `epoch` that reads from the sealer's `fetch_add` (or a
//! later one in its release sequence), which is ordered after the unlink —
//! so nothing the reader does after announcing can reach the node. What it
//! did before announcing precedes its `Release` store of `seen`, which the
//! collector reads with `Acquire` before freeing. A reader already showing
//! `seen >= target` at the seal is covered by the same two edges.
//!
//! *A thread that comes online around the seal.* Its `seen` store and the
//! sealer's scan are the two halves of a store-buffering pair, with a
//! `SeqCst` fence on each side between the write (`seen` / the unlink) and
//! the read (the structure / `seen`): either the sealer sees the thread and
//! waits for it, or the thread's reads see the unlink. The registered
//! high-water mark is written before that fence and read after the
//! sealer's, so a slot beyond a stale mark is the second case.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::mem::offset_of;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crossbeam_utils::CachePadded;

/// Maximum number of concurrently registered threads per domain (shared
/// with the probe's thread-index registry, which keys the pool magazines).
pub use optik_probe::MAX_THREADS;

/// Seal a limbo batch after this many retires.
const BATCH_SIZE: usize = 64;

/// Attempt collection every this many quiescent announcements.
const COLLECT_PERIOD: u64 = 32;

/// `seen` of a slot that is offline or unclaimed: at or past every target.
const OFFLINE: u64 = u64::MAX;

/// `Garbage::ctx` of an object retired without a context.
const NO_CTX: u32 = u32::MAX;

/// Context passed back to a reclamation action: typically the
/// [`crate::NodePool`] a slot should be returned to. Also keeps that owner
/// alive until the action runs.
pub type RetireCtx = Arc<dyn std::any::Any + Send + Sync>;

/// One type-erased retired object.
struct Garbage {
    ptr: *mut u8,
    drop_fn: unsafe fn(*mut u8, Option<&RetireCtx>),
    /// Index into the batch's `ctxs`, or [`NO_CTX`].
    ctx: u32,
}

// SAFETY: garbage is only ever dropped by one thread, and the pointed-to
// object was retired by its unique owner.
unsafe impl Send for Garbage {}

/// Retired objects plus the contexts they share: one `(owner address,
/// context)` entry per distinct owner, so a batch holds one reference to
/// each pool however many of its nodes it carries.
struct Retired {
    items: Vec<Garbage>,
    ctxs: Vec<(usize, RetireCtx)>,
}

impl Retired {
    fn new() -> Self {
        Self {
            items: Vec::with_capacity(BATCH_SIZE),
            ctxs: Vec::new(),
        }
    }
}

/// A sealed batch: retired objects plus the grace period they wait for.
struct Batch {
    retired: Retired,
    /// The epoch this batch's seal opened.
    target: u64,
    /// Slots that had not announced `target` when last checked.
    waiting: Vec<u32>,
    /// Probe timestamp at seal (0 when the probe feature is off); the free
    /// records `now - sealed_at` as the batch's grace latency.
    sealed_at: u64,
}

/// Per-thread slot in the domain's registry. Everything but `in_use` is
/// written only by the handle that claimed the slot.
struct Slot {
    /// Slot claimed by some live handle.
    in_use: AtomicBool,
    /// Last epoch announced, or [`OFFLINE`]. Monotonic while one handle
    /// stays online, so `seen >= target` always means "announced after the
    /// seal, or not reading at all".
    seen: AtomicU64,
    /// Objects retired through this slot's handles. Never reset.
    retired: AtomicU64,
    /// Objects freed by this slot's handles. Never reset.
    freed: AtomicU64,
}

/// Owner-exclusive counter bump: a plain load+store, not a locked RMW.
/// `Release` so that a reader who sees a completion count (`freed`, a
/// magazine's `graced`) also sees the retire counts that preceded it.
#[inline]
pub(crate) fn bump(counter: &AtomicU64, delta: u64) {
    counter.store(
        counter.load(Ordering::Relaxed).wrapping_add(delta),
        Ordering::Release,
    );
}

/// Counters exposed for tests and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QsbrStats {
    /// Objects retired into the domain (all threads).
    pub retired: u64,
    /// Objects actually freed so far.
    pub freed: u64,
    /// Threads currently registered.
    pub registered: usize,
}

/// The words of a domain that threads write outside their own slot: the
/// orphan list and the ledger's fallback counters.
struct Shared {
    /// Batches abandoned by exiting threads; collected opportunistically.
    orphans: Mutex<Vec<Batch>>,
    /// `orphans.len()`, written under the mutex: lets the periodic
    /// collection skip the lock while nothing is orphaned.
    orphan_batches: AtomicUsize,
    /// Objects retired without a handle ([`Qsbr::retire_orphan`]).
    retired: AtomicU64,
    /// Objects freed without a handle (orphan batches, domain teardown).
    freed: AtomicU64,
    registered: AtomicUsize,
}

/// A quiescent-state-based reclamation domain.
///
/// Cheap to share via `Arc`; most users want the process-wide domain from
/// [`crate::global`] instead of creating their own.
pub struct Qsbr {
    slots: Box<[CachePadded<Slot>]>,
    /// One past the highest slot index ever claimed. Slots are claimed
    /// lowest-first, so scans stop here instead of walking all
    /// [`MAX_THREADS`] padded slots.
    slot_hwm: AtomicUsize,
    /// The grace-period counter: bumped by every seal, read by every
    /// announcement.
    epoch: CachePadded<AtomicU64>,
    shared: CachePadded<Shared>,
}

// `slots`/`slot_hwm` are read on every retire and `epoch` on every
// announcement; neither may share a 128-byte block with a word that other
// threads write.
const _: () = {
    assert!(offset_of!(Qsbr, epoch) / 128 != offset_of!(Qsbr, slots) / 128);
    assert!(offset_of!(Qsbr, shared) / 128 != offset_of!(Qsbr, slots) / 128);
    assert!(offset_of!(Qsbr, shared) / 128 != offset_of!(Qsbr, epoch) / 128);
};

impl Qsbr {
    /// Creates a new, empty domain.
    pub fn new() -> Arc<Self> {
        let slots = (0..MAX_THREADS)
            .map(|_| {
                CachePadded::new(Slot {
                    in_use: AtomicBool::new(false),
                    seen: AtomicU64::new(OFFLINE),
                    retired: AtomicU64::new(0),
                    freed: AtomicU64::new(0),
                })
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Arc::new(Self {
            slots,
            slot_hwm: AtomicUsize::new(0),
            epoch: CachePadded::new(AtomicU64::new(0)),
            shared: CachePadded::new(Shared {
                orphans: Mutex::new(Vec::new()),
                orphan_batches: AtomicUsize::new(0),
                retired: AtomicU64::new(0),
                freed: AtomicU64::new(0),
                registered: AtomicUsize::new(0),
            }),
        })
    }

    /// Registers the calling thread, returning its handle.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_THREADS`] threads are simultaneously
    /// registered.
    pub fn register(self: &Arc<Self>) -> QsbrHandle {
        for (i, slot) in self.slots.iter().enumerate() {
            if !slot.in_use.load(Ordering::Relaxed)
                && slot
                    .in_use
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                self.slot_hwm.fetch_max(i + 1, Ordering::Relaxed);
                self.shared.registered.fetch_add(1, Ordering::Relaxed);
                let handle = QsbrHandle {
                    domain: Arc::clone(self),
                    slot: i as u32,
                    announced: Cell::new(OFFLINE),
                    pending: RefCell::new(Retired::new()),
                    limbo: RefCell::new(VecDeque::new()),
                    quiesce_count: Cell::new(0),
                };
                handle.online();
                return handle;
            }
        }
        panic!("QSBR domain exhausted: more than {MAX_THREADS} registered threads");
    }

    /// The slots that have ever been claimed.
    fn claimed_slots(&self) -> &[CachePadded<Slot>] {
        &self.slots[..self.slot_hwm.load(Ordering::Acquire)]
    }

    /// Current domain statistics: sums of the per-slot counters plus the
    /// handle-free fallback words. Exact whenever no thread is retiring or
    /// collecting; at any other time `freed <= retired` still holds.
    pub fn stats(&self) -> QsbrStats {
        // `freed` before `retired`: every free is ordered after the retire
        // it answers (same thread, or through the orphan mutex), counters
        // are published with `Release`, and the high-water mark is re-read
        // for the second pass, so the second pass sees every retire whose
        // free the first one counted.
        let sum = |fallback: &AtomicU64, field: fn(&Slot) -> &AtomicU64| {
            self.claimed_slots()
                .iter()
                .fold(fallback.load(Ordering::Acquire), |n, s| {
                    n.wrapping_add(field(s).load(Ordering::Acquire))
                })
        };
        let freed = sum(&self.shared.freed, |s| &s.freed);
        let retired = sum(&self.shared.retired, |s| &s.retired);
        QsbrStats {
            retired,
            freed,
            registered: self.shared.registered.load(Ordering::Relaxed),
        }
    }

    /// Opens a grace period for objects unlinked before this call: returns
    /// its target epoch and the slots that have yet to announce it.
    fn open_grace(&self) -> (u64, Vec<u32>) {
        // The sealer's half of the store-buffering pair with `online`: the
        // unlinks are ordered before the scan of `seen` below.
        fence(Ordering::SeqCst);
        let target = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        fence(Ordering::SeqCst);
        let waiting = self
            .claimed_slots()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.seen.load(Ordering::Acquire) < target)
            .map(|(i, _)| i as u32)
            .collect();
        (target, waiting)
    }

    /// Whether every slot the batch waits for has announced its target
    /// (or gone offline, or exited). Forgets the slots that have.
    fn grace_elapsed(&self, batch: &mut Batch) -> bool {
        let target = batch.target;
        batch
            .waiting
            .retain(|&i| self.slots[i as usize].seen.load(Ordering::Acquire) < target);
        batch.waiting.is_empty()
    }

    /// Frees a batch no handle owns, counting it in the fallback word.
    fn free_unowned(&self, batch: Batch) {
        let n = self.free_batch(batch);
        self.shared.freed.fetch_add(n, Ordering::Release);
    }

    /// Frees a batch's contents; returns how many objects that was.
    fn free_batch(&self, batch: Batch) -> u64 {
        optik_probe::count(optik_probe::Event::GraceBatchFree);
        optik_probe::record(
            optik_probe::HistKind::GraceLatency,
            optik_probe::elapsed(batch.sealed_at, optik_probe::now()),
        );
        let Retired { items, ctxs } = batch.retired;
        let n = items.len() as u64;
        for g in items {
            let ctx = ctxs.get(g.ctx as usize).map(|(_, ctx)| ctx);
            // SAFETY: the grace period has elapsed — no thread can still
            // hold an in-operation reference to `g.ptr`; the drop_fn was
            // supplied with a pointer of the matching type.
            unsafe { (g.drop_fn)(g.ptr, ctx) };
        }
        n
    }

    /// Opportunistically frees orphan batches whose grace period is over.
    fn collect_orphans(&self) {
        if self.shared.orphan_batches.load(Ordering::Relaxed) == 0 {
            return;
        }
        let Ok(mut orphans) = self.shared.orphans.try_lock() else {
            return;
        };
        let mut ready = Vec::new();
        let mut i = 0;
        while i < orphans.len() {
            if self.grace_elapsed(&mut orphans[i]) {
                ready.push(orphans.swap_remove(i));
            } else {
                i += 1;
            }
        }
        self.shared
            .orphan_batches
            .store(orphans.len(), Ordering::Relaxed);
        // Free outside the lock: drop functions may re-enter the domain
        // (e.g. `retire_orphan` for a second grace period).
        drop(orphans);
        for batch in ready {
            self.free_unowned(batch);
        }
    }

    /// Hands sealed batches to the orphan list.
    fn adopt(&self, batches: impl IntoIterator<Item = Batch>) {
        let mut orphans = self.shared.orphans.lock().expect("orphan list poisoned");
        orphans.extend(batches);
        self.shared
            .orphan_batches
            .store(orphans.len(), Ordering::Relaxed);
    }

    /// Retires directly into the domain's orphan list, without a
    /// per-thread handle.
    ///
    /// Usable from drop functions that may run during thread teardown
    /// (where the thread-local handle is no longer accessible) — e.g. to
    /// *re-retire* a pointer for an additional grace period.
    ///
    /// # Safety
    ///
    /// Same contract as [`QsbrHandle::retire_with`].
    pub unsafe fn retire_orphan(
        &self,
        ptr: *mut u8,
        drop_fn: unsafe fn(*mut u8, Option<&RetireCtx>),
    ) {
        self.shared.retired.fetch_add(1, Ordering::Relaxed);
        let (target, waiting) = self.open_grace();
        self.adopt([Batch {
            retired: Retired {
                items: vec![Garbage {
                    ptr,
                    drop_fn,
                    ctx: NO_CTX,
                }],
                ctxs: Vec::new(),
            },
            target,
            waiting,
            sealed_at: optik_probe::now(),
        }]);
    }
}

impl Drop for Qsbr {
    fn drop(&mut self) {
        // All handles hold an Arc to the domain, so at drop time there are no
        // registered threads and every remaining orphan batch is safe. Loop:
        // a freed batch may re-retire into the orphan list (second grace
        // period), which is equally safe to free now.
        loop {
            let orphans = std::mem::take(&mut *self.shared.orphans.lock().unwrap());
            if orphans.is_empty() {
                break;
            }
            for batch in orphans {
                self.free_unowned(batch);
            }
        }
    }
}

impl std::fmt::Debug for Qsbr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Qsbr")
            .field("stats", &self.stats())
            .finish()
    }
}

/// A per-thread handle onto a [`Qsbr`] domain.
///
/// Not `Sync`/`Send`: create one per thread via [`Qsbr::register`] (or use
/// the implicit per-thread handles of [`crate::with_local`]).
pub struct QsbrHandle {
    domain: Arc<Qsbr>,
    slot: u32,
    /// What this handle last stored to its slot's `seen`.
    announced: Cell<u64>,
    /// Current, unsealed batch of retired objects.
    pending: RefCell<Retired>,
    /// Sealed batches awaiting their grace period, oldest first.
    limbo: RefCell<VecDeque<Batch>>,
    quiesce_count: Cell<u64>,
}

impl QsbrHandle {
    #[inline]
    fn slot(&self) -> &Slot {
        &self.domain.slots[self.slot as usize]
    }

    /// Announces a quiescent point: the calling thread holds no references
    /// to any object retired in this domain.
    ///
    /// Call once per data-structure operation (start or end — the paper's
    /// benchmarks do it between iterations). While no grace period has
    /// opened since the last call this is one load of a shared read-only
    /// line and a compare.
    #[inline]
    pub fn quiescent(&self) {
        optik_probe::count(optik_probe::Event::EpochAdvance);
        let epoch = self.domain.epoch.load(Ordering::Acquire);
        // An offline handle stays offline: operations are forbidden there,
        // so it has nothing to announce.
        if epoch != self.announced.get() && self.announced.get() != OFFLINE {
            self.slot().seen.store(epoch, Ordering::Release);
            self.announced.set(epoch);
        }
        let n = self.quiesce_count.get() + 1;
        self.quiesce_count.set(n);
        if n % COLLECT_PERIOD == 0 {
            self.collect();
            self.domain.collect_orphans();
        }
    }

    /// Defers dropping of `ptr` (a `Box::into_raw` pointer) until all
    /// registered threads pass a quiescent point.
    ///
    /// # Safety
    ///
    /// `ptr` must have been produced by `Box::into_raw`, must not be retired
    /// twice, and no new references to it may be created after this call
    /// (it must already be unreachable from the shared structure).
    pub unsafe fn retire<T: Send>(&self, ptr: *mut T) {
        unsafe fn drop_box<T>(p: *mut u8, _ctx: Option<&RetireCtx>) {
            // SAFETY: `p` came from `Box::into_raw::<T>` per retire contract.
            unsafe { drop(Box::from_raw(p.cast::<T>())) };
        }
        // SAFETY: forwarded contract; drop_box matches the Box provenance.
        unsafe { self.retire_with(ptr.cast::<u8>(), drop_box::<T>, None) };
    }

    /// Defers an arbitrary reclamation action.
    ///
    /// `ctx`, if provided, is `(owner address, make_ctx)`. `drop_fn`
    /// receives the owner's [`RetireCtx`], which is kept alive until it
    /// runs — used by [`crate::NodePool`] so the pool outlives slots being
    /// returned to it. `make_ctx` is only called for the first object of
    /// an owner in each batch; the address is how later ones find it.
    ///
    /// # Safety
    ///
    /// `drop_fn(ptr, ctx)` must be safe to call exactly once after a grace
    /// period, and `ptr` must already be unreachable to new readers. The
    /// address must identify the object `make_ctx` keeps alive.
    pub unsafe fn retire_with(
        &self,
        ptr: *mut u8,
        drop_fn: unsafe fn(*mut u8, Option<&RetireCtx>),
        ctx: Option<(usize, &dyn Fn() -> RetireCtx)>,
    ) {
        bump(&self.slot().retired, 1);
        let mut pending = self.pending.borrow_mut();
        let ctx = match ctx {
            None => NO_CTX,
            Some((owner, make_ctx)) => {
                let ctxs = &mut pending.ctxs;
                // Consecutive retires mostly come from one owner.
                match ctxs.iter().rposition(|&(addr, _)| addr == owner) {
                    Some(i) => i as u32,
                    None => {
                        ctxs.push((owner, make_ctx()));
                        (ctxs.len() - 1) as u32
                    }
                }
            }
        };
        pending.items.push(Garbage { ptr, drop_fn, ctx });
        if pending.items.len() >= BATCH_SIZE {
            let full = std::mem::replace(&mut *pending, Retired::new());
            drop(pending);
            self.seal(full);
        }
    }

    /// Seals the current pending batch immediately (even if small) so it can
    /// start its grace period.
    pub fn flush(&self) {
        let mut pending = self.pending.borrow_mut();
        if !pending.items.is_empty() {
            let retired = std::mem::replace(&mut *pending, Retired::new());
            drop(pending);
            self.seal(retired);
        }
    }

    /// Marks this thread offline: seals do not wait for it, so long idle
    /// periods do not stall reclamation. Must not be holding references
    /// into any protected structure.
    pub fn offline(&self) {
        self.slot().seen.store(OFFLINE, Ordering::Release);
        self.announced.set(OFFLINE);
    }

    /// Marks this thread online again after [`QsbrHandle::offline`].
    pub fn online(&self) {
        let epoch = self.domain.epoch.load(Ordering::Acquire);
        self.slot().seen.store(epoch, Ordering::Relaxed);
        self.announced.set(epoch);
        // This thread's half of the store-buffering pair with
        // `open_grace`: `seen` is visible before any read of a protected
        // structure.
        fence(Ordering::SeqCst);
    }

    /// The domain this handle belongs to.
    pub fn domain(&self) -> &Arc<Qsbr> {
        &self.domain
    }

    /// Number of objects waiting (pending + limbo) in this handle.
    pub fn backlog(&self) -> usize {
        self.pending.borrow().items.len()
            + self
                .limbo
                .borrow()
                .iter()
                .map(|b| b.retired.items.len())
                .sum::<usize>()
    }

    fn seal(&self, retired: Retired) {
        let (target, waiting) = self.domain.open_grace();
        self.limbo.borrow_mut().push_back(Batch {
            retired,
            target,
            waiting,
            sealed_at: optik_probe::now(),
        });
        self.collect();
    }

    /// Frees every limbo batch whose grace period is over.
    ///
    /// The `limbo` borrow is released before each batch is freed: drop
    /// functions are allowed to re-enter the handle (e.g. to *re-retire*
    /// a pointer for an additional grace period, as the Fraser skip list
    /// does), which touches `pending`/`limbo` again.
    pub fn collect(&self) {
        loop {
            let batch = {
                let mut limbo = self.limbo.borrow_mut();
                if limbo
                    .front_mut()
                    .is_some_and(|front| self.domain.grace_elapsed(front))
                {
                    limbo.pop_front()
                } else {
                    None
                }
            };
            match batch {
                Some(b) => bump(&self.slot().freed, self.domain.free_batch(b)),
                None => break,
            }
        }
    }
}

impl Drop for QsbrHandle {
    fn drop(&mut self) {
        self.flush();
        // Going offline first releases this handle's own batches from
        // waiting on it (and everyone else's).
        self.offline();
        self.collect();
        // Hand any still-unsafe batches to the domain.
        let leftovers = std::mem::take(&mut *self.limbo.borrow_mut());
        if !leftovers.is_empty() {
            self.domain.adopt(leftovers);
        }
        self.slot().in_use.store(false, Ordering::Release);
        self.domain
            .shared
            .registered
            .fetch_sub(1, Ordering::Relaxed);
        self.domain.collect_orphans();
    }
}

impl std::fmt::Debug for QsbrHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QsbrHandle")
            .field("slot", &self.slot)
            .field("backlog", &self.backlog())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct DropCounter(Arc<AtomicU64>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Retires one fresh `DropCounter` through `h` and seals it.
    fn retire_sealed(h: &QsbrHandle, drops: &Arc<AtomicU64>) {
        let p = Box::into_raw(Box::new(DropCounter(Arc::clone(drops))));
        // SAFETY: unique Box pointer, never published.
        unsafe { h.retire(p) };
        h.flush();
    }

    fn dropped(drops: &AtomicU64) -> u64 {
        drops.load(Ordering::SeqCst)
    }

    #[test]
    fn retire_orphan_frees_after_grace_without_a_handle() {
        let domain = Qsbr::new();
        let hits = Arc::new(AtomicU64::new(0));
        unsafe fn bump(p: *mut u8, _ctx: Option<&RetireCtx>) {
            // SAFETY: provenance from Box::into_raw below.
            unsafe { drop(Box::from_raw(p.cast::<DropCounter>())) };
        }
        let p = Box::into_raw(Box::new(DropCounter(Arc::clone(&hits))));
        let h = domain.register();
        // SAFETY: never published.
        unsafe { domain.retire_orphan(p.cast(), bump) };
        assert_eq!(dropped(&hits), 0, "must wait for grace");
        // Orphans are collected opportunistically (periodic quiescence or
        // handle teardown); handle drop is deterministic for the test.
        drop(h);
        assert_eq!(dropped(&hits), 1, "freed after grace");
        let stats = domain.stats();
        assert_eq!((stats.retired, stats.freed), (1, 1));
    }

    #[test]
    fn drop_fn_may_re_retire_for_a_second_grace_period() {
        // A drop function that retires again (as the Fraser skip list does
        // for a second grace period) runs while `collect` is walking the
        // limbo list: it must find neither `pending` nor `limbo` borrowed.
        thread_local! {
            static HANDLE: QsbrHandle = Qsbr::new().register();
        }
        static HITS: AtomicU64 = AtomicU64::new(0);
        unsafe fn second_hop(p: *mut u8, _ctx: Option<&RetireCtx>) {
            // SAFETY: matching provenance; freed exactly once, here.
            unsafe { drop(Box::from_raw(p.cast::<u64>())) };
            HITS.fetch_add(1, Ordering::SeqCst);
        }
        unsafe fn first_hop(p: *mut u8, _ctx: Option<&RetireCtx>) {
            // SAFETY: forwarded provenance; second_hop frees.
            HANDLE.with(|h| unsafe { h.retire_with(p, second_hop, None) });
        }
        HANDLE.with(|h| {
            let p = Box::into_raw(Box::new(7u64));
            // SAFETY: never published.
            unsafe { h.retire_with(p.cast(), first_hop, None) };
            for _ in 0..2 {
                h.flush();
                h.quiescent();
                h.collect();
            }
            assert_eq!(HITS.load(Ordering::SeqCst), 1);
            let stats = h.domain().stats();
            assert_eq!((stats.retired, stats.freed), (2, 2));
        });
    }

    #[test]
    fn retire_defers_until_grace_period() {
        let domain = Qsbr::new();
        let drops = Arc::new(AtomicU64::new(0));
        let h1 = domain.register();
        let h2 = domain.register();

        retire_sealed(&h1, &drops);
        // The sealer's own announcement is not enough: h2 was online at the
        // seal and has not announced since.
        h1.quiescent();
        h1.collect();
        assert_eq!(dropped(&drops), 0);
        assert_eq!(h1.backlog(), 1);

        // h2's next announcement is what the batch was waiting for.
        h2.quiescent();
        h1.collect();
        assert_eq!(dropped(&drops), 1);
        assert_eq!(h1.backlog(), 0);
        drop((h1, h2));
    }

    #[test]
    fn quiescent_stores_only_when_the_epoch_moved() {
        let domain = Qsbr::new();
        let drops = Arc::new(AtomicU64::new(0));
        let h1 = domain.register();
        let h2 = domain.register();
        let seen = |h: &QsbrHandle| h.slot().seen.load(Ordering::SeqCst);

        let before = seen(&h2);
        for _ in 0..100 {
            h2.quiescent();
        }
        assert_eq!(seen(&h2), before, "no seal, nothing to announce");
        retire_sealed(&h1, &drops);
        h2.quiescent();
        assert_eq!(seen(&h2), before + 1, "one seal, one epoch");
        drop((h1, h2));
    }

    #[test]
    fn offline_thread_does_not_stall_reclamation() {
        let domain = Qsbr::new();
        let drops = Arc::new(AtomicU64::new(0));
        let h1 = domain.register();
        let h2 = domain.register();

        h2.offline();
        retire_sealed(&h1, &drops);
        // Announcing while offline changes nothing: h2 stays offline.
        h2.quiescent();
        h2.online();
        // h2 is back online and silent, but the seal did not record it.
        h1.quiescent();
        h1.collect();
        assert_eq!(dropped(&drops), 1);
        drop((h1, h2));
    }

    #[test]
    fn handle_registered_after_seal_is_never_waited_for() {
        let domain = Qsbr::new();
        let drops = Arc::new(AtomicU64::new(0));
        let h1 = domain.register();

        retire_sealed(&h1, &drops);
        let late = domain.register();
        h1.quiescent();
        h1.collect();
        assert_eq!(dropped(&drops), 1, "`late` never announced");

        // The next seal does see it.
        retire_sealed(&h1, &drops);
        h1.quiescent();
        h1.collect();
        assert_eq!(dropped(&drops), 1);
        late.quiescent();
        h1.collect();
        assert_eq!(dropped(&drops), 2);
        drop((h1, late));
    }

    #[test]
    fn handle_online_at_seal_releases_the_batch_by_leaving() {
        let domain = Qsbr::new();
        let drops = Arc::new(AtomicU64::new(0));
        let h1 = domain.register();
        let parks = domain.register();
        let exits = domain.register();

        retire_sealed(&h1, &drops);
        h1.quiescent();
        h1.collect();
        assert_eq!(dropped(&drops), 0, "two recorded handles are silent");
        parks.offline();
        h1.collect();
        assert_eq!(dropped(&drops), 0, "one still is");
        drop(exits);
        h1.collect();
        assert_eq!(dropped(&drops), 1);
        drop((h1, parks));
    }

    #[test]
    fn slot_reuse_does_not_confuse_snapshots() {
        let domain = Qsbr::new();
        let drops = Arc::new(AtomicU64::new(0));
        let h1 = domain.register();
        let first = domain.register();
        let slot = first.slot;

        // Sealed while `first` holds the slot; `first` exits; the slot's
        // next owner was not there at the seal and must not be waited for.
        retire_sealed(&h1, &drops);
        drop(first);
        let second = domain.register();
        assert_eq!(second.slot, slot, "lowest free slot is claimed first");
        h1.quiescent();
        h1.collect();
        assert_eq!(dropped(&drops), 1);

        // Sealed while `second` holds it: waited for like any other.
        retire_sealed(&h1, &drops);
        h1.quiescent();
        h1.collect();
        assert_eq!(dropped(&drops), 1);
        second.quiescent();
        h1.collect();
        assert_eq!(dropped(&drops), 2);
        assert_eq!(domain.slot_hwm.load(Ordering::SeqCst), 2, "no new slot");
        drop((h1, second));
    }

    #[test]
    fn handle_drop_orphans_are_freed_eventually() {
        let domain = Qsbr::new();
        let drops = Arc::new(AtomicU64::new(0));
        let h1 = domain.register();
        let h2 = domain.register();

        let p = Box::into_raw(Box::new(DropCounter(Arc::clone(&drops))));
        // SAFETY: unique Box pointer.
        unsafe { h1.retire(p) };
        drop(h1); // flush + orphan (h2 hasn't quiesced)
        assert_eq!(dropped(&drops), 0);

        // Orphan collection is periodic; force enough quiescent points.
        for _ in 0..COLLECT_PERIOD {
            h2.quiescent();
        }
        assert_eq!(dropped(&drops), 1);
        drop(h2);
    }

    #[test]
    fn domain_drop_frees_everything() {
        let domain = Qsbr::new();
        let drops = Arc::new(AtomicU64::new(0));
        {
            let h1 = domain.register();
            let _h2 = domain.register(); // never quiesces
            for _ in 0..10 {
                let p = Box::into_raw(Box::new(DropCounter(Arc::clone(&drops))));
                // SAFETY: unique Box pointers.
                unsafe { h1.retire(p) };
            }
        }
        drop(domain);
        assert_eq!(dropped(&drops), 10);
    }

    #[test]
    fn stats_track_retired_and_freed() {
        let domain = Qsbr::new();
        let h = domain.register();
        for _ in 0..5 {
            let p = Box::into_raw(Box::new(42u64));
            // SAFETY: unique Box pointers.
            unsafe { h.retire(p) };
        }
        assert_eq!(domain.stats().retired, 5);
        assert_eq!(domain.stats().registered, 1);
        h.flush();
        h.quiescent();
        h.collect();
        assert_eq!(domain.stats().freed, 5);
        drop(h);
        assert_eq!(domain.stats().registered, 0);
    }

    #[test]
    fn ledger_balances_after_every_handle_drops() {
        // Three ways out of the domain: freed by the retiring handle,
        // orphaned by an exiting handle and freed by a survivor, retired
        // without a handle at all. Slots are reused in between, and the
        // per-slot counters must survive that.
        unsafe fn free_u64(p: *mut u8, _ctx: Option<&RetireCtx>) {
            // SAFETY: provenance from Box::into_raw below.
            unsafe { drop(Box::from_raw(p.cast::<u64>())) };
        }
        let domain = Qsbr::new();
        let retire_n = |h: &QsbrHandle, n: usize| {
            for _ in 0..n {
                // SAFETY: unique Box pointers.
                unsafe { h.retire(Box::into_raw(Box::new(1u64))) };
            }
        };
        let stalled = domain.register();
        for round in 0..3 {
            let h = domain.register();
            retire_n(&h, BATCH_SIZE + 7 + round);
            drop(h); // `stalled` is silent: everything is orphaned
        }
        // SAFETY: unique Box pointer.
        unsafe { domain.retire_orphan(Box::into_raw(Box::new(2u64)).cast(), free_u64) };
        let mid = domain.stats();
        assert_eq!(mid.retired, 3 * (BATCH_SIZE as u64 + 7) + 3 + 1);
        assert_eq!(mid.freed, 0);

        stalled.quiescent();
        retire_n(&stalled, 5);
        drop(stalled);
        let end = domain.stats();
        assert_eq!(end.retired, mid.retired + 5);
        assert_eq!(end.freed, end.retired, "{end:?}");
        assert_eq!(end.registered, 0);
    }

    #[test]
    fn concurrent_stress_no_use_after_free() {
        // Producers retire boxed values while all threads keep quiescing;
        // the drop counter at the end must equal the retire count exactly
        // (no double free, no leak).
        let domain = Qsbr::new();
        let drops = Arc::new(AtomicU64::new(0));
        const THREADS: usize = 8;
        const OPS: usize = 20_000;

        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let domain = Arc::clone(&domain);
            let drops = Arc::clone(&drops);
            handles.push(std::thread::spawn(move || {
                let h = domain.register();
                for i in 0..OPS {
                    let p = Box::into_raw(Box::new(DropCounter(Arc::clone(&drops))));
                    // SAFETY: unique Box pointer.
                    unsafe { h.retire(p) };
                    h.quiescent();
                    if i % 64 == 0 {
                        let stats = domain.stats();
                        assert!(stats.freed <= stats.retired, "{stats:?}");
                    }
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        let stats = domain.stats();
        assert_eq!(stats.retired, (THREADS * OPS) as u64);
        assert_eq!(stats.freed, stats.retired, "all handles dropped");
        drop(domain);
        assert_eq!(dropped(&drops), (THREADS * OPS) as u64);
    }

    #[test]
    #[should_panic(expected = "QSBR domain exhausted")]
    fn registration_beyond_capacity_panics() {
        let domain = Qsbr::new();
        let mut handles = Vec::new();
        for _ in 0..=MAX_THREADS {
            handles.push(domain.register());
        }
    }
}
