//! Type-stable node pool with per-thread magazine caches.
//!
//! `ssmem`, the allocator the paper's structures use, is *type stable*
//! (§5.1): memory handed out for nodes of one structure is only ever
//! recycled as nodes of the same structure, and is never unmapped while the
//! allocator lives. The paper's node-caching optimization depends on this:
//! a thread may keep a `(node pointer, version)` pair *across* operations,
//! i.e. across quiescent points, and dereference it later. QSBR alone would
//! make that a use-after-free; with a type-stable pool the dereference is
//! always a read of a valid node, and OPTIK version validation rejects any
//! node that was recycled in between.
//!
//! ssmem is also *per-thread*: its hot path touches only thread-local free
//! lists, so allocation never contends. This pool reproduces that shape
//! with **magazines** (Bonwick's term): each thread owns a small cache of
//! free slots it allocates from and releases into with no locks and no
//! shared-cacheline traffic on the hit path. Magazines exchange whole
//! batches with a per-pool **depot** under the pool lock, so one lock
//! acquisition is amortized over `magazine_capacity` (default 64) node
//! operations; chunk growth (fresh slots) is batched the same way.
//!
//! ```text
//!  thread A            thread B               depot (pool lock)
//!  ┌──────────┐        ┌──────────┐        ┌───────────────────────┐
//!  │ loaded   │ pop/   │ loaded   │        │ full magazines  [64]* │
//!  │ prev     │ push   │ prev     │  ⇄     │ spare (empty) buffers │
//!  │ fresh    │        │ fresh    │ batch  │ bump region (chunks)  │
//!  └──────────┘        └──────────┘        └───────────────────────┘
//! ```
//!
//! Recycling still goes through QSBR: [`NodePool::retire`] hands the slot
//! to the domain, and only the post-grace reclamation callback pushes it
//! into the collecting thread's magazine. A slot is therefore always in
//! exactly one place: live, in one thread's magazine, in the depot, or
//! awaiting grace — the conservation ledger the property tests check.
//! The ledger has no shared counter: the retiring thread counts the slot
//! in its own magazine's `retired`, the collecting thread (possibly
//! another one) in its own `graced`, and `in_grace` is the difference of
//! the two sums. Likewise a limbo batch holds one reference to each pool
//! it carries slots of, not one per slot.
//!
//! # Contract for pooled node types
//!
//! - `T` must not implement a meaningful `Drop` (asserted at construction):
//!   slot contents are abandoned in place on recycle and at pool teardown.
//! - Any field of `T` that a *stale* reader (a cross-operation cached
//!   pointer, as in node caching) might inspect must be an atomic, because
//!   recycling re-initializes slots through shared references while stale
//!   readers may race with it. Structures that never hold node pointers
//!   across operations have no stale readers and may use
//!   [`NodePool::alloc_init`], which plainly overwrites the whole slot.
//! - Returning a slot to the pool must go through [`NodePool::retire`]
//!   (grace period first) unless the node was never published, in which case
//!   [`NodePool::dealloc_unpublished`] is allowed.

use std::cell::UnsafeCell;
use std::mem::{offset_of, MaybeUninit};
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use synchro::{shim, CachePadded, Lock, TtasLock};

// The process-wide thread-index registry lives in `optik-probe` (the probe
// keys its per-thread counter slabs by the same indices as the magazines).
// Exited threads' indices — and the magazine contents filed under them —
// are inherited by later threads; `thread_index()` is `None` only during
// TLS teardown, where callers fall back to the pool lock.
use optik_probe::thread_index;

use crate::domain::{bump, QsbrHandle, RetireCtx, MAX_THREADS};

/// Default number of node slots per chunk.
pub const DEFAULT_CHUNK_CAPACITY: usize = 1024;

/// Default number of slots per per-thread magazine (the depot exchange
/// batch size; ssmem uses 64-object free-list chains the same way).
pub const DEFAULT_MAGAZINE_CAPACITY: usize = 64;

// ---------------------------------------------------------------------------
// Magazines.
// ---------------------------------------------------------------------------

/// The calling thread's private slot caches for one pool. Only the thread
/// currently holding the matching registry index touches `cache`; the
/// counters are owner-written (plain store, no RMW) and racily read by
/// [`NodePool::stats`].
struct MagazineSlot<T> {
    cache: UnsafeCell<ThreadCache<T>>,
    /// Total allocations served through this magazine.
    allocs: AtomicU64,
    /// Allocations that returned a recycled slot.
    recycled: AtomicU64,
    /// Allocations that had to take the pool lock (depot/bump exchange).
    slow: AtomicU64,
    /// Slots currently parked in `cache` (all three stacks).
    cached: AtomicU64,
    /// Slots this thread handed to QSBR ([`NodePool::retire`]).
    retired: AtomicU64,
    /// Retired slots whose grace period ended on this thread.
    graced: AtomicU64,
}

// SAFETY: `cache` is only accessed by the registry-index owner (exclusive
// among live threads); counters are atomics.
unsafe impl<T: Send> Send for MagazineSlot<T> {}
unsafe impl<T: Send> Sync for MagazineSlot<T> {}

struct ThreadCache<T> {
    /// Recycled slots, allocated from first (warm cache lines).
    loaded: Vec<*mut T>,
    /// Second magazine (Bonwick's two-magazine scheme): keeps a thread
    /// that oscillates around a magazine boundary from hitting the depot
    /// on every operation.
    prev: Vec<*mut T>,
    /// Bump-allocated slots that were never initialized; kept apart from
    /// the recycled stacks so `alloc` knows whether `make_fresh` must run.
    fresh: Vec<*mut T>,
}

impl<T> MagazineSlot<T> {
    fn new() -> Self {
        Self {
            cache: UnsafeCell::new(ThreadCache {
                loaded: Vec::new(),
                prev: Vec::new(),
                fresh: Vec::new(),
            }),
            allocs: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            slow: AtomicU64::new(0),
            cached: AtomicU64::new(0),
            retired: AtomicU64::new(0),
            graced: AtomicU64::new(0),
        }
    }
}

/// Owner-exclusive counter decrement: like [`bump`], a plain load+store
/// instead of a locked RMW — the whole point of the magazine layer is that
/// the hit path never executes a `lock`-prefixed instruction.
#[inline]
fn debit(counter: &AtomicU64, delta: u64) {
    counter.store(
        counter.load(Ordering::Relaxed).wrapping_sub(delta),
        Ordering::Relaxed,
    );
}

// ---------------------------------------------------------------------------
// The pool.
// ---------------------------------------------------------------------------

#[repr(transparent)]
struct Slot<T>(UnsafeCell<MaybeUninit<T>>);

struct PoolInner<T> {
    /// Owning storage; never shrinks while the pool lives (type
    /// stability).
    chunks: Vec<Box<[Slot<T>]>>,
    /// Full magazines surrendered by overflowing threads.
    depot: Vec<Vec<*mut T>>,
    /// Empty magazine buffers kept for reuse (no malloc churn on exchange).
    spares: Vec<Vec<*mut T>>,
    /// Loose recycled slots from the no-magazine fallback path (thread
    /// teardown, where the thread-index TLS is already destroyed).
    loose: Vec<*mut T>,
    /// Total free slots parked under the pool lock: `depot` + `loose`.
    depot_slots: usize,
    /// Bump cursor into the last chunk (starts saturated so the
    /// first allocation triggers growth).
    bump: usize,
    /// Slots ever handed out of the bump region.
    handed_out: usize,
    chunk_capacity: usize,
}

impl<T> PoolInner<T> {
    /// Slots currently reserved from the OS.
    fn capacity(&self) -> usize {
        self.chunks.len() * self.chunk_capacity
    }

    fn grow(&mut self) {
        let chunk: Box<[Slot<T>]> = (0..self.chunk_capacity)
            .map(|_| Slot(UnsafeCell::new(MaybeUninit::uninit())))
            .collect();
        self.chunks.push(chunk);
        self.bump = 0;
    }

    /// Hands out the next never-used slot from the bump region.
    fn bump_one(&mut self) -> *mut T {
        if self.bump == self.chunk_capacity {
            self.grow();
        }
        let idx = self.bump;
        self.bump += 1;
        self.handed_out += 1;
        self.chunks.last().expect("chunk pushed by grow")[idx]
            .0
            .get()
            .cast::<T>()
    }
}

// SAFETY: the raw pointers in `depot` all point into `chunks`, which the
// pool owns; the surrounding spinlock serializes all structural access.
unsafe impl<T: Send> Send for PoolInner<T> {}

/// A type-stable arena allocator for concurrent data-structure nodes, with
/// per-thread magazine caches (see the module docs).
pub struct NodePool<T> {
    /// The depot, behind the pool lock. On its own lines: the lock word is
    /// written by every exchange, the header below is read by every
    /// allocation.
    inner: CachePadded<Lock<PoolInner<T>, TtasLock>>,
    /// Per-thread magazines, keyed by registry index, allocated lazily by
    /// their owning thread. Readers (stats) only load the pointers.
    mags: Box<[AtomicPtr<CachePadded<MagazineSlot<T>>>]>,
    /// One past the highest registry index that ever built a magazine
    /// here; bounds the ledger's walk over `mags`.
    mags_hwm: AtomicUsize,
    magazine_capacity: usize,
    /// The no-magazine fallback's ledger (thread teardown, where the
    /// thread-index TLS is already gone).
    direct: CachePadded<DirectLedger>,
    /// Bumped around every magazine⇄depot exchange. A schedulable shim
    /// word: under `--cfg optik_explore` the explorer interleaves depot
    /// traffic with concurrent retires and grace-period advances at this
    /// yield point; in normal builds it is one relaxed `fetch_add` per
    /// `magazine_capacity` operations. Padded so the slow path does not
    /// dirty the `mags` table's cache lines.
    exchange_epoch: CachePadded<shim::AtomicU64>,
}

/// Shared counters for operations that find no magazine to count in.
#[derive(Default)]
struct DirectLedger {
    /// Allocations served by the fallback.
    allocs: AtomicU64,
    /// Fallback allocations that returned a recycled slot.
    recycled: AtomicU64,
    /// Slots retired minus slots graced through the fallback, wrapping: a
    /// slot retired from a magazine and graced here counts as `-1`.
    in_grace: AtomicU64,
}

// SAFETY: `inner` is lock-protected; magazines are owner-exclusive (see
// `MagazineSlot`); counters are atomics. `T: Send + Sync` because slots are
// shared across threads as `&T`.
unsafe impl<T: Send + Sync> Send for NodePool<T> {}
unsafe impl<T: Send + Sync> Sync for NodePool<T> {}

/// A pointer freshly handed out by [`NodePool::alloc`].
#[derive(Debug)]
pub struct PooledPtr<T> {
    /// The slot. Valid (and type-stable) for the pool's lifetime.
    pub ptr: *mut T,
    /// `false` if the slot is brand new (initialized from `make_fresh`),
    /// `true` if it is a recycled slot whose previous contents are still in
    /// place — the caller must re-initialize every field through atomics.
    pub recycled: bool,
}

/// A point-in-time snapshot of a pool's slot ledger (see
/// [`NodePool::stats`]). Counter fields are exact whenever every thread
/// using the pool is at rest; `live` is derived from the others.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Slots handed out (fresh + recycled) so far.
    pub allocations: u64,
    /// Allocations served from recycled slots.
    pub recycle_hits: u64,
    /// Allocations that took the pool lock (depot fetch or bump refill).
    pub slow_allocs: u64,
    /// Slots currently parked in per-thread magazines.
    pub cached: u64,
    /// Slots currently parked in the depot.
    pub depot: u64,
    /// Retired slots still awaiting their grace period.
    pub in_grace: u64,
    /// Total slot capacity currently reserved from the OS.
    pub capacity: u64,
    /// Slots never yet handed out of the bump region.
    pub unallocated: u64,
}

impl PoolStats {
    /// Magazine hit rate: fraction of allocations served without taking
    /// the pool lock. `1.0` for an untouched pool.
    pub fn magazine_hit_rate(&self) -> f64 {
        if self.allocations == 0 {
            1.0
        } else {
            1.0 - self.slow_allocs as f64 / self.allocations as f64
        }
    }

    /// Slots the ledger says are currently live (allocated, not yet back
    /// in any pool structure): `capacity - unallocated - cached - depot -
    /// in_grace`, saturating at zero against racy snapshots.
    pub fn live(&self) -> u64 {
        self.capacity
            .saturating_sub(self.unallocated)
            .saturating_sub(self.cached)
            .saturating_sub(self.depot)
            .saturating_sub(self.in_grace)
    }
}

impl<T: Send + Sync + 'static> NodePool<T> {
    /// Creates a pool with the default chunk and magazine capacities.
    pub fn new() -> Arc<Self> {
        Self::with_chunk_capacity(DEFAULT_CHUNK_CAPACITY)
    }

    /// Creates a pool allocating `chunk_capacity` slots at a time, with
    /// the default magazine capacity.
    ///
    /// # Panics
    ///
    /// Panics if `T` needs drop (pooled nodes must be plain data + atomics)
    /// or if `chunk_capacity` is zero.
    pub fn with_chunk_capacity(chunk_capacity: usize) -> Arc<Self> {
        Self::with_config(chunk_capacity, DEFAULT_MAGAZINE_CAPACITY)
    }

    /// Creates a pool with explicit chunk and magazine capacities. The
    /// effective exchange batch is `min(magazine_capacity,
    /// chunk_capacity)`, so small test pools don't over-reserve.
    ///
    /// # Panics
    ///
    /// Panics if `T` needs drop or either capacity is zero.
    pub fn with_config(chunk_capacity: usize, magazine_capacity: usize) -> Arc<Self> {
        assert!(
            !std::mem::needs_drop::<T>(),
            "NodePool requires nodes without Drop glue"
        );
        assert!(chunk_capacity > 0, "chunk capacity must be positive");
        assert!(magazine_capacity > 0, "magazine capacity must be positive");
        let () = Self::LAYOUT;
        Arc::new(Self {
            inner: CachePadded::new(Lock::new(PoolInner {
                chunks: Vec::new(),
                depot: Vec::new(),
                spares: Vec::new(),
                loose: Vec::new(),
                depot_slots: 0,
                bump: chunk_capacity,
                handed_out: 0,
                chunk_capacity,
            })),
            mags: (0..MAX_THREADS)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
            mags_hwm: AtomicUsize::new(0),
            magazine_capacity: magazine_capacity.min(chunk_capacity),
            direct: CachePadded::new(DirectLedger::default()),
            exchange_epoch: CachePadded::new(shim::AtomicU64::new(0)),
        })
    }

    /// The read-only header (`mags`, `magazine_capacity`) shares no
    /// 128-byte block with the depot lock or the fallback counters.
    const LAYOUT: () = {
        let header = offset_of!(Self, mags) / 128;
        assert!(offset_of!(Self, magazine_capacity) / 128 == header);
        assert!(offset_of!(Self, inner) / 128 != header);
        assert!(offset_of!(Self, direct) / 128 != header);
        assert!(offset_of!(Self, exchange_epoch) / 128 != header);
    };

    /// The calling thread's magazine for this pool; `None` only during
    /// thread teardown (see [`thread_index`]).
    #[inline]
    fn magazine(&self) -> Option<&CachePadded<MagazineSlot<T>>> {
        let idx = thread_index()?;
        let p = self.mags[idx].load(Ordering::Acquire);
        if !p.is_null() {
            // SAFETY: published boxes are only freed in `Drop`, which has
            // exclusive access.
            Some(unsafe { &*p })
        } else {
            Some(self.magazine_init(idx))
        }
    }

    #[cold]
    fn magazine_init(&self, idx: usize) -> &CachePadded<MagazineSlot<T>> {
        let fresh = Box::into_raw(Box::new(CachePadded::new(MagazineSlot::new())));
        self.mags_hwm.fetch_max(idx + 1, Ordering::Release);
        // Only the index owner stores here, so the CAS cannot lose; it is
        // still a CAS (not a blind store) to keep stats readers safe if
        // that invariant ever breaks.
        match self.mags[idx].compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            // SAFETY: just published / already published; never freed
            // while the pool lives.
            Ok(_) => unsafe { &*fresh },
            Err(existing) => unsafe {
                drop(Box::from_raw(fresh));
                &*existing
            },
        }
    }

    /// Grabs a slot without initializing it.
    fn alloc_slot(&self) -> PooledPtr<T> {
        let Some(mag) = self.magazine() else {
            return self.alloc_direct();
        };
        bump(&mag.allocs, 1);
        // SAFETY: owner-exclusive (see MagazineSlot).
        let cache = unsafe { &mut *mag.cache.get() };
        if let Some(ptr) = cache.loaded.pop().or_else(|| {
            if cache.prev.is_empty() {
                None
            } else {
                std::mem::swap(&mut cache.loaded, &mut cache.prev);
                cache.loaded.pop()
            }
        }) {
            optik_probe::count(optik_probe::Event::MagazineHit);
            bump(&mag.recycled, 1);
            debit(&mag.cached, 1);
            return PooledPtr {
                ptr,
                recycled: true,
            };
        }
        if let Some(ptr) = cache.fresh.pop() {
            optik_probe::count(optik_probe::Event::MagazineHit);
            debit(&mag.cached, 1);
            return PooledPtr {
                ptr,
                recycled: false,
            };
        }
        self.alloc_slow(mag, cache)
    }

    /// Magazine miss: exchange with the depot (a full magazine of recycled
    /// slots if one exists, else a batch of fresh bump slots) under one
    /// lock acquisition amortized over `magazine_capacity` allocations.
    #[cold]
    fn alloc_slow(&self, mag: &MagazineSlot<T>, cache: &mut ThreadCache<T>) -> PooledPtr<T> {
        optik_probe::count(optik_probe::Event::MagazineMiss);
        bump(&mag.slow, 1);
        // Explorer yield point: depot exchange about to happen.
        self.exchange_epoch.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        if !inner.loose.is_empty() {
            // Adopt teardown leftovers as this thread's recycled batch.
            let take = inner.loose.len().min(self.magazine_capacity);
            let at = inner.loose.len() - take;
            cache.loaded.extend(inner.loose.drain(at..));
            inner.depot_slots -= take;
            drop(inner);
            bump(&mag.cached, take as u64);
            bump(&mag.recycled, 1);
            let ptr = cache.loaded.pop().expect("took at least one slot");
            debit(&mag.cached, 1);
            return PooledPtr {
                ptr,
                recycled: true,
            };
        }
        if let Some(full) = inner.depot.pop() {
            inner.depot_slots -= full.len();
            let old = std::mem::replace(&mut cache.loaded, full);
            debug_assert!(old.is_empty());
            inner.spares.push(old);
            drop(inner);
            bump(&mag.cached, cache.loaded.len() as u64);
            bump(&mag.recycled, 1);
            let ptr = cache.loaded.pop().expect("depot magazines are never empty");
            debit(&mag.cached, 1);
            return PooledPtr {
                ptr,
                recycled: true,
            };
        }
        // No recycled batch: hand out a batch of fresh slots.
        let want = self.magazine_capacity;
        cache.fresh.reserve(want);
        for _ in 0..want {
            let ptr = inner.bump_one();
            cache.fresh.push(ptr);
        }
        drop(inner);
        bump(&mag.cached, want as u64);
        let ptr = cache.fresh.pop().expect("batch is non-empty");
        debit(&mag.cached, 1);
        PooledPtr {
            ptr,
            recycled: false,
        }
    }

    /// No-magazine fallback (thread teardown): one slot per lock trip.
    /// Counted through pool-level atomics so the ledger stays exact.
    #[cold]
    fn alloc_direct(&self) -> PooledPtr<T> {
        optik_probe::count(optik_probe::Event::MagazineMiss);
        self.direct.allocs.fetch_add(1, Ordering::Relaxed);
        self.exchange_epoch.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        if let Some(ptr) = inner.loose.pop() {
            inner.depot_slots -= 1;
            self.direct.recycled.fetch_add(1, Ordering::Relaxed);
            return PooledPtr {
                ptr,
                recycled: true,
            };
        }
        if let Some(full) = inner.depot.last_mut() {
            let ptr = full.pop().expect("depot magazines are never empty");
            if full.is_empty() {
                let empty = inner.depot.pop().expect("checked non-empty");
                inner.spares.push(empty);
            }
            inner.depot_slots -= 1;
            self.direct.recycled.fetch_add(1, Ordering::Relaxed);
            return PooledPtr {
                ptr,
                recycled: true,
            };
        }
        let ptr = inner.bump_one();
        PooledPtr {
            ptr,
            recycled: false,
        }
    }

    /// Returns a free (already-recycled or never-published) slot to the
    /// calling thread's magazine `mag` (`None` during thread teardown),
    /// overflowing whole magazines to the depot.
    fn release_into(&self, mag: Option<&CachePadded<MagazineSlot<T>>>, ptr: *mut T) {
        let Some(mag) = mag else {
            // Thread teardown: park the slot under the pool lock.
            let mut inner = self.inner.lock();
            inner.loose.push(ptr);
            inner.depot_slots += 1;
            return;
        };
        // SAFETY: owner-exclusive (see MagazineSlot).
        let cache = unsafe { &mut *mag.cache.get() };
        let cap = self.magazine_capacity;
        if cache.loaded.len() >= cap {
            if cache.prev.is_empty() {
                std::mem::swap(&mut cache.loaded, &mut cache.prev);
            } else {
                // Both magazines full: surrender `loaded` to the depot and
                // continue filling a spare.
                self.exchange_epoch.fetch_add(1, Ordering::Relaxed);
                let mut inner = self.inner.lock();
                let spare = inner.spares.pop().unwrap_or_default();
                let full = std::mem::replace(&mut cache.loaded, spare);
                debit(&mag.cached, full.len() as u64);
                inner.depot_slots += full.len();
                inner.depot.push(full);
            }
        }
        cache.loaded.push(ptr);
        bump(&mag.cached, 1);
    }

    /// Allocates a slot. Fresh slots are initialized with `make_fresh`;
    /// recycled slots are returned as-is (see [`PooledPtr::recycled`]) and
    /// must be re-initialized through their atomics.
    pub fn alloc(&self, make_fresh: impl FnOnce() -> T) -> PooledPtr<T> {
        let p = self.alloc_slot();
        if !p.recycled {
            // SAFETY: the slot is brand new: no other thread has seen it.
            unsafe { p.ptr.write(make_fresh()) };
        }
        p
    }

    /// Allocates a slot and unconditionally overwrites it with `make()`.
    ///
    /// For structures whose readers never hold node pointers *across*
    /// operations (no node caching): without stale readers, a recycled
    /// slot has provably no observers once its grace period has elapsed,
    /// so a plain full-slot write is safe and cheaper than field-by-field
    /// atomic re-initialization. Structures that cache `(node, version)`
    /// pairs across operations must keep using [`NodePool::alloc`].
    pub fn alloc_init(&self, make: impl FnOnce() -> T) -> *mut T {
        let p = self.alloc_slot();
        // SAFETY: fresh slots are unobserved; recycled slots passed their
        // grace period after being unlinked, so (absent cross-operation
        // caching, per the method contract) no thread can be reading them.
        unsafe { p.ptr.write(make()) };
        p.ptr
    }

    /// Returns `ptr` to the magazine layer after a QSBR grace period.
    ///
    /// # Safety
    ///
    /// `ptr` must have come from this pool's [`NodePool::alloc`] /
    /// [`NodePool::alloc_init`], must be unreachable to *new* readers
    /// (unlinked), and must not be retired twice.
    pub unsafe fn retire(self: &Arc<Self>, ptr: *mut T, handle: &QsbrHandle) {
        unsafe fn recycle<T: Send + Sync + 'static>(p: *mut u8, ctx: Option<&RetireCtx>) {
            let pool = ctx
                .expect("pool retire always carries ctx")
                .downcast_ref::<NodePool<T>>()
                .expect("ctx is the originating pool");
            let mag = pool.magazine();
            match mag {
                Some(mag) => bump(&mag.graced, 1),
                None => {
                    pool.direct.in_grace.fetch_sub(1, Ordering::Release);
                }
            }
            pool.release_into(mag, p.cast::<T>());
        }
        match self.magazine() {
            Some(mag) => bump(&mag.retired, 1),
            None => {
                self.direct.in_grace.fetch_add(1, Ordering::Release);
            }
        }
        // SAFETY: after the grace period the slot has no in-operation
        // readers with *liveness* expectations; parking it in a magazine
        // does not overwrite its contents, so even stale cached pointers
        // (node caching) keep reading a valid `T`. The address is this
        // pool's, which the context keeps alive.
        unsafe {
            handle.retire_with(
                ptr.cast::<u8>(),
                recycle::<T>,
                Some((Arc::as_ptr(self) as usize, &|| {
                    Arc::clone(self) as RetireCtx
                })),
            )
        };
    }

    /// Immediately returns a never-published slot to the magazine layer.
    ///
    /// # Safety
    ///
    /// `ptr` must have come from this pool's [`NodePool::alloc`] /
    /// [`NodePool::alloc_init`] and must never have been made reachable
    /// from any shared structure.
    pub unsafe fn dealloc_unpublished(&self, ptr: *mut T) {
        self.release_into(self.magazine(), ptr);
    }

    /// Total slots handed out (fresh + recycled) so far.
    pub fn allocations(&self) -> u64 {
        self.sum_mags(|m| &m.allocs)
            .wrapping_add(self.direct.allocs.load(Ordering::Relaxed))
    }

    /// How many allocations were served from recycled slots.
    pub fn recycle_hits(&self) -> u64 {
        self.sum_mags(|m| &m.recycled)
            .wrapping_add(self.direct.recycled.load(Ordering::Relaxed))
    }

    /// Free slots currently parked in the pool (per-thread magazines plus
    /// the depot); excludes retired slots still awaiting grace.
    pub fn free_len(&self) -> usize {
        (self.sum_mags(|m| &m.cached) as usize) + self.inner.lock().depot_slots
    }

    /// Total slot capacity currently reserved from the OS.
    pub fn capacity(&self) -> usize {
        self.inner.lock().capacity()
    }

    /// Snapshot of the pool's slot ledger. Exact when all threads using
    /// the pool are quiescent (counters are owner-written per thread).
    pub fn stats(&self) -> PoolStats {
        let (depot, capacity, unallocated) = {
            let inner = self.inner.lock();
            let cap = inner.capacity();
            (
                inner.depot_slots as u64,
                cap as u64,
                (cap - inner.handed_out) as u64,
            )
        };
        PoolStats {
            allocations: self.allocations(),
            recycle_hits: self.recycle_hits(),
            slow_allocs: self
                .sum_mags(|m| &m.slow)
                .wrapping_add(self.direct.allocs.load(Ordering::Relaxed)),
            cached: self.sum_mags(|m| &m.cached),
            depot,
            in_grace: self.in_grace(),
            capacity,
            unallocated,
        }
    }
}

impl<T> NodePool<T> {
    /// Retired slots whose grace period has not elapsed yet: retires
    /// minus grace completions over all magazines, plus the fallback word.
    /// Exact at rest, like the rest of the ledger; read in an order
    /// (completions, fallback, retires — a completion is published after
    /// the retire it answers) that keeps a racy snapshot from going
    /// negative.
    fn in_grace(&self) -> u64 {
        let graced = self.sum_mags(|m| &m.graced);
        let direct = self.direct.in_grace.load(Ordering::Acquire);
        self.sum_mags(|m| &m.retired)
            .wrapping_sub(graced)
            .wrapping_add(direct)
    }

    fn sum_mags(&self, field: impl Fn(&MagazineSlot<T>) -> &AtomicU64) -> u64 {
        let mut total = 0u64;
        for slot in &self.mags[..self.mags_hwm.load(Ordering::Acquire)] {
            let p = slot.load(Ordering::Acquire);
            if !p.is_null() {
                // SAFETY: published magazine boxes live as long as the pool.
                total = total.wrapping_add(field(unsafe { &**p }).load(Ordering::Acquire));
            }
        }
        total
    }
}

impl<T> Drop for NodePool<T> {
    fn drop(&mut self) {
        for slot in self.mags.iter_mut() {
            let p = *slot.get_mut();
            if !p.is_null() {
                // SAFETY: exclusive access at drop; boxes were published
                // exactly once.
                unsafe { drop(Box::from_raw(p)) };
            }
        }
    }
}

impl<T> std::fmt::Debug for NodePool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodePool")
            .field("in_grace", &self.in_grace())
            .field("magazine_capacity", &self.magazine_capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Qsbr;

    #[derive(Default)]
    struct Node {
        key: AtomicU64,
    }

    /// Returns never-published slots straight to `pool`.
    fn release(pool: &NodePool<Node>, ptrs: &[*mut Node]) {
        for p in ptrs {
            // SAFETY: test slots come from `pool` and are never published.
            unsafe { pool.dealloc_unpublished(*p) };
        }
    }

    /// Retires unlinked slots through `h`'s grace period.
    fn retire(pool: &Arc<NodePool<Node>>, ptrs: &[*mut Node], h: &QsbrHandle) {
        for p in ptrs {
            // SAFETY: test slots come from `pool`, are never published,
            // and each is retired once.
            unsafe { pool.retire(*p, h) };
        }
    }

    /// The `key` of a slot of `pool`.
    fn key(_pool: &NodePool<Node>, p: *mut Node) -> &AtomicU64 {
        // SAFETY: type-stable slots stay valid `Node`s while the pool lives.
        unsafe { &(*p).key }
    }

    #[test]
    fn fresh_allocations_bump_through_chunks() {
        let pool: Arc<NodePool<Node>> = NodePool::with_chunk_capacity(4);
        let mut ptrs = Vec::new();
        for i in 0..10u64 {
            let p = pool.alloc(Node::default);
            assert!(!p.recycled);
            // SAFETY: fresh slot, valid for pool lifetime.
            unsafe { (*p.ptr).key.store(i, Ordering::Relaxed) };
            ptrs.push(p.ptr);
        }
        // Magazine batches are clamped to the chunk capacity, so ten
        // allocations reserve exactly three chunks of four.
        assert_eq!(pool.capacity(), 12);
        // All pointers distinct.
        let mut sorted = ptrs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        // Contents intact.
        for (i, p) in ptrs.iter().enumerate() {
            // SAFETY: slots live as long as the pool.
            assert_eq!(unsafe { (**p).key.load(Ordering::Relaxed) }, i as u64);
        }
    }

    #[test]
    fn retire_recycles_after_grace_period() {
        let domain = Qsbr::new();
        let h = domain.register();
        let pool: Arc<NodePool<Node>> = NodePool::with_chunk_capacity(8);

        let p = pool.alloc(Node::default);
        retire(&pool, &[p.ptr], &h);
        assert_eq!(pool.stats().in_grace, 1);
        h.flush();
        h.quiescent();
        h.collect();
        assert_eq!(pool.stats().in_grace, 0);

        let q = pool.alloc(Node::default);
        assert!(q.recycled);
        assert_eq!(q.ptr, p.ptr, "recycled slot is the retired one");
        drop(h);
    }

    #[test]
    fn dealloc_unpublished_skips_grace_period() {
        let pool: Arc<NodePool<Node>> = NodePool::with_chunk_capacity(8);
        let p = pool.alloc(Node::default);
        release(&pool, &[p.ptr]);
        let q = pool.alloc(Node::default);
        assert!(q.recycled);
        assert_eq!(q.ptr, p.ptr);
    }

    #[test]
    fn type_stability_stale_reader_sees_valid_node() {
        // A "stale" pointer kept across retire + recycle still reads a valid
        // Node (this is exactly what node caching does).
        let domain = Qsbr::new();
        let h = domain.register();
        let pool: Arc<NodePool<Node>> = NodePool::with_chunk_capacity(8);

        let p = pool.alloc(Node::default);
        let stale = p.ptr;
        // SAFETY: a fresh slot, unlinked (never published in this test).
        unsafe {
            (*p.ptr).key.store(7, Ordering::Relaxed);
            pool.retire(p.ptr, &h);
        }
        h.flush();
        h.quiescent();
        h.collect();
        let q = pool.alloc(Node::default);
        assert_eq!(q.ptr, stale);
        // The stale reader observes the *new* contents — detectable via the
        // version validation the data structures layer adds.
        // SAFETY: type-stable — the stale pointer still addresses a Node.
        unsafe {
            (*q.ptr).key.store(99, Ordering::Relaxed);
            assert_eq!((*stale).key.load(Ordering::Relaxed), 99);
        }
        drop(h);
    }

    #[test]
    fn magazine_hit_path_avoids_the_pool_lock() {
        let domain = Qsbr::new();
        let h = domain.register();
        let pool: Arc<NodePool<Node>> = NodePool::new();
        // Steady-state churn: one working slot cycling through the local
        // magazine.
        for _ in 0..1_000 {
            let p = pool.alloc(Node::default);
            retire(&pool, &[p.ptr], &h);
            h.flush();
            h.quiescent();
            h.collect();
        }
        let stats = pool.stats();
        assert_eq!(stats.allocations, 1_000);
        assert!(
            stats.magazine_hit_rate() > 0.99,
            "steady churn must stay in the magazine: {stats:?}"
        );
        drop(h);
    }

    #[test]
    fn overflow_exchanges_whole_magazines_with_the_depot() {
        let pool: Arc<NodePool<Node>> = NodePool::with_config(1024, 4);
        // Allocate enough live slots, then release them all without grace
        // (never published), overflowing loaded + prev into the depot.
        let ptrs: Vec<_> = (0..32).map(|_| pool.alloc(Node::default).ptr).collect();
        release(&pool, &ptrs);
        let stats = pool.stats();
        assert_eq!(stats.cached + stats.depot, 32, "{stats:?}");
        assert!(stats.depot > 0, "expected depot overflow: {stats:?}");
        assert_eq!(stats.live(), 0, "{stats:?}");
        // Re-allocating drains magazines first, then depot batches, and
        // hands back exactly the same 32 slots before growing.
        let cap = pool.capacity();
        let again: Vec<_> = (0..32).map(|_| pool.alloc(Node::default).ptr).collect();
        assert_eq!(pool.capacity(), cap, "no growth while free slots exist");
        let mut a: Vec<_> = ptrs.clone();
        let mut b: Vec<_> = again.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn conservation_ledger_balances_after_churn() {
        let domain = Qsbr::new();
        let h = domain.register();
        let pool: Arc<NodePool<Node>> = NodePool::with_config(16, 4);
        let mut live = Vec::new();
        for i in 0..200u64 {
            let p = pool.alloc(Node::default);
            live.push(p.ptr);
            if i % 3 == 0 {
                let victim = live.swap_remove((i as usize * 7) % live.len());
                retire(&pool, &[victim], &h);
            }
            h.quiescent();
        }
        h.flush();
        h.quiescent();
        h.collect();
        let stats = pool.stats();
        assert_eq!(stats.in_grace, 0, "{stats:?}");
        assert_eq!(stats.live() as usize, live.len(), "{stats:?}");
        assert_eq!(
            stats.capacity,
            stats.unallocated + stats.cached + stats.depot + stats.live(),
            "{stats:?}"
        );
        drop(h);
    }

    #[test]
    fn concurrent_alloc_retire_is_balanced() {
        let domain = Qsbr::new();
        let pool: Arc<NodePool<Node>> = NodePool::with_chunk_capacity(128);
        const THREADS: usize = 8;
        const OPS: usize = 10_000;

        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let domain = Arc::clone(&domain);
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                let h = domain.register();
                for i in 0..OPS {
                    let p = pool.alloc(Node::default);
                    // SAFETY: we are the only publisher of this slot, which
                    // is unlinked and retired once.
                    unsafe {
                        (*p.ptr).key.store(i as u64, Ordering::Release);
                        pool.retire(p.ptr, &h);
                    }
                    h.quiescent();
                }
                h.flush();
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(pool.allocations(), (THREADS * OPS) as u64);
        // Recycling must have happened (the pool would otherwise hold
        // THREADS*OPS slots).
        assert!(pool.capacity() < THREADS * OPS);
    }

    #[test]
    fn in_grace_is_exact_when_grace_ends_on_another_thread() {
        // Thread A retires and exits with the coordinator still silent, so
        // its batch is orphaned; the coordinator then completes the grace
        // period and recycles the slots into *its* magazine. The retire was
        // counted in A's magazine, the completion in the coordinator's.
        let domain = Qsbr::new();
        let pool: Arc<NodePool<Node>> = NodePool::new();
        let h = domain.register();
        const N: u64 = 70; // one sealed batch and a partial one
        std::thread::scope(|s| {
            s.spawn(|| {
                let a = domain.register();
                for _ in 0..N {
                    let p = pool.alloc(Node::default);
                    // SAFETY: never published, retired once.
                    unsafe { pool.retire(p.ptr, &a) };
                }
            });
        });
        let mid = pool.stats();
        assert_eq!(mid.in_grace, N, "{mid:?}");
        assert_eq!(mid.live(), 0, "{mid:?}");

        drop(h); // goes offline and collects the orphans
        let end = pool.stats();
        assert_eq!(end.in_grace, 0, "{end:?}");
        assert_eq!(end.live(), 0, "{end:?}");
        assert_eq!(
            end.capacity,
            end.unallocated + end.cached + end.depot,
            "{end:?}"
        );
        let q = domain.stats();
        assert_eq!((q.retired, q.freed), (N, N));
    }

    #[test]
    fn pool_references_are_per_batch_not_per_node() {
        let domain = Qsbr::new();
        let h = domain.register();
        let stalled = domain.register(); // holds every batch in limbo
        let pool: Arc<NodePool<Node>> = NodePool::new();
        let other: Arc<NodePool<Node>> = NodePool::new();
        const N: usize = 1_000;
        for i in 0..N {
            let p = pool.alloc(Node::default);
            // SAFETY: never published, retired once.
            unsafe { pool.retire(p.ptr, &h) };
            if i % 100 == 0 {
                let p = other.alloc(Node::default);
                // SAFETY: as above.
                unsafe { other.retire(p.ptr, &h) };
            }
        }
        assert_eq!(pool.stats().in_grace, N as u64);
        // One reference per batch that carries one of the pool's nodes
        // (sealed ones plus the pending one), plus ours.
        let batches = (N + N / 100).div_ceil(64);
        assert!(
            Arc::strong_count(&pool) <= 1 + batches,
            "{} references for {batches} batches",
            Arc::strong_count(&pool)
        );
        assert!(Arc::strong_count(&other) <= 1 + N / 100);

        drop(stalled);
        h.flush();
        h.quiescent();
        h.collect();
        assert_eq!(Arc::strong_count(&pool), 1);
        assert_eq!(Arc::strong_count(&other), 1);
        assert_eq!(pool.stats().in_grace, 0);
        assert_eq!(other.stats().in_grace, 0);
        drop(h);
    }

    #[test]
    fn chunk_slots_are_dense_and_aligned() {
        // Four magazine batches of four fill exactly one chunk of 16.
        let pool: Arc<NodePool<Node>> = NodePool::with_config(16, 4);
        let mut ptrs: Vec<usize> = (0..16)
            .map(|_| pool.alloc(Node::default).ptr as usize)
            .collect();
        assert_eq!(pool.capacity(), 16, "one chunk");
        ptrs.sort_unstable();
        for p in &ptrs {
            assert_eq!(p % std::mem::align_of::<Node>(), 0, "slot aligned");
        }
        for w in ptrs.windows(2) {
            assert_eq!(w[1] - w[0], std::mem::size_of::<Node>(), "dense slots");
        }
    }

    #[test]
    fn depot_refill_hands_back_the_last_surrendered_magazine() {
        let pool: Arc<NodePool<Node>> = NodePool::with_config(1024, 4);
        let ptrs: Vec<_> = (0..32).map(|_| pool.alloc(Node::default).ptr).collect();
        release(&pool, &ptrs);
        // loaded + prev hold the last 8 releases; the depot holds the
        // first 24 as six whole magazines, the newest on top.
        let st = pool.stats();
        assert_eq!((st.cached, st.depot), (8, 24), "{st:?}");
        let cached: Vec<_> = (0..8).map(|_| pool.alloc(Node::default)).collect();
        assert!(cached.iter().all(|p| p.recycled));
        assert_eq!(pool.stats().slow_allocs, 8, "cache hits take no trip");
        let refill: Vec<_> = (0..4).map(|_| pool.alloc(Node::default)).collect();
        assert!(refill.iter().all(|p| p.recycled));
        let st2 = pool.stats();
        assert_eq!(st2.slow_allocs, 9, "one trip per magazine: {st2:?}");
        assert_eq!(st2.depot, 20, "a whole magazine left the depot");
        // The refilled magazine is the last one surrendered: releases
        // 24..28 (28..32 stayed loaded, 0..4 stayed in `prev`).
        let mut got: Vec<_> = refill.iter().map(|p| p.ptr).collect();
        let mut expect = ptrs[24..28].to_vec();
        got.sort_unstable();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn depot_magazines_surrendered_on_one_thread_serve_another() {
        let pool: Arc<NodePool<Node>> = NodePool::with_config(1024, 4);
        let ptrs: Vec<_> = (0..32).map(|_| pool.alloc(Node::default).ptr).collect();
        release(&pool, &ptrs);
        let depot = pool.stats().depot as usize;
        let cap = pool.capacity();
        // This thread stays alive, so the other thread gets its own
        // (empty) magazine and must go through the depot.
        let got: Vec<(usize, bool)> = std::thread::scope(|s| {
            s.spawn(|| {
                (0..depot)
                    .map(|_| pool.alloc(Node::default))
                    .map(|p| (p.ptr as usize, p.recycled))
                    .collect()
            })
            .join()
            .unwrap()
        });
        assert!(got.iter().all(|p| p.1), "served from the depot");
        assert_eq!(pool.capacity(), cap, "no growth while the depot has slots");
        assert_eq!(pool.stats().depot, 0);
        // The depot held releases 4..28 (0..4 and 28..32 stayed cached).
        let mut a: Vec<_> = got.iter().map(|p| p.0).collect();
        let mut b: Vec<_> = ptrs[4..28].iter().map(|p| *p as usize).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn free_len_counts_magazines_and_depot() {
        let domain = Qsbr::new();
        let h = domain.register();
        let pool: Arc<NodePool<Node>> = NodePool::with_config(64, 4);
        let ptrs: Vec<_> = (0..40).map(|_| pool.alloc(Node::default).ptr).collect();
        release(&pool, &ptrs[..30]);
        retire(&pool, &ptrs[30..], &h);
        let st = pool.stats();
        assert_eq!(pool.free_len() as u64, st.cached + st.depot, "{st:?}");
        assert_eq!(pool.free_len(), 30, "slots in grace are not free");
        h.flush();
        h.quiescent();
        h.collect();
        assert_eq!(pool.free_len(), 40, "grace over: all 40 are free");
        drop(h);
    }

    #[test]
    fn recycled_alloc_skips_the_fresh_initializer() {
        let pool: Arc<NodePool<Node>> = NodePool::with_chunk_capacity(8);
        let p = pool.alloc(Node::default);
        key(&pool, p.ptr).store(7, Ordering::Relaxed);
        release(&pool, &[p.ptr]);
        let q = pool.alloc(|| panic!("recycled slots are not re-made"));
        assert!(q.recycled);
        assert_eq!(q.ptr, p.ptr);
        // Contents are left as released.
        assert_eq!(key(&pool, q.ptr).load(Ordering::Relaxed), 7);
    }

    #[test]
    fn alloc_init_overwrites_recycled_slots() {
        let pool: Arc<NodePool<Node>> = NodePool::with_chunk_capacity(8);
        let p = pool.alloc(Node::default);
        key(&pool, p.ptr).store(7, Ordering::Relaxed);
        release(&pool, &[p.ptr]);
        let q = pool.alloc_init(|| Node {
            key: AtomicU64::new(42),
        });
        assert_eq!(q, p.ptr, "the released slot is reused");
        assert_eq!(key(&pool, q).load(Ordering::Relaxed), 42);
        assert_eq!(pool.recycle_hits(), 1);
    }

    #[test]
    fn slow_allocs_count_one_trip_per_magazine_batch() {
        let pool: Arc<NodePool<Node>> = NodePool::with_config(1024, 4);
        for _ in 0..16 {
            pool.alloc(Node::default);
        }
        let st = pool.stats();
        assert_eq!((st.allocations, st.slow_allocs), (16, 4), "{st:?}");
        assert_eq!(st.recycle_hits, 0, "{st:?}");
        assert!((st.magazine_hit_rate() - 0.75).abs() < 1e-9, "{st:?}");
        assert_eq!(pool.capacity(), 1024, "batches share one chunk");
    }

    #[test]
    fn teardown_release_parks_slots_for_direct_reuse() {
        // A TLS value first touched *before* the thread index is claimed
        // is destroyed after it, so its destructor runs with no magazine
        // and exercises the pool's lock-protected fallback paths.
        struct AtExit {
            pool: Arc<NodePool<Node>>,
            slot: std::cell::Cell<*mut Node>,
            seen: Arc<std::sync::Mutex<Option<(bool, bool, usize)>>>,
        }
        impl Drop for AtExit {
            fn drop(&mut self) {
                let torn_down = thread_index().is_none();
                release(&self.pool, &[self.slot.get()]);
                let parked = self.pool.stats().depot as usize;
                let again = self.pool.alloc(Node::default);
                let same = again.recycled && again.ptr == self.slot.get();
                *self.seen.lock().unwrap() = Some((torn_down, same, parked));
            }
        }
        std::thread_local! {
            static AT_EXIT: std::cell::OnceCell<AtExit> =
                const { std::cell::OnceCell::new() };
        }
        let pool: Arc<NodePool<Node>> = NodePool::with_chunk_capacity(8);
        let seen = Arc::new(std::sync::Mutex::new(None));
        let (p, s) = (Arc::clone(&pool), Arc::clone(&seen));
        // A plain join (not a scope) also waits for the TLS destructors.
        std::thread::spawn(move || {
            AT_EXIT.with(|cell| {
                let at_exit = cell.get_or_init(|| AtExit {
                    pool: Arc::clone(&p),
                    slot: std::cell::Cell::new(std::ptr::null_mut()),
                    seen: s,
                });
                // Claims the thread index after AT_EXIT registered.
                at_exit.slot.set(p.alloc(Node::default).ptr);
            });
        })
        .join()
        .unwrap();
        let (torn_down, same, parked) = seen.lock().unwrap().expect("destructor ran");
        assert!(
            torn_down,
            "destructor ran after the thread index was released"
        );
        assert_eq!(parked, 1, "the released slot was parked under the lock");
        assert!(same, "the direct path hands the parked slot back");
        let st = pool.stats();
        assert_eq!((st.allocations, st.recycle_hits), (2, 1), "{st:?}");
        assert_eq!(st.depot, 0, "{st:?}");
    }

    #[test]
    #[should_panic(expected = "chunk capacity")]
    fn zero_chunk_capacity_panics() {
        let _ = NodePool::<Node>::with_chunk_capacity(0);
    }

    #[test]
    #[should_panic(expected = "magazine capacity")]
    fn zero_magazine_capacity_panics() {
        let _ = NodePool::<Node>::with_config(8, 0);
    }
}
