//! Schedulable atomics: the explorer's window into the OPTIK hot paths.
//!
//! Every shared word that participates in an OPTIK *validation point* —
//! the shard version locks, the routing-table bounds, the TTL clock and
//! sweep cursor — is held in one of the wrapper types below instead of a
//! raw `core::sync::atomic` type. In a normal build the wrappers are
//! `#[repr(transparent)]` newtypes whose `#[inline]` methods compile to
//! the identical raw atomic instruction: zero cost, no branches, nothing
//! to measure.
//!
//! Under `--cfg optik_explore` each operation first reports itself to the
//! **explore hook** — a per-thread trap installed by the deterministic
//! schedule explorer (`optik-explore`). The trap parks the thread until
//! the explorer's cooperative scheduler grants it the next step, which
//! turns every shim operation into a *yield point*: the explorer can
//! enumerate, bound, record, and byte-exactly replay the interleavings of
//! every validation point without touching the code under test.
//!
//! The hook machinery itself ([`Access`], [`ExploreHook`],
//! [`yield_point`], [`install_hook`]) is compiled unconditionally — it is
//! a few dozen bytes and lets the explorer's own model programs run under
//! plain `cargo test` — but nothing in the workspace *calls* it outside
//! `--cfg optik_explore` builds, so the tier-1 hot paths never pay for it.
//!
//! One read does not trap: [`AtomicU64::load_owned`], the owner load. A
//! thread may use it only on a word that no other thread can change while
//! it reads and then stores it — an OPTIK lock word held by the caller,
//! which every other thread can only CAS from an even value. Its result is
//! fixed whatever the other threads do, so trapping it would only add
//! schedules that differ in nothing; the store that follows it traps as
//! usual.
//!
//! Yield-point granularity: only shim-wrapped words trap. Backend map
//! internals (node links, value cells) keep their raw atomics, so a
//! backend operation executes atomically *between* two validation points.
//! That is deliberate — the explorer targets the store-level
//! validate-and-retry logic; the backends have their own linearizability
//! tier.

use core::sync::atomic::Ordering;
use std::cell::RefCell;
use std::sync::Arc;

/// What a trapped operation is about to do. `Load` never changes the
/// word; `Store` and `Rmw` do (the explorer uses this to re-enable
/// spin-waiting threads parked on a [`AccessKind::Yield`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// An atomic load.
    Load,
    /// An atomic store.
    Store,
    /// An atomic read-modify-write (swap, fetch-add, compare-exchange —
    /// reported before the attempt, so a failed CAS also traps once).
    Rmw,
    /// A voluntary yield ([`crate::relax`] inside a spin-wait): the
    /// thread is waiting for *another* thread's write and should not be
    /// rescheduled until one happens.
    Yield,
    /// A model thread announcing itself before its first instruction.
    Start,
}

/// One yield point: the raw address of the word (the explorer interns it
/// into a stable per-schedule object id) and what is about to happen.
#[derive(Debug, Clone, Copy)]
pub struct Access {
    /// Address of the atomic word, `0` for [`AccessKind::Yield`] /
    /// [`AccessKind::Start`].
    pub addr: usize,
    /// Operation class.
    pub kind: AccessKind,
}

impl Access {
    /// A yield-point for a voluntary spin-wait yield.
    pub const YIELD: Access = Access {
        addr: 0,
        kind: AccessKind::Yield,
    };
    /// A yield-point for a model thread about to start.
    pub const START: Access = Access {
        addr: 0,
        kind: AccessKind::Start,
    };
}

/// The explorer side of a trap. Implementations park the calling thread
/// until its next step is granted; returning resumes the operation.
pub trait ExploreHook: Send + Sync {
    /// Called by an instrumented thread immediately *before* it performs
    /// `access`.
    fn yield_point(&self, access: Access);
}

std::thread_local! {
    static HOOK: RefCell<Option<Arc<dyn ExploreHook>>> = const { RefCell::new(None) };
}

/// Installs `hook` as this thread's trap. Returns a guard that removes it
/// on drop (including unwinds), restoring pass-through behavior.
pub fn install_hook(hook: Arc<dyn ExploreHook>) -> HookGuard {
    HOOK.with(|h| *h.borrow_mut() = Some(hook));
    HookGuard { _private: () }
}

/// Uninstalls this thread's explore hook when dropped.
#[must_use = "dropping the guard immediately uninstalls the hook"]
pub struct HookGuard {
    _private: (),
}

impl Drop for HookGuard {
    fn drop(&mut self) {
        HOOK.with(|h| *h.borrow_mut() = None);
    }
}

/// Whether the calling thread runs under an explore hook.
#[inline]
pub fn hook_active() -> bool {
    HOOK.with(|h| h.borrow().is_some())
}

/// Reports `access` to this thread's hook, parking until the scheduler
/// grants the step. No-op when no hook is installed.
#[inline]
pub fn yield_point(access: Access) {
    // Clone the Arc out so the RefCell borrow is released before the
    // (potentially long) park — the hook may be re-entered by panic
    // payload drops otherwise.
    let hook = HOOK.with(|h| h.borrow().clone());
    if let Some(hook) = hook {
        hook.yield_point(access);
    }
}

macro_rules! shim_atomic {
    ($(#[$meta:meta])* $name:ident, $raw:path, $prim:ty) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        #[repr(transparent)]
        pub struct $name {
            word: $raw,
        }

        impl $name {
            /// Creates a new atomic initialized to `v`.
            #[inline]
            pub const fn new(v: $prim) -> Self {
                Self { word: <$raw>::new(v) }
            }

            #[cfg(optik_explore)]
            #[inline]
            fn trap(&self, kind: AccessKind) {
                yield_point(Access {
                    addr: &self.word as *const _ as usize,
                    kind,
                });
            }

            #[cfg(not(optik_explore))]
            #[inline(always)]
            fn trap(&self, _kind: AccessKind) {}

            /// Atomic load.
            #[inline]
            pub fn load(&self, order: Ordering) -> $prim {
                self.trap(AccessKind::Load);
                self.word.load(order)
            }

            /// Atomic store.
            #[inline]
            pub fn store(&self, v: $prim, order: Ordering) {
                self.trap(AccessKind::Store);
                self.word.store(v, order)
            }

            /// Atomic swap.
            #[inline]
            pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                self.trap(AccessKind::Rmw);
                self.word.swap(v, order)
            }

            /// Atomic fetch-add (wrapping).
            #[inline]
            pub fn fetch_add(&self, v: $prim, order: Ordering) -> $prim {
                self.trap(AccessKind::Rmw);
                self.word.fetch_add(v, order)
            }

            /// Atomic fetch-sub (wrapping).
            #[inline]
            pub fn fetch_sub(&self, v: $prim, order: Ordering) -> $prim {
                self.trap(AccessKind::Rmw);
                self.word.fetch_sub(v, order)
            }

            /// Atomic fetch-max.
            #[inline]
            pub fn fetch_max(&self, v: $prim, order: Ordering) -> $prim {
                self.trap(AccessKind::Rmw);
                self.word.fetch_max(v, order)
            }

            /// Atomic compare-exchange (strong). The trap fires before
            /// the attempt, so failed exchanges are schedule points too —
            /// exactly the OPTIK `try_lock_version` race the explorer
            /// needs to drive both ways.
            #[inline]
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                self.trap(AccessKind::Rmw);
                self.word.compare_exchange(current, new, success, failure)
            }

            /// Plain (non-atomic) read of the raw value via `&mut`.
            #[inline]
            pub fn get_mut(&mut self) -> &mut $prim {
                self.word.get_mut()
            }
        }
    };
}

shim_atomic!(
    /// Schedulable [`core::sync::atomic::AtomicU64`]: pass-through in
    /// normal builds, a yield point per operation under
    /// `--cfg optik_explore`.
    AtomicU64,
    core::sync::atomic::AtomicU64,
    u64
);

shim_atomic!(
    /// Schedulable [`core::sync::atomic::AtomicUsize`] (see [`AtomicU64`]).
    AtomicUsize,
    core::sync::atomic::AtomicUsize,
    usize
);

impl AtomicU64 {
    /// Relaxed load of a word that only the calling thread can change,
    /// such as an OPTIK lock word its holder reads back before releasing
    /// it with a [`AtomicU64::store`]. Never a yield point: nothing another
    /// thread does can change what it returns, so the explorer has no
    /// interleaving to enumerate here. `Relaxed` suffices: the word's last
    /// write is the caller's own, and a thread always reads back its own
    /// latest write to a location.
    ///
    /// Sound only on such a word. Where another thread may write it, the
    /// value read can be stale by the time it is used, and a store derived
    /// from it loses that thread's write: use a read-modify-write instead.
    #[inline]
    pub fn load_owned(&self) -> u64 {
        self.word.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::SeqCst;
    use std::sync::Mutex;

    #[test]
    fn passthrough_semantics_match_raw_atomics() {
        let a = AtomicU64::new(5);
        assert_eq!(a.load(SeqCst), 5);
        a.store(7, SeqCst);
        assert_eq!(a.swap(9, SeqCst), 7);
        assert_eq!(a.fetch_add(1, SeqCst), 9);
        assert_eq!(a.fetch_sub(2, SeqCst), 10);
        assert_eq!(a.fetch_max(100, SeqCst), 8);
        assert_eq!(a.compare_exchange(100, 3, SeqCst, SeqCst), Ok(100));
        assert_eq!(a.compare_exchange(100, 4, SeqCst, SeqCst), Err(3));
        assert_eq!(a.load_owned(), 3);
        let mut a = a;
        assert_eq!(*a.get_mut(), 3);
    }

    #[test]
    fn shim_is_layout_transparent() {
        // The normal-build wrapper must add nothing: CachePadded sums and
        // struct layouts are part of the measured hot paths.
        assert_eq!(
            core::mem::size_of::<AtomicU64>(),
            core::mem::size_of::<core::sync::atomic::AtomicU64>()
        );
        assert_eq!(
            core::mem::size_of::<AtomicUsize>(),
            core::mem::size_of::<core::sync::atomic::AtomicUsize>()
        );
    }

    struct CountingHook(Mutex<Vec<AccessKind>>);
    impl ExploreHook for CountingHook {
        fn yield_point(&self, access: Access) {
            self.0.lock().unwrap().push(access.kind);
        }
    }

    #[test]
    fn hook_registration_is_per_thread_and_guard_scoped() {
        let hook = Arc::new(CountingHook(Mutex::new(Vec::new())));
        assert!(!hook_active());
        {
            let _g = install_hook(hook.clone());
            assert!(hook_active());
            yield_point(Access::YIELD);
            yield_point(Access::START);
            // Another thread never sees this thread's hook.
            std::thread::scope(|s| {
                s.spawn(|| {
                    assert!(!hook_active());
                    yield_point(Access::YIELD); // silently ignored
                });
            });
        }
        assert!(!hook_active());
        yield_point(Access::YIELD); // ignored after guard drop
        assert_eq!(
            *hook.0.lock().unwrap(),
            vec![AccessKind::Yield, AccessKind::Start]
        );
    }
}
