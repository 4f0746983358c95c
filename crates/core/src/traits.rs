//! The OPTIK-lock abstraction (§3.2 of the paper).

/// Release fence issued immediately after every successful lock
/// acquisition, *before* any critical-section store.
///
/// Why: optimistic readers validate snapshots by re-reading the version
/// after their data reads (seqlock style). For that validation to be sound,
/// a reader that observed one of our critical-section stores must also
/// observe the version as locked/advanced. The reader's acquire fence (in
/// [`OptikLock::validate`]) pairs with this release fence through the data
/// access itself. On x86 both fences compile to nothing.
#[inline]
pub(crate) fn acquired_fence() {
    core::sync::atomic::fence(core::sync::atomic::Ordering::Release);
}

/// An OPTIK version. Opaque: compare only through
/// [`OptikLock::is_same_version`] / [`OptikLock::is_locked_version`].
///
/// For [`crate::OptikVersioned`] this is the raw counter (odd = locked);
/// for [`crate::OptikTicket`] it packs both ticket halves.
pub type Version = u64;

/// The extended lock interface of the paper (§3.2).
///
/// Every implementation must provide *atomic* locking-and-validation: a
/// successful [`OptikLock::try_lock_version`] proves, with a single
/// compare-and-swap, that no conflicting critical section completed since
/// the version was read.
///
/// # Protocol
///
/// `unlock` and `revert` may only be called by the current lock holder;
/// they are safe functions because misuse cannot break memory safety of the
/// lock itself, but it breaks the mutual-exclusion guarantee for the data
/// the caller protects — exactly as with any raw lock. Data structures in
/// this workspace encapsulate the protocol internally. Implementations may
/// rely on it: [`crate::OptikVersioned`] releases with one plain store of a
/// value computed from the word it holds, which would overwrite another
/// thread's write if a non-holder called it.
pub trait OptikLock: Default + Send + Sync {
    /// Reads the current version (acquire semantics: optimistic reads that
    /// follow cannot be reordered before this load).
    fn get_version(&self) -> Version;

    /// Spins until the lock is free, then returns that free version.
    ///
    /// Used when the caller needs a version that is *not locked* as the
    /// baseline for later validation (e.g. the array-map search of §4.1).
    fn get_version_wait(&self) -> Version;

    /// Acquires the lock iff it is free **and** its version equals
    /// `target`. Single-CAS; returns whether the lock was acquired.
    fn try_lock_version(&self, target: Version) -> bool;

    /// Like [`OptikLock::try_lock_version`], additionally reporting how many
    /// CAS instructions were issued (0 when the pre-check short-circuits).
    /// Used by the Figure-5 reproduction.
    fn try_lock_version_counting(&self, target: Version) -> (bool, u32) {
        // Default: one CAS per attempt (implementations refine this).
        (self.try_lock_version(target), 1)
    }

    /// Blocking acquisition: spins until the lock is acquired, then returns
    /// whether the version at acquisition equaled `target` (i.e. whether
    /// the optimistic work is still valid).
    fn lock_version(&self, target: Version) -> bool;

    /// Blocking acquisition with no validation; returns the version that
    /// was acquired (useful as a plain lock).
    fn lock(&self) -> Version;

    /// Releases the lock, incrementing the version to signal a completed
    /// modification. Caller must hold the lock.
    fn unlock(&self);

    /// Releases the lock, *restoring* the pre-acquisition version: used when
    /// the critical section made no modification, to avoid signalling false
    /// conflicts to concurrent optimistic readers.
    ///
    /// Implementations unable to restore the version exactly in the current
    /// state (e.g. a ticket lock with queued waiters) fall back to a normal
    /// unlock; this is always correct, merely less precise.
    fn revert(&self);

    /// Whether a version value represents a locked state.
    fn is_locked_version(v: Version) -> bool;

    /// Validates that the version still equals `target`, with the memory
    /// ordering a seqlock-style read-side critical section needs: an acquire
    /// fence first, so the optimistic data reads that precede the call
    /// cannot be reordered past the version re-check.
    ///
    /// Use this (not a bare [`OptikLock::get_version`] comparison) to
    /// validate read-only snapshots, as in the array-map search of §4.1.
    fn validate(&self, target: Version) -> bool {
        core::sync::atomic::fence(core::sync::atomic::Ordering::Acquire);
        let now = self.get_version();
        // A currently-held lock means a writer may be mid-modification: the
        // snapshot cannot be trusted even if the version half still matches
        // (relevant for ticket locks, whose version ignores the queue half).
        !Self::is_locked_version(now) && Self::is_same_version(now, target)
    }

    /// Whether two versions are the same (ignoring lock bits where the
    /// representation has any).
    fn is_same_version(a: Version, b: Version) -> bool {
        a == b
    }

    /// Whether the lock is currently held.
    fn is_locked(&self) -> bool {
        Self::is_locked_version(self.get_version())
    }
}

/// Instantiates the conformance suite for a lock type.
#[cfg(test)]
macro_rules! optik_conformance_tests {
    ($lock:ty) => {
        mod conformance_suite {
            use super::*;
            use crate::traits::conformance as c;

            #[test]
            fn fresh_lock_is_free() {
                c::fresh_lock_is_free::<$lock>();
            }
            #[test]
            fn try_lock_version_succeeds_on_matching_version() {
                c::try_lock_version_succeeds_on_matching_version::<$lock>();
            }
            #[test]
            fn try_lock_version_fails_on_stale_version() {
                c::try_lock_version_fails_on_stale_version::<$lock>();
            }
            #[test]
            fn try_lock_version_fails_while_locked() {
                c::try_lock_version_fails_while_locked::<$lock>();
            }
            #[test]
            fn unlock_advances_version_revert_restores_it() {
                c::unlock_advances_version_revert_restores_it::<$lock>();
            }
            #[test]
            fn lock_version_reports_match() {
                c::lock_version_reports_match::<$lock>();
            }
            #[test]
            fn get_version_wait_returns_free_version() {
                c::get_version_wait_returns_free_version::<$lock>();
            }
            #[test]
            fn plain_lock_returns_acquired_version() {
                c::plain_lock_returns_acquired_version::<$lock>();
            }
            #[test]
            fn concurrent_increments_are_exact() {
                c::concurrent_increments_are_exact::<$lock>();
            }
            #[test]
            fn readers_never_see_torn_snapshots() {
                c::readers_never_see_torn_snapshots::<$lock>();
            }
        }
    };
}

#[cfg(test)]
pub(crate) use optik_conformance_tests;

#[cfg(test)]
pub(crate) mod conformance {
    //! Shared conformance suite run against every implementation.

    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    pub fn fresh_lock_is_free<L: OptikLock>() {
        let l = L::default();
        assert!(!l.is_locked());
        let v = l.get_version();
        assert!(!L::is_locked_version(v));
    }

    pub fn try_lock_version_succeeds_on_matching_version<L: OptikLock>() {
        let l = L::default();
        let v = l.get_version();
        assert!(l.try_lock_version(v));
        assert!(l.is_locked());
        l.unlock();
        assert!(!l.is_locked());
    }

    pub fn try_lock_version_fails_on_stale_version<L: OptikLock>() {
        let l = L::default();
        let stale = l.get_version();
        // Complete one critical section.
        assert!(l.try_lock_version(stale));
        l.unlock();
        // The stale version must now be rejected.
        assert!(!l.try_lock_version(stale));
    }

    pub fn try_lock_version_fails_while_locked<L: OptikLock>() {
        let l = L::default();
        let v = l.get_version();
        assert!(l.try_lock_version(v));
        let v2 = l.get_version();
        assert!(L::is_locked_version(v2));
        assert!(!l.try_lock_version(v2), "locked version must be rejected");
        assert!(!l.try_lock_version(v), "lock is held");
        l.unlock();
    }

    pub fn unlock_advances_version_revert_restores_it<L: OptikLock>() {
        let l = L::default();
        let v0 = l.get_version();
        assert!(l.try_lock_version(v0));
        l.unlock();
        let v1 = l.get_version();
        assert!(!L::is_same_version(v0, v1), "unlock must advance version");

        assert!(l.try_lock_version(v1));
        l.revert();
        let v2 = l.get_version();
        assert!(
            L::is_same_version(v1, v2),
            "revert with no waiters must restore the version"
        );
        // And the restored version must still be acquirable.
        assert!(l.try_lock_version(v2));
        l.unlock();
    }

    pub fn lock_version_reports_match<L: OptikLock>() {
        let l = L::default();
        let v = l.get_version();
        assert!(l.lock_version(v), "nothing changed: must validate");
        l.unlock();
        assert!(!l.lock_version(v), "version advanced: must report mismatch");
        l.unlock();
    }

    pub fn get_version_wait_returns_free_version<L: OptikLock>() {
        let l = L::default();
        let v = l.get_version_wait();
        assert!(!L::is_locked_version(v));
        assert!(l.try_lock_version(v));
        l.unlock();
    }

    pub fn plain_lock_returns_acquired_version<L: OptikLock>() {
        let l = L::default();
        let v = l.lock();
        assert!(!L::is_locked_version(v), "returned version is the free one");
        l.unlock();
        let v2 = l.lock();
        assert!(!L::is_same_version(v, v2));
        l.unlock();
    }

    /// Critical sections guarded by `try_lock_version` retry loops must be
    /// mutually exclusive and every completed one must advance the version.
    pub fn concurrent_increments_are_exact<L: OptikLock + 'static>() {
        const THREADS: usize = 8;
        const OPS: u64 = 20_000;
        let lock = Arc::new(L::default());
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..OPS {
                    loop {
                        let v = lock.get_version();
                        if L::is_locked_version(v) {
                            synchro::relax();
                            continue;
                        }
                        if lock.try_lock_version(v) {
                            let x = counter.load(Ordering::Relaxed);
                            counter.store(x + 1, Ordering::Relaxed);
                            lock.unlock();
                            break;
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), THREADS as u64 * OPS);
    }

    /// A writer loop plus optimistic readers that validate snapshots: a
    /// reader must never observe a torn pair under a validated version.
    pub fn readers_never_see_torn_snapshots<L: OptikLock + 'static>() {
        const WRITES: u64 = 30_000;
        let lock = Arc::new(L::default());
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicU64::new(0));

        let writer = {
            let (lock, a, b) = (Arc::clone(&lock), Arc::clone(&a), Arc::clone(&b));
            std::thread::spawn(move || {
                for i in 1..=WRITES {
                    let v = lock.lock();
                    let _ = v;
                    a.store(i, Ordering::Relaxed);
                    b.store(i, Ordering::Relaxed);
                    lock.unlock();
                }
            })
        };
        let mut readers = Vec::new();
        for _ in 0..4 {
            let (lock, a, b, stop) = (
                Arc::clone(&lock),
                Arc::clone(&a),
                Arc::clone(&b),
                Arc::clone(&stop),
            );
            readers.push(std::thread::spawn(move || {
                let mut validated = 0u64;
                while stop.load(Ordering::Relaxed) == 0 {
                    let v = lock.get_version_wait();
                    let ra = a.load(Ordering::Relaxed);
                    let rb = b.load(Ordering::Relaxed);
                    if lock.validate(v) {
                        assert_eq!(ra, rb, "validated snapshot was torn");
                        validated += 1;
                    }
                }
                assert!(validated > 0, "reader never validated anything");
            }));
        }
        writer.join().unwrap();
        // Give readers a quiet window so each is guaranteed to validate at
        // least one snapshot before we stop them.
        std::thread::sleep(std::time::Duration::from_millis(50));
        stop.store(1, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    }
}
