//! OPTIK lock on top of a versioned lock (Figure 4 of the paper).
//!
//! A single 8-byte counter: even = free, odd = locked. Acquisition CASes an
//! even value `v` to `v + 1`; `unlock` stores `v + 2` (the next even value,
//! advancing the version), `revert` stores `v` (restoring the
//! pre-acquisition version). Both releases are plain release stores, not
//! read-modify-writes: every acquisition CASes *from an even value*, so
//! while the word is odd no other thread can write it, and the holder
//! already knows the value it replaces. A thread would have to sleep for
//! 2^63 acquisitions for the version to wrap into a false validation.

use core::sync::atomic::Ordering;

// The lock word is the central OPTIK validation point, so it lives in the
// schedulable shim type: identical codegen to a raw `AtomicU64` in normal
// builds, a yield point per access under `--cfg optik_explore` so the
// deterministic explorer can enumerate every try_lock_version race.
use synchro::shim::AtomicU64;

use crate::traits::{OptikLock, Version};

const LOCKED_BIT: u64 = 0x1;

/// The versioned-lock OPTIK implementation (the paper's default; ours too).
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct OptikVersioned {
    word: AtomicU64,
}

impl OptikVersioned {
    /// Creates a fresh, unlocked lock with version 0 (`OPTIK_INIT`).
    pub const fn new() -> Self {
        Self {
            word: AtomicU64::new(0),
        }
    }

    /// Creates a lock seeded at an arbitrary (even) version — handy for
    /// tests exercising wrap-around behaviour.
    pub const fn with_version(v: u64) -> Self {
        Self {
            word: AtomicU64::new(v & !LOCKED_BIT),
        }
    }
}

impl OptikLock for OptikVersioned {
    #[inline]
    fn get_version(&self) -> Version {
        self.word.load(Ordering::Acquire)
    }

    #[inline]
    fn get_version_wait(&self) -> Version {
        loop {
            let v = self.word.load(Ordering::Acquire);
            if v & LOCKED_BIT == 0 {
                return v;
            }
            synchro::relax();
        }
    }

    #[inline]
    fn try_lock_version(&self, target: Version) -> bool {
        // Pre-checks (paper, Fig. 4 lines 6–7): a locked target can never be
        // CASed (we would make an odd value even), and a mismatched current
        // version makes the CAS pointless — skip the expensive instruction.
        // Relaxed is sound here: the load is a pure fast-fail hint. A stale
        // value can only cause a spurious failure (the caller revalidates and
        // retries, OPTIK style) or a spurious pass, in which case the CAS
        // below re-checks the value with Acquire and is the real gate.
        if target & LOCKED_BIT != 0 || self.word.load(Ordering::Relaxed) != target {
            optik_probe::count(optik_probe::Event::ValidationFail);
            return false;
        }
        let ok = self
            .word
            .compare_exchange(target, target + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok();
        if ok {
            crate::traits::acquired_fence();
            optik_probe::lock_acquired();
        } else {
            optik_probe::count(optik_probe::Event::ValidationFail);
        }
        ok
    }

    #[inline]
    fn try_lock_version_counting(&self, target: Version) -> (bool, u32) {
        if target & LOCKED_BIT != 0 || self.word.load(Ordering::Relaxed) != target {
            optik_probe::count(optik_probe::Event::ValidationFail);
            return (false, 0);
        }
        let ok = self
            .word
            .compare_exchange(target, target + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok();
        if ok {
            crate::traits::acquired_fence();
            optik_probe::lock_acquired();
        } else {
            optik_probe::count(optik_probe::Event::ValidationFail);
        }
        (ok, 1)
    }

    #[inline]
    fn lock_version(&self, target: Version) -> bool {
        loop {
            let mut cur = self.word.load(Ordering::Relaxed);
            while cur & LOCKED_BIT != 0 {
                synchro::relax();
                cur = self.word.load(Ordering::Relaxed);
            }
            if self
                .word
                .compare_exchange(cur, cur + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                crate::traits::acquired_fence();
                optik_probe::lock_acquired();
                if cur != target {
                    // Acquired, but the version moved past the caller's
                    // snapshot: the OPTIK contract reports the validation
                    // failure and lets the caller redo its work under the
                    // lock it now holds.
                    optik_probe::count(optik_probe::Event::ValidationFail);
                }
                return cur == target;
            }
        }
    }

    #[inline]
    fn lock(&self) -> Version {
        loop {
            let mut cur = self.word.load(Ordering::Relaxed);
            while cur & LOCKED_BIT != 0 {
                synchro::relax();
                cur = self.word.load(Ordering::Relaxed);
            }
            if self
                .word
                .compare_exchange(cur, cur + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                crate::traits::acquired_fence();
                optik_probe::lock_acquired();
                return cur;
            }
        }
    }

    /// Stores the next even version. A release store suffices: the word
    /// is odd while we hold it, every acquisition CASes from an even value,
    /// so no other thread writes it until this store lands, and the odd
    /// value we read back is our own.
    #[inline]
    fn unlock(&self) {
        let v = self.word.load_owned();
        self.word.store(v.wrapping_add(1), Ordering::Release);
        optik_probe::lock_released();
    }

    /// Stores the pre-acquisition version back; a release store for the
    /// same reason as [`OptikVersioned::unlock`].
    #[inline]
    fn revert(&self) {
        let v = self.word.load_owned();
        self.word.store(v.wrapping_sub(1), Ordering::Release);
        optik_probe::lock_released();
    }

    #[inline]
    fn is_locked_version(v: Version) -> bool {
        v & LOCKED_BIT != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::optik_conformance_tests;

    optik_conformance_tests!(OptikVersioned);

    #[test]
    fn odd_versions_are_locked() {
        assert!(!OptikVersioned::is_locked_version(0));
        assert!(OptikVersioned::is_locked_version(1));
        assert!(!OptikVersioned::is_locked_version(2));
        assert!(OptikVersioned::is_locked_version(u64::MAX));
    }

    #[test]
    fn with_version_clears_lock_bit() {
        let l = OptikVersioned::with_version(7);
        assert_eq!(l.get_version(), 6);
        assert!(!l.is_locked());
    }

    #[test]
    fn version_advances_by_two_per_critical_section() {
        let l = OptikVersioned::new();
        let v0 = l.get_version();
        assert!(l.try_lock_version(v0));
        l.unlock();
        assert_eq!(l.get_version(), v0 + 2);
    }

    #[test]
    fn counting_skips_cas_on_mismatch() {
        let l = OptikVersioned::new();
        let stale = l.get_version();
        assert!(l.try_lock_version(stale));
        l.unlock();
        let (ok, cas) = l.try_lock_version_counting(stale);
        assert!(!ok);
        assert_eq!(cas, 0, "pre-check must avoid the CAS");
        let (ok, cas) = l.try_lock_version_counting(l.get_version());
        assert!(ok);
        assert_eq!(cas, 1);
        l.unlock();
    }

    #[test]
    fn wraparound_near_max_still_works() {
        let l = OptikVersioned::with_version(u64::MAX - 1); // even
        let v = l.get_version();
        assert!(l.try_lock_version(v));
        l.unlock(); // wraps to 0
        assert_eq!(l.get_version(), 0);
        assert!(!l.is_locked());

        let l = OptikVersioned::with_version(u64::MAX - 1);
        assert!(l.try_lock_version(u64::MAX - 1));
        assert_eq!(l.get_version(), u64::MAX);
        l.revert();
        assert_eq!(l.get_version(), u64::MAX - 1);
        assert!(!l.is_locked());
    }

    /// The releases are plain stores, so a lost or doubled update of the
    /// word would show in its final value: after any mix of critical
    /// sections it must equal two per `unlock` (a `revert` restores).
    /// The shared counter is bumped with a load and a store, so it counts
    /// exactly only if the sections exclude each other.
    #[test]
    fn version_accounts_for_every_unlock_under_contention() {
        use std::sync::atomic::AtomicU64 as Counter;
        const THREADS: u64 = 4;
        const ROUNDS: u64 = 20_000;
        let l = OptikVersioned::new();
        let counter = Counter::new(0);
        let bump = || {
            let c = counter.load(Ordering::Relaxed);
            counter.store(c + 1, Ordering::Relaxed);
        };
        // A revert section rewrites the counter unchanged: a concurrent
        // bump it overlapped would be lost.
        let touch = || {
            let c = counter.load(Ordering::Relaxed);
            counter.store(c, Ordering::Relaxed);
        };
        let unlocks: u64 = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (l, bump, touch) = (&l, &bump, &touch);
                    s.spawn(move || {
                        let stale = l.get_version();
                        let mut unlocks = 0;
                        for i in 0..ROUNDS {
                            match (t + i) % 3 {
                                0 => {
                                    l.lock();
                                    bump();
                                    l.unlock();
                                    unlocks += 1;
                                }
                                1 => {
                                    if l.try_lock_version(l.get_version()) {
                                        touch();
                                        l.revert();
                                    } else {
                                        synchro::relax();
                                    }
                                }
                                _ => {
                                    let _ = l.lock_version(stale);
                                    touch();
                                    l.revert();
                                }
                            }
                        }
                        unlocks
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(l.get_version(), 2 * unlocks);
        assert_eq!(counter.load(Ordering::Relaxed), unlocks);
    }
}
