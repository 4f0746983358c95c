//! The plain mutual-exclusion interface shared by the substrate spinlocks,
//! and a safe RAII wrapper for protecting data with any of them.

use core::cell::UnsafeCell;
use core::fmt;
use core::ops::{Deref, DerefMut};

/// A raw spinlock: mutual exclusion without an associated datum.
///
/// Implementations must guarantee that between a successful [`RawLock::lock`]
/// (or [`RawLock::try_lock`] returning `true`) and the matching
/// [`RawLock::unlock`], no other thread can complete an acquisition; the
/// acquisition must have *acquire* ordering and the release *release*
/// ordering, so that the critical section is properly fenced.
///
/// `unlock` is a safe function but is only meaningful when the caller holds
/// the lock; calling it otherwise breaks mutual exclusion for users of the
/// same lock (it cannot cause memory unsafety by itself because the raw lock
/// protects no data). The safe, misuse-proof interface is [`Lock`].
pub trait RawLock: Default + Send + Sync {
    /// Acquires the lock, spinning until available.
    fn lock(&self);
    /// Attempts to acquire the lock once; returns whether it was acquired.
    fn try_lock(&self) -> bool;
    /// Releases the lock. Caller must hold it.
    fn unlock(&self);
    /// Whether the lock is currently held by some thread.
    fn is_locked(&self) -> bool;
}

/// A value protected by a raw spinlock, with RAII guards.
///
/// # Examples
///
/// ```
/// use synchro::{Lock, TtasLock};
///
/// let counter: Lock<u64, TtasLock> = Lock::new(0);
/// {
///     let mut g = counter.lock();
///     *g += 1;
/// }
/// assert_eq!(*counter.lock(), 1);
/// ```
pub struct Lock<T, R: RawLock> {
    raw: R,
    data: UnsafeCell<T>,
}

// SAFETY: the raw lock serializes all access to `data`.
unsafe impl<T: Send, R: RawLock> Send for Lock<T, R> {}
// SAFETY: guards hand out &mut T only under mutual exclusion.
unsafe impl<T: Send, R: RawLock> Sync for Lock<T, R> {}

impl<T, R: RawLock> Lock<T, R> {
    /// Wraps `value` with a default-constructed raw lock.
    pub fn new(value: T) -> Self {
        Self {
            raw: R::default(),
            data: UnsafeCell::new(value),
        }
    }

    /// Acquires the lock, blocking (spinning) until available.
    pub fn lock(&self) -> LockGuard<'_, T, R> {
        self.raw.lock();
        optik_probe::count(optik_probe::Event::SpinAcquire);
        LockGuard {
            lock: self,
            acquired_at: optik_probe::now(),
        }
    }

    /// Attempts to acquire the lock without spinning.
    pub fn try_lock(&self) -> Option<LockGuard<'_, T, R>> {
        if self.raw.try_lock() {
            optik_probe::count(optik_probe::Event::SpinAcquire);
            Some(LockGuard {
                lock: self,
                acquired_at: optik_probe::now(),
            })
        } else {
            None
        }
    }

    /// Whether the lock is currently held.
    pub fn is_locked(&self) -> bool {
        self.raw.is_locked()
    }

    /// Returns a mutable reference without locking; safe because `&mut self`
    /// proves unique access.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: fmt::Debug, R: RawLock> fmt::Debug for Lock<T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(g) = self.try_lock() {
            f.debug_struct("Lock").field("data", &*g).finish()
        } else {
            f.debug_struct("Lock").field("data", &"<locked>").finish()
        }
    }
}

impl<T: Default, R: RawLock> Default for Lock<T, R> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

/// RAII guard for [`Lock`]; releases on drop.
pub struct LockGuard<'a, T, R: RawLock> {
    lock: &'a Lock<T, R>,
    /// Probe timestamp at acquisition (the constant 0 when the probe
    /// feature is off, where the hold-time record below is also a no-op).
    acquired_at: u64,
}

impl<T, R: RawLock> Deref for LockGuard<'_, T, R> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard holds the lock, so access is exclusive.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T, R: RawLock> DerefMut for LockGuard<'_, T, R> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard holds the lock, so access is exclusive.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T, R: RawLock> Drop for LockGuard<'_, T, R> {
    fn drop(&mut self) {
        self.lock.raw.unlock();
        optik_probe::record(
            optik_probe::HistKind::LockHold,
            optik_probe::elapsed(self.acquired_at, optik_probe::now()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TtasLock;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn ttas_counter_is_exact() {
        const THREADS: usize = 8;
        let iters = crate::stress::ops(10_000);
        let lock: Arc<Lock<u64, TtasLock>> = Arc::new(Lock::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let lock = Arc::clone(&lock);
            handles.push(thread::spawn(move || {
                for _ in 0..iters {
                    *lock.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*lock.lock(), THREADS as u64 * iters);
    }

    #[test]
    fn try_lock_fails_while_held() {
        let lock: Lock<i32, TtasLock> = Lock::new(7);
        let g = lock.lock();
        assert!(lock.try_lock().is_none());
        assert!(lock.is_locked());
        drop(g);
        assert!(!lock.is_locked());
        assert_eq!(*lock.try_lock().unwrap(), 7);
    }

    #[test]
    fn get_mut_and_into_inner() {
        let mut lock: Lock<i32, TtasLock> = Lock::new(1);
        *lock.get_mut() = 5;
        assert_eq!(lock.into_inner(), 5);
    }

    #[test]
    fn debug_formats_both_states() {
        let lock: Lock<i32, TtasLock> = Lock::new(3);
        assert!(format!("{lock:?}").contains('3'));
        let g = lock.lock();
        assert!(format!("{lock:?}").contains("locked"));
        drop(g);
    }
}
