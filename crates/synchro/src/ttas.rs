//! Test-and-test-and-set spinlock.
//!
//! Unlike a plain test-and-set lock, it spins on a plain load while the lock
//! is held, only attempting the atomic swap once the lock is observed free. Waiters
//! therefore spin in their local caches and the line is invalidated only on
//! actual acquisition attempts. This is the lock used in the paper's Fig. 5
//! straw-man ("4 bytes for a test-and-test-and-set lock and 4 bytes for the
//! version number").

use core::sync::atomic::{AtomicBool, Ordering};

use crate::lock_api::RawLock;

/// A test-and-test-and-set spinlock.
#[derive(Debug, Default)]
pub struct TtasLock {
    locked: AtomicBool,
}

impl TtasLock {
    /// Creates an unlocked lock.
    pub const fn new() -> Self {
        Self {
            locked: AtomicBool::new(false),
        }
    }
}

impl RawLock for TtasLock {
    #[inline]
    fn lock(&self) {
        loop {
            // Test: spin locally while held.
            while self.locked.load(Ordering::Relaxed) {
                crate::relax();
            }
            // Test-and-set: attempt the acquisition.
            if !self.locked.swap(true, Ordering::Acquire) {
                return;
            }
        }
    }

    #[inline]
    fn try_lock(&self) -> bool {
        // Avoid the write traffic of a doomed swap.
        !self.locked.load(Ordering::Relaxed) && !self.locked.swap(true, Ordering::Acquire)
    }

    #[inline]
    fn unlock(&self) {
        self.locked.store(false, Ordering::Release);
    }

    #[inline]
    fn is_locked(&self) -> bool {
        self.locked.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_lock_unlock() {
        let l = TtasLock::new();
        l.lock();
        assert!(l.is_locked());
        assert!(!l.try_lock());
        l.unlock();
        assert!(l.try_lock());
        l.unlock();
        assert!(!l.is_locked());
    }

    #[test]
    fn critical_sections_are_exclusive() {
        use std::sync::Arc;

        let iters = crate::stress::ops(10_000);
        let lock = Arc::new(TtasLock::new());
        let data = Arc::new(core::sync::atomic::AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let lock = Arc::clone(&lock);
            let data = Arc::clone(&data);
            handles.push(std::thread::spawn(move || {
                for _ in 0..iters {
                    lock.lock();
                    // Non-atomic-looking read-modify-write through two atomics
                    // ops; exclusivity makes it exact.
                    let v = data.load(Ordering::Relaxed);
                    data.store(v + 1, Ordering::Relaxed);
                    lock.unlock();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(data.load(Ordering::Relaxed), 8 * iters);
    }
}
