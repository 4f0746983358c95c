//! Pessimistic lock-based array map (the paper's *mcs* baseline, Fig. 7).
//!
//! "All three operations grab the lock and then traverse the array" (§4.1).
//! The global lock is an MCS queue lock, the strongest-scaling classic
//! choice for a heavily contended single lock.

use std::cell::UnsafeCell;

use synchro::McsLock;

use crate::{ArrayMap, Key, Val, EMPTY_KEY};

/// A fixed-capacity array map where every operation holds a global MCS lock.
pub struct LockArrayMap {
    lock: McsLock,
    slots: Box<[UnsafeCell<(Key, Val)>]>,
}

// SAFETY: every slot access happens inside the MCS critical section.
unsafe impl Send for LockArrayMap {}
unsafe impl Sync for LockArrayMap {}

impl LockArrayMap {
    /// Creates a map with `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            lock: McsLock::new(),
            slots: (0..capacity)
                .map(|_| UnsafeCell::new((EMPTY_KEY, 0)))
                .collect(),
        }
    }
}

impl ArrayMap for LockArrayMap {
    fn search(&self, key: Key) -> Option<Val> {
        debug_assert_ne!(key, EMPTY_KEY);
        self.lock.with(|| {
            for slot in self.slots.iter() {
                // SAFETY: inside the critical section.
                let (k, v) = unsafe { *slot.get() };
                if k == key {
                    return Some(v);
                }
            }
            None
        })
    }

    fn insert(&self, key: Key, val: Val) -> bool {
        debug_assert_ne!(key, EMPTY_KEY);
        self.lock.with(|| {
            let mut free = None;
            for (i, slot) in self.slots.iter().enumerate() {
                // SAFETY: inside the critical section.
                let (k, _) = unsafe { *slot.get() };
                if k == key {
                    return false;
                }
                if k == EMPTY_KEY && free.is_none() {
                    free = Some(i);
                }
            }
            match free {
                Some(i) => {
                    // SAFETY: inside the critical section.
                    unsafe { *self.slots[i].get() = (key, val) };
                    true
                }
                None => false,
            }
        })
    }

    fn delete(&self, key: Key) -> Option<Val> {
        debug_assert_ne!(key, EMPTY_KEY);
        self.lock.with(|| {
            for slot in self.slots.iter() {
                // SAFETY: inside the critical section.
                let (k, v) = unsafe { *slot.get() };
                if k == key {
                    // SAFETY: inside the critical section.
                    unsafe { (*slot.get()).0 = EMPTY_KEY };
                    return Some(v);
                }
            }
            None
        })
    }

    fn len(&self) -> usize {
        self.lock.with(|| {
            self.slots
                .iter()
                // SAFETY: inside the critical section.
                .filter(|s| unsafe { (*s.get()).0 } != EMPTY_KEY)
                .count()
        })
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_threaded_semantics() {
        let m = LockArrayMap::new(3);
        assert!(m.insert(7, 70));
        assert!(!m.insert(7, 71));
        assert_eq!(m.search(7), Some(70));
        assert_eq!(m.delete(7), Some(70));
        assert_eq!(m.search(7), None);
    }

    #[test]
    fn concurrent_unique_inserts_all_land() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 8;
        let m = Arc::new(LockArrayMap::new((THREADS * PER_THREAD) as usize));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let k = t * PER_THREAD + i + 1;
                    assert!(m.insert(k, k * 2));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.len(), (THREADS * PER_THREAD) as usize);
        for k in 1..=THREADS * PER_THREAD {
            assert_eq!(m.search(k), Some(k * 2));
        }
    }

    #[test]
    fn concurrent_insert_delete_count_is_consistent() {
        use std::sync::atomic::{AtomicI64, Ordering};
        let m = Arc::new(LockArrayMap::new(32));
        let net = Arc::new(AtomicI64::new(0));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let m = Arc::clone(&m);
            let net = Arc::clone(&net);
            handles.push(std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    let k = (t * 5_000 + i) % 40 + 1;
                    if i % 2 == 0 {
                        if m.insert(k, k) {
                            net.fetch_add(1, Ordering::Relaxed);
                        }
                    } else if m.delete(k).is_some() {
                        net.fetch_sub(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.len() as i64, net.load(Ordering::Relaxed));
    }
}
