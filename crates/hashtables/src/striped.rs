//! ConcurrentHashMap-style striped hash table (*java*, §5.2).
//!
//! Re-implementation of the design the paper benchmarks as `java`
//! (Lea's `util.concurrent.ConcurrentHashMap` [34], as ported to C in
//! ASCYLIB): the bucket array is partitioned into `n` *segments*, each
//! protected by one lock. Searches are lock-free; **updates lock their
//! segment regardless of whether the operation is feasible** — the
//! unnecessary locking the paper's OPTIK variant removes.
//!
//! Buckets are unsorted chains with head insertion (as in CHM).

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use reclaim::NodePool;
use synchro::{CachePadded, RawLock, TtasLock};

use crate::{bucket_of, ConcurrentSet, Key, Val, DEFAULT_SEGMENTS};

pub(crate) struct Node {
    pub(crate) key: Key,
    /// Atomic so the map-interface `put` can replace it in place while
    /// lock-free readers traverse the chain.
    pub(crate) val: AtomicU64,
    pub(crate) next: AtomicPtr<Node>,
}

impl Node {
    pub(crate) fn make(key: Key, val: Val, next: *mut Node) -> Self {
        Node {
            key,
            val: AtomicU64::new(val),
            next: AtomicPtr::new(next),
        }
    }
}

/// One type-stable node pool per table, shared by all chains. The striped
/// tables never cache node pointers across operations, so recycled slots
/// are plainly re-initialized (`alloc_init`) after their grace period.
pub(crate) type ChainPool = Arc<NodePool<Node>>;

pub(crate) fn chain_pool() -> ChainPool {
    NodePool::new()
}

/// Lock-free walk of one chain, visiting every `(key, value)` — the one
/// traversal all three striped tables' `for_each` implementations share.
///
/// # Safety
///
/// QSBR grace period required (the caller must be a registered,
/// non-quiescing thread so retired nodes stay readable).
pub(crate) unsafe fn for_each_chain(head: &AtomicPtr<Node>, f: &mut dyn FnMut(Key, Val)) {
    // SAFETY: per contract.
    unsafe {
        let mut cur = head.load(Ordering::Acquire);
        while !cur.is_null() {
            f((*cur).key, (*cur).val.load(Ordering::Acquire));
            cur = (*cur).next.load(Ordering::Acquire);
        }
    }
}

/// The striped (`java`) hash table.
pub struct StripedHashTable {
    buckets: Box<[AtomicPtr<Node>]>,
    segments: Box<[CachePadded<TtasLock>]>,
    pool: ChainPool,
}

// SAFETY: updates are serialized per segment; searches read atomic
// pointers of QSBR-protected nodes.
unsafe impl Send for StripedHashTable {}
unsafe impl Sync for StripedHashTable {}

impl StripedHashTable {
    /// Creates a table with `buckets` buckets and `segments` lock stripes.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(buckets: usize, segments: usize) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        assert!(segments > 0, "need at least one segment");
        Self {
            buckets: (0..buckets)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
            segments: (0..segments)
                .map(|_| CachePadded::new(TtasLock::new()))
                .collect(),
            pool: chain_pool(),
        }
    }

    /// Creates a table with the paper's default of 128 segments.
    pub fn with_default_segments(buckets: usize) -> Self {
        Self::new(buckets, DEFAULT_SEGMENTS)
    }

    #[inline]
    fn segment(&self, bucket: usize) -> &TtasLock {
        &self.segments[bucket % self.segments.len()]
    }

    /// Lock-free bucket lookup.
    ///
    /// # Safety
    ///
    /// QSBR grace period required.
    #[inline]
    unsafe fn find(&self, bucket: usize, key: Key) -> Option<Val> {
        // SAFETY: per contract.
        unsafe {
            let mut cur = self.buckets[bucket].load(Ordering::Acquire);
            while !cur.is_null() {
                if (*cur).key == key {
                    return Some((*cur).val.load(Ordering::Acquire));
                }
                cur = (*cur).next.load(Ordering::Acquire);
            }
            None
        }
    }
}

impl ConcurrentSet for StripedHashTable {
    fn search(&self, key: Key) -> Option<Val> {
        reclaim::quiescent();
        let b = bucket_of(key, self.buckets.len());
        // SAFETY: grace period.
        unsafe { self.find(b, key) }
    }

    fn insert(&self, key: Key, val: Val) -> bool {
        reclaim::quiescent();
        let b = bucket_of(key, self.buckets.len());
        let seg = self.segment(b);
        // Java behaviour: lock first, feasible or not.
        seg.lock();
        // SAFETY: segment lock held; grace period for reads.
        let r = unsafe {
            if self.find(b, key).is_some() {
                false
            } else {
                let head = self.buckets[b].load(Ordering::Relaxed);
                let node = self.pool.alloc_init(|| Node::make(key, val, head));
                self.buckets[b].store(node, Ordering::Release);
                true
            }
        };
        seg.unlock();
        r
    }

    fn delete(&self, key: Key) -> Option<Val> {
        reclaim::quiescent();
        let b = bucket_of(key, self.buckets.len());
        let seg = self.segment(b);
        seg.lock();
        // SAFETY: segment lock held.
        let r = unsafe {
            let mut prev: *mut Node = std::ptr::null_mut();
            let mut cur = self.buckets[b].load(Ordering::Relaxed);
            loop {
                if cur.is_null() {
                    break None;
                }
                if (*cur).key == key {
                    let next = (*cur).next.load(Ordering::Relaxed);
                    if prev.is_null() {
                        self.buckets[b].store(next, Ordering::Release);
                    } else {
                        (*prev).next.store(next, Ordering::Release);
                    }
                    let val = (*cur).val.load(Ordering::Relaxed);
                    // SAFETY: unlinked exactly once under the lock.
                    reclaim::with_local(|h| self.pool.retire(cur, h));
                    break Some(val);
                }
                prev = cur;
                cur = (*cur).next.load(Ordering::Relaxed);
            }
        };
        seg.unlock();
        r
    }

    fn len(&self) -> usize {
        reclaim::quiescent();
        let mut n = 0;
        for b in self.buckets.iter() {
            // SAFETY: grace period.
            unsafe {
                let mut cur = b.load(Ordering::Acquire);
                while !cur.is_null() {
                    n += 1;
                    cur = (*cur).next.load(Ordering::Acquire);
                }
            }
        }
        n
    }
}

impl crate::ConcurrentMap for StripedHashTable {
    fn get(&self, key: Key) -> Option<Val> {
        ConcurrentSet::search(self, key)
    }

    /// Upsert, Java-style: lock the segment first, then either replace the
    /// matching node's value in place or head-insert a fresh node.
    fn put(&self, key: Key, val: Val) -> Option<Val> {
        reclaim::quiescent();
        let b = bucket_of(key, self.buckets.len());
        let seg = self.segment(b);
        seg.lock();
        // SAFETY: segment lock held; grace period for reads.
        let prev = unsafe {
            let mut cur = self.buckets[b].load(Ordering::Acquire);
            loop {
                if cur.is_null() {
                    let head = self.buckets[b].load(Ordering::Relaxed);
                    let node = self.pool.alloc_init(|| Node::make(key, val, head));
                    self.buckets[b].store(node, Ordering::Release);
                    break None;
                }
                if (*cur).key == key {
                    // In-place replacement: concurrent lock-free readers
                    // see either the old or the new value, never a tear.
                    break Some((*cur).val.swap(val, Ordering::AcqRel));
                }
                cur = (*cur).next.load(Ordering::Acquire);
            }
        };
        seg.unlock();
        prev
    }

    fn remove(&self, key: Key) -> Option<Val> {
        ConcurrentSet::delete(self, key)
    }

    fn len(&self) -> usize {
        ConcurrentSet::len(self)
    }

    fn for_each(&self, f: &mut dyn FnMut(Key, Val)) {
        reclaim::quiescent();
        for b in self.buckets.iter() {
            // SAFETY: grace period.
            unsafe { for_each_chain(b, f) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_roundtrip() {
        let t = StripedHashTable::new(8, 4);
        assert!(t.insert(1, 10));
        assert!(t.insert(9, 90)); // same bucket chain
        assert!(!t.insert(1, 11));
        assert_eq!(t.search(9), Some(90));
        assert_eq!(t.delete(1), Some(10));
        assert_eq!(t.search(1), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn delete_middle_and_head_of_chain() {
        let t = StripedHashTable::new(2, 1);
        // All odd keys share bucket 1; chain: 7 -> 5 -> 3 -> 1 (head insert).
        for k in [1u64, 3, 5, 7] {
            assert!(t.insert(k, k));
        }
        assert_eq!(t.delete(5), Some(5)); // middle
        assert_eq!(t.delete(7), Some(7)); // head
        assert_eq!(t.search(3), Some(3));
        assert_eq!(t.search(1), Some(1));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn more_segments_than_buckets_is_fine() {
        let t = StripedHashTable::new(2, 64);
        assert!(t.insert(1, 1));
        assert!(t.insert(2, 2));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn concurrent_same_segment_updates_are_exact() {
        // One segment: all updates serialize on one lock.
        let t = Arc::new(StripedHashTable::new(16, 1));
        let mut handles = Vec::new();
        for tid in 0..8u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let mut net = 0i64;
                for i in 0..synchro::stress::ops(10_000) {
                    let k = (tid * 37 + i) % 48 + 1;
                    if i % 2 == 0 {
                        if t.insert(k, k) {
                            net += 1;
                        }
                    } else if t.delete(k).is_some() {
                        net -= 1;
                    }
                }
                net
            }));
        }
        let net: i64 =
            reclaim::offline_while(|| handles.into_iter().map(|h| h.join().unwrap()).sum());
        assert_eq!(t.len() as i64, net);
    }
}
