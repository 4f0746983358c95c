//! Global-lock OPTIK list (*optik-gl*, §5.1).
//!
//! The transformation of the global-lock list with the OPTIK pattern, "very
//! similar to that of the concurrent map in §4.1": one OPTIK lock protects
//! the whole list; update operations traverse optimistically and
//! lock-and-validate only if they are feasible, so the ~half of updates
//! that return false never synchronize. Searches never lock.
//!
//! Every committed update conflicts with any concurrent one (false
//! conflicts), so this design targets low-contention/per-bucket use — it is
//! the basis of the paper's best hash table (*optik-gl* buckets, §5.2).

use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

use optik::{OptikLock, OptikVersioned};
use reclaim::NodePool;
use synchro::Backoff;

use crate::{assert_user_key, ConcurrentSet, Key, Val, LIST_POOL_CHUNK, TAIL_KEY};

struct Node {
    key: Key,
    val: Val,
    next: AtomicPtr<Node>,
}

impl Node {
    fn make(key: Key, val: Val, next: *mut Node) -> Self {
        Node {
            key,
            val,
            next: AtomicPtr::new(next),
        }
    }
}

/// The global-lock OPTIK list (*optik-gl*), generic over the lock
/// implementation.
///
/// Nodes live in a type-stable [`NodePool`]: allocation hits the calling
/// thread's magazine, and unlinked nodes recycle through QSBR. This list
/// never caches node pointers across operations, so recycled slots are
/// plainly re-initialized (`alloc_init`).
pub struct OptikGlList<L: OptikLock = OptikVersioned> {
    lock: L,
    head: *mut Node,
    pool: Arc<NodePool<Node>>,
}

// SAFETY: updates validate through the global OPTIK lock; searches are
// oblivious and QSBR-protected.
unsafe impl<L: OptikLock> Send for OptikGlList<L> {}
unsafe impl<L: OptikLock> Sync for OptikGlList<L> {}

/// A node pool shareable across many [`OptikGlList`]s — one allocator for
/// all buckets of a hash table, matching ssmem's per-thread-allocator
/// shape (§5.1). Per-bucket pools would give every bucket its own
/// magazines and depot, multiplying the allocation path's cache footprint
/// by the bucket count. Nodes are lock-flavor-independent, so one pool
/// serves lists of any `L`.
#[derive(Clone)]
pub struct OptikGlListPool(Arc<NodePool<Node>>);

impl OptikGlListPool {
    /// Creates a pool (default chunk capacity: it serves a whole table).
    pub fn new() -> Self {
        Self(NodePool::new())
    }
}

impl Default for OptikGlListPool {
    fn default() -> Self {
        Self::new()
    }
}

impl<L: OptikLock> OptikGlList<L> {
    /// Creates an empty list with a private node pool.
    pub fn new() -> Self {
        Self::from_pool(NodePool::with_chunk_capacity(LIST_POOL_CHUNK))
    }

    /// Creates an empty list drawing nodes from `pool`, shared with other
    /// lists of the same table (see [`OptikGlListPool`]).
    pub fn with_pool(pool: &OptikGlListPool) -> Self {
        Self::from_pool(Arc::clone(&pool.0))
    }

    fn from_pool(pool: Arc<NodePool<Node>>) -> Self {
        let tail = pool.alloc_init(|| Node::make(TAIL_KEY, 0, std::ptr::null_mut()));
        let head = pool.alloc_init(|| Node::make(crate::HEAD_KEY, 0, tail));
        Self {
            lock: L::default(),
            head,
            pool,
        }
    }

    /// # Safety
    ///
    /// Caller must be inside a QSBR grace period.
    #[inline]
    unsafe fn locate(&self, key: Key) -> (*mut Node, *mut Node) {
        // SAFETY: per contract.
        unsafe {
            let mut pred = self.head;
            let mut cur = (*pred).next.load(Ordering::Acquire);
            while (*cur).key < key {
                pred = cur;
                cur = (*cur).next.load(Ordering::Acquire);
            }
            (pred, cur)
        }
    }
}

impl<L: OptikLock> Default for OptikGlList<L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<L: OptikLock> ConcurrentSet for OptikGlList<L> {
    fn search(&self, key: Key) -> Option<Val> {
        assert_user_key(key);
        reclaim::quiescent();
        // SAFETY: QSBR grace period.
        unsafe {
            let (_, cur) = self.locate(key);
            ((*cur).key == key).then(|| (*cur).val)
        }
    }

    fn insert(&self, key: Key, val: Val) -> bool {
        assert_user_key(key);
        reclaim::quiescent();
        let mut bo = Backoff::adaptive();
        loop {
            let vn = self.lock.get_version();
            if L::is_locked_version(vn) {
                synchro::relax();
                continue;
            }
            // SAFETY: QSBR grace period; traversal is read-only.
            unsafe {
                let (pred, cur) = self.locate(key);
                if (*cur).key == key {
                    // Infeasible update: no synchronization at all.
                    return false;
                }
                if !self.lock.try_lock_version(vn) {
                    bo.backoff();
                    continue;
                }
                // Validated: no update committed since vn, so (pred, cur)
                // is still the correct link.
                let newnode = self.pool.alloc_init(|| Node::make(key, val, cur));
                (*pred).next.store(newnode, Ordering::Release);
                self.lock.unlock();
                return true;
            }
        }
    }

    fn delete(&self, key: Key) -> Option<Val> {
        assert_user_key(key);
        reclaim::quiescent();
        let mut bo = Backoff::adaptive();
        loop {
            let vn = self.lock.get_version();
            if L::is_locked_version(vn) {
                synchro::relax();
                continue;
            }
            // SAFETY: QSBR grace period.
            unsafe {
                let (pred, cur) = self.locate(key);
                if (*cur).key != key {
                    return None;
                }
                if !self.lock.try_lock_version(vn) {
                    bo.backoff();
                    continue;
                }
                (*pred)
                    .next
                    .store((*cur).next.load(Ordering::Relaxed), Ordering::Release);
                let val = (*cur).val;
                self.lock.unlock();
                // SAFETY: unlinked exactly once; cur came from this pool.
                reclaim::with_local(|h| self.pool.retire(cur, h));
                return Some(val);
            }
        }
    }

    fn len(&self) -> usize {
        reclaim::quiescent();
        // SAFETY: QSBR grace period.
        unsafe {
            let mut n = 0;
            let mut cur = (*self.head).next.load(Ordering::Acquire);
            while (*cur).key != TAIL_KEY {
                n += 1;
                cur = (*cur).next.load(Ordering::Acquire);
            }
            n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optik::OptikTicket;
    use std::sync::Arc;

    #[test]
    fn basic_roundtrip() {
        let l: OptikGlList = OptikGlList::new();
        assert!(l.insert(2, 20));
        assert!(l.insert(8, 80));
        assert_eq!(l.search(2), Some(20));
        assert_eq!(l.delete(8), Some(80));
        assert_eq!(l.delete(8), None);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn ticket_lock_variant_works() {
        let l: OptikGlList<OptikTicket> = OptikGlList::new();
        assert!(l.insert(1, 10));
        assert_eq!(l.search(1), Some(10));
        assert_eq!(l.delete(1), Some(10));
        assert!(l.is_empty());
    }

    #[test]
    fn infeasible_updates_do_not_bump_version() {
        let l: OptikGlList = OptikGlList::new();
        assert!(l.insert(5, 50));
        let v = l.lock.get_version();
        assert!(!l.insert(5, 51));
        assert_eq!(l.delete(7), None);
        assert_eq!(l.search(5), Some(50));
        assert_eq!(l.lock.get_version(), v);
    }

    #[test]
    fn contended_updates_net_out() {
        let l: Arc<OptikGlList> = Arc::new(OptikGlList::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let l = Arc::clone(&l);
            handles.push(std::thread::spawn(move || {
                let mut net = 0i64;
                for i in 0..synchro::stress::ops(20_000) {
                    let k = (t + i * 13) % 16 + 1;
                    if i % 2 == 0 {
                        if l.insert(k, k) {
                            net += 1;
                        }
                    } else if l.delete(k).is_some() {
                        net -= 1;
                    }
                }
                net
            }));
        }
        let net: i64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(l.len() as i64, net);
    }
}
