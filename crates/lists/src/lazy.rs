//! The lazy concurrent list of Heller et al. [22] (*lazy* in Figure 9).
//!
//! The state-of-the-art lock-based baseline the paper optimizes against.
//! Nodes carry a spinlock and a *logical-delete* `marked` flag:
//!
//! - searches are wait-free traversals that report a key present iff its
//!   node is unmarked;
//! - updates traverse optimistically, lock the involved nodes, then
//!   *validate* (`!pred.marked && !cur.marked && pred.next == cur`) —
//!   i.e. the "acquire the lock and then check for conflicts" structure
//!   OPTIK replaces with a single CAS;
//! - deletion first marks (logical), then unlinks (physical).
//!
//! We follow the optimized ASCYLIB variant used by the paper: infeasible
//! updates return `false` without locking.

use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::Arc;

use reclaim::NodePool;
use synchro::{Backoff, RawLock, TtasLock};

use crate::{assert_user_key, ConcurrentSet, Key, Val, LIST_POOL_CHUNK, TAIL_KEY};

pub(crate) struct Node {
    key: Key,
    val: Val,
    marked: AtomicBool,
    lock: TtasLock,
    next: AtomicPtr<Node>,
}

impl Node {
    fn make(key: Key, val: Val, next: *mut Node) -> Self {
        Node {
            key,
            val,
            marked: AtomicBool::new(false),
            lock: TtasLock::new(),
            next: AtomicPtr::new(next),
        }
    }
}

/// The lazy (Heller et al.) list.
///
/// Nodes come from a type-stable [`NodePool`]. No pointer survives across
/// operations (the plain lazy list does no node caching), so recycled
/// slots — including their `marked` flag and spinlock — are plainly
/// re-initialized after the grace period.
pub struct LazyList {
    head: *mut Node,
    pool: Arc<NodePool<Node>>,
}

// SAFETY: updates lock the nodes they modify; searches read only atomic
// fields of QSBR-protected nodes.
unsafe impl Send for LazyList {}
unsafe impl Sync for LazyList {}

/// A node pool shareable across many [`LazyList`]s — one allocator for all
/// buckets of a hash table, matching ssmem's per-thread-allocator shape
/// (§5.1). Per-bucket pools would give every bucket its own magazines and
/// depot, multiplying the allocation path's cache footprint by the bucket
/// count.
#[derive(Clone)]
pub struct LazyListPool(Arc<NodePool<Node>>);

impl LazyListPool {
    /// Creates a pool (default chunk capacity: it serves a whole table).
    pub fn new() -> Self {
        Self(NodePool::new())
    }
}

impl Default for LazyListPool {
    fn default() -> Self {
        Self::new()
    }
}

impl LazyList {
    /// Creates an empty list with a private node pool.
    pub fn new() -> Self {
        Self::from_pool(NodePool::with_chunk_capacity(LIST_POOL_CHUNK))
    }

    /// Creates an empty list drawing nodes from `pool`, shared with other
    /// lists of the same table (see [`LazyListPool`]).
    pub fn with_pool(pool: &LazyListPool) -> Self {
        Self::from_pool(Arc::clone(&pool.0))
    }

    fn from_pool(pool: Arc<NodePool<Node>>) -> Self {
        let tail = pool.alloc_init(|| Node::make(TAIL_KEY, 0, std::ptr::null_mut()));
        let head = pool.alloc_init(|| Node::make(crate::HEAD_KEY, 0, tail));
        Self { head, pool }
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
                synchro::prefetch::read(cur);
            }
            (pred, cur)
        }
    }

    /// Heller et al.'s validation: both nodes unmarked and still linked.
    ///
    /// # Safety
    ///
    /// Both pointers must be QSBR-protected; caller holds both locks (or at
    /// least pred's for insert).
    #[inline]
    unsafe fn validate(pred: *mut Node, cur: *mut Node) -> bool {
        // SAFETY: per contract.
        unsafe {
            !(*pred).marked.load(Ordering::Acquire)
                && !(*cur).marked.load(Ordering::Acquire)
                && (*pred).next.load(Ordering::Acquire) == cur
        }
    }
}

impl Default for LazyList {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentSet for LazyList {
    fn search(&self, key: Key) -> Option<Val> {
        assert_user_key(key);
        reclaim::quiescent();
        // SAFETY: QSBR grace period.
        unsafe {
            let mut cur = self.head;
            while (*cur).key < key {
                cur = (*cur).next.load(Ordering::Acquire);
                synchro::prefetch::read(cur);
            }
            ((*cur).key == key && !(*cur).marked.load(Ordering::Acquire)).then(|| (*cur).val)
        }
    }

    fn insert(&self, key: Key, val: Val) -> bool {
        assert_user_key(key);
        reclaim::quiescent();
        let mut bo = Backoff::adaptive();
        loop {
            // SAFETY: QSBR grace period throughout the attempt.
            unsafe {
                let (pred, cur) = self.locate(key);
                if (*cur).key == key {
                    if !(*cur).marked.load(Ordering::Acquire) {
                        // Infeasible: present and alive — no locking.
                        return false;
                    }
                    // Key is being deleted; retry until it is unlinked.
                    bo.backoff();
                    continue;
                }
                (*pred).lock.lock();
                if Self::validate(pred, cur) {
                    let newnode = self.pool.alloc_init(|| Node::make(key, val, cur));
                    (*pred).next.store(newnode, Ordering::Release);
                    (*pred).lock.unlock();
                    return true;
                }
                (*pred).lock.unlock();
                bo.backoff();
            }
        }
    }

    fn delete(&self, key: Key) -> Option<Val> {
        assert_user_key(key);
        reclaim::quiescent();
        let mut bo = Backoff::adaptive();
        loop {
            // SAFETY: QSBR grace period throughout the attempt.
            unsafe {
                let (pred, cur) = self.locate(key);
                if (*cur).key != key {
                    return None;
                }
                if (*cur).marked.load(Ordering::Acquire) {
                    // Concurrent delete won; linearize after it.
                    return None;
                }
                (*pred).lock.lock();
                (*cur).lock.lock();
                if Self::validate(pred, cur) {
                    // Logical delete (the linearization point)...
                    (*cur).marked.store(true, Ordering::Release);
                    // ...then physical unlink.
                    (*pred)
                        .next
                        .store((*cur).next.load(Ordering::Relaxed), Ordering::Release);
                    let val = (*cur).val;
                    (*cur).lock.unlock();
                    (*pred).lock.unlock();
                    // SAFETY: unlinked exactly once by us.
                    reclaim::with_local(|h| self.pool.retire(cur, h));
                    return Some(val);
                }
                (*cur).lock.unlock();
                (*pred).lock.unlock();
                bo.backoff();
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
                if !(*cur).marked.load(Ordering::Relaxed) {
                    n += 1;
                }
                cur = (*cur).next.load(Ordering::Acquire);
                synchro::prefetch::read(cur);
            }
            n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_roundtrip() {
        let l = LazyList::new();
        assert!(l.insert(4, 40));
        assert!(l.insert(2, 20));
        assert!(!l.insert(4, 41));
        assert_eq!(l.search(2), Some(20));
        assert_eq!(l.delete(4), Some(40));
        assert_eq!(l.search(4), None);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn exactly_one_delete_wins() {
        let l = Arc::new(LazyList::new());
        for round in 1..=100u64 {
            assert!(l.insert(round, round));
            let mut handles = Vec::new();
            for _ in 0..6 {
                let l = Arc::clone(&l);
                handles.push(std::thread::spawn(move || l.delete(round).is_some()));
            }
            let winners: usize = handles
                .into_iter()
                .map(|h| usize::from(h.join().unwrap()))
                .sum();
            assert_eq!(winners, 1, "round {round}");
        }
        assert!(l.is_empty());
    }

    #[test]
    fn insert_delete_race_on_same_key_is_linearizable() {
        let l = Arc::new(LazyList::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let l = Arc::clone(&l);
            handles.push(std::thread::spawn(move || {
                let mut net = 0i64;
                for i in 0..synchro::stress::ops(20_000) {
                    let k = (t ^ i) % 8 + 1;
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
