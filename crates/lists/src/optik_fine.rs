//! The fine-grained OPTIK-based linked list (Figure 8 of the paper).
//!
//! Each node carries its own OPTIK lock. Traversals perform
//! **hand-over-hand version tracking**: a node's version is read *before*
//! following its `next` pointer, so at the end of the traversal the
//! operation holds `(node, version)` pairs it can lock-and-validate with a
//! single CAS each.
//!
//! Key properties from the paper:
//!
//! - searches are "completely oblivious to concurrency" — plain sequential
//!   traversals (Fig. 8(c));
//! - no `deleted` flag is needed (unlike the lazy list): the OPTIK lock of
//!   a deleted node is **never released**, so any later `try_lock_version`
//!   or validation against it fails;
//! - the linearization point of updates is the actual store to
//!   `pred.next`.

use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

use optik::{OptikLock, OptikVersioned};
use reclaim::NodePool;
use synchro::Backoff;

use crate::{assert_user_key, ConcurrentSet, Key, Val, LIST_POOL_CHUNK, TAIL_KEY};

pub(crate) struct Node {
    key: Key,
    val: Val,
    lock: OptikVersioned,
    next: AtomicPtr<Node>,
}

impl Node {
    fn make(key: Key, val: Val, next: *mut Node) -> Self {
        Node {
            key,
            val,
            lock: OptikVersioned::new(),
            next: AtomicPtr::new(next),
        }
    }
}

/// The fine-grained OPTIK list (*optik* in Figure 9).
///
/// Nodes come from a type-stable [`NodePool`]. `(node, version)` pairs are
/// only held *within* one operation, never across quiescent points, so a
/// recycled slot — whose locked-forever deleted version gets replaced by a
/// fresh unlocked lock — can have no surviving validators (the grace
/// period outlives every operation that read the old version).
pub struct OptikList {
    head: *mut Node,
    pool: Arc<NodePool<Node>>,
}

// SAFETY: all shared mutation goes through per-node OPTIK locks and atomic
// next pointers; reclamation is QSBR.
unsafe impl Send for OptikList {}
unsafe impl Sync for OptikList {}

/// A node pool shareable across many [`OptikList`]s — one allocator for
/// all buckets of a hash table, matching ssmem's per-thread-allocator
/// shape (§5.1). Per-bucket pools would give every bucket its own
/// magazines and depot, multiplying the allocation path's cache footprint
/// by the bucket count.
#[derive(Clone)]
pub struct OptikListPool(Arc<NodePool<Node>>);

impl OptikListPool {
    /// Creates a pool (default chunk capacity: it serves a whole table).
    pub fn new() -> Self {
        Self(NodePool::new())
    }
}

impl Default for OptikListPool {
    fn default() -> Self {
        Self::new()
    }
}

impl OptikList {
    /// Creates an empty list (head and tail sentinels only) with a private
    /// node pool.
    pub fn new() -> Self {
        Self::from_pool(NodePool::with_chunk_capacity(LIST_POOL_CHUNK))
    }

    /// Creates an empty list drawing nodes from `pool`, shared with other
    /// lists of the same table (see [`OptikListPool`]).
    pub fn with_pool(pool: &OptikListPool) -> Self {
        Self::from_pool(Arc::clone(&pool.0))
    }

    fn from_pool(pool: Arc<NodePool<Node>>) -> Self {
        let tail = pool.alloc_init(|| Node::make(TAIL_KEY, 0, std::ptr::null_mut()));
        let head = pool.alloc_init(|| Node::make(crate::HEAD_KEY, 0, tail));
        Self { head, pool }
    }

    /// Traversal for deletions: returns `(pred, predv, cur, curv)` with
    /// `pred.key < key <= cur.key`, where each version was read *on
    /// arrival* at the node — before its key or next pointer (Fig. 8(a)).
    ///
    /// # Safety
    ///
    /// Caller must be inside a QSBR-protected section (no quiescence until
    /// the returned pointers are no longer used).
    #[inline]
    unsafe fn locate_tracking(
        &self,
        start: *mut Node,
        start_v: optik::Version,
        key: Key,
    ) -> (*mut Node, optik::Version, *mut Node, optik::Version) {
        // SAFETY: nodes reachable during this grace period stay allocated.
        unsafe {
            let mut pred;
            let mut predv;
            let mut cur = start;
            let mut curv = start_v;
            loop {
                pred = cur;
                predv = curv;
                cur = (*pred).next.load(Ordering::Acquire);
                curv = (*cur).lock.get_version();
                if (*cur).key >= key {
                    return (pred, predv, cur, curv);
                }
            }
        }
    }
}

impl Default for OptikList {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentSet for OptikList {
    fn search(&self, key: Key) -> Option<Val> {
        assert_user_key(key);
        reclaim::quiescent();
        // SAFETY: past the quiescent point, every reachable node survives
        // until our next quiescent point (QSBR grace period).
        unsafe {
            let mut cur = self.head;
            while (*cur).key < key {
                cur = (*cur).next.load(Ordering::Acquire);
            }
            ((*cur).key == key).then(|| (*cur).val)
        }
    }

    fn insert(&self, key: Key, val: Val) -> bool {
        assert_user_key(key);
        reclaim::quiescent();
        let mut bo = Backoff::adaptive();
        loop {
            // SAFETY: within the QSBR grace period (no quiescence below).
            unsafe {
                // Fig. 8(b): version of each node read before advancing.
                let headv = (*self.head).lock.get_version();
                let (pred, predv, cur, _curv) = self.locate_tracking(self.head, headv, key);
                if (*cur).key == key {
                    // Infeasible: returns without any synchronization.
                    return false;
                }
                if !(*pred).lock.try_lock_version(predv) {
                    bo.backoff();
                    continue;
                }
                // Validated: pred unmodified since we read predv, hence
                // still linked and still pointing at cur.
                let newnode = self.pool.alloc_init(|| Node::make(key, val, cur));
                (*pred).next.store(newnode, Ordering::Release);
                (*pred).lock.unlock();
                return true;
            }
        }
    }

    fn delete(&self, key: Key) -> Option<Val> {
        assert_user_key(key);
        reclaim::quiescent();
        let mut bo = Backoff::adaptive();
        loop {
            // SAFETY: within the QSBR grace period (no quiescence below).
            unsafe {
                let headv = (*self.head).lock.get_version();
                let (pred, predv, cur, curv) = self.locate_tracking(self.head, headv, key);
                if (*cur).key != key {
                    return None;
                }
                if !(*pred).lock.try_lock_version(predv) {
                    bo.backoff();
                    continue;
                }
                if !(*cur).lock.try_lock_version(curv) {
                    // Revert (not unlock!) to avoid signalling a false
                    // conflict on pred to concurrent operations (Fig. 8(a)).
                    (*pred).lock.revert();
                    bo.backoff();
                    continue;
                }
                // cur's lock is intentionally NEVER released: a locked-
                // forever version makes any stale validation against the
                // deleted node fail.
                (*pred)
                    .next
                    .store((*cur).next.load(Ordering::Relaxed), Ordering::Release);
                let val = (*cur).val;
                (*pred).lock.unlock();
                // SAFETY: cur is unlinked; one retire; recycled after grace.
                reclaim::with_local(|h| self.pool.retire(cur, h));
                return Some(val);
            }
        }
    }

    fn len(&self) -> usize {
        reclaim::quiescent();
        // SAFETY: grace-period traversal as in search.
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
    use std::sync::Arc;

    #[test]
    fn empty_list_properties() {
        let l = OptikList::new();
        assert!(l.is_empty());
        assert_eq!(l.search(5), None);
        assert_eq!(l.delete(5), None);
    }

    #[test]
    fn insert_maintains_sorted_reachability() {
        let l = OptikList::new();
        for k in [9u64, 2, 7, 4, 1] {
            assert!(l.insert(k, k + 100));
        }
        // SAFETY: single-threaded here.
        unsafe {
            let mut cur = (*l.head).next.load(Ordering::Relaxed);
            let mut prev_key = 0;
            while (*cur).key != TAIL_KEY {
                assert!((*cur).key > prev_key, "sorted order violated");
                prev_key = (*cur).key;
                cur = (*cur).next.load(Ordering::Relaxed);
            }
        }
        assert_eq!(l.len(), 5);
    }

    #[test]
    fn deleted_nodes_lock_stays_locked() {
        let l = OptikList::new();
        assert!(l.insert(5, 50));
        // Grab the node pointer before deleting.
        let node = unsafe { (*l.head).next.load(Ordering::Relaxed) };
        assert_eq!(l.delete(5), Some(50));
        // SAFETY: QSBR keeps the node alive (this thread has not quiesced
        // since... actually delete() quiesced on entry, but the retire
        // happened after, and we haven't quiesced since the retire).
        let v = unsafe { (*node).lock.get_version() };
        assert!(
            OptikVersioned::is_locked_version(v),
            "deleted node's lock must remain locked forever"
        );
    }

    #[test]
    fn contended_single_key_insert_delete() {
        let l = Arc::new(OptikList::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let l = Arc::clone(&l);
            handles.push(std::thread::spawn(move || {
                let mut ins = 0u64;
                let mut del = 0u64;
                for _ in 0..synchro::stress::ops(20_000) {
                    if l.insert(42, 1) {
                        ins += 1;
                    }
                    if l.delete(42).is_some() {
                        del += 1;
                    }
                }
                (ins, del)
            }));
        }
        let (mut ins, mut del) = (0, 0);
        for h in handles {
            let (i, d) = h.join().unwrap();
            ins += i;
            del += d;
        }
        // Every successful insert is eventually deleted or remains (≤1).
        let remaining = l.len() as u64;
        assert_eq!(ins, del + remaining);
        assert!(remaining <= 1);
    }

    #[test]
    fn concurrent_readers_during_churn_see_consistent_values() {
        let l = Arc::new(OptikList::new());
        for k in (2..100u64).step_by(2) {
            l.insert(k, k * 7);
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        // Churners insert/delete odd keys.
        for t in 0..4u64 {
            let l = Arc::clone(&l);
            handles.push(std::thread::spawn(move || {
                for i in 0..synchro::stress::ops(30_000) {
                    let k = ((t * 31 + i) % 50) * 2 + 1;
                    if i % 2 == 0 {
                        l.insert(k, k * 7);
                    } else {
                        l.delete(k);
                    }
                }
            }));
        }
        // Readers verify stable even keys are always present and correct.
        for _ in 0..4 {
            let l = Arc::clone(&l);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for k in (2..100u64).step_by(2) {
                        assert_eq!(l.search(k), Some(k * 7), "stable key {k} lost");
                    }
                }
            }));
        }
        for h in handles.drain(..4) {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }
}
