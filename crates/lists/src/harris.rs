//! Harris's lock-free linked list [19] (*harris* in Figure 9).
//!
//! The lock-free baseline. Deletion happens in two steps: the node's `next`
//! pointer is *marked* (its least-significant bit set) with a CAS — the
//! logical delete and linearization point — and the node is then physically
//! unlinked, either by the deleter or by any later traversal that snips out
//! chains of marked nodes while searching.
//!
//! Pointer marking uses the LSB of the `next` word; nodes are at least
//! 8-byte aligned so the bit is always free.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use reclaim::NodePool;
use synchro::Backoff;

use crate::{assert_user_key, ConcurrentSet, Key, Val, LIST_POOL_CHUNK, TAIL_KEY};

const MARK: usize = 1;

#[inline]
fn marked(p: usize) -> bool {
    p & MARK != 0
}

#[inline]
fn unmark(p: usize) -> usize {
    p & !MARK
}

pub(crate) struct Node {
    key: Key,
    val: Val,
    /// Pointer-with-mark-bit to the successor.
    next: AtomicUsize,
}

impl Node {
    fn make(key: Key, val: Val, next: *mut Node) -> Self {
        Node {
            key,
            val,
            next: AtomicUsize::new(next as usize),
        }
    }
}

/// Harris's lock-free sorted list.
///
/// Nodes come from a type-stable [`NodePool`]. QSBR already rules out ABA
/// on node addresses *within* an operation (no slot recycles while any
/// operation that saw it is still running), and no pointer survives across
/// operations, so recycled slots are plainly re-initialized.
pub struct HarrisList {
    head: *mut Node,
    pool: Arc<NodePool<Node>>,
}

// SAFETY: all mutation is CAS on the next words; reclamation is QSBR,
// and only the unlinking CAS winner retires a node.
unsafe impl Send for HarrisList {}
unsafe impl Sync for HarrisList {}

impl HarrisList {
    /// Creates an empty list.
    pub fn new() -> Self {
        let pool = NodePool::with_chunk_capacity(LIST_POOL_CHUNK);
        let tail = pool.alloc_init(|| Node::make(TAIL_KEY, 0, std::ptr::null_mut()));
        let head = pool.alloc_init(|| Node::make(crate::HEAD_KEY, 0, tail));
        Self { head, pool }
    }

    /// Harris's `search`: returns `(pred, cur)` with `pred.key < key <=
    /// cur.key`, both unmarked and adjacent at some instant — snipping out
    /// any marked chain in between (and retiring the snipped nodes).
    ///
    /// # Safety
    ///
    /// Caller must be inside a QSBR grace period.
    unsafe fn locate(&self, key: Key) -> (*mut Node, *mut Node) {
        // SAFETY: per contract; all raw derefs target grace-protected nodes.
        unsafe {
            'retry: loop {
                let mut pred = self.head;
                let mut pred_next = (*pred).next.load(Ordering::Acquire);
                // First marked node of the chain to snip (if any).
                let mut cur = unmark(pred_next) as *mut Node;
                loop {
                    // Advance over marked nodes, remembering the last
                    // unmarked predecessor.
                    let mut cur_next = (*cur).next.load(Ordering::Acquire);
                    while marked(cur_next) {
                        cur = unmark(cur_next) as *mut Node;
                        cur_next = (*cur).next.load(Ordering::Acquire);
                    }
                    if (*cur).key >= key {
                        // Snip the marked chain pred→...→cur if any.
                        let first = unmark(pred_next) as *mut Node;
                        if first != cur {
                            if (*pred)
                                .next
                                .compare_exchange(
                                    pred_next,
                                    cur as usize,
                                    Ordering::AcqRel,
                                    Ordering::Relaxed,
                                )
                                .is_err()
                            {
                                continue 'retry;
                            }
                            // Retire the snipped chain [first, cur).
                            let mut p = first;
                            while p != cur {
                                let next = unmark((*p).next.load(Ordering::Relaxed)) as *mut Node;
                                // SAFETY: we won the unlink CAS; sole retirer.
                                reclaim::with_local(|h| self.pool.retire(p, h));
                                p = next;
                            }
                        }
                        return (pred, cur);
                    }
                    pred = cur;
                    pred_next = cur_next;
                    cur = unmark(cur_next) as *mut Node;
                }
            }
        }
    }
}

impl Default for HarrisList {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentSet for HarrisList {
    fn search(&self, key: Key) -> Option<Val> {
        assert_user_key(key);
        reclaim::quiescent();
        // Read-only traversal (does not help with cleanup — matching the
        // ASCYLIB optimized variant where searches stay wait-free).
        // SAFETY: QSBR grace period.
        unsafe {
            let mut cur = self.head;
            while (*cur).key < key {
                cur = unmark((*cur).next.load(Ordering::Acquire)) as *mut Node;
            }
            // Present iff key matches and the node is not logically deleted.
            ((*cur).key == key && !marked((*cur).next.load(Ordering::Acquire))).then(|| (*cur).val)
        }
    }

    fn insert(&self, key: Key, val: Val) -> bool {
        assert_user_key(key);
        reclaim::quiescent();
        let mut bo = Backoff::adaptive();
        // Allocate once and reuse across CAS retries.
        let newnode = self
            .pool
            .alloc_init(|| Node::make(key, val, std::ptr::null_mut()));
        loop {
            // SAFETY: QSBR grace period.
            unsafe {
                let (pred, cur) = self.locate(key);
                if (*cur).key == key {
                    // SAFETY: newnode was never published.
                    self.pool.dealloc_unpublished(newnode);
                    return false;
                }
                (*newnode).next.store(cur as usize, Ordering::Relaxed);
                if (*pred)
                    .next
                    .compare_exchange(
                        cur as usize,
                        newnode as usize,
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    return true;
                }
                bo.backoff();
            }
        }
    }

    fn delete(&self, key: Key) -> Option<Val> {
        assert_user_key(key);
        reclaim::quiescent();
        let mut bo = Backoff::adaptive();
        loop {
            // SAFETY: QSBR grace period.
            unsafe {
                let (pred, cur) = self.locate(key);
                if (*cur).key != key {
                    return None;
                }
                let cur_next = (*cur).next.load(Ordering::Acquire);
                if marked(cur_next) {
                    // Already logically deleted; help by retrying locate
                    // (which snips) and re-deciding.
                    bo.backoff();
                    continue;
                }
                // Logical delete: mark cur's next pointer.
                if (*cur)
                    .next
                    .compare_exchange(
                        cur_next,
                        cur_next | MARK,
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                    )
                    .is_err()
                {
                    bo.backoff();
                    continue;
                }
                let val = (*cur).val;
                // Physical delete: try to unlink; on failure some traversal
                // will snip (and retire) it for us.
                if (*pred)
                    .next
                    .compare_exchange(
                        cur as usize,
                        cur_next, // unmarked successor
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    // SAFETY: we unlinked it; sole retirer.
                    reclaim::with_local(|h| self.pool.retire(cur, h));
                }
                return Some(val);
            }
        }
    }

    fn len(&self) -> usize {
        reclaim::quiescent();
        // SAFETY: QSBR grace period.
        unsafe {
            let mut n = 0;
            let mut cur = unmark((*self.head).next.load(Ordering::Acquire)) as *mut Node;
            while (*cur).key != TAIL_KEY {
                if !marked((*cur).next.load(Ordering::Acquire)) {
                    n += 1;
                }
                cur = unmark((*cur).next.load(Ordering::Acquire)) as *mut Node;
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
        let l = HarrisList::new();
        assert!(l.insert(6, 60));
        assert!(l.insert(3, 30));
        assert!(!l.insert(6, 61));
        assert_eq!(l.search(3), Some(30));
        assert_eq!(l.delete(6), Some(60));
        assert_eq!(l.delete(6), None);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn marked_nodes_are_invisible_to_search() {
        let l = HarrisList::new();
        assert!(l.insert(5, 50));
        // Mark the node manually (simulating a stalled deleter).
        unsafe {
            let node = unmark((*l.head).next.load(Ordering::Relaxed)) as *mut Node;
            let next = (*node).next.load(Ordering::Relaxed);
            (*node).next.store(next | MARK, Ordering::Release);
        }
        assert_eq!(l.search(5), None, "marked node must not be found");
        assert_eq!(l.len(), 0);
        // An insert of the same key must first help unlink it.
        assert!(l.insert(5, 55));
        assert_eq!(l.search(5), Some(55));
    }

    #[test]
    fn exactly_one_delete_wins() {
        let l = Arc::new(HarrisList::new());
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
    fn heavy_mixed_contention_is_consistent() {
        let l = Arc::new(HarrisList::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let l = Arc::clone(&l);
            handles.push(std::thread::spawn(move || {
                let mut net = 0i64;
                let mut x = t.wrapping_mul(0x2545F4914F6CDD1D) | 1;
                for _ in 0..synchro::stress::ops(30_000) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = x % 24 + 1;
                    match x % 3 {
                        0 => {
                            if l.insert(k, k) {
                                net += 1;
                            }
                        }
                        1 => {
                            if l.delete(k).is_some() {
                                net -= 1;
                            }
                        }
                        _ => {
                            if let Some(v) = l.search(k) {
                                assert_eq!(v, k);
                            }
                        }
                    }
                }
                net
            }));
        }
        let net: i64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(l.len() as i64, net);
    }
}
