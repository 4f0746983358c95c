//! The fine-grained OPTIK external BST (*optik-tk*), in the BST-TK style.
//!
//! The paper's related work notes that "the BST-TK binary search tree,
//! part of the ASCY work, detects concurrency with version numbers (as
//! OPTIK does)". This module rebuilds that design directly on the
//! workspace's OPTIK locks, so the tree is an instance of the OPTIK
//! pattern rather than an ad-hoc scheme:
//!
//! - every **router** (internal node) carries an OPTIK lock whose version
//!   covers the router's two child pointers;
//! - traversals perform hand-over-hand version tracking exactly like the
//!   fine-grained list (Fig. 8): a router's version is read *on arrival*,
//!   before its child pointer is followed;
//! - an **insert** lock-and-validates only the parent router (single
//!   `try_lock_version` CAS), then swings one child pointer to a new
//!   router over {old leaf, new leaf};
//! - a **delete** lock-and-validates the grandparent and the parent, then
//!   splices the sibling subtree into the grandparent; the spliced-out
//!   parent's OPTIK lock is **never released** (the list's "no deleted
//!   flag" trick), so any stale validation against it fails forever;
//! - searches are completely oblivious to concurrency.
//!
//! Leaves are immutable after publication and are never locked. The
//! linearization points of updates are the child-pointer stores, as in
//! the paper's lists.

use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

use optik::{OptikLock, OptikVersioned, Version};
use reclaim::NodePool;
use synchro::Backoff;

use crate::{assert_user_key, ConcurrentSet, Key, Val, SENTINEL_KEY};

pub(crate) struct Node {
    /// Router key (`key < k` routes left) or element key for leaves.
    key: Key,
    /// Element value, fixed at publication; 0 and never read for routers.
    val: Val,
    /// Leaves route nothing and are never locked.
    leaf: bool,
    /// Covers `left` and `right`; unused (but present) on leaves.
    lock: OptikVersioned,
    left: AtomicPtr<Node>,
    right: AtomicPtr<Node>,
}

impl Node {
    fn leaf(key: Key, val: Val) -> Self {
        Node {
            key,
            val,
            leaf: true,
            lock: OptikVersioned::new(),
            left: AtomicPtr::new(std::ptr::null_mut()),
            right: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    fn router(key: Key, left: *mut Node, right: *mut Node) -> Self {
        Node {
            key,
            val: 0,
            leaf: false,
            lock: OptikVersioned::new(),
            left: AtomicPtr::new(left),
            right: AtomicPtr::new(right),
        }
    }

    /// The child slot `key` routes to.
    #[inline]
    fn child_for(&self, key: Key) -> &AtomicPtr<Node> {
        if key < self.key {
            &self.left
        } else {
            &self.right
        }
    }

    /// The *other* child slot (the sibling side for `key`).
    #[inline]
    fn sibling_for(&self, key: Key) -> &AtomicPtr<Node> {
        if key < self.key {
            &self.right
        } else {
            &self.left
        }
    }
}

/// The fine-grained OPTIK external BST (*optik-tk*).
///
/// ```
/// use optik_bsts::{ConcurrentSet, OptikBst};
///
/// let tree = OptikBst::new();
/// assert!(tree.insert(42, 420));
/// assert!(!tree.insert(42, 999)); // duplicate: fails without overwriting
/// assert_eq!(tree.search(42), Some(420));
/// assert_eq!(tree.delete(42), Some(420));
/// assert!(tree.is_empty());
/// ```
pub struct OptikBst {
    /// Sentinel router with key `u64::MAX`; all user keys route left.
    /// Never locked-for-deletion, never spliced out.
    root: *mut Node,
    /// Type-stable node pool. Hand-over-hand version tracking never spans
    /// operations (versions are read on arrival within the op), so slots
    /// recycled after a grace period are plainly re-initialized — including
    /// the never-released lock of a spliced-out router, which by then no
    /// running operation can still validate against.
    pool: Arc<NodePool<Node>>,
}

// SAFETY: all shared mutation goes through per-router OPTIK locks and
// atomic child pointers; reclamation is QSBR.
unsafe impl Send for OptikBst {}
unsafe impl Sync for OptikBst {}

impl OptikBst {
    /// Creates an empty tree (sentinel root router over two sentinel
    /// leaves).
    pub fn new() -> Self {
        let pool = NodePool::new();
        let l = pool.alloc_init(|| Node::leaf(SENTINEL_KEY, 0));
        let r = pool.alloc_init(|| Node::leaf(SENTINEL_KEY, 0));
        let root = pool.alloc_init(|| Node::router(SENTINEL_KEY, l, r));
        Self { root, pool }
    }

    /// Traversal with hand-over-hand version tracking. Returns
    /// `(gparent, gparentv, parent, parentv, leaf)`; `gparent` is the root
    /// when the parent router hangs directly under it.
    ///
    /// Every version is read *on arrival* at the router — before the child
    /// pointer is followed — so a later `try_lock_version` validates that
    /// the router's children did not change since we routed through it.
    ///
    /// # Safety
    ///
    /// Caller must be inside a QSBR grace period.
    #[inline]
    unsafe fn locate(&self, key: Key) -> (*mut Node, Version, *mut Node, Version, *mut Node) {
        // SAFETY: nodes reachable during this grace period stay allocated.
        unsafe {
            let mut gp = self.root;
            let mut gpv = (*gp).lock.get_version();
            let mut p = gp;
            let mut pv = gpv;
            let mut cur = (*p).child_for(key).load(Ordering::Acquire);
            while !(*cur).leaf {
                gp = p;
                gpv = pv;
                p = cur;
                pv = (*p).lock.get_version();
                cur = (*p).child_for(key).load(Ordering::Acquire);
            }
            (gp, gpv, p, pv, cur)
        }
    }
}

impl Default for OptikBst {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentSet for OptikBst {
    fn search(&self, key: Key) -> Option<Val> {
        assert_user_key(key);
        reclaim::quiescent();
        // SAFETY: grace period; oblivious sequential descent.
        unsafe {
            let mut cur = self.root;
            while !(*cur).leaf {
                cur = (*cur).child_for(key).load(Ordering::Acquire);
            }
            ((*cur).key == key).then(|| (*cur).val)
        }
    }

    fn insert(&self, key: Key, val: Val) -> bool {
        assert_user_key(key);
        reclaim::quiescent();
        let mut bo = Backoff::adaptive();
        // Pre-allocate nothing: the new router's key depends on the leaf
        // found, so nodes are built inside the attempt.
        loop {
            // SAFETY: grace period per attempt.
            unsafe {
                let (_, _, p, pv, l) = self.locate(key);
                if (*l).key == key {
                    return false;
                }
                // Lock-and-validate the parent: one CAS. A success means
                // p's children are exactly as traversed, so `l` is still
                // p's child on our side.
                if !(*p).lock.try_lock_version(pv) {
                    bo.backoff();
                    continue;
                }
                let new_leaf = self.pool.alloc_init(|| Node::leaf(key, val));
                // Router key is the larger of {key, l.key}: the smaller
                // routes left.
                let router = if key < (*l).key {
                    self.pool.alloc_init(|| Node::router((*l).key, new_leaf, l))
                } else {
                    self.pool.alloc_init(|| Node::router(key, l, new_leaf))
                };
                // Linearization point.
                (*p).child_for(key).store(router, Ordering::Release);
                (*p).lock.unlock();
                return true;
            }
        }
    }

    fn delete(&self, key: Key) -> Option<Val> {
        assert_user_key(key);
        reclaim::quiescent();
        let mut bo = Backoff::adaptive();
        loop {
            // SAFETY: grace period per attempt.
            unsafe {
                let (gp, gpv, p, pv, l) = self.locate(key);
                if (*l).key != key {
                    return None;
                }
                // Nested lock-and-validate: grandparent first, then
                // parent; on a late failure revert the earlier lock (the
                // paper's lock-nesting rule, §3.3).
                if !(*gp).lock.try_lock_version(gpv) {
                    bo.backoff();
                    continue;
                }
                if !(*p).lock.try_lock_version(pv) {
                    (*gp).lock.revert();
                    bo.backoff();
                    continue;
                }
                // Both validated: gp's child on our side is still p, and
                // p's children are still {l, sibling}. Splice the sibling
                // into gp (linearization point).
                let sibling = (*p).sibling_for(key).load(Ordering::Relaxed);
                (*gp).child_for(key).store(sibling, Ordering::Release);
                (*gp).lock.unlock();
                // p's OPTIK lock is never released: stale operations that
                // tracked p as parent or grandparent can never validate
                // against it again. The leaf was never locked; it is
                // unreachable once p is spliced out.
                let val = (*l).val;
                // SAFETY: both unlinked; sole deleter retires.
                reclaim::with_local(|h| {
                    self.pool.retire(p, h);
                    self.pool.retire(l, h);
                });
                return Some(val);
            }
        }
    }

    fn len(&self) -> usize {
        reclaim::quiescent();
        // Iterative in-order walk counting non-sentinel leaves.
        // SAFETY: grace period; exact only in quiescence.
        unsafe {
            let mut n = 0;
            let mut stack = vec![self.root];
            while let Some(node) = stack.pop() {
                if (*node).leaf {
                    if (*node).key != SENTINEL_KEY {
                        n += 1;
                    }
                } else {
                    stack.push((*node).left.load(Ordering::Acquire));
                    stack.push((*node).right.load(Ordering::Acquire));
                }
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
    fn empty_tree_has_only_sentinels() {
        let t = OptikBst::new();
        assert!(t.is_empty());
        assert_eq!(t.search(1), None);
        assert_eq!(t.delete(1), None);
    }

    #[test]
    fn router_keys_route_correctly() {
        let t = OptikBst::new();
        // Insert a chain that forces both router-key arms.
        assert!(t.insert(50, 1)); // new leaf right of sentinel? key<MAX → router key MAX
        assert!(t.insert(25, 2)); // 25 < 50: router key 50, 25 left
        assert!(t.insert(75, 3)); // 75 > 50: router key 75, 50 left, 75 right
        for (k, v) in [(50, 1), (25, 2), (75, 3)] {
            assert_eq!(t.search(k), Some(v));
        }
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn delete_leaf_under_root_router() {
        let t = OptikBst::new();
        assert!(t.insert(10, 1));
        assert_eq!(t.delete(10), Some(1));
        assert!(t.is_empty());
        // The sentinel structure must be intact for reuse.
        assert!(t.insert(11, 2));
        assert_eq!(t.search(11), Some(2));
    }

    #[test]
    fn interleaved_insert_delete_keeps_reachability() {
        let t = OptikBst::new();
        for k in 1..=200u64 {
            assert!(t.insert(k, k));
            if k % 3 == 0 {
                assert_eq!(t.delete(k / 3), Some(k / 3));
            }
        }
        for k in 1..=66u64 {
            assert_eq!(t.search(k), None, "deleted key {k}");
        }
        for k in 67..=200u64 {
            assert_eq!(t.search(k), Some(k), "live key {k}");
        }
    }

    #[test]
    fn concurrent_disjoint_inserts_all_land() {
        let t = Arc::new(OptikBst::new());
        let threads = 8;
        let per = 500u64;
        let hs: Vec<_> = (0..threads)
            .map(|i| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for j in 0..per {
                        assert!(t.insert(1 + i * per + j, j));
                    }
                    reclaim::offline();
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        reclaim::online();
        assert_eq!(t.len() as u64, threads * per);
    }

    #[test]
    fn concurrent_same_key_insert_exactly_one_wins() {
        for _ in 0..50 {
            let t = Arc::new(OptikBst::new());
            let hs: Vec<_> = (0..4)
                .map(|i| {
                    let t = Arc::clone(&t);
                    std::thread::spawn(move || {
                        let won = t.insert(42, i);
                        reclaim::offline();
                        won
                    })
                })
                .collect();
            let wins = hs
                .into_iter()
                .map(|h| h.join().unwrap())
                .filter(|&w| w)
                .count();
            reclaim::online();
            assert_eq!(wins, 1);
            assert_eq!(t.len(), 1);
        }
    }

    #[test]
    fn concurrent_same_key_delete_exactly_one_wins() {
        for _ in 0..50 {
            let t = Arc::new(OptikBst::new());
            assert!(t.insert(42, 420));
            let hs: Vec<_> = (0..4)
                .map(|_| {
                    let t = Arc::clone(&t);
                    std::thread::spawn(move || {
                        let won = t.delete(42);
                        reclaim::offline();
                        won
                    })
                })
                .collect();
            let wins = hs
                .into_iter()
                .map(|h| h.join().unwrap())
                .filter(|&w| w == Some(420))
                .count();
            reclaim::online();
            assert_eq!(wins, 1);
            assert!(t.is_empty());
        }
    }

    #[test]
    fn contended_mixed_churn_stays_consistent() {
        let t = Arc::new(OptikBst::new());
        // Stable keys must never disappear while churn keys flap.
        for k in (1000..1100u64).step_by(2) {
            assert!(t.insert(k, k));
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let churners: Vec<_> = (0..6u64)
            .map(|i| {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut x = 0x9E3779B97F4A7C15u64.wrapping_mul(i + 1);
                    while !stop.load(Ordering::Relaxed) {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = 1 + (x % 500);
                        if x & 1 == 0 {
                            t.insert(k, k);
                        } else {
                            t.delete(k);
                        }
                    }
                    reclaim::offline();
                })
            })
            .collect();
        for _ in 0..2_000 {
            for k in (1000..1100u64).step_by(2) {
                assert_eq!(t.search(k), Some(k), "stable key {k} vanished");
            }
            reclaim::quiescent();
        }
        stop.store(true, Ordering::Relaxed);
        for h in churners {
            h.join().unwrap();
        }
        reclaim::online();
        for k in (1000..1100u64).step_by(2) {
            assert_eq!(t.delete(k), Some(k));
        }
    }
}
