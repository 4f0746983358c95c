//! Global-lock OPTIK external BST (*optik-gl*).
//!
//! The tree analogue of the list crate's *optik-gl*: one OPTIK lock
//! protects the whole tree. Updates traverse optimistically and
//! lock-and-validate only when feasible, so infeasible updates (duplicate
//! inserts, misses) never synchronize; searches never lock. Like its list
//! counterpart, this design trades false conflicts (every committed update
//! invalidates every concurrent one) for a very cheap common path — it is
//! the right building block for per-bucket use.

use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

use optik::{OptikLock, OptikVersioned};
use reclaim::NodePool;
use synchro::Backoff;

use crate::{assert_user_key, ConcurrentSet, Key, Val, SENTINEL_KEY};

struct Node {
    key: Key,
    /// Leaf binding, fixed at publication; 0 and never read on routers.
    val: Val,
    leaf: bool,
    left: AtomicPtr<Node>,
    right: AtomicPtr<Node>,
}

impl Node {
    fn leaf(key: Key, val: Val) -> Self {
        Node {
            key,
            val,
            leaf: true,
            left: AtomicPtr::new(std::ptr::null_mut()),
            right: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    fn router(key: Key, left: *mut Node, right: *mut Node) -> Self {
        Node {
            key,
            val: 0,
            leaf: false,
            left: AtomicPtr::new(left),
            right: AtomicPtr::new(right),
        }
    }

    #[inline]
    fn child_for(&self, key: Key) -> &AtomicPtr<Node> {
        if key < self.key {
            &self.left
        } else {
            &self.right
        }
    }

    #[inline]
    fn sibling_for(&self, key: Key) -> &AtomicPtr<Node> {
        if key < self.key {
            &self.right
        } else {
            &self.left
        }
    }
}

/// The global-lock OPTIK external BST (*optik-gl*), generic over the lock
/// implementation.
pub struct OptikGlBst<L: OptikLock = OptikVersioned> {
    lock: L,
    root: *mut Node,
    pool: Arc<NodePool<Node>>,
}

// SAFETY: updates validate through the global OPTIK lock; searches are
// oblivious and QSBR-protected.
unsafe impl<L: OptikLock> Send for OptikGlBst<L> {}
unsafe impl<L: OptikLock> Sync for OptikGlBst<L> {}

impl<L: OptikLock> OptikGlBst<L> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        let pool = NodePool::new();
        let l = pool.alloc_init(|| Node::leaf(SENTINEL_KEY, 0));
        let r = pool.alloc_init(|| Node::leaf(SENTINEL_KEY, 0));
        Self {
            lock: L::default(),
            root: pool.alloc_init(|| Node::router(SENTINEL_KEY, l, r)),
            pool,
        }
    }

    /// Finds `(gparent, parent, leaf)` for `key`.
    ///
    /// # Safety
    ///
    /// Caller must be inside a QSBR grace period.
    #[inline]
    unsafe fn locate(&self, key: Key) -> (*mut Node, *mut Node, *mut Node) {
        // SAFETY: per contract.
        unsafe {
            let mut gp = self.root;
            let mut p = gp;
            let mut cur = (*p).child_for(key).load(Ordering::Acquire);
            while !(*cur).leaf {
                gp = p;
                p = cur;
                cur = (*p).child_for(key).load(Ordering::Acquire);
            }
            (gp, p, cur)
        }
    }
}

impl<L: OptikLock> Default for OptikGlBst<L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<L: OptikLock> ConcurrentSet for OptikGlBst<L> {
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
        loop {
            let vn = self.lock.get_version();
            // SAFETY: grace period per attempt.
            unsafe {
                let (_, p, l) = self.locate(key);
                if (*l).key == key {
                    // Infeasible: return false without ever locking.
                    return false;
                }
                if !self.lock.try_lock_version(vn) {
                    bo.backoff();
                    continue;
                }
                // Validated: no update committed since `vn`, so the
                // traversal results are still exact.
                let new_leaf = self.pool.alloc_init(|| Node::leaf(key, val));
                let router = if key < (*l).key {
                    self.pool.alloc_init(|| Node::router((*l).key, new_leaf, l))
                } else {
                    self.pool.alloc_init(|| Node::router(key, l, new_leaf))
                };
                (*p).child_for(key).store(router, Ordering::Release);
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
            // SAFETY: grace period per attempt.
            unsafe {
                let (gp, p, l) = self.locate(key);
                if (*l).key != key {
                    // Infeasible: return without ever locking.
                    return None;
                }
                if !self.lock.try_lock_version(vn) {
                    bo.backoff();
                    continue;
                }
                let sibling = (*p).sibling_for(key).load(Ordering::Relaxed);
                (*gp).child_for(key).store(sibling, Ordering::Release);
                self.lock.unlock();
                let val = (*l).val;
                // SAFETY: unlinked under the validated lock.
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
    use optik::OptikTicket;
    use std::sync::Arc;

    #[test]
    fn infeasible_updates_never_bump_the_version() {
        let t: OptikGlBst = OptikGlBst::new();
        assert!(t.insert(5, 50));
        let v0 = t.lock.get_version();
        assert!(!t.insert(5, 99), "duplicate insert is infeasible");
        assert_eq!(t.delete(7), None, "missing delete is infeasible");
        assert_eq!(t.search(5), Some(50));
        assert_eq!(
            t.lock.get_version(),
            v0,
            "infeasible operations must not synchronize"
        );
    }

    #[test]
    fn works_over_ticket_locks_too() {
        let t: OptikGlBst<OptikTicket> = OptikGlBst::new();
        for k in 1..=50u64 {
            assert!(t.insert(k, k));
        }
        for k in 1..=50u64 {
            assert_eq!(t.delete(k), Some(k));
        }
        assert!(t.is_empty());
    }

    #[test]
    fn concurrent_churn_preserves_stable_keys() {
        let t = Arc::new(OptikGlBst::<OptikVersioned>::new());
        for k in 500..600u64 {
            assert!(t.insert(k, k));
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let hs: Vec<_> = (0..4u64)
            .map(|i| {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut x = 0xA076_1D64_78BD_642Fu64.wrapping_mul(i + 1);
                    while !stop.load(Ordering::Relaxed) {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = 1 + (x % 400);
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
        for _ in 0..1_000 {
            for k in 500..600u64 {
                assert_eq!(t.search(k), Some(k));
            }
            reclaim::quiescent();
        }
        stop.store(true, Ordering::Relaxed);
        for h in hs {
            h.join().unwrap();
        }
        reclaim::online();
    }
}
