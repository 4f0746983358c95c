//! Global-lock external BST with non-synchronized searches (*mcs-gl*).
//!
//! The tree analogue of the list crate's *mcs-gl-opt*: updates serialize
//! behind one MCS lock, searches traverse lock-free and rely on QSBR. The
//! linearization points of updates are the child-pointer stores.

use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

use reclaim::NodePool;
use synchro::McsLock;

use crate::{assert_user_key, ConcurrentSet, Key, Val, SENTINEL_KEY};

struct Node {
    key: Key,
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

/// The MCS global-lock external BST with lock-free searches (*mcs-gl*).
///
/// Nodes come from a type-stable [`NodePool`]; no pointer survives across
/// operations, so recycled slots are plainly re-initialized after their
/// grace period.
pub struct GlobalLockBst {
    lock: McsLock,
    root: *mut Node,
    pool: Arc<NodePool<Node>>,
}

// SAFETY: updates are serialized by the MCS lock; searches only read
// QSBR-protected nodes through atomic child pointers.
unsafe impl Send for GlobalLockBst {}
unsafe impl Sync for GlobalLockBst {}

impl GlobalLockBst {
    /// Creates an empty tree.
    pub fn new() -> Self {
        let pool = NodePool::new();
        let l = pool.alloc_init(|| Node::leaf(SENTINEL_KEY, 0));
        let r = pool.alloc_init(|| Node::leaf(SENTINEL_KEY, 0));
        Self {
            lock: McsLock::new(),
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

impl Default for GlobalLockBst {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentSet for GlobalLockBst {
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
        self.lock.with(|| {
            // SAFETY: grace period; updates serialized by the lock.
            unsafe {
                let (_, p, l) = self.locate(key);
                if (*l).key == key {
                    return false;
                }
                let new_leaf = self.pool.alloc_init(|| Node::leaf(key, val));
                let router = if key < (*l).key {
                    self.pool.alloc_init(|| Node::router((*l).key, new_leaf, l))
                } else {
                    self.pool.alloc_init(|| Node::router(key, l, new_leaf))
                };
                (*p).child_for(key).store(router, Ordering::Release);
                true
            }
        })
    }

    fn delete(&self, key: Key) -> Option<Val> {
        assert_user_key(key);
        reclaim::quiescent();
        self.lock.with(|| {
            // SAFETY: grace period; updates serialized by the lock.
            unsafe {
                let (gp, p, l) = self.locate(key);
                if (*l).key != key {
                    return None;
                }
                let sibling = (*p).sibling_for(key).load(Ordering::Relaxed);
                (*gp).child_for(key).store(sibling, Ordering::Release);
                let val = (*l).val;
                // SAFETY: unlinked under the lock; searches may still hold
                // references, hence QSBR retire.
                reclaim::with_local(|h| {
                    self.pool.retire(p, h);
                    self.pool.retire(l, h);
                });
                Some(val)
            }
        })
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
    use std::sync::Arc;

    #[test]
    fn updates_serialize_searches_do_not_block() {
        let t = Arc::new(GlobalLockBst::new());
        for k in 1..=100u64 {
            assert!(t.insert(k, k * 2));
        }
        let hs: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for k in 1..=100u64 {
                        assert_eq!(t.search(k), Some(k * 2));
                    }
                    reclaim::offline();
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        reclaim::online();
    }

    #[test]
    fn concurrent_updates_preserve_net_count() {
        let t = Arc::new(GlobalLockBst::new());
        let hs: Vec<_> = (0..4u64)
            .map(|i| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for j in 0..250u64 {
                        let k = 1 + i * 250 + j;
                        assert!(t.insert(k, k));
                        if j % 2 == 0 {
                            assert_eq!(t.delete(k), Some(k));
                        }
                    }
                    reclaim::offline();
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        reclaim::online();
        assert_eq!(t.len(), 4 * 125);
    }
}
