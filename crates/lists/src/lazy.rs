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
//!
//! The `marked` flag is the low bit of a per-node **stamp** that only
//! grows: delete sets it under the node's lock, and recycling the slot
//! moves the stamp to the next even value. That makes the stamp the word a
//! node cache validates against with one load, as OPTIK validates a
//! version ([`LazyList::handle`], *lazy-cache*): the paper notes node
//! caching "can be also applied on non-OPTIK algorithms, given that we can
//! avoid the ABA problem and that we can detect whether a node is valid".

use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use reclaim::NodePool;
use synchro::{Backoff, RawLock, TtasLock};

use crate::cache::{CachedNode, NodeCache};
use crate::{assert_user_key, ConcurrentSet, Key, SetHandle, Val, LIST_POOL_CHUNK, TAIL_KEY};

/// Every field is atomic: a handle's cached pointer outlives its
/// operation, so a stale validator may read a slot while it is recycled.
/// `key`, `val` and `next` are written `Relaxed` before the node is
/// published by a `Release` store to its predecessor's `next` (and, in a
/// recycled slot, before the `Release` store that moves its stamp);
/// readers reach them through an `Acquire` load of that `next` or stamp.
pub(crate) struct Node {
    key: AtomicU64,
    val: AtomicU64,
    /// Odd while the node is marked (logically deleted). Written only by
    /// the deleter, under `lock`, and by the slot's recycler.
    stamp: AtomicU32,
    lock: TtasLock,
    next: AtomicPtr<Node>,
}

const _: () = assert!(std::mem::size_of::<Node>() == 32);

impl Node {
    fn new(key: Key, val: Val, next: *mut Node) -> Self {
        Node {
            key: AtomicU64::new(key),
            val: AtomicU64::new(val),
            stamp: AtomicU32::new(0),
            lock: TtasLock::new(),
            next: AtomicPtr::new(next),
        }
    }

    fn is_marked(&self) -> bool {
        self.stamp.load(Ordering::Acquire) & 1 == 1
    }

    /// Marks the node (odd stamp) or, on a recycled slot, unmarks it (next
    /// even stamp). The caller is the stamp's only writer (see `stamp`).
    fn advance_stamp(&self) {
        let s = self.stamp.load(Ordering::Relaxed);
        self.stamp.store(s.wrapping_add(1), Ordering::Release);
    }
}

impl CachedNode for Node {
    fn word(&self) -> u64 {
        u64::from(self.stamp.load(Ordering::Acquire))
    }

    fn key(&self) -> Key {
        self.key.load(Ordering::Relaxed)
    }
}

/// The lazy (Heller et al.) list (*lazy* in Figure 9; through
/// [`LazyList::handle`], *lazy-cache*).
///
/// Nodes come from a type-stable [`NodePool`]; a slot's stamp only grows,
/// so a handle's cached `(node, stamp)` pair can never validate against a
/// deleted or recycled node. A stamp that wraps (2^31 recycles of one slot
/// while a handle holds it) could; OPTIK's 64-bit version has the same
/// caveat at 2^63.
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
        let tail = Self::alloc_node(&pool, TAIL_KEY, 0, std::ptr::null_mut());
        let head = Self::alloc_node(&pool, crate::HEAD_KEY, 0, tail);
        Self { head, pool }
    }

    /// Per-thread session with a node cache (*lazy-cache*, §5.1): each
    /// operation may enter at the node the previous one stopped at.
    pub fn handle(&self) -> LazyListHandle<'_> {
        LazyListHandle {
            list: self,
            cache: NodeCache::default(),
        }
    }

    /// Allocates a node. A recycled slot is re-initialized through its
    /// atomics and unmarked by moving its stamp to the next even value,
    /// past every cached observation of the previous occupant.
    fn alloc_node(pool: &NodePool<Node>, key: Key, val: Val, next: *mut Node) -> *mut Node {
        let p = pool.alloc(|| Node::new(key, val, next));
        if p.recycled {
            // SAFETY: the slot is valid for the pool's lifetime.
            let n = unsafe { &*p.ptr };
            n.key.store(key, Ordering::Relaxed);
            n.val.store(val, Ordering::Relaxed);
            n.next.store(next, Ordering::Relaxed);
            debug_assert!(n.is_marked());
            n.advance_stamp();
        }
        p.ptr
    }

    /// Where an operation starts: the validated cached node, else head.
    ///
    /// # Safety
    ///
    /// As [`NodeCache::entry`].
    #[inline]
    unsafe fn start(&self, cache: Option<&mut NodeCache<Node>>, key: Key) -> *mut Node {
        // SAFETY: per contract.
        match cache.and_then(|c| unsafe { c.entry(key) }) {
            Some((node, _)) => node,
            None => self.head,
        }
    }

    /// # Safety
    ///
    /// Caller must be inside a QSBR grace period; `start` is head or a
    /// validated cache entry.
    #[inline]
    unsafe fn locate(start: *mut Node, key: Key) -> (*mut Node, *mut Node) {
        // SAFETY: per contract.
        unsafe {
            let mut pred = start;
            let mut cur = (*pred).next.load(Ordering::Acquire);
            while (*cur).key.load(Ordering::Relaxed) < key {
                pred = cur;
                cur = (*cur).next.load(Ordering::Acquire);
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
            !(*pred).is_marked()
                && !(*cur).is_marked()
                && (*pred).next.load(Ordering::Acquire) == cur
        }
    }

    /// The one body of `search`, as of `insert` and `delete` below:
    /// `cache` is `None` for the [`ConcurrentSet`] ops and the handle's
    /// cache for the [`LazyListHandle`] ops. Inlined into both, so the plain
    /// ops carry no cache branch.
    #[inline(always)]
    fn search_at(&self, mut cache: Option<&mut NodeCache<Node>>, key: Key) -> Option<Val> {
        assert_user_key(key);
        reclaim::quiescent();
        // SAFETY: QSBR grace period; a validated cache entry is protected
        // like any node reachable after the quiescent point.
        unsafe {
            let (pred, cur) = Self::locate(self.start(cache.as_deref_mut(), key), key);
            if let Some(c) = cache {
                c.remember(pred);
            }
            ((*cur).key.load(Ordering::Relaxed) == key && !(*cur).is_marked())
                .then(|| (*cur).val.load(Ordering::Relaxed))
        }
    }

    #[inline(always)]
    fn insert_at(&self, mut cache: Option<&mut NodeCache<Node>>, key: Key, val: Val) -> bool {
        assert_user_key(key);
        reclaim::quiescent();
        let mut bo = Backoff::adaptive();
        // SAFETY: QSBR grace period throughout the operation.
        unsafe {
            // The first attempt may enter at the cached node; retries
            // start from head.
            let mut first = cache.as_deref_mut();
            let (pred, inserted) = loop {
                let (pred, cur) = Self::locate(self.start(first.take(), key), key);
                if (*cur).key.load(Ordering::Relaxed) == key {
                    if !(*cur).is_marked() {
                        // Infeasible: present and alive — no locking.
                        break (pred, false);
                    }
                    // Key is being deleted; retry until it is unlinked.
                    bo.backoff();
                    continue;
                }
                (*pred).lock.lock();
                if Self::validate(pred, cur) {
                    let newnode = Self::alloc_node(&self.pool, key, val, cur);
                    (*pred).next.store(newnode, Ordering::Release);
                    (*pred).lock.unlock();
                    break (pred, true);
                }
                (*pred).lock.unlock();
                bo.backoff();
            };
            if let Some(c) = cache {
                c.remember(pred);
            }
            inserted
        }
    }

    #[inline(always)]
    fn delete_at(&self, mut cache: Option<&mut NodeCache<Node>>, key: Key) -> Option<Val> {
        assert_user_key(key);
        reclaim::quiescent();
        let mut bo = Backoff::adaptive();
        // SAFETY: QSBR grace period throughout the operation.
        unsafe {
            let mut first = cache.as_deref_mut();
            let (pred, deleted) = loop {
                let (pred, cur) = Self::locate(self.start(first.take(), key), key);
                // A marked key: a concurrent delete won; linearize after it.
                if (*cur).key.load(Ordering::Relaxed) != key || (*cur).is_marked() {
                    break (pred, None);
                }
                (*pred).lock.lock();
                (*cur).lock.lock();
                if Self::validate(pred, cur) {
                    // Logical delete (the linearization point)...
                    (*cur).advance_stamp();
                    // ...then physical unlink.
                    (*pred)
                        .next
                        .store((*cur).next.load(Ordering::Relaxed), Ordering::Release);
                    let val = (*cur).val.load(Ordering::Relaxed);
                    (*cur).lock.unlock();
                    (*pred).lock.unlock();
                    // SAFETY: unlinked exactly once by us.
                    reclaim::with_local(|h| self.pool.retire(cur, h));
                    break (pred, Some(val));
                }
                (*cur).lock.unlock();
                (*pred).lock.unlock();
                bo.backoff();
            };
            if let Some(c) = cache {
                c.remember(pred);
            }
            deleted
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
        self.search_at(None, key)
    }

    fn insert(&self, key: Key, val: Val) -> bool {
        self.insert_at(None, key, val)
    }

    fn delete(&self, key: Key) -> Option<Val> {
        self.delete_at(None, key)
    }

    fn len(&self) -> usize {
        reclaim::quiescent();
        // SAFETY: QSBR grace period.
        unsafe {
            let mut n = 0;
            let mut cur = (*self.head).next.load(Ordering::Acquire);
            while (*cur).key.load(Ordering::Relaxed) != TAIL_KEY {
                if !(*cur).is_marked() {
                    n += 1;
                }
                cur = (*cur).next.load(Ordering::Acquire);
            }
            n
        }
    }
}

/// Per-thread session on a [`LazyList`] holding its node cache.
pub struct LazyListHandle<'a> {
    list: &'a LazyList,
    cache: NodeCache<Node>,
}

impl LazyListHandle<'_> {
    /// Operations that entered through the cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache.hits
    }

    /// Operations that started from head.
    pub fn cache_misses(&self) -> u64 {
        self.cache.misses
    }
}

impl SetHandle for LazyListHandle<'_> {
    fn search(&mut self, key: Key) -> Option<Val> {
        self.list.search_at(Some(&mut self.cache), key)
    }

    fn insert(&mut self, key: Key, val: Val) -> bool {
        self.list.insert_at(Some(&mut self.cache), key, val)
    }

    fn delete(&mut self, key: Key) -> Option<Val> {
        self.list.delete_at(Some(&mut self.cache), key)
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
        assert_eq!(l.delete(4), None);
        assert_eq!(l.search(4), None);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn basic_roundtrip_through_handle() {
        let l = LazyList::new();
        let mut h = l.handle();
        assert!(h.insert(3, 30));
        assert!(h.insert(9, 90));
        assert!(!h.insert(3, 33));
        assert_eq!(h.search(9), Some(90));
        assert_eq!(h.delete(3), Some(30));
        assert_eq!(h.delete(3), None);
        assert_eq!(h.search(3), None);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn cache_hits_on_ascending_scan() {
        let l = LazyList::new();
        for k in 1..=100u64 {
            l.insert(k, k);
        }
        let mut h = l.handle();
        for k in 1..=100u64 {
            assert_eq!(h.search(k), Some(k));
        }
        assert!(h.cache_hits() > 50, "hits: {}", h.cache_hits());
    }

    #[test]
    fn stale_marked_entry_is_rejected() {
        let l = LazyList::new();
        for k in [10u64, 20, 30] {
            l.insert(k, k);
        }
        let mut h = l.handle();
        assert_eq!(h.search(20), Some(20)); // caches node 10
        assert_eq!(l.delete(10), Some(10)); // cached node now marked
        assert_eq!(h.search(30), Some(30)); // must start from head
        assert_eq!(h.cache_hits(), 0);
        assert_eq!(h.delete(20), Some(20));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn deleting_a_cached_node_changes_the_word_it_validates_against() {
        // One load of the stamp must tell a cached entry it is stale: a
        // mark kept apart from the stamp leaves a window in which the
        // stamp still matches and the mark is already cleared by the
        // slot's recycler, so an unlinked, half-initialized node passes.
        let l = LazyList::new();
        l.insert(10, 100);
        l.insert(20, 200);
        let mut h = l.handle();
        assert_eq!(h.search(20), Some(200)); // caches node 10
                                             // SAFETY: type-stable pool memory, and this thread has not
                                             // quiesced since the node was retired, so it is not recycled.
        unsafe {
            let node = (*l.head).next.load(Ordering::Acquire);
            let before = (*node).word();
            assert_eq!(l.delete(10), Some(100));
            assert_ne!((*node).word(), before, "delete left the word unchanged");
        }
        assert_eq!(h.search(20), Some(200));
        assert_eq!(h.cache_hits(), 0, "a deleted node was an entry point");
    }

    #[test]
    fn recycled_entry_is_rejected_by_stamp() {
        let l = LazyList::new();
        l.insert(10, 100);
        let mut h = l.handle();
        assert_eq!(h.search(50), None); // caches node 10
        assert_eq!(l.delete(10), Some(100));
        // Churn so the slot gets recycled with a different key.
        for r in 0..300u64 {
            let k = 1000 + r;
            l.insert(k, k);
            l.delete(k);
        }
        assert_eq!(h.search(10), None);
        assert!(h.insert(10, 101));
        assert_eq!(h.search(10), Some(101));
    }

    #[test]
    fn concurrent_caching_handles_consistent() {
        let l = Arc::new(LazyList::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let l = Arc::clone(&l);
            handles.push(std::thread::spawn(move || {
                let mut h = l.handle();
                let mut net = 0i64;
                let mut x = t.wrapping_mul(0xD1342543DE82EF95) | 1;
                for _ in 0..synchro::stress::ops(20_000) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = x % 48 + 1;
                    match x % 3 {
                        0 => {
                            if h.insert(k, k * 9) {
                                net += 1;
                            }
                        }
                        1 => {
                            if h.delete(k).is_some() {
                                net -= 1;
                            }
                        }
                        _ => {
                            if let Some(v) = h.search(k) {
                                assert_eq!(v, k * 9);
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
