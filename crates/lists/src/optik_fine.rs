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

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use optik::{OptikLock, OptikVersioned, Version};
use reclaim::NodePool;
use synchro::Backoff;

use crate::cache::{CachedNode, NodeCache};
use crate::{assert_user_key, ConcurrentSet, Key, SetHandle, Val, LIST_POOL_CHUNK, TAIL_KEY};

/// Every field is atomic: a handle's cached pointer outlives its
/// operation, so a stale validator may read a slot while it is recycled.
/// `key`, `val` and `next` are written `Relaxed` before the node is
/// published by a `Release` store to its predecessor's `next` (and, in a
/// recycled slot, before the `Release` unlock that moves its version);
/// readers reach them through an `Acquire` load of that `next` or version.
pub(crate) struct Node {
    key: AtomicU64,
    val: AtomicU64,
    lock: OptikVersioned,
    next: AtomicPtr<Node>,
}

const _: () = assert!(std::mem::size_of::<Node>() == 32);

impl Node {
    fn new(key: Key, val: Val, next: *mut Node) -> Self {
        Node {
            key: AtomicU64::new(key),
            val: AtomicU64::new(val),
            lock: OptikVersioned::new(),
            next: AtomicPtr::new(next),
        }
    }
}

impl CachedNode for Node {
    fn word(&self) -> u64 {
        self.lock.get_version()
    }

    fn key(&self) -> Key {
        self.key.load(Ordering::Relaxed)
    }
}

/// The fine-grained OPTIK list (*optik* in Figure 9; through
/// [`OptikList::handle`], *optik-cache*).
///
/// Nodes come from a type-stable [`NodePool`]. A deleted node's version
/// stays locked until its slot is recycled, and recycling *unlocks* it, so
/// a slot's version only grows: a handle's cached `(node, version)` pair
/// can never validate against a deleted or recycled node.
pub struct OptikList {
    head: *mut Node,
    pool: Arc<NodePool<Node>>,
}

// SAFETY: all shared mutation goes through per-node OPTIK locks and atomic
// node fields; reclamation is QSBR.
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
        let tail = Self::alloc_node(&pool, TAIL_KEY, 0, std::ptr::null_mut());
        let head = Self::alloc_node(&pool, crate::HEAD_KEY, 0, tail);
        Self { head, pool }
    }

    /// Per-thread session with a node cache (*optik-cache*, §5.1): each
    /// operation may enter at the node the previous one stopped at.
    pub fn handle(&self) -> OptikListHandle<'_> {
        OptikListHandle {
            list: self,
            cache: NodeCache::default(),
        }
    }

    /// Allocates a node. A recycled slot is re-initialized through its
    /// atomics and unlocked from its locked-forever state, which moves its
    /// version past every cached observation of the previous occupant.
    fn alloc_node(pool: &NodePool<Node>, key: Key, val: Val, next: *mut Node) -> *mut Node {
        let p = pool.alloc(|| Node::new(key, val, next));
        if p.recycled {
            // SAFETY: the slot is valid for the pool's lifetime.
            let n = unsafe { &*p.ptr };
            n.key.store(key, Ordering::Relaxed);
            n.val.store(val, Ordering::Relaxed);
            n.next.store(next, Ordering::Relaxed);
            debug_assert!(n.lock.is_locked());
            n.lock.unlock();
        }
        p.ptr
    }

    /// Traversal for updates: returns `(pred, predv, cur, curv)` with
    /// `pred.key < key <= cur.key`, where each version was read *on
    /// arrival* at the node — before its key or next pointer (Fig. 8(a)).
    ///
    /// # Safety
    ///
    /// Caller must be inside a QSBR-protected section (no quiescence until
    /// the returned pointers are no longer used); `start` is head or a
    /// validated cache entry, read at `start_v`.
    #[inline]
    unsafe fn locate_tracking(
        start: *mut Node,
        start_v: Version,
        key: Key,
    ) -> (*mut Node, Version, *mut Node, Version) {
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
                if (*cur).key.load(Ordering::Relaxed) >= key {
                    return (pred, predv, cur, curv);
                }
            }
        }
    }

    /// Where an update starts: the validated cached node if there is one,
    /// else head, each with its version.
    ///
    /// # Safety
    ///
    /// As [`NodeCache::entry`].
    #[inline]
    unsafe fn start(&self, cache: Option<&mut NodeCache<Node>>, key: Key) -> (*mut Node, Version) {
        // SAFETY: per contract; head is never deleted.
        unsafe {
            cache
                .and_then(|c| c.entry(key))
                .unwrap_or_else(|| (self.head, (*self.head).lock.get_version()))
        }
    }

    /// The one body of `search`, as of `insert` and `delete` below:
    /// `cache` is `None` for the [`ConcurrentSet`] ops and the handle's
    /// cache for the [`OptikListHandle`] ops. Inlined into both, so the plain
    /// ops carry no cache branch.
    #[inline(always)]
    fn search_at(&self, mut cache: Option<&mut NodeCache<Node>>, key: Key) -> Option<Val> {
        assert_user_key(key);
        reclaim::quiescent();
        // SAFETY: past the quiescent point, every reachable node survives
        // until our next quiescent point (QSBR grace period), and so does a
        // validated cache entry.
        unsafe {
            // Searches are "completely oblivious to concurrency" (Fig. 8(c)).
            let mut pred = match cache.as_deref_mut().and_then(|c| c.entry(key)) {
                Some((node, _)) => node,
                None => self.head,
            };
            let mut cur = (*pred).next.load(Ordering::Acquire);
            while (*cur).key.load(Ordering::Relaxed) < key {
                pred = cur;
                cur = (*cur).next.load(Ordering::Acquire);
            }
            if let Some(c) = cache {
                c.remember(pred);
            }
            ((*cur).key.load(Ordering::Relaxed) == key).then(|| (*cur).val.load(Ordering::Relaxed))
        }
    }

    #[inline(always)]
    fn insert_at(&self, mut cache: Option<&mut NodeCache<Node>>, key: Key, val: Val) -> bool {
        assert_user_key(key);
        reclaim::quiescent();
        let mut bo = Backoff::adaptive();
        // SAFETY: within the QSBR grace period (no quiescence below).
        unsafe {
            // The first attempt may enter at the cached node; retries
            // start from head.
            let mut first = cache.as_deref_mut();
            let (pred, inserted) = loop {
                let (start, start_v) = self.start(first.take(), key);
                // Fig. 8(b): version of each node read before advancing.
                let (pred, predv, cur, _curv) = Self::locate_tracking(start, start_v, key);
                if (*cur).key.load(Ordering::Relaxed) == key {
                    // Infeasible: returns without any synchronization.
                    break (pred, false);
                }
                if !(*pred).lock.try_lock_version(predv) {
                    bo.backoff();
                    continue;
                }
                // Validated: pred unmodified since we read predv, hence
                // still linked and still pointing at cur.
                let newnode = Self::alloc_node(&self.pool, key, val, cur);
                (*pred).next.store(newnode, Ordering::Release);
                (*pred).lock.unlock();
                break (pred, true);
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
        // SAFETY: within the QSBR grace period (no quiescence below).
        unsafe {
            let mut first = cache.as_deref_mut();
            let (pred, deleted) = loop {
                let (start, start_v) = self.start(first.take(), key);
                let (pred, predv, cur, curv) = Self::locate_tracking(start, start_v, key);
                if (*cur).key.load(Ordering::Relaxed) != key {
                    break (pred, None);
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
                // cur's lock is intentionally never released (until its
                // slot is recycled): a locked-forever version makes any
                // stale validation against the deleted node fail.
                (*pred)
                    .next
                    .store((*cur).next.load(Ordering::Relaxed), Ordering::Release);
                let val = (*cur).val.load(Ordering::Relaxed);
                (*pred).lock.unlock();
                // SAFETY: cur is unlinked; one retire; recycled after grace.
                reclaim::with_local(|h| self.pool.retire(cur, h));
                break (pred, Some(val));
            };
            if let Some(c) = cache {
                c.remember(pred);
            }
            deleted
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
        // SAFETY: grace-period traversal as in search.
        unsafe {
            let mut n = 0;
            let mut cur = (*self.head).next.load(Ordering::Acquire);
            while (*cur).key.load(Ordering::Relaxed) != TAIL_KEY {
                n += 1;
                cur = (*cur).next.load(Ordering::Acquire);
            }
            n
        }
    }
}

/// Per-thread session on an [`OptikList`] holding its node cache.
pub struct OptikListHandle<'a> {
    list: &'a OptikList,
    cache: NodeCache<Node>,
}

impl OptikListHandle<'_> {
    /// Operations that entered through the cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache.hits
    }

    /// Operations that started from head.
    pub fn cache_misses(&self) -> u64 {
        self.cache.misses
    }
}

impl SetHandle for OptikListHandle<'_> {
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
            while (*cur).key() != TAIL_KEY {
                assert!((*cur).key() > prev_key, "sorted order violated");
                prev_key = (*cur).key();
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

    #[test]
    fn basic_roundtrip_without_cache() {
        let l = OptikList::new();
        assert!(l.insert(3, 30));
        assert!(l.insert(7, 70));
        assert!(!l.insert(3, 31));
        assert_eq!(l.search(7), Some(70));
        assert_eq!(l.delete(3), Some(30));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn handle_cache_hits_on_ascending_access() {
        let l = OptikList::new();
        for k in 1..=100u64 {
            l.insert(k, k);
        }
        let mut h = l.handle();
        // Ascending searches: each op's predecessor is a valid entry for
        // the next (key grows).
        for k in 1..=100u64 {
            assert_eq!(h.search(k), Some(k));
        }
        assert!(
            h.cache_hits() > 50,
            "ascending scan should mostly hit: {} hits / {} misses",
            h.cache_hits(),
            h.cache_misses()
        );
    }

    #[test]
    fn cache_rejects_deleted_entry_node() {
        let l = OptikList::new();
        for k in [10u64, 20, 30] {
            l.insert(k, k);
        }
        let mut h = l.handle();
        // Search caches pred (node 10); delete it through another path.
        assert_eq!(h.search(20), Some(20));
        assert_eq!(l.delete(10), Some(10));
        // The next op must not trust the stale entry (deleted ⇒ locked).
        assert_eq!(h.search(30), Some(30));
        assert_eq!(h.cache_hits(), 0);
        assert_eq!(h.delete(20), Some(20));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn cache_rejects_recycled_entry_node() {
        let l = OptikList::new();
        l.insert(10, 100);
        let mut h = l.handle();
        // Search caches node 10; delete it and churn enough allocations to
        // recycle its slot.
        assert_eq!(h.search(15), None);
        assert_eq!(l.delete(10), Some(100));
        for r in 0..200u64 {
            let k = 1000 + r;
            l.insert(k, k);
            l.delete(k);
        }
        // Handle must still work correctly whatever happened to the slot.
        assert_eq!(h.search(10), None);
        assert!(h.insert(10, 101));
        assert_eq!(h.search(10), Some(101));
    }

    #[test]
    fn pool_recycles_slots() {
        // Recycling needs a QSBR grace period; other tests in this binary
        // share the global domain and may briefly stall it (threads blocked
        // in join), so churn until recycling is observed, with a generous
        // deadline.
        let l = OptikList::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        loop {
            for round in 0..500u64 {
                let k = round % 10 + 1;
                l.insert(k, k);
                l.delete(k);
            }
            reclaim::with_local(|h| {
                h.flush();
                h.collect();
            });
            assert!(l.pool.allocations() >= 500);
            if l.pool.recycle_hits() > 0 {
                return;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "no slot was ever recycled"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn concurrent_handles_with_caches_are_consistent() {
        let l = Arc::new(OptikList::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let l = Arc::clone(&l);
            handles.push(std::thread::spawn(move || {
                let mut h = l.handle();
                let mut net = 0i64;
                let mut x = t.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                for _ in 0..synchro::stress::ops(20_000) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = x % 48 + 1;
                    match x % 3 {
                        0 => {
                            if h.insert(k, k * 5) {
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
                                assert_eq!(v, k * 5, "corrupted value for {k}");
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
