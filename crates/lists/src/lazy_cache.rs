//! Lazy (Heller et al.) list with **node caching** (*lazy-cache*, §5.1).
//!
//! The paper notes node caching "can be also applied on non-OPTIK
//! algorithms, given that we can avoid the ABA problem and that we can
//! detect whether a node is valid". The lazy list has no version numbers,
//! so validity detection uses two ingredients:
//!
//! - the `marked` flag: deleted nodes stay marked until their slot is
//!   recycled, so a marked cached node is rejected;
//! - a per-slot **stamp** (even = stable, bumped twice around every
//!   recycle): a stamp mismatch proves the slot was reused for a different
//!   node since it was cached, defeating ABA.
//!
//! As with [`crate::OptikCacheList`], nodes live in a type-stable
//! [`reclaim::NodePool`] and recycling cannot complete within a single
//! operation (the grace period requires the operating thread to quiesce).

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use reclaim::NodePool;
use synchro::{Backoff, RawLock, TtasLock};

use crate::{assert_user_key, ConcurrentSet, Key, SetHandle, Val, TAIL_KEY};

pub(crate) struct PNode {
    key: AtomicU64,
    val: AtomicU64,
    marked: AtomicBool,
    lock: TtasLock,
    /// Recycle stamp: even while stable, bumped to odd at recycle start and
    /// back to even when re-initialization completes.
    stamp: AtomicU64,
    next: AtomicPtr<PNode>,
}

impl Default for PNode {
    fn default() -> Self {
        Self {
            key: AtomicU64::new(0),
            val: AtomicU64::new(0),
            marked: AtomicBool::new(false),
            lock: TtasLock::new(),
            stamp: AtomicU64::new(0),
            next: AtomicPtr::new(std::ptr::null_mut()),
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct CacheSlot {
    node: *mut PNode,
    stamp: u64,
    key: Key,
}

/// The node-caching lazy list (*lazy-cache*).
pub struct LazyCacheList {
    pool: Arc<NodePool<PNode>>,
    head: *mut PNode,
}

// SAFETY: per-node locks + logical-delete flags serialize modification;
// the pool keeps node memory type-stable; QSBR defers recycling.
unsafe impl Send for LazyCacheList {}
unsafe impl Sync for LazyCacheList {}

impl LazyCacheList {
    /// Creates an empty list backed by a fresh node pool.
    pub fn new() -> Self {
        let pool = NodePool::new();
        let tail = Self::alloc_node(&pool, TAIL_KEY, 0, std::ptr::null_mut());
        let head = Self::alloc_node(&pool, crate::HEAD_KEY, 0, tail);
        Self { pool, head }
    }

    fn alloc_node(pool: &Arc<NodePool<PNode>>, key: Key, val: Val, next: *mut PNode) -> *mut PNode {
        let p = pool.alloc(PNode::default);
        // SAFETY: slot valid for the pool's lifetime.
        unsafe {
            if p.recycled {
                // Recycle protocol: stamp to odd, rewrite, stamp to even.
                (*p.ptr).stamp.fetch_add(1, Ordering::AcqRel);
            }
            (*p.ptr).key.store(key, Ordering::Relaxed);
            (*p.ptr).val.store(val, Ordering::Relaxed);
            (*p.ptr).next.store(next, Ordering::Relaxed);
            if p.recycled {
                (*p.ptr).marked.store(false, Ordering::Relaxed);
                (*p.ptr).stamp.fetch_add(1, Ordering::Release);
            }
        }
        p.ptr
    }

    /// Per-thread caching session.
    pub fn handle(&self) -> LazyCacheHandle<'_> {
        LazyCacheHandle {
            list: self,
            cached: None,
            hits: 0,
            misses: 0,
        }
    }

    fn entry_for(&self, cache: &Option<CacheSlot>, key: Key) -> Option<*mut PNode> {
        let c = (*cache)?;
        if c.key >= key {
            return None;
        }
        // SAFETY: type-stable pool memory.
        unsafe {
            let s = (*c.node).stamp.load(Ordering::Acquire);
            if s == c.stamp && s % 2 == 0 && !(*c.node).marked.load(Ordering::Acquire) {
                Some(c.node)
            } else {
                None
            }
        }
    }

    /// # Safety
    ///
    /// Caller must be inside a QSBR grace period; `start` is head or a
    /// validated cache entry.
    #[inline]
    unsafe fn locate(start: *mut PNode, key: Key) -> (*mut PNode, *mut PNode) {
        // SAFETY: per contract.
        unsafe {
            let mut pred = start;
            let mut cur = (*pred).next.load(Ordering::Acquire);
            while (*cur).key.load(Ordering::Acquire) < key {
                pred = cur;
                cur = (*cur).next.load(Ordering::Acquire);
            }
            (pred, cur)
        }
    }

    /// # Safety
    ///
    /// QSBR grace period; caller holds the relevant locks.
    #[inline]
    unsafe fn validate(pred: *mut PNode, cur: *mut PNode) -> bool {
        // SAFETY: per contract.
        unsafe {
            !(*pred).marked.load(Ordering::Acquire)
                && !(*cur).marked.load(Ordering::Acquire)
                && (*pred).next.load(Ordering::Acquire) == cur
        }
    }

    fn cache_pred(cache: &mut Option<CacheSlot>, pred: *mut PNode) {
        // SAFETY: pred is live during this op (grace period).
        unsafe {
            let stamp = (*pred).stamp.load(Ordering::Acquire);
            if stamp % 2 == 0 {
                *cache = Some(CacheSlot {
                    node: pred,
                    stamp,
                    key: (*pred).key.load(Ordering::Relaxed),
                });
            }
        }
    }

    fn search_impl(&self, cache: &mut Option<CacheSlot>, key: Key) -> (Option<Val>, bool) {
        assert_user_key(key);
        reclaim::quiescent();
        let entry = self.entry_for(cache, key);
        let hit = entry.is_some();
        // SAFETY: grace period.
        unsafe {
            let start = entry.unwrap_or(self.head);
            let (pred, cur) = Self::locate(start, key);
            Self::cache_pred(cache, pred);
            let found = ((*cur).key.load(Ordering::Relaxed) == key
                && !(*cur).marked.load(Ordering::Acquire))
            .then(|| (*cur).val.load(Ordering::Relaxed));
            (found, hit)
        }
    }

    fn insert_impl(&self, cache: &mut Option<CacheSlot>, key: Key, val: Val) -> (bool, bool) {
        assert_user_key(key);
        reclaim::quiescent();
        let mut bo = Backoff::adaptive();
        let mut first_attempt_hit = None;
        loop {
            let entry = self.entry_for(cache, key);
            let hit = *first_attempt_hit.get_or_insert(entry.is_some());
            // SAFETY: grace period per attempt.
            unsafe {
                let start = entry.unwrap_or(self.head);
                let (pred, cur) = Self::locate(start, key);
                if (*cur).key.load(Ordering::Relaxed) == key {
                    if !(*cur).marked.load(Ordering::Acquire) {
                        Self::cache_pred(cache, pred);
                        return (false, hit);
                    }
                    *cache = None;
                    bo.backoff();
                    continue;
                }
                (*pred).lock.lock();
                if Self::validate(pred, cur) {
                    let newnode = Self::alloc_node(&self.pool, key, val, cur);
                    (*pred).next.store(newnode, Ordering::Release);
                    (*pred).lock.unlock();
                    Self::cache_pred(cache, pred);
                    return (true, hit);
                }
                (*pred).lock.unlock();
                *cache = None;
                bo.backoff();
            }
        }
    }

    fn delete_impl(&self, cache: &mut Option<CacheSlot>, key: Key) -> (Option<Val>, bool) {
        assert_user_key(key);
        reclaim::quiescent();
        let mut bo = Backoff::adaptive();
        let mut first_attempt_hit = None;
        loop {
            let entry = self.entry_for(cache, key);
            let hit = *first_attempt_hit.get_or_insert(entry.is_some());
            // SAFETY: grace period per attempt.
            unsafe {
                let start = entry.unwrap_or(self.head);
                let (pred, cur) = Self::locate(start, key);
                if (*cur).key.load(Ordering::Relaxed) != key
                    || (*cur).marked.load(Ordering::Acquire)
                {
                    Self::cache_pred(cache, pred);
                    return (None, hit);
                }
                (*pred).lock.lock();
                (*cur).lock.lock();
                if Self::validate(pred, cur) {
                    (*cur).marked.store(true, Ordering::Release);
                    (*pred)
                        .next
                        .store((*cur).next.load(Ordering::Relaxed), Ordering::Release);
                    let val = (*cur).val.load(Ordering::Relaxed);
                    (*cur).lock.unlock();
                    (*pred).lock.unlock();
                    // SAFETY: unlinked once; recycled after grace period.
                    reclaim::with_local(|h| self.pool.retire(cur, h));
                    Self::cache_pred(cache, pred);
                    return (Some(val), hit);
                }
                (*cur).lock.unlock();
                (*pred).lock.unlock();
                *cache = None;
                bo.backoff();
            }
        }
    }
}

impl Default for LazyCacheList {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentSet for LazyCacheList {
    fn search(&self, key: Key) -> Option<Val> {
        self.search_impl(&mut None, key).0
    }

    fn insert(&self, key: Key, val: Val) -> bool {
        self.insert_impl(&mut None, key, val).0
    }

    fn delete(&self, key: Key) -> Option<Val> {
        self.delete_impl(&mut None, key).0
    }

    fn len(&self) -> usize {
        reclaim::quiescent();
        // SAFETY: grace-period traversal.
        unsafe {
            let mut n = 0;
            let mut cur = (*self.head).next.load(Ordering::Acquire);
            while (*cur).key.load(Ordering::Relaxed) != TAIL_KEY {
                if !(*cur).marked.load(Ordering::Relaxed) {
                    n += 1;
                }
                cur = (*cur).next.load(Ordering::Acquire);
            }
            n
        }
    }
}

/// Per-thread caching session on a [`LazyCacheList`].
pub struct LazyCacheHandle<'a> {
    list: &'a LazyCacheList,
    cached: Option<CacheSlot>,
    hits: u64,
    misses: u64,
}

impl LazyCacheHandle<'_> {
    /// Operations that entered through the cache.
    pub fn cache_hits(&self) -> u64 {
        self.hits
    }

    /// Operations that started from the head.
    pub fn cache_misses(&self) -> u64 {
        self.misses
    }

    fn tally(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }
}

impl SetHandle for LazyCacheHandle<'_> {
    fn search(&mut self, key: Key) -> Option<Val> {
        let (r, hit) = self.list.search_impl(&mut self.cached, key);
        self.tally(hit);
        r
    }

    fn insert(&mut self, key: Key, val: Val) -> bool {
        let (r, hit) = self.list.insert_impl(&mut self.cached, key, val);
        self.tally(hit);
        r
    }

    fn delete(&mut self, key: Key) -> Option<Val> {
        let (r, hit) = self.list.delete_impl(&mut self.cached, key);
        self.tally(hit);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;

    #[test]
    fn basic_roundtrip() {
        let l = LazyCacheList::new();
        assert!(l.insert(3, 30));
        assert!(l.insert(9, 90));
        assert!(!l.insert(3, 33));
        assert_eq!(l.search(9), Some(90));
        assert_eq!(l.delete(3), Some(30));
        assert_eq!(l.delete(3), None);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn cache_hits_on_ascending_scan() {
        let l = LazyCacheList::new();
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
        let l = LazyCacheList::new();
        for k in [10u64, 20, 30] {
            l.insert(k, k);
        }
        let mut h = l.handle();
        assert_eq!(h.search(20), Some(20)); // caches node 10
        assert_eq!(l.delete(10), Some(10)); // cached node now marked
        assert_eq!(h.search(30), Some(30)); // must start from head
        assert_eq!(h.delete(20), Some(20));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn recycled_entry_is_rejected_by_stamp() {
        let l = LazyCacheList::new();
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
        let l = StdArc::new(LazyCacheList::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let l = StdArc::clone(&l);
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
}
