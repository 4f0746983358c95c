//! Fine-grained OPTIK list with **node caching** (*optik-cache*, §5.1).
//!
//! "Inspired by the fact that version numbers reveal whether a list node
//! has been modified, we develop the idea of node caching. Each thread
//! keeps track of the last accessed node after each operation, accompanied
//! by the version number that the thread observed. This node can be
//! subsequently used as the entry point for the next operation."
//!
//! A cached `(node, version)` pair is usable iff (i) the node's version is
//! unchanged and unlocked — deleted nodes keep their OPTIK lock *locked
//! forever* and recycled nodes get a strictly larger version, so both are
//! rejected — and (ii) the cached key is smaller than the target key.
//!
//! Nodes live in a type-stable [`reclaim::NodePool`], so dereferencing a
//! stale cached pointer is always a read of a valid node; every node field
//! is atomic because slot recycling re-initializes memory that stale
//! validators may be reading concurrently. Within a single operation,
//! recycling is impossible (the QSBR grace period cannot elapse before the
//! operating thread's next quiescent point), so traversals behave exactly
//! like the plain [`crate::OptikList`].

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use optik::{OptikLock, OptikVersioned, Version};
use reclaim::NodePool;
use synchro::Backoff;

use crate::{assert_user_key, ConcurrentSet, Key, SetHandle, Val, TAIL_KEY};

pub(crate) struct PNode {
    key: AtomicU64,
    val: AtomicU64,
    lock: OptikVersioned,
    next: AtomicPtr<PNode>,
}

impl Default for PNode {
    fn default() -> Self {
        Self {
            key: AtomicU64::new(0),
            val: AtomicU64::new(0),
            lock: OptikVersioned::new(),
            next: AtomicPtr::new(std::ptr::null_mut()),
        }
    }
}

/// A cached traversal entry point.
#[derive(Clone, Copy, Debug)]
struct CacheSlot {
    node: *mut PNode,
    version: Version,
    key: Key,
}

/// The node-caching fine-grained OPTIK list (*optik-cache*).
pub struct OptikCacheList {
    pool: Arc<NodePool<PNode>>,
    head: *mut PNode,
}

// SAFETY: per-node OPTIK locks serialize modification; the pool keeps all
// node memory type-stable; QSBR defers recycling across grace periods.
unsafe impl Send for OptikCacheList {}
unsafe impl Sync for OptikCacheList {}

impl OptikCacheList {
    /// Creates an empty list backed by a fresh node pool.
    pub fn new() -> Self {
        let pool = NodePool::new();
        let tail = Self::alloc_node(&pool, TAIL_KEY, 0, std::ptr::null_mut());
        let head = Self::alloc_node(&pool, crate::HEAD_KEY, 0, tail);
        Self { pool, head }
    }

    /// Allocates and initializes a node; recycled slots are re-initialized
    /// through their atomics and *unlocked* (bumping the version past every
    /// cached observation of the previous occupant).
    fn alloc_node(pool: &Arc<NodePool<PNode>>, key: Key, val: Val, next: *mut PNode) -> *mut PNode {
        let p = pool.alloc(PNode::default);
        // SAFETY: the slot is valid for the pool's lifetime.
        unsafe {
            (*p.ptr).key.store(key, Ordering::Relaxed);
            (*p.ptr).val.store(val, Ordering::Relaxed);
            (*p.ptr).next.store(next, Ordering::Relaxed);
            if p.recycled {
                // The previous occupant was deleted with its lock held
                // forever; unlocking publishes a fresh, larger version.
                debug_assert!((*p.ptr).lock.is_locked());
                (*p.ptr).lock.unlock();
            }
        }
        p.ptr
    }

    /// Per-thread session with a node cache. Operations through the handle
    /// use and refresh the cache; the paper reports ~40–50% hit rates.
    pub fn handle(&self) -> OptikCacheHandle<'_> {
        OptikCacheHandle {
            list: self,
            cached: None,
            hits: 0,
            misses: 0,
        }
    }

    /// Validated entry point for a traversal towards `key`.
    fn entry_for(&self, cache: &Option<CacheSlot>, key: Key) -> Option<(*mut PNode, Version)> {
        let c = (*cache)?;
        if c.key >= key {
            return None;
        }
        // SAFETY: type-stable pool memory — always a valid PNode.
        let v = unsafe { (*c.node).lock.get_version() };
        // Same version ⟹ not deleted (deleted ⇒ locked forever) and not
        // recycled (recycle bumps) and key/next unmodified since observed.
        if !OptikVersioned::is_locked_version(v) && v == c.version {
            Some((c.node, v))
        } else {
            None
        }
    }

    /// Hand-over-hand version-tracking traversal from `start`.
    ///
    /// # Safety
    ///
    /// Caller must be inside a QSBR grace period and `start` must be
    /// head or a validated cache entry.
    #[inline]
    unsafe fn locate_tracking(
        start: *mut PNode,
        start_v: Version,
        key: Key,
    ) -> (*mut PNode, Version, *mut PNode, Version) {
        // SAFETY: within a grace period no reachable node is recycled.
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
                if (*cur).key.load(Ordering::Acquire) >= key {
                    return (pred, predv, cur, curv);
                }
            }
        }
    }

    fn search_impl(&self, cache: &mut Option<CacheSlot>, key: Key) -> (Option<Val>, bool) {
        assert_user_key(key);
        reclaim::quiescent();
        let entry = self.entry_for(cache, key);
        let hit = entry.is_some();
        // SAFETY: grace period; entry validated or head.
        unsafe {
            let (start, start_v) = entry.unwrap_or_else(|| {
                let h = self.head;
                (h, (*h).lock.get_version())
            });
            let (pred, predv, cur, _curv) = Self::locate_tracking(start, start_v, key);
            *cache = Some(CacheSlot {
                node: pred,
                version: predv,
                key: (*pred).key.load(Ordering::Relaxed),
            });
            let found = ((*cur).key.load(Ordering::Relaxed) == key)
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
            // SAFETY: grace period for this attempt.
            unsafe {
                let (start, start_v) = entry.unwrap_or_else(|| {
                    let h = self.head;
                    (h, (*h).lock.get_version())
                });
                let (pred, predv, cur, _curv) = Self::locate_tracking(start, start_v, key);
                if (*cur).key.load(Ordering::Relaxed) == key {
                    *cache = Some(CacheSlot {
                        node: pred,
                        version: predv,
                        key: (*pred).key.load(Ordering::Relaxed),
                    });
                    return (false, hit);
                }
                if !(*pred).lock.try_lock_version(predv) {
                    // A failed validation may mean the cached entry went
                    // stale mid-path; drop it for the retry.
                    *cache = None;
                    bo.backoff();
                    continue;
                }
                let newnode = Self::alloc_node(&self.pool, key, val, cur);
                (*pred).next.store(newnode, Ordering::Release);
                (*pred).lock.unlock();
                // Cache the predecessor at its new (post-unlock) version.
                let predv_now = (*pred).lock.get_version();
                *cache = Some(CacheSlot {
                    node: pred,
                    version: predv_now,
                    key: (*pred).key.load(Ordering::Relaxed),
                });
                return (true, hit);
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
            // SAFETY: grace period for this attempt.
            unsafe {
                let (start, start_v) = entry.unwrap_or_else(|| {
                    let h = self.head;
                    (h, (*h).lock.get_version())
                });
                let (pred, predv, cur, curv) = Self::locate_tracking(start, start_v, key);
                if (*cur).key.load(Ordering::Relaxed) != key {
                    *cache = Some(CacheSlot {
                        node: pred,
                        version: predv,
                        key: (*pred).key.load(Ordering::Relaxed),
                    });
                    return (None, hit);
                }
                if !(*pred).lock.try_lock_version(predv) {
                    *cache = None;
                    bo.backoff();
                    continue;
                }
                if !(*cur).lock.try_lock_version(curv) {
                    (*pred).lock.revert();
                    *cache = None;
                    bo.backoff();
                    continue;
                }
                // cur's lock stays locked forever (until slot recycling).
                (*pred)
                    .next
                    .store((*cur).next.load(Ordering::Relaxed), Ordering::Release);
                let val = (*cur).val.load(Ordering::Relaxed);
                (*pred).lock.unlock();
                // SAFETY: unlinked once; pool-retire (type-stable recycle).
                reclaim::with_local(|h| self.pool.retire(cur, h));
                let predv_now = (*pred).lock.get_version();
                *cache = Some(CacheSlot {
                    node: pred,
                    version: predv_now,
                    key: (*pred).key.load(Ordering::Relaxed),
                });
                return (Some(val), hit);
            }
        }
    }

    /// Pool statistics: `(allocations, recycle hits)` — used by the
    /// node-cache ablation bench.
    pub fn pool_stats(&self) -> (u64, u64) {
        (self.pool.allocations(), self.pool.recycle_hits())
    }
}

impl Default for OptikCacheList {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentSet for OptikCacheList {
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
                n += 1;
                cur = (*cur).next.load(Ordering::Acquire);
            }
            n
        }
    }
}

/// Per-thread session on an [`OptikCacheList`] holding the node cache.
pub struct OptikCacheHandle<'a> {
    list: &'a OptikCacheList,
    cached: Option<CacheSlot>,
    hits: u64,
    misses: u64,
}

impl OptikCacheHandle<'_> {
    /// Cache hits observed so far (operations that entered via the cache).
    pub fn cache_hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (operations that entered from the head).
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

impl SetHandle for OptikCacheHandle<'_> {
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
    fn basic_roundtrip_without_cache() {
        let l = OptikCacheList::new();
        assert!(l.insert(3, 30));
        assert!(l.insert(7, 70));
        assert!(!l.insert(3, 31));
        assert_eq!(l.search(7), Some(70));
        assert_eq!(l.delete(3), Some(30));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn handle_cache_hits_on_ascending_access() {
        let l = OptikCacheList::new();
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
        let l = OptikCacheList::new();
        for k in [10u64, 20, 30] {
            l.insert(k, k);
        }
        let mut h = l.handle();
        // Search caches pred (node 10); delete it through another path.
        assert_eq!(h.search(20), Some(20));
        assert_eq!(l.delete(10), Some(10));
        // The next op must not trust the stale entry (deleted ⇒ locked).
        assert_eq!(h.search(30), Some(30));
        assert_eq!(h.delete(20), Some(20));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn cache_rejects_recycled_entry_node() {
        let l = OptikCacheList::new();
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
        let l = OptikCacheList::new();
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
            let (allocs, recycles) = l.pool_stats();
            assert!(allocs >= 500);
            if recycles > 0 {
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
        let l = StdArc::new(OptikCacheList::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let l = StdArc::clone(&l);
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
