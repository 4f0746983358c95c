//! Striped hash table optimized with OPTIK (*java-optik*, §5.2).
//!
//! The paper's optimization of [`crate::StripedHashTable`]: each segment's
//! lock becomes an OPTIK lock, and updates follow the OPTIK pattern:
//!
//! 1. read the segment version, traverse the bucket **read-only**;
//! 2. infeasible updates return `false` without any locking;
//! 3. feasible updates acquire with `lock_version(vn)`: when the version
//!    validates, "no concurrent modification has completed on this bucket,
//!    hence we do not need to re-traverse the bucket" — the first
//!    traversal's findings are applied directly;
//! 4. only on validation failure is the bucket re-traversed under the lock.
//!
//! Failed updates that had to lock release with `revert` so read-only
//! critical sections never advance the version.

use std::sync::atomic::{AtomicPtr, Ordering};

use optik::{OptikLock, OptikVersioned};
use synchro::CachePadded;

use crate::striped::{chain_pool, ChainPool, Node};
use crate::{bucket_of, ConcurrentSet, Key, Val, DEFAULT_SEGMENTS};

/// The striped OPTIK (`java-optik`) hash table. Chain nodes come from a
/// per-table type-stable pool (magazine-cached allocation, QSBR-deferred
/// recycling).
pub struct StripedOptikHashTable {
    buckets: Box<[AtomicPtr<Node>]>,
    segments: Box<[CachePadded<OptikVersioned>]>,
    pool: ChainPool,
}

// SAFETY: updates are serialized per segment via the OPTIK locks;
// searches read atomic pointers of QSBR-protected nodes.
unsafe impl Send for StripedOptikHashTable {}
unsafe impl Sync for StripedOptikHashTable {}

impl StripedOptikHashTable {
    /// Creates a table with `buckets` buckets and `segments` OPTIK stripes.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(buckets: usize, segments: usize) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        assert!(segments > 0, "need at least one segment");
        Self {
            buckets: (0..buckets)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
            segments: (0..segments)
                .map(|_| CachePadded::new(OptikVersioned::new()))
                .collect(),
            pool: chain_pool(),
        }
    }

    /// Creates a table with the paper's default of 128 segments.
    pub fn with_default_segments(buckets: usize) -> Self {
        Self::new(buckets, DEFAULT_SEGMENTS)
    }

    #[inline]
    fn segment(&self, bucket: usize) -> &OptikVersioned {
        &self.segments[bucket_of(bucket as Key, self.segments.len())]
    }

    /// Read-only bucket traversal returning the matching node (if any).
    ///
    /// # Safety
    ///
    /// QSBR grace period required.
    #[inline]
    unsafe fn find_node(&self, bucket: usize, key: Key) -> Option<*mut Node> {
        // SAFETY: per contract.
        unsafe {
            let mut cur = self.buckets[bucket].load(Ordering::Acquire);
            while !cur.is_null() {
                if (*cur).key == key {
                    return Some(cur);
                }
                cur = (*cur).next.load(Ordering::Acquire);
            }
            None
        }
    }

    /// Traversal with predecessor tracking (for unlinking).
    ///
    /// # Safety
    ///
    /// QSBR grace period required.
    #[inline]
    unsafe fn find_with_pred(&self, bucket: usize, key: Key) -> Option<(*mut Node, *mut Node)> {
        // SAFETY: per contract.
        unsafe {
            let mut prev: *mut Node = std::ptr::null_mut();
            let mut cur = self.buckets[bucket].load(Ordering::Acquire);
            while !cur.is_null() {
                if (*cur).key == key {
                    return Some((prev, cur));
                }
                prev = cur;
                cur = (*cur).next.load(Ordering::Acquire);
            }
            None
        }
    }

    /// Applies an upsert to `bucket` given what a traversal found: swaps
    /// the value of `hit` in place, or links a fresh node at the head.
    /// Returns the previous value. The one write sequence behind both
    /// `put` (under the segment lock) and `put_exclusive` (under the
    /// caller's lock), so readers see the same publication either way.
    ///
    /// # Safety
    ///
    /// Caller excludes every other writer of `bucket` (segment lock, or the
    /// `put_exclusive` contract); `hit` must be what a traversal of
    /// `bucket` for `key` finds under that exclusion.
    #[inline]
    unsafe fn upsert_at(
        &self,
        bucket: usize,
        hit: Option<*mut Node>,
        key: Key,
        val: Val,
    ) -> Option<Val> {
        // SAFETY: per contract.
        unsafe {
            match hit {
                Some(n) => Some((*n).val.swap(val, Ordering::AcqRel)),
                None => {
                    let head = self.buckets[bucket].load(Ordering::Relaxed);
                    let node = self.pool.alloc_init(|| Node::make(key, val, head));
                    self.buckets[bucket].store(node, Ordering::Release);
                    None
                }
            }
        }
    }

    /// Unlinks `cur` (with predecessor `prev`, null = bucket head) and
    /// retires it. Shared by `delete` and `remove_exclusive`, like
    /// [`Self::upsert_at`].
    ///
    /// # Safety
    ///
    /// Caller excludes every other writer of `bucket` (segment lock, or the
    /// `remove_exclusive` contract); `(prev, cur)` must be currently
    /// linked in `bucket`.
    unsafe fn unlink(&self, bucket: usize, prev: *mut Node, cur: *mut Node) -> Val {
        // SAFETY: per contract.
        unsafe {
            let next = (*cur).next.load(Ordering::Relaxed);
            if prev.is_null() {
                self.buckets[bucket].store(next, Ordering::Release);
            } else {
                (*prev).next.store(next, Ordering::Release);
            }
            let val = (*cur).val.load(Ordering::Relaxed);
            // SAFETY: unlinked exactly once under the lock.
            reclaim::with_local(|h| self.pool.retire(cur, h));
            val
        }
    }
}

impl ConcurrentSet for StripedOptikHashTable {
    fn search(&self, key: Key) -> Option<Val> {
        reclaim::quiescent();
        let b = bucket_of(key, self.buckets.len());
        // SAFETY: grace period.
        unsafe {
            self.find_node(b, key)
                .map(|n| (*n).val.load(Ordering::Acquire))
        }
    }

    fn insert(&self, key: Key, val: Val) -> bool {
        reclaim::quiescent();
        let b = bucket_of(key, self.buckets.len());
        let seg = self.segment(b);
        let vn = seg.get_version();
        // Phase 1: optimistic read-only traversal.
        // SAFETY: grace period.
        if unsafe { self.find_node(b, key) }.is_some() {
            // Infeasible: no locking at all (the OPTIK win over `java`).
            return false;
        }
        // Phase 2: lock, learning whether the optimistic traversal is
        // still valid.
        let validated = seg.lock_version(vn);
        // SAFETY: segment lock held.
        unsafe {
            if !validated && self.find_node(b, key).is_some() {
                // Second traversal was needed and found the key.
                seg.revert(); // read-only critical section
                return false;
            }
            let head = self.buckets[b].load(Ordering::Relaxed);
            let node = self.pool.alloc_init(|| Node::make(key, val, head));
            self.buckets[b].store(node, Ordering::Release);
        }
        seg.unlock();
        true
    }

    fn delete(&self, key: Key) -> Option<Val> {
        reclaim::quiescent();
        let b = bucket_of(key, self.buckets.len());
        let seg = self.segment(b);
        let vn = seg.get_version();
        // Phase 1: optimistic traversal with predecessor tracking.
        // SAFETY: grace period.
        let Some((prev, cur)) = (unsafe { self.find_with_pred(b, key) }) else {
            return None; // infeasible: never locks
        };
        let validated = seg.lock_version(vn);
        // SAFETY: segment lock held.
        unsafe {
            if validated {
                // No committed modification since vn: (prev, cur) is still
                // the correct link — skip the second traversal.
                let val = self.unlink(b, prev, cur);
                seg.unlock();
                Some(val)
            } else {
                // Re-traverse under the lock.
                match self.find_with_pred(b, key) {
                    Some((prev, cur)) => {
                        let val = self.unlink(b, prev, cur);
                        seg.unlock();
                        Some(val)
                    }
                    None => {
                        seg.revert();
                        None
                    }
                }
            }
        }
    }

    fn len(&self) -> usize {
        reclaim::quiescent();
        let mut n = 0;
        for b in self.buckets.iter() {
            // SAFETY: grace period.
            unsafe {
                let mut cur = b.load(Ordering::Acquire);
                while !cur.is_null() {
                    n += 1;
                    cur = (*cur).next.load(Ordering::Acquire);
                }
            }
        }
        n
    }
}

impl crate::ConcurrentMap for StripedOptikHashTable {
    fn get(&self, key: Key) -> Option<Val> {
        ConcurrentSet::search(self, key)
    }

    /// OPTIK upsert: both outcomes write, so the operation always locks,
    /// but a successful validation lets it reuse the optimistic traversal's
    /// finding (the matching node, or its absence) without re-walking the
    /// bucket — the same second-traversal elision as `insert`/`delete`.
    fn put(&self, key: Key, val: Val) -> Option<Val> {
        reclaim::quiescent();
        let b = bucket_of(key, self.buckets.len());
        let seg = self.segment(b);
        let vn = seg.get_version();
        // Phase 1: optimistic read-only traversal.
        // SAFETY: grace period.
        let hit = unsafe { self.find_node(b, key) };
        // Phase 2: lock; on validation failure the traversal is stale and
        // must be redone under the lock.
        let validated = seg.lock_version(vn);
        // SAFETY: segment lock held.
        let prev = unsafe {
            let node = if validated {
                hit
            } else {
                self.find_node(b, key)
            };
            self.upsert_at(b, node, key, val)
        };
        seg.unlock();
        prev
    }

    fn remove(&self, key: Key) -> Option<Val> {
        ConcurrentSet::delete(self, key)
    }

    /// The upsert with the stripe lock elided: one traversal, then the
    /// same in-place swap or head link as `put`. Sound because `get` and
    /// `for_each` never consult the stripe versions — they only follow the
    /// release-published links — and the caller's lock orders this write
    /// against every other writer. Stripe versions are left untouched.
    unsafe fn put_exclusive(&self, key: Key, val: Val) -> Option<Val> {
        reclaim::quiescent();
        let b = bucket_of(key, self.buckets.len());
        // SAFETY: grace period; the caller excludes other writers, so the
        // traversal's finding is current when it is applied.
        unsafe {
            let hit = self.find_node(b, key);
            self.upsert_at(b, hit, key, val)
        }
    }

    /// The removal with the stripe lock elided (see `put_exclusive`).
    unsafe fn remove_exclusive(&self, key: Key) -> Option<Val> {
        reclaim::quiescent();
        let b = bucket_of(key, self.buckets.len());
        // SAFETY: grace period; the caller excludes other writers, so
        // `(prev, cur)` is still linked when it is unlinked.
        unsafe {
            let (prev, cur) = self.find_with_pred(b, key)?;
            Some(self.unlink(b, prev, cur))
        }
    }

    fn len(&self) -> usize {
        ConcurrentSet::len(self)
    }

    fn for_each(&self, f: &mut dyn FnMut(Key, Val)) {
        reclaim::quiescent();
        for b in self.buckets.iter() {
            // SAFETY: grace period.
            unsafe { crate::striped::for_each_chain(b, f) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_roundtrip() {
        let t = StripedOptikHashTable::new(8, 4);
        assert!(t.insert(2, 20));
        assert!(t.insert(10, 100));
        assert!(!t.insert(2, 21));
        assert_eq!(t.search(10), Some(100));
        assert_eq!(t.delete(2), Some(20));
        assert_eq!(t.delete(2), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn infeasible_updates_never_bump_version() {
        let t = StripedOptikHashTable::new(4, 1);
        assert!(t.insert(1, 10));
        let v = t.segments[0].get_version();
        assert!(!t.insert(1, 11), "present key");
        assert_eq!(t.delete(2), None, "absent key");
        assert_eq!(t.search(1), Some(10));
        assert_eq!(
            t.segments[0].get_version(),
            v,
            "read-only paths must not synchronize"
        );
        // The single-writer pair never touches the stripe at all, feasible
        // or not: its exclusion is the caller's lock.
        // SAFETY: single-threaded test — no other writer exists.
        unsafe {
            use crate::ConcurrentMap as Map;
            assert_eq!(Map::remove_exclusive(&t, 2), None, "absent key");
            assert_eq!(Map::put_exclusive(&t, 1, 11), Some(10), "in-place swap");
            assert_eq!(
                Map::put_exclusive(&t, 5, 50),
                None,
                "fresh link, same bucket"
            );
            assert_eq!(Map::remove_exclusive(&t, 5), Some(50), "head unlink");
        }
        assert_eq!(t.search(1), Some(11));
        assert_eq!(
            t.segments[0].get_version(),
            v,
            "exclusive writes must leave the stripe versions untouched"
        );
    }

    #[test]
    fn failed_update_that_locked_reverts() {
        // Force the !validated + infeasible path: insert under a version
        // that gets invalidated between phases is hard to stage
        // deterministically single-threaded, so exercise revert indirectly:
        // a full sequence of feasible/infeasible ops must leave the lock
        // free and version sane.
        let t = StripedOptikHashTable::new(2, 1);
        for k in 1..=20u64 {
            t.insert(k, k);
        }
        for k in 1..=20u64 {
            assert!(!t.insert(k, 0));
        }
        for k in 1..=20u64 {
            assert_eq!(t.delete(k), Some(k));
        }
        assert!(!t.segments[0].is_locked());
        assert!(t.is_empty());
    }

    #[test]
    fn concurrent_hot_segment_consistent() {
        let t = Arc::new(StripedOptikHashTable::new(8, 1));
        let mut handles = Vec::new();
        for tid in 0..8u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let mut net = 0i64;
                let mut x = tid.wrapping_mul(0xA24BAED4963EE407) | 1;
                for _ in 0..synchro::stress::ops(15_000) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = x % 32 + 1;
                    match x % 3 {
                        0 => {
                            if t.insert(k, k) {
                                net += 1;
                            }
                        }
                        1 => {
                            if t.delete(k).is_some() {
                                net -= 1;
                            }
                        }
                        _ => {
                            if let Some(v) = t.search(k) {
                                assert_eq!(v, k);
                            }
                        }
                    }
                }
                net
            }));
        }
        let net: i64 =
            reclaim::offline_while(|| handles.into_iter().map(|h| h.join().unwrap()).sum());
        assert_eq!(t.len() as i64, net);
    }
}

/// The single-writer entry points (`put_exclusive` / `remove_exclusive`)
/// against the concurrent pair and against lock-free readers.
#[cfg(test)]
mod exclusive_tests {
    use super::StripedOptikHashTable;
    use crate::{ConcurrentMap, Key, Val};
    use optik::OptikLock;
    use std::sync::atomic::Ordering;

    /// Sorted `(key, value)` contents via `for_each`.
    fn contents(t: &StripedOptikHashTable) -> Vec<(Key, Val)> {
        let mut out = Vec::new();
        t.for_each(&mut |k, v| out.push((k, v)));
        out.sort_unstable();
        out
    }

    /// Seals the calling thread's retire bag and waits until every node
    /// `t` retired has been through its grace period (other tests share
    /// the global domain, so it can take a few rounds).
    fn grace(t: &StripedOptikHashTable, seed: u64) {
        reclaim::with_local(|h| {
            h.flush();
            for _ in 0..1_000_000 {
                h.quiescent();
                h.collect();
                if t.pool.stats().in_grace == 0 {
                    return;
                }
                std::thread::yield_now();
            }
            panic!("grace period never elapsed; STRESS_SEED={seed:#x}");
        });
    }

    #[test]
    fn exclusive_pair_is_observably_the_concurrent_pair() {
        // One seeded op stream through `put`/`remove` on one table and
        // through the single-writer pair on its twin: same replies, same
        // final contents, same `len`. Both reductions (mask and `%`).
        let seed = synchro::stress::seed();
        for (buckets, segments) in [(16, 4), (24, 3)] {
            let locked = StripedOptikHashTable::new(buckets, segments);
            let exclusive = StripedOptikHashTable::new(buckets, segments);
            let mut x = seed | 1;
            for i in 0..synchro::stress::ops(200_000) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let k = x % 96 + 1;
                let put = x >> 32 & 1 == 0;
                let want = if put {
                    locked.put(k, i)
                } else {
                    locked.remove(k)
                };
                // SAFETY: single-threaded test — no other writer exists.
                let got = unsafe {
                    if put {
                        exclusive.put_exclusive(k, i)
                    } else {
                        exclusive.remove_exclusive(k)
                    }
                };
                assert_eq!(
                    got, want,
                    "op {i} on key {k} ({buckets} buckets); STRESS_SEED={seed:#x}"
                );
            }
            assert_eq!(
                contents(&exclusive),
                contents(&locked),
                "{buckets} buckets; STRESS_SEED={seed:#x}"
            );
            assert_eq!(
                exclusive.len(),
                locked.len(),
                "{buckets} buckets; STRESS_SEED={seed:#x}"
            );
            assert!(
                exclusive.segments.iter().all(|s| s.get_version() == 0),
                "an exclusive write touched a stripe; STRESS_SEED={seed:#x}"
            );
        }
    }

    /// One writer on the single-writer pair against `readers` lock-free
    /// readers. Values carry their key and the writer's op index, so a
    /// torn or foreign value, or one that goes back in time, fails; the
    /// writer checks every reply against its own model (it is the only
    /// writer, so replies are deterministic); the pool's ledger must close
    /// once the table is drained.
    fn exclusive_writer_races_lock_free_readers(readers: u64) {
        use std::sync::atomic::AtomicBool;
        const KEYS: u64 = 128;
        let tag = |k: Key, i: u64| k << 32 | i;
        let seed = synchro::stress::seed();
        eprintln!("stress seed: {seed:#018x} (set STRESS_SEED={seed:#x} to reproduce)");
        // 64 buckets for 128 keys: chains of two, so interior unlinks run.
        let t = StripedOptikHashTable::new(64, 4);
        let stop = AtomicBool::new(false);
        let mut model = vec![None; KEYS as usize + 1];
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for r in 0..readers {
                let (t, stop) = (&t, &stop);
                handles.push(s.spawn(move || {
                    let mut x = (seed ^ (r + 2).wrapping_mul(0x9E3779B97F4A7C15)) | 1;
                    let mut newest = vec![0u64; KEYS as usize + 1];
                    let mut round = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = x % KEYS + 1;
                        let mut check = |k: Key, v: Val| {
                            assert_eq!(
                                v >> 32,
                                k,
                                "reader {r}: foreign or torn value {v:#x} at key {k}; \
                                 STRESS_SEED={seed:#x}"
                            );
                            let i = v & 0xffff_ffff;
                            assert!(
                                i >= newest[k as usize],
                                "reader {r}: key {k} went back from op {} to op {i}; \
                                 STRESS_SEED={seed:#x}",
                                newest[k as usize]
                            );
                            newest[k as usize] = i;
                        };
                        if let Some(v) = t.get(k) {
                            check(k, v);
                        }
                        round += 1;
                        if round % 64 == 0 {
                            t.for_each(&mut check);
                        }
                    }
                }));
            }
            let mut x = seed | 1;
            for i in 1..=synchro::stress::ops(400_000) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let k = x % KEYS + 1;
                let next = (x >> 32 & 1 == 0).then_some(tag(k, i));
                // SAFETY: this thread is the table's only writer.
                let got = unsafe {
                    match next {
                        Some(v) => t.put_exclusive(k, v),
                        None => t.remove_exclusive(k),
                    }
                };
                assert_eq!(
                    got, model[k as usize],
                    "writer op {i} on key {k}; STRESS_SEED={seed:#x}"
                );
                model[k as usize] = next;
            }
            stop.store(true, Ordering::Relaxed);
            reclaim::offline_while(|| {
                for h in handles {
                    h.join().expect("reader panicked");
                }
            });
        });
        let want: Vec<(Key, Val)> = (1..=KEYS)
            .filter_map(|k| model[k as usize].map(|v| (k, v)))
            .collect();
        assert_eq!(contents(&t), want, "STRESS_SEED={seed:#x}");
        assert_eq!(t.len(), want.len(), "STRESS_SEED={seed:#x}");
        assert!(
            t.segments.iter().all(|s| s.get_version() == 0),
            "an exclusive write touched a stripe; STRESS_SEED={seed:#x}"
        );
        for &(k, v) in &want {
            // SAFETY: every other thread has been joined.
            assert_eq!(unsafe { t.remove_exclusive(k) }, Some(v));
        }
        // Both ledgers, as far as this table can see them: the global QSBR
        // domain is shared with every other test of the binary, so its
        // closure is "nothing this table retired is still in grace", and
        // the pool's is "no slot is live".
        grace(&t, seed);
        let slots = t.pool.stats();
        assert_eq!(slots.in_grace, 0, "{slots:?}; STRESS_SEED={seed:#x}");
        assert_eq!(slots.live(), 0, "{slots:?}; STRESS_SEED={seed:#x}");
    }

    #[test]
    fn exclusive_writer_races_lock_free_readers_2_readers() {
        exclusive_writer_races_lock_free_readers(2);
    }

    #[test]
    fn exclusive_writer_races_lock_free_readers_4_readers() {
        exclusive_writer_races_lock_free_readers(4);
    }
}
