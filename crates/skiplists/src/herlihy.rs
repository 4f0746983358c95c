//! The optimistic skip list of Herlihy, Lev, Luchangco & Shavit [29]
//! (*herlihy* in Figure 11).
//!
//! Updates traverse without locks, then lock the predecessor at every
//! level and *validate* (predecessor unmarked, successor unmarked, link
//! unchanged) — the classic lock-then-validate structure. A `fully_linked`
//! flag makes multi-level insertion appear atomic; a `marked` flag makes
//! deletion logical before physical.

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};

use synchro::{Backoff, RawLock, TtasLock};

use crate::level::{random_level, MAX_LEVEL};
use crate::tower::{self, Header, Towers};
use crate::{
    assert_user_key, clamp_hi, ConcurrentMap, ConcurrentSet, Key, OrderedMap, Val, HEAD_KEY,
    RANGE_OPTIMISTIC_ATTEMPTS, TAIL_KEY,
};

/// Node header (24 bytes: the lock is one byte); the tower follows it in
/// the slot (see [`crate::tower`]).
#[repr(C)]
pub(crate) struct Node {
    key: Key,
    /// In-place-updatable binding (the `ConcurrentMap` upsert contract):
    /// swapped under this node's lock, read lock-free.
    val: AtomicU64,
    lock: TtasLock,
    /// Highest valid tower level (tower height − 1).
    top_level: u8,
    marked: AtomicBool,
    fully_linked: AtomicBool,
}

impl Node {
    fn make(key: Key, val: Val, top_level: usize, linked: bool) -> Self {
        Node {
            key,
            val: AtomicU64::new(val),
            lock: TtasLock::new(),
            top_level: top_level as u8,
            marked: AtomicBool::new(false),
            fully_linked: AtomicBool::new(linked),
        }
    }
}

impl Header for Node {
    type Link = AtomicPtr<Node>;

    #[inline]
    fn top_level(&self) -> usize {
        self.top_level as usize
    }
}

const SMALL: usize = tower::small_levels::<Node>();

/// The Herlihy et al. optimistic skip list.
pub struct HerlihySkipList {
    head: *mut Node,
    /// Type-stable node pools (one per tower class). No pointer survives
    /// across operations, so recycled slots are plainly re-initialized
    /// after their grace period.
    pool: Towers<Node, SMALL>,
}

// SAFETY: per-node locks + validation serialize updates; searches read
// atomic fields of QSBR-protected nodes.
unsafe impl Send for HerlihySkipList {}
unsafe impl Sync for HerlihySkipList {}

impl HerlihySkipList {
    /// Creates an empty skip list.
    pub fn new() -> Self {
        let pool = Towers::new();
        let tail = pool.alloc(Node::make(TAIL_KEY, 0, MAX_LEVEL - 1, true));
        let head = pool.alloc(Node::make(HEAD_KEY, 0, MAX_LEVEL - 1, true));
        // SAFETY: fresh nodes, no concurrency yet.
        unsafe {
            for l in 0..MAX_LEVEL {
                tower::next(head, l).store(tail, Ordering::Relaxed);
            }
        }
        Self { head, pool }
    }

    /// Classic `find`: fills `preds`/`succs` per level; returns the highest
    /// level at which `key` was found, if any.
    ///
    /// # Safety
    ///
    /// QSBR grace period required.
    unsafe fn find(
        &self,
        key: Key,
        preds: &mut [*mut Node; MAX_LEVEL],
        succs: &mut [*mut Node; MAX_LEVEL],
    ) -> Option<usize> {
        // SAFETY: per contract.
        unsafe {
            let mut lfound = None;
            let mut pred = self.head;
            for l in (0..MAX_LEVEL).rev() {
                let mut cur = tower::next(pred, l).load(Ordering::Acquire);
                synchro::prefetch::read(cur);
                while (*cur).key < key {
                    pred = cur;
                    cur = tower::next(cur, l).load(Ordering::Acquire);
                    synchro::prefetch::read(cur);
                }
                if lfound.is_none() && (*cur).key == key {
                    lfound = Some(l);
                }
                preds[l] = pred;
                succs[l] = cur;
            }
            lfound
        }
    }

    /// Number of elements (O(n); exact only in quiescence). Inherent so
    /// callers with both [`ConcurrentSet`] and [`ConcurrentMap`] in scope
    /// need no disambiguation.
    pub fn len(&self) -> usize {
        ConcurrentSet::len(self)
    }

    /// Whether the structure is empty (see [`HerlihySkipList::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Unlocks `preds[0..=highest]`, each distinct node once.
    ///
    /// # Safety
    ///
    /// The distinct nodes among `preds[0..=highest]` must be locked by the
    /// caller.
    unsafe fn unlock_preds(preds: &[*mut Node; MAX_LEVEL], highest: usize) {
        let mut prev: *mut Node = std::ptr::null_mut();
        for &p in preds.iter().take(highest + 1) {
            if p != prev {
                // SAFETY: locked by caller; nodes alive in grace period.
                unsafe { (*p).lock.unlock() };
                prev = p;
            }
        }
    }
}

impl Default for HerlihySkipList {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentSet for HerlihySkipList {
    fn search(&self, key: Key) -> Option<Val> {
        assert_user_key(key);
        reclaim::quiescent();
        // SAFETY: grace period.
        unsafe {
            let mut pred = self.head;
            let mut found: *mut Node = std::ptr::null_mut();
            for l in (0..MAX_LEVEL).rev() {
                let mut cur = tower::next(pred, l).load(Ordering::Acquire);
                synchro::prefetch::read(cur);
                while (*cur).key < key {
                    pred = cur;
                    cur = tower::next(cur, l).load(Ordering::Acquire);
                    synchro::prefetch::read(cur);
                }
                if (*cur).key == key {
                    found = cur;
                    break;
                }
            }
            (!found.is_null()
                && (*found).fully_linked.load(Ordering::Acquire)
                && !(*found).marked.load(Ordering::Acquire))
            .then(|| (*found).val.load(Ordering::Acquire))
        }
    }

    fn insert(&self, key: Key, val: Val) -> bool {
        assert_user_key(key);
        reclaim::quiescent();
        let top_level = random_level(key) - 1;
        let mut preds = [std::ptr::null_mut(); MAX_LEVEL];
        let mut succs = [std::ptr::null_mut(); MAX_LEVEL];
        let mut bo = Backoff::adaptive();
        loop {
            // SAFETY: grace period per attempt.
            unsafe {
                if let Some(lf) = self.find(key, &mut preds, &mut succs) {
                    let found = succs[lf];
                    if !(*found).marked.load(Ordering::Acquire) {
                        // Wait for a partially-inserted twin to complete.
                        while !(*found).fully_linked.load(Ordering::Acquire) {
                            synchro::relax();
                        }
                        return false;
                    }
                    // Being deleted: retry until physically gone.
                    bo.backoff();
                    continue;
                }
                // Lock preds bottom-up, each distinct node once.
                let mut highest_locked: isize = -1;
                let mut prev_pred: *mut Node = std::ptr::null_mut();
                let mut valid = true;
                for l in 0..=top_level {
                    let pred = preds[l];
                    let succ = succs[l];
                    if pred != prev_pred {
                        (*pred).lock.lock();
                        highest_locked = l as isize;
                        prev_pred = pred;
                    }
                    valid = !(*pred).marked.load(Ordering::Acquire)
                        && !(*succ).marked.load(Ordering::Acquire)
                        && tower::next(pred, l).load(Ordering::Acquire) == succ;
                    if !valid {
                        break;
                    }
                }
                if !valid {
                    if highest_locked >= 0 {
                        Self::unlock_preds(&preds, highest_locked as usize);
                    }
                    bo.backoff();
                    continue;
                }
                let newnode = self.pool.alloc(Node::make(key, val, top_level, false));
                for l in 0..=top_level {
                    tower::next(newnode, l).store(succs[l], Ordering::Relaxed);
                }
                for l in 0..=top_level {
                    tower::next(preds[l], l).store(newnode, Ordering::Release);
                }
                (*newnode).fully_linked.store(true, Ordering::Release);
                Self::unlock_preds(&preds, top_level);
                return true;
            }
        }
    }

    fn delete(&self, key: Key) -> Option<Val> {
        assert_user_key(key);
        reclaim::quiescent();
        let mut preds = [std::ptr::null_mut(); MAX_LEVEL];
        let mut succs = [std::ptr::null_mut(); MAX_LEVEL];
        let mut victim: *mut Node = std::ptr::null_mut();
        let mut is_marked = false;
        let mut top_level = 0usize;
        let mut bo = Backoff::adaptive();
        loop {
            // SAFETY: grace period per attempt (the victim, once marked by
            // us, is pinned: it cannot be retired before we unlink it).
            unsafe {
                let lf = self.find(key, &mut preds, &mut succs);
                let ok = is_marked
                    || match lf {
                        Some(lf) => {
                            let c = succs[lf];
                            (*c).fully_linked.load(Ordering::Acquire)
                                && (*c).top_level() == lf
                                && !(*c).marked.load(Ordering::Acquire)
                        }
                        None => false,
                    };
                if !ok {
                    return None;
                }
                if !is_marked {
                    victim = succs[lf.expect("ok && !is_marked implies found")];
                    top_level = (*victim).top_level();
                    (*victim).lock.lock();
                    if (*victim).marked.load(Ordering::Acquire) {
                        // Lost the race to another deleter.
                        (*victim).lock.unlock();
                        return None;
                    }
                    (*victim).marked.store(true, Ordering::Release);
                    is_marked = true;
                }
                // Lock preds and validate links to the victim.
                let mut highest_locked: isize = -1;
                let mut prev_pred: *mut Node = std::ptr::null_mut();
                let mut valid = true;
                for l in 0..=top_level {
                    let pred = preds[l];
                    if pred != prev_pred {
                        (*pred).lock.lock();
                        highest_locked = l as isize;
                        prev_pred = pred;
                    }
                    valid = !(*pred).marked.load(Ordering::Acquire)
                        && tower::next(pred, l).load(Ordering::Acquire) == victim;
                    if !valid {
                        break;
                    }
                }
                if !valid {
                    if highest_locked >= 0 {
                        Self::unlock_preds(&preds, highest_locked as usize);
                    }
                    bo.backoff();
                    continue;
                }
                for l in (0..=top_level).rev() {
                    tower::next(preds[l], l).store(
                        tower::next(victim, l).load(Ordering::Relaxed),
                        Ordering::Release,
                    );
                }
                // Read under the victim's lock: serialized against the
                // in-place swaps of `ConcurrentMap::put`.
                let val = (*victim).val.load(Ordering::Relaxed);
                (*victim).lock.unlock();
                Self::unlock_preds(&preds, top_level);
                // SAFETY: fully unlinked; sole deleter (we won the marking).
                self.pool.retire(victim);
                return Some(val);
            }
        }
    }

    fn len(&self) -> usize {
        reclaim::quiescent();
        // SAFETY: grace period; walk level 0.
        unsafe {
            let mut n = 0;
            let mut cur = tower::next(self.head, 0).load(Ordering::Acquire);
            while (*cur).key != TAIL_KEY {
                if !(*cur).marked.load(Ordering::Relaxed)
                    && (*cur).fully_linked.load(Ordering::Relaxed)
                {
                    n += 1;
                }
                cur = tower::next(cur, 0).load(Ordering::Acquire);
            }
            n
        }
    }
}

impl ConcurrentMap for HerlihySkipList {
    fn get(&self, key: Key) -> Option<Val> {
        ConcurrentSet::search(self, key)
    }

    /// In-place upsert: a present key's value is swapped under the node's
    /// own lock — the same lock a deleter must hold to mark its victim, so
    /// the swap and the delete's value read are serialized and no
    /// absent-key window is ever observable. An absent key goes through
    /// the ordinary optimistic insert.
    fn put(&self, key: Key, val: Val) -> Option<Val> {
        assert_user_key(key);
        reclaim::quiescent();
        let mut preds = [std::ptr::null_mut(); MAX_LEVEL];
        let mut succs = [std::ptr::null_mut(); MAX_LEVEL];
        let mut bo = Backoff::adaptive();
        loop {
            // SAFETY: grace period per attempt.
            unsafe {
                if let Some(lf) = self.find(key, &mut preds, &mut succs) {
                    let n = succs[lf];
                    if (*n).marked.load(Ordering::Acquire) {
                        // Being deleted: wait for the unlink, then insert.
                        bo.backoff();
                        continue;
                    }
                    while !(*n).fully_linked.load(Ordering::Acquire) {
                        synchro::relax();
                    }
                    (*n).lock.lock();
                    if (*n).marked.load(Ordering::Acquire) {
                        // A deleter claimed the node before us.
                        (*n).lock.unlock();
                        bo.backoff();
                        continue;
                    }
                    let prev = (*n).val.swap(val, Ordering::AcqRel);
                    (*n).lock.unlock();
                    return Some(prev);
                }
            }
            if ConcurrentSet::insert(self, key, val) {
                return None;
            }
            // Lost an insert race; the key exists now — retry the update.
            bo.backoff();
        }
    }

    fn remove(&self, key: Key) -> Option<Val> {
        ConcurrentSet::delete(self, key)
    }

    fn len(&self) -> usize {
        ConcurrentSet::len(self)
    }

    fn for_each(&self, f: &mut dyn FnMut(Key, Val)) {
        self.range(HEAD_KEY + 1, TAIL_KEY - 1, f);
    }
}

impl OrderedMap for HerlihySkipList {
    /// Level-0 walk with Herlihy-style per-step validation: each emitted
    /// entry was read while its predecessor link was re-checked unchanged
    /// (`!pred.marked && pred.next[0] == cur`). On interference the
    /// traversal re-descends to just past the last emitted key, so output
    /// stays sorted and duplicate-free; after
    /// `RANGE_OPTIMISTIC_ATTEMPTS` consecutive failures one step is
    /// taken under the predecessor's lock (guaranteed progress).
    fn range(&self, lo: Key, hi: Key, f: &mut dyn FnMut(Key, Val)) {
        let hi = clamp_hi(hi);
        reclaim::quiescent();
        let mut from = lo.max(HEAD_KEY + 1);
        let mut fails = 0usize;
        let mut bo = Backoff::adaptive();
        'restart: loop {
            if from > hi {
                return;
            }
            // SAFETY: grace period; re-announced only between restarts
            // (no references are held across them).
            unsafe {
                // Descend to the predecessor of `from`.
                let mut pred = self.head;
                for l in (0..MAX_LEVEL).rev() {
                    let mut cur = tower::next(pred, l).load(Ordering::Acquire);
                    synchro::prefetch::read(cur);
                    while (*cur).key < from {
                        pred = cur;
                        cur = tower::next(cur, l).load(Ordering::Acquire);
                        synchro::prefetch::read(cur);
                    }
                }
                if fails >= RANGE_OPTIMISTIC_ATTEMPTS {
                    // Locked fallback: decide one node under pred's lock.
                    // The monotonic floor applies here exactly as on the
                    // optimistic path: a successor below `from` (a smaller
                    // key slid in under churn) is outside the remaining
                    // window and must be neither emitted nor allowed to
                    // move the floor backward.
                    (*pred).lock.lock();
                    if (*pred).marked.load(Ordering::Acquire) {
                        (*pred).lock.unlock();
                        bo.backoff();
                        continue 'restart;
                    }
                    let cur = tower::next(pred, 0).load(Ordering::Acquire);
                    let key = (*cur).key;
                    if key > hi {
                        (*pred).lock.unlock();
                        return;
                    }
                    if key >= from {
                        if (*cur).fully_linked.load(Ordering::Acquire)
                            && !(*cur).marked.load(Ordering::Acquire)
                        {
                            f(key, (*cur).val.load(Ordering::Acquire));
                        }
                        from = key + 1;
                        fails = 0;
                    }
                    (*pred).lock.unlock();
                    continue 'restart;
                }
                // Optimistic level-0 walk.
                loop {
                    let cur = tower::next(pred, 0).load(Ordering::Acquire);
                    let key = (*cur).key;
                    if key > hi {
                        return;
                    }
                    let live = (*cur).fully_linked.load(Ordering::Acquire)
                        && !(*cur).marked.load(Ordering::Acquire);
                    let val = (*cur).val.load(Ordering::Acquire);
                    // Validate the step: the link we read through must
                    // still be intact, or the fields above may belong to
                    // a node that was never `cur`'s successor state.
                    if (*pred).marked.load(Ordering::Acquire)
                        || tower::next(pred, 0).load(Ordering::Acquire) != cur
                    {
                        fails += 1;
                        bo.backoff();
                        continue 'restart;
                    }
                    if live && key >= from {
                        f(key, val);
                        from = key + 1;
                        fails = 0;
                    }
                    pred = cur;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_roundtrip() {
        let s = HerlihySkipList::new();
        assert!(s.insert(10, 100));
        assert!(s.insert(5, 50));
        assert!(!s.insert(10, 101));
        assert_eq!(s.search(5), Some(50));
        assert_eq!(s.delete(10), Some(100));
        assert_eq!(s.search(10), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn exactly_one_delete_wins() {
        let s = Arc::new(HerlihySkipList::new());
        for round in 1..=50u64 {
            assert!(s.insert(round, round));
            let mut handles = Vec::new();
            for _ in 0..6 {
                let s = Arc::clone(&s);
                handles.push(std::thread::spawn(move || s.delete(round).is_some()));
            }
            let winners: usize = handles
                .into_iter()
                .map(|h| usize::from(h.join().unwrap()))
                .sum();
            assert_eq!(winners, 1, "round {round}");
        }
        assert!(s.is_empty());
    }

    #[test]
    fn tall_and_short_towers_coexist() {
        let s = HerlihySkipList::new();
        for k in 1..=500u64 {
            assert!(s.insert(k, k));
        }
        // Level-0 walk sees everything in order.
        // SAFETY: single-threaded.
        unsafe {
            let mut cur = tower::next(s.head, 0).load(Ordering::Relaxed);
            let mut prev = 0u64;
            let mut count = 0;
            while (*cur).key != TAIL_KEY {
                assert!((*cur).key > prev);
                prev = (*cur).key;
                count += 1;
                cur = tower::next(cur, 0).load(Ordering::Relaxed);
            }
            assert_eq!(count, 500);
        }
    }
}
