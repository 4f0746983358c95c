//! Herlihy's optimistic skip list with OPTIK validation (*herl-optik*).
//!
//! The paper's first skip-list optimization (§5.3): "we simplify validation
//! in the optimistic skip list by Herlihy et al. using
//! `optik_lock_version`. If the validation is successful, then the
//! corresponding node has not been modified, thus we do not need to
//! validate the optimistic results in another way" — i.e. the per-level
//! `!pred.marked && !succ.marked && pred.next[level] == succ` checks are
//! skipped whenever the predecessor's version survived from the traversal
//! to the lock acquisition.
//!
//! Every modifying critical section releases with `unlock` (version bump);
//! aborting ones use `revert`, so versions track modifications exactly.

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};

use optik::{OptikLock, OptikVersioned, Version};
use synchro::Backoff;

use crate::level::{random_level, MAX_LEVEL};
use crate::tower::{self, Header, Towers};
use crate::{
    assert_user_key, clamp_hi, ConcurrentMap, ConcurrentSet, Key, OrderedMap, Val, HEAD_KEY,
    RANGE_OPTIMISTIC_ATTEMPTS, TAIL_KEY,
};

/// Node header (32 bytes); the tower follows it in the slot (see
/// [`crate::tower`]).
#[repr(C)]
pub(crate) struct Node {
    key: Key,
    /// In-place-updatable binding: swapped under this node's OPTIK lock,
    /// read lock-free.
    val: AtomicU64,
    lock: OptikVersioned,
    top_level: u8,
    marked: AtomicBool,
    fully_linked: AtomicBool,
}

impl Node {
    fn make(key: Key, val: Val, top_level: usize, linked: bool) -> Self {
        Node {
            key,
            val: AtomicU64::new(val),
            lock: OptikVersioned::new(),
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

/// Herlihy's skip list with OPTIK-validated predecessor locking.
pub struct HerlihyOptikSkipList {
    head: *mut Node,
    /// Type-stable node pools (one per tower class). Deleters bump their
    /// victim's version before retiring it, and no version read survives
    /// across operations, so recycled slots (fresh lock included) are
    /// plainly re-initialized after their grace period.
    pool: Towers<Node, SMALL>,
}

// SAFETY: per-node OPTIK locks serialize updates; searches read atomic
// fields of QSBR-protected nodes.
unsafe impl Send for HerlihyOptikSkipList {}
unsafe impl Sync for HerlihyOptikSkipList {}

/// Bookkeeping for the set of currently-held predecessor locks (on the
/// stack: an update holds at most one lock per level).
struct HeldPreds {
    /// Distinct locked nodes in acquisition order, with whether each was
    /// modified (decides unlock-vs-revert on release); `..len` is live.
    nodes: [(*mut Node, bool); MAX_LEVEL],
    len: usize,
}

impl HeldPreds {
    fn new() -> Self {
        Self {
            nodes: [(std::ptr::null_mut(), false); MAX_LEVEL],
            len: 0,
        }
    }

    fn holds(&self, p: *mut Node) -> bool {
        self.nodes[..self.len].iter().any(|&(n, _)| n == p)
    }

    fn push(&mut self, p: *mut Node) {
        self.nodes[self.len] = (p, false);
        self.len += 1;
    }

    fn mark_modified(&mut self, p: *mut Node) {
        if let Some(e) = self.nodes[..self.len].iter_mut().find(|(n, _)| *n == p) {
            e.1 = true;
        }
    }

    /// Releases everything: bump versions of modified nodes, revert others.
    ///
    /// # Safety
    ///
    /// All recorded nodes must be locked by the caller and alive.
    unsafe fn release_all(&mut self) {
        for &(p, modified) in &self.nodes[..self.len] {
            // SAFETY: per contract.
            unsafe {
                if modified {
                    (*p).lock.unlock();
                } else {
                    (*p).lock.revert();
                }
            }
        }
        self.len = 0;
    }
}

impl HerlihyOptikSkipList {
    /// Creates an empty skip list.
    pub fn new() -> Self {
        let pool = Towers::new();
        let tail = pool.alloc(Node::make(TAIL_KEY, 0, MAX_LEVEL - 1, true));
        let head = pool.alloc(Node::make(HEAD_KEY, 0, MAX_LEVEL - 1, true));
        // SAFETY: fresh nodes.
        unsafe {
            for l in 0..MAX_LEVEL {
                tower::next(head, l).store(tail, Ordering::Relaxed);
            }
        }
        Self { head, pool }
    }

    /// Number of elements (O(n); exact only in quiescence). Inherent so
    /// callers with both [`ConcurrentSet`] and [`ConcurrentMap`] in scope
    /// need no disambiguation.
    pub fn len(&self) -> usize {
        ConcurrentSet::len(self)
    }

    /// Whether the structure is empty (see [`HerlihyOptikSkipList::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `find` with per-level predecessor *version* tracking: each
    /// predecessor's version is read before its `next[l]` pointer.
    ///
    /// # Safety
    ///
    /// QSBR grace period required.
    unsafe fn find_tracking(
        &self,
        key: Key,
        preds: &mut [*mut Node; MAX_LEVEL],
        predvs: &mut [Version; MAX_LEVEL],
        succs: &mut [*mut Node; MAX_LEVEL],
    ) -> Option<usize> {
        // SAFETY: per contract.
        unsafe {
            let mut lfound = None;
            let mut pred = self.head;
            let mut predv = (*pred).lock.get_version();
            for l in (0..MAX_LEVEL).rev() {
                let mut cur = tower::next(pred, l).load(Ordering::Acquire);
                synchro::prefetch::read(cur);
                while (*cur).key < key {
                    pred = cur;
                    predv = (*pred).lock.get_version();
                    cur = tower::next(pred, l).load(Ordering::Acquire);
                    synchro::prefetch::read(cur);
                }
                if lfound.is_none() && (*cur).key == key {
                    lfound = Some(l);
                }
                preds[l] = pred;
                predvs[l] = predv;
                succs[l] = cur;
            }
            lfound
        }
    }

    /// Acquires `pred`'s lock for level `l` and decides validity: either
    /// the version validated (OPTIK fast path) or the Herlihy fine-grained
    /// check passes.
    ///
    /// # Safety
    ///
    /// Grace period; `held` tracks what we lock.
    unsafe fn lock_and_validate(
        held: &mut HeldPreds,
        pred: *mut Node,
        predv: Version,
        l: usize,
        succ_check: impl Fn(*mut Node, usize) -> bool,
    ) -> bool {
        // SAFETY: per contract.
        unsafe {
            if !held.holds(pred) {
                let version_ok = (*pred).lock.lock_version(predv);
                held.push(pred);
                // A marked predecessor is never valid, and the version
                // check alone cannot rule it out: if the node was unlinked
                // *before* the traversal read its version, nothing changes
                // the version afterwards, so `version_ok` still holds. The
                // version only vouches for the window after the read; the
                // marked flag covers everything before it. (Once we hold
                // the lock, nobody else can mark it, so one check here
                // suffices for every later level this pred covers.)
                if (*pred).marked.load(Ordering::Acquire) {
                    return false;
                }
                if version_ok {
                    // OPTIK fast path: alive, and unmodified since the
                    // traversal — no fine-grained validation needed.
                    return true;
                }
            } else if (*pred).lock.get_version() == predv.wrapping_add(1) {
                // Already held by us and the recorded version immediately
                // precedes the held (odd) one: unchanged since traversal.
                return true;
            }
            // Fine-grained validation (the original Herlihy checks);
            // `marked` was checked at acquisition and cannot be set while
            // we hold the lock.
            succ_check(pred, l)
        }
    }
}

impl Default for HerlihyOptikSkipList {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentSet for HerlihyOptikSkipList {
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
        let mut predvs = [0; MAX_LEVEL];
        let mut succs = [std::ptr::null_mut(); MAX_LEVEL];
        let mut bo = Backoff::adaptive();
        loop {
            // SAFETY: grace period per attempt.
            unsafe {
                if let Some(lf) = self.find_tracking(key, &mut preds, &mut predvs, &mut succs) {
                    let found = succs[lf];
                    if !(*found).marked.load(Ordering::Acquire) {
                        while !(*found).fully_linked.load(Ordering::Acquire) {
                            synchro::relax();
                        }
                        return false;
                    }
                    bo.backoff();
                    continue;
                }
                let mut held = HeldPreds::new();
                let mut valid = true;
                for l in 0..=top_level {
                    let succ = succs[l];
                    valid = Self::lock_and_validate(&mut held, preds[l], predvs[l], l, |p, l| {
                        !(*succ).marked.load(Ordering::Acquire)
                            && tower::next(p, l).load(Ordering::Acquire) == succ
                    });
                    if !valid {
                        break;
                    }
                }
                if !valid {
                    held.release_all();
                    bo.backoff();
                    continue;
                }
                let newnode = self.pool.alloc(Node::make(key, val, top_level, false));
                for l in 0..=top_level {
                    tower::next(newnode, l).store(succs[l], Ordering::Relaxed);
                }
                for l in 0..=top_level {
                    tower::next(preds[l], l).store(newnode, Ordering::Release);
                    held.mark_modified(preds[l]);
                }
                (*newnode).fully_linked.store(true, Ordering::Release);
                held.release_all();
                return true;
            }
        }
    }

    fn delete(&self, key: Key) -> Option<Val> {
        assert_user_key(key);
        reclaim::quiescent();
        let mut preds = [std::ptr::null_mut(); MAX_LEVEL];
        let mut predvs = [0; MAX_LEVEL];
        let mut succs = [std::ptr::null_mut(); MAX_LEVEL];
        let mut victim: *mut Node = std::ptr::null_mut();
        let mut is_marked = false;
        let mut top_level = 0usize;
        let mut bo = Backoff::adaptive();
        loop {
            // SAFETY: grace period per attempt; our marked victim is pinned.
            unsafe {
                let lf = self.find_tracking(key, &mut preds, &mut predvs, &mut succs);
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
                    victim = succs[lf.expect("found")];
                    top_level = (*victim).top_level();
                    (*victim).lock.lock();
                    if (*victim).marked.load(Ordering::Acquire) {
                        // Not modified by us: revert.
                        (*victim).lock.revert();
                        return None;
                    }
                    (*victim).marked.store(true, Ordering::Release);
                    is_marked = true;
                }
                let mut held = HeldPreds::new();
                let mut valid = true;
                for l in 0..=top_level {
                    valid = Self::lock_and_validate(&mut held, preds[l], predvs[l], l, |p, l| {
                        tower::next(p, l).load(Ordering::Acquire) == victim
                    });
                    if !valid {
                        break;
                    }
                }
                if !valid {
                    held.release_all();
                    bo.backoff();
                    continue;
                }
                for l in (0..=top_level).rev() {
                    tower::next(preds[l], l).store(
                        tower::next(victim, l).load(Ordering::Relaxed),
                        Ordering::Release,
                    );
                    held.mark_modified(preds[l]);
                }
                // Read under the victim's lock: serialized against the
                // in-place swaps of `ConcurrentMap::put`.
                let val = (*victim).val.load(Ordering::Relaxed);
                // Victim was modified (marked + unlinked): bump its version.
                (*victim).lock.unlock();
                held.release_all();
                // SAFETY: fully unlinked; sole deleter.
                self.pool.retire(victim);
                return Some(val);
            }
        }
    }

    fn len(&self) -> usize {
        reclaim::quiescent();
        // SAFETY: grace period.
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

impl ConcurrentMap for HerlihyOptikSkipList {
    fn get(&self, key: Key) -> Option<Val> {
        ConcurrentSet::search(self, key)
    }

    /// In-place upsert under the node's OPTIK lock. The lock excludes the
    /// deleter (which holds it across mark + value read), so the swap and
    /// the delete serialize; the release is a `revert` because a value
    /// swap changes no `next` pointer — the only thing concurrent
    /// traversals validate this node's version for.
    fn put(&self, key: Key, val: Val) -> Option<Val> {
        assert_user_key(key);
        reclaim::quiescent();
        let mut preds = [std::ptr::null_mut(); MAX_LEVEL];
        let mut predvs = [0; MAX_LEVEL];
        let mut succs = [std::ptr::null_mut(); MAX_LEVEL];
        let mut bo = Backoff::adaptive();
        loop {
            // SAFETY: grace period per attempt.
            unsafe {
                if let Some(lf) = self.find_tracking(key, &mut preds, &mut predvs, &mut succs) {
                    let n = succs[lf];
                    if (*n).marked.load(Ordering::Acquire) {
                        bo.backoff();
                        continue;
                    }
                    while !(*n).fully_linked.load(Ordering::Acquire) {
                        synchro::relax();
                    }
                    (*n).lock.lock();
                    if (*n).marked.load(Ordering::Acquire) {
                        // Claimed by a deleter while we waited; we modified
                        // nothing.
                        (*n).lock.revert();
                        bo.backoff();
                        continue;
                    }
                    let prev = (*n).val.swap(val, Ordering::AcqRel);
                    (*n).lock.revert();
                    return Some(prev);
                }
            }
            if ConcurrentSet::insert(self, key, val) {
                return None;
            }
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

impl OrderedMap for HerlihyOptikSkipList {
    /// OPTIK-validated level-0 walk: the predecessor's version is read on
    /// arrival and validated after the successor's fields are read — the
    /// read-side half of the OPTIK pattern, per step. Interference
    /// re-descends to just past the last emitted key (sorted,
    /// duplicate-free output); `RANGE_OPTIMISTIC_ATTEMPTS` consecutive
    /// failures fall back to one step under the predecessor's lock.
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
            // SAFETY: grace period.
            unsafe {
                let mut pred = self.head;
                let mut predv = (*pred).lock.get_version();
                for l in (0..MAX_LEVEL).rev() {
                    let mut cur = tower::next(pred, l).load(Ordering::Acquire);
                    synchro::prefetch::read(cur);
                    while (*cur).key < from {
                        pred = cur;
                        predv = (*pred).lock.get_version();
                        cur = tower::next(pred, l).load(Ordering::Acquire);
                        synchro::prefetch::read(cur);
                    }
                }
                if fails >= RANGE_OPTIMISTIC_ATTEMPTS {
                    // Locked fallback. Deleters release their victims'
                    // locks in this design, so a blocking acquisition
                    // always returns; a marked pred just re-descends. The
                    // monotonic floor applies exactly as on the optimistic
                    // path: a successor below `from` is neither emitted
                    // nor allowed to move the floor backward.
                    (*pred).lock.lock();
                    if (*pred).marked.load(Ordering::Acquire) {
                        (*pred).lock.revert();
                        bo.backoff();
                        continue 'restart;
                    }
                    let cur = tower::next(pred, 0).load(Ordering::Acquire);
                    let key = (*cur).key;
                    if key > hi {
                        (*pred).lock.revert();
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
                    (*pred).lock.revert();
                    continue 'restart;
                }
                loop {
                    let cur = tower::next(pred, 0).load(Ordering::Acquire);
                    let key = (*cur).key;
                    if key > hi {
                        return;
                    }
                    let live = (*cur).fully_linked.load(Ordering::Acquire)
                        && !(*cur).marked.load(Ordering::Acquire);
                    let val = (*cur).val.load(Ordering::Acquire);
                    let nextv = (*cur).lock.get_version();
                    if !(*pred).lock.validate(predv) {
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
                    predv = nextv;
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
        let s = HerlihyOptikSkipList::new();
        assert!(s.insert(10, 100));
        assert!(s.insert(5, 50));
        assert!(!s.insert(10, 999));
        assert_eq!(s.search(5), Some(50));
        assert_eq!(s.delete(10), Some(100));
        assert_eq!(s.delete(10), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn versions_bump_only_on_modification() {
        let s = HerlihyOptikSkipList::new();
        assert!(s.insert(5, 50));
        // SAFETY: single-threaded inspection of the head sentinel.
        let head = || unsafe { (*s.head).lock.get_version() };
        let headv = head();
        // A failed insert of the same key must not touch the head version.
        assert!(!s.insert(5, 51));
        assert_eq!(head(), headv);
        // Deleting 5 modifies head (its level-0 pred): version must move.
        assert_eq!(s.delete(5), Some(50));
        assert_ne!(head(), headv);
    }

    #[test]
    fn dead_predecessor_never_validates_under_churn() {
        // Regression test: a traversal can walk onto a predecessor that
        // was marked+unlinked *before* the traversal read its version; the
        // version then "validates" (nothing changed after the read), and
        // without the marked check the operation writes through a retired
        // node — lost updates and use-after-free. High-rate delete/insert
        // churn of neighbouring keys with towers overlapping reproduces
        // this within milliseconds.
        let s = Arc::new(HerlihyOptikSkipList::new());
        for k in (10..200u64).step_by(2) {
            assert!(s.insert(k, k));
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut x = t.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                let mut net = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = 10 + (x % 190);
                    if x & 1 == 0 {
                        if s.insert(k, k) {
                            net += 1;
                        }
                    } else if s.delete(k).is_some() {
                        net -= 1;
                    }
                }
                reclaim::offline();
                net
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(400));
        stop.store(true, Ordering::Relaxed);
        let net: i64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        reclaim::online();
        // Lost updates would break this exact accounting; corruption
        // typically panics/crashes long before.
        assert_eq!(s.len() as i64, 95 + net);
        for k in 1..=250u64 {
            let _ = s.search(k); // traversals must terminate and not fault
        }
    }

    #[test]
    fn exactly_one_delete_wins() {
        let s = Arc::new(HerlihyOptikSkipList::new());
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
}
