//! The paper's novel OPTIK-based skip list (§5.3), in its two variants.
//!
//! Design (from the paper):
//!
//! - traversal tracks the predecessor **and its version** at every level;
//! - insertions are **eager**: "once the OPTIK lock for a skip-list level
//!   is acquired, the new node is linked to that level. If a subsequent
//!   trylock fails, the operation is restarted, but the locks for the
//!   already inserted levels are not reacquired" — insertion resumes from
//!   the level that failed;
//! - a `fully_linked`-style flag "ensures that a partially inserted node
//!   will not be concurrently deleted";
//! - a deletion claims its victim by locking the victim's OPTIK lock
//!   **forever** (so concurrent operations validating against the victim
//!   always fail) and sets its deleted flag, then acquires all predecessor
//!   locks and unlinks top-down.
//!
//! The two variants differ in how a failed `try_lock_version` is handled:
//!
//! - [`OptikSkipList1`] (*optik1*): falls back to a blocking
//!   `lock_version` plus the fine-grained Herlihy-style validation;
//! - [`OptikSkipList2`] (*optik2*): immediately restarts the operation —
//!   simpler, and the faster of the two under skew in the paper.
//!
//! Both variants also implement the single-writer entry points
//! ([`ConcurrentMap::put_exclusive`] / `remove_exclusive`) for a caller
//! that already excludes every other writer (a kv shard's lock): one
//! descent, no trylock and no retry, and only the two lock-word writes
//! the lock-free `range` still relies on — a lock/unlock of the level-0
//! predecessor around the level-0 link or unlink, and a removed node's
//! lock held forever. Their batched form ([`ConcurrentMap::write_each`])
//! walks to every key of a batch before the caller's locks are taken and
//! applies the ops through the paths that walk recorded.

use std::cell::RefCell;
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
    /// In-place-updatable binding: swapped while holding this node's OPTIK
    /// lock (or by the map's only writer, see `put_exclusive`), read
    /// lock-free.
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

/// Probes one [`ConcurrentMap::get_each`] round advances side by side: as
/// many independent misses as a core keeps in flight before its line-fill
/// buffers, not the walk, are the limit.
const LANES: usize = 8;

/// Levels below this one are walked interleaved by `get_each`; the levels
/// from it up are walked per key, in `search`'s tight loop. A level-`l`
/// node is one in `2^l`, so the towers that reach level 6 stay
/// cache-resident under any traffic (256 of them in a 2^14-entry list)
/// and interleaving there only adds the lanes' bookkeeping; the misses
/// are in the bottom levels, whose nodes are the other 63 in 64.
const SPLIT: usize = 6;

/// One in-flight probe of the interleaved walk (`OptikSkipList::walk`):
/// `search`'s loop variables, parked between turns.
#[derive(Clone, Copy)]
struct Lane {
    key: Key,
    /// Last node with a smaller key: where a descent continues from.
    pred: *mut Node,
    /// `next(pred, level)`, hinted on the lane's previous turn and
    /// compared on this one.
    cur: *mut Node,
    level: usize,
    /// Position of the probe in the chunk: its slot in `out` or `paths`.
    slot: usize,
}

/// A descent to one key: per level, the last node with a smaller key and
/// its successor there. What the single writer's `find` fills and
/// `put_at`/`remove_at` apply.
#[derive(Clone, Copy)]
struct Path {
    preds: [*mut Node; MAX_LEVEL],
    succs: [*mut Node; MAX_LEVEL],
}

impl Path {
    const EMPTY: Path = Path {
        preds: [std::ptr::null_mut(); MAX_LEVEL],
        succs: [std::ptr::null_mut(); MAX_LEVEL],
    };
}

thread_local! {
    /// `write_each`'s per-op paths and freshness flags, reused across
    /// calls so a batch allocates nothing once the thread has seen one as
    /// long.
    static BATCH: RefCell<(Vec<Path>, Vec<bool>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Shared implementation; `FINE` selects the optik1 (fine re-validation)
/// or optik2 (immediate restart) behaviour.
pub struct OptikSkipList<const FINE: bool> {
    head: *mut Node,
    /// Type-stable node pools (one per tower class). A deleted victim's
    /// lock is held *forever*, but no validation spans operations
    /// (versions are read on arrival within the op), so after a grace
    /// period nobody can still validate against it and the slot — fresh,
    /// unlocked lock included — is plainly re-initialized.
    pool: Towers<Node, SMALL>,
}

/// The *optik1* variant: fine-grained re-validation on version failure.
pub type OptikSkipList1 = OptikSkipList<true>;
/// The *optik2* variant: immediate restart on version failure.
pub type OptikSkipList2 = OptikSkipList<false>;

// SAFETY: per-node OPTIK locks serialize updates; searches read atomic
// fields of QSBR-protected nodes.
unsafe impl<const FINE: bool> Send for OptikSkipList<FINE> {}
unsafe impl<const FINE: bool> Sync for OptikSkipList<FINE> {}

impl<const FINE: bool> OptikSkipList<FINE> {
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

    /// Whether the structure is empty (see [`OptikSkipList::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The binding of a node whose key matched, as a lookup reports it:
    /// `None` while the node is still being linked or once it is claimed.
    ///
    /// # Safety
    ///
    /// QSBR grace period required.
    #[inline(always)]
    unsafe fn read_live(found: *mut Node) -> Option<Val> {
        // SAFETY: per contract.
        unsafe {
            ((*found).fully_linked.load(Ordering::Acquire)
                && !(*found).marked.load(Ordering::Acquire))
            .then(|| (*found).val.load(Ordering::Acquire))
        }
    }

    /// Hints the node a descent from `pred` at level `l` compares next.
    /// Issued before the comparison at level `l` is decided: its pointer
    /// sits in `pred`'s line, which the walk has already loaded, so the
    /// line needed after a *failed* comparison is in flight during the
    /// miss that decides it. (The successor at level `l` itself needs no
    /// hint: the next instruction loads it.)
    ///
    /// # Safety
    ///
    /// QSBR grace period required; `l <= (*pred).top_level()`.
    #[inline(always)]
    unsafe fn prefetch_below(pred: *mut Node, l: usize) {
        if l > 0 {
            // SAFETY: per contract.
            synchro::prefetch::read(unsafe { tower::next(pred, l - 1).load(Ordering::Relaxed) });
        }
    }

    /// Traversal with per-level predecessor version tracking.
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
                Self::prefetch_below(pred, l);
                while (*cur).key < key {
                    pred = cur;
                    predv = (*pred).lock.get_version();
                    cur = tower::next(pred, l).load(Ordering::Acquire);
                    Self::prefetch_below(pred, l);
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

    /// The single writer's descent: [`Self::find_tracking`] without the
    /// versions, filling `path` on every level.
    ///
    /// # Safety
    ///
    /// QSBR grace period required.
    unsafe fn find(&self, key: Key, path: &mut Path) {
        // SAFETY: per contract.
        unsafe {
            let mut pred = self.head;
            for l in (0..MAX_LEVEL).rev() {
                let mut cur = tower::next(pred, l).load(Ordering::Acquire);
                Self::prefetch_below(pred, l);
                while (*cur).key < key {
                    pred = cur;
                    cur = tower::next(pred, l).load(Ordering::Acquire);
                    Self::prefetch_below(pred, l);
                }
                path.preds[l] = pred;
                path.succs[l] = cur;
            }
        }
    }

    /// The single writer's upsert at `path`, a current descent to `key`:
    /// the in-place swap, or a fresh link. A hit swaps with no node lock:
    /// only a deleter contends with a swap (`put` locks for that reason),
    /// and there is none. Returns the previous value and the node it
    /// linked (null on a hit).
    ///
    /// Lock-free readers rely on `insert`'s publication order, which a
    /// miss keeps: the node is allocated with every one of its own links
    /// set, linked bottom-up with `Release` stores — level 0 inside one
    /// lock/unlock of its predecessor ([`Self::relink_level0`]) — and
    /// `fully_linked` is set last, which is where the insertion
    /// linearizes.
    ///
    /// # Safety
    ///
    /// Grace period; the caller is the list's only writer, and no write
    /// has touched the list since `path` was current.
    unsafe fn put_at(&self, key: Key, val: Val, path: &Path) -> (Option<Val>, *mut Node) {
        // SAFETY: per contract — with no other writer, every node the
        // descent reached is fully linked and unclaimed, so a key that is
        // present is `succs[0]`'s.
        unsafe {
            let found = path.succs[0];
            if (*found).key == key {
                return (
                    Some((*found).val.swap(val, Ordering::AcqRel)),
                    std::ptr::null_mut(),
                );
            }
            let top_level = random_level(key) - 1;
            let node = self.pool.alloc(Node::make(key, val, top_level, false));
            for l in 0..=top_level {
                tower::next(node, l).store(path.succs[l], Ordering::Relaxed);
            }
            Self::relink_level0(path.preds[0], node);
            for l in 1..=top_level {
                tower::next(path.preds[l], l).store(node, Ordering::Release);
            }
            (*node).fully_linked.store(true, Ordering::Release);
            (None, node)
        }
    }

    /// The single writer's removal at `path`, a current descent to `key`:
    /// a miss touches no lock word; a hit claims the victim exactly as
    /// `delete` does — its lock taken and held forever, then `marked` set,
    /// which is where the removal linearizes — so a reader validating
    /// against it fails and `range`'s locked step re-descends; then it is
    /// unlinked top-down with `Release` stores (level 0 through
    /// [`Self::relink_level0`]), its value read, and it is retired. Returns
    /// the removed value and the victim (null on a miss), which stays
    /// readable until the caller's next quiescence announcement.
    ///
    /// # Safety
    ///
    /// As for [`Self::put_at`].
    unsafe fn remove_at(&self, key: Key, path: &Path) -> (Option<Val>, *mut Node) {
        // SAFETY: per contract: the victim is linked at exactly
        // `preds[l] -> victim` on each of its levels, and it is retired
        // once, after its last unlink.
        unsafe {
            let victim = path.succs[0];
            if (*victim).key != key {
                return (None, std::ptr::null_mut());
            }
            (*victim).lock.lock();
            (*victim).marked.store(true, Ordering::Release);
            for l in (1..=(*victim).top_level()).rev() {
                debug_assert!(path.succs[l] == victim, "level {l} reaches the victim");
                tower::next(path.preds[l], l).store(
                    tower::next(victim, l).load(Ordering::Relaxed),
                    Ordering::Release,
                );
            }
            Self::relink_level0(
                path.preds[0],
                tower::next(victim, 0).load(Ordering::Relaxed),
            );
            let val = (*victim).val.load(Ordering::Relaxed);
            self.pool.retire(victim);
            (Some(val), victim)
        }
    }

    /// The interleaved descents behind `get_each` (`RECORD = false`) and
    /// `write_each` (`RECORD = true`), for one chunk of up to [`LANES`]
    /// probes. A lookup is a chain of dependent loads, about a dozen
    /// right-moves of which most miss once the list outgrows the cache;
    /// the chains of different keys share nothing, so the probes advance
    /// round-robin, one comparison per turn, and each turn ends by hinting
    /// the node the lane compares on its next turn — which is then being
    /// fetched while the other lanes take theirs. Only the bottom
    /// [`SPLIT`] levels are walked that way; above them every probe runs
    /// `search`'s own loop to its end first.
    ///
    /// A lookup decides its probe into `out[slot]` as `search` would, at
    /// the first level whose successor holds the key (through the shared
    /// `read_live`), and performs exactly `search`'s reads in `search`'s
    /// order. A recording walk never stops early: it descends to level 0
    /// and leaves in `paths[slot]` what `find` would have.
    ///
    /// # Safety
    ///
    /// QSBR grace period, which must last as long as the caller uses a
    /// recorded path.
    unsafe fn walk<'a, const RECORD: bool>(
        probes: impl Iterator<Item = (&'a Self, Key)>,
        out: &mut [Option<Val>],
        paths: &mut [Path],
    ) {
        let mut lanes = [Lane {
            key: 0,
            pred: std::ptr::null_mut(),
            cur: std::ptr::null_mut(),
            level: 0,
            slot: 0,
        }; LANES];
        let mut live = 0;
        // SAFETY: per contract.
        unsafe {
            'probe: for (slot, (list, key)) in probes.enumerate() {
                assert_user_key(key);
                let mut pred = list.head;
                for l in (SPLIT..MAX_LEVEL).rev() {
                    let mut cur = tower::next(pred, l).load(Ordering::Acquire);
                    while (*cur).key < key {
                        pred = cur;
                        cur = tower::next(cur, l).load(Ordering::Acquire);
                    }
                    if RECORD {
                        paths[slot].preds[l] = pred;
                        paths[slot].succs[l] = cur;
                    } else if (*cur).key == key {
                        out[slot] = Self::read_live(cur);
                        continue 'probe;
                    }
                }
                let cur = tower::next(pred, SPLIT - 1).load(Ordering::Acquire);
                synchro::prefetch::read(cur);
                lanes[live] = Lane {
                    key,
                    pred,
                    cur,
                    level: SPLIT - 1,
                    slot,
                };
                live += 1;
            }
            while live > 0 {
                let mut i = 0;
                while i < live {
                    let lane = &mut lanes[i];
                    let cur_key = (*lane.cur).key;
                    // Whether this turn finished the probe.
                    let done = if cur_key < lane.key {
                        lane.pred = lane.cur;
                        lane.cur = tower::next(lane.cur, lane.level).load(Ordering::Acquire);
                        false
                    } else if !RECORD && cur_key == lane.key {
                        out[lane.slot] = Self::read_live(lane.cur);
                        true
                    } else {
                        // Descend. A level whose successor is the node
                        // just compared has its comparison decided too.
                        loop {
                            if RECORD {
                                paths[lane.slot].preds[lane.level] = lane.pred;
                                paths[lane.slot].succs[lane.level] = lane.cur;
                            }
                            if lane.level == 0 {
                                if !RECORD {
                                    out[lane.slot] = None;
                                }
                                break true;
                            }
                            lane.level -= 1;
                            let below = tower::next(lane.pred, lane.level).load(Ordering::Acquire);
                            if below != lane.cur {
                                lane.cur = below;
                                break false;
                            }
                        }
                    };
                    if done {
                        live -= 1;
                        lanes[i] = lanes[live];
                    } else {
                        synchro::prefetch::read(lane.cur);
                        i += 1;
                    }
                }
            }
        }
    }

    /// Points `pred`'s level-0 link at `to` inside one lock/unlock of
    /// `pred`: the single writer's only lock-word writes for a link or an
    /// unlink.
    /// `range` validates a step against the version of its level-0
    /// predecessor and takes that lock in its fallback, so the version has
    /// to move across the store and the store must not land inside a
    /// locked step. The lock is uncontended but for such a step, and
    /// `pred`'s line is the one the descent just loaded.
    ///
    /// # Safety
    ///
    /// Grace period; the caller is the map's only writer and `pred` is
    /// linked and unmarked.
    unsafe fn relink_level0(pred: *mut Node, to: *mut Node) {
        // SAFETY: per contract.
        unsafe {
            (*pred).lock.lock();
            tower::next(pred, 0).store(to, Ordering::Release);
            (*pred).lock.unlock();
        }
    }

    /// Tries to lock `pred` for one level: OPTIK trylock first; optik1
    /// falls back to blocking-lock + fine validation.
    ///
    /// Returns whether the lock was acquired with a valid view (caller must
    /// release with `unlock` after modifying, `revert` otherwise).
    ///
    /// # Safety
    ///
    /// Grace period; `succ` must be the expected successor at `level`.
    unsafe fn acquire_level(
        pred: *mut Node,
        predv: Version,
        succ: *mut Node,
        level: usize,
    ) -> bool {
        // SAFETY: per contract.
        unsafe {
            if (*pred).lock.try_lock_version(predv) {
                return true;
            }
            if !FINE {
                return false; // optik2: restart immediately
            }
            // optik1: blocking acquisition, then fine-grained validation
            // (the same checks the Herlihy list uses). The wait must be
            // bounded by the `marked` flag: a deleter claims its victim by
            // holding the victim's lock *forever*, so blocking on a marked
            // predecessor would never return. `marked` is set right after
            // the claim, so spinning "while locked and not marked" always
            // terminates.
            let matched = loop {
                let v = (*pred).lock.get_version();
                if !OptikVersioned::is_locked_version(v) {
                    if (*pred).lock.try_lock_version(v) {
                        break OptikVersioned::is_same_version(v, predv);
                    }
                    continue;
                }
                if (*pred).marked.load(Ordering::Acquire) {
                    return false; // claimed victim: its lock never frees
                }
                synchro::relax();
            };
            if matched {
                return true;
            }
            let ok = !(*pred).marked.load(Ordering::Acquire)
                && !(*succ).marked.load(Ordering::Acquire)
                && tower::next(pred, level).load(Ordering::Acquire) == succ;
            if ok {
                return true;
            }
            (*pred).lock.revert();
            false
        }
    }
}

impl<const FINE: bool> Default for OptikSkipList<FINE> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const FINE: bool> ConcurrentSet for OptikSkipList<FINE> {
    fn search(&self, key: Key) -> Option<Val> {
        assert_user_key(key);
        reclaim::quiescent();
        // SAFETY: grace period.
        unsafe {
            let mut pred = self.head;
            let mut found: *mut Node = std::ptr::null_mut();
            for l in (0..MAX_LEVEL).rev() {
                let mut cur = tower::next(pred, l).load(Ordering::Acquire);
                Self::prefetch_below(pred, l);
                while (*cur).key < key {
                    pred = cur;
                    cur = tower::next(cur, l).load(Ordering::Acquire);
                    Self::prefetch_below(pred, l);
                }
                if (*cur).key == key {
                    found = cur;
                    break;
                }
            }
            if found.is_null() {
                None
            } else {
                Self::read_live(found)
            }
        }
    }

    fn insert(&self, key: Key, val: Val) -> bool {
        assert_user_key(key);
        reclaim::quiescent();
        let top_level = random_level(key) - 1;
        let mut preds = [std::ptr::null_mut(); MAX_LEVEL];
        let mut predvs = [0; MAX_LEVEL];
        let mut succs = [std::ptr::null_mut(); MAX_LEVEL];
        let mut node: *mut Node = std::ptr::null_mut();
        // Levels `0..start_level` are already linked (eager insertion).
        let mut start_level = 0usize;
        let mut bo = Backoff::adaptive();
        loop {
            // SAFETY: grace period per attempt; our partially-linked node
            // cannot be deleted (not fully linked).
            unsafe {
                let lf = self.find_tracking(key, &mut preds, &mut predvs, &mut succs);
                if start_level == 0 {
                    if let Some(lf) = lf {
                        let found = succs[lf];
                        if !(*found).marked.load(Ordering::Acquire) {
                            while !(*found).fully_linked.load(Ordering::Acquire) {
                                synchro::relax();
                            }
                            if !node.is_null() {
                                // Allocated on an earlier attempt but never
                                // linked (start_level is still 0).
                                self.pool.dealloc_unpublished(node);
                            }
                            return false;
                        }
                        // Key is being deleted: wait for the unlink.
                        bo.backoff();
                        continue;
                    }
                    if node.is_null() {
                        node = self.pool.alloc(Node::make(key, val, top_level, false));
                    }
                }
                // Link level by level, eagerly.
                let mut l = start_level;
                let mut progressed = true;
                while l <= top_level {
                    let pred = preds[l];
                    let succ = succs[l];
                    // Prepare the node's own pointer first; level `l` is
                    // not yet reachable, so a plain store is fine.
                    tower::next(node, l).store(succ, Ordering::Relaxed);
                    if !Self::acquire_level(pred, predvs[l], succ, l) {
                        progressed = false;
                        break;
                    }
                    tower::next(pred, l).store(node, Ordering::Release);
                    (*pred).lock.unlock();
                    l += 1;
                    start_level = l;
                }
                if l > top_level {
                    (*node).fully_linked.store(true, Ordering::Release);
                    return true;
                }
                if !progressed {
                    bo.backoff();
                }
                // Restart: re-parse, continue from the level that failed
                // ("the locks for the already inserted levels are not
                // reacquired").
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
        let mut claimed = false;
        let mut top_level = 0usize;
        let mut bo = Backoff::adaptive();
        loop {
            // SAFETY: grace period per attempt; a claimed victim is pinned
            // (its lock is held forever by us until unlinked + retired).
            unsafe {
                let lf = self.find_tracking(key, &mut preds, &mut predvs, &mut succs);
                if !claimed {
                    let lf = lf?;
                    let cand = succs[lf];
                    // Read the candidate's version *before* the eligibility
                    // checks, so claiming validates them.
                    let candv = (*cand).lock.get_version();
                    if !(*cand).fully_linked.load(Ordering::Acquire)
                        || (*cand).top_level() != lf
                        || (*cand).marked.load(Ordering::Acquire)
                    {
                        return None;
                    }
                    // Claim: lock the victim FOREVER (its version can never
                    // validate again) and flag it deleted.
                    if !(*cand).lock.try_lock_version(candv) {
                        bo.backoff();
                        continue;
                    }
                    (*cand).marked.store(true, Ordering::Release);
                    victim = cand;
                    top_level = (*victim).top_level();
                    claimed = true;
                    // Re-parse so preds reflect the claimed victim.
                    continue;
                }
                // Acquire every distinct predecessor (bottom-up), each with
                // the version of its *highest* (earliest-read) level.
                let mut acquired = [std::ptr::null_mut::<Node>(); MAX_LEVEL];
                let mut held = 0usize;
                let mut valid = true;
                for l in 0..=top_level {
                    let pred = preds[l];
                    if acquired[..held].contains(&pred) {
                        // Same pred covers this level; version validated at
                        // its first-seen (higher) level... levels are
                        // scanned bottom-up here, so validate equality.
                        if succs[l] != victim {
                            valid = false;
                            break;
                        }
                        continue;
                    }
                    if succs[l] != victim {
                        // Traversal no longer reaches the victim at this
                        // level (e.g. a new node slid in between).
                        valid = false;
                        break;
                    }
                    if !Self::acquire_level(pred, predvs[l], victim, l) {
                        valid = false;
                        break;
                    }
                    acquired[held] = pred;
                    held += 1;
                }
                if !valid {
                    for &p in &acquired[..held] {
                        (*p).lock.revert();
                    }
                    bo.backoff();
                    continue;
                }
                // Unlink top-down under all pred locks; the victim's own
                // next pointers are frozen (its lock is held by us).
                for l in (0..=top_level).rev() {
                    tower::next(preds[l], l).store(
                        tower::next(victim, l).load(Ordering::Relaxed),
                        Ordering::Release,
                    );
                }
                for &p in &acquired[..held] {
                    (*p).lock.unlock();
                }
                // Read while holding the victim's lock (claimed forever):
                // serialized against `ConcurrentMap::put`'s in-place swaps,
                // which require acquiring that same lock.
                let val = (*victim).val.load(Ordering::Relaxed);
                // The victim's lock is never released ("locked forever").
                // SAFETY: fully unlinked; sole claimer retires.
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

impl<const FINE: bool> ConcurrentMap for OptikSkipList<FINE> {
    fn get(&self, key: Key) -> Option<Val> {
        ConcurrentSet::search(self, key)
    }

    /// `search` for a batch, with the cache misses of different probes
    /// overlapped: [`LANES`] probes at a time through the interleaved walk
    /// (`OptikSkipList::walk`). Each probe performs exactly `search`'s
    /// reads in `search`'s order, only interleaved with other probes'
    /// reads, so each result is one `get` could have returned during the
    /// call. One quiescence announcement covers the batch: it precedes the
    /// first pointer load, and no lane announces again while any lane
    /// holds a pointer.
    fn get_each(probes: &[(&Self, Key)], out: &mut [Option<Val>]) {
        assert_eq!(probes.len(), out.len(), "one result slot per probe");
        reclaim::quiescent();
        for (probes, out) in probes.chunks(LANES).zip(out.chunks_mut(LANES)) {
            // SAFETY: grace period (see above): every pointer the walk
            // loads is loaded after the announcement and dropped before
            // the next.
            unsafe { Self::walk::<false>(probes.iter().copied(), out, &mut []) };
        }
    }

    /// The batch writer: `get_each`'s interleaved walk, recording every
    /// key's path with no lock held, then `exclude`, then the applies
    /// through `put_at`/`remove_at` on the recorded paths — an op whose
    /// map `exclude` reports fresh descends no second time. An op on a
    /// stale map, or on a key an earlier op of the batch linked or
    /// unlinked, runs `find` again first. The ops of one list that follow a write there
    /// take a *finger fix-up* instead of a descent: after a link of node
    /// `n`, a path whose level-`l` predecessor was the writer's (for `l`
    /// up to `n`'s height) gets `n` as its predecessor if its key is
    /// larger and as its successor otherwise; after the unlink of victim
    /// `v`, a path through `v` steps around it. One quiescence
    /// announcement, before the walk, covers the call.
    ///
    /// # Safety
    ///
    /// The [`ConcurrentMap::write_each`] contract. A fresh map was not
    /// written between the announcement above and the exclusion, so the
    /// walk — which read a list no writer touched — is current there, and
    /// every apply on a list is followed by the fix-up that keeps the
    /// later paths of that list current.
    unsafe fn write_each(
        ops: &[(&Self, Key, Option<Val>)],
        out: &mut [Option<Val>],
        exclude: &mut dyn FnMut(&mut [bool]) -> bool,
    ) -> bool {
        assert_eq!(ops.len(), out.len(), "one result slot per op");
        reclaim::quiescent();
        BATCH.with_borrow_mut(|(paths, fresh)| {
            let n = ops.len();
            if paths.len() < n {
                paths.resize(n, Path::EMPTY);
            }
            let paths = &mut paths[..n];
            fresh.clear();
            fresh.resize(n, false);
            // SAFETY: grace period until the call returns (nothing below
            // announces, `exclude` included, per contract); after
            // `exclude`, this thread is every list's only writer.
            unsafe {
                for (ops, paths) in ops.chunks(LANES).zip(paths.chunks_mut(LANES)) {
                    Self::walk::<true>(ops.iter().map(|&(l, k, _)| (l, k)), &mut [], paths);
                }
                if !exclude(fresh) {
                    return false;
                }
                for (i, &(list, key, val)) in ops.iter().enumerate() {
                    let (done, later) = paths[i..].split_first_mut().expect("op i has a path");
                    if !fresh[i] {
                        list.find(key, done);
                    }
                    let (prev, node) = match val {
                        Some(v) => list.put_at(key, v, done),
                        None => list.remove_at(key, done),
                    };
                    out[i] = prev;
                    if node.is_null() {
                        continue;
                    }
                    for (j, path) in (i + 1..).zip(later) {
                        let (other, k, _) = ops[j];
                        if !std::ptr::eq(other, list) || !fresh[j] {
                            continue;
                        }
                        if k == key {
                            fresh[j] = false;
                            continue;
                        }
                        for l in 0..=(*node).top_level() {
                            if val.is_some() {
                                if path.preds[l] == done.preds[l] {
                                    if k > key {
                                        path.preds[l] = node;
                                    } else {
                                        path.succs[l] = node;
                                    }
                                }
                            } else if path.preds[l] == node {
                                path.preds[l] = done.preds[l];
                            } else if path.succs[l] == node {
                                path.succs[l] = tower::next(node, l).load(Ordering::Relaxed);
                            }
                        }
                    }
                }
                true
            }
        })
    }

    /// In-place upsert, OPTIK style: the node's version is read before the
    /// liveness checks and the swap happens only after a successful
    /// `try_lock_version` against it — acquisition *is* revalidation. A
    /// deleter claims its victim by locking it forever, so holding the
    /// lock proves the node was never claimed; the release is a `revert`
    /// because a value swap modifies no `next` pointer.
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
                    // Version first, checks after: a successful
                    // try_lock_version then validates them.
                    let nv = (*n).lock.get_version();
                    if (*n).marked.load(Ordering::Acquire) {
                        // Claimed victim: wait out the unlink.
                        bo.backoff();
                        continue;
                    }
                    while !(*n).fully_linked.load(Ordering::Acquire) {
                        synchro::relax();
                    }
                    if !(*n).lock.try_lock_version(nv) {
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

    /// The upsert for the map's only writer: one descent (`find`), then
    /// `put_at` — no trylock, no retry, no second descent.
    ///
    /// # Safety
    ///
    /// The [`ConcurrentMap::put_exclusive`] contract: no other thread
    /// writes this list during the call, so what the descent found is
    /// current until it returns.
    unsafe fn put_exclusive(&self, key: Key, val: Val) -> Option<Val> {
        assert_user_key(key);
        reclaim::quiescent();
        let mut path = Path::EMPTY;
        // SAFETY: grace period; the caller excludes every other writer.
        unsafe {
            self.find(key, &mut path);
            self.put_at(key, val, &path).0
        }
    }

    /// The removal for the map's only writer: one descent (`find`), then
    /// `remove_at` — a miss touches no lock word, a hit claims, unlinks
    /// and retires without a trylock or a retry.
    ///
    /// # Safety
    ///
    /// As for `put_exclusive`.
    unsafe fn remove_exclusive(&self, key: Key) -> Option<Val> {
        assert_user_key(key);
        reclaim::quiescent();
        let mut path = Path::EMPTY;
        // SAFETY: grace period; the caller excludes every other writer.
        unsafe {
            self.find(key, &mut path);
            self.remove_at(key, &path).0
        }
    }

    fn len(&self) -> usize {
        ConcurrentSet::len(self)
    }

    fn for_each(&self, f: &mut dyn FnMut(Key, Val)) {
        self.range(HEAD_KEY + 1, TAIL_KEY - 1, f);
    }
}

impl<const FINE: bool> OrderedMap for OptikSkipList<FINE> {
    /// OPTIK-validated level-0 walk (see
    /// [`HerlihyOptikSkipList`](crate::HerlihyOptikSkipList)'s range docs
    /// for the scheme). The fallback must respect this design's claimed
    /// victims — their locks are held forever — so the locked step uses
    /// the same marked-bounded acquisition as
    /// [`OptikSkipList::acquire_level`]: spin only while the predecessor
    /// is locked *and unmarked*, re-descend when it turns out to be a
    /// victim.
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
                    Self::prefetch_below(pred, l);
                    while (*cur).key < from {
                        pred = cur;
                        predv = (*pred).lock.get_version();
                        cur = tower::next(pred, l).load(Ordering::Acquire);
                        Self::prefetch_below(pred, l);
                    }
                }
                if fails >= RANGE_OPTIMISTIC_ATTEMPTS {
                    // Marked-bounded blocking acquisition of pred.
                    let acquired = loop {
                        let v = (*pred).lock.get_version();
                        if !OptikVersioned::is_locked_version(v) {
                            if (*pred).lock.try_lock_version(v) {
                                break true;
                            }
                            continue;
                        }
                        if (*pred).marked.load(Ordering::Acquire) {
                            break false; // claimed victim: never unlocks
                        }
                        synchro::relax();
                    };
                    if !acquired {
                        bo.backoff();
                        continue 'restart;
                    }
                    let cur = tower::next(pred, 0).load(Ordering::Acquire);
                    let key = (*cur).key;
                    if key > hi {
                        (*pred).lock.revert();
                        return;
                    }
                    // Monotonic floor, as on the optimistic path: a
                    // successor below `from` is neither emitted nor
                    // allowed to move the floor backward.
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

    fn roundtrip<const FINE: bool>() {
        let s: OptikSkipList<FINE> = OptikSkipList::new();
        assert!(s.insert(10, 100));
        assert!(s.insert(5, 50));
        assert!(!s.insert(10, 999));
        assert_eq!(s.search(5), Some(50));
        assert_eq!(s.delete(10), Some(100));
        assert_eq!(s.delete(10), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn roundtrip_optik1() {
        roundtrip::<true>();
    }

    #[test]
    fn roundtrip_optik2() {
        roundtrip::<false>();
    }

    #[test]
    fn victim_lock_stays_locked() {
        let s = OptikSkipList2::new();
        assert!(s.insert(7, 70));
        // SAFETY: the node is grabbed before its deletion, and read before
        // any quiescence that follows its retirement.
        unsafe {
            let node = tower::next(s.head, 0).load(Ordering::Relaxed);
            assert_eq!(s.delete(7), Some(70));
            assert!(OptikVersioned::is_locked_version(
                (*node).lock.get_version()
            ));
        }
    }

    fn one_delete_wins<const FINE: bool>() {
        let s: Arc<OptikSkipList<FINE>> = Arc::new(OptikSkipList::new());
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
    fn one_delete_wins_optik1() {
        one_delete_wins::<true>();
    }

    #[test]
    fn one_delete_wins_optik2() {
        one_delete_wins::<false>();
    }

    #[test]
    fn eager_insertion_survives_interleaved_deletes() {
        // Concurrent inserts and deletes of overlapping tall towers.
        let s = Arc::new(OptikSkipList2::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let mut net = 0i64;
                let mut x = t.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                for _ in 0..synchro::stress::ops(10_000) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = x % 16 + 1; // very hot keys
                    if x % 2 == 0 {
                        if s.insert(k, k) {
                            net += 1;
                        }
                    } else if s.delete(k).is_some() {
                        net -= 1;
                    }
                }
                net
            }));
        }
        let net: i64 =
            reclaim::offline_while(|| handles.into_iter().map(|h| h.join().unwrap()).sum());
        assert_eq!(s.len() as i64, net);
    }

    pub(super) fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// `get_each` against the per-key `get` on quiescent lists: every batch
    /// length around the lane count, probes spread over four lists (one of
    /// them empty), both ends of the user key space, a repeated probe.
    fn get_each_is_observably_the_per_key_get<const FINE: bool>() {
        use optik_harness::api::{MAX_USER_KEY, MIN_USER_KEY};
        const KEYS: u64 = 4096;
        let seed = synchro::stress::seed();
        let lists: [OptikSkipList<FINE>; 4] = std::array::from_fn(|_| OptikSkipList::new());
        let mut x = seed | 1;
        for (i, list) in lists[..3].iter().enumerate() {
            // About 1600 distinct keys per list: towers up to height 11,
            // so hits and right-moves occur above and below `SPLIT`.
            for _ in 0..2_000 {
                let k = xorshift(&mut x) % KEYS + 1;
                list.put(k, k << 8 | i as u64);
            }
        }
        lists[0].put(MIN_USER_KEY, 7);
        lists[1].put(MAX_USER_KEY, 9);
        for len in [0usize, 1, 7, 8, 9, 64] {
            for round in 0..synchro::stress::ops(400) {
                let mut probes: Vec<(&OptikSkipList<FINE>, Key)> = (0..len)
                    .map(|_| {
                        let r = xorshift(&mut x);
                        let key = match r % 16 {
                            0 => MIN_USER_KEY,
                            1 => MAX_USER_KEY,
                            _ => (r >> 8) % KEYS + 1,
                        };
                        (&lists[(r >> 40) as usize % lists.len()], key)
                    })
                    .collect();
                if len >= 2 {
                    probes[len - 1] = probes[0];
                }
                // Poisoned, so a slot the call leaves unwritten shows.
                let mut got = vec![Some(u64::MAX); len];
                OptikSkipList::get_each(&probes, &mut got);
                let want: Vec<Option<Val>> = probes.iter().map(|&(l, k)| l.get(k)).collect();
                assert_eq!(
                    got, want,
                    "batch of {len}, round {round}; STRESS_SEED={seed:#x}"
                );
            }
        }
    }

    #[test]
    fn get_each_is_observably_the_per_key_get_optik1() {
        get_each_is_observably_the_per_key_get::<true>();
    }

    #[test]
    fn get_each_is_observably_the_per_key_get_optik2() {
        get_each_is_observably_the_per_key_get::<false>();
    }

    /// One reader batching lookups over three lists while `writers`
    /// threads put and remove. Key `k` lives in list `k % 3` and has one
    /// writer, which tags every value `k << 32 | op index`: a value under
    /// the wrong key, a torn one, or one older than the reader has already
    /// seen for that key fails. Afterwards both ledgers close.
    fn get_each_races_writers(writers: u64) {
        use std::sync::atomic::AtomicBool;
        const KEYS: u64 = 192;
        let tag = |k: Key, i: u64| k << 32 | i;
        let seed = synchro::stress::seed();
        eprintln!("stress seed: {seed:#018x} (set STRESS_SEED={seed:#x} to reproduce)");
        let lists: [OptikSkipList2; 3] = std::array::from_fn(|_| OptikSkipList2::new());
        let list_of = |k: Key| &lists[(k % 3) as usize];
        let stop = AtomicBool::new(false);
        let model: Vec<Option<Val>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..writers)
                .map(|w| {
                    let (stop, list_of) = (&stop, &list_of);
                    s.spawn(move || {
                        let mut x = (seed ^ (w + 2).wrapping_mul(0x9E3779B97F4A7C15)) | 1;
                        let mut model = vec![None; KEYS as usize + 1];
                        let mut i = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            i += 1;
                            let r = xorshift(&mut x);
                            // This writer's keys: `k / 3 % writers == w`.
                            let k =
                                (r % (KEYS / 3 / writers) * writers + w) * 3 + (r >> 20) % 3 + 1;
                            let (got, next) = if r >> 32 & 1 == 0 {
                                (list_of(k).put(k, tag(k, i)), Some(tag(k, i)))
                            } else {
                                (list_of(k).remove(k), None)
                            };
                            assert_eq!(
                                got, model[k as usize],
                                "writer {w} op {i} on key {k}; STRESS_SEED={seed:#x}"
                            );
                            model[k as usize] = next;
                        }
                        model
                    })
                })
                .collect();
            let mut x = seed | 1;
            let mut newest = vec![0u64; KEYS as usize + 1];
            for round in 0..synchro::stress::ops(60_000) {
                let len = (xorshift(&mut x) % 24) as usize + 1;
                let probes: Vec<(&OptikSkipList2, Key)> = (0..len)
                    .map(|_| {
                        let k = xorshift(&mut x) % KEYS + 1;
                        (list_of(k), k)
                    })
                    .collect();
                let mut got = vec![None; len];
                OptikSkipList::get_each(&probes, &mut got);
                for (&(_, k), v) in probes.iter().zip(got) {
                    let Some(v) = v else { continue };
                    assert_eq!(
                        v >> 32,
                        k,
                        "round {round}: foreign or torn value {v:#x} at key {k}; \
                         STRESS_SEED={seed:#x}"
                    );
                    let i = v & 0xffff_ffff;
                    assert!(
                        i >= newest[k as usize],
                        "round {round}: key {k} went back from op {} to op {i}; \
                         STRESS_SEED={seed:#x}",
                        newest[k as usize]
                    );
                    newest[k as usize] = i;
                }
            }
            stop.store(true, Ordering::Relaxed);
            // The writers' key sets are disjoint: their models add up.
            reclaim::offline_while(|| {
                let mut all = vec![None; KEYS as usize + 1];
                for h in handles {
                    for (slot, v) in all.iter_mut().zip(h.join().expect("writer panicked")) {
                        *slot = slot.or(v);
                    }
                }
                all
            })
        });
        for k in 1..=KEYS {
            assert_eq!(
                list_of(k).get(k),
                model[k as usize],
                "key {k}; STRESS_SEED={seed:#x}"
            );
        }
        // Both ledgers, as far as these lists can see them (the QSBR
        // domain is shared with the binary's other tests): nothing they
        // retired is still in grace, and the live slots are the model's
        // entries plus each list's two sentinels.
        assert!(
            Towers::grace_elapses(&lists.each_ref().map(|l| &l.pool)),
            "grace period never elapsed; STRESS_SEED={seed:#x}"
        );
        let live: u64 = lists
            .iter()
            .flat_map(|l| l.pool.stats())
            .map(|s| s.live())
            .sum();
        let want = model.iter().flatten().count() as u64 + 2 * lists.len() as u64;
        assert_eq!(live, want, "STRESS_SEED={seed:#x}");
    }

    #[test]
    fn get_each_races_writers_2() {
        get_each_races_writers(2);
    }

    #[test]
    fn get_each_races_writers_4() {
        get_each_races_writers(4);
    }
}

/// The single-writer entry points (`put_exclusive` / `remove_exclusive`)
/// against the concurrent pair and against lock-free readers.
#[cfg(test)]
mod exclusive_tests {
    use super::{tests::xorshift, tower, OptikSkipList, OptikSkipList2, Towers};
    use crate::{ConcurrentMap, Key, OrderedMap, Val, HEAD_KEY, TAIL_KEY};
    use optik::{OptikLock, OptikVersioned};
    use std::sync::atomic::Ordering;

    /// Every binding, ascending, through `range`.
    fn contents<const FINE: bool>(list: &OptikSkipList<FINE>) -> Vec<(Key, Val)> {
        list.range_collect(HEAD_KEY + 1, TAIL_KEY - 1)
    }

    /// Live slots per tower class, `[small, tall]`.
    fn live<const FINE: bool>(list: &OptikSkipList<FINE>) -> [u64; 2] {
        list.pool.stats().map(|s| s.live())
    }

    /// `put_exclusive` for `Some(v)`, `remove_exclusive` for `None`.
    ///
    /// # Safety
    ///
    /// The single-writer contract.
    unsafe fn exclusive_op<const FINE: bool>(
        list: &OptikSkipList<FINE>,
        k: Key,
        op: Option<Val>,
    ) -> Option<Val> {
        // SAFETY: per contract.
        unsafe {
            match op {
                Some(v) => list.put_exclusive(k, v),
                None => list.remove_exclusive(k),
            }
        }
    }

    /// One seeded put/remove stream through `put`/`remove` on one list and
    /// through the single-writer pair on its twin, each run after the same
    /// height reseed, so both lists build the same towers: same replies,
    /// same contents, same `len`, same live slots in each class. The stream
    /// binds both ends of the user key space first and ends with a key
    /// removed and put back.
    fn exclusive_pair_is_observably_the_concurrent_pair<const FINE: bool>() {
        use optik_harness::api::{MAX_USER_KEY, MIN_USER_KEY};
        const KEYS: u64 = 512;
        let seed = synchro::stress::seed();
        let mut stream: Vec<(Key, Option<Val>)> =
            vec![(MIN_USER_KEY, Some(1)), (MAX_USER_KEY, Some(2))];
        let mut x = seed | 1;
        for i in 0..synchro::stress::ops(20_000) {
            let r = xorshift(&mut x);
            stream.push((r % KEYS + 1, (r >> 32 & 1 == 0).then_some(i)));
        }
        let back = KEYS / 2;
        stream.extend([(back, Some(3)), (back, None), (back, Some(4))]);
        stream.extend([(MAX_USER_KEY, None), (MAX_USER_KEY, Some(5))]);
        let run = |list: &OptikSkipList<FINE>, exclusive: bool| -> Vec<Option<Val>> {
            crate::level::reseed(seed);
            stream
                .iter()
                .map(|&(k, op)| match (op, exclusive) {
                    (Some(v), false) => list.put(k, v),
                    (None, false) => list.remove(k),
                    // SAFETY: single-threaded test — no other writer exists.
                    (op, true) => unsafe { exclusive_op(list, k, op) },
                })
                .collect()
        };
        let locked: OptikSkipList<FINE> = OptikSkipList::new();
        let exclusive: OptikSkipList<FINE> = OptikSkipList::new();
        let want = run(&locked, false);
        let got = run(&exclusive, true);
        for (i, (got, want)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                got, want,
                "op {i} on key {}; STRESS_SEED={seed:#x}",
                stream[i].0
            );
        }
        assert_eq!(
            contents(&exclusive),
            contents(&locked),
            "STRESS_SEED={seed:#x}"
        );
        assert_eq!(exclusive.len(), locked.len(), "STRESS_SEED={seed:#x}");
        assert_eq!(live(&exclusive), live(&locked), "STRESS_SEED={seed:#x}");
        assert!(
            exclusive.pool.stats()[1].allocations > 2,
            "no tower above the one-line class besides the sentinels; \
             STRESS_SEED={seed:#x}"
        );
    }

    #[test]
    fn exclusive_pair_is_observably_the_concurrent_pair_optik1() {
        exclusive_pair_is_observably_the_concurrent_pair::<true>();
    }

    #[test]
    fn exclusive_pair_is_observably_the_concurrent_pair_optik2() {
        exclusive_pair_is_observably_the_concurrent_pair::<false>();
    }

    /// The pair's lock-word writes, counted: a fresh link and an unlink
    /// each move the level-0 predecessor's version by one lock/unlock, a
    /// hit and a miss write no lock word, and a removed node's lock stays
    /// held.
    #[test]
    fn exclusive_victim_lock_stays_locked() {
        let s = OptikSkipList2::new();
        // SAFETY: single-threaded test — no other writer exists; `node` is
        // read before any quiescence that follows its retirement.
        unsafe {
            let head = || (*s.head).lock.get_version();
            let v0 = head();
            assert_eq!(s.put_exclusive(7, 70), None);
            assert_eq!(head(), v0 + 2, "one lock/unlock of the level-0 pred");
            let node = tower::next(s.head, 0).load(Ordering::Relaxed);
            let nv = (*node).lock.get_version();
            assert_eq!(s.put_exclusive(7, 71), Some(70));
            assert_eq!(s.remove_exclusive(8), None);
            assert_eq!(
                (head(), (*node).lock.get_version()),
                (v0 + 2, nv),
                "a hit and a miss write no lock word"
            );
            assert_eq!(s.remove_exclusive(7), Some(71));
            assert_eq!(head(), v0 + 4, "one lock/unlock of the level-0 pred");
            assert!(OptikVersioned::is_locked_version(
                (*node).lock.get_version()
            ));
        }
        assert!(s.is_empty());
    }

    /// One writer on the single-writer pair against `readers` lock-free
    /// readers mixing `get`, `get_each` batches and `range` windows. Values
    /// carry their key and the writer's op index, so a torn or foreign
    /// value, or one older than the reader has already seen for its key,
    /// fails, and so does a window that is unsorted, duplicated or out of
    /// bounds; the writer checks every reply against its own model (it is
    /// the only writer, so replies are deterministic); afterwards the
    /// contents are the model and both ledgers close.
    fn exclusive_writer_races_lock_free_readers(readers: u64) {
        use std::sync::atomic::AtomicBool;
        const KEYS: u64 = 128;
        let tag = |k: Key, i: u64| k << 32 | i;
        let seed = synchro::stress::seed();
        eprintln!("stress seed: {seed:#018x} (set STRESS_SEED={seed:#x} to reproduce)");
        let list = OptikSkipList2::new();
        let stop = AtomicBool::new(false);
        let mut model = vec![None; KEYS as usize + 1];
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..readers)
                .map(|r| {
                    let (list, stop) = (&list, &stop);
                    s.spawn(move || {
                        let mut x = (seed ^ (r + 2).wrapping_mul(0x9E3779B97F4A7C15)) | 1;
                        let mut newest = vec![0u64; KEYS as usize + 1];
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
                        while !stop.load(Ordering::Relaxed) {
                            let y = xorshift(&mut x);
                            let k = y % KEYS + 1;
                            match y >> 40 & 3 {
                                0 | 1 => {
                                    if let Some(v) = list.get(k) {
                                        check(k, v);
                                    }
                                }
                                2 => {
                                    // Distinct keys: probes of one batch are
                                    // not ordered against each other.
                                    let mut keys: Vec<Key> = (0..(y >> 8) % 16 + 1)
                                        .map(|_| xorshift(&mut x) % KEYS + 1)
                                        .collect();
                                    keys.sort_unstable();
                                    keys.dedup();
                                    let probes: Vec<(&OptikSkipList2, Key)> =
                                        keys.iter().map(|&k| (list, k)).collect();
                                    let mut got = vec![None; keys.len()];
                                    OptikSkipList2::get_each(&probes, &mut got);
                                    for (&k, v) in keys.iter().zip(got) {
                                        if let Some(v) = v {
                                            check(k, v);
                                        }
                                    }
                                }
                                _ => {
                                    let hi = k + (y >> 8) % 48;
                                    let window = list.range_collect(k, hi);
                                    assert!(
                                        window.windows(2).all(|w| w[0].0 < w[1].0)
                                            && window.iter().all(|&(g, _)| (k..=hi).contains(&g)),
                                        "reader {r}: window [{k}, {hi}] unsorted, duplicated \
                                         or out of bounds: {window:?}; STRESS_SEED={seed:#x}"
                                    );
                                    for (g, v) in window {
                                        check(g, v);
                                    }
                                }
                            }
                        }
                    })
                })
                .collect();
            let mut x = seed | 1;
            for i in 1..=synchro::stress::ops(400_000) {
                let r = xorshift(&mut x);
                let k = r % KEYS + 1;
                let next = (r >> 32 & 1 == 0).then_some(tag(k, i));
                // SAFETY: this thread is the list's only writer.
                let got = unsafe { exclusive_op(&list, k, next) };
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
        assert_eq!(contents(&list), want, "STRESS_SEED={seed:#x}");
        assert_eq!(list.len(), want.len(), "STRESS_SEED={seed:#x}");
        // Both ledgers, as far as this list can see them (the QSBR domain
        // is shared with the binary's other tests): nothing it retired is
        // still in grace, and the live slots are the model's entries plus
        // the two sentinels.
        assert!(
            Towers::grace_elapses(&[&list.pool]),
            "grace period never elapsed; STRESS_SEED={seed:#x}"
        );
        assert_eq!(
            live(&list).iter().sum::<u64>(),
            want.len() as u64 + 2,
            "STRESS_SEED={seed:#x}"
        );
    }

    #[test]
    fn exclusive_writer_races_lock_free_readers_2() {
        exclusive_writer_races_lock_free_readers(2);
    }

    #[test]
    fn exclusive_writer_races_lock_free_readers_4() {
        exclusive_writer_races_lock_free_readers(4);
    }

    /// Seeded batches through `write_each` on three lists against the same
    /// ops one by one through the single-writer pair on three twins, each
    /// side run after the same height reseed, so both sides build the same
    /// towers. A batch is up to 40 ops — several walk chunks — on a key
    /// space small enough for hits, misses and duplicate keys; half the
    /// batches sort each list's ops into one ascending run, as the store
    /// does, and the rest leave them in random order. `exclude` reports
    /// every map fresh, every map stale, or a random choice per map, and
    /// now and then refuses, which must apply nothing. Same replies, and
    /// per list the same contents, `len` and live slots per tower class.
    fn write_each_is_observably_the_exclusive_pair<const FINE: bool>() {
        use optik_harness::api::{MAX_USER_KEY, MIN_USER_KEY};
        const KEYS: u64 = 96;
        let seed = synchro::stress::seed();
        let mut x = seed | 1;
        type Batch = Vec<(usize, Key, Option<Val>)>;
        // Each batch with its `exclude` pattern: per-map freshness, or
        // `None` to refuse.
        let mut batches: Vec<(Batch, Option<[bool; 3]>)> = vec![(
            vec![(0, MIN_USER_KEY, Some(1)), (0, MAX_USER_KEY, Some(2))],
            Some([true; 3]),
        )];
        for round in 0..synchro::stress::ops(3_000) {
            let len = (xorshift(&mut x) % 41) as usize;
            let mut batch: Batch = (0..len)
                .map(|i| {
                    let r = xorshift(&mut x);
                    let key = match r % 32 {
                        0 => MIN_USER_KEY,
                        1 => MAX_USER_KEY,
                        _ => (r >> 8) % KEYS + 1,
                    };
                    let val = (r >> 32 & 1 == 0).then_some(round << 8 | i as u64);
                    ((r >> 40) as usize % 3, key, val)
                })
                .collect();
            if xorshift(&mut x) & 1 == 0 {
                batch.sort_by_key(|&(list, key, _)| (list, key));
            }
            let r = xorshift(&mut x);
            let fresh = match r % 8 {
                0 => None,
                1 | 2 => Some([true; 3]),
                3 | 4 => Some([false; 3]),
                _ => Some([r >> 8 & 1 == 1, r >> 9 & 1 == 1, r >> 10 & 1 == 1]),
            };
            batches.push((batch, fresh));
        }
        let one_by_one: [OptikSkipList<FINE>; 3] = std::array::from_fn(|_| OptikSkipList::new());
        let batched: [OptikSkipList<FINE>; 3] = std::array::from_fn(|_| OptikSkipList::new());
        // SAFETY: single-threaded test — no other writer exists, so every
        // map is unwritten since any call began.
        unsafe {
            crate::level::reseed(seed);
            let want: Vec<Vec<Option<Val>>> = batches
                .iter()
                .map(|(batch, fresh)| match fresh {
                    Some(_) => batch
                        .iter()
                        .map(|&(l, k, op)| exclusive_op(&one_by_one[l], k, op))
                        .collect(),
                    None => vec![Some(u64::MAX); batch.len()],
                })
                .collect();
            crate::level::reseed(seed);
            for (b, ((batch, fresh), want)) in batches.iter().zip(&want).enumerate() {
                let ops: Vec<(&OptikSkipList<FINE>, Key, Option<Val>)> =
                    batch.iter().map(|&(l, k, v)| (&batched[l], k, v)).collect();
                // Poisoned, so a slot the call leaves unwritten shows.
                let mut got = vec![Some(u64::MAX); ops.len()];
                let mut calls = 0;
                let mut exclude = |flags: &mut [bool]| {
                    calls += 1;
                    assert_eq!(flags.len(), batch.len(), "one flag per op");
                    assert!(flags.iter().all(|&f| !f), "flags arrive stale");
                    let Some(fresh) = fresh else { return false };
                    for (flag, &(l, _, _)) in flags.iter_mut().zip(batch) {
                        *flag = fresh[l];
                    }
                    true
                };
                let applied = OptikSkipList::write_each(&ops, &mut got, &mut exclude);
                assert_eq!(calls, 1, "batch {b}: exclude once; STRESS_SEED={seed:#x}");
                assert_eq!(applied, fresh.is_some(), "batch {b}; STRESS_SEED={seed:#x}");
                assert_eq!(
                    &got, want,
                    "batch {b}: {batch:?} under {fresh:?}; STRESS_SEED={seed:#x}"
                );
            }
        }
        for (l, (got, want)) in batched.iter().zip(&one_by_one).enumerate() {
            assert_eq!(
                contents(got),
                contents(want),
                "list {l}; STRESS_SEED={seed:#x}"
            );
            assert_eq!(got.len(), want.len(), "list {l}; STRESS_SEED={seed:#x}");
            assert_eq!(live(got), live(want), "list {l}; STRESS_SEED={seed:#x}");
        }
        assert!(
            batched.iter().any(|l| l.pool.stats()[1].allocations > 2),
            "no tower above the one-line class besides the sentinels; \
             STRESS_SEED={seed:#x}"
        );
    }

    #[test]
    fn write_each_is_observably_the_exclusive_pair_optik1() {
        write_each_is_observably_the_exclusive_pair::<true>();
    }

    #[test]
    fn write_each_is_observably_the_exclusive_pair_optik2() {
        write_each_is_observably_the_exclusive_pair::<false>();
    }

    /// One writer batching through `write_each` over two lists against
    /// `readers` lock-free readers mixing `get`, `get_each` and `range`
    /// over both. Key `k` lives in list `k % 2`; values carry their key
    /// and the writer's op index, so a torn or foreign value, or one older
    /// than the reader has already seen for its key, fails, and so does a
    /// window that is unsorted, duplicated or out of bounds. The writer's
    /// `exclude` reports each list fresh or stale at random (it is the
    /// only writer, so both are true) and the writer checks every reply
    /// against its model; afterwards the contents are the model and both
    /// ledgers close.
    fn write_each_races_lock_free_readers(readers: u64) {
        use std::sync::atomic::AtomicBool;
        const KEYS: u64 = 128;
        let tag = |k: Key, i: u64| k << 32 | i;
        let seed = synchro::stress::seed();
        eprintln!("stress seed: {seed:#018x} (set STRESS_SEED={seed:#x} to reproduce)");
        let lists: [OptikSkipList2; 2] = std::array::from_fn(|_| OptikSkipList2::new());
        let list_of = |k: Key| &lists[(k % 2) as usize];
        let stop = AtomicBool::new(false);
        let mut model = vec![None; KEYS as usize + 1];
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..readers)
                .map(|r| {
                    let (lists, list_of, stop) = (&lists, &list_of, &stop);
                    s.spawn(move || {
                        let mut x = (seed ^ (r + 2).wrapping_mul(0x9E3779B97F4A7C15)) | 1;
                        let mut newest = vec![0u64; KEYS as usize + 1];
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
                        while !stop.load(Ordering::Relaxed) {
                            let y = xorshift(&mut x);
                            let k = y % KEYS + 1;
                            match y >> 40 & 3 {
                                0 | 1 => {
                                    if let Some(v) = list_of(k).get(k) {
                                        check(k, v);
                                    }
                                }
                                2 => {
                                    let mut keys: Vec<Key> = (0..(y >> 8) % 16 + 1)
                                        .map(|_| xorshift(&mut x) % KEYS + 1)
                                        .collect();
                                    keys.sort_unstable();
                                    keys.dedup();
                                    let probes: Vec<(&OptikSkipList2, Key)> =
                                        keys.iter().map(|&k| (list_of(k), k)).collect();
                                    let mut got = vec![None; keys.len()];
                                    OptikSkipList2::get_each(&probes, &mut got);
                                    for (&k, v) in keys.iter().zip(got) {
                                        if let Some(v) = v {
                                            check(k, v);
                                        }
                                    }
                                }
                                _ => {
                                    let hi = k + (y >> 8) % 48;
                                    let list = &lists[(y >> 16 & 1) as usize];
                                    let window = list.range_collect(k, hi);
                                    assert!(
                                        window.windows(2).all(|w| w[0].0 < w[1].0)
                                            && window.iter().all(|&(g, _)| (k..=hi).contains(&g)),
                                        "reader {r}: window [{k}, {hi}] unsorted, duplicated \
                                         or out of bounds: {window:?}; STRESS_SEED={seed:#x}"
                                    );
                                    for (g, v) in window {
                                        check(g, v);
                                    }
                                }
                            }
                        }
                    })
                })
                .collect();
            let mut x = seed | 1;
            let mut i = 0;
            while i < synchro::stress::ops(400_000) {
                let len = xorshift(&mut x) % 12 + 1;
                let mut batch: Vec<(&OptikSkipList2, Key, Option<Val>)> = (0..len)
                    .map(|_| {
                        i += 1;
                        let r = xorshift(&mut x);
                        let k = r % KEYS + 1;
                        (list_of(k), k, (r >> 32 & 1 == 0).then_some(tag(k, i)))
                    })
                    .collect();
                batch.sort_by_key(|&(_, k, _)| (k % 2, k));
                let stale = xorshift(&mut x);
                let mut exclude = |fresh: &mut [bool]| {
                    for (f, &(_, k, _)) in fresh.iter_mut().zip(&batch) {
                        *f = stale >> (k % 2) & 1 == 0;
                    }
                    true
                };
                let mut got = vec![None; batch.len()];
                // SAFETY: this thread is both lists' only writer.
                unsafe { OptikSkipList2::write_each(&batch, &mut got, &mut exclude) };
                for (&(_, k, next), got) in batch.iter().zip(got) {
                    assert_eq!(
                        got, model[k as usize],
                        "writer op on key {k} before op {i}; STRESS_SEED={seed:#x}"
                    );
                    model[k as usize] = next;
                }
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
        let mut got = [contents(&lists[0]), contents(&lists[1])].concat();
        got.sort_unstable();
        assert_eq!(got, want, "STRESS_SEED={seed:#x}");
        assert!(
            Towers::grace_elapses(&lists.each_ref().map(|l| &l.pool)),
            "grace period never elapsed; STRESS_SEED={seed:#x}"
        );
        let live: u64 = lists.iter().flat_map(live).sum();
        assert_eq!(live, want.len() as u64 + 4, "STRESS_SEED={seed:#x}");
    }

    #[test]
    fn write_each_races_lock_free_readers_2() {
        write_each_races_lock_free_readers(2);
    }

    #[test]
    fn write_each_races_lock_free_readers_4() {
        write_each_races_lock_free_readers(4);
    }
}
