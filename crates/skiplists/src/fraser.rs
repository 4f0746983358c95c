//! Fraser's lock-free skip list [15] (*fraser* in Figure 11).
//!
//! Per-level marked next-pointers (LSB), as in Harris's list generalized
//! to towers:
//!
//! - **insert** links level 0 with a CAS (the linearization point), then
//!   links upper levels with CAS loops, re-searching on failure;
//! - **delete** claims the victim by swapping `FROZEN` into its value
//!   cell — a single CAS that is the linearization point and doubles as
//!   the arbiter against the in-place value swaps of
//!   [`ConcurrentMap::put`] — then marks the victim's next pointers
//!   top-down (level 0 last) and physically snips the victim at every
//!   level;
//! - **searches** snip marked chains they encounter (helping) and treat a
//!   frozen value as absent.
//!
//! # Reclamation discipline
//!
//! A node may be *re-published* after it is logically deleted: insert
//! links levels bottom-up while delete marks them top-down, so a lagging
//! inserter's pred-link CAS can re-link its own just-deleted node at an
//! upper level **after** the deleter's cleanup pass completed. Retiring
//! the node at that point is fatal — QSBR only protects references
//! acquired *before* retirement, and a fresh traversal can reach the
//! re-published node afterwards. Therefore retirement is coordinated
//! between the two parties that can touch the node:
//!
//! - the **level-0 mark winner** unlinks the victim at every level
//!   ([`FraserSkipList::unlink_node`], an identity-based per-level sweep
//!   that is immune to equal-key ties), then tries to CAS the node's
//!   `state` from LINKING to RETIRE_HANDOFF: on success the node's own
//!   inserter is still running and inherits the retirement; otherwise
//!   (state == LINK_DONE) the deleter retires;
//! - the **inserter**, when it finishes (normally or by abandoning a
//!   deleted node), unlinks the node again if it was marked (covering any
//!   re-publication it performed), then CASes LINKING → LINK_DONE; if
//!   that fails it inherited the handoff and retires the node itself.
//!
//! Either way the handoff picks a *single* reclamation owner, after the
//! final unlink that owner performed. Even so, frozen successor pointers
//! allow **re-publication chains** (an unlink sweep re-installs a frozen
//! pointer whose target is itself long-deleted), so no fixed number of
//! grace periods bounds a dead node's reachability. Slots are therefore
//! **never re-circulated**: nodes come out of a type-stable [`NodePool`]
//! (magazine-cached allocation), but retired ones park on a deferred list
//! ([`FraserSkipList::retire_deferred`]) until the structure — and with it
//! the pool — drops. Correct by construction, at the cost of holding
//! deleted nodes' memory for the structure's lifetime. See
//! EXPERIMENTS.md, correctness note 3, for the full analysis.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};

use synchro::Backoff;

use crate::level::{random_level, MAX_LEVEL};
use crate::tower::{self, Header, Towers};
use crate::{
    assert_user_key, clamp_hi, ConcurrentMap, ConcurrentSet, Key, OrderedMap, Val, HEAD_KEY,
    TAIL_KEY,
};

const MARK: usize = 1;

/// Tombstone the deleter swaps into a node's value cell: the **single-CAS
/// linearization point of a removal**, value-wise. With in-place upserts
/// (`ConcurrentMap::put`) a lock-free node needs one cell that serializes
/// "replace the value" against "remove the binding"; the value cell itself
/// is that cell. Puts CAS the value and refuse the tombstone; reads treat
/// it as absent. Consequence: `u64::MAX` is reserved and cannot be stored
/// as a user value in this structure.
const FROZEN: Val = u64::MAX;

#[inline]
fn marked(w: usize) -> bool {
    w & MARK != 0
}

#[inline]
fn unmark(w: usize) -> usize {
    w & !MARK
}

/// Insert still linking upper levels (may yet re-publish the node).
const LINKING: u8 = 0;
/// Insert finished; the node can be retired by its deleter.
const LINK_DONE: u8 = 1;
/// Delete finished first; retirement is handed to the inserter.
const RETIRE_HANDOFF: u8 = 2;

/// Node header (32 bytes); the tower of marked words follows it in the
/// slot (see [`crate::tower`]).
#[repr(C)]
pub(crate) struct Node {
    key: Key,
    /// The binding, or `FROZEN` once removed (see the const docs).
    val: AtomicU64,
    /// Intrusive link for the structure's deferred-reclamation list.
    gc_next: AtomicUsize,
    /// Insert/delete retirement coordination (see the reclamation notes
    /// in the module docs): LINKING → LINK_DONE (normal) or
    /// LINKING → RETIRE_HANDOFF (deleter finished while the inserter was
    /// still linking; the inserter unlinks its own re-publications and
    /// retires).
    state: AtomicU8,
    top_level: u8,
}

impl Node {
    fn make(key: Key, val: Val, top_level: usize) -> Self {
        Node {
            key,
            val: AtomicU64::new(val),
            gc_next: AtomicUsize::new(0),
            state: AtomicU8::new(LINKING),
            top_level: top_level as u8,
        }
    }
}

impl Header for Node {
    /// A successor pointer with the deletion mark in its LSB.
    type Link = AtomicUsize;

    #[inline]
    fn top_level(&self) -> usize {
        self.top_level as usize
    }
}

const SMALL: usize = tower::small_levels::<Node>();

/// Fraser's lock-free skip list.
pub struct FraserSkipList {
    head: *mut Node,
    /// Head of the deferred-reclamation list (see the module docs: slots
    /// on it are never handed back to the pool during the structure's
    /// lifetime).
    garbage: AtomicUsize,
    /// Type-stable node pools (one per tower class) — allocation-only
    /// here: the magazine fast path serves inserts, but re-publication
    /// chains forbid recycling, so retired slots wait on `garbage` until
    /// the pools drop.
    pool: Towers<Node, SMALL>,
}

// SAFETY: all mutation is CAS on next words; QSBR + the single-retirer
// discipline documented above handle reclamation.
unsafe impl Send for FraserSkipList {}
unsafe impl Sync for FraserSkipList {}

impl FraserSkipList {
    /// Creates an empty skip list.
    pub fn new() -> Self {
        let pool = Towers::new();
        let tail = pool.alloc(Node::make(TAIL_KEY, 0, MAX_LEVEL - 1));
        let head = pool.alloc(Node::make(HEAD_KEY, 0, MAX_LEVEL - 1));
        // SAFETY: fresh nodes.
        unsafe {
            for l in 0..MAX_LEVEL {
                tower::next(head, l).store(tail as usize, Ordering::Relaxed);
            }
        }
        Self {
            head,
            garbage: AtomicUsize::new(0),
            pool,
        }
    }

    /// Fraser's search: fills per-level unmarked, adjacent `(pred, succ)`
    /// pairs, physically snipping marked chains along the way. Restarts
    /// from scratch whenever a snip CAS fails, so on return the traversed
    /// path was clean. Does **not** retire snipped nodes (the deleter
    /// does).
    ///
    /// # Safety
    ///
    /// QSBR grace period required.
    unsafe fn locate(
        &self,
        key: Key,
        preds: &mut [*mut Node; MAX_LEVEL],
        succs: &mut [*mut Node; MAX_LEVEL],
    ) {
        // SAFETY: per contract; every dereferenced node is grace-protected.
        unsafe {
            'retry: loop {
                let mut pred = self.head;
                for l in (0..MAX_LEVEL).rev() {
                    let mut pred_w = tower::next(pred, l).load(Ordering::Acquire);
                    if marked(pred_w) {
                        // pred got deleted under us; restart.
                        continue 'retry;
                    }
                    let mut cur = unmark(pred_w) as *mut Node;
                    loop {
                        // Skip over a chain of marked nodes.
                        let mut cur_w = tower::next(cur, l).load(Ordering::Acquire);
                        while marked(cur_w) {
                            cur = unmark(cur_w) as *mut Node;
                            cur_w = tower::next(cur, l).load(Ordering::Acquire);
                        }
                        if (*cur).key < key {
                            pred = cur;
                            pred_w = cur_w;
                            cur = unmark(cur_w) as *mut Node;
                            continue;
                        }
                        // Settle: snip the marked chain (if any).
                        if unmark(pred_w) != cur as usize
                            && tower::next(pred, l)
                                .compare_exchange(
                                    pred_w,
                                    cur as usize,
                                    Ordering::AcqRel,
                                    Ordering::Acquire,
                                )
                                .is_err()
                        {
                            continue 'retry;
                        }
                        preds[l] = pred;
                        succs[l] = cur;
                        break;
                    }
                }
                return;
            }
        }
    }

    /// One cleanup pass (just a search whose results are discarded).
    ///
    /// # Safety
    ///
    /// QSBR grace period required.
    unsafe fn cleanup(&self, key: Key) {
        let mut preds = [std::ptr::null_mut(); MAX_LEVEL];
        let mut succs = [std::ptr::null_mut(); MAX_LEVEL];
        // SAFETY: forwarded contract.
        unsafe { self.locate(key, &mut preds, &mut succs) };
    }

    /// Physically unlinks `node` (which must be marked at every level) by
    /// **identity**, level by level, walking each level from the head.
    ///
    /// Unlike a `locate`-based cleanup, this sweep cannot be defeated by
    /// equal-key ties (a search stops at the first key match and misses
    /// marked duplicates behind it) or by entering a level past the node:
    /// it compares pointers, not keys. Predecessors may themselves be
    /// marked; the snip CAS preserves their mark bit.
    ///
    /// # Safety
    ///
    /// QSBR grace period required; `node` must be level-0 marked (its next
    /// pointers are frozen).
    unsafe fn unlink_node(&self, node: *mut Node) {
        // SAFETY: per contract; every walked pointer is grace-protected.
        unsafe {
            let key = (*node).key;
            for l in (0..=(*node).top_level()).rev() {
                'level: loop {
                    let mut pred = self.head;
                    loop {
                        let pred_w = tower::next(pred, l).load(Ordering::Acquire);
                        let cur = unmark(pred_w) as *mut Node;
                        if cur == node {
                            let next = unmark(tower::next(node, l).load(Ordering::Acquire));
                            // Keep pred's own mark bit as-is: a marked
                            // pred's pointer may be rewritten (skipping
                            // `node`) but must stay marked.
                            let new_w = next | (pred_w & MARK);
                            if tower::next(pred, l)
                                .compare_exchange(
                                    pred_w,
                                    new_w,
                                    Ordering::AcqRel,
                                    Ordering::Acquire,
                                )
                                .is_ok()
                            {
                                break 'level;
                            }
                            continue 'level; // contention: restart level
                        }
                        if cur.is_null() || (*cur).key > key {
                            break 'level; // not linked at this level
                        }
                        pred = cur;
                    }
                }
            }
        }
    }

    /// Defers `node` to the structure's garbage list.
    ///
    /// Fraser towers admit *re-publication chains*: a lagging thread whose
    /// pre-deletion search returned the node can transiently re-link it,
    /// and an unlink sweep can re-install a frozen successor pointer whose
    /// target was itself deleted long ago. Under quiescent-state
    /// reclamation this means no single grace period bounds the node's
    /// reachability, so recycling a retired slot is unsound without extra
    /// validation machinery (stamp checks on every traversal step). Slots
    /// on this list are therefore never returned to the pool; their memory
    /// is reclaimed wholesale when the pool drops with the structure.
    ///
    /// # Safety
    ///
    /// `node` must be level-0 marked and pushed at most once (the
    /// `state` handshake guarantees a single owner).
    unsafe fn retire_deferred(&self, node: *mut Node) {
        // SAFETY: single pusher per node (handshake); gc_next is unused
        // until the node is pushed.
        unsafe {
            let mut head = self.garbage.load(Ordering::Relaxed);
            loop {
                (*node).gc_next.store(head, Ordering::Relaxed);
                match self.garbage.compare_exchange_weak(
                    head,
                    node as usize,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => return,
                    Err(h) => head = h,
                }
            }
        }
    }

    /// Completes the physical phase of a removal whose value cell is
    /// already frozen: marks the tower top-down (level 0 last) and snips
    /// the node at every level. Safe to run from *any* thread — the mark
    /// CAS loops tolerate concurrent markers and `unlink_node` tolerates
    /// concurrent sweeps — so writers that find a frozen twin **help**
    /// instead of waiting on the remover's progress (the structure stays
    /// non-blocking). Retirement is NOT part of this: the handshake
    /// belongs exclusively to the freeze winner.
    ///
    /// # Safety
    ///
    /// QSBR grace period required; `victim`'s value cell must be frozen
    /// (its removal has linearized).
    unsafe fn help_physical_remove(&self, victim: *mut Node) {
        // SAFETY: per contract.
        unsafe {
            for l in (0..=(*victim).top_level()).rev() {
                loop {
                    let w = tower::next(victim, l).load(Ordering::Acquire);
                    if marked(w)
                        || tower::next(victim, l)
                            .compare_exchange(w, w | MARK, Ordering::AcqRel, Ordering::Acquire)
                            .is_ok()
                    {
                        break;
                    }
                }
            }
            self.unlink_node(victim);
        }
    }

    /// Inserter-side half of the retirement handshake; must be the last
    /// action of every `insert` that published its node.
    ///
    /// # Safety
    ///
    /// QSBR grace period required; `node` published at level 0 by us.
    unsafe fn finish_insert(&self, node: *mut Node) {
        // SAFETY: per contract.
        unsafe {
            // If the node was deleted while we were linking, some of our
            // links may have re-published it after the deleter's unlink
            // sweep: sweep again before declaring ourselves done.
            if marked(tower::next(node, 0).load(Ordering::Acquire)) {
                self.unlink_node(node);
            }
            if (*node)
                .state
                .compare_exchange(LINKING, LINK_DONE, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                // The deleter finished first and handed retirement to us;
                // our sweep above ran after our last publication.
                self.retire_deferred(node);
            }
        }
    }
}

impl Default for FraserSkipList {
    fn default() -> Self {
        Self::new()
    }
}

impl FraserSkipList {
    /// Number of elements (O(n); exact only in quiescence). Inherent so
    /// callers with both [`ConcurrentSet`] and [`ConcurrentMap`] in scope
    /// need no disambiguation.
    pub fn len(&self) -> usize {
        ConcurrentSet::len(self)
    }

    /// Whether the structure is empty (see [`FraserSkipList::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read-only probe for a live-linked node with `key` (observed through
    /// an unmarked pointer), like the paper's wait-free searches.
    ///
    /// A returned node may still be value-frozen — the caller decides
    /// presence by loading `val` (see `FROZEN`). A frozen node stays
    /// visible to probes until it is marked and snipped, which is exactly
    /// what keeps a key unique: inserters refuse to link a second node
    /// while the frozen one is reachable.
    ///
    /// # Safety
    ///
    /// QSBR grace period required.
    unsafe fn find_live(&self, key: Key) -> Option<*mut Node> {
        // SAFETY: per contract.
        unsafe {
            let mut pred = self.head;
            for l in (0..MAX_LEVEL).rev() {
                let mut cur = unmark(tower::next(pred, l).load(Ordering::Acquire)) as *mut Node;
                loop {
                    let cur_w = tower::next(cur, l).load(Ordering::Acquire);
                    if marked(cur_w) {
                        cur = unmark(cur_w) as *mut Node;
                        continue;
                    }
                    if (*cur).key < key {
                        pred = cur;
                        cur = unmark(cur_w) as *mut Node;
                        continue;
                    }
                    break;
                }
                if (*cur).key == key {
                    return Some(cur);
                }
            }
            None
        }
    }
}

impl ConcurrentSet for FraserSkipList {
    fn search(&self, key: Key) -> Option<Val> {
        assert_user_key(key);
        reclaim::quiescent();
        // SAFETY: grace period.
        unsafe {
            let n = self.find_live(key)?;
            let v = (*n).val.load(Ordering::Acquire);
            (v != FROZEN).then_some(v)
        }
    }

    fn insert(&self, key: Key, val: Val) -> bool {
        assert_user_key(key);
        // Hard assert (not debug): storing the tombstone would freeze the
        // node as if removed, silently bricking the key in release builds.
        assert!(val != FROZEN, "u64::MAX is the reserved tombstone value");
        reclaim::quiescent();
        let top_level = random_level(key) - 1;
        let node = self.pool.alloc(Node::make(key, val, top_level));
        let mut preds = [std::ptr::null_mut(); MAX_LEVEL];
        let mut succs = [std::ptr::null_mut(); MAX_LEVEL];
        let mut bo = Backoff::adaptive();
        // Level-0 linking (linearization point).
        // SAFETY: grace period for the whole operation.
        unsafe {
            loop {
                self.locate(key, &mut preds, &mut succs);
                if (*succs[0]).key == key {
                    if (*succs[0]).val.load(Ordering::Acquire) == FROZEN {
                        // Value-frozen twin: its remove has linearized but
                        // the physical unlink is still in flight. Linking a
                        // second node now would leave two reachable nodes
                        // for one key — and waiting on the remover would
                        // block, so finish its physical phase ourselves and
                        // re-locate.
                        self.help_physical_remove(succs[0]);
                        continue;
                    }
                    // SAFETY: node never published.
                    self.pool.dealloc_unpublished(node);
                    return false;
                }
                tower::next(node, 0).store(succs[0] as usize, Ordering::Relaxed);
                if tower::next(preds[0], 0)
                    .compare_exchange(
                        succs[0] as usize,
                        node as usize,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
                {
                    // post-link mark check (level 0): if succ was marked
                    // between our search and the CAS, we re-published a
                    // path to a logically-deleted node whose deleter's
                    // cleanup may already have passed. Clean it ourselves
                    // before this operation ends; QSBR keeps the victim
                    // alive until we quiesce.
                    if marked(tower::next(succs[0], 0).load(Ordering::Acquire)) {
                        self.cleanup(key);
                    }
                    break;
                }
                bo.backoff();
            }
            // Upper-level linking.
            let mut l = 1;
            while l <= top_level {
                // Abandon if our node got deleted meanwhile (its level-l
                // pointer is marked).
                let w = tower::next(node, l).load(Ordering::Acquire);
                if marked(w) {
                    self.finish_insert(node);
                    return true;
                }
                let succ = succs[l];
                // Install our forward pointer for this level; a concurrent
                // deleter may race to mark it, hence CAS.
                if tower::next(node, l)
                    .compare_exchange(w, succ as usize, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    // Only a marker can beat us; abandon.
                    self.finish_insert(node);
                    return true;
                }
                if tower::next(preds[l], l)
                    .compare_exchange(
                        succ as usize,
                        node as usize,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
                {
                    // post-link mark check (upper level): our own node may
                    // have been deleted while we linked it (late link of a
                    // dead node) — finish_insert sweeps it back out; a
                    // marked successor just gets a helping pass.
                    if marked(tower::next(node, l).load(Ordering::Acquire)) {
                        self.finish_insert(node);
                        return true;
                    }
                    if marked(tower::next(succ, l).load(Ordering::Acquire)) {
                        self.cleanup((*succ).key);
                    }
                    l += 1;
                    continue;
                }
                // Link failed: re-search and retry this level.
                bo.backoff();
                self.locate(key, &mut preds, &mut succs);
                if succs[0] != node {
                    // Our node vanished (deleted and snipped; identity
                    // check — an equal-key successor is NOT our node).
                    self.finish_insert(node);
                    return true;
                }
            }
            self.finish_insert(node);
            true
        }
    }

    fn delete(&self, key: Key) -> Option<Val> {
        assert_user_key(key);
        reclaim::quiescent();
        let mut preds = [std::ptr::null_mut(); MAX_LEVEL];
        let mut succs = [std::ptr::null_mut(); MAX_LEVEL];
        // SAFETY: grace period for the whole operation.
        unsafe {
            self.locate(key, &mut preds, &mut succs);
            if (*succs[0]).key != key {
                return None;
            }
            let victim = succs[0];
            // Claim the victim by freezing its value cell: the
            // linearization point, and the single CAS that arbitrates
            // between racing removers and in-place `put` swaps.
            let val = (*victim).val.swap(FROZEN, Ordering::AcqRel);
            if val == FROZEN {
                // Another remover owns this node (it linearized first).
                return None;
            }
            // Physical phase: mark the tower top-down (level 0 last,
            // preserving the invariant that a node observed through an
            // unmarked level-l pointer has not been unlinked below) and
            // snip every level. Writers that found the frozen cell may be
            // helping concurrently; the retirement handshake below stays
            // exclusively ours (we won the freeze).
            self.help_physical_remove(victim);
            if (*victim)
                .state
                .compare_exchange(LINKING, RETIRE_HANDOFF, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                // Inserter already done (LINK_DONE): we own reclamation.
                // SAFETY: single owner (handshake).
                self.retire_deferred(victim);
            }
            Some(val)
        }
    }

    fn len(&self) -> usize {
        reclaim::quiescent();
        // SAFETY: grace period; level-0 walk.
        unsafe {
            let mut n = 0;
            let mut cur = unmark(tower::next(self.head, 0).load(Ordering::Acquire)) as *mut Node;
            while (*cur).key != TAIL_KEY {
                if !marked(tower::next(cur, 0).load(Ordering::Acquire)) {
                    n += 1;
                }
                cur = unmark(tower::next(cur, 0).load(Ordering::Acquire)) as *mut Node;
            }
            n
        }
    }
}

impl ConcurrentMap for FraserSkipList {
    fn get(&self, key: Key) -> Option<Val> {
        ConcurrentSet::search(self, key)
    }

    /// Lock-free in-place upsert: a present key's value is replaced with a
    /// CAS loop on the value cell, which refuses `FROZEN` — so an update
    /// can never race past a remove (both linearize on the same cell). An
    /// absent (or frozen, once unlinked) key goes through the ordinary
    /// lock-free insert.
    ///
    /// # Panics
    ///
    /// Panics on `val == u64::MAX` (reserved, see `FROZEN`) — in every
    /// build profile: storing the tombstone would act as a removal.
    fn put(&self, key: Key, val: Val) -> Option<Val> {
        assert_user_key(key);
        // Hard assert (not debug): storing the tombstone would act as a
        // removal reported as an update (see `FROZEN`).
        assert!(val != FROZEN, "u64::MAX is the reserved tombstone value");
        reclaim::quiescent();
        let mut bo = Backoff::adaptive();
        loop {
            // SAFETY: grace period per attempt.
            unsafe {
                if let Some(n) = self.find_live(key) {
                    let mut cur = (*n).val.load(Ordering::Acquire);
                    loop {
                        if cur == FROZEN {
                            break;
                        }
                        match (*n).val.compare_exchange_weak(
                            cur,
                            val,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        ) {
                            Ok(prev) => return Some(prev),
                            Err(now) => cur = now,
                        }
                    }
                    // Frozen: the binding was removed but the node is not
                    // yet snipped. Help the remover's physical phase (never
                    // wait on its progress), then insert fresh.
                    self.help_physical_remove(n);
                    continue;
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

impl OrderedMap for FraserSkipList {
    /// Lock-free level-0 walk in a single forward pass. Each node is
    /// decided from two atomic reads — its level-0 word (marked =
    /// unlinked) and its value cell (frozen = removed) — and a monotonic
    /// floor keeps the output sorted and duplicate-free even if a stale
    /// snipped detour briefly runs the walk through older-era nodes. No
    /// lock fallback exists or is needed: nothing here ever blocks, and
    /// under a writer-excluding lock (the kv store's shard fallback) the
    /// chain is clean and the pass is exact.
    fn range(&self, lo: Key, hi: Key, f: &mut dyn FnMut(Key, Val)) {
        let hi = clamp_hi(hi);
        reclaim::quiescent();
        let mut from = lo.max(HEAD_KEY + 1);
        if from > hi {
            return;
        }
        // SAFETY: grace period for the whole pass.
        unsafe {
            // Read-only descent (upper levels) to a predecessor of `from`.
            let mut pred = self.head;
            for l in (1..MAX_LEVEL).rev() {
                let mut cur = unmark(tower::next(pred, l).load(Ordering::Acquire)) as *mut Node;
                loop {
                    let cur_w = tower::next(cur, l).load(Ordering::Acquire);
                    if marked(cur_w) {
                        cur = unmark(cur_w) as *mut Node;
                        continue;
                    }
                    if (*cur).key < from {
                        pred = cur;
                        cur = unmark(cur_w) as *mut Node;
                        continue;
                    }
                    break;
                }
            }
            // Level-0 walk.
            let mut cur = unmark(tower::next(pred, 0).load(Ordering::Acquire)) as *mut Node;
            loop {
                let key = (*cur).key;
                if key > hi {
                    return;
                }
                let w = tower::next(cur, 0).load(Ordering::Acquire);
                if marked(w) {
                    // Unlinked (or mid-unlink): skip without deciding.
                    cur = unmark(w) as *mut Node;
                    continue;
                }
                if key >= from {
                    let v = (*cur).val.load(Ordering::Acquire);
                    if v != FROZEN {
                        f(key, v);
                    }
                    from = key + 1;
                }
                cur = unmark(w) as *mut Node;
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
        let s = FraserSkipList::new();
        assert!(s.insert(10, 100));
        assert!(s.insert(5, 50));
        assert!(!s.insert(10, 999));
        assert_eq!(s.search(5), Some(50));
        assert_eq!(s.delete(10), Some(100));
        assert_eq!(s.delete(10), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn exactly_one_delete_wins() {
        let s = Arc::new(FraserSkipList::new());
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
    fn insert_delete_hammer_on_few_keys() {
        let s = Arc::new(FraserSkipList::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let mut net = 0i64;
                let mut x = t.wrapping_mul(0x2545F4914F6CDD1D) | 1;
                for _ in 0..synchro::stress::ops(15_000) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = x % 8 + 1; // extremely hot
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
}
