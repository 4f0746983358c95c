//! A small linearizability checker for bounded concurrent histories.
//!
//! The concurrent structures in this workspace claim linearizability (§2 of
//! the paper). Full-history checking is NP-hard, but for the bounded
//! histories our stress tiers produce a Wing–Gong style search decides
//! quickly, as long as the sequential specification has a small state:
//!
//! - [`SetSpec`] — operations on a *single key* collapse the set spec to a
//!   two-state machine (`absent`/`present`);
//! - [`FifoSpec`] — queue histories with distinct values; the state is the
//!   queue content;
//! - [`LifoSpec`] — the stack analogue;
//! - [`MapSpec`] / [`TtlMapSpec`] — value-carrying single-key map
//!   histories, the TTL variant additionally replaying fake-clock
//!   advances so expiry is an ordered event in the history;
//! - [`RangeMapSpec`] — a small multi-key machine whose `Range` op must
//!   observe a single point in time.
//!
//! Record operations with [`HistoryRecorder`] (one per thread, merged
//! afterwards) and decide with [`check`]. The single-key set entry points
//! ([`Recorder`], [`check_history`]) predate the generic checker and remain
//! as thin wrappers.

use std::collections::HashSet;
use std::hash::Hash;

/// A sequential specification: a deterministic state machine whose
/// transitions decide which outcome-annotated operations are legal.
pub trait SeqSpec {
    /// Outcome-annotated operation type.
    type Op: Copy;
    /// Machine state. Kept small — the checker memoizes on it.
    type State: Clone + Eq + Hash;
    /// Initial state.
    fn initial(&self) -> Self::State;
    /// Applies `op` to `state`: the successor state, or `None` if the
    /// recorded outcome is impossible in that state.
    fn apply(&self, state: &Self::State, op: Self::Op) -> Option<Self::State>;
}

/// One timed operation: invocation and response instants from a shared
/// monotonic clock, plus the observed outcome.
#[derive(Debug, Clone, Copy)]
pub struct Timed<O> {
    /// Invocation timestamp.
    pub invoke: u64,
    /// Response timestamp (`>= invoke`).
    pub response: u64,
    /// The operation and its outcome.
    pub op: O,
}

/// Per-thread recorder producing [`Timed`] operations from the shared
/// cycle counter.
#[derive(Debug)]
pub struct HistoryRecorder<O> {
    ops: Vec<Timed<O>>,
}

impl<O> Default for HistoryRecorder<O> {
    fn default() -> Self {
        Self { ops: Vec::new() }
    }
}

impl<O> HistoryRecorder<O> {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Times `f` with [`synchro::cycles::now_ordered`] and records `to_op`
    /// of its outcome. The ordered read matters: the checker derives
    /// real-time precedence from these stamps, so `invoke` must not be
    /// taken after `f`'s first load nor `response` before its last store
    /// is visible — a bare `rdtsc` guarantees neither.
    pub fn record<R>(&mut self, f: impl FnOnce() -> R, to_op: impl FnOnce(R) -> O) {
        let invoke = synchro::cycles::now_ordered();
        let outcome = f();
        let response = synchro::cycles::now_ordered();
        self.ops.push(Timed {
            invoke,
            response,
            op: to_op(outcome),
        });
    }

    /// Consumes the recorder.
    pub fn into_ops(self) -> Vec<Timed<O>> {
        self.ops
    }
}

/// Decides whether `history` (ops from all threads, any order) is
/// linearizable against `spec`.
///
/// Returns `true` iff some permutation of the operations (a) respects the
/// real-time partial order (an op that responded before another was
/// invoked must precede it) and (b) is legal for the specification.
///
/// # Panics
///
/// Panics on histories longer than 64 operations (the search carries `u64`
/// done-masks); split longer histories into windows at the caller.
pub fn check<S: SeqSpec>(spec: &S, history: &[Timed<S::Op>]) -> bool {
    let n = history.len();
    if n == 0 {
        return true;
    }
    assert!(n <= 64, "check supports up to 64 operations, got {n}");
    let mut seen: HashSet<(u64, S::State)> = HashSet::new();
    dfs(spec, history, 0, spec.initial(), &mut seen)
}

fn dfs<S: SeqSpec>(
    spec: &S,
    ops: &[Timed<S::Op>],
    done: u64,
    state: S::State,
    seen: &mut HashSet<(u64, S::State)>,
) -> bool {
    if done.count_ones() as usize == ops.len() {
        return true;
    }
    if !seen.insert((done, state.clone())) {
        return false; // already proven a dead end
    }
    // An op may linearize next iff no *other* pending op responded before
    // it was invoked (real-time order) — i.e. it is minimal among pending.
    let min_response = ops
        .iter()
        .enumerate()
        .filter(|(i, _)| done & (1 << i) == 0)
        .map(|(_, o)| o.response)
        .min()
        .expect("pending op exists");
    for (i, o) in ops.iter().enumerate() {
        if done & (1 << i) != 0 || o.invoke > min_response {
            continue;
        }
        if let Some(next) = spec.apply(&state, o.op) {
            if dfs(spec, ops, done | (1 << i), next, seen) {
                return true;
            }
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Single-key set specification (the original checker).
// ---------------------------------------------------------------------------

/// Outcome-annotated operation on one key of a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    /// `insert` returning whether it inserted.
    Insert(bool),
    /// `delete` returning whether it removed.
    Delete(bool),
    /// `search` returning whether it found the key.
    Search(bool),
}

/// The two-state single-key set machine (`absent` ↔ `present`).
#[derive(Debug, Clone, Copy)]
pub struct SetSpec {
    /// Whether the key is present before the history starts.
    pub initially_present: bool,
}

impl SeqSpec for SetSpec {
    type Op = SetOp;
    type State = bool;

    fn initial(&self) -> bool {
        self.initially_present
    }

    fn apply(&self, &present: &bool, op: SetOp) -> Option<bool> {
        match op {
            SetOp::Insert(true) => (!present).then_some(true),
            SetOp::Insert(false) => present.then_some(true),
            SetOp::Delete(true) => present.then_some(false),
            SetOp::Delete(false) => (!present).then_some(false),
            SetOp::Search(found) => (found == present).then_some(present),
        }
    }
}

/// A timed single-key set operation (alias kept for the original API).
pub type TimedOp = Timed<SetOp>;

/// Per-thread recorder for single-key set histories.
#[derive(Debug, Default)]
pub struct Recorder {
    inner: HistoryRecorder<SetOp>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Times `f` with [`synchro::cycles::now_ordered`] and records its
    /// outcome.
    pub fn record(&mut self, make_op: impl FnOnce(bool) -> SetOp, f: impl FnOnce() -> bool) {
        self.inner.record(f, make_op);
    }

    /// Consumes the recorder.
    pub fn into_ops(self) -> Vec<TimedOp> {
        self.inner.into_ops()
    }
}

/// Decides whether a single-key set history is linearizable starting from
/// `initially_present`. See [`check`].
///
/// # Panics
///
/// Panics on histories longer than 64 operations.
pub fn check_history(history: &[TimedOp], initially_present: bool) -> bool {
    if history.len() > 64 {
        // Preserve the original error text relied upon by callers/tests.
        panic!(
            "check_history supports up to 64 operations, got {}",
            history.len()
        );
    }
    check(&SetSpec { initially_present }, history)
}

// ---------------------------------------------------------------------------
// Queue (FIFO) and stack (LIFO) specifications.
// ---------------------------------------------------------------------------

/// Outcome-annotated queue operation. Use distinct enqueue values within a
/// history — duplicates blow up the search space without adding coverage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueOp {
    /// `enqueue(v)` (always succeeds).
    Enqueue(u64),
    /// `dequeue()` returning the dequeued element, or `None` when empty.
    Dequeue(Option<u64>),
}

/// FIFO queue specification: the state is the queue content (front first).
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoSpec;

impl SeqSpec for FifoSpec {
    type Op = QueueOp;
    type State = Vec<u64>;

    fn initial(&self) -> Vec<u64> {
        Vec::new()
    }

    fn apply(&self, state: &Vec<u64>, op: QueueOp) -> Option<Vec<u64>> {
        match op {
            QueueOp::Enqueue(v) => {
                let mut s = state.clone();
                s.push(v);
                Some(s)
            }
            QueueOp::Dequeue(None) => state.is_empty().then(Vec::new),
            QueueOp::Dequeue(Some(v)) => {
                if state.first() == Some(&v) {
                    Some(state[1..].to_vec())
                } else {
                    None
                }
            }
        }
    }
}

/// Outcome-annotated stack operation (distinct push values, as for
/// [`QueueOp`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackOp {
    /// `push(v)` (always succeeds).
    Push(u64),
    /// `pop()` returning the popped element, or `None` when empty.
    Pop(Option<u64>),
}

/// LIFO stack specification: the state is the stack content (bottom first).
#[derive(Debug, Clone, Copy, Default)]
pub struct LifoSpec;

impl SeqSpec for LifoSpec {
    type Op = StackOp;
    type State = Vec<u64>;

    fn initial(&self) -> Vec<u64> {
        Vec::new()
    }

    fn apply(&self, state: &Vec<u64>, op: StackOp) -> Option<Vec<u64>> {
        match op {
            StackOp::Push(v) => {
                let mut s = state.clone();
                s.push(v);
                Some(s)
            }
            StackOp::Pop(None) => state.is_empty().then(Vec::new),
            StackOp::Pop(Some(v)) => {
                if state.last() == Some(&v) {
                    Some(state[..state.len() - 1].to_vec())
                } else {
                    None
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Single-key map (upsert) specification.
// ---------------------------------------------------------------------------

/// Outcome-annotated operation on one key of a map
/// ([`crate::api::ConcurrentMap`] semantics). Unlike [`SetOp`], outcomes
/// carry the observed *values*, so the checker catches torn reads and lost
/// updates, not just presence errors. Use distinct put values within a
/// history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapOp {
    /// `get` returning the observed value (`None` = absent).
    Get(Option<u64>),
    /// `put(new)` returning the previous value (`None` = fresh insert).
    Put(u64, Option<u64>),
    /// `remove` returning the removed value (`None` = absent).
    Remove(Option<u64>),
}

/// The single-key map machine: the state is the key's current binding.
#[derive(Debug, Clone, Copy, Default)]
pub struct MapSpec {
    /// The key's binding before the history starts (`None` = absent).
    pub initial: Option<u64>,
}

impl SeqSpec for MapSpec {
    type Op = MapOp;
    type State = Option<u64>;

    fn initial(&self) -> Option<u64> {
        self.initial
    }

    fn apply(&self, &state: &Option<u64>, op: MapOp) -> Option<Option<u64>> {
        match op {
            MapOp::Get(seen) => (seen == state).then_some(state),
            MapOp::Put(new, prev) => (prev == state).then_some(Some(new)),
            MapOp::Remove(removed) => (removed == state).then_some(None),
        }
    }
}

// ---------------------------------------------------------------------------
// TTL-aware single-key map specification.
// ---------------------------------------------------------------------------

/// Outcome-annotated operation on one key of a **TTL-enabled** map driven
/// by a fake clock. Extends [`MapOp`] with TTL arming and explicit clock
/// advances: the recording test advances the shared fake clock through a
/// recorded [`TtlOp::Advance`], so expiry becomes an event *in the
/// history* the checker can order against reads and writes.
///
/// TTLs are recorded **relative**: the checker derives the deadline from
/// the machine's `now` at the operation's linearization point — exactly
/// what the store does when it reads its clock inside the operation.
/// Use distinct put values within a history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TtlOp {
    /// The fake clock advanced to the absolute tick `t` (monotone).
    Advance(u64),
    /// `get` returning the observed live value (`None` = absent or
    /// expired).
    Get(Option<u64>),
    /// `put(new)` returning the previous live value; clears any deadline.
    Put(u64, Option<u64>),
    /// `put_with_ttl(new, ttl)` returning the previous live value; arms
    /// `deadline = now + ttl`.
    PutTtl(u64, u64, Option<u64>),
    /// `expire_after(ttl)` returning whether a live entry was found;
    /// re-arms `deadline = now + ttl` when it was.
    ExpireAfter(u64, bool),
    /// `remove` returning the removed live value.
    Remove(Option<u64>),
}

/// The TTL-aware single-key map machine: the state is the key's current
/// binding with its optional deadline, plus the clock. A binding whose
/// deadline has passed is invisible to (and normalized away by) every
/// operation — so a `Get(Some(_))` strictly after the clock passed the
/// binding's deadline cannot linearize, and neither can a `Put` that
/// claims an expired previous value.
#[derive(Debug, Clone, Copy, Default)]
pub struct TtlMapSpec {
    /// The key's binding before the history starts.
    pub initial: Option<u64>,
}

/// [`TtlMapSpec`] state: `(now, Some((value, deadline)))` with
/// `deadline == u64::MAX` meaning "never expires".
pub type TtlState = (u64, Option<(u64, u64)>);

impl SeqSpec for TtlMapSpec {
    type Op = TtlOp;
    type State = TtlState;

    fn initial(&self) -> TtlState {
        (0, self.initial.map(|v| (v, u64::MAX)))
    }

    fn apply(&self, state: &TtlState, op: TtlOp) -> Option<TtlState> {
        let (now, binding) = *state;
        // Expiry is by-need: normalize the expired binding away before
        // deciding the operation (deadline == now is already expired —
        // entries live while `now < deadline`).
        let live = binding.filter(|&(_, d)| d > now);
        match op {
            TtlOp::Advance(t) => (t >= now).then_some((t, live)),
            TtlOp::Get(seen) => (seen == live.map(|(v, _)| v)).then_some((now, live)),
            TtlOp::Put(new, prev) => {
                (prev == live.map(|(v, _)| v)).then_some((now, Some((new, u64::MAX))))
            }
            TtlOp::PutTtl(new, ttl, prev) => {
                (prev == live.map(|(v, _)| v)).then(|| (now, Some((new, now.saturating_add(ttl)))))
            }
            TtlOp::ExpireAfter(ttl, found) => {
                if found != live.is_some() {
                    return None;
                }
                let rearmed = live.map(|(v, _)| (v, now.saturating_add(ttl)));
                Some((now, rearmed))
            }
            TtlOp::Remove(taken) => (taken == live.map(|(v, _)| v)).then_some((now, None)),
        }
    }
}

// ---------------------------------------------------------------------------
// Range-observing multi-key map specification.
// ---------------------------------------------------------------------------

/// Number of tracked keys in a [`RangeMapSpec`] history. Three keys keep
/// the state space tiny while still letting a non-atomic range tear
/// *between* keys (the failure single-key specs cannot express).
pub const RANGE_KEYS: usize = 3;

/// Outcome-annotated operation over [`RANGE_KEYS`] tracked keys of an
/// ordered map. Writes address keys by index into the tracked set; a
/// `Range` op reports the values it observed for all tracked keys in one
/// traversal (`None` = key absent). Use distinct put values within a
/// history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeOp {
    /// `put(keys[i], new)` returning the previous value.
    Put(usize, u64, Option<u64>),
    /// `remove(keys[i])` returning the removed value.
    Remove(usize, Option<u64>),
    /// `get(keys[i])` returning the observed value.
    Get(usize, Option<u64>),
    /// One batch upsert, applied at one point: per tracked key, `None`
    /// (not in the batch) or `Some((new, prev))`.
    MultiPut([Option<(u64, Option<u64>)>; RANGE_KEYS]),
    /// One batch removal, applied at one point: per tracked key, `None`
    /// (not in the batch) or `Some(removed)`.
    MultiRemove([Option<Option<u64>>; RANGE_KEYS]),
    /// One `range` traversal covering all tracked keys: the observed
    /// binding per tracked key, in key order.
    Range([Option<u64>; RANGE_KEYS]),
}

/// The multi-key map machine behind [`RangeOp`]: the state is the binding
/// of each tracked key. A `Range` outcome is legal only when *all* tracked
/// bindings match at a single point — exactly the snapshot property a
/// validated range scan claims.
#[derive(Debug, Clone, Copy, Default)]
pub struct RangeMapSpec {
    /// Bindings before the history starts.
    pub initial: [Option<u64>; RANGE_KEYS],
}

impl SeqSpec for RangeMapSpec {
    type Op = RangeOp;
    type State = [Option<u64>; RANGE_KEYS];

    fn initial(&self) -> Self::State {
        self.initial
    }

    fn apply(&self, state: &Self::State, op: RangeOp) -> Option<Self::State> {
        match op {
            RangeOp::Put(i, new, prev) => (state[i] == prev).then(|| {
                let mut s = *state;
                s[i] = Some(new);
                s
            }),
            RangeOp::Remove(i, removed) => (state[i] == removed).then(|| {
                let mut s = *state;
                s[i] = None;
                s
            }),
            RangeOp::Get(i, seen) => (state[i] == seen).then_some(*state),
            RangeOp::MultiPut(batch) => {
                let mut s = *state;
                for (slot, put) in s.iter_mut().zip(batch) {
                    if let Some((new, prev)) = put {
                        if *slot != prev {
                            return None;
                        }
                        *slot = Some(new);
                    }
                }
                Some(s)
            }
            RangeOp::MultiRemove(batch) => {
                let mut s = *state;
                for (slot, removed) in s.iter_mut().zip(batch) {
                    if let Some(removed) = removed {
                        if *slot != removed {
                            return None;
                        }
                        *slot = None;
                    }
                }
                Some(s)
            }
            RangeOp::Range(seen) => (seen == *state).then_some(*state),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(invoke: u64, response: u64, op: SetOp) -> TimedOp {
        TimedOp {
            invoke,
            response,
            op,
        }
    }

    #[test]
    fn sequential_legal_history_passes() {
        let h = [
            op(0, 1, SetOp::Insert(true)),
            op(2, 3, SetOp::Search(true)),
            op(4, 5, SetOp::Delete(true)),
            op(6, 7, SetOp::Search(false)),
        ];
        assert!(check_history(&h, false));
    }

    #[test]
    fn sequential_illegal_history_fails() {
        // Search finds the key before any insert completes — and no insert
        // is even concurrent.
        let h = [op(0, 1, SetOp::Search(true)), op(2, 3, SetOp::Insert(true))];
        assert!(!check_history(&h, false));
    }

    #[test]
    fn concurrent_ops_may_reorder() {
        // Search overlaps the insert: finding the key is fine (insert
        // linearizes first).
        let h = [
            op(0, 10, SetOp::Insert(true)),
            op(1, 9, SetOp::Search(true)),
        ];
        assert!(check_history(&h, false));
        // But a search strictly AFTER a successful insert must find it.
        let h = [
            op(0, 1, SetOp::Insert(true)),
            op(2, 3, SetOp::Search(false)),
        ];
        assert!(!check_history(&h, false));
    }

    #[test]
    fn double_successful_delete_is_not_linearizable() {
        // One insert, two successful deletes, no second insert.
        let h = [
            op(0, 1, SetOp::Insert(true)),
            op(2, 10, SetOp::Delete(true)),
            op(3, 9, SetOp::Delete(true)),
        ];
        assert!(!check_history(&h, false));
    }

    #[test]
    fn racing_inserts_one_winner_is_linearizable() {
        let h = [
            op(0, 10, SetOp::Insert(true)),
            op(1, 9, SetOp::Insert(false)),
            op(11, 12, SetOp::Search(true)),
        ];
        assert!(check_history(&h, false));
        // Two winners cannot linearize.
        let h = [
            op(0, 10, SetOp::Insert(true)),
            op(1, 9, SetOp::Insert(true)),
        ];
        assert!(!check_history(&h, false));
    }

    #[test]
    fn initial_state_matters() {
        let h = [op(0, 1, SetOp::Delete(true))];
        assert!(check_history(&h, true));
        assert!(!check_history(&h, false));
    }

    #[test]
    fn real_structure_history_is_linearizable() {
        // Drive a real OPTIK-protected history on one key from several
        // threads and check it. Uses the recorder + a shared structure via
        // dynamic dispatch kept small so the checker stays in its budget.
        use std::sync::{Arc, Barrier, Mutex};

        // A tiny single-key "set" implemented with an OptikCell-like CAS on
        // presence — stand-in here to keep the harness crate dependency-free
        // (the data-structure crates run the same pattern in their
        // integration tests).
        let present = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let all = Arc::new(Mutex::new(Vec::new()));
        let barrier = Arc::new(Barrier::new(4));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let present = Arc::clone(&present);
            let all = Arc::clone(&all);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let mut rec = Recorder::new();
                barrier.wait();
                for i in 0..12u64 {
                    match (t + i) % 3 {
                        0 => rec.record(SetOp::Insert, || {
                            !present.swap(true, std::sync::atomic::Ordering::SeqCst)
                        }),
                        1 => rec.record(SetOp::Delete, || {
                            present.swap(false, std::sync::atomic::Ordering::SeqCst)
                        }),
                        _ => rec.record(SetOp::Search, || {
                            present.load(std::sync::atomic::Ordering::SeqCst)
                        }),
                    }
                }
                all.lock().unwrap().extend(rec.into_ops());
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let history = all.lock().unwrap().clone();
        assert_eq!(history.len(), 48);
        assert!(
            check_history(&history, false),
            "atomic-swap set produced a non-linearizable history?!"
        );
    }

    #[test]
    #[should_panic(expected = "up to 64 operations")]
    fn oversized_history_panics() {
        let h: Vec<TimedOp> = (0..65)
            .map(|i| op(i, i + 1, SetOp::Search(false)))
            .collect();
        let _ = check_history(&h, false);
    }

    fn qop(invoke: u64, response: u64, op: QueueOp) -> Timed<QueueOp> {
        Timed {
            invoke,
            response,
            op,
        }
    }

    #[test]
    fn fifo_sequential_order_is_enforced() {
        // enqueue 1, enqueue 2 → dequeues must yield 1 then 2.
        let legal = [
            qop(0, 1, QueueOp::Enqueue(1)),
            qop(2, 3, QueueOp::Enqueue(2)),
            qop(4, 5, QueueOp::Dequeue(Some(1))),
            qop(6, 7, QueueOp::Dequeue(Some(2))),
            qop(8, 9, QueueOp::Dequeue(None)),
        ];
        assert!(check(&FifoSpec, &legal));
        let illegal = [
            qop(0, 1, QueueOp::Enqueue(1)),
            qop(2, 3, QueueOp::Enqueue(2)),
            qop(4, 5, QueueOp::Dequeue(Some(2))), // LIFO order: not a queue
        ];
        assert!(!check(&FifoSpec, &illegal));
    }

    #[test]
    fn fifo_concurrent_enqueues_allow_either_order() {
        let h = [
            qop(0, 10, QueueOp::Enqueue(1)),
            qop(1, 9, QueueOp::Enqueue(2)),
            qop(11, 12, QueueOp::Dequeue(Some(2))),
            qop(13, 14, QueueOp::Dequeue(Some(1))),
        ];
        assert!(check(&FifoSpec, &h), "2 before 1 is a legal linearization");
        // But once both enqueues precede it, a dequeue cannot skip.
        let h = [
            qop(0, 1, QueueOp::Enqueue(1)),
            qop(2, 3, QueueOp::Enqueue(2)),
            qop(4, 5, QueueOp::Dequeue(Some(2))),
            qop(6, 7, QueueOp::Dequeue(Some(1))),
        ];
        assert!(!check(&FifoSpec, &h));
    }

    #[test]
    fn fifo_lost_and_duplicated_elements_fail() {
        // Dequeue of a value never enqueued.
        let h = [qop(0, 1, QueueOp::Dequeue(Some(7)))];
        assert!(!check(&FifoSpec, &h));
        // Same element dequeued twice.
        let h = [
            qop(0, 1, QueueOp::Enqueue(1)),
            qop(2, 3, QueueOp::Dequeue(Some(1))),
            qop(4, 5, QueueOp::Dequeue(Some(1))),
        ];
        assert!(!check(&FifoSpec, &h));
        // Empty dequeue while the queue must be non-empty.
        let h = [
            qop(0, 1, QueueOp::Enqueue(1)),
            qop(2, 3, QueueOp::Dequeue(None)),
        ];
        assert!(!check(&FifoSpec, &h));
    }

    fn sop(invoke: u64, response: u64, op: StackOp) -> Timed<StackOp> {
        Timed {
            invoke,
            response,
            op,
        }
    }

    #[test]
    fn lifo_spec_mirrors_fifo() {
        let legal = [
            sop(0, 1, StackOp::Push(1)),
            sop(2, 3, StackOp::Push(2)),
            sop(4, 5, StackOp::Pop(Some(2))),
            sop(6, 7, StackOp::Pop(Some(1))),
            sop(8, 9, StackOp::Pop(None)),
        ];
        assert!(check(&LifoSpec, &legal));
        let illegal = [
            sop(0, 1, StackOp::Push(1)),
            sop(2, 3, StackOp::Push(2)),
            sop(4, 5, StackOp::Pop(Some(1))), // FIFO order: not a stack
        ];
        assert!(!check(&LifoSpec, &illegal));
    }

    #[test]
    fn empty_history_is_trivially_linearizable() {
        assert!(check(&FifoSpec, &[]));
        assert!(check(&LifoSpec, &[]));
        assert!(check_history(&[], false));
        assert!(check(&MapSpec::default(), &[]));
    }

    fn mop(invoke: u64, response: u64, op: MapOp) -> Timed<MapOp> {
        Timed {
            invoke,
            response,
            op,
        }
    }

    #[test]
    fn map_sequential_upsert_chain() {
        let h = [
            mop(0, 1, MapOp::Put(10, None)),
            mop(2, 3, MapOp::Get(Some(10))),
            mop(4, 5, MapOp::Put(20, Some(10))),
            mop(6, 7, MapOp::Remove(Some(20))),
            mop(8, 9, MapOp::Get(None)),
        ];
        assert!(check(&MapSpec::default(), &h));
    }

    #[test]
    fn map_value_mixing_is_rejected() {
        // A get that observes a value no put ever bound is illegal even
        // though the key's *presence* is plausible — this is exactly what
        // SetSpec cannot see.
        let h = [
            mop(0, 1, MapOp::Put(10, None)),
            mop(2, 3, MapOp::Get(Some(99))),
        ];
        assert!(!check(&MapSpec::default(), &h));
        // Likewise a put reporting a stale previous value.
        let h = [
            mop(0, 1, MapOp::Put(10, None)),
            mop(2, 3, MapOp::Put(20, Some(10))),
            mop(4, 5, MapOp::Put(30, Some(10))),
        ];
        assert!(!check(&MapSpec::default(), &h));
    }

    #[test]
    fn map_put_has_no_absent_window() {
        // After put(10) succeeded and before any remove, a get strictly
        // later must not miss — a delete+insert "upsert" would fail here.
        let h = [
            mop(0, 1, MapOp::Put(10, None)),
            mop(2, 3, MapOp::Put(20, Some(10))),
            mop(4, 5, MapOp::Get(None)),
        ];
        assert!(!check(&MapSpec::default(), &h));
    }

    #[test]
    fn map_concurrent_puts_resolve_by_reported_prev() {
        // Two overlapping puts: legal iff one observed the other.
        let h = [
            mop(0, 10, MapOp::Put(1, None)),
            mop(1, 9, MapOp::Put(2, Some(1))),
            mop(11, 12, MapOp::Get(Some(2))),
        ];
        assert!(check(&MapSpec::default(), &h));
        // Both claiming a fresh insert cannot linearize.
        let h = [
            mop(0, 10, MapOp::Put(1, None)),
            mop(1, 9, MapOp::Put(2, None)),
            mop(11, 12, MapOp::Get(Some(2))),
        ];
        assert!(!check(&MapSpec::default(), &h));
    }

    #[test]
    fn map_initial_binding_matters() {
        let h = [mop(0, 1, MapOp::Remove(Some(7)))];
        assert!(check(&MapSpec { initial: Some(7) }, &h));
        assert!(!check(&MapSpec::default(), &h));
    }

    fn top(invoke: u64, response: u64, op: TtlOp) -> Timed<TtlOp> {
        Timed {
            invoke,
            response,
            op,
        }
    }

    #[test]
    fn ttl_sequential_expiry_chain() {
        let h = [
            top(0, 1, TtlOp::PutTtl(10, 5, None)),
            top(2, 3, TtlOp::Get(Some(10))),
            top(4, 5, TtlOp::Advance(4)),
            top(6, 7, TtlOp::Get(Some(10))),
            top(8, 9, TtlOp::Advance(5)),
            top(10, 11, TtlOp::Get(None)),     // deadline tick: expired
            top(12, 13, TtlOp::Put(20, None)), // expired prev is invisible
            top(14, 15, TtlOp::Advance(1_000)),
            top(16, 17, TtlOp::Get(Some(20))), // plain puts never expire
        ];
        assert!(check(&TtlMapSpec::default(), &h));
    }

    #[test]
    fn ttl_get_after_expiry_is_rejected() {
        let h = [
            top(0, 1, TtlOp::PutTtl(10, 5, None)),
            top(2, 3, TtlOp::Advance(9)),
            top(4, 5, TtlOp::Get(Some(10))),
        ];
        assert!(
            !check(&TtlMapSpec::default(), &h),
            "a strictly-later get must not see an expired binding"
        );
        // …but a get *concurrent* with the advance may order before it.
        let h = [
            top(0, 1, TtlOp::PutTtl(10, 5, None)),
            top(2, 10, TtlOp::Advance(9)),
            top(3, 9, TtlOp::Get(Some(10))),
        ];
        assert!(check(&TtlMapSpec::default(), &h));
    }

    #[test]
    fn ttl_expired_prev_values_are_invisible() {
        // A put observing the expired binding as its prev cannot linearize.
        let h = [
            top(0, 1, TtlOp::PutTtl(10, 5, None)),
            top(2, 3, TtlOp::Advance(7)),
            top(4, 5, TtlOp::Put(20, Some(10))),
        ];
        assert!(!check(&TtlMapSpec::default(), &h));
        // Neither can a successful remove of an expired binding.
        let h = [
            top(0, 1, TtlOp::PutTtl(10, 5, None)),
            top(2, 3, TtlOp::Advance(7)),
            top(4, 5, TtlOp::Remove(Some(10))),
        ];
        assert!(!check(&TtlMapSpec::default(), &h));
    }

    #[test]
    fn ttl_expire_after_rearms() {
        let h = [
            top(0, 1, TtlOp::Put(10, None)),
            top(2, 3, TtlOp::ExpireAfter(5, true)),
            top(4, 5, TtlOp::Advance(4)),
            top(6, 7, TtlOp::ExpireAfter(5, true)), // re-arm to 9
            top(8, 9, TtlOp::Advance(8)),
            top(10, 11, TtlOp::Get(Some(10))),
            top(12, 13, TtlOp::Advance(9)),
            top(14, 15, TtlOp::Get(None)),
            top(16, 17, TtlOp::ExpireAfter(5, false)), // nothing live to arm
        ];
        assert!(check(&TtlMapSpec::default(), &h));
        // Claiming found=true on an expired binding is illegal.
        let h = [
            top(0, 1, TtlOp::PutTtl(10, 3, None)),
            top(2, 3, TtlOp::Advance(3)),
            top(4, 5, TtlOp::ExpireAfter(5, true)),
        ];
        assert!(!check(&TtlMapSpec::default(), &h));
    }

    #[test]
    fn ttl_clock_never_rewinds() {
        let h = [top(0, 1, TtlOp::Advance(10)), top(2, 3, TtlOp::Advance(4))];
        assert!(!check(&TtlMapSpec::default(), &h));
    }

    #[test]
    fn ttl_initial_binding_never_expires_by_itself() {
        let spec = TtlMapSpec { initial: Some(7) };
        let h = [
            top(0, 1, TtlOp::Advance(1_000)),
            top(2, 3, TtlOp::Get(Some(7))),
            top(4, 5, TtlOp::Remove(Some(7))),
        ];
        assert!(check(&spec, &h));
    }

    fn rop(invoke: u64, response: u64, op: RangeOp) -> Timed<RangeOp> {
        Timed {
            invoke,
            response,
            op,
        }
    }

    #[test]
    fn range_sequential_snapshot_chain() {
        let h = [
            rop(0, 1, RangeOp::Put(0, 10, None)),
            rop(2, 3, RangeOp::Put(2, 30, None)),
            rop(4, 5, RangeOp::Range([Some(10), None, Some(30)])),
            rop(6, 7, RangeOp::Remove(0, Some(10))),
            rop(8, 9, RangeOp::Range([None, None, Some(30)])),
        ];
        assert!(check(&RangeMapSpec::default(), &h));
    }

    #[test]
    fn torn_range_is_rejected() {
        // Both puts strictly precede the range; a range that sees the
        // second write but not the first observed no single point in time.
        let h = [
            rop(0, 1, RangeOp::Put(0, 10, None)),
            rop(2, 3, RangeOp::Put(1, 20, None)),
            rop(4, 5, RangeOp::Range([None, Some(20), None])),
        ];
        assert!(!check(&RangeMapSpec::default(), &h));
    }

    #[test]
    fn concurrent_range_may_order_either_side_of_a_write() {
        let h = [
            rop(0, 10, RangeOp::Put(1, 20, None)),
            rop(1, 9, RangeOp::Range([None, None, None])),
        ];
        assert!(check(&RangeMapSpec::default(), &h), "range before the put");
        let h = [
            rop(0, 10, RangeOp::Put(1, 20, None)),
            rop(1, 9, RangeOp::Range([None, Some(20), None])),
        ];
        assert!(check(&RangeMapSpec::default(), &h), "range after the put");
    }

    #[test]
    fn range_must_not_split_a_batch_put() {
        // The batch binds keys 0 and 1 at one point; no range can sit
        // between its two halves, however the windows overlap.
        let batch = RangeOp::MultiPut([Some((10, None)), Some((20, None)), None]);
        for (seen, legal) in [
            ([None, None, None], true),
            ([Some(10), Some(20), None], true),
            ([Some(10), None, None], false),
            ([None, Some(20), None], false),
        ] {
            let h = [rop(0, 10, batch), rop(1, 9, RangeOp::Range(seen))];
            assert_eq!(check(&RangeMapSpec::default(), &h), legal, "{seen:?}");
        }
        // A batch whose reported previous values never coexisted is itself
        // illegal.
        let h = [
            rop(0, 1, RangeOp::Put(0, 5, None)),
            rop(2, 3, RangeOp::MultiPut([Some((10, None)), None, None])),
        ];
        assert!(!check(&RangeMapSpec::default(), &h));
    }

    #[test]
    fn range_must_not_split_a_batch_remove() {
        let spec = RangeMapSpec {
            initial: [Some(1), Some(2), None],
        };
        let batch = RangeOp::MultiRemove([Some(Some(1)), Some(Some(2)), Some(None)]);
        for (seen, legal) in [
            ([Some(1), Some(2), None], true),
            ([None, None, None], true),
            ([None, Some(2), None], false),
            ([Some(1), None, None], false),
        ] {
            let h = [rop(0, 10, batch), rop(1, 9, RangeOp::Range(seen))];
            assert_eq!(check(&spec, &h), legal, "{seen:?}");
        }
        // A removal of what was never bound is illegal.
        let h = [rop(0, 1, RangeOp::MultiRemove([None, None, Some(Some(3))]))];
        assert!(!check(&spec, &h));
    }

    #[test]
    fn range_initial_bindings_matter() {
        let h = [rop(0, 1, RangeOp::Range([None, Some(5), None]))];
        let spec = RangeMapSpec {
            initial: [None, Some(5), None],
        };
        assert!(check(&spec, &h));
        assert!(!check(&RangeMapSpec::default(), &h));
    }
}
