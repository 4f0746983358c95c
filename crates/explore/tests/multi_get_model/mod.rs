//! One `multi_get` over two shards against single-key writers and a batch
//! writer, shared by `explore_kv.rs` (the exhaustive family) and
//! `explore_replays.rs` (the pinned repair-round schedule).
//!
//! The store is a 2-partition `KvStore` over `OptikSkipList2`: key [`A`]
//! lives in shard 0 and key [`B`] in shard 1, both bound before the run so
//! that every write is an in-place upsert (no node is allocated in-run,
//! hence no completion barrier). The reader's `multi_get([A, B])` reads
//! both shard versions, probes both lists through
//! `ConcurrentMap::get_each`, and validates; when one window broke it
//! re-probes that shard only (a *repair round*). The backends are wrapped
//! in [`Counted`], which counts the lookups each thread asks of them in a
//! thread-local — plain memory, no yield point — so a schedule's reader
//! tells how it got its answer: 2 lookups for a clean pass, 3 for one
//! repaired shard, more for further rounds. It counts the keys a batch
//! write descends to a second time the same way (`batch_walk_model`).

use std::cell::Cell;

use optik_explore::{Hist, Trial};
use optik_harness::linearize::SeqSpec;
use optik_kv::{ConcurrentMap, Key, KvStore, OrderedMap, Val};
use optik_skiplists::OptikSkipList2;

/// Key space 1..=100 over two shards: bounds `[50, MAX]`.
pub const A: Key = 40;
pub const B: Key = 60;

/// Outcome-annotated operation on the pair `(A, B)`; keys are addressed
/// by position. Use distinct put values within a history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairOp {
    /// `put(key, new)` returning the previous value.
    Put(usize, u64, Option<u64>),
    /// `multi_put` of both keys: the new values and the previous ones,
    /// applied at one point.
    PutBoth([u64; 2], [Option<u64>; 2]),
    /// `multi_get` of both keys: the bindings observed, at one point.
    GetBoth([Option<u64>; 2]),
}

/// The two-key map machine: a `GetBoth` is legal only where both bindings
/// match at once, and a `PutBoth` replaces both at once — so a batch read
/// that pairs the batch write's `A` with the `B` from before it has no
/// place in any order.
#[derive(Debug, Clone, Copy)]
pub struct PairSpec {
    pub initial: [Option<u64>; 2],
}

impl SeqSpec for PairSpec {
    type Op = PairOp;
    type State = [Option<u64>; 2];

    fn initial(&self) -> Self::State {
        self.initial
    }

    fn apply(&self, state: &Self::State, op: PairOp) -> Option<Self::State> {
        match op {
            PairOp::Put(i, new, prev) => (state[i] == prev).then(|| {
                let mut s = *state;
                s[i] = Some(new);
                s
            }),
            PairOp::PutBoth(new, prev) => (*state == prev).then_some(new.map(Some)),
            PairOp::GetBoth(seen) => (seen == *state).then_some(*state),
        }
    }
}

thread_local! {
    /// Backend lookups the current thread has made through [`Counted`].
    static LOOKUPS: Cell<usize> = const { Cell::new(0) };
    /// Ops of the current thread's batch writes through [`Counted`] whose
    /// map `exclude` reported stale: keys descended to a second time.
    static REWALKS: Cell<usize> = const { Cell::new(0) };
}

/// `OptikSkipList2` with its lookups and its batch writes' second descents
/// counted per calling thread.
pub struct Counted(pub OptikSkipList2);

fn count(n: usize) {
    LOOKUPS.with(|c| c.set(c.get() + n));
}

/// Second descents the current thread's batch writes have made.
pub fn rewalks() -> usize {
    REWALKS.with(Cell::get)
}

impl ConcurrentMap for Counted {
    fn get(&self, key: Key) -> Option<Val> {
        count(1);
        self.0.get(key)
    }
    fn get_each(probes: &[(&Self, Key)], out: &mut [Option<Val>]) {
        count(probes.len());
        let inner: Vec<(&OptikSkipList2, Key)> = probes.iter().map(|&(m, k)| (&m.0, k)).collect();
        OptikSkipList2::get_each(&inner, out);
    }
    fn put(&self, key: Key, val: Val) -> Option<Val> {
        self.0.put(key, val)
    }
    fn remove(&self, key: Key) -> Option<Val> {
        self.0.remove(key)
    }
    unsafe fn put_exclusive(&self, key: Key, val: Val) -> Option<Val> {
        // SAFETY: the caller's contract, forwarded.
        unsafe { self.0.put_exclusive(key, val) }
    }
    unsafe fn remove_exclusive(&self, key: Key) -> Option<Val> {
        // SAFETY: the caller's contract, forwarded.
        unsafe { self.0.remove_exclusive(key) }
    }
    unsafe fn write_each(
        ops: &[(&Self, Key, Option<Val>)],
        out: &mut [Option<Val>],
        exclude: &mut dyn FnMut(&mut [bool]) -> bool,
    ) -> bool {
        let inner: Vec<(&OptikSkipList2, Key, Option<Val>)> =
            ops.iter().map(|&(m, k, v)| (&m.0, k, v)).collect();
        let mut counted = |fresh: &mut [bool]| {
            let excluded = exclude(fresh);
            if excluded {
                let stale = fresh.iter().filter(|&&f| !f).count();
                REWALKS.with(|c| c.set(c.get() + stale));
            }
            excluded
        };
        // SAFETY: the caller's contract, forwarded.
        unsafe { OptikSkipList2::write_each(&inner, out, &mut counted) }
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn for_each(&self, f: &mut dyn FnMut(Key, Val)) {
        self.0.for_each(f);
    }
}

impl OrderedMap for Counted {
    fn range(&self, lo: Key, hi: Key, f: &mut dyn FnMut(Key, Val)) {
        self.0.range(lo, hi, f);
    }
}

/// What one schedule produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Every op with its logical `[invoke, response]` window.
    pub history: Vec<(u64, u64, PairOp)>,
    /// What the `multi_get` returned.
    pub read: [Option<u64>; 2],
    /// Backend lookups the `multi_get` made.
    pub lookups: usize,
}

/// The bindings before the run.
pub const INITIAL: [Option<u64>; 2] = [Some(1), Some(2)];

/// Runs the three threads under `trial`'s schedule.
pub fn run(trial: &Trial) -> Outcome {
    let store: KvStore<Counted> =
        KvStore::with_ordered_shards(2, 100, |_| Counted(OptikSkipList2::new()));
    store.put(A, 1);
    store.put(B, 2);
    let hist: Hist<PairOp> = Hist::new();
    let reader = std::sync::Mutex::new(([None; 2], 0));
    trial.run(&[
        &|| {
            let before = LOOKUPS.with(Cell::get);
            let i = trial.now();
            let got = store.multi_get(&[A, B]);
            hist.push(i, trial.now(), PairOp::GetBoth([got[0], got[1]]));
            *reader.lock().unwrap() = ([got[0], got[1]], LOOKUPS.with(Cell::get) - before);
        },
        &|| {
            let i = trial.now();
            let prev = store.put(A, 11);
            hist.push(i, trial.now(), PairOp::Put(0, 11, prev));
            let i = trial.now();
            let prev = store.put(B, 12);
            hist.push(i, trial.now(), PairOp::Put(1, 12, prev));
        },
        &|| {
            let i = trial.now();
            let prevs = store.multi_put(&[(A, 21), (B, 22)]);
            hist.push(
                i,
                trial.now(),
                PairOp::PutBoth([21, 22], [prevs[0], prevs[1]]),
            );
        },
    ]);
    let (read, lookups) = *reader.lock().unwrap();
    Outcome {
        history: hist.take_sorted(),
        read,
        lookups,
    }
}
