//! One batch writer on a two-partition ordered store against a `put`
//! landing between its keys, shared by `explore_kv.rs` (the exhaustive
//! family) and `explore_replays.rs` (the pinned stale-walk schedule).
//!
//! The store is a 2-partition `KvStore` over `OptikSkipList2` (wrapped in
//! `multi_get_model::Counted`, which counts the keys a batch write
//! descends to a second time). Of the tracked [`KEYS`], all three live in
//! shard 0 and start unbound; [`FAR`] lives in shard 1. The batch writer
//! runs `multi_put` of `KEYS[0]`, `KEYS[2]` and `FAR` — it walks to all
//! three before it locks, and links `KEYS[2]` through the path the link
//! of `KEYS[0]` left — then `multi_remove` of all four keys. The other
//! thread `put`s `KEYS[1]`, between the batch's two shard-0 keys: when it
//! lands between a batch's walk and its locks, shard 0's walk is stale and
//! must not be applied. The histories are decided against
//! [`RangeMapSpec`] (`MultiPut` and `MultiRemove` each one step), with the
//! store's final contents appended as one last `Range`.

use optik_explore::{Hist, Trial};
use optik_harness::linearize::{RangeMapSpec, RangeOp};
use optik_kv::{Key, KvStore};
use optik_skiplists::OptikSkipList2;
use synchro::shim;

use crate::multi_get_model::{rewalks, Counted};
use crate::support::{arrive_and_wait, timed};

/// The tracked keys, ascending, all in shard 0 (bounds `[50, MAX]`).
pub const KEYS: [Key; 3] = [20, 30, 40];

/// The batch's key in shard 1.
pub const FAR: Key = 60;

/// The tracked bindings before the run.
pub const INITIAL: [Option<u64>; 3] = [None; 3];

/// What one schedule produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Every op with its logical `[invoke, response]` window, the final
    /// contents last.
    pub history: Vec<(u64, u64, RangeOp)>,
    /// Keys the batch writer descended to a second time.
    pub rewalks: usize,
    /// Every binding left in the store.
    pub contents: Vec<(Key, u64)>,
}

impl Outcome {
    /// Whether the history has a linearization, and the contents are the
    /// tracked bindings of its final `Range` and nothing else.
    pub fn linearizable(&self) -> bool {
        let Some(&(_, _, RangeOp::Range(end))) = self.history.last() else {
            return false;
        };
        let tracked: Vec<(Key, u64)> = KEYS
            .iter()
            .zip(end)
            .filter_map(|(&k, v)| v.map(|v| (k, v)))
            .collect();
        self.contents == tracked
            && optik_harness::linearize::check(
                &RangeMapSpec { initial: INITIAL },
                &timed(&self.history),
            )
    }
}

/// Runs the two threads under `trial`'s schedule.
pub fn run(trial: &Trial) -> Outcome {
    let store: KvStore<Counted> =
        KvStore::with_ordered_shards(2, 100, |_| Counted(OptikSkipList2::new()));
    let hist: Hist<RangeOp> = Hist::new();
    let batch = std::sync::Mutex::new(0);
    // Completion barrier: both threads allocate nodes in-run.
    let done = shim::AtomicU64::new(0);
    trial.run(&[
        &|| {
            let before = rewalks();
            let i = trial.now();
            let prevs = store.multi_put(&[(KEYS[0], 1), (KEYS[2], 3), (FAR, 6)]);
            hist.push(
                i,
                trial.now(),
                RangeOp::MultiPut([Some((1, prevs[0])), None, Some((3, prevs[1]))]),
            );
            assert_eq!(prevs[2], None, "the batch writer alone binds {FAR}");
            let i = trial.now();
            let gone = store.multi_remove(&[KEYS[0], KEYS[1], KEYS[2], FAR]);
            hist.push(
                i,
                trial.now(),
                RangeOp::MultiRemove([Some(gone[0]), Some(gone[1]), Some(gone[2])]),
            );
            assert_eq!(gone[3], Some(6), "the batch writer alone binds {FAR}");
            *batch.lock().unwrap() = rewalks() - before;
            arrive_and_wait(&done, 2);
        },
        &|| {
            let i = trial.now();
            let prev = store.put(KEYS[1], 2);
            hist.push(i, trial.now(), RangeOp::Put(1, 2, prev));
            arrive_and_wait(&done, 2);
        },
    ]);
    let contents = store.range_scan(0, 100);
    let end = trial.now() + 1;
    let seen = KEYS.map(|k| contents.iter().find(|&&(g, _)| g == k).map(|&(_, v)| v));
    hist.push(end, end, RangeOp::Range(seen));
    let rewalks = *batch.lock().unwrap();
    Outcome {
        history: hist.take_sorted(),
        rewalks,
        contents,
    }
}
