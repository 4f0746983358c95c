//! One `range_scan` over a two-shard **hash** store against a single-key
//! writer and a batch writer, shared by `explore_kv.rs` (the exhaustive
//! family) and `explore_replays.rs` (the pinned torn window).
//!
//! The store is a 2-shard hash-routed `KvStore` over `OptikSkipList2`, so
//! every key window touches both shards. Of the tracked keys, [`KEYS`]`[0]`
//! and `[2]` hash to shard 0 and `[1]` to shard 1; the first two are bound
//! before the run. The writers are a `put` on shard 0 followed by a
//! `remove` on shard 1, and a `multi_put` of both keys. The histories are
//! decided against [`RangeMapSpec`], whose `Range` is legal only where all
//! tracked bindings match at one point and whose `MultiPut` applies at one
//! point.
//!
//! [`Scan::Stitched`] is the read this family exists to reject: the two
//! shards' keys read in two validated reads, one after the other — each
//! shard's part a snapshot of that shard, the two snapshots taken at
//! different instants. That is what `range_scan` did before it became one
//! windowed read (per-shard windows, validated one by one), and a writer
//! that fits between the two windows tears it.

// Each of the two test crates drives one `Scan`.
#![allow(dead_code)]

use optik_explore::{Hist, Trial};
use optik_harness::linearize::{RangeMapSpec, RangeOp};
use optik_kv::{Key, KvStore};
use optik_skiplists::OptikSkipList2;
use synchro::shim;

use crate::support::{arrive_and_wait, timed};

/// The tracked keys, ascending; shards 0, 1, 0 under two-shard hashing.
pub const KEYS: [Key; 3] = [2, 4, 6];

/// The bindings before the run (`KEYS[2]` is never bound).
pub const INITIAL: [Option<u64>; 3] = [Some(1), Some(2), None];

/// How the reader reads the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scan {
    /// `range_scan` over all tracked keys: one windowed read.
    Snapshot,
    /// One validated read per shard, stitched together.
    Stitched,
}

/// What one schedule produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Every op with its logical `[invoke, response]` window.
    pub history: Vec<(u64, u64, RangeOp)>,
    /// What the reader saw of the tracked keys.
    pub seen: [Option<u64>; 3],
}

impl Outcome {
    /// Whether the history has a linearization.
    pub fn linearizable(&self) -> bool {
        optik_harness::linearize::check(&RangeMapSpec { initial: INITIAL }, &timed(&self.history))
    }
}

/// Runs the three threads under `trial`'s schedule.
pub fn run(trial: &Trial, scan: Scan) -> Outcome {
    let store: KvStore<OptikSkipList2> = KvStore::with_shards(2, |_| OptikSkipList2::new());
    assert_eq!(KEYS.map(|k| store.shard_of(k)), [0, 1, 0]);
    store.put(KEYS[0], 1);
    store.put(KEYS[1], 2);
    let hist: Hist<RangeOp> = Hist::new();
    let seen = std::sync::Mutex::new([None; 3]);
    // Completion barrier: the remove retires a node and the batch may
    // allocate one in-run.
    let done = shim::AtomicU64::new(0);
    trial.run(&[
        &|| {
            let i = trial.now();
            let got = match scan {
                Scan::Snapshot => {
                    let window = store.range_scan(KEYS[0], KEYS[2]);
                    KEYS.map(|k| window.iter().find(|&&(key, _)| key == k).map(|&(_, v)| v))
                }
                Scan::Stitched => {
                    let shard0 = store.multi_get(&[KEYS[0], KEYS[2]]);
                    let shard1 = store.multi_get(&[KEYS[1]]);
                    [shard0[0], shard1[0], shard0[1]]
                }
            };
            hist.push(i, trial.now(), RangeOp::Range(got));
            *seen.lock().unwrap() = got;
            arrive_and_wait(&done, 3);
        },
        &|| {
            let i = trial.now();
            let prev = store.put(KEYS[0], 11);
            hist.push(i, trial.now(), RangeOp::Put(0, 11, prev));
            let i = trial.now();
            let gone = store.remove(KEYS[1]);
            hist.push(i, trial.now(), RangeOp::Remove(1, gone));
            arrive_and_wait(&done, 3);
        },
        &|| {
            let i = trial.now();
            let prevs = store.multi_put(&[(KEYS[0], 21), (KEYS[1], 22)]);
            hist.push(
                i,
                trial.now(),
                RangeOp::MultiPut([Some((21, prevs[0])), Some((22, prevs[1])), None]),
            );
            arrive_and_wait(&done, 3);
        },
    ]);
    let seen = *seen.lock().unwrap();
    Outcome {
        history: hist.take_sorted(),
        seen,
    }
}
