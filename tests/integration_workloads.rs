//! The full benchmark pipeline as an integration test: harness workload →
//! runner → data structure, with the paper's invariants checked end to end
//! (effective update accounting, final-size consistency, skew behaviour).

use std::time::Duration;

use optik_suite::harness::runner::run_set_workload;
use optik_suite::harness::{ConcurrentSet, Measurement, OpKind, RunSpec, Workload};
use optik_suite::hashtables::OptikGlHashTable;
use optik_suite::lists::{OptikCacheList, OptikList};
use optik_suite::skiplists::OptikSkipList2;

fn spec(threads: usize, ms: u64, seed: u64, record_latency: bool) -> RunSpec {
    RunSpec {
        threads,
        duration: Duration::from_millis(ms),
        seed,
        record_latency,
    }
}

/// Successful inserts minus successful deletes.
fn net_inserted(m: &Measurement) -> i64 {
    m.count(OpKind::InsertSuc) as i64 - m.count(OpKind::DeleteSuc) as i64
}

#[test]
fn runner_counts_match_structure_state_list() {
    let w = Workload::paper(256, 20, false);
    let set = OptikList::new();
    w.initial_fill(5, |k, v| set.insert(k, v));
    assert_eq!(set.len() as u64, 256);

    let res = run_set_workload(&spec(8, 250, 6, false), &w, |_| &set);
    let expected = 256i64 + net_inserted(&res);
    assert_eq!(set.len() as i64, expected);
    // Issued updates ≈ 40% (2× the effective 20%): sanity band.
    let updates: u64 = [
        OpKind::InsertSuc,
        OpKind::InsertFail,
        OpKind::DeleteSuc,
        OpKind::DeleteFail,
    ]
    .map(|k| res.count(k))
    .iter()
    .sum();
    let frac = updates as f64 / res.ops as f64;
    assert!((0.3..0.5).contains(&frac), "issued update fraction {frac}");
    // Roughly half the updates fail (key range is double the size).
    let fail = (res.count(OpKind::InsertFail) + res.count(OpKind::DeleteFail)) as f64
        / updates.max(1) as f64;
    assert!((0.3..0.7).contains(&fail), "failed update fraction {fail}");
}

#[test]
fn runner_counts_match_structure_state_hashtable() {
    let w = Workload::paper(512, 10, false);
    let set = OptikGlHashTable::new(512);
    w.initial_fill(7, |k, v| set.insert(k, v));
    let res = run_set_workload(&spec(8, 250, 8, false), &w, |_| &set);
    assert_eq!(set.len() as i64, 512 + net_inserted(&res));
}

#[test]
fn skewed_workload_runs_and_balances_skiplist() {
    let w = Workload::paper(1024, 20, true);
    let set = OptikSkipList2::new();
    w.initial_fill(9, |k, v| set.insert(k, v));
    let res = run_set_workload(&spec(8, 250, 10, false), &w, |_| &set);
    assert_eq!(set.len() as i64, 1024 + net_inserted(&res));
    // Skew means hits cluster: search hit rate should be well above the
    // uniform 50% (popular keys are mostly present... actually with range
    // 2x and zipf on the whole range, hit rate hovers near the steady
    // state; just require the workload made progress on both kinds).
    assert!(res.count(OpKind::SearchHit) > 0 && res.count(OpKind::SearchMiss) > 0);
}

#[test]
fn cache_handles_survive_the_runner() {
    let w = Workload::paper(512, 20, false);
    let set = OptikCacheList::new();
    w.initial_fill(11, |k, v| set.insert(k, v));
    let res = run_set_workload(&spec(8, 250, 12, false), &w, |_| set.handle());
    assert_eq!(set.len() as i64, 512 + net_inserted(&res));
    let (allocs, _) = set.pool_stats();
    assert!(allocs as i64 >= 512 + res.count(OpKind::InsertSuc) as i64);
}

#[test]
fn latency_recording_produces_boxplots() {
    let w = Workload::paper(64, 20, false);
    let set = OptikList::new();
    w.initial_fill(13, |k, v| set.insert(k, v));
    let res = run_set_workload(&spec(4, 200, 14, true), &w, |_| &set);
    let p = res
        .latency
        .percentiles(OpKind::SearchHit)
        .expect("search hits recorded");
    assert!(p.p5 <= p.p25 && p.p25 <= p.p50 && p.p50 <= p.p75 && p.p75 <= p.p95);
    assert!(p.count > 100);
}
