//! The measurement loop: the one place worker threads are spawned, timed
//! and tallied.
//!
//! [`measure`] runs a scenario family's one-op body on `threads` workers
//! for one window. It owns everything the families share: spawn, barrier
//! and stop, the per-thread [`FastRng::for_thread`] stream, per-[`OpKind`]
//! counts and operation units, latency sampling ([`Lap`]), per-thread op
//! totals, the merge, and the [`Measurement`]. A family supplies only its
//! per-thread setup and the body, and the body keeps its own choices:
//! which part of it is timed, whether it announces QSBR quiescence, and
//! what it does outside the timed region (the queue pause).
//!
//! [`run_set_workload`], [`run_queue_workload`] and
//! [`run_stack_workload`] are the paper's set, queue and stack
//! microbenchmarks as bodies of that loop.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::api::{ConcurrentQueue, ConcurrentStack, SetHandle, Val};
use crate::latency::{LatencyRecorder, OpKind};
use crate::rng::FastRng;
use crate::scenario::{Measurement, RunSpec};
use crate::workload::{Op, Workload};

/// Handed to each worker closure: identity plus the stop signal.
struct WorkerCtx<'a> {
    /// Worker index in `0..threads`.
    tid: usize,
    stop: &'a AtomicBool,
}

impl WorkerCtx<'_> {
    /// Whether the measurement window has ended; poll between operations.
    #[inline]
    fn should_stop(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// Runs `threads` copies of `worker` for `duration`, returning their
/// results in thread order. Workers start simultaneously (barrier) and must
/// poll [`WorkerCtx::should_stop`].
fn run_workers<R, F>(threads: usize, duration: Duration, worker: F) -> Vec<R>
where
    R: Send,
    F: Fn(WorkerCtx<'_>) -> R + Sync,
{
    assert!(threads > 0, "need at least one worker");
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(threads + 1);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for tid in 0..threads {
            let stop = &stop;
            let barrier = &barrier;
            let worker = &worker;
            handles.push(scope.spawn(move || {
                barrier.wait();
                worker(WorkerCtx { tid, stop })
            }));
        }
        barrier.wait();
        // The coordinator holds no references into any protected structure
        // while it sleeps/joins; going QSBR-offline keeps it from stalling
        // reclamation for the workers (a standard QSBR practice).
        reclaim::offline_while(|| {
            let start = Instant::now();
            while start.elapsed() < duration {
                std::thread::sleep(
                    duration
                        .saturating_sub(start.elapsed())
                        .min(Duration::from_millis(5)),
                );
            }
            stop.store(true, Ordering::Relaxed);
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        })
    })
}

/// A worker's per-kind tally and latency samples, handed to the body.
///
/// The body wraps the part of an operation it wants timed in
/// [`Lap::time`]; only those operations are counted by kind and sampled.
/// Batches, scans and other multi-unit operations skip it and report
/// their units through the body's return value alone.
pub struct Lap {
    sample: bool,
    kinds: [u64; 6],
    latency: LatencyRecorder,
}

impl Lap {
    /// Runs `op`, counts the [`OpKind`] it returns, and records its
    /// latency when the run samples latency.
    #[inline]
    pub fn time(&mut self, op: impl FnOnce() -> OpKind) -> OpKind {
        let t0 = self.sample.then(synchro::cycles::now);
        let kind = op();
        if let Some(t0) = t0 {
            self.latency
                .record(kind, synchro::cycles::elapsed(t0, synchro::cycles::now()));
        }
        self.kinds[kind as usize] += 1;
        kind
    }
}

/// Runs one measurement window of a scenario family.
///
/// Each of `spec.threads` workers builds its state with `setup(tid)`,
/// then calls `body(state, rng, lap)` until the window closes; the body
/// performs one operation and returns the operation units it completed
/// (1 for a single-key op, the batch size for a batch, 0 for a round that
/// did nothing). `rng` is the worker's [`FastRng::for_thread`] stream for
/// `spec.seed`. `finish` turns each worker's state into what the caller
/// keeps, in thread order. The [`Measurement`]'s `ops` is the sum of the
/// units; its per-kind counts are those of [`Lap::time`].
pub fn measure<S, R: Send>(
    spec: &RunSpec,
    setup: impl Fn(usize) -> S + Sync,
    body: impl Fn(&mut S, &mut FastRng, &mut Lap) -> u64 + Sync,
    finish: impl Fn(S) -> R + Sync,
) -> (Measurement, Vec<R>) {
    let start = Instant::now();
    let results = run_workers(spec.threads, spec.duration, |ctx| {
        let mut rng = FastRng::for_thread(spec.seed, ctx.tid);
        let mut state = setup(ctx.tid);
        let mut lap = Lap {
            sample: spec.record_latency,
            kinds: [0; 6],
            latency: LatencyRecorder::new(),
        };
        let mut units = 0u64;
        while !ctx.should_stop() {
            units += body(&mut state, &mut rng, &mut lap);
        }
        lap.latency.record_thread_ops(units);
        (units, lap, finish(state))
    });
    let mut m = Measurement::from_ops(0, start.elapsed());
    let mut out = Vec::with_capacity(results.len());
    for (units, lap, r) in results {
        m.ops += units;
        for (total, n) in m.kinds.iter_mut().zip(lap.kinds) {
            *total += n;
        }
        m.latency.merge(&lap.latency);
        out.push(r);
    }
    (m, out)
}

/// Runs the paper's set microbenchmark: each thread draws operations from
/// `workload` against its own handle until the window closes.
///
/// `make_handle(tid)` builds the per-thread session (for node-caching
/// structures this is where the cache lives). The key draw is outside the
/// timed region, and threads announce QSBR quiescence between operations,
/// as ssmem does in the paper.
pub fn run_set_workload<H: SetHandle>(
    spec: &RunSpec,
    workload: &Workload,
    make_handle: impl Fn(usize) -> H + Sync,
) -> Measurement {
    measure(
        spec,
        make_handle,
        |handle, rng, lap| {
            let op = workload.next_op(rng);
            lap.time(|| match op {
                Op::Search(k) => match handle.search(k) {
                    Some(_) => OpKind::SearchHit,
                    None => OpKind::SearchMiss,
                },
                Op::Insert(k, v) => match handle.insert(k, v) {
                    true => OpKind::InsertSuc,
                    false => OpKind::InsertFail,
                },
                Op::Delete(k) => match handle.delete(k) {
                    Some(_) => OpKind::DeleteSuc,
                    None => OpKind::DeleteFail,
                },
            });
            reclaim::quiescent();
            1
        },
        drop,
    )
    .0
}

/// Runs the paper's queue microbenchmark (Figure 12): `enqueue_pct`% of
/// issued operations enqueue (counted as [`OpKind::InsertSuc`]), the rest
/// dequeue ([`OpKind::DeleteSuc`], or [`OpKind::DeleteFail`] when empty).
pub fn run_queue_workload<Q: ConcurrentQueue + ?Sized>(
    spec: &RunSpec,
    queue: &Q,
    enqueue_pct: u32,
) -> Measurement {
    run_push_pop(spec, enqueue_pct, |v| queue.enqueue(v), || queue.dequeue())
}

/// Runs the §5.5 stack microbenchmark: `push_pct`% of issued operations
/// push, the rest pop. Counted as [`run_queue_workload`] counts.
pub fn run_stack_workload<S: ConcurrentStack + ?Sized>(
    spec: &RunSpec,
    stack: &S,
    push_pct: u32,
) -> Measurement {
    run_push_pop(spec, push_pct, |v| stack.push(v), || stack.pop())
}

fn run_push_pop(
    spec: &RunSpec,
    push_pct: u32,
    push: impl Fn(Val) + Sync,
    pop: impl Fn() -> Option<Val> + Sync,
) -> Measurement {
    assert!(push_pct <= 100);
    measure(
        spec,
        |_| (),
        |_, rng, lap| {
            lap.time(|| {
                if rng.next_below(100) < u64::from(push_pct) {
                    push(rng.next_u64());
                    OpKind::InsertSuc
                } else if pop().is_some() {
                    OpKind::DeleteSuc
                } else {
                    OpKind::DeleteFail
                }
            });
            reclaim::quiescent();
            // "After every iteration, threads wait for a short duration, in
            // order to avoid long runs [39]" — small randomized pause,
            // outside the timed region.
            synchro::backoff::spin(rng.next_below(32) as u32);
            1
        },
        drop,
    )
    .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ConcurrentSet, Key};
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    struct MutexSet(Mutex<BTreeMap<Key, Val>>);
    impl MutexSet {
        fn new() -> Self {
            Self(Mutex::new(BTreeMap::new()))
        }
    }
    impl ConcurrentSet for MutexSet {
        fn search(&self, key: Key) -> Option<Val> {
            self.0.lock().unwrap().get(&key).copied()
        }
        fn insert(&self, key: Key, val: Val) -> bool {
            let mut m = self.0.lock().unwrap();
            if let std::collections::btree_map::Entry::Vacant(e) = m.entry(key) {
                e.insert(val);
                true
            } else {
                false
            }
        }
        fn delete(&self, key: Key) -> Option<Val> {
            self.0.lock().unwrap().remove(&key)
        }
        fn len(&self) -> usize {
            self.0.lock().unwrap().len()
        }
    }

    struct MutexQueue(Mutex<std::collections::VecDeque<Val>>);
    impl ConcurrentQueue for MutexQueue {
        fn enqueue(&self, val: Val) {
            self.0.lock().unwrap().push_back(val);
        }
        fn dequeue(&self) -> Option<Val> {
            self.0.lock().unwrap().pop_front()
        }
        fn len(&self) -> usize {
            self.0.lock().unwrap().len()
        }
    }

    struct MutexStack(Mutex<Vec<Val>>);
    impl ConcurrentStack for MutexStack {
        fn push(&self, val: Val) {
            self.0.lock().unwrap().push(val);
        }
        fn pop(&self) -> Option<Val> {
            self.0.lock().unwrap().pop()
        }
        fn len(&self) -> usize {
            self.0.lock().unwrap().len()
        }
    }

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
    fn run_workers_returns_in_thread_order() {
        let out = run_workers(4, Duration::from_millis(10), |ctx| ctx.tid * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn run_workers_stops_workers() {
        let t0 = Instant::now();
        let counts = run_workers(2, Duration::from_millis(50), |ctx| {
            let mut n = 0u64;
            while !ctx.should_stop() {
                n += 1;
            }
            n
        });
        assert!(t0.elapsed() < Duration::from_secs(5));
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn per_kind_counts_sum_to_the_op_total() {
        let set = MutexSet::new();
        let w = Workload::paper(64, 20, false);
        w.initial_fill(1, |k, v| set.insert(k, v));
        let m = run_set_workload(&spec(3, 40, 2, false), &w, |_| &set);
        assert!(m.ops > 0);
        let by_kind: u64 = OpKind::ALL.iter().map(|&k| m.count(k)).sum();
        assert_eq!(by_kind, m.ops, "every set op is counted under one kind");
    }

    #[test]
    fn every_threads_ops_are_recorded() {
        let (m, units) = measure(
            &spec(3, 30, 5, false),
            |_| 0u64,
            |n, _, _| {
                *n += 2;
                2
            },
            |n| n,
        );
        let per_thread = m.latency.thread_ops();
        assert_eq!(
            per_thread,
            units.as_slice(),
            "one total per worker, in order"
        );
        assert!(per_thread.iter().all(|&n| n > 0));
        assert_eq!(per_thread.iter().sum::<u64>(), m.ops);
    }

    #[test]
    fn only_the_kinds_a_body_returns_are_sampled() {
        let (m, _) = measure(
            &spec(2, 30, 6, true),
            |_| (),
            |_, rng, lap| {
                if rng.next_below(2) == 0 {
                    lap.time(|| OpKind::SearchMiss);
                    1
                } else {
                    8 // an untimed batch: units only
                }
            },
            drop,
        );
        assert!(m.latency.count(OpKind::SearchMiss) > 0);
        assert!(m.count(OpKind::SearchMiss) > 0);
        for k in OpKind::ALL.into_iter().filter(|&k| k != OpKind::SearchMiss) {
            assert_eq!(m.latency.count(k), 0, "{k:?} sampled");
            assert_eq!(m.count(k), 0, "{k:?} counted");
        }
        assert!(m.ops > m.count(OpKind::SearchMiss), "batch units count");
    }

    #[test]
    fn one_seed_draws_the_same_per_thread_key_stream() {
        const N: usize = 64;
        let draw = |seed| {
            measure(
                &spec(2, 10, seed, false),
                |_| Vec::with_capacity(N),
                |keys: &mut Vec<u64>, rng, _| {
                    if keys.len() < N {
                        keys.push(rng.next_u64());
                    }
                    1
                },
                |keys| keys,
            )
            .1
        };
        let (a, b) = (draw(11), draw(11));
        assert!(a.iter().all(|keys| keys.len() == N));
        assert_eq!(a, b, "same seed, same streams");
        assert_ne!(a[0], a[1], "threads draw distinct streams");
        assert_ne!(a, draw(12), "another seed, other streams");
    }

    #[test]
    fn set_workload_net_count_matches_final_size() {
        let set = MutexSet::new();
        let w = Workload::paper(64, 20, false);
        w.initial_fill(1, |k, v| set.insert(k, v));
        assert_eq!(set.len(), 64);

        let m = run_set_workload(&spec(4, 100, 2, false), &w, |_| &set);
        assert!(m.ops > 0);
        let expected = 64i64 + net_inserted(&m);
        assert_eq!(set.len() as i64, expected, "counts vs final size");
    }

    #[test]
    fn set_workload_latency_recording_collects_samples() {
        let set = MutexSet::new();
        let w = Workload::paper(16, 20, false);
        w.initial_fill(1, |k, v| set.insert(k, v));
        let m = run_set_workload(&spec(2, 50, 3, true), &w, |_| &set);
        let any = OpKind::ALL.iter().any(|&k| m.latency.count(k) > 0);
        assert!(any, "some latency samples must exist");
        assert!(m.mops() > 0.0);
    }

    #[test]
    fn stack_workload_counts_balance() {
        let s = MutexStack(Mutex::new(Vec::new()));
        for i in 0..100 {
            s.push(i);
        }
        let m = run_stack_workload(&spec(4, 100, 4, false), &s, 50);
        assert_eq!(s.len() as i64, 100 + net_inserted(&m));
        assert!(m.ops > 0);
        assert!(m.mops() > 0.0);
    }

    #[test]
    fn queue_workload_counts_balance() {
        let q = MutexQueue(Mutex::new(std::collections::VecDeque::new()));
        for i in 0..100 {
            q.enqueue(i);
        }
        let m = run_queue_workload(&spec(4, 100, 4, false), &q, 50);
        assert_eq!(q.len() as i64, 100 + net_inserted(&m));
    }
}
