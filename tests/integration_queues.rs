//! Cross-crate integration for every queue row of the subject table:
//! linearizable FIFO behaviour under the harness workload, plus
//! conservation and drain checks. Adding a queue row to
//! `optik_bench::subjects` enrolls it here.

use std::sync::Arc;

use optik_bench::subjects::{self, Subject};
use optik_suite::harness::runner::run_queue_workload;
use optik_suite::harness::scenario::RunSpec;
use optik_suite::harness::{ConcurrentQueue, OpKind};

/// Every queue row of the subject table, freshly built.
fn queues() -> Vec<(&'static str, Arc<dyn ConcurrentQueue>)> {
    subjects::table()
        .into_iter()
        .filter_map(|(id, subject)| match subject {
            Subject::Queue(make) => Some((id, make())),
            _ => None,
        })
        .collect()
}

#[test]
fn harness_workload_balances_counts() {
    for (name, q) in queues() {
        for i in 0..5_000u64 {
            q.enqueue(i);
        }
        let spec = RunSpec {
            threads: 8,
            duration: std::time::Duration::from_millis(200),
            seed: 11,
            record_latency: false,
        };
        let res = run_queue_workload(&spec, q.as_ref(), 50);
        let expected =
            5_000i64 + res.count(OpKind::InsertSuc) as i64 - res.count(OpKind::DeleteSuc) as i64;
        assert_eq!(q.len() as i64, expected, "{name}");
        assert!(res.ops > 0, "{name}: did work");
    }
}

#[test]
fn drain_after_concurrent_fill_yields_every_element_once() {
    // Scaled for tier-1 (see `optik_harness::stress`); the paper-strength
    // count runs in the `--ignored` tier.
    drain_after_concurrent_fill(optik_suite::harness::stress::ops(30_000));
}

#[test]
#[ignore = "full 8-core-strength stress tier; run via --ignored"]
fn drain_after_concurrent_fill_yields_every_element_once_full() {
    drain_after_concurrent_fill(30_000);
}

fn drain_after_concurrent_fill(per: u64) {
    for (name, q) in queues() {
        const PRODUCERS: u64 = 6;
        let per = per.max(64);
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    q.enqueue(p * per + i);
                }
            }));
        }
        reclaim::offline_while(|| {
            for h in handles {
                h.join().unwrap();
            }
        });
        let mut seen = vec![false; (PRODUCERS * per) as usize];
        while let Some(v) = q.dequeue() {
            let i = v as usize;
            assert!(!seen[i], "{name}: {v} dequeued twice");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "{name}: element lost");
    }
}

#[test]
fn alternating_enqueue_dequeue_is_exact_fifo() {
    let iters = optik_suite::harness::stress::ops(100_000);
    for (name, q) in queues() {
        let mut next_out = 0u64;
        let mut next_in = 0u64;
        let mut x = 777u64;
        for _ in 0..iters {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x % 3 != 0 {
                q.enqueue(next_in);
                next_in += 1;
            } else if let Some(v) = q.dequeue() {
                assert_eq!(v, next_out, "{name}: FIFO order broken");
                next_out += 1;
            } else {
                assert_eq!(next_in, next_out, "{name}: empty only when balanced");
            }
        }
        assert_eq!(q.len() as u64, next_in - next_out, "{name}");
    }
}
