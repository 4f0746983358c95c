//! The metrics the benchmark declares — the same names, units, directions
//! and bounds as `BENCHMARK.json` at the root of the repository
//! (`check-names` fails on any difference) — and how a run's windows
//! become their values.

use crate::driver::{Counts, ThreadResult};
use crate::hist::Hist;
use crate::trace::CLASS_NAMES;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the base's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "ops/s",
        better: "higher",
        bound: 0.20,
    },
    EndToEnd {
        name: "get_p50_ns",
        unit: "ns",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "get_p99_ns",
        unit: "ns",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "write_p50_ns",
        unit: "ns",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "write_p99_ns",
        unit: "ns",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
];

/// `(name, unit, better)`; per-layer metrics have no bound.
pub const PER_LAYER: [(&str, &str, &str); 55] = [
    ("core.versioned.validate_ns", "ns", "lower"),
    ("core.versioned.lock_unlock_ns", "ns", "lower"),
    ("core.ticket.lock_unlock_ns", "ns", "lower"),
    ("core.versioned.contended_lock_ns", "ns", "lower"),
    ("core.versioned.trylock_success_share", "ratio", "higher"),
    ("synchro.ttas.lock_unlock_ns", "ns", "lower"),
    ("reclaim.pool.alloc_retire_ns", "ns", "lower"),
    ("reclaim.pool.magazine_hit_rate", "ratio", "higher"),
    ("reclaim.qsbr.quiescent_ns", "ns", "lower"),
    ("reclaim.qsbr.stalled_reader_ratio", "ratio", "higher"),
    ("reclaim.qsbr.retired_per_op", "count", "lower"),
    ("reclaim.qsbr.backlog_end", "count", "lower"),
    ("hashtables.striped_optik.get_ns", "ns", "lower"),
    ("hashtables.striped_optik.put_remove_ns", "ns", "lower"),
    ("hashtables.striped.get_ns", "ns", "lower"),
    ("hashtables.striped.put_remove_ns", "ns", "lower"),
    ("skiplists.optik2.get_ns", "ns", "lower"),
    ("skiplists.optik2.put_remove_ns", "ns", "lower"),
    ("skiplists.optik2.range64_ns", "ns", "lower"),
    ("kv.s1.get_ns", "ns", "lower"),
    ("kv.s1.put_remove_ns", "ns", "lower"),
    ("kv.s8.get_ns", "ns", "lower"),
    ("kv.s8.put_remove_ns", "ns", "lower"),
    ("kv.ttl.get_ns", "ns", "lower"),
    ("kv.ttl.put_ns", "ns", "lower"),
    ("kv.ttl.sweep_per_key_ns", "ns", "lower"),
    ("kv.ordered.get_ns", "ns", "lower"),
    ("kv.ordered.put_remove_ns", "ns", "lower"),
    ("kv.multi_get8.per_key_ns", "ns", "lower"),
    ("kv.ordered.multi_get8.per_key_ns", "ns", "lower"),
    ("kv.multi_put8.per_key_ns", "ns", "lower"),
    ("kv.ordered.range_scan64_ns", "ns", "lower"),
    ("kv.scan.per_entry_ns", "ns", "lower"),
    ("kv.rebalance.shift_per_key_ns", "ns", "lower"),
    ("kv.shard.get_added_ns", "ns", "lower"),
    ("kv.shard.write_added_ns", "ns", "lower"),
    ("kv.routing.get_added_ns", "ns", "lower"),
    ("kv.ttl.get_added_ns", "ns", "lower"),
    ("kv.range_policy.get_added_ns", "ns", "lower"),
    ("driver.timer_overhead_ns", "ns", "lower"),
    ("multi_p50_ns", "ns", "lower"),
    ("multi_p99_ns", "ns", "lower"),
    ("tail.get_p999_ns", "ns", "lower"),
    ("tail.write_p999_ns", "ns", "lower"),
    ("tail.multi_p999_ns", "ns", "lower"),
    ("trace.get.time_share", "ratio", "higher"),
    ("trace.write.time_share", "ratio", "higher"),
    ("trace.multi.time_share", "ratio", "higher"),
    ("trace.quiescent.time_share", "ratio", "lower"),
    ("trace.driver.self_share", "ratio", "lower"),
    ("trace.get.hit_share", "ratio", "higher"),
    ("trace.put.fresh_share", "ratio", "higher"),
    ("trace.remove.hit_share", "ratio", "higher"),
    ("trace.thread_imbalance", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
];

pub fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty());
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A metric's value with the spread it was the median of.
#[derive(Clone, Debug)]
pub struct Value {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    /// Latency samples (percentiles) or windows (everything else) behind the value.
    pub samples: u64,
    /// The values `value` is the median of, in the order measured.
    pub each: Vec<f64>,
}

impl Value {
    pub fn single(value: f64) -> Self {
        Value {
            value,
            min: value,
            max: value,
            samples: 1,
            each: vec![value],
        }
    }

    /// The value of a window metric: the window that ranks `len / 10` from
    /// the best (the best of fewer than 10, the third-best of 20).
    ///
    /// Not the median: on the reference box (a 2-vCPU guest), for 2 to 15 s
    /// at a time and with sharp edges, whatever the workers share gets
    /// dearer: throughput drops by a quarter and p99 quadruples while
    /// nothing in the guest's own counters moves. Such an episode only ever
    /// slows a window down, and about one run in ten had more than half of
    /// its windows inside one; a rank near the best is taken from a clean
    /// window unless nearly all were hit. See the README.
    pub fn best_decile_of(values: Vec<f64>, higher_is_better: bool, samples: u64) -> Self {
        let mut ranked = values.clone();
        ranked.sort_by(f64::total_cmp);
        if higher_is_better {
            ranked.reverse();
        }
        Value {
            value: ranked[ranked.len() / 10],
            ..Value::median_of(values, samples)
        }
    }

    pub fn median_of(values: Vec<f64>, samples: u64) -> Self {
        Value {
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            value: median(values.clone()),
            samples,
            each: values,
        }
    }
}

/// Ops per second of window `w`: every thread's count over its own span of
/// the window, summed.
pub fn throughput(threads: &[ThreadResult], w: usize) -> f64 {
    threads
        .iter()
        .map(|t| t.slots[w].counts.ops as f64 / t.slots[w].seconds())
        .sum()
}

/// Window `w`'s latency histogram of one class, over all threads.
pub fn latency(threads: &[ThreadResult], w: usize, class: usize) -> Hist {
    let mut h = Hist::default();
    for t in threads {
        h.merge(&t.slots[w].lat[class]);
    }
    h
}

/// The best-decile window's `q`-quantile of one class (see [`Value::best_decile_of`]).
pub fn quantile_over(
    threads: &[ThreadResult],
    windows: std::ops::Range<usize>,
    class: usize,
    q: f64,
) -> Value {
    let hists: Vec<Hist> = windows.map(|w| latency(threads, w, class)).collect();
    let samples = hists.iter().map(Hist::count).sum();
    Value::best_decile_of(
        hists.iter().map(|h| h.quantile(q)).collect(),
        false,
        samples,
    )
}

pub fn counts(threads: &[ThreadResult], windows: std::ops::Range<usize>) -> Counts {
    let mut all = Counts::default();
    for t in threads {
        for w in windows.clone() {
            all.add(&t.slots[w].counts);
        }
    }
    all
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The `trace.*` metrics of traced window `w`, given the throughput of the
/// untraced reference window that ran just before it.
pub fn trace_metrics(
    threads: &[ThreadResult],
    w: usize,
    untraced_ops_s: f64,
) -> Vec<(String, f64)> {
    let logs = || {
        threads
            .iter()
            .map(|t| t.slots[w].spans.as_ref().expect("window was traced"))
    };
    let total: u64 = logs().map(|l| l.total_ns).sum();
    let quiesce: u64 = logs().map(|l| l.quiesce_ns).sum();
    let mut calls = 0;
    let mut out = Vec::new();
    for (class, name) in CLASS_NAMES.iter().enumerate() {
        let ns: u64 = logs().map(|l| l.call_ns[class]).sum();
        calls += ns;
        out.push((format!("trace.{name}.time_share"), share(ns, total)));
    }
    out.push(("trace.quiescent.time_share".into(), share(quiesce, total)));
    out.push((
        "trace.driver.self_share".into(),
        share(total - calls - quiesce, total),
    ));
    let c = counts(threads, w..w + 1);
    out.push(("trace.get.hit_share".into(), share(c.get_hits, c.gets)));
    out.push(("trace.put.fresh_share".into(), share(c.put_fresh, c.puts)));
    out.push((
        "trace.remove.hit_share".into(),
        share(c.remove_hits, c.removes),
    ));
    let per_thread: Vec<f64> = threads
        .iter()
        .map(|t| t.slots[w].counts.ops as f64)
        .collect();
    let mean = per_thread.iter().sum::<f64>() / per_thread.len() as f64;
    let spread = per_thread.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        - per_thread.iter().copied().fold(f64::INFINITY, f64::min);
    out.push(("trace.thread_imbalance".into(), spread / mean));
    out.push((
        "trace.overhead_share".into(),
        1.0 - throughput(threads, w) / untraced_ops_s,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        let v = Value::median_of(vec![5.0, 1.0, 3.0], 3);
        assert_eq!((v.value, v.min, v.max), (3.0, 1.0, 5.0));
        let windows: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(Value::best_decile_of(windows.clone(), true, 20).value, 18.0);
        assert_eq!(Value::best_decile_of(windows, false, 20).value, 3.0);
        let few = Value::best_decile_of(vec![5.0, 1.0, 3.0], false, 3);
        assert_eq!((few.value, few.min, few.max), (1.0, 1.0, 5.0));
    }

    #[test]
    fn declared_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
