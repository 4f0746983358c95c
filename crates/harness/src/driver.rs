//! The unified sweep driver: thread sweeps × repetitions → medians.
//!
//! This is the loop the paper's §5 methodology prescribes (and that every
//! `fig*` binary used to hand-roll): for each thread count, run `reps`
//! measurement windows with per-repetition seeds and report the **median**
//! throughput, the median of each extra metric, and (optionally, at one
//! designated thread count) merged latency percentiles.
//!
//! The core loop ([`sweep_with`]) is deliberately decoupled from wall-clock
//! measurement: it takes a closure from [`RunSpec`] to [`Measurement`], so
//! unit tests drive it with a deterministic fake clock.

use std::time::Duration;

use crate::latency::{OpKind, Percentiles};
use crate::scenario::{Measurement, RunSpec, Scenario};
use crate::stats;

/// Sweep configuration shared by every benchmark binary.
///
/// Read from the environment by [`SweepConfig::from_env`]:
///
/// | variable         | meaning                               | default |
/// |------------------|---------------------------------------|---------|
/// | `BENCH_THREADS`  | comma-separated thread counts         | `1,2,4,8,...,2×cores` |
/// | `BENCH_DUR_MS`   | measurement window per point (ms)     | `300`   |
/// | `BENCH_REPS`     | repetitions per point (median taken)  | `3`     |
/// | `BENCH_SEED`     | workload RNG seed                     | `42`    |
///
/// The paper uses 5 s × 11 repetitions; set `BENCH_DUR_MS=5000
/// BENCH_REPS=11` to match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepConfig {
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Measurement window per data point.
    pub duration: Duration,
    /// Repetitions per data point (median reported).
    pub reps: usize,
    /// Workload seed (repetition `r` uses `seed + r`).
    pub seed: u64,
}

impl SweepConfig {
    /// Reads the configuration from the environment (see type docs).
    ///
    /// # Panics
    ///
    /// Panics if `BENCH_THREADS` is set but yields no valid thread count —
    /// a silent empty sweep would make every downstream consumer (tables,
    /// JSON reports, the CI regression gate) trivially green while
    /// measuring nothing.
    pub fn from_env() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(8);
        let threads = match std::env::var("BENCH_THREADS") {
            Ok(s) => {
                let parsed: Vec<usize> = s
                    .split(',')
                    .filter_map(|t| t.trim().parse().ok())
                    .filter(|&t| t > 0)
                    .collect();
                assert!(
                    !parsed.is_empty(),
                    "BENCH_THREADS={s:?} parsed to an empty thread sweep"
                );
                parsed
            }
            Err(_) => {
                let mut v = vec![1, 2, 4, 8, 16, 24, 32, 48, 64];
                v.retain(|&t| t <= 2 * cores);
                if !v.contains(&cores) {
                    v.push(cores);
                }
                if !v.contains(&(2 * cores)) {
                    v.push(2 * cores);
                }
                v.sort_unstable();
                v.dedup();
                v
            }
        };
        let duration = Duration::from_millis(
            std::env::var("BENCH_DUR_MS")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(300),
        );
        let reps = std::env::var("BENCH_REPS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(3)
            .max(1);
        let seed = std::env::var("BENCH_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42);
        Self {
            threads,
            duration,
            reps,
            seed,
        }
    }

    /// The configured thread count closest to the paper's latency plots
    /// (~10 threads) — where latency distributions are recorded.
    pub fn latency_threads(&self) -> usize {
        self.threads
            .iter()
            .copied()
            .min_by_key(|&t| t.abs_diff(10))
            .unwrap_or(10)
    }
}

/// One data point of a scenario sweep: the median over repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Worker thread count.
    pub threads: usize,
    /// Median throughput over the repetitions, in Mops/s.
    pub mops: f64,
    /// Median of each extra metric over the repetitions.
    pub extra: Vec<(String, f64)>,
    /// Latency boxplots merged across repetitions (only at the designated
    /// latency thread count), keyed by [`OpKind::label`].
    pub latency: Vec<(String, Percentiles)>,
    /// Median internal-behavior metrics over the repetitions: probe-layer
    /// rates (validation-failure rate, retry percentiles, magazine hit
    /// rate — empty unless built with `--features probe`) plus the
    /// workers' thread-imbalance ratio. Keyed like `extra`.
    pub internals: Vec<(String, f64)>,
}

/// A completed sweep of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name (`family.group.series`).
    pub scenario: String,
    /// Group (table identity).
    pub group: String,
    /// Series (column label).
    pub series: String,
    /// One point per configured thread count, in sweep order.
    pub points: Vec<Point>,
}

impl ScenarioReport {
    /// The point measured at `threads`, if the sweep covered it.
    pub fn at(&self, threads: usize) -> Option<&Point> {
        self.points.iter().find(|p| p.threads == threads)
    }
}

/// Runs the sweep/rep/median loop against an arbitrary measurement source.
///
/// For every thread count in `cfg.threads`, `measure` is called `cfg.reps`
/// times with per-repetition seeds `cfg.seed + rep`; the reported point
/// carries the median Mops/s and the median of every extra metric.
/// `record_latency` is requested only when `threads ==
/// latency_at.unwrap_or(never)`, and the latency samples of all repetitions
/// at that point are merged.
///
/// This is the deterministic core: `measure` decides what "time" means.
pub fn sweep_with(
    cfg: &SweepConfig,
    latency_at: Option<usize>,
    mut measure: impl FnMut(&RunSpec) -> Measurement,
) -> Vec<Point> {
    let mut points = Vec::with_capacity(cfg.threads.len());
    for &threads in &cfg.threads {
        let record_latency = latency_at == Some(threads);
        let mut mops = Vec::with_capacity(cfg.reps);
        let mut extra_samples: Vec<(String, Vec<f64>)> = Vec::new();
        let mut internal_samples: Vec<(String, Vec<f64>)> = Vec::new();
        let push_sample = |samples: &mut Vec<(String, Vec<f64>)>, k: &str, v: f64| match samples
            .iter_mut()
            .find(|(ek, _)| ek == k)
        {
            Some((_, vs)) => vs.push(v),
            None => samples.push((k.to_string(), vec![v])),
        };
        let mut latency = crate::latency::LatencyRecorder::new();
        for rep in 0..cfg.reps {
            let spec = RunSpec {
                threads,
                duration: cfg.duration,
                seed: cfg.seed + rep as u64,
                record_latency,
            };
            // Probe delta around exactly the measured window: everything
            // the rep's workers count lands in this rep's internals (all
            // zeros — hence no internals — without `--features probe`).
            let probe_before = optik_probe::Snapshot::take();
            let m = measure(&spec);
            let probe_delta = optik_probe::Snapshot::take().delta_since(&probe_before);
            mops.push(m.mops());
            for (k, v) in &m.extra {
                push_sample(&mut extra_samples, k, *v);
            }
            for (k, v) in probe_delta.metrics(m.ops) {
                push_sample(&mut internal_samples, &k, v);
            }
            if let Some(ratio) = m.latency.thread_imbalance() {
                push_sample(&mut internal_samples, "thread_imbalance", ratio);
            }
            if record_latency {
                latency.merge(&m.latency);
            }
        }
        let extra = extra_samples
            .into_iter()
            .map(|(k, vs)| (k, stats::median(&vs)))
            .collect();
        let internals = internal_samples
            .into_iter()
            .map(|(k, vs)| (k, stats::median(&vs)))
            .collect();
        let latency = OpKind::ALL
            .iter()
            .filter_map(|&k| latency.percentiles(k).map(|p| (k.label().to_string(), p)))
            .collect();
        points.push(Point {
            threads,
            mops: stats::median(&mops),
            extra,
            latency,
            internals,
        });
    }
    points
}

/// Sweeps one scenario with real measurement windows.
pub fn run_scenario(
    scenario: &Scenario,
    cfg: &SweepConfig,
    latency_at: Option<usize>,
) -> ScenarioReport {
    let points = sweep_with(cfg, latency_at, |spec| scenario.run(spec));
    ScenarioReport {
        scenario: scenario.name().to_string(),
        group: scenario.group().to_string(),
        series: scenario.series().to_string(),
        points,
    }
}

/// One data point of an interleaved A/B comparison (see [`ab_sweep_with`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AbPoint {
    /// Worker thread count.
    pub threads: usize,
    /// Median throughput of the left scenario over all pairs, in Mops/s.
    pub left_mops: f64,
    /// Median throughput of the right scenario over all pairs, in Mops/s.
    pub right_mops: f64,
    /// Median of the per-pair `right / left` throughput ratios. This is
    /// the headline number: each ratio compares two back-to-back runs, so
    /// slow drift (thermal, cache residency, background load) cancels
    /// instead of biasing one whole sweep.
    pub ratio: f64,
    /// Number of pairs measured (= `cfg.reps`).
    pub pairs: usize,
    /// Pairs in which right measured strictly more throughput than left;
    /// a tie counts for neither side.
    pub wins: usize,
}

/// Interleaved A/B core: for each thread count, run `cfg.reps` *pairs*
/// back to back with per-pair seeds `cfg.seed + pair`, and report the
/// median of the per-pair `right/left` throughput ratios (plus the median
/// absolute throughputs and right's win count). Even pairs run left
/// first, odd pairs right first, so a cost that falls on whichever side
/// runs first or second (a warm cache, a frequency step) splits evenly.
///
/// Like [`sweep_with`], the closures decide what "time" means, so unit
/// tests drive this with a fake clock.
pub fn ab_sweep_with(
    cfg: &SweepConfig,
    mut left: impl FnMut(&RunSpec) -> Measurement,
    mut right: impl FnMut(&RunSpec) -> Measurement,
) -> Vec<AbPoint> {
    let mut points = Vec::with_capacity(cfg.threads.len());
    for &threads in &cfg.threads {
        let mut lm = Vec::with_capacity(cfg.reps);
        let mut rm = Vec::with_capacity(cfg.reps);
        let mut ratios = Vec::with_capacity(cfg.reps);
        for pair in 0..cfg.reps {
            let spec = RunSpec {
                threads,
                duration: cfg.duration,
                seed: cfg.seed + pair as u64,
                record_latency: false,
            };
            let (l, r) = if pair % 2 == 0 {
                let l = left(&spec).mops();
                (l, right(&spec).mops())
            } else {
                let r = right(&spec).mops();
                (left(&spec).mops(), r)
            };
            lm.push(l);
            rm.push(r);
            ratios.push(r / l.max(1e-12));
        }
        points.push(AbPoint {
            threads,
            left_mops: stats::median(&lm),
            right_mops: stats::median(&rm),
            ratio: stats::median(&ratios),
            pairs: cfg.reps,
            wins: lm.iter().zip(&rm).filter(|(l, r)| r > l).count(),
        });
    }
    points
}

/// [`ab_sweep_with`] over two real scenarios.
pub fn run_ab(left: &Scenario, right: &Scenario, cfg: &SweepConfig) -> Vec<AbPoint> {
    ab_sweep_with(cfg, |spec| left.run(spec), |spec| right.run(spec))
}

/// Sweeps a batch of scenarios, invoking `progress` after each finishes
/// (for streaming table output).
pub fn run_scenarios(
    scenarios: &[&Scenario],
    cfg: &SweepConfig,
    latency_at: Option<usize>,
    mut progress: impl FnMut(&ScenarioReport),
) -> Vec<ScenarioReport> {
    let mut out = Vec::with_capacity(scenarios.len());
    for s in scenarios {
        let r = run_scenario(s, cfg, latency_at);
        progress(&r);
        out.push(r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(threads: Vec<usize>, reps: usize) -> SweepConfig {
        SweepConfig {
            threads,
            duration: Duration::from_millis(100),
            reps,
            seed: 40,
        }
    }

    /// A fake clock: every "measurement" completes instantly with a
    /// deterministic op count derived from (threads, seed).
    fn fake_measure(spec: &RunSpec) -> Measurement {
        // mops = threads + rep (rep = seed - 40): medians become exact.
        let rep = spec.seed - 40;
        let mops = spec.threads as u64 + rep;
        Measurement::from_ops(mops * 1_000_000, Duration::from_secs(1))
            .with_extra("casper", rep as f64)
    }

    #[test]
    fn median_of_reps_is_reported_per_thread_count() {
        // reps 0..5 → mops = threads + {0,1,2,3,4}; median = threads + 2.
        let points = sweep_with(&cfg(vec![1, 4], 5), None, fake_measure);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].threads, 1);
        assert!((points[0].mops - 3.0).abs() < 1e-9);
        assert_eq!(points[1].threads, 4);
        assert!((points[1].mops - 6.0).abs() < 1e-9);
        // Extra metrics get the same median treatment: median rep index = 2.
        assert_eq!(points[0].extra, vec![("casper".to_string(), 2.0)]);
    }

    #[test]
    fn per_rep_seeds_are_distinct_and_documented() {
        let mut seeds = Vec::new();
        let _ = sweep_with(&cfg(vec![2], 3), None, |spec| {
            seeds.push(spec.seed);
            fake_measure(spec)
        });
        assert_eq!(seeds, vec![40, 41, 42], "seed + rep, per the docs");
    }

    #[test]
    fn latency_only_recorded_at_designated_point() {
        let mut asked = Vec::new();
        let _ = sweep_with(&cfg(vec![1, 2, 4], 2), Some(2), |spec| {
            asked.push((spec.threads, spec.record_latency));
            let mut m = fake_measure(spec);
            if spec.record_latency {
                m.latency.record(OpKind::SearchHit, 100);
            }
            m
        });
        assert!(
            asked.iter().all(|&(t, lat)| lat == (t == 2)),
            "latency requested exactly at 2 threads: {asked:?}"
        );
    }

    #[test]
    fn latency_percentiles_surface_in_the_point() {
        let points = sweep_with(&cfg(vec![2], 3), Some(2), |spec| {
            let mut m = fake_measure(spec);
            for c in [10, 20, 30] {
                m.latency.record(OpKind::InsertSuc, c);
            }
            m
        });
        let (label, p) = &points[0].latency[0];
        assert_eq!(label, "insr-suc");
        assert_eq!(p.count, 9, "three reps merged");
        assert_eq!(p.p50, 20);
    }

    #[test]
    fn single_rep_median_is_identity() {
        let points = sweep_with(&cfg(vec![8], 1), None, fake_measure);
        assert!((points[0].mops - 8.0).abs() < 1e-9);
    }

    #[test]
    fn latency_threads_picks_closest_to_ten() {
        let c = cfg(vec![1, 2, 4, 8, 16], 1);
        assert_eq!(c.latency_threads(), 8);
        let c = cfg(vec![1, 12, 64], 1);
        assert_eq!(c.latency_threads(), 12);
    }

    #[test]
    fn ab_sweep_alternates_pairs_and_reports_median_ratio_and_wins() {
        // Record the exact execution order: pairs run back to back, and
        // which side runs first alternates from pair to pair.
        let order = std::cell::RefCell::new(Vec::new());
        let points = ab_sweep_with(
            &cfg(vec![2], 4),
            |spec| {
                order.borrow_mut().push(('L', spec.seed));
                Measurement::from_ops(2_000_000, Duration::from_secs(1))
            },
            |spec| {
                order.borrow_mut().push(('R', spec.seed));
                // rep = seed - 40: ratios are {0.5, 1.0, 1.5, 2.0};
                // median 1.25. Right wins the last two pairs only: the
                // 1.0 pair is a tie and counts for neither side.
                let rep = spec.seed - 40;
                Measurement::from_ops(1_000_000 + rep * 1_000_000, Duration::from_secs(1))
            },
        );
        assert_eq!(
            order.into_inner(),
            vec![
                ('L', 40),
                ('R', 40),
                ('R', 41),
                ('L', 41),
                ('L', 42),
                ('R', 42),
                ('R', 43),
                ('L', 43)
            ],
            "pairs run back to back with shared per-pair seeds, alternating the first side"
        );
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].pairs, 4);
        assert_eq!(points[0].wins, 2, "ties count for neither side");
        assert!((points[0].left_mops - 2.0).abs() < 1e-9);
        assert!((points[0].right_mops - 2.5).abs() < 1e-9);
        assert!(
            (points[0].ratio - 1.25).abs() < 1e-9,
            "median of per-pair ratios"
        );
    }

    #[test]
    fn default_config_is_sane() {
        let c = SweepConfig::from_env();
        assert!(!c.threads.is_empty());
        assert!(c.reps >= 1);
        assert!(c.duration.as_millis() > 0);
    }
}
