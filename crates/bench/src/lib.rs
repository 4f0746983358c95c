//! The scenario registry and the `bench_all` binary that reproduces the
//! paper's figures from it.
//!
//! The benchmark stack has three layers:
//!
//! - [`scenarios`] — the registry: every figure/ablation of the paper
//!   registered as a named [`optik_harness::Scenario`], each naming its
//!   structure by a row of [`subjects`], the table the correctness tiers
//!   build every structure from;
//! - [`optik_harness::driver`] — the sweep/rep/median engine (env knobs
//!   below);
//! - [`cli`] — the group-by-group sweep and its table printing.
//!
//! Full-scale runs (paper-like) and CI smoke runs take one code path; only
//! the environment knobs differ:
//!
//! | variable         | meaning                               | default |
//! |------------------|---------------------------------------|---------|
//! | `BENCH_THREADS`  | comma-separated thread counts         | `1,2,4,8,...,2×cores` |
//! | `BENCH_DUR_MS`   | measurement window per point (ms)     | `300`   |
//! | `BENCH_REPS`     | repetitions per point (median taken)  | `3`     |
//! | `BENCH_SEED`     | workload RNG seed                     | `42`    |
//!
//! The paper uses 5 s × 11 repetitions; set `BENCH_DUR_MS=5000
//! BENCH_REPS=11` to match.
//!
//! `bench_all` runs any subset of the registry by name (`bench_all fig9`
//! reproduces Figure 9), writes `BENCH_<family>.json` reports, and compares
//! against a checked-in baseline (see `BENCH_baseline.json` at the
//! repository root).

pub mod cli;
pub mod digest;
mod kv;
pub mod scenarios;
pub mod subjects;

#[cfg(test)]
mod tests {
    use optik_harness::driver::SweepConfig;

    #[test]
    fn default_config_is_sane() {
        let cfg = SweepConfig::from_env();
        assert!(!cfg.threads.is_empty());
        assert!(cfg.threads.windows(2).all(|w| w[0] < w[1]));
        assert!(cfg.reps >= 1);
        assert!(cfg.duration.as_millis() > 0);
    }
}
