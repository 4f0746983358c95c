//! Shared plumbing for the figure-regeneration binaries.
//!
//! The benchmark stack has three layers:
//!
//! - [`scenarios`] — the registry: every figure/ablation of the paper
//!   registered as a named [`optik_harness::Scenario`];
//! - [`optik_harness::driver`] — the sweep/rep/median engine (env knobs
//!   below);
//! - [`cli`] — table printing and the per-family `main` bodies.
//!
//! Every binary accepts the same environment knobs so full-scale runs
//! (paper-like) and CI smoke runs use one code path:
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
//! The `bench_all` binary runs any subset of the registry by name, writes
//! `BENCH_<family>.json` reports, and compares against a checked-in
//! baseline (see `BENCH_baseline.json` at the repository root).

pub mod cli;
pub mod digest;
mod kv;
pub mod scenarios;

pub use optik_harness as harness;

/// Sweep configuration (re-exported from the harness driver; the historic
/// name `Config` is kept for the Criterion benches and external users).
pub type Config = optik_harness::driver::SweepConfig;

pub use cli::{banner, fmt_percentiles};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let cfg = Config::from_env();
        assert!(!cfg.threads.is_empty());
        assert!(cfg.threads.windows(2).all(|w| w[0] < w[1]));
        assert!(cfg.reps >= 1);
        assert!(cfg.duration.as_millis() > 0);
    }
}
