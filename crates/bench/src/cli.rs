//! Sweep driving and table printing for `bench_all`.
//!
//! [`run_selection`] takes the scenarios a set of patterns selects from the
//! registry, sweeps them group by group through [`optik_harness::driver`],
//! and prints one aligned table per group (plus extra-metric and latency
//! tables where the scenarios record them). `bench_all` adds the JSON
//! reports and the baseline comparison on top.

use optik_harness::driver::{run_scenarios, ScenarioReport, SweepConfig};
use optik_harness::scenario::{Registry, Scenario};
use optik_harness::table::{fmt_mops, Table};
use optik_harness::Percentiles;

use crate::scenarios::group_blurb;

/// Pretty header printed before a run.
pub fn banner(fig: &str, what: &str, cfg: &SweepConfig) {
    println!("== {fig}: {what}");
    println!(
        "   threads={:?} duration={:?} reps={} seed={}",
        cfg.threads, cfg.duration, cfg.reps, cfg.seed
    );
    println!();
}

/// Formats a latency percentile row: `p5/p25/p50/p75/p95/p99 (n)`.
pub fn fmt_percentiles(p: &Percentiles) -> String {
    format!(
        "{}/{}/{}/{}/{}/{} (n={})",
        p.p5, p.p25, p.p50, p.p75, p.p95, p.p99, p.count
    )
}

/// Runs the scenarios `patterns` select (see [`Registry::select`]) group
/// by group, printing each group's tables as it completes, and returns all
/// reports.
///
/// With `latency` set, per-operation latencies are recorded at the
/// configured thread count closest to 10 (the paper's latency plots) and
/// printed as a boxplot table per group.
pub fn run_selection(
    reg: &Registry,
    patterns: &[String],
    cfg: &SweepConfig,
    latency: bool,
) -> Vec<ScenarioReport> {
    let sel = reg.select(patterns);
    assert!(
        !sel.is_empty(),
        "no scenarios match {patterns:?}; try `bench_all --list`"
    );
    let latency_at = latency.then(|| cfg.latency_threads());
    let mut groups: Vec<&str> = Vec::new();
    for s in &sel {
        if !groups.contains(&s.group()) {
            groups.push(s.group());
        }
    }
    let mut all = Vec::with_capacity(sel.len());
    for group in groups {
        let scen: Vec<&Scenario> = sel.iter().filter(|s| s.group() == group).copied().collect();
        let reports = run_scenarios(&scen, cfg, latency_at, |_| {});
        print_group(group, &reports, latency_at);
        all.extend(reports);
    }
    all
}

/// Prints the throughput table (and any extra-metric / latency tables) of
/// one completed group.
pub fn print_group(group: &str, reports: &[ScenarioReport], latency_at: Option<usize>) {
    let blurb = group_blurb(group);
    if blurb.is_empty() {
        println!("{group} — throughput (Mops/s):");
    } else {
        println!("{group}: {blurb} — throughput (Mops/s):");
    }
    mops_table(reports).print();
    for key in extra_keys(reports) {
        println!();
        println!("{group} — {key}:");
        extra_table(reports, &key).print();
    }
    for key in internals_keys(reports) {
        println!();
        println!("{group} — internals.{key}:");
        internals_table(reports, &key).print();
    }
    if let Some(threads) = latency_at {
        if let Some(t) = latency_table(reports, threads) {
            println!();
            println!("{group} — latency at {threads} threads (cycles, p5/p25/p50/p75/p95/p99):");
            t.print();
        }
    }
    println!();
}

/// Thread-sweep throughput table: one column per series, one row per
/// thread count.
pub fn mops_table(reports: &[ScenarioReport]) -> Table {
    let mut headers = vec!["threads".to_string()];
    headers.extend(reports.iter().map(|r| r.series.clone()));
    let mut t = Table::new(headers);
    for (i, p) in reports
        .first()
        .map(|r| r.points.as_slice())
        .unwrap_or(&[])
        .iter()
        .enumerate()
    {
        let mut row = vec![p.threads.to_string()];
        for r in reports {
            row.push(
                r.points
                    .get(i)
                    .map(|p| fmt_mops(p.mops))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        t.row(row);
    }
    t
}

/// Extra-metric keys present anywhere in the group, in first-seen order.
pub fn extra_keys(reports: &[ScenarioReport]) -> Vec<String> {
    let mut keys = Vec::new();
    for r in reports {
        for p in &r.points {
            for (k, _) in &p.extra {
                if !keys.contains(k) {
                    keys.push(k.clone());
                }
            }
        }
    }
    keys
}

/// Thread-sweep table of one extra metric (e.g. `cas_per_validation`).
pub fn extra_table(reports: &[ScenarioReport], key: &str) -> Table {
    let mut headers = vec!["threads".to_string()];
    headers.extend(reports.iter().map(|r| r.series.clone()));
    let mut t = Table::new(headers);
    for (i, p) in reports
        .first()
        .map(|r| r.points.as_slice())
        .unwrap_or(&[])
        .iter()
        .enumerate()
    {
        let mut row = vec![p.threads.to_string()];
        for r in reports {
            let cell = r
                .points
                .get(i)
                .and_then(|p| p.extra.iter().find(|(k, _)| k == key))
                .map(|(_, v)| format!("{v:.2}"))
                .unwrap_or_else(|| "-".into());
            row.push(cell);
        }
        t.row(row);
    }
    t
}

/// Probe-internal metric keys present anywhere in the group, in first-seen
/// order. Empty unless the workspace was built with `--features probe`.
pub fn internals_keys(reports: &[ScenarioReport]) -> Vec<String> {
    let mut keys = Vec::new();
    for r in reports {
        for p in &r.points {
            for (k, _) in &p.internals {
                if !keys.contains(k) {
                    keys.push(k.clone());
                }
            }
        }
    }
    keys
}

/// Thread-sweep table of one probe-internal metric (e.g.
/// `validation_fail_per_op`).
pub fn internals_table(reports: &[ScenarioReport], key: &str) -> Table {
    let mut headers = vec!["threads".to_string()];
    headers.extend(reports.iter().map(|r| r.series.clone()));
    let mut t = Table::new(headers);
    for (i, p) in reports
        .first()
        .map(|r| r.points.as_slice())
        .unwrap_or(&[])
        .iter()
        .enumerate()
    {
        let mut row = vec![p.threads.to_string()];
        for r in reports {
            let cell = r
                .points
                .get(i)
                .and_then(|p| p.internals.iter().find(|(k, _)| k == key))
                .map(|(_, v)| format!("{v:.3}"))
                .unwrap_or_else(|| "-".into());
            row.push(cell);
        }
        t.row(row);
    }
    t
}

/// Latency boxplot table at `threads`: one column per series, one row per
/// operation kind. `None` if no series recorded latency there.
pub fn latency_table(reports: &[ScenarioReport], threads: usize) -> Option<Table> {
    let mut kinds: Vec<&str> = Vec::new();
    for r in reports {
        if let Some(p) = r.at(threads) {
            for (k, _) in &p.latency {
                if !kinds.contains(&k.as_str()) {
                    kinds.push(k);
                }
            }
        }
    }
    if kinds.is_empty() {
        return None;
    }
    let mut headers = vec!["op".to_string()];
    headers.extend(reports.iter().map(|r| r.series.clone()));
    let mut t = Table::new(headers);
    for kind in kinds {
        let mut row = vec![kind.to_string()];
        for r in reports {
            let cell = r
                .at(threads)
                .and_then(|p| p.latency.iter().find(|(k, _)| k == kind))
                .map(|(_, q)| fmt_percentiles(q))
                .unwrap_or_else(|| "-".into());
            row.push(cell);
        }
        t.row(row);
    }
    Some(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use optik_harness::driver::Point;

    fn report(group: &str, series: &str, mops: &[f64]) -> ScenarioReport {
        ScenarioReport {
            scenario: format!("{group}.{series}"),
            group: group.to_string(),
            series: series.to_string(),
            points: mops
                .iter()
                .enumerate()
                .map(|(i, &m)| Point {
                    threads: 1 << i,
                    mops: m,
                    extra: vec![("cas".into(), m * 2.0)],
                    latency: Vec::new(),
                    internals: vec![("lock_acquires_per_op".into(), 1.0)],
                })
                .collect(),
        }
    }

    #[test]
    fn mops_table_has_one_column_per_series() {
        let rs = vec![
            report("g.a", "x", &[1.0, 2.0]),
            report("g.a", "y", &[3.0, 4.0]),
        ];
        let t = mops_table(&rs);
        let rendered = t.render();
        assert!(rendered.contains("threads"));
        assert!(rendered.contains('x') && rendered.contains('y'));
        assert_eq!(t.len(), 2, "one row per thread count");
    }

    #[test]
    fn extra_tables_and_keys() {
        let rs = vec![report("g.a", "x", &[1.0])];
        assert_eq!(extra_keys(&rs), vec!["cas".to_string()]);
        assert!(extra_table(&rs, "cas").render().contains("2.00"));
    }

    #[test]
    fn internals_tables_and_keys() {
        let rs = vec![report("g.a", "x", &[1.0])];
        assert_eq!(
            internals_keys(&rs),
            vec!["lock_acquires_per_op".to_string()]
        );
        assert!(internals_table(&rs, "lock_acquires_per_op")
            .render()
            .contains("1.000"));
    }

    #[test]
    fn latency_table_absent_without_samples() {
        let rs = vec![report("g.a", "x", &[1.0])];
        assert!(latency_table(&rs, 1).is_none());
    }
}
