//! `bench_all`'s modes, each driven through the binary the way a user runs
//! it: a sweep that writes one report per family, a combined `--json`
//! report, latency on unless `--no-latency`, the baseline gate, `--ab`,
//! `--digest`, `--list`, and usage errors (a pattern that selects nothing,
//! an unknown flag, a malformed `BENCH_*` value).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use optik_bench::scenarios;
use optik_harness::report::Report;

/// A fresh, empty directory for one test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("optik_bench_all_{test}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs `bench_all` with `dir` as its working directory, at one thread and
/// one 10 ms repetition, on a machine class named `test-machine`.
fn bench_all(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_all"))
        .args(args)
        .current_dir(dir)
        .env("BENCH_THREADS", "1")
        .env("BENCH_REPS", "1")
        .env("BENCH_DUR_MS", "10")
        .env("BENCH_MACHINE", "test-machine")
        .output()
        .expect("bench_all runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

/// The `BENCH_*.json` file names in `dir`, sorted.
fn reports_in(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("readable dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    names
}

fn scenario_names(report: &Report) -> Vec<&str> {
    report
        .scenarios
        .iter()
        .map(|s| s.scenario.as_str())
        .collect()
}

#[test]
fn sweep_writes_one_report_per_family_into_the_working_dir() {
    let dir = scratch("per_family");
    let run = bench_all(&dir, &["--no-latency", "fig5.ttas", "stacks.treiber"]);
    let names = reports_in(&dir);
    let fig5 = Report::load(dir.join("BENCH_fig5.json"));
    let stacks = Report::load(dir.join("BENCH_stacks.json"));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(run.status.success(), "stderr: {}", stderr(&run));
    assert_eq!(names, ["BENCH_fig5.json", "BENCH_stacks.json"]);
    assert_eq!(scenario_names(&fig5.expect("fig5 report")), ["fig5.ttas"]);
    assert_eq!(
        scenario_names(&stacks.expect("stacks report")),
        ["stacks.treiber"]
    );
}

#[test]
fn pattern_matching_no_scenario_exits_2_and_writes_nothing() {
    let dir = scratch("no_match");
    let run = bench_all(&dir, &["--no-latency", "fig99"]);
    let names = reports_in(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(run.status.code(), Some(2), "stderr: {}", stderr(&run));
    assert!(
        stderr(&run).contains("no scenarios match"),
        "{}",
        stderr(&run)
    );
    assert!(names.is_empty(), "reports written: {names:?}");
}

#[test]
fn json_writes_one_combined_report_instead() {
    let dir = scratch("combined");
    let run = bench_all(
        &dir,
        &[
            "--no-latency",
            "fig5.ttas",
            "stacks.treiber",
            "--json",
            "all.json",
        ],
    );
    let names = reports_in(&dir);
    let all = Report::load(dir.join("all.json"));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(run.status.success(), "stderr: {}", stderr(&run));
    assert!(names.is_empty(), "per-family reports written: {names:?}");
    assert_eq!(
        scenario_names(&all.expect("combined report")),
        ["fig5.ttas", "stacks.treiber"]
    );
}

#[test]
fn latency_is_recorded_unless_no_latency() {
    let dir = scratch("latency");
    let with = bench_all(&dir, &["fig7.small.optik", "--json", "with.json"]);
    let without = bench_all(
        &dir,
        &["--no-latency", "fig7.small.optik", "--json", "without.json"],
    );
    let with_report = Report::load(dir.join("with.json"));
    let without_report = Report::load(dir.join("without.json"));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(with.status.success(), "stderr: {}", stderr(&with));
    assert!(without.status.success(), "stderr: {}", stderr(&without));
    let latency = |r: Report| r.scenarios[0].points[0].latency.len();
    assert!(latency(with_report.expect("report")) > 0);
    assert_eq!(latency(without_report.expect("report")), 0);
}

/// Records `fig5.ttas` once and saves it as a baseline of `machine` whose
/// throughput is 1000× the measured one, so every point regresses.
fn inflated_baseline(dir: &Path, machine: &str) -> Output {
    let run = bench_all(dir, &["--no-latency", "fig5.ttas", "--json", "base.json"]);
    assert!(run.status.success(), "stderr: {}", stderr(&run));
    let mut base = Report::load(dir.join("base.json")).expect("recorded report");
    base.machine = machine.to_string();
    for s in &mut base.scenarios {
        for p in &mut s.points {
            p.mops *= 1000.0;
        }
    }
    base.save(dir.join("base.json")).expect("baseline saved");
    bench_all(
        dir,
        &[
            "--no-latency",
            "fig5.ttas",
            "--json",
            "cur.json",
            "--baseline",
            "base.json",
        ],
    )
}

#[test]
fn baseline_regression_fails_the_run_on_the_same_machine() {
    let dir = scratch("gate_same");
    let run = inflated_baseline(&dir, "test-machine");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(run.status.code(), Some(1), "stdout: {}", stdout(&run));
    assert!(stdout(&run).contains("regressions beyond 25% tolerance"));
}

#[test]
fn baseline_regression_is_advisory_across_machine_classes() {
    let dir = scratch("gate_other");
    let run = inflated_baseline(&dir, "other-machine");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(run.status.success(), "stdout: {}", stdout(&run));
    assert!(stdout(&run).contains("advisory only"));
}

#[test]
fn ab_reports_the_pair_ratio_and_writes_no_report() {
    let dir = scratch("ab");
    let run = bench_all(&dir, &["--ab", "fig5.ttas,fig5.optik-versioned"]);
    let names = reports_in(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(run.status.success(), "stderr: {}", stderr(&run));
    let out = stdout(&run);
    assert!(out.contains("A (left):  fig5.ttas"), "{out}");
    assert!(out.contains("B (right): fig5.optik-versioned"), "{out}");
    assert!(out.contains("geomean B/A across thread counts"), "{out}");
    assert!(names.is_empty(), "reports written: {names:?}");
}

#[test]
fn ab_names_an_unknown_scenario_and_exits_2() {
    let dir = scratch("ab_unknown");
    let run = bench_all(&dir, &["--ab", "fig5.ttas,fig5.nope"]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(run.status.code(), Some(2));
    let err = stderr(&run);
    assert!(
        err.contains("\"fig5.nope\"") && !err.contains("\"fig5.ttas\""),
        "{err}"
    );
}

#[test]
fn digest_without_reports_exits_2_and_writes_nothing() {
    let dir = scratch("digest_empty");
    let run = bench_all(&dir, &["--digest"]);
    let written = dir.join("EXPERIMENTS.md").exists();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(run.status.code(), Some(2));
    assert!(stderr(&run).contains("no BENCH_*.json reports"));
    assert!(!written);
}

#[test]
fn digest_renders_the_recorded_reports() {
    let dir = scratch("digest");
    let sweep = bench_all(&dir, &["--no-latency", "fig5.ttas"]);
    let digest = bench_all(&dir, &["--digest"]);
    let doc = std::fs::read_to_string(dir.join("EXPERIMENTS.md"));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(sweep.status.success(), "stderr: {}", stderr(&sweep));
    assert!(digest.status.success(), "stderr: {}", stderr(&digest));
    let doc = doc.expect("EXPERIMENTS.md written");
    assert!(doc.contains("## `fig5`"), "{doc}");
    assert!(doc.contains("| threads | ttas |"), "{doc}");
}

#[test]
fn list_names_every_registered_scenario() {
    let dir = scratch("list");
    let run = bench_all(&dir, &["--list"]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(run.status.success());
    let out = stdout(&run);
    let reg = scenarios::registry();
    for s in reg.iter() {
        assert!(out.contains(s.name()), "`{}` not listed", s.name());
    }
    assert!(
        out.ends_with(&format!("{} scenarios registered\n", reg.len())),
        "{out}"
    );
}

#[test]
fn malformed_bench_value_names_the_variable_and_fails() {
    let dir = scratch("bad_env");
    let run = Command::new(env!("CARGO_BIN_EXE_bench_all"))
        .args(["--no-latency", "fig5.ttas"])
        .current_dir(&dir)
        .env("BENCH_THREADS", "1")
        .env("BENCH_REPS", "1")
        .env("BENCH_DUR_MS", "abc")
        .output()
        .expect("bench_all runs");
    let names = reports_in(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!run.status.success(), "stdout: {}", stdout(&run));
    assert!(stderr(&run).contains("BENCH_DUR_MS"), "{}", stderr(&run));
    assert!(names.is_empty(), "reports written: {names:?}");
}

#[test]
fn unknown_flag_prints_usage_and_exits_2() {
    let dir = scratch("usage");
    let run = bench_all(&dir, &["--bogus"]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(run.status.code(), Some(2));
    assert!(stderr(&run).starts_with("usage: bench_all"));
}
