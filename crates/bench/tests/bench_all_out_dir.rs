//! `bench_all --out-dir` names a directory that does not exist yet: the
//! binary makes it (parents included) and writes the family report there.

use std::process::Command;

#[test]
fn missing_out_dir_is_created_and_receives_the_report() {
    let root = std::env::temp_dir().join(format!("optik_bench_all_out_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let out = root.join("nested").join("reports");
    let status = Command::new(env!("CARGO_BIN_EXE_bench_all"))
        .args(["fig5.ttas", "--no-latency", "--out-dir"])
        .arg(&out)
        .env("BENCH_THREADS", "1")
        .env("BENCH_REPS", "1")
        .env("BENCH_DUR_MS", "10")
        .status()
        .expect("bench_all runs");
    let report = out.join("BENCH_fig5.json");
    let found = report.is_file();
    let _ = std::fs::remove_dir_all(&root);
    assert!(status.success(), "bench_all exited with {status}");
    assert!(found, "{} was not written", report.display());
}
