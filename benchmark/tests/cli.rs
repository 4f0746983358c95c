//! The command's contract, checked on the built binary: a clean run exits 0
//! and ends in the result line; a wrong oracle constant exits non-zero.

use std::process::Command;

fn kvbench(break_oracle: bool) -> (bool, String) {
    // The binary writes under `benchmark/out/` of its working directory.
    let dir =
        std::env::temp_dir().join(format!("kvbench-cli-{}-{break_oracle}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_kvbench"));
    cmd.args([
        "--workload",
        "hot_shard_writes",
        "--seed",
        "9",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    cmd.current_dir(&dir);
    if break_oracle {
        cmd.env("KVBENCH_BREAK_ORACLE", "1");
    }
    let out = cmd.output().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    (
        out.status.success(),
        stdout.lines().last().unwrap_or_default().to_string(),
    )
}

#[test]
fn a_clean_run_exits_zero_and_ends_in_the_result_line() {
    let (ok, last) = kvbench(false);
    assert!(ok, "{last}");
    assert!(
        last.starts_with("{\"correct\":true,\"attempted\":"),
        "{last}"
    );
    assert!(
        last.contains("\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":"),
        "{last}"
    );
    assert!(
        last.contains("\"throughput_ops_s\":{\"value\":") && last.ends_with("\"unit\":\"MiB\"}}}"),
        "{last}"
    );
}

#[test]
fn a_wrong_oracle_constant_makes_the_command_fail() {
    let (ok, last) = kvbench(true);
    assert!(!ok, "the run must exit non-zero: {last}");
    assert!(last.starts_with("{\"correct\":false,"), "{last}");
}
