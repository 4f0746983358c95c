//! Bounded schedule exploration of the global-epoch QSBR protocol.
//!
//! The model lives in `qsbr_model/mod.rs`: a transcription of
//! `seal` / `quiescent` / `come_online` / `offline` from
//! `crates/reclaim/src/domain.rs` over always-trapping atomics, so this
//! suite runs in a plain `cargo test` (tier-1) as well as in the explore
//! job. Property: **a node is never reused while a thread that found it
//! is still inside its operation** — with a reader that was online at
//! the seal, and with a thread that comes online anywhere around it.
//!
//! Both families are exhausted within two preemptions
//! (`Stats::truncated` is asserted false).

mod qsbr_model;

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use optik_explore::{explore, replay, Config, Token};
use qsbr_model::{run, Outcome, Reader};

fn qsbr_config() -> Config {
    Config {
        max_steps: 2_000,
        max_schedules: 400_000,
        preemptions: Some(2),
        sleep_sets: true,
    }
}

/// The protocol as implemented: no schedule reuses the node under a
/// finder, and the tree contains every case the safety argument
/// distinguishes.
#[test]
fn grace_period_covers_every_finder() {
    let mut outcomes: BTreeSet<Outcome> = BTreeSet::new();
    let stats = explore(qsbr_config(), |trial| {
        outcomes.insert(run(trial, Reader::AnnouncesAfterUse));
    });
    eprintln!("explore_qsbr::grace_period_covers_every_finder: {stats}");
    assert!(!stats.truncated, "{stats}");
    assert_eq!(
        stats.schedules, 343,
        "the order of shim accesses changed: {stats}"
    );
    // Reader inside its op at the seal, and not; late thread recorded and
    // waited for, and not recorded because it came online after the scan
    // (or before it, but already past the target).
    for (what, seen) in [
        ("reader finds", outcomes.iter().any(|o| o.reader_found)),
        ("reader misses", outcomes.iter().any(|o| !o.reader_found)),
        (
            "late thread finds, and is recorded",
            outcomes.iter().any(|o| o.late_found && o.late_recorded),
        ),
        (
            "late thread finds, and has left before the seal",
            outcomes.iter().any(|o| o.late_found && !o.late_recorded),
        ),
        (
            "late thread recorded but too late to find",
            outcomes.iter().any(|o| o.late_recorded && !o.late_found),
        ),
        (
            "late thread not recorded",
            outcomes.iter().any(|o| !o.late_recorded),
        ),
    ] {
        assert!(seen, "no schedule where the {what}: {outcomes:?}");
    }
}

/// The same model with the reader announcing *before* its last use must
/// be rejected, with a token that reproduces the use-after-free.
#[test]
fn announcing_before_the_last_use_is_rejected() {
    let err = catch_unwind(AssertUnwindSafe(|| {
        explore(qsbr_config(), |trial| {
            run(trial, Reader::AnnouncesBeforeLastUse);
        });
    }))
    .expect_err("some schedule must reuse the node under the reader");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("use after free"), "unexpected message: {msg}");
    let token: Token = msg
        .split("schedule token: ")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .unwrap_or_else(|| panic!("no token in panic message: {msg}"))
        .parse()
        .expect("token parses");
    eprintln!("explore_qsbr::announcing_before_the_last_use_is_rejected: {token}");
    let replayed = catch_unwind(AssertUnwindSafe(|| {
        replay(qsbr_config(), &token, |trial| {
            run(trial, Reader::AnnouncesBeforeLastUse);
        });
    }))
    .expect_err("the token must reproduce the failure");
    let replayed = replayed
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(replayed.contains("use after free"), "{replayed}");
}
