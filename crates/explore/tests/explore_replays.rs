//! Pinned-schedule regression suite: recorded schedules re-run as plain
//! unit tests.
//!
//! [`optik_explore::replay`] turns a schedule token into a deterministic
//! re-execution, so any interleaving the explorer ever found interesting
//! can be pinned here and kept green forever — a failing schedule is a
//! unit test, not a flake. The model-program pins run in tier-1 (the
//! `traced` atomics always trap); the kv-level pin needs the shim yield
//! points and is gated on `--cfg optik_explore` like `explore_kv.rs`.
//!
//! Re-pinning: the static token below encodes the model's exact trap
//! sequence. If a deliberate scheduler or model change breaks it, run
//! the ignored `print_fresh_pin_candidates` generator and paste the new
//! token — the failure message of `replay` says which invariant moved.

#[cfg(optik_explore)]
mod batch_walk_model;
#[cfg(optik_explore)]
mod multi_get_model;
mod qsbr_model;
#[cfg(optik_explore)]
mod range_scan_model;
#[cfg(optik_explore)]
mod support;

use std::panic::{catch_unwind, AssertUnwindSafe};

use optik_explore::traced::{yield_now, TracedU64};
use optik_explore::{explore, replay, Config, Token, Trial};

/// The suite explores tiny fixed models: run them unpruned so recorded
/// tokens are stable against pruning-heuristic tuning.
fn cfg() -> Config {
    Config {
        sleep_sets: false,
        ..Config::default()
    }
}

/// The canonical 2-thread lost-update model: each thread is
/// Start, Load, Store on one shared counter.
fn run_counter(trial: &Trial) -> u64 {
    let c = TracedU64::new(0);
    trial.run(&[
        &|| {
            let v = c.load();
            c.store(v + 1);
        },
        &|| {
            let v = c.load();
            c.store(v + 1);
        },
    ]);
    c.load()
}

/// A schedule recorded in one exploration replays byte-exactly, twice,
/// with the same observable outcome — the end-to-end contract every
/// other pin in this file relies on.
#[test]
fn recorded_lost_update_replays_byte_exactly() {
    let mut pinned: Option<(Token, u64)> = None;
    explore(cfg(), |trial| {
        let out = run_counter(trial);
        if out == 1 && pinned.is_none() {
            pinned = Some((trial.token(), out));
        }
    });
    let (token, outcome) = pinned.expect("the unpruned tree contains a lost update");
    assert_eq!(outcome, 1);
    for _ in 0..2 {
        replay(cfg(), &token, |trial| {
            let out = run_counter(trial);
            assert_eq!(out, 1, "replay of {token} lost the lost update");
        });
    }
}

/// A statically pinned lost-update schedule: thread 1 runs its Start and
/// Load between thread 0's Load and Store, so both threads store 1. The
/// token (choices `001110`, fnv digest) was recorded by
/// `print_fresh_pin_candidates`; it breaking means the scheduler's
/// decision sequence, the token format, or the digest changed — all
/// replay-compatibility breaks that would orphan users' recorded tokens.
#[test]
fn static_pinned_token_still_replays() {
    let token: Token = "x1.2.001110.bf7405d4"
        .parse()
        .expect("pinned token must parse");
    replay(cfg(), &token, |trial| {
        let out = run_counter(trial);
        assert_eq!(out, 1, "pinned schedule no longer exhibits the lost update");
    });
}

/// Pin a schedule with a futile spin: the spinner parks at a Yield, the
/// writer's store re-enables it. Guards the yield re-enable rule and the
/// forced round-robin step for all-yield states.
#[test]
fn recorded_spin_handoff_replays() {
    let mut longest: Option<(Token, usize)> = None;
    explore(cfg(), |trial| {
        let flag = TracedU64::new(0);
        trial.run(&[
            &|| {
                while flag.load() == 0 {
                    yield_now();
                }
            },
            &|| flag.store(1),
        ]);
        let token = trial.token();
        let depth = token.choices.len();
        if longest.as_ref().map_or(true, |&(_, d)| depth > d) {
            longest = Some((token, depth));
        }
    });
    let (token, _) = longest.expect("spin model explored");
    // The deepest schedule contains at least one futile spin iteration.
    replay(cfg(), &token, |trial| {
        let flag = TracedU64::new(0);
        trial.run(&[
            &|| {
                while flag.load() == 0 {
                    yield_now();
                }
            },
            &|| flag.store(1),
        ]);
    });
}

/// Replaying against a model with a different thread count fails loudly
/// instead of silently exploring something else.
#[test]
fn replay_rejects_thread_count_mismatch() {
    let token: Token = "x1.2.001110.bf7405d4".parse().unwrap();
    let err = catch_unwind(AssertUnwindSafe(|| {
        replay(cfg(), &token, |trial| {
            let c = TracedU64::new(0);
            trial.run(&[&|| {
                c.fetch_add(1);
            }]);
        });
    }))
    .expect_err("mismatched thread count must fail");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("recorded over"),
        "unexpected replay error: {msg}"
    );
}

/// Replaying against a changed model (extra accesses) trips the
/// decision-count check — the schedule is not silently reinterpreted.
#[test]
fn replay_detects_model_drift() {
    let mut pinned: Option<Token> = None;
    explore(cfg(), |trial| {
        let _ = run_counter(trial);
        pinned.get_or_insert_with(|| trial.token());
    });
    let token = pinned.unwrap();
    let err = catch_unwind(AssertUnwindSafe(|| {
        replay(cfg(), &token, |trial| {
            let c = TracedU64::new(0);
            trial.run(&[
                &|| {
                    let v = c.load();
                    c.store(v + 1);
                },
                &|| {
                    let v = c.load();
                    c.store(v + 1);
                    c.fetch_add(1); // drift: one access the recording lacks
                },
            ]);
        });
    }))
    .expect_err("model drift must fail the replay");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("diverged") || msg.contains("byte-exactly"),
        "unexpected drift error: {msg}"
    );
}

/// Generator for the static pin above: prints every distinct token of
/// the counter model with its outcome. Run with
/// `cargo test -p optik-explore --test explore_replays -- --ignored --nocapture`
/// and paste a lost-update (outcome 1) token into
/// `static_pinned_token_still_replays`.
#[test]
#[ignore = "pin generator, run manually when re-pinning"]
fn print_fresh_pin_candidates() {
    explore(cfg(), |trial| {
        let out = run_counter(trial);
        println!("outcome={out} token={}", trial.token());
    });
}

/// The QSBR pin: the schedule on which a reader that announces *before*
/// its last use loses its node (model and families in `qsbr_model/` and
/// `explore_qsbr.rs`). The reader finds the node; the writer unlinks,
/// seals, announces and starts polling; the reader loads the new epoch
/// and announces it; the writer sees the grace period over and reuses the
/// memory; the reader's use reads the poison. Statically pinned: if the
/// model's trap sequence moves, or the protocol changes so that this
/// interleaving no longer frees under the early announcer, the replay
/// says so.
#[test]
fn qsbr_early_announcement_schedule_replays() {
    let token: Token = "x1.3.0011111111110011110.0429297a"
        .parse()
        .expect("pinned token must parse");
    let err = catch_unwind(AssertUnwindSafe(|| {
        replay(cfg(), &token, |trial| {
            qsbr_model::run(trial, qsbr_model::Reader::AnnouncesBeforeLastUse);
        });
    }))
    .expect_err("the pinned schedule reuses the node under the reader");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("use after free"), "failed differently: {msg}");
}

/// The pool-level pin: a magazine⇄depot exchange schedule over the real
/// [`reclaim::NodePool`], recorded and replayed byte-exactly within the
/// run. Guards the exchange yield-point discipline (see
/// `explore_pool.rs`): the pinned schedule is one where a slot finishes
/// its grace period mid-run and recirculates through a magazine while
/// the peer thread is still churning.
#[cfg(optik_explore)]
#[test]
fn pool_exchange_schedule_replays() {
    use std::sync::Arc;

    use reclaim::{NodePool, Qsbr};
    use synchro::shim;

    let pool_cfg = Config {
        max_steps: 20_000,
        max_schedules: 400_000,
        preemptions: Some(2),
        sleep_sets: true,
    };
    /// `(recycle hits, slow allocs, capacity)` after the schedule.
    type Outcome = (u64, u64, u64);
    let run = |trial: &Trial| -> Outcome {
        let pool: Arc<NodePool<u64>> = NodePool::with_config(8, 2);
        let domain = Qsbr::new();
        // Completion barrier: neither trial OS thread may exit while the
        // other still churns, or the pool's thread-index registry lets the
        // survivor inherit the exited thread's magazine — TLS-teardown
        // timing the scheduler cannot replay.
        let done = shim::AtomicU64::new(0);
        let churn = || {
            let h = domain.register();
            for i in 0..3u64 {
                let p = pool.alloc_init(|| i);
                // SAFETY: `p` came from this pool, was never published,
                // and is retired exactly once.
                unsafe { pool.retire(p, &h) };
                h.flush();
                h.quiescent();
                h.collect();
            }
            drop(h);
            support::arrive_and_wait(&done, 2);
        };
        trial.run(&[&churn, &churn]);
        let s = pool.stats();
        (s.recycle_hits, s.slow_allocs, s.capacity)
    };
    let mut pinned: Option<(Token, Outcome)> = None;
    explore(pool_cfg, |trial| {
        let out = run(trial);
        if out.0 > 0 && pinned.is_none() {
            pinned = Some((trial.token(), out));
        }
    });
    let (token, outcome) = pinned.expect("some schedule recycles through a magazine");
    for _ in 0..2 {
        replay(pool_cfg, &token, |trial| {
            let out = run(trial);
            assert_eq!(
                out, outcome,
                "pool replay of {token} changed the observable outcome"
            );
        });
    }
}

/// The kv-level pin: a TTL expiry-vs-put schedule over the real store,
/// recorded and replayed byte-exactly within the run. Guards the clock
/// sampling discipline in `optik_kv` (see `explore_kv.rs` family 1 and
/// DESIGN.md "Schedule exploration"): the pinned schedule is one where
/// the put linearizes *after* the expiry (sees no previous value) — the
/// shape that exposed the pre-lock clock-sample bug.
#[cfg(optik_explore)]
#[test]
fn kv_ttl_expiry_schedule_replays() {
    use std::sync::Arc;

    use optik_hashtables::StripedOptikHashTable;
    use optik_kv::{FakeClock, KvStore};

    let kv_cfg = Config {
        max_steps: 20_000,
        max_schedules: 400_000,
        preemptions: Some(1),
        sleep_sets: true,
    };
    /// `(reader's get, writer's put prev)` after the schedule.
    type Outcome = (Option<u64>, Option<u64>);
    let run = |trial: &Trial| -> Outcome {
        let clock = Arc::new(FakeClock::new());
        let store: KvStore<StripedOptikHashTable> =
            KvStore::with_shards_ttl(1, clock.clone(), |_| StripedOptikHashTable::new(16, 2));
        store.put_with_ttl(7, 1, 5);
        let got = std::sync::Mutex::new((None, None));
        trial.run(&[
            &|| {
                clock.advance(5);
                got.lock().unwrap().0 = store.get(7);
            },
            &|| {
                got.lock().unwrap().1 = store.put(7, 2);
            },
        ]);
        let g = got.lock().unwrap();
        (g.0, g.1)
    };
    let mut pinned: Option<(Token, Outcome)> = None;
    explore(kv_cfg, |trial| {
        let out = run(trial);
        if out.1.is_none() && pinned.is_none() {
            pinned = Some((trial.token(), out));
        }
    });
    let (token, outcome) = pinned.expect("some schedule expires before the put");
    for _ in 0..2 {
        replay(kv_cfg, &token, |trial| {
            let out = run(trial);
            assert_eq!(
                out, outcome,
                "kv replay of {token} changed the observable outcome"
            );
        });
    }
}

/// The remove-miss pin: a schedule over a statically routed store (see
/// `explore_kv.rs` family 4) in which the put lands first, the batch
/// overwrites it, and the remover — whose lock-free lookup found the key,
/// so it went on to the locked path — takes out the batch's value.
/// Recorded and replayed byte-exactly within the run. Guards the shape of
/// the OPTIK-style `remove`: a hit must find the key again under the shard
/// lock (the value it saw while unlocked may be gone), and the lock-free
/// probe in front must stay off the shim words (a miss is not a yield
/// point), or this schedule stops being reproducible.
#[cfg(optik_explore)]
#[test]
fn kv_remove_miss_schedule_replays() {
    use optik_hashtables::StripedOptikHashTable;
    use optik_kv::KvStore;

    let kv_cfg = Config {
        max_steps: 20_000,
        max_schedules: 400_000,
        preemptions: Some(2),
        sleep_sets: true,
    };
    /// `(remover's reply, put's prev, batch's prev for the key, binding
    /// left behind)` after the schedule.
    type Outcome = (Option<u64>, Option<u64>, Option<u64>, Option<u64>);
    let run = |trial: &Trial| -> Outcome {
        let store: KvStore<StripedOptikHashTable> =
            KvStore::with_shards(1, |_| StripedOptikHashTable::new(16, 2));
        let got = std::sync::Mutex::new((None, None, None));
        // Completion barrier: the writers allocate in-run.
        let done = synchro::shim::AtomicU64::new(0);
        trial.run(&[
            &|| {
                let gone = store.remove(7);
                got.lock().unwrap().0 = gone;
                support::arrive_and_wait(&done, 3);
            },
            &|| {
                let prev = store.put(7, 2);
                got.lock().unwrap().1 = prev;
                support::arrive_and_wait(&done, 3);
            },
            &|| {
                let prevs = store.multi_put(&[(8, 9), (7, 3)]);
                got.lock().unwrap().2 = prevs[1];
                support::arrive_and_wait(&done, 3);
            },
        ]);
        let g = got.lock().unwrap();
        (g.0, g.1, g.2, store.get(7))
    };
    let mut pinned: Option<(Token, Outcome)> = None;
    explore(kv_cfg, |trial| {
        let out = run(trial);
        if out == (Some(3), None, Some(2), None) && pinned.is_none() {
            pinned = Some((trial.token(), out));
        }
    });
    let (token, outcome) = pinned.expect("some schedule removes the batch's overwrite");
    for _ in 0..2 {
        replay(kv_cfg, &token, |trial| {
            let out = run(trial);
            assert_eq!(
                out, outcome,
                "kv replay of {token} changed the observable outcome"
            );
        });
    }
}

/// The repair-round pin: a schedule of `explore_kv.rs` family 5 in which a
/// single-key put lands inside the `multi_get`'s window on one shard, so
/// the read re-reads that shard's version and looks that shard's key up
/// again — three backend lookups for two keys — while keeping the other
/// shard's value. Recorded and replayed byte-exactly within the run.
/// Guards the repair protocol's shape: the re-probe must happen inside the
/// same routing window (no full retry: that would be four lookups), and
/// the interleaved lookups must stay off the shim words, or the schedule
/// stops being reproducible.
#[cfg(optik_explore)]
#[test]
fn kv_multi_get_repair_round_schedule_replays() {
    use multi_get_model::{run, Outcome, PairSpec, INITIAL};
    use optik_harness::linearize::check;
    use support::timed;

    let kv_cfg = Config {
        max_steps: 20_000,
        max_schedules: 400_000,
        preemptions: Some(2),
        sleep_sets: true,
    };
    let mut pinned: Option<(Token, Outcome)> = None;
    explore(kv_cfg, |trial| {
        let out = run(trial);
        // One repaired shard, and the repair is why the read is current:
        // it returns the single-key writer's A next to the untouched B.
        if out.lookups == 3 && out.read == [Some(11), Some(2)] && pinned.is_none() {
            pinned = Some((trial.token(), out));
        }
    });
    let (token, outcome) = pinned.expect("some schedule repairs shard 0 after put(A)");
    assert!(check(
        &PairSpec { initial: INITIAL },
        &timed(&outcome.history)
    ));
    for _ in 0..2 {
        replay(kv_cfg, &token, |trial| {
            assert_eq!(
                run(trial),
                outcome,
                "kv replay of {token} changed the observable outcome"
            );
        });
    }
}

/// The torn-window pin: `explore_kv.rs` family 6 with the reader swapped
/// for `Scan::Stitched` — one validated read per shard, one after the
/// other, which is what `range_scan` did until it became one windowed
/// read. On that code the family itself fails, first on
///
/// ```text
/// x1.3.0000000000111111111111111111111111022222222222222222222000000001122.ff4a42b0
/// ```
///
/// (`Range([Some(1), Some(22), None])` next to `Put(0, 11, Some(1))`,
/// `Remove(1, Some(2))` and `MultiPut([(21, Some(11)), (22, None)])`:
/// shard 0 as it was before every write, shard 1 as it was after all of
/// them). That token names trap points of code that no longer exists, so
/// the pin is recorded here and replayed byte-exactly within the run: the
/// first schedule on which the stitched reader pairs shard 0 from before
/// the writers with shard 1 from after one. It guards the family's teeth —
/// the model, `RangeMapSpec` and the checker still reject a read made of
/// per-shard windows — which is what makes family 6 exhausting clean a
/// statement about `range_scan`. One preemption is all a torn window
/// needs: the reader loses the processor between its two reads.
#[cfg(optik_explore)]
#[test]
fn kv_range_scan_torn_window_schedule_replays() {
    use range_scan_model::{run, Outcome, Scan};

    let kv_cfg = Config {
        max_steps: 20_000,
        max_schedules: 400_000,
        preemptions: Some(1),
        sleep_sets: true,
    };
    let mut pinned: Option<(Token, Outcome)> = None;
    explore(kv_cfg, |trial| {
        let out = run(trial, Scan::Stitched);
        if !out.linearizable() && pinned.is_none() {
            pinned = Some((trial.token(), out));
        }
    });
    let (token, outcome) = pinned.expect("some schedule fits a writer between the two reads");
    for _ in 0..2 {
        replay(kv_cfg, &token, |trial| {
            let out = run(trial, Scan::Stitched);
            assert_eq!(
                out, outcome,
                "kv replay of {token} changed the observable outcome"
            );
            assert!(!out.linearizable(), "the checker accepted a torn window");
        });
    }
}

/// The stale-walk pin: a schedule of `explore_kv.rs` family 8 in which the
/// `put` lands between a batch write's walk of shard 0 and its locks, so
/// the batch finds shard 0's version moved and descends to that shard's
/// keys again under the lock — and the history still linearizes, with the
/// put's key between the batch's two shard-0 keys in the final contents or
/// removed by the batch. Recorded and replayed byte-exactly within the run.
/// Guards the batch write's validation: the walk must happen inside the
/// windows and the locks must be taken at the windows' versions, or the
/// schedule either stops being reproducible or stops re-descending.
#[cfg(optik_explore)]
#[test]
fn kv_ordered_batch_stale_walk_schedule_replays() {
    use batch_walk_model::{run, Outcome};

    let kv_cfg = Config {
        max_steps: 20_000,
        max_schedules: 400_000,
        preemptions: Some(2),
        sleep_sets: true,
    };
    let mut pinned: Option<(Token, Outcome)> = None;
    explore(kv_cfg, |trial| {
        let out = run(trial);
        if out.rewalks > 0 && pinned.is_none() {
            pinned = Some((trial.token(), out));
        }
    });
    let (token, outcome) = pinned.expect("some put lands between a walk and its locks");
    assert!(outcome.linearizable(), "{outcome:?}");
    for _ in 0..2 {
        replay(kv_cfg, &token, |trial| {
            assert_eq!(
                run(trial),
                outcome,
                "kv replay of {token} changed the observable outcome"
            );
        });
    }
}
