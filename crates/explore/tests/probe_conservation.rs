//! Probe-counter conservation under deterministic schedules.
//!
//! The stress tier can only say a probe counter "looks plausible"; the
//! explorer can do better. Under `--cfg optik_explore` every shim access
//! inside `OptikVersioned` is a scheduler yield point, so each enumerated
//! schedule fixes *exactly* which `try_lock_version` calls fail — ground
//! truth we recover from the calls' return values and compare, per
//! schedule, against the probe's `ValidationFail`/`LockAcquire` deltas.
//! A pinned replay of one contended schedule then proves the counters
//! are themselves deterministic. Build and run with:
//!
//! ```text
//! RUSTFLAGS='--cfg optik_explore' cargo test -p optik-explore \
//!     --features probe --test probe_conservation
//! ```

#![cfg(all(optik_explore, feature = "probe"))]

mod support;

use optik::{OptikLock, OptikVersioned};
use optik_explore::{explore, replay, Config, Token, Trial};
use optik_probe::{Event, Snapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use support::arrive_and_wait;

/// Every test here compares deltas of the **process-wide** probe snapshot
/// with what one schedule did, so a schedule of another test running at
/// the same time shows up in the delta. The tests take turns on this lock
/// and pass under the default test-thread count.
static SNAPSHOT: Mutex<()> = Mutex::new(());

fn snapshot_turn() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the others still get their turn.
    SNAPSHOT.lock().unwrap_or_else(|e| e.into_inner())
}

fn cfg() -> Config {
    Config {
        max_steps: 10_000,
        max_schedules: 400_000,
        preemptions: Some(2),
        sleep_sets: true,
    }
}

/// Two threads race one validated acquisition each; returns
/// `(failures, acquisitions)` observed from the return values.
fn contended_pair(trial: &Trial) -> (u64, u64) {
    let lock = OptikVersioned::default();
    let fails = AtomicU64::new(0);
    let acqs = AtomicU64::new(0);
    let attempt = |bump_first: bool| {
        // One thread bumps the version before the other validates in
        // some schedules, forcing genuine validation failures into the
        // tree (not just CAS races).
        if bump_first {
            lock.lock();
            lock.unlock();
        }
        let v = lock.get_version();
        if lock.try_lock_version(v) {
            acqs.fetch_add(1, Ordering::Relaxed);
            lock.unlock();
        } else {
            fails.fetch_add(1, Ordering::Relaxed);
        }
    };
    trial.run(&[&|| attempt(true), &|| attempt(false)]);
    // The bump in `attempt(true)` is itself a blocking acquisition.
    (
        fails.load(Ordering::Relaxed),
        acqs.load(Ordering::Relaxed) + 1,
    )
}

/// Every enumerated schedule's probe delta must equal the ground truth
/// reconstructed from return values — no over- or under-counting on any
/// interleaving — and the ledger invariants must hold exactly.
#[test]
fn counters_match_ground_truth_on_every_schedule() {
    let _turn = snapshot_turn();
    let mut contended: Option<(Token, u64, u64)> = None;
    let mut fail_counts = std::collections::BTreeSet::new();
    let stats = explore(cfg(), |trial: &Trial| {
        let before = Snapshot::take();
        let (fails, acqs) = contended_pair(trial);
        let d = Snapshot::take().delta_since(&before);

        assert_eq!(
            d.get(Event::ValidationFail),
            fails,
            "probe ValidationFail diverged from observed failures; \
             replay with schedule token {}",
            trial.token()
        );
        assert_eq!(
            d.get(Event::LockAcquire),
            acqs,
            "probe LockAcquire diverged from observed acquisitions; \
             replay with schedule token {}",
            trial.token()
        );
        for (label, a, b) in d.conservation() {
            assert_eq!(
                a,
                b,
                "ledger `{label}` broken in schedule {}",
                trial.token()
            );
        }

        fail_counts.insert(fails);
        if fails > 0 && contended.is_none() {
            contended = Some((trial.token(), fails, acqs));
        }
    });
    eprintln!("probe_conservation::counters_match_ground_truth: {stats}");
    assert!(!stats.truncated, "tree not exhausted: {stats}");
    // The tree must contain both clean runs and at least one genuine
    // validation failure, or the equality checks above proved nothing.
    assert!(
        fail_counts.contains(&0),
        "no uncontended schedule: {fail_counts:?}"
    );
    let (token, fails, acqs) = contended.expect("no schedule produced a validation failure");

    // Pin the first contended schedule: a byte-exact replay must
    // reproduce the exact same counter deltas.
    replay(cfg(), &token, |trial: &Trial| {
        let before = Snapshot::take();
        let (f, a) = contended_pair(trial);
        let d = Snapshot::take().delta_since(&before);
        assert_eq!(
            (f, a),
            (fails, acqs),
            "replay of {token} changed the outcome"
        );
        assert_eq!(d.get(Event::ValidationFail), fails, "replay of {token}");
        assert_eq!(d.get(Event::LockAcquire), acqs, "replay of {token}");
    });
}

/// The pool ledger under deterministic depot traffic: two threads churn
/// slots through a node pool (2-slot magazines, 8-slot chunks, a private
/// QSBR domain), and on *every* enumerated schedule the probe deltas must
/// balance the pool's books exactly — every allocation resolved as a
/// magazine hit or a slow-path miss (never both, never neither), and
/// every slot in exactly one place at rest.
#[test]
fn pool_ledger_balances_on_every_schedule() {
    let _turn = snapshot_turn();
    use reclaim::{NodePool, Qsbr};
    use std::sync::Arc;
    use synchro::shim;

    // Two-phase burst, sized so the serial schedule provably pushes a
    // whole magazine through the depot: with 2-slot magazines (loaded +
    // prev), BURST = 6 slots freed in one collect overflow both
    // magazines and surrender one; DRAIN = 5 follow-up allocations empty
    // both magazines and pull it back out.
    const BURST: u64 = 6;
    const DRAIN: u64 = 5;
    let mut recycle_counts = std::collections::BTreeSet::new();
    let stats = explore(cfg(), |trial: &Trial| {
        let before = Snapshot::take();
        let pool: Arc<NodePool<u64>> = NodePool::with_config(8, 2);
        let domain = Qsbr::new();
        let done = shim::AtomicU64::new(0);
        let worker = || {
            let h = domain.register();
            let mut held: Vec<*mut u64> = Vec::new();
            for phase in [BURST, DRAIN] {
                for i in 0..phase {
                    held.push(pool.alloc_init(|| i));
                }
                for p in held.drain(..) {
                    // SAFETY: `p` came from this pool, was never
                    // published, and is retired exactly once.
                    unsafe { pool.retire(p, &h) };
                }
                h.flush();
                h.quiescent();
                h.collect();
            }
            arrive_and_wait(&done, 2);
        };
        trial.run(&[&worker, &worker]);
        let d = Snapshot::take().delta_since(&before);
        let s = pool.stats();
        assert_eq!(
            d.get(Event::MagazineHit) + d.get(Event::MagazineMiss),
            s.allocations,
            "an allocation resolved twice or never; replay with schedule token {}",
            trial.token()
        );
        assert_eq!(
            d.get(Event::MagazineMiss),
            s.slow_allocs,
            "probe MagazineMiss diverged from the pool's slow-alloc count; \
             replay with schedule token {}",
            trial.token()
        );
        assert_eq!(
            (s.in_grace, s.cached + s.depot + s.unallocated),
            (0, s.capacity),
            "slot conservation violated ({s:?}); replay with schedule token {}",
            trial.token()
        );
        recycle_counts.insert(s.recycle_hits);
    });
    eprintln!("probe_conservation::pool_ledger_balances: {stats}");
    assert!(!stats.truncated, "tree not exhausted: {stats}");
    // The equalities proved nothing unless some schedule actually handed
    // a retired slot back out.
    assert!(
        recycle_counts.iter().any(|&n| n > 0),
        "no schedule recycled a slot: {recycle_counts:?}"
    );
}
