//! Bounded schedule exploration over the node pool's magazine⇄depot
//! exchange.
//!
//! Like `explore_kv.rs`, this suite only exists under
//! `--cfg optik_explore`: the pool's `exchange_epoch` is a
//! `synchro::shim` word bumped around every magazine⇄depot exchange
//! (depot refill, bump-region refill, full-magazine surrender), so the
//! explorer can interleave depot traffic with concurrent retires and
//! grace-period advances at exactly that granularity. Build and run
//! with:
//!
//! ```text
//! RUSTFLAGS='--cfg optik_explore' cargo test -p optik-explore --test explore_pool
//! ```
//!
//! Two interleaving families over a deliberately tiny pool
//! (2-slot magazines, single-digit chunks, a private QSBR domain):
//!
//! 1. **Exchange vs retire/grace-advance** — both threads run alloc →
//!    retire → seal → quiesce → collect cycles, so recycled slots
//!    re-enter magazines *while* the other thread is exchanging with the
//!    depot. The invariant is the pool's conservation ledger: after the
//!    run every slot is in exactly one place.
//! 2. **Depot refill vs chunk growth** — allocation-only: both threads
//!    drain the depot and race the bump region into growing chunks
//!    under the pool lock. The invariant is exclusivity: no slot is
//!    ever handed out twice.
//!
//! Each family is exhaustive within two preemptions
//! (`Stats::truncated` is asserted false); failures carry the schedule
//! token for `optik_explore::replay`.

#![cfg(optik_explore)]

mod support;

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use optik_explore::{explore, Config, Trial};
use reclaim::{NodePool, Qsbr};
use support::arrive_and_wait;
use synchro::shim;

/// Exploration bounds. A churn cycle crosses only a handful of shim
/// accesses (one per depot exchange), so two preemptions exhaust the
/// tree quickly; the tests assert it was in fact exhausted.
fn pool_config() -> Config {
    Config {
        max_steps: 20_000,
        max_schedules: 400_000,
        preemptions: Some(2),
        sleep_sets: true,
    }
}

/// Alloc/retire cycles per model thread: enough that 2-slot magazines
/// overflow into the depot at least once per thread.
const CYCLES: u64 = 3;

/// One model thread's workload: churn slots through the full
/// recirculation path. Per cycle the retired slot is sealed
/// immediately and a quiescent point announced, so whenever the *other*
/// thread's quiescence lands in between, the slot finishes its grace
/// period mid-run and re-enters a magazine, racing later exchanges.
fn churn(pool: &Arc<NodePool<u64>>, domain: &Arc<Qsbr>, trial: &Trial) {
    let h = domain.register();
    for i in 0..CYCLES {
        let p = pool.alloc_init(|| i);
        // SAFETY: `p` came from this pool, was never published, and is
        // retired exactly once.
        unsafe { pool.retire(p, &h) };
        h.flush();
        h.quiescent();
        h.collect();
        // At most one slot per thread is ever between ledger states
        // (yield points sit before the exchange locks, so slot movement
        // is atomic between them).
        assert!(
            pool.stats().live() <= 2,
            "conservation ledger lost track mid-churn; replay with schedule token {}",
            trial.token()
        );
    }
}

/// Family 1: magazine⇄depot exchanges racing concurrent retires and
/// grace-period advances.
#[test]
fn depot_exchange_races_retire_and_grace_advance() {
    let mut outcomes: BTreeSet<(u64, u64)> = BTreeSet::new();
    let stats = explore(pool_config(), |trial| {
        let pool: Arc<NodePool<u64>> = NodePool::with_config(8, 2);
        let domain = Qsbr::new();
        let done = shim::AtomicU64::new(0);
        let worker = || {
            churn(&pool, &domain, trial);
            arrive_and_wait(&done, 2);
        };
        trial.run(&[&worker, &worker]);
        // Both handles have dropped: every retired slot either finished
        // its grace period in-run or was orphaned to the domain and
        // collected at the second handle's drop. The ledger must balance
        // exactly — a slot lost in an exchange shows up as a capacity
        // shortfall, a double-recirculated one as an excess.
        let s = pool.stats();
        let d = domain.stats();
        assert_eq!(
            d.retired,
            d.freed,
            "grace advance stranded garbage ({d:?}); replay with schedule token {}",
            trial.token()
        );
        assert_eq!(
            s.in_grace,
            0,
            "pool still counts slots in grace ({s:?}); replay with schedule token {}",
            trial.token()
        );
        assert_eq!(
            s.allocations,
            2 * CYCLES,
            "allocation count drifted ({s:?}); replay with schedule token {}",
            trial.token()
        );
        assert_eq!(
            s.cached + s.depot + s.unallocated,
            s.capacity,
            "slot conservation violated ({s:?}); replay with schedule token {}",
            trial.token()
        );
        outcomes.insert((s.recycle_hits, s.slow_allocs));
    });
    eprintln!("explore_pool::depot_exchange_races_retire_and_grace_advance: {stats}");
    assert!(!stats.truncated, "tree not exhausted: {stats}");
    assert_eq!(
        stats.schedules, 19,
        "the order of shim accesses changed: {stats}"
    );
    // The schedules must actually diverge: grace periods completing
    // mid-run (recycle hits) vs stalled by the peer (fresh slots only).
    assert!(
        outcomes.len() > 1,
        "every schedule recirculated identically: {outcomes:?}"
    );
    assert!(
        outcomes.iter().any(|&(hits, _)| hits > 0),
        "no schedule recycled a slot through a magazine: {outcomes:?}"
    );
}

/// Family 2: depot refills racing chunk growth under the pool lock.
#[test]
fn depot_refill_races_chunk_growth() {
    const GRABS: usize = 4;
    let stats = explore(pool_config(), |trial| {
        // Chunks of 4 with 2-slot magazines: both threads' refills
        // overrun the first chunk, racing growth of the bump region.
        let pool: Arc<NodePool<u64>> = NodePool::with_config(4, 2);
        let seen: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let done = shim::AtomicU64::new(0);
        let grab = || {
            let mut got = Vec::with_capacity(GRABS);
            for i in 0..GRABS {
                got.push(pool.alloc_init(|| i as u64) as usize);
            }
            seen.lock().unwrap().extend(got);
            arrive_and_wait(&done, 2);
        };
        trial.run(&[&grab, &grab]);
        let mut ptrs = seen.lock().unwrap().clone();
        ptrs.sort_unstable();
        ptrs.dedup();
        assert_eq!(
            ptrs.len(),
            2 * GRABS,
            "a slot was handed out twice; replay with schedule token {}",
            trial.token()
        );
        let s = pool.stats();
        assert_eq!(
            s.recycle_hits,
            0,
            "nothing was retired, yet a slot recirculated ({s:?}); \
             replay with schedule token {}",
            trial.token()
        );
        // All 2*GRABS slots are live; the rest sit in magazines, the
        // depot, or the untouched bump region.
        assert_eq!(
            s.live(),
            2 * GRABS as u64,
            "slot conservation violated ({s:?}); replay with schedule token {}",
            trial.token()
        );
    });
    eprintln!("explore_pool::depot_refill_races_chunk_growth: {stats}");
    assert!(!stats.truncated, "tree not exhausted: {stats}");
    assert_eq!(
        stats.schedules, 32,
        "the order of shim accesses changed: {stats}"
    );
}
