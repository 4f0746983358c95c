//! Bounded schedule exploration over the flat-combining publication
//! protocol (`synchro::combine::PubList`).
//!
//! Like `explore_kv.rs`, this suite only exists under
//! `--cfg optik_explore`: each publication slot's *state* word
//! (`EMPTY → PUBLISHED → DONE`) is a `synchro::shim` atomic, so every
//! hand-off in the protocol is a scheduler yield point and the explorer
//! can interleave the three writer roles at exactly that granularity.
//! Build and run with:
//!
//! ```text
//! RUSTFLAGS='--cfg optik_explore' cargo test -p optik-explore --test explore_combine
//! ```
//!
//! The races under test are the ones the kv store's combining mount
//! lives on (`optik_kv::store::write_combining`):
//!
//! - **publish vs combine** — a writer flips its slot to PUBLISHED and
//!   links it while another writer, already holding the OPTIK lock,
//!   detaches and drains the chain;
//! - **timeout** — a publisher that never sees DONE competes for the
//!   lock itself and drains its own op (there is no cancel path, so
//!   this is the only way a publication resolves without a peer);
//! - **fast path vs stragglers** — a plain `try_lock_version` writer
//!   drains publications that piled up behind the lock before
//!   releasing it.
//!
//! Every family is exhaustive within two preemptions
//! (`Stats::truncated` asserted false) and asserts the conservation
//! ledger *per schedule*: each published op is applied exactly once —
//! by some combiner — and every publisher harvests the response
//! computed from its own op. Failures carry the schedule token for
//! `optik_explore::replay`.

#![cfg(optik_explore)]

mod support;

use std::collections::BTreeSet;
use std::sync::Mutex;

use optik::{OptikLock, OptikVersioned};
use optik_explore::{explore, Config, Trial};
use support::arrive_and_wait;
use synchro::{shim, PubList};

fn cfg() -> Config {
    Config {
        max_steps: 20_000,
        max_schedules: 400_000,
        preemptions: Some(2),
        sleep_sets: true,
    }
}

/// Shared per-schedule ledger, written only from inside drain callbacks
/// (the combiner holds the OPTIK lock there) or behind its own mutex —
/// the mutex critical sections contain no shim accesses, so the
/// cooperative scheduler can never park a holder.
#[derive(Default)]
struct Ledger {
    /// Every op a combiner applied, in application order.
    applied: Mutex<Vec<u64>>,
    /// Batch size of every non-empty drain.
    batches: Mutex<Vec<u64>>,
}

/// The full contended-writer protocol, mirroring
/// `KvStore::publish_and_wait`: publish, then alternate between polling
/// for the response and competing for the combiner role. The "timeout"
/// of the publish-vs-combine-vs-timeout triangle is exactly this loop's
/// lock attempt — there is no abandonment path to race.
fn combined_write(
    list: &PubList<u64, u64>,
    lock: &OptikVersioned,
    ledger: &Ledger,
    op: u64,
) -> u64 {
    let idx = list.publish(op).expect("trial threads have registry slots");
    loop {
        if let Some(resp) = list.poll(idx) {
            return resp;
        }
        let v = lock.get_version();
        if !OptikVersioned::is_locked_version(v) && lock.try_lock_version(v) {
            drain_into(list, ledger);
            lock.unlock();
            return list
                .poll(idx)
                .expect("a completed drain answers every earlier publication");
        }
        synchro::relax();
    }
}

/// The combiner role over the model ledger; caller holds `lock`.
fn drain_into(list: &PubList<u64, u64>, ledger: &Ledger) {
    let n = list.drain(|_, op| {
        ledger.applied.lock().unwrap().push(op);
        op * 2
    });
    if n > 0 {
        ledger.batches.lock().unwrap().push(n);
    }
}

/// Family 1: both writers run the full publish → poll → try-combine
/// protocol, two ops each (so slots are reused within one schedule).
/// Exhausts at 2 preemptions; every schedule's ledger must balance and
/// the tree must contain both true combining (a batch of 2) and
/// self-service-only schedules.
#[test]
fn publish_combine_timeout_interleavings_are_exact() {
    const OPS_PER_THREAD: u64 = 2;
    let mut batch_shapes: BTreeSet<Vec<u64>> = BTreeSet::new();
    let stats = explore(cfg(), |trial: &Trial| {
        let list: PubList<u64, u64> = PubList::new();
        let lock = OptikVersioned::default();
        let ledger = Ledger::default();
        let done = shim::AtomicU64::new(0);
        let writer = |base: u64| {
            for i in 0..OPS_PER_THREAD {
                let op = base + i;
                let resp = combined_write(&list, &lock, &ledger, op);
                assert_eq!(
                    resp,
                    op * 2,
                    "publisher harvested someone else's response; \
                     replay with schedule token {}",
                    trial.token()
                );
            }
            arrive_and_wait(&done, 2);
        };
        trial.run(&[&|| writer(10), &|| writer(20)]);
        // Per-schedule conservation: every published op applied exactly
        // once, and the batches drained exactly the published ops.
        let mut applied = ledger.applied.lock().unwrap().clone();
        applied.sort_unstable();
        assert_eq!(
            applied,
            vec![10, 11, 20, 21],
            "an op was lost or double-applied; replay with schedule token {}",
            trial.token()
        );
        let batches = ledger.batches.lock().unwrap().clone();
        assert_eq!(
            batches.iter().sum::<u64>(),
            2 * OPS_PER_THREAD,
            "drain batches do not partition the publications \
             ({batches:?}); replay with schedule token {}",
            trial.token()
        );
        assert!(
            !list.pending(),
            "a publication was stranded; replay with schedule token {}",
            trial.token()
        );
        batch_shapes.insert(batches);
    });
    eprintln!("explore_combine::publish_combine_timeout_interleavings_are_exact: {stats}");
    assert!(!stats.truncated, "tree not exhausted: {stats}");
    assert!(stats.schedules > 1, "race not explored: {stats}");
    // The schedules must actually diverge: some drain a true batch
    // (one combiner answers its peer), others only ever self-serve.
    assert!(
        batch_shapes.iter().any(|b| b.contains(&2)),
        "no schedule combined a peer's op: {batch_shapes:?}"
    );
    assert!(
        batch_shapes.iter().any(|b| !b.contains(&2)),
        "every schedule combined; the self-serve path went unexplored: {batch_shapes:?}"
    );
}

/// Family 2: the uncontended fast path racing a publisher — a plain
/// `try_lock_version` writer (the store's adaptive fast path, including
/// its drain-the-stragglers step) against a full-protocol publisher.
/// In some schedules the fast writer drains the publication behind its
/// own op; in others the publisher self-serves after the fast writer
/// releases.
#[test]
fn fast_path_drains_stragglers() {
    let mut who_drained: BTreeSet<Vec<u64>> = BTreeSet::new();
    let stats = explore(cfg(), |trial: &Trial| {
        let list: PubList<u64, u64> = PubList::new();
        let lock = OptikVersioned::default();
        let ledger = Ledger::default();
        let done = shim::AtomicU64::new(0);
        let fast = || {
            // The store's fast path: one CAS attempt loop, then apply
            // and sweep stragglers before releasing (KvStore's
            // `apply_and_release`).
            loop {
                let v = lock.get_version();
                if !OptikVersioned::is_locked_version(v) && lock.try_lock_version(v) {
                    ledger.applied.lock().unwrap().push(1);
                    if list.pending() {
                        drain_into(&list, &ledger);
                    }
                    lock.unlock();
                    break;
                }
                synchro::relax();
            }
            arrive_and_wait(&done, 2);
        };
        let publisher = || {
            let resp = combined_write(&list, &lock, &ledger, 7);
            assert_eq!(
                resp,
                14,
                "publisher harvested a wrong response; replay with schedule token {}",
                trial.token()
            );
            arrive_and_wait(&done, 2);
        };
        trial.run(&[&fast, &publisher]);
        let mut applied = ledger.applied.lock().unwrap().clone();
        applied.sort_unstable();
        assert_eq!(
            applied,
            vec![1, 7],
            "an op was lost or double-applied; replay with schedule token {}",
            trial.token()
        );
        assert!(
            !list.pending(),
            "the straggler was stranded; replay with schedule token {}",
            trial.token()
        );
        who_drained.insert(ledger.batches.lock().unwrap().clone());
    });
    eprintln!("explore_combine::fast_path_drains_stragglers: {stats}");
    assert!(!stats.truncated, "tree not exhausted: {stats}");
    assert!(stats.schedules > 1, "race not explored: {stats}");
    // Divergence: at least one schedule resolves the publication via a
    // drain (either role), and at least one lets the publisher win the
    // lock before ever publishing into a held lock's shadow.
    assert!(
        who_drained.iter().any(|b| !b.is_empty()),
        "no schedule drained the publication: {who_drained:?}"
    );
}
