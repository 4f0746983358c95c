//! Scaffolding shared by the explorer's test crates.

use std::sync::atomic::Ordering;

use optik_harness::linearize::Timed;
use synchro::shim;

/// Completion barrier: every model thread parks here until all `n` have
/// arrived, so no trial OS thread *exits* while a peer still runs. Without
/// it the process-wide thread-index registry (which keys the node pools'
/// magazines and the publication slots) leaks real-time nondeterminism
/// into the model: an exited thread's index, and the magazine filed under
/// it, can be inherited by a peer's next touch, turning a recorded slow
/// alloc into a recycle hit depending on TLS-destructor timing the
/// cooperative scheduler cannot see. The spin reads a shim word and
/// `relax()`es, so the explorer parks the waiter until the last arrival's
/// `fetch_add` re-enables it — the tree stays finite.
pub fn arrive_and_wait(done: &shim::AtomicU64, n: u64) {
    done.fetch_add(1, Ordering::AcqRel);
    while done.load(Ordering::Acquire) < n {
        synchro::relax();
    }
}

/// A recorded `(invoke, response, op)` history as the checker takes it.
#[allow(dead_code)] // the pool and probe suites mount this module and check no history
pub fn timed<O: Copy>(history: &[(u64, u64, O)]) -> Vec<Timed<O>> {
    history
        .iter()
        .map(|&(invoke, response, op)| Timed {
            invoke,
            response,
            op,
        })
        .collect()
}
