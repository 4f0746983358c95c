//! Scaffolding shared by the explorer's test crates.

use std::sync::atomic::Ordering;

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
