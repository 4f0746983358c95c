//! The process-wide default QSBR domain and per-thread implicit handles.
//!
//! Data-structure crates use these helpers so their public APIs need no
//! explicit guard/handle arguments: every operation runs inside
//! [`with_local`], and the benchmark loops (like the paper's) announce
//! quiescence once per iteration via [`quiescent`]. An announcement is a
//! load of the domain's grace-period counter and a compare with the
//! thread's cached copy; the thread's own word is stored to only when a
//! seal has moved the counter since (see the `domain` module docs).

use std::cell::OnceCell;
use std::sync::{Arc, OnceLock};

use crate::domain::{Qsbr, QsbrHandle};

static GLOBAL: OnceLock<Arc<Qsbr>> = OnceLock::new();

thread_local! {
    static LOCAL: OnceCell<QsbrHandle> = const { OnceCell::new() };
}

/// The process-wide QSBR domain.
pub fn global() -> &'static Arc<Qsbr> {
    GLOBAL.get_or_init(Qsbr::new)
}

/// Runs `f` with this thread's handle on the global domain, registering the
/// thread on first use. The handle is dropped (and its garbage orphaned to
/// the domain) at thread exit.
pub fn with_local<R>(f: impl FnOnce(&QsbrHandle) -> R) -> R {
    LOCAL.with(|cell| f(cell.get_or_init(|| global().register())))
}

/// Announces a quiescent point for the calling thread on the global domain.
///
/// Call between data-structure operations; never while holding references
/// into a protected structure.
pub fn quiescent() {
    with_local(|h| h.quiescent());
}

/// Marks the calling thread offline in the global domain: grace periods
/// opened from now on do not wait for it, and those already open stop. Call before blocking (joins, sleeps, I/O) while
/// holding no references into any protected structure; pair with
/// [`online`]. Performing operations while offline is forbidden.
pub fn offline() {
    with_local(|h| h.offline());
}

/// Marks the calling thread online again after [`offline`].
pub fn online() {
    with_local(|h| h.online());
}

/// Runs `f` with the calling thread marked offline (e.g. around a blocking
/// `join()`), restoring online status afterwards.
pub fn offline_while<R>(f: impl FnOnce() -> R) -> R {
    offline();
    let r = f();
    online();
    r
}

/// Retires a `Box::into_raw` pointer into the global domain.
///
/// # Safety
///
/// Same contract as [`QsbrHandle::retire`].
pub unsafe fn retire_global<T: Send>(ptr: *mut T) {
    // SAFETY: forwarded contract.
    with_local(|h| unsafe { h.retire(ptr) });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn global_domain_is_shared() {
        let a = Arc::as_ptr(global());
        let b = std::thread::spawn(|| Arc::as_ptr(global()) as usize)
            .join()
            .unwrap();
        assert_eq!(a as usize, b);
    }

    #[test]
    fn with_local_reuses_one_handle_per_thread() {
        let slot_a = with_local(|h| format!("{h:?}"));
        let slot_b = with_local(|h| format!("{h:?}"));
        assert_eq!(slot_a, slot_b);
    }

    #[test]
    fn retire_global_runs_drop_eventually() {
        struct Probe(Arc<AtomicU64>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicU64::new(0));
        let p = Box::into_raw(Box::new(Probe(Arc::clone(&drops))));
        // SAFETY: unique Box pointer, never touched again.
        unsafe { retire_global(p) };
        with_local(|h| h.flush());
        // Other test threads registered on the global domain may exist; spin
        // a bounded number of quiescent rounds waiting for them to pass.
        for _ in 0..10_000 {
            quiescent();
            with_local(|h| h.collect());
            if drops.load(Ordering::SeqCst) == 1 {
                return;
            }
            std::thread::yield_now();
        }
        // Not an error: another registered thread may be parked forever in
        // this test binary; the object is freed at process teardown instead.
        // But with the test harness's own threads quiescing, this normally
        // completes. Fail loudly so we notice regressions.
        panic!("retired object was never freed");
    }
}
