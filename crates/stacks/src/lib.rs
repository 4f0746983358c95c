//! Stacks (§5.5 of the OPTIK paper — the honest negative result).
//!
//! "The most prominent example of such a case is stack data structures. We
//! redesign the classic lock-free stack by Treiber using OPTIK. The
//! original and the OPTIK-based variants behave similarly" — a single
//! point of contention (the top) offers no optimistic read-only prefix to
//! exploit, so OPTIK buys nothing. Both variants are implemented here so
//! the `stacks` scenarios (`bench_all stacks`) can reproduce that
//! observation.

#![warn(missing_docs)]

mod elimination;

pub use elimination::EliminationStack;

use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

use optik::{OptikLock, OptikVersioned};
use reclaim::NodePool;
use synchro::{Backoff, CachePadded};

pub use optik_harness::api::Val;
// The stack interface lives in the harness (next to `ConcurrentSet` and
// `ConcurrentQueue`) so the scenario registry and the correctness tiers
// can drive stacks like every other structure; re-exported here for the
// crate's own users.
pub use optik_harness::api::ConcurrentStack;

struct Node {
    val: Val,
    next: *mut Node,
}

// SAFETY: nodes are plain data; the `next` pointer is immutable after
// publication and only dereferenced under QSBR protection. `Send` is
// needed so retired nodes can be recycled by whichever thread collects
// them; `Sync` because shared access is read-only (QSBR-protected).
unsafe impl Send for Node {}
unsafe impl Sync for Node {}

/// Treiber's lock-free stack \[48\].
///
/// Nodes come from a type-stable [`NodePool`]. No pointer survives across
/// operations, so recycled slots are plainly re-initialized after their
/// grace period (same argument as the list structures).
pub struct TreiberStack {
    top: CachePadded<AtomicPtr<Node>>,
    pool: Arc<NodePool<Node>>,
}

// SAFETY: top mutation is CAS-only; popped nodes are retired via QSBR
// (competing poppers may still dereference them).
unsafe impl Send for TreiberStack {}
unsafe impl Sync for TreiberStack {}

impl TreiberStack {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self {
            top: CachePadded::new(AtomicPtr::new(std::ptr::null_mut())),
            pool: NodePool::new(),
        }
    }
}

impl TreiberStack {
    /// One push attempt (single CAS); `Err(())` on contention. Used by the
    /// elimination layer to interleave stack attempts with exchanges.
    // `Err(())` = "lost the CAS race", mirroring the paper's single-
    // attempt semantics; no further failure information exists.
    #[allow(clippy::result_unit_err)]
    pub fn try_push_once(&self, val: Val) -> Result<(), ()> {
        reclaim::quiescent();
        let node = self.pool.alloc_init(|| Node {
            val,
            next: std::ptr::null_mut(),
        });
        let top = self.top.load(Ordering::Acquire);
        // SAFETY: node is ours until published.
        unsafe { (*node).next = top };
        if self
            .top
            .compare_exchange(top, node, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            Ok(())
        } else {
            // SAFETY: never published.
            unsafe { self.pool.dealloc_unpublished(node) };
            Err(())
        }
    }

    /// One pop attempt; `Ok(None)` = observed empty, `Err(())` = contention.
    // `Err(())` = "lost the CAS race", mirroring the paper's single-
    // attempt semantics; no further failure information exists.
    #[allow(clippy::result_unit_err)]
    pub fn try_pop_once(&self) -> Result<Option<Val>, ()> {
        reclaim::quiescent();
        let top = self.top.load(Ordering::Acquire);
        if top.is_null() {
            return Ok(None);
        }
        // SAFETY: grace period; next immutable after publication.
        let (val, next) = unsafe { ((*top).val, (*top).next) };
        if self
            .top
            .compare_exchange(top, next, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            // SAFETY: unlinked by the winning CAS; retired once.
            unsafe { reclaim::with_local(|h| self.pool.retire(top, h)) };
            Ok(Some(val))
        } else {
            Err(())
        }
    }
}

impl Default for TreiberStack {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentStack for TreiberStack {
    fn push(&self, val: Val) {
        reclaim::quiescent();
        let node = self.pool.alloc_init(|| Node {
            val,
            next: std::ptr::null_mut(),
        });
        let mut bo = Backoff::adaptive();
        loop {
            let top = self.top.load(Ordering::Acquire);
            // SAFETY: node is ours until published.
            unsafe { (*node).next = top };
            if self
                .top
                .compare_exchange(top, node, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
            bo.backoff();
        }
    }

    fn pop(&self) -> Option<Val> {
        reclaim::quiescent();
        let mut bo = Backoff::adaptive();
        loop {
            let top = self.top.load(Ordering::Acquire);
            if top.is_null() {
                return None;
            }
            // SAFETY: grace period — `top` cannot be freed while we hold it,
            // and `next` is immutable after publication.
            let (val, next) = unsafe { ((*top).val, (*top).next) };
            if self
                .top
                .compare_exchange(top, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // SAFETY: unlinked by the winning CAS; retired once.
                unsafe { reclaim::with_local(|h| self.pool.retire(top, h)) };
                return Some(val);
            }
            bo.backoff();
        }
    }

    fn len(&self) -> usize {
        reclaim::quiescent();
        // SAFETY: grace-period traversal.
        unsafe {
            let mut n = 0;
            let mut cur = self.top.load(Ordering::Acquire);
            while !cur.is_null() {
                n += 1;
                cur = (*cur).next;
            }
            n
        }
    }
}

/// The OPTIK-based stack: top pointer guarded by one OPTIK lock.
///
/// Push and pop read the top optimistically, then lock-and-validate. As
/// the paper observes, this behaves like the Treiber stack — there is no
/// read-only prefix worth anything, so OPTIK's advantage disappears.
pub struct OptikStack {
    lock: CachePadded<OptikVersioned>,
    top: CachePadded<AtomicPtr<Node>>,
    pool: Arc<NodePool<Node>>,
}

// SAFETY: top mutation is lock-protected; reads are optimistic + QSBR.
unsafe impl Send for OptikStack {}
unsafe impl Sync for OptikStack {}

impl OptikStack {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self {
            lock: CachePadded::new(OptikVersioned::new()),
            top: CachePadded::new(AtomicPtr::new(std::ptr::null_mut())),
            pool: NodePool::new(),
        }
    }
}

impl Default for OptikStack {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentStack for OptikStack {
    fn push(&self, val: Val) {
        reclaim::quiescent();
        let node = self.pool.alloc_init(|| Node {
            val,
            next: std::ptr::null_mut(),
        });
        let mut bo = Backoff::adaptive();
        loop {
            let v = self.lock.get_version();
            if OptikVersioned::is_locked_version(v) {
                synchro::relax();
                continue;
            }
            let top = self.top.load(Ordering::Acquire);
            // SAFETY: ours until published.
            unsafe { (*node).next = top };
            if self.lock.try_lock_version(v) {
                self.top.store(node, Ordering::Release);
                self.lock.unlock();
                return;
            }
            bo.backoff();
        }
    }

    fn pop(&self) -> Option<Val> {
        reclaim::quiescent();
        let mut bo = Backoff::adaptive();
        loop {
            let v = self.lock.get_version();
            if OptikVersioned::is_locked_version(v) {
                synchro::relax();
                continue;
            }
            let top = self.top.load(Ordering::Acquire);
            if top.is_null() {
                // Empty observed under a free version: no synchronization.
                return None;
            }
            // SAFETY: grace period.
            let (val, next) = unsafe { ((*top).val, (*top).next) };
            if self.lock.try_lock_version(v) {
                self.top.store(next, Ordering::Release);
                self.lock.unlock();
                // SAFETY: unlinked under the lock; retired once.
                unsafe { reclaim::with_local(|h| self.pool.retire(top, h)) };
                return Some(val);
            }
            bo.backoff();
        }
    }

    fn len(&self) -> usize {
        reclaim::quiescent();
        // SAFETY: grace-period traversal.
        unsafe {
            let mut n = 0;
            let mut cur = self.top.load(Ordering::Acquire);
            while !cur.is_null() {
                n += 1;
                cur = (*cur).next;
            }
            n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn implementations() -> Vec<(&'static str, Arc<dyn ConcurrentStack>)> {
        vec![
            ("treiber", Arc::new(TreiberStack::new())),
            ("optik", Arc::new(OptikStack::new())),
        ]
    }

    #[test]
    fn raw_try_api_roundtrips_uncontended() {
        let s = TreiberStack::new();
        assert_eq!(s.try_pop_once(), Ok(None), "empty pop observes empty");
        assert_eq!(s.try_push_once(9), Ok(()));
        assert_eq!(s.try_push_once(8), Ok(()));
        assert_eq!(s.try_pop_once(), Ok(Some(8)));
        assert_eq!(s.try_pop_once(), Ok(Some(9)));
        assert_eq!(s.try_pop_once(), Ok(None));
    }

    #[test]
    fn pop_burst_on_empty_stack_is_safe() {
        let iters = optik_harness::stress::ops(50_000);
        for (name, s) in implementations() {
            let mut handles = Vec::new();
            for _ in 0..8 {
                let s = Arc::clone(&s);
                handles.push(std::thread::spawn(move || {
                    for _ in 0..iters {
                        assert_eq!(s.pop(), None);
                    }
                }));
            }
            reclaim::offline_while(|| {
                for h in handles {
                    h.join().unwrap();
                }
            });
            assert!(s.is_empty(), "{name}");
        }
    }

    #[test]
    fn single_thread_matches_vec_model_all_impls() {
        let impls: Vec<(&str, Arc<dyn ConcurrentStack>)> = vec![
            ("treiber", Arc::new(TreiberStack::new())),
            ("optik", Arc::new(OptikStack::new())),
            ("elimination", Arc::new(crate::EliminationStack::new())),
        ];
        for (name, s) in impls {
            let mut model = Vec::new();
            let mut x = 0x2545F4914F6CDD1Du64;
            for _ in 0..10_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x % 3 != 0 {
                    s.push(x);
                    model.push(x);
                } else {
                    assert_eq!(s.pop(), model.pop(), "{name}");
                }
            }
            assert_eq!(s.len(), model.len(), "{name}");
        }
    }

    #[test]
    fn lifo_semantics() {
        for (name, s) in implementations() {
            assert_eq!(s.pop(), None, "{name}");
            s.push(1);
            s.push(2);
            s.push(3);
            assert_eq!(s.len(), 3, "{name}");
            assert_eq!(s.pop(), Some(3), "{name}");
            assert_eq!(s.pop(), Some(2), "{name}");
            s.push(4);
            assert_eq!(s.pop(), Some(4), "{name}");
            assert_eq!(s.pop(), Some(1), "{name}");
            assert!(s.is_empty(), "{name}");
        }
    }

    #[test]
    fn concurrent_push_pop_conserves_elements() {
        let iters = optik_harness::stress::ops(20_000);
        for (name, s) in implementations() {
            let mut handles = Vec::new();
            for t in 0..8u64 {
                let s = Arc::clone(&s);
                handles.push(std::thread::spawn(move || {
                    let mut net = 0i64;
                    let mut x = t.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                    for _ in 0..iters {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        if x % 2 == 0 {
                            s.push(x);
                            net += 1;
                        } else if s.pop().is_some() {
                            net -= 1;
                        }
                    }
                    net
                }));
            }
            let net: i64 =
                reclaim::offline_while(|| handles.into_iter().map(|h| h.join().unwrap()).sum());
            assert_eq!(s.len() as i64, net, "{name}");
        }
    }

    #[test]
    fn popped_values_are_never_duplicated() {
        let count = optik_harness::stress::ops(50_000);
        for (name, s) in implementations() {
            for i in 1..=count {
                s.push(i);
            }
            let seen = Arc::new(std::sync::Mutex::new(std::collections::HashSet::new()));
            let mut handles = Vec::new();
            for _ in 0..8 {
                let s = Arc::clone(&s);
                let seen = Arc::clone(&seen);
                handles.push(std::thread::spawn(move || {
                    let mut local = Vec::new();
                    while let Some(v) = s.pop() {
                        local.push(v);
                    }
                    let mut seen = seen.lock().unwrap();
                    for v in local {
                        assert!(seen.insert(v), "{v} popped twice");
                    }
                }));
            }
            reclaim::offline_while(|| {
                for h in handles {
                    h.join().unwrap();
                }
            });
            assert_eq!(seen.lock().unwrap().len(), count as usize, "{name}");
        }
    }
}
