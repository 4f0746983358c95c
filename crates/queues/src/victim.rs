//! The victim-queue design (*optik3*, §5.4).
//!
//! "The enqueue implementation utilizes the `optik_num_queued` function of
//! OPTIK locks (on top of ticket locks). If the number of waiting nodes is
//! large (e.g., more than two in our implementation), then the thread
//! performs the insertion in a secondary *victim queue*, instead of
//! waiting behind the lock. The first thread to put a node in the empty
//! victim queue is responsible for linking the victim queue to the main
//! one. ... Operations that utilize the victim queue have to wait until
//! the victim queue has been emptied, thus their elements are visible in
//! the main queue. This waiting ensures that they can be linearized
//! properly."
//!
//! Concretely:
//!
//! - `vq_tail` is an atomic pointer; appenders `swap` themselves in and
//!   link `prev.next = self`. An appender whose swap returned null opened
//!   a fresh batch and becomes that batch's **linker**.
//! - The linker acquires the main tail lock (an [`OptikTicket`], whose
//!   queue length drives the victim decision), closes the batch
//!   (`vq_tail.swap(null)` — later appenders start a new batch), waits for
//!   all intra-batch links, splices the batch onto the main queue, then
//!   flips each batch node's `visible` flag.
//! - Non-linker appenders spin on their own node's `visible` flag before
//!   returning, preserving per-producer FIFO order.
//!
//! The dequeue side is optik2's `try_lock_version` dequeue.

use std::sync::atomic::{AtomicPtr, Ordering};

use optik::{OptikLock, OptikTicket, OptikVersioned};
use synchro::{Backoff, CachePadded};

use crate::node::{queue_pool, Node, QueuePool};
use crate::{ConcurrentQueue, Val};

/// Queue-length threshold beyond which enqueues divert to the victim queue
/// ("more than two in our implementation").
pub const VICTIM_THRESHOLD: u32 = 2;

/// The victim-queue MS variant (*optik3*).
pub struct VictimQueue {
    head_lock: CachePadded<OptikVersioned>,
    tail_lock: CachePadded<OptikTicket>,
    head: CachePadded<AtomicPtr<Node>>,
    tail: CachePadded<AtomicPtr<Node>>,
    vq_tail: CachePadded<AtomicPtr<Node>>,
    threshold: u32,
    pool: QueuePool,
}

// SAFETY: head updates via the OPTIK lock; tail updates under the ticket
// lock (incl. batch splicing); victim-batch membership via atomic swaps.
unsafe impl Send for VictimQueue {}
unsafe impl Sync for VictimQueue {}

impl VictimQueue {
    /// Creates an empty queue with the paper's threshold.
    pub fn new() -> Self {
        Self::with_threshold(VICTIM_THRESHOLD)
    }

    /// Creates an empty queue diverting to the victim queue once more than
    /// `threshold` threads hold or wait for the tail lock (ablation knob).
    pub fn with_threshold(threshold: u32) -> Self {
        let pool = queue_pool();
        let dummy = pool.alloc_init(|| Node::make(0));
        Self {
            head_lock: CachePadded::new(OptikVersioned::new()),
            tail_lock: CachePadded::new(OptikTicket::new()),
            head: CachePadded::new(AtomicPtr::new(dummy)),
            tail: CachePadded::new(AtomicPtr::new(dummy)),
            vq_tail: CachePadded::new(AtomicPtr::new(std::ptr::null_mut())),
            threshold,
            pool,
        }
    }

    /// Appends `first..=last` (a fully linked chain) to the main queue.
    /// Caller holds the tail lock.
    ///
    /// # Safety
    ///
    /// Chain nodes are exclusively owned by the splice (unreachable
    /// elsewhere); tail lock held.
    unsafe fn splice_locked(&self, first: *mut Node, last: *mut Node) {
        // SAFETY: per contract.
        unsafe {
            let tail = self.tail.load(Ordering::Relaxed);
            (*tail).next.store(first, Ordering::Release);
            self.tail.store(last, Ordering::Release);
        }
    }
}

impl Default for VictimQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentQueue for VictimQueue {
    fn enqueue(&self, val: Val) {
        reclaim::quiescent();
        let node = self.pool.alloc_init(|| Node::make(val));
        // Fast path: low contention — plain lock-based enqueue.
        if self.tail_lock.num_queued() <= self.threshold {
            let _v = self.tail_lock.lock();
            // SAFETY: tail lock held.
            unsafe { self.splice_locked(node, node) };
            self.tail_lock.unlock();
            return;
        }
        // Victim path: join the current batch.
        let prev = self.vq_tail.swap(node, Ordering::AcqRel);
        if !prev.is_null() {
            // SAFETY: `prev` is the batch predecessor; it stays alive at
            // least until its own visible flag is set (its owner spins).
            // `node` stays alive while we hold a reference (QSBR).
            unsafe {
                (*prev).next.store(node, Ordering::Release);
                // Wait until the batch linker made us visible in the main
                // queue (preserves per-producer FIFO).
                while !(*node).visible.load(Ordering::Acquire) {
                    synchro::relax();
                }
            }
            return;
        }
        // We opened the batch: we are the linker.
        let _v = self.tail_lock.lock();
        // Close the batch: subsequent appenders start a new one.
        let last = self.vq_tail.swap(std::ptr::null_mut(), Ordering::AcqRel);
        debug_assert!(!last.is_null(), "we put at least one node in");
        // Wait for intra-batch links to materialize, counting nodes.
        // SAFETY: batch nodes are alive (their owners spin on `visible`).
        unsafe {
            let mut cur = node;
            while cur != last {
                let mut next = (*cur).next.load(Ordering::Acquire);
                while next.is_null() {
                    synchro::relax();
                    next = (*cur).next.load(Ordering::Acquire);
                }
                cur = next;
            }
            // Splice [node..=last] into the main queue.
            self.splice_locked(node, last);
            self.tail_lock.unlock();
            // Publish visibility to the waiting appenders (ours included;
            // nobody waits on it, but keep the invariant uniform).
            let mut cur = node;
            loop {
                let next = (*cur).next.load(Ordering::Acquire);
                (*cur).visible.store(true, Ordering::Release);
                if cur == last {
                    break;
                }
                cur = next;
            }
        }
    }

    fn dequeue(&self) -> Option<Val> {
        reclaim::quiescent();
        let mut bo = Backoff::adaptive();
        loop {
            let v = self.head_lock.get_version();
            if OptikVersioned::is_locked_version(v) {
                synchro::relax();
                continue;
            }
            // SAFETY: grace period.
            unsafe {
                let dummy = self.head.load(Ordering::Acquire);
                let next = (*dummy).next.load(Ordering::Acquire);
                if next.is_null() {
                    return None;
                }
                let val = (*next).val;
                if self.head_lock.try_lock_version(v) {
                    self.head.store(next, Ordering::Release);
                    self.head_lock.unlock();
                    // SAFETY: dummy unreachable; retired once.
                    reclaim::with_local(|h| self.pool.retire(dummy, h));
                    return Some(val);
                }
                bo.backoff();
            }
        }
    }

    fn len(&self) -> usize {
        reclaim::quiescent();
        // SAFETY: grace-period traversal (victim batches not counted until
        // spliced — they are not yet linearized).
        unsafe {
            let mut n = 0;
            let mut cur = (*self.head.load(Ordering::Acquire))
                .next
                .load(Ordering::Acquire);
            while !cur.is_null() {
                n += 1;
                cur = (*cur).next.load(Ordering::Acquire);
            }
            n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_basics_via_fast_path() {
        let q = VictimQueue::new();
        for i in 1..=20u64 {
            q.enqueue(i);
        }
        for i in 1..=20u64 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn victim_path_under_heavy_enqueue_contention() {
        // Many enqueuers force num_queued over the threshold so the victim
        // path gets exercised; the final drain must see every element.
        let q = Arc::new(VictimQueue::new());
        const THREADS: u64 = 12;
        const PER: u64 = 20_000;
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER {
                    q.enqueue((t << 32) | i);
                }
            }));
        }
        reclaim::offline_while(|| {
            for h in handles {
                h.join().unwrap();
            }
        });
        assert_eq!(q.len() as u64, THREADS * PER);
        // Single-threaded drain: per-producer order must hold.
        let mut last = [-1i64; THREADS as usize];
        while let Some(v) = q.dequeue() {
            let p = (v >> 32) as usize;
            let i = (v & 0xFFFF_FFFF) as i64;
            assert!(
                i > last[p],
                "producer {p} out of order: {i} after {}",
                last[p]
            );
            last[p] = i;
        }
        assert!(last.iter().all(|&l| l == PER as i64 - 1));
    }

    #[test]
    fn mixed_enqueue_dequeue_with_victims() {
        let q = Arc::new(VictimQueue::new());
        for i in 0..500u64 {
            q.enqueue(i);
        }
        let mut handles = Vec::new();
        for t in 0..10u64 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                let mut net = 0i64;
                let mut x = t.wrapping_mul(0xD1342543DE82EF95) | 1;
                for _ in 0..15_000u64 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    if x % 5 < 3 {
                        q.enqueue(x);
                        net += 1;
                    } else if q.dequeue().is_some() {
                        net -= 1;
                    }
                }
                net
            }));
        }
        let net: i64 =
            reclaim::offline_while(|| handles.into_iter().map(|h| h.join().unwrap()).sum());
        assert_eq!(q.len() as i64, 500 + net);
    }
}
