//! Integration of the reclamation substrate with real data structures:
//! retired nodes are eventually freed, structures do not leak across heavy
//! churn, and offline marking keeps reclamation flowing.

use std::sync::Arc;

use optik_suite::harness::api::ConcurrentSet;
use optik_suite::harness::ConcurrentQueue;
use optik_suite::lists::OptikList;
use optik_suite::queues::MsLfQueue;

#[test]
fn global_domain_frees_list_churn() {
    let before = reclaim::global().stats();
    let list = OptikList::new();
    for round in 0..2_000u64 {
        let k = round % 64 + 1;
        list.insert(k, k);
        list.delete(k);
    }
    reclaim::with_local(|h| {
        h.flush();
        h.collect();
    });
    let after = reclaim::global().stats();
    let retired = after.retired - before.retired;
    assert!(retired >= 1_900, "deletes retired nodes: {retired}");
    // Freed counts monotonically increase; we cannot assert equality here
    // (other test threads may be registered), but progress must happen
    // once this thread quiesces repeatedly.
    let mut freed_progress = false;
    for _ in 0..10_000 {
        reclaim::quiescent();
        reclaim::with_local(|h| h.collect());
        let now = reclaim::global().stats();
        if now.freed > before.freed {
            freed_progress = true;
            break;
        }
        std::thread::yield_now();
    }
    assert!(freed_progress, "no reclamation progress at all");
}

#[test]
fn queue_churn_is_balanced_retire_wise() {
    let before = reclaim::global().stats();
    let q = MsLfQueue::new();
    for i in 0..5_000u64 {
        q.enqueue(i);
        assert_eq!(q.dequeue(), Some(i));
    }
    let after = reclaim::global().stats();
    // Every dequeue retires exactly one dummy.
    assert!(
        after.retired - before.retired >= 5_000,
        "retires: {}",
        after.retired - before.retired
    );
}

#[test]
fn many_short_lived_threads_do_not_exhaust_slots() {
    // Threads register implicitly on first use and unregister at exit;
    // hundreds of sequential short-lived threads must be fine.
    for batch in 0..20 {
        let list = Arc::new(OptikList::new());
        let mut handles = Vec::new();
        for t in 0..32u64 {
            let list = Arc::clone(&list);
            handles.push(std::thread::spawn(move || {
                let k = batch * 100 + t + 1;
                list.insert(k, k);
                assert_eq!(list.delete(k), Some(k));
            }));
        }
        reclaim::offline_while(|| {
            for h in handles {
                h.join().unwrap();
            }
        });
        assert!(list.is_empty());
    }
    assert!(
        reclaim::global().stats().registered <= reclaim::MAX_THREADS,
        "slots must be recycled"
    );
}

#[test]
fn qsbr_survives_register_unregister_churn_while_retiring() {
    // The ROADMAP reclamation gap: threads registering and unregistering
    // *while* other threads retire nodes. Two long-lived retirer threads
    // churn an OptikList (every delete retires a node); meanwhile waves of
    // short-lived threads register implicitly (first operation) and
    // unregister at exit. Slot recycling, retirement, and reclamation
    // progress must all survive the churn.
    use std::sync::atomic::{AtomicBool, Ordering};

    let rounds = optik_suite::harness::stress::ops(4_000);
    let before = reclaim::global().stats();
    let list = Arc::new(OptikList::new());
    let stop = Arc::new(AtomicBool::new(false));
    let mut retirers = Vec::new();
    for t in 0..2u64 {
        let list = Arc::clone(&list);
        let stop = Arc::clone(&stop);
        retirers.push(std::thread::spawn(move || {
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let k = (t * 97 + n) % 64 + 1;
                list.insert(k, k);
                list.delete(k);
                n += 1;
            }
            n
        }));
    }
    reclaim::offline_while(|| {
        // Waves of short-lived threads: register/unregister churn.
        for wave in 0..rounds / 100 {
            let mut short = Vec::new();
            for t in 0..8u64 {
                let list = Arc::clone(&list);
                short.push(std::thread::spawn(move || {
                    let k = 1000 + wave * 10 + t;
                    list.insert(k, k);
                    assert_eq!(list.delete(k), Some(k));
                }));
            }
            for h in short {
                h.join().unwrap();
            }
        }
        stop.store(true, Ordering::Relaxed);
        let churned: u64 = retirers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(churned > 0, "retirers made progress");
    });
    // Thread slots were recycled, nodes were retired, and reclamation
    // actually freed some of them despite the churn.
    let after = reclaim::global().stats();
    assert!(
        after.registered <= reclaim::MAX_THREADS,
        "slots recycled: {}",
        after.registered
    );
    assert!(after.retired > before.retired, "churn retired nodes");
    let mut freed_progress = false;
    for _ in 0..10_000 {
        reclaim::quiescent();
        reclaim::with_local(|h| {
            h.flush();
            h.collect();
        });
        if reclaim::global().stats().freed > before.freed {
            freed_progress = true;
            break;
        }
        std::thread::yield_now();
    }
    assert!(freed_progress, "no reclamation progress under churn");
}

#[test]
fn node_pool_growth_is_bounded_under_contention() {
    // NodePool growth behaviour (ROADMAP gap), in two parts.
    use reclaim::{NodePool, Qsbr};
    use std::sync::atomic::AtomicU64;

    #[derive(Default)]
    struct Node {
        _key: AtomicU64,
    }

    const CHUNK: usize = 64;
    const LIVE: usize = 16;

    // Part 1 (deterministic): with a single registered thread every
    // `quiescent()` completes a grace period, so with ≤LIVE live nodes the
    // pool's reserved capacity must plateau at a couple of chunks no
    // matter how many allocations flow through it.
    {
        let domain = Qsbr::new();
        let pool: Arc<NodePool<Node>> = NodePool::with_chunk_capacity(CHUNK);
        let h = domain.register();
        for _ in 0..1_000 {
            let ptrs: Vec<_> = (0..LIVE).map(|_| pool.alloc(Node::default).ptr).collect();
            for p in ptrs {
                // SAFETY: allocated above, never published, retired once.
                unsafe { pool.retire(p, &h) };
            }
            h.quiescent();
            h.collect();
        }
        assert_eq!(pool.allocations(), 16_000);
        assert!(
            pool.capacity() <= 4 * CHUNK,
            "single-thread churn must plateau: capacity {}",
            pool.capacity()
        );
        assert!(
            pool.recycle_hits() > pool.allocations() / 2,
            "recycling dominates: {} of {}",
            pool.recycle_hits(),
            pool.allocations()
        );
    }

    // Part 2 (contention): several threads churn concurrently; capacity may
    // transiently grow with grace-period backlog, but once the threads
    // unregister and the orphan batches drain, the free list must absorb a
    // fresh allocation burst with ZERO new growth — proving the slots were
    // recycled, not leaked.
    const THREADS: usize = 4;
    let rounds = optik_suite::harness::stress::ops(2_000);
    let domain = Qsbr::new();
    let pool: Arc<NodePool<Node>> = NodePool::with_chunk_capacity(CHUNK);
    let mut workers = Vec::new();
    for _ in 0..THREADS {
        let domain = Arc::clone(&domain);
        let pool = Arc::clone(&pool);
        workers.push(std::thread::spawn(move || {
            let h = domain.register();
            for _ in 0..rounds {
                let ptrs: Vec<_> = (0..LIVE).map(|_| pool.alloc(Node::default).ptr).collect();
                for p in ptrs {
                    // SAFETY: allocated above, never published, retired once.
                    unsafe { pool.retire(p, &h) };
                }
                h.quiescent();
            }
        }));
    }
    for w in workers {
        w.join().unwrap();
    }
    // Drain: with all workers unregistered, a fresh handle's quiescent
    // points overtake every orphaned batch (bounded loop: multi-grace
    // retirement protocols may need a few passes). Gate on `in_grace`,
    // not `free_len()`: fresh slots stranded in exited workers'
    // magazines count as free but are only adoptable by a thread that
    // inherits the registry index — this thread's refill path cannot
    // reach them. Once nothing is awaiting grace, every *recycled* slot
    // was released through this thread (the only collector), so it sits
    // in this thread's magazines or the depot — both reachable by the
    // burst below.
    let h = domain.register();
    let burst = THREADS * LIVE;
    for _ in 0..10_000 {
        h.quiescent();
        h.collect();
        if pool.stats().in_grace == 0 {
            break;
        }
        std::thread::yield_now();
    }
    let drained = pool.stats();
    assert_eq!(
        drained.in_grace, 0,
        "drain left slots in grace: {drained:?}"
    );
    assert!(
        pool.free_len() >= burst,
        "drain left only {} free slots",
        pool.free_len()
    );
    // The no-leak proof is the ledger, not capacity: every slot the
    // workers ever allocated is back in a magazine or the depot
    // (live() counts capacity minus every free bucket, so 0 means
    // nothing leaked and nothing is still in flight).
    assert_eq!(drained.live(), 0, "slots leaked: {drained:?}");
    // A fresh burst from THIS thread may still grow the pool by one
    // batch: the recycled slots sit in the exited workers' magazines,
    // reachable only by threads that inherit those registry indexes
    // (per-thread caching is the point — there is no cross-thread
    // steal). The bound that must hold is one refill batch, not zero.
    let cap_drained = pool.capacity();
    let fresh: Vec<_> = (0..burst).map(|_| pool.alloc(Node::default).ptr).collect();
    assert!(
        pool.capacity() <= cap_drained + CHUNK,
        "a {burst}-node burst grew a drained pool by more than one batch: {} -> {}",
        cap_drained,
        pool.capacity()
    );
    for p in fresh {
        // SAFETY: allocated above, never published.
        unsafe { pool.dealloc_unpublished(p) };
    }
}

#[test]
fn offline_sections_do_not_break_operations() {
    let list = OptikList::new();
    list.insert(1, 10);
    reclaim::offline_while(|| {
        // No data-structure calls in here — just blocking-style work.
        std::thread::sleep(std::time::Duration::from_millis(5));
    });
    // Back online: operations work normally.
    assert_eq!(list.search(1), Some(10));
    assert_eq!(list.delete(1), Some(10));
}

// ---------------------------------------------------------------------------
// Use-after-recycle stress: a reader's nodes keep their identity until the
// reader's own quiescent point.
// ---------------------------------------------------------------------------

/// A direct-mapped table of pooled nodes, churned by every thread. Each
/// node carries a generation that is re-stamped on every allocation, so a
/// slot recycled while a reader still holds it cannot go unnoticed: the
/// reader re-checks `(key, generation)` of everything it reached right
/// before it announces quiescence. Threads also go offline, come back,
/// and drop and re-register their handles mid-run, which is where a
/// grace period has to get the coming-online race right.
fn readers_never_see_a_recycled_node(threads: u64) {
    use reclaim::{NodePool, Qsbr};
    use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

    #[derive(Default)]
    struct Node {
        key: AtomicU64,
        generation: AtomicU64,
    }

    const BUCKETS: u64 = 64;
    /// Nodes a reader holds before it re-checks them and quiesces.
    const HELD: usize = 6;

    let seed = synchro::stress::seed();
    eprintln!("stress seed: {seed:#018x} (set STRESS_SEED={seed:#x} to reproduce)");
    let ops = synchro::stress::ops(2_000_000);

    let domain = Qsbr::new();
    // Small chunks and magazines: freed slots come back within a few ops.
    let pool: Arc<NodePool<Node>> = NodePool::with_config(32, 4);
    let table: Vec<AtomicPtr<Node>> = (0..BUCKETS).map(|_| AtomicPtr::default()).collect();

    std::thread::scope(|s| {
        for t in 0..threads {
            let (domain, pool, table) = (&domain, &pool, &table);
            s.spawn(move || {
                let mut h = domain.register();
                let mut x = (seed ^ (t + 1).wrapping_mul(0x9E3779B97F4A7C15)) | 1;
                let mut stamped = 0u64;
                let mut held: Vec<(*mut Node, u64, u64)> = Vec::with_capacity(HELD);
                for op in 0..ops {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let bucket = x % BUCKETS;
                    let cell = &table[bucket as usize];
                    if x >> 32 & 1 == 0 {
                        // Replace the bucket's node; the old one is unlinked
                        // by the swap and retired by whoever swapped it out.
                        stamped += 1;
                        let generation = (t + 1) << 48 | stamped;
                        let key = x >> 8 & !(BUCKETS - 1) | bucket;
                        let fresh = pool.alloc(Node::default).ptr;
                        // SAFETY: ours until published; the fields are
                        // atomics, as the pool contract wants for nodes that
                        // stale pointers may inspect.
                        unsafe {
                            (*fresh).key.store(key, Ordering::Relaxed);
                            (*fresh).generation.store(generation, Ordering::Relaxed);
                        }
                        let old = cell.swap(fresh, Ordering::AcqRel);
                        if !old.is_null() {
                            // SAFETY: came from this pool, unreachable since
                            // the swap, and only the swapper retires it.
                            unsafe { pool.retire(old, &h) };
                        }
                    }
                    let p = cell.load(Ordering::Acquire);
                    if !p.is_null() {
                        // SAFETY: pool slots are type-stable; whether the
                        // node is still *this* node is what is being tested.
                        let (key, generation) = unsafe {
                            (
                                (*p).key.load(Ordering::Relaxed),
                                (*p).generation.load(Ordering::Relaxed),
                            )
                        };
                        assert_eq!(
                            key % BUCKETS,
                            bucket,
                            "bucket {bucket} reached a node of another; STRESS_SEED={seed:#x}"
                        );
                        held.push((p, key, generation));
                    }
                    if held.len() < HELD {
                        continue;
                    }
                    for (p, key, generation) in held.drain(..) {
                        // SAFETY: as above.
                        let now = unsafe {
                            (
                                (*p).key.load(Ordering::Relaxed),
                                (*p).generation.load(Ordering::Relaxed),
                            )
                        };
                        assert_eq!(
                            now,
                            (key, generation),
                            "thread {t} op {op}: node recycled under a reader that had not \
                             quiesced; STRESS_SEED={seed:#x}"
                        );
                    }
                    h.quiescent();
                    match x >> 40 & 0xff {
                        0 => {
                            h.offline();
                            std::thread::yield_now();
                            h.online();
                        }
                        1 => {
                            drop(h);
                            h = domain.register();
                        }
                        2 => h.flush(),
                        _ => {}
                    }
                }
            });
        }
    });

    // Every handle is gone: retire what the table still holds and check
    // that both ledgers close.
    let h = domain.register();
    for cell in &table {
        let p = cell.swap(std::ptr::null_mut(), Ordering::AcqRel);
        if !p.is_null() {
            // SAFETY: unlinked by the swap, retired once.
            unsafe { pool.retire(p, &h) };
        }
    }
    drop(h);
    let (qsbr, slots) = (domain.stats(), pool.stats());
    assert_eq!(qsbr.retired, qsbr.freed, "{qsbr:?}; STRESS_SEED={seed:#x}");
    assert_eq!(slots.in_grace, 0, "{slots:?}; STRESS_SEED={seed:#x}");
    assert_eq!(slots.live(), 0, "{slots:?}; STRESS_SEED={seed:#x}");
}

#[test]
fn readers_never_see_a_recycled_node_2_threads() {
    readers_never_see_a_recycled_node(2);
}

#[test]
fn readers_never_see_a_recycled_node_4_threads() {
    readers_never_see_a_recycled_node(4);
}
