//! The canonical scenario registry: every figure and ablation of the
//! reproduction, registered once.
//!
//! This is the single place where a data structure meets the paper's §5
//! methodology. Registering a scenario here gets it benchmarked by
//! `bench_all` (with JSON reports and baseline comparison; `bench_all
//! fig9` runs one family). Each scenario names the structure it measures
//! by subject id, a row of [`crate::subjects::table`]; the correctness
//! tiers in `tests/` check every row of that table, not the scenarios.
//!
//! Scenario names follow `family.group.series` (see
//! [`optik_harness::scenario`]); [`group_blurb`] carries the human table
//! header `bench_all` prints above each group's sweep.

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use reclaim::NodePool;

use optik::{OptikLock, OptikTicket, OptikVersioned, ValidatedLock};
use optik_harness::api::{ConcurrentMap, OrderedMap};
use optik_harness::runner::{measure, run_set_workload};
use optik_harness::scenario::{Measurement, Registry, RunSpec, Scenario};
use optik_harness::{ConcurrentSet, SetHandle, Workload};

use optik_bsts::{GlobalLockBst, OptikBst, OptikGlBst};
use optik_hashtables::{
    LazyGlHashTable, OptikGlHashTable, OptikHashTable, OptikMapHashTable,
    ResizableStripedHashTable, StripedHashTable, StripedOptikHashTable,
};
use optik_kv::{KvStore, SystemClock};
use optik_lists::{
    GlobalLockList, HarrisList, LazyCacheList, LazyList, OptikCacheList, OptikGlList, OptikList,
};
use optik_maps::{LockArrayMap, OptikArrayMap};
use optik_queues::{MsLbQueue, MsLfQueue, OptikQueue0, OptikQueue1, OptikQueue2, VictimQueue};
use optik_skiplists::{
    FraserSkipList, HerlihyOptikSkipList, HerlihySkipList, OptikSkipList1, OptikSkipList2,
};
use optik_stacks::{EliminationStack, OptikStack, TreiberStack};

use crate::kv::{run_kv, KeyOrder, KvMix, Ordered, Unordered};

/// Builds the full registry (163 scenarios across 16 families).
pub fn registry() -> Registry {
    let mut r = Registry::new();
    fig5(&mut r);
    fig7(&mut r);
    fig9(&mut r);
    fig10(&mut r);
    fig11(&mut r);
    fig12(&mut r);
    bst(&mut r);
    stacks(&mut r);
    alloc(&mut r);
    kv(&mut r);
    kv_range(&mut r);
    kv_ttl(&mut r);
    kv_rebalance(&mut r);
    map_ordered(&mut r);
    probe_overhead(&mut r);
    ablate_base_lock(&mut r);
    ablate_node_cache(&mut r);
    ablate_resize(&mut r);
    ablate_victim(&mut r);
    r
}

/// Human description of a group (the table header `bench_all` prints above
/// each thread sweep).
pub fn group_blurb(group: &str) -> &'static str {
    match group {
        "fig5" => "validated lock acquisitions: ttas vs optik-ticket vs optik-versioned",
        "fig7.small" => "Small map (4 slots), 10% effective updates",
        "fig7.large" => "Large map (1024 slots), 10% effective updates",
        "fig9.large" => "Large list (8192 elements), 20% effective updates",
        "fig9.medium" => "Medium list (1024 elements), 20% effective updates",
        "fig9.small" => "Small list (64 elements), 20% effective updates",
        "fig9.large-skew" => "Large skewed list (8192 elements, zipf a=0.9), 20% effective updates",
        "fig9.small-skew" => "Small skewed list (64 elements, zipf a=0.9), 20% effective updates",
        "fig10.medium" => "Medium table (8192 elements, 8192 buckets), 20% effective updates",
        "fig10.small-skew" => {
            "Small skewed table (512 elements, 512 buckets, zipf a=0.9), 20% effective updates"
        }
        "fig11.large-skew" => {
            "Large skewed skip list (65536 elements, zipf a=0.9), 20% effective updates"
        }
        "fig11.small-skew" => {
            "Small skewed skip list (1024 elements, zipf a=0.9), 20% effective updates"
        }
        "fig12.dec" => "Decreasing size (40% enq / 60% deq), 65536 initial elements",
        "fig12.stable" => "Stable size (50% enq / 50% deq), 65536 initial elements",
        "fig12.inc" => "Increasing size (60% enq / 40% deq), 65536 initial elements",
        "bst.large" => "Large BST (16384 elements), 20% effective updates",
        "bst.medium" => "Medium BST (2048 elements), 20% effective updates",
        "bst.small" => "Small BST (128 elements), 20% effective updates",
        "bst.small-skew" => "Small skewed BST (128 elements, zipf a=0.9), 20% effective updates",
        "stacks" => "Treiber vs OPTIK vs elimination stack (50/50 push/pop, 1024 prefill)",
        "alloc.churn" => {
            "Allocation churn, thread-private recirculation (alloc -> publish -> retire; \
             pool magazines vs boxed malloc/free)"
        }
        "alloc.xthread" => {
            "Allocation churn, cross-thread recirculation (threads displace each other's \
             nodes; retired slots flow through the depot)"
        }
        "kv.read-heavy" => {
            "kv store, read-heavy (8192 entries, zipf a=0.9, 90% get / 5% put / 5% remove, 8 shards)"
        }
        "kv.write-heavy" => {
            "kv store, write-heavy (8192 entries, uniform, 40% get / 30% put / 30% remove, 8 \
             shards); per-shard op counters are `CachePadded` — single-thread rows \
             unchanged within box noise (padding pays only under cross-core false \
             sharing, absent on the 1-core baseline host)"
        }
        "kv.hash-ordered" => {
            "kv write-heavy mix over OPTIK skip-list shards behind hash routing: the \
             registry's hash-sharded ranged subject, whose range scans visit every shard"
        }
        "kv.batch" => {
            "kv store, batched (8192 entries, uniform, 25% multi-get + 25% batched writes of 8 keys, 8 shards)"
        }
        "kv.scan" => {
            "kv store with snapshot scans (1024 entries, zipf a=0.9, 1% scans + 20% updates, 8 shards)"
        }
        "kv.small" => "kv store, small + read-heavy (256 entries, 16 shards) over bucketed array-map shards",
        "kv.multiget" => {
            "kv multi-get heavy (8192 entries, uniform, 50% 16-key multi-gets + 10% writes, \
             8 shards): shard-grouped multi_get (route once, one validated OPTIK window per \
             involved shard, allocation-free planning)"
        }
        "kv.shards" => {
            "kv shard-count ablation (striped-optik backend, read-heavy zipf, 1..32 shards)"
        }
        "kv.range" => {
            "kv range scans over ordered-sharded skiplist shards (8192 entries, 5% 128-key \
             windows + 20% updates, 8 contiguous partitions)"
        }
        "kv.ttl" => {
            "kv store with native TTL (8192 entries, 15% 30ms-TTL puts + 10% updates + 1% \
             expiry sweeps, wall-clock ticks, 8 shards)"
        }
        "kv.rebalance" => {
            "kv online range-partition rebalancing (8192 entries, zipf a=0.9 over contiguous \
             partitions, 3% 128-key windows + 20% updates + 0.2% rebalance rounds, 8 shards)"
        }
        "map.ordered" => {
            "Ordered backends as value-carrying maps (1024 entries, zipf): 20% in-place \
             upserts/removes, 2% validated 64-key range scans"
        }
        "probe.overhead" => {
            "Probe hook-site overhead A/B: identical validated-acquisition loops, \
             `bare` with only the built-in hooks vs `hooked` with extra explicit \
             probe calls per op (equal throughput in a probe-disabled build is \
             the zero-cost check)"
        }
        "ablate-base-lock" => {
            "optik-gl list: versioned vs ticket base lock (128 elements, 20% updates)"
        }
        "ablate-node-cache.64" => "Node caching on the small list (64 elements, 20% updates)",
        "ablate-node-cache.1024" => "Node caching on the medium list (1024 elements, 20% updates)",
        "ablate-node-cache.8192" => "Node caching on the large list (8192 elements, 20% updates)",
        "ablate-resize" => {
            "Fixed vs per-segment-resizable striped tables (8192 elements, 20% updates)"
        }
        "ablate-victim" => "Victim-queue threshold sweep (60% enqueues, 65536 initial elements)",
        _ => "",
    }
}

// ---------------------------------------------------------------------------
// Figure 5: raw validated lock acquisitions.
// ---------------------------------------------------------------------------

/// One validated acquisition per op, counting CAS attempts per
/// validation; `acquire` performs the acquisition and returns its CAS
/// count.
fn validated_lock_run(spec: &RunSpec, acquire: impl Fn() -> u64 + Sync) -> Measurement {
    let (m, cas) = measure(
        spec,
        |_| 0u64,
        |cas, _, _| {
            *cas += acquire();
            1
        },
        |cas| cas,
    );
    let cas: u64 = cas.iter().sum();
    let per_validation = cas as f64 / m.ops.max(1) as f64;
    m.with_extra("cas_per_validation", per_validation)
}

fn optik_lock_scenario<L: OptikLock + 'static>(name: &str, about: &str, id: &str) -> Scenario {
    Scenario::custom(name, about, id, |spec| {
        let lock = L::default();
        validated_lock_run(spec, || {
            let mut cas = 0;
            loop {
                let v = lock.get_version();
                if L::is_locked_version(v) {
                    synchro::relax();
                    continue;
                }
                let (ok, c) = lock.try_lock_version_counting(v);
                cas += u64::from(c);
                if ok {
                    lock.unlock();
                    return cas;
                }
            }
        })
    })
}

fn fig5(r: &mut Registry) {
    let about = "Fig 5: one validated acquisition per op; both OPTIK locks are \
                 identical and >10x the TTAS+version straw man under contention";
    r.register(Scenario::custom("fig5.ttas", about, "lock/ttas", |spec| {
        let lock = ValidatedLock::new();
        validated_lock_run(spec, || {
            let mut cas = 0;
            loop {
                let v = lock.get_version();
                let (ok, c) = lock.lock_and_validate_counting(v);
                cas += u64::from(c);
                if ok {
                    lock.commit_unlock();
                    return cas;
                }
            }
        })
    }));
    r.register(optik_lock_scenario::<OptikTicket>(
        "fig5.optik-ticket",
        about,
        "lock/optik-ticket",
    ));
    r.register(optik_lock_scenario::<OptikVersioned>(
        "fig5.optik-versioned",
        about,
        "lock/optik-versioned",
    ));
}

// ---------------------------------------------------------------------------
// Figure 7: array maps.
// ---------------------------------------------------------------------------

fn fig7(r: &mut Registry) {
    for (suffix, slots) in [("small", 4u64), ("large", 1024)] {
        let w = Workload::paper(slots, 10, false);
        r.register(Scenario::set(
            &format!("fig7.{suffix}.mcs"),
            "Fig 7: every operation behind a global MCS lock (paper baseline)",
            "map/mcs",
            w.clone(),
            move || LockArrayMap::new(slots as usize),
        ));
        r.register(Scenario::set(
            &format!("fig7.{suffix}.optik"),
            "Fig 7: OPTIK map — lock-free searches, unsynchronized infeasible \
             updates; ~4.7x mcs on the small map, ~1.4x on the large",
            "map/optik",
            w,
            move || OptikArrayMap::<OptikVersioned>::new(slots as usize),
        ));
    }
}

// ---------------------------------------------------------------------------
// Figure 9: linked lists.
// ---------------------------------------------------------------------------

/// Node-caching list scenario (per-thread handles hold the cache).
fn optik_cache_scenario(name: &str, about: &str, w: Workload) -> Scenario {
    Scenario::custom(name, about, "list/optik-cache", move |spec| {
        let set = OptikCacheList::new();
        w.initial_fill(spec.seed, |k, v| set.insert(k, v));
        run_set_workload(spec, &w, |_| set.handle())
    })
}

fn lazy_cache_scenario(name: &str, about: &str, w: Workload) -> Scenario {
    Scenario::custom(name, about, "list/lazy-cache", move |spec| {
        let set = LazyCacheList::new();
        w.initial_fill(spec.seed, |k, v| set.insert(k, v));
        run_set_workload(spec, &w, |_| set.handle())
    })
}

fn fig9(r: &mut Registry) {
    let about = "Fig 9: node caching helps (~50%/15% on large/small); optik-gl > \
                 mcs-gl-opt everywhere; fine-grained optik ~= lazy/harris at low \
                 contention and ahead of lazy on small/skewed lists";
    for (suffix, size, skewed) in [
        ("large", 8192u64, false),
        ("medium", 1024, false),
        ("small", 64, false),
        ("large-skew", 8192, true),
        ("small-skew", 64, true),
    ] {
        let w = Workload::paper(size, 20, skewed);
        let name = |series: &str| format!("fig9.{suffix}.{series}");
        r.register(Scenario::set(
            &name("harris"),
            about,
            "list/harris",
            w.clone(),
            HarrisList::new,
        ));
        r.register(Scenario::set(
            &name("lazy"),
            about,
            "list/lazy",
            w.clone(),
            LazyList::new,
        ));
        r.register(lazy_cache_scenario(&name("lazy-cache"), about, w.clone()));
        r.register(Scenario::set(
            &name("mcs-gl-opt"),
            about,
            "list/mcs-gl-opt",
            w.clone(),
            GlobalLockList::new,
        ));
        r.register(Scenario::set(
            &name("optik-gl"),
            about,
            "list/optik-gl",
            w.clone(),
            OptikGlList::<OptikVersioned>::new,
        ));
        r.register(Scenario::set(
            &name("optik"),
            about,
            "list/optik",
            w.clone(),
            OptikList::new,
        ));
        r.register(optik_cache_scenario(&name("optik-cache"), about, w));
    }
}

// ---------------------------------------------------------------------------
// Figure 10: hash tables.
// ---------------------------------------------------------------------------

fn fig10(r: &mut Registry) {
    let about = "Fig 10: optik-gl fastest overall (~2x lazy-gl, 3.7x on \
                 small-skewed); optik ~9% behind optik-gl; java-optik helps only \
                 under contention; optik-map wins once tables are large";
    for (suffix, size, skewed) in [("medium", 8192u64, false), ("small-skew", 512, true)] {
        let w = Workload::paper(size, 20, skewed);
        let buckets = size as usize; // paper: one element per bucket
        let name = |series: &str| format!("fig10.{suffix}.{series}");
        r.register(Scenario::set(
            &name("lazy-gl"),
            about,
            "ht/lazy-gl",
            w.clone(),
            move || LazyGlHashTable::new(buckets),
        ));
        r.register(Scenario::set(
            &name("java"),
            about,
            "ht/java",
            w.clone(),
            move || StripedHashTable::with_default_segments(buckets),
        ));
        r.register(Scenario::set(
            &name("java-optik"),
            about,
            "ht/java-optik",
            w.clone(),
            move || StripedOptikHashTable::with_default_segments(buckets),
        ));
        r.register(Scenario::set(
            &name("optik"),
            about,
            "ht/optik",
            w.clone(),
            move || OptikHashTable::new(buckets),
        ));
        r.register(Scenario::set(
            &name("optik-gl"),
            about,
            "ht/optik-gl",
            w.clone(),
            move || OptikGlHashTable::new(buckets),
        ));
        r.register(Scenario::set(
            &name("optik-map"),
            about,
            "ht/optik-map",
            w,
            // Bucket capacity 8 keeps overflow probability negligible at
            // load factor 1 while preserving the contiguous layout.
            move || OptikMapHashTable::with_bucket_capacity(buckets, 8),
        ));
    }
}

// ---------------------------------------------------------------------------
// Figure 11: skip lists.
// ---------------------------------------------------------------------------

fn fig11(r: &mut Registry) {
    let about = "Fig 11: all ~equal at low contention; herl-optik >= herlihy \
                 (fewer restarts); optik2 > optik1 under skew and ~10% over \
                 fraser at peak, but drops under multiprogramming";
    for (suffix, size) in [("large-skew", 65536u64), ("small-skew", 1024)] {
        let w = Workload::paper(size, 20, true);
        let name = |series: &str| format!("fig11.{suffix}.{series}");
        r.register(Scenario::set(
            &name("fraser"),
            about,
            "sl/fraser",
            w.clone(),
            FraserSkipList::new,
        ));
        r.register(Scenario::set(
            &name("herlihy"),
            about,
            "sl/herlihy",
            w.clone(),
            HerlihySkipList::new,
        ));
        r.register(Scenario::set(
            &name("herl-optik"),
            about,
            "sl/herl-optik",
            w.clone(),
            HerlihyOptikSkipList::new,
        ));
        r.register(Scenario::set(
            &name("optik1"),
            about,
            "sl/optik1",
            w.clone(),
            OptikSkipList1::new,
        ));
        r.register(Scenario::set(
            &name("optik2"),
            about,
            "sl/optik2",
            w,
            OptikSkipList2::new,
        ));
    }
}

// ---------------------------------------------------------------------------
// Figure 12: queues.
// ---------------------------------------------------------------------------

/// Queues start with 65536 elements (the paper's Figure 12 setup).
pub const QUEUE_PREFILL: u64 = 65_536;

fn fig12(r: &mut Registry) {
    let about = "Fig 12: ms-lb flat/stable (MCS) but collapses at \
                 multiprogramming; optik2 ~= ms-lf; optik3 (victim queues) ~7% \
                 over ms-lf overall, ~28% on the enqueue-heavy workload";
    for (suffix, enq) in [("dec", 40u32), ("stable", 50), ("inc", 60)] {
        let name = |series: &str| format!("fig12.{suffix}.{series}");
        r.register(Scenario::queue(
            &name("ms-lf"),
            about,
            "queue/ms-lf",
            QUEUE_PREFILL,
            enq,
            MsLfQueue::new,
        ));
        r.register(Scenario::queue(
            &name("ms-lb"),
            about,
            "queue/ms-lb",
            QUEUE_PREFILL,
            enq,
            MsLbQueue::new,
        ));
        r.register(Scenario::queue(
            &name("optik0"),
            about,
            "queue/optik0",
            QUEUE_PREFILL,
            enq,
            OptikQueue0::new,
        ));
        r.register(Scenario::queue(
            &name("optik1"),
            about,
            "queue/optik1",
            QUEUE_PREFILL,
            enq,
            OptikQueue1::new,
        ));
        r.register(Scenario::queue(
            &name("optik2"),
            about,
            "queue/optik2",
            QUEUE_PREFILL,
            enq,
            OptikQueue2::new,
        ));
        r.register(Scenario::queue(
            &name("optik3"),
            about,
            "queue/optik3",
            QUEUE_PREFILL,
            enq,
            VictimQueue::new,
        ));
    }
}

// ---------------------------------------------------------------------------
// Extension: external BSTs.
// ---------------------------------------------------------------------------

fn bst(r: &mut Registry) {
    let about = "Extension: the list ladder (global lock -> global OPTIK -> \
                 fine-grained OPTIK) reproduced on external BSTs; optik-tk \
                 pulls ahead as threads grow, skew compresses its lead";
    for (suffix, size, skewed) in [
        ("large", 16384u64, false),
        ("medium", 2048, false),
        ("small", 128, false),
        ("small-skew", 128, true),
    ] {
        let w = Workload::paper(size, 20, skewed);
        let name = |series: &str| format!("bst.{suffix}.{series}");
        r.register(Scenario::set(
            &name("mcs-gl"),
            about,
            "bst/mcs-gl",
            w.clone(),
            GlobalLockBst::new,
        ));
        r.register(Scenario::set(
            &name("optik-gl"),
            about,
            "bst/optik-gl",
            w.clone(),
            OptikGlBst::<OptikVersioned>::new,
        ));
        r.register(Scenario::set(
            &name("optik-tk"),
            about,
            "bst/optik-tk",
            w,
            OptikBst::new,
        ));
    }
}

// ---------------------------------------------------------------------------
// §5.5: stacks.
// ---------------------------------------------------------------------------

fn stacks(r: &mut Registry) {
    let about = "S5.5: the stack's single point of contention offers no \
                 optimistic prefix — Treiber and OPTIK variants behave alike";
    r.register(Scenario::stack(
        "stacks.treiber",
        about,
        "stack/treiber",
        1024,
        50,
        TreiberStack::new,
    ));
    r.register(Scenario::stack(
        "stacks.optik",
        about,
        "stack/optik",
        1024,
        50,
        OptikStack::new,
    ));
    r.register(Scenario::stack(
        "stacks.elim",
        about,
        "stack/elim",
        1024,
        50,
        EliminationStack::new,
    ));
}

// ---------------------------------------------------------------------------
// alloc: the type-stable pool's magazine fast path.
// ---------------------------------------------------------------------------

/// A pool-compatible node of list-node size: a value plus the padding a
/// key/link/lock trio would occupy.
struct AllocNode {
    val: u64,
    _pad: [u64; 5],
}

impl AllocNode {
    fn make(val: u64) -> Self {
        AllocNode { val, _pad: [0; 5] }
    }
}

/// Slots each worker publishes into (its private region, or the shared
/// pool of regions in cross-thread mode).
const ALLOC_SLOTS_PER_THREAD: usize = 256;

/// One allocation-churn window: every iteration allocates a node
/// (`alloc(n)`, `n` the worker's iteration count), publishes it into a
/// slot (displacing the previous occupant), and retires the displaced
/// node through QSBR (`retire`, which is handed only nodes the loop's swap
/// unlinked, and returns the node's value after reading it) — the
/// alloc/retire interleaving of a write-heavy structure, with the
/// structure itself stripped away.
///
/// `shared == false` gives each thread a private slot region, so retired
/// slots come straight back through the thread's own magazine;
/// `shared == true` has threads displace each other's nodes, so slots
/// recirculate through the depot. Returns the slots, still holding the
/// last nodes published.
fn alloc_churn_run(
    spec: &RunSpec,
    shared: bool,
    alloc: impl Fn(u64) -> *mut AllocNode + Sync,
    retire: impl Fn(*mut AllocNode) -> u64 + Sync,
) -> (Measurement, Vec<AtomicPtr<AllocNode>>) {
    let slots: Vec<AtomicPtr<AllocNode>> = (0..spec.threads * ALLOC_SLOTS_PER_THREAD)
        .map(|_| AtomicPtr::new(std::ptr::null_mut()))
        .collect();
    let region = |tid: usize| {
        if shared {
            (0, slots.len())
        } else {
            (tid * ALLOC_SLOTS_PER_THREAD, ALLOC_SLOTS_PER_THREAD)
        }
    };
    let (m, _) = measure(
        spec,
        |tid| (region(tid), 0u64, 0u64),
        |((lo, span), n, sink), rng, _| {
            let node = alloc(*n);
            let slot = &slots[*lo + rng.next_below(*span as u64) as usize];
            let old = slot.swap(node, Ordering::AcqRel);
            if !old.is_null() {
                *sink ^= retire(old);
            }
            *n += 1;
            reclaim::quiescent();
            1
        },
        |(_, _, sink)| std::hint::black_box(sink),
    );
    (m, slots)
}

/// [`alloc_churn_run`] over the type-stable pool's magazines.
fn alloc_pool_scenario(name: &str, about: &str, id: &str, shared: bool) -> Scenario {
    Scenario::custom(name, about, id, move |spec| {
        let pool: Arc<NodePool<AllocNode>> = NodePool::new();
        let (m, _) = alloc_churn_run(
            spec,
            shared,
            |n| pool.alloc_init(|| AllocNode::make(n)),
            // SAFETY: the loop's swap unlinked `old`; QSBR covers readers
            // that loaded it before the swap.
            |old| unsafe {
                let val = (*old).val;
                reclaim::with_local(|h| pool.retire(old, h));
                val
            },
        );
        m.with_extra("magazine_hit_pct", 100.0 * pool.stats().magazine_hit_rate())
    })
}

/// The malloc/free baseline for [`alloc_pool_scenario`]: identical loop,
/// but nodes are boxed and QSBR frees them back to the system allocator.
fn alloc_boxed_scenario(name: &str, about: &str, id: &str, shared: bool) -> Scenario {
    Scenario::custom(name, about, id, move |spec| {
        let (m, slots) = alloc_churn_run(
            spec,
            shared,
            |n| Box::into_raw(Box::new(AllocNode::make(n))),
            // SAFETY: the loop's swap unlinked `old`; freed after grace.
            |old| unsafe {
                let val = (*old).val;
                reclaim::with_local(|h| h.retire(old));
                val
            },
        );
        for slot in &slots {
            let p = slot.load(Ordering::Relaxed);
            if !p.is_null() {
                // SAFETY: workers exited; remaining occupants are ours.
                unsafe { drop(Box::from_raw(p)) };
            }
        }
        m
    })
}

fn alloc(r: &mut Registry) {
    let about = "Allocation fast path: per-thread magazines recycle retired \
                 slots with zero shared-memory operations on a hit; the boxed \
                 baseline pays malloc/free plus QSBR bookkeeping every cycle";
    r.register(alloc_pool_scenario(
        "alloc.churn.pool",
        about,
        "alloc/churn-pool",
        false,
    ));
    r.register(alloc_boxed_scenario(
        "alloc.churn.boxed",
        about,
        "alloc/churn-boxed",
        false,
    ));
    r.register(alloc_pool_scenario(
        "alloc.xthread.pool",
        about,
        "alloc/xthread-pool",
        true,
    ));
    r.register(alloc_boxed_scenario(
        "alloc.xthread.boxed",
        about,
        "alloc/xthread-boxed",
        true,
    ));
}

// ---------------------------------------------------------------------------
// kv: the sharded key-value store subsystem.
// ---------------------------------------------------------------------------

/// A kv scenario's keys (the §5 key space, fill and skew) and op mix.
type KvLoad = (Workload, KvMix);

/// `initial_size` keys over the paper's doubled key range, skewed or
/// uniform, driven by `mix` (the set mix's update rate is unused).
fn kv_load(initial_size: u64, skewed: bool, mix: KvMix) -> KvLoad {
    (Workload::paper(initial_size, 0, skewed), mix)
}

/// One kv scenario: build the store, fill it, run the mix through the kv
/// body; `O` says how the store serves ranges and rebalance rounds.
fn kv_scenario_with<B: ConcurrentMap + 'static, O: KeyOrder<B>>(
    name: &str,
    about: &str,
    id: &str,
    (keys, mix): KvLoad,
    build: impl Fn() -> KvStore<B> + Send + Sync + 'static,
) -> Scenario {
    mix.thresholds(); // a malformed mix fails at registration
    Scenario::custom(name, about, id, move |spec| {
        let store = build();
        keys.initial_fill(spec.seed, |k, v| store.put(k, v).is_none());
        run_kv::<B, O>(spec, &store, &keys, &mix).0
    })
}

/// A kv scenario over a hash-sharded store of `shards` backends.
fn kv_scenario<B: ConcurrentMap + 'static>(
    name: &str,
    about: &str,
    id: &str,
    shards: usize,
    w: KvLoad,
    make_backend: impl Fn(usize) -> B + Send + Sync + 'static,
) -> Scenario {
    let build = move || KvStore::with_shards(shards, &make_backend);
    kv_scenario_with::<B, Unordered>(name, about, id, w, build)
}

/// The per-shard backend constructors the kv groups sweep. `span` is the
/// key range a shard must be able to hold (used to size fixed-capacity
/// backends so `put` can never overflow).
fn kv_backends(r: &mut Registry, group: &str, about: &str, shards: usize, span: usize, w: &KvLoad) {
    let name = |series: &str| format!("kv.{group}.{series}");
    r.register(kv_scenario(
        &name("optik-map"),
        about,
        "kv/optik-map",
        shards,
        w.clone(),
        move |_| OptikMapHashTable::with_bucket_capacity(span.max(16), 16),
    ));
    r.register(kv_scenario(
        &name("striped"),
        about,
        "kv/striped",
        shards,
        w.clone(),
        move |_| StripedHashTable::new(span.max(16), 16),
    ));
    r.register(kv_scenario(
        &name("striped-optik"),
        about,
        "kv/striped-optik",
        shards,
        w.clone(),
        move |_| StripedOptikHashTable::new(span.max(16), 16),
    ));
    r.register(kv_scenario(
        &name("resizable"),
        about,
        "kv/resizable",
        shards,
        w.clone(),
        move |_| ResizableStripedHashTable::new(16, 8),
    ));
}

fn kv(r: &mut Registry) {
    const SHARDS: usize = 8;
    const SIZE: u64 = 8192;
    let span = (2 * SIZE) as usize / SHARDS;

    // Read-heavy, skewed: the CDN/session-cache shape. Expectation: gets
    // are lock-free, so all backends scale with readers; striped-optik
    // leads under skew (no locking on the hot shard's misses).
    let about = "kv read-heavy: lock-free gets dominate; backends track their \
                 fig10 ordering, shard locks stay cold";
    let w = kv_load(
        SIZE,
        true,
        KvMix {
            put_pm: 50,
            remove_pm: 50,
            ..KvMix::default()
        },
    );
    kv_backends(r, "read-heavy", about, SHARDS, span, &w);

    // Write-heavy, uniform: shard locks serialize writers per shard;
    // expectation: throughput is shard-parallel until writers outnumber
    // shards, then flattens.
    let about = "kv write-heavy: per-shard write serialization; scales until \
                 writers outnumber shards";
    let w = kv_load(
        SIZE,
        false,
        KvMix {
            put_pm: 300,
            remove_pm: 300,
            ..KvMix::default()
        },
    );
    kv_backends(r, "write-heavy", about, SHARDS, span, &w);
    // The one store-backed ranged subject that routes by hash: its range
    // scans visit every shard and sort, so a torn cross-shard snapshot
    // shows up here first.
    r.register(kv_scenario_with::<_, Unordered>(
        "kv.hash-ordered.skiplist",
        about,
        "kv/hash-skiplist",
        w,
        || KvStore::with_shards(SHARDS, |_| OptikSkipList2::new()),
    ));

    // Batched: sorted-shard acquisition amortizes locking over 8 keys;
    // multi-gets validate optimistically. Expectation: higher key
    // throughput than write-heavy at the same write fraction.
    let about = "kv batched: 8-key batches, sorted-shard acquisition; \
                 per-key cost amortizes vs single-key writes";
    let w = kv_load(
        SIZE,
        false,
        KvMix {
            put_pm: 50,
            remove_pm: 50,
            batch_get_pm: 250,
            batch_write_pm: 250,
            batch: 8,
            ..KvMix::default()
        },
    );
    kv_backends(r, "batch", about, SHARDS, span, &w);

    // Scans: 1% full-store snapshot scans against a 20%-update stream.
    // Expectation: scans are validated per shard, so update throughput
    // dips but does not collapse; `keys_per_scan` ~= store size.
    let about = "kv scans: 1% validated snapshot scans under 20% updates; \
                 keys_per_scan tracks the store size";
    let scan_size = 1024u64;
    let scan_span = (2 * scan_size) as usize / SHARDS;
    let w = kv_load(
        scan_size,
        true,
        KvMix {
            put_pm: 100,
            remove_pm: 100,
            scan_pm: 10,
            ..KvMix::default()
        },
    );
    kv_backends(r, "scan", about, SHARDS, scan_span, &w);

    // Small store: fig7's OPTIK array map, bucketed, as the shard backend.
    let about = "kv small store: bucketed OPTIK array-map shards at 256 entries";
    let small = kv_load(
        256,
        false,
        KvMix {
            put_pm: 50,
            remove_pm: 50,
            ..KvMix::default()
        },
    );
    r.register(kv_scenario(
        "kv.small.optik-map",
        about,
        "kv/optik-map-small",
        16,
        small,
        |_| OptikMapHashTable::with_bucket_capacity(32, 16),
    ));

    // Multi-get–heavy: half the issued ops are 16-key multi-gets, with a
    // 10% single-key write stream keeping shard versions moving.
    let about = "kv multi-get heavy: 50% 16-key multi-gets under 10% writes; \
                 the read routes once, validates one OPTIK window per \
                 involved shard, and plans without allocating (probes \
                 key-clustered only on contiguous-partition stores)";
    let w = kv_load(
        SIZE,
        false,
        KvMix {
            put_pm: 50,
            remove_pm: 50,
            batch_get_pm: 500,
            batch: 16,
            ..KvMix::default()
        },
    );
    r.register(kv_scenario(
        "kv.multiget.optik-map",
        about,
        "kv/optik-map",
        SHARDS,
        w.clone(),
        move |_| OptikMapHashTable::with_bucket_capacity(span.max(16), 16),
    ));
    r.register(kv_scenario(
        "kv.multiget.striped",
        about,
        "kv/striped",
        SHARDS,
        w.clone(),
        move |_| StripedHashTable::new(span.max(16), 16),
    ));
    r.register(kv_scenario(
        "kv.multiget.striped-optik",
        about,
        "kv/striped-optik",
        SHARDS,
        w.clone(),
        move |_| StripedOptikHashTable::new(span.max(16), 16),
    ));
    r.register(kv_scenario(
        "kv.multiget.resizable",
        about,
        "kv/resizable",
        SHARDS,
        w,
        move |_| ResizableStripedHashTable::new(16, 8),
    ));

    // Shard-count ablation: same backend, same workload, 1..32 shards.
    // Expectation: single-shard ~= the bare backend plus lock overhead;
    // throughput grows with shards until it saturates the thread count.
    let about = "kv ablation: shard count sweep; write scaling follows \
                 min(threads, shards), gets are shard-agnostic";
    for shards in [1usize, 2, 4, 8, 16, 32] {
        let span = ((2 * SIZE) as usize / shards).max(16);
        let w = kv_load(
            SIZE,
            true,
            KvMix {
                put_pm: 50,
                remove_pm: 50,
                ..KvMix::default()
            },
        );
        r.register(kv_scenario(
            &format!("kv.shards.s{shards}"),
            about,
            &format!("kv/striped-optik-s{shards}"),
            shards,
            w,
            move |_| StripedOptikHashTable::new(span, 16),
        ));
    }
}

// ---------------------------------------------------------------------------
// kv.range: range scans over ordered-sharded ordered backends.
// ---------------------------------------------------------------------------

/// One ordered kv scenario: an ordered-sharded store over an
/// [`OrderedMap`] backend, whose ranges and rebalance rounds run.
fn kv_range_scenario<B: OrderedMap + 'static>(
    name: &str,
    about: &str,
    id: &str,
    shards: usize,
    max_key: u64,
    w: KvLoad,
    make_backend: impl Fn(usize) -> B + Send + Sync + 'static,
) -> Scenario {
    let build = move || KvStore::with_ordered_shards(shards, max_key, &make_backend);
    kv_scenario_with::<B, Ordered>(name, about, id, w, build)
}

fn kv_range(r: &mut Registry) {
    const SHARDS: usize = 8;
    const SIZE: u64 = 8192;
    let max_key = 2 * SIZE;
    // Uniform keys: ordered sharding partitions the key space, so a skewed
    // stream would measure shard imbalance, not range-scan cost.
    // Expectation: ranges touch only the 1-2 partitions they intersect;
    // update throughput tracks the backend's fig11/bst ordering; the
    // locked-fallback path stays cold except under heavy write pressure.
    let about = "kv ranges: ordered sharding makes a 128-key window touch ~1 \
                 partition; throughput tracks the backend ladder, fraser \
                 ranges never lock";
    let w = kv_load(
        SIZE,
        false,
        KvMix {
            put_pm: 100,
            remove_pm: 100,
            range_pm: 50,
            range_span: 128,
            ..KvMix::default()
        },
    );
    let name = |series: &str| format!("kv.range.{series}");
    r.register(kv_range_scenario(
        &name("herlihy"),
        about,
        "kv/range-sl-herlihy",
        SHARDS,
        max_key,
        w.clone(),
        |_| HerlihySkipList::new(),
    ));
    r.register(kv_range_scenario(
        &name("herl-optik"),
        about,
        "kv/range-sl-herl-optik",
        SHARDS,
        max_key,
        w.clone(),
        |_| HerlihyOptikSkipList::new(),
    ));
    r.register(kv_range_scenario(
        &name("optik2"),
        about,
        "kv/range-sl-optik2",
        SHARDS,
        max_key,
        w.clone(),
        |_| OptikSkipList2::new(),
    ));
    r.register(kv_range_scenario(
        &name("fraser"),
        about,
        "kv/range-sl-fraser",
        SHARDS,
        max_key,
        w,
        |_| FraserSkipList::new(),
    ));
}

// ---------------------------------------------------------------------------
// kv.ttl: native TTL/expiry over hash-sharded backends.
// ---------------------------------------------------------------------------

/// One TTL kv scenario: a TTL-enabled hash-sharded store under a mix of
/// TTL puts (wall-clock millisecond ticks), plain updates, and
/// incremental expiry sweeps.
fn kv_ttl_scenario<B: ConcurrentMap + 'static>(
    name: &str,
    about: &str,
    id: &str,
    shards: usize,
    w: KvLoad,
    make_backend: impl Fn(usize) -> B + Send + Sync + 'static,
) -> Scenario {
    let build =
        move || KvStore::with_shards_ttl(shards, Arc::new(SystemClock::new()), &make_backend);
    kv_scenario_with::<B, Unordered>(name, about, id, w, build)
}

fn kv_ttl(r: &mut Registry) {
    const SHARDS: usize = 8;
    const SIZE: u64 = 8192;
    let span = (2 * SIZE) as usize / SHARDS;

    // TTL entries live 30ms (SystemClock ticks are wall milliseconds), so
    // a standard measurement window turns over the TTL population several
    // times. Expectation: gets stay lock-free (one extra validated
    // deadline lookup), sweep cost is bounded by its budget, and the
    // ladder between backends tracks the plain kv groups.
    let about = "kv TTL: 30ms lifetimes under wall-clock ticks; lazy expiry on \
                 read plus budgeted sweeps; backend ladder tracks kv.read-heavy";
    let w = kv_load(
        SIZE,
        false,
        KvMix {
            put_pm: 50,
            remove_pm: 50,
            ttl_put_pm: 150,
            ttl_span: 30,
            sweep_pm: 10,
            sweep_budget: 128,
            ..KvMix::default()
        },
    );
    let name = |series: &str| format!("kv.ttl.{series}");
    r.register(kv_ttl_scenario(
        &name("optik-map"),
        about,
        "kv/ttl-optik-map",
        SHARDS,
        w.clone(),
        move |_| OptikMapHashTable::with_bucket_capacity(span.max(16), 16),
    ));
    r.register(kv_ttl_scenario(
        &name("striped-optik"),
        about,
        "kv/ttl-striped-optik",
        SHARDS,
        w.clone(),
        move |_| StripedOptikHashTable::new(span.max(16), 16),
    ));
    r.register(kv_ttl_scenario(
        &name("resizable"),
        about,
        "kv/ttl-resizable",
        SHARDS,
        w,
        move |_| ResizableStripedHashTable::new(16, 8),
    ));
}

// ---------------------------------------------------------------------------
// kv.rebalance: online range-partition rebalancing under skewed load.
// ---------------------------------------------------------------------------

fn kv_rebalance(r: &mut Registry) {
    const SHARDS: usize = 8;
    const SIZE: u64 = 8192;
    let max_key = 2 * SIZE;
    // Skewed keys over contiguous partitions: exactly the imbalance the
    // rebalancer exists for — the zipf head concentrates on one
    // partition, rebalance rounds split it at its median toward the
    // lighter neighbor, and the op counters re-measure. Expectation:
    // migrations are bounded bursts (MIGRATION_BATCH per lock hold),
    // range and point throughput dip during a burst but recover, and
    // `keys_per_migration` stays near half the hot partition.
    let about = "kv rebalance: zipf head vs contiguous partitions; rebalance \
                 rounds split the hot partition at its median; reads validate \
                 the routing version and retry across flips";
    let w = kv_load(
        SIZE,
        true,
        KvMix {
            put_pm: 100,
            remove_pm: 100,
            range_pm: 30,
            range_span: 128,
            rebalance_pm: 2,
            ..KvMix::default()
        },
    );
    let name = |series: &str| format!("kv.rebalance.{series}");
    r.register(kv_range_scenario(
        &name("optik2"),
        about,
        "kv/rebal-sl-optik2",
        SHARDS,
        max_key,
        w.clone(),
        |_| OptikSkipList2::new(),
    ));
    r.register(kv_range_scenario(
        &name("fraser"),
        about,
        "kv/rebal-sl-fraser",
        SHARDS,
        max_key,
        w,
        |_| FraserSkipList::new(),
    ));
}

// ---------------------------------------------------------------------------
// map.ordered: the raw ordered structures as value-carrying maps.
// ---------------------------------------------------------------------------

/// One ordered-map scenario: the raw backend under a mixed
/// put/remove/get/range workload (10%/10% writes, 2% bounded ranges).
fn ordered_map_scenario<M: OrderedMap + 'static>(
    name: &str,
    about: &str,
    id: &str,
    size: u64,
    skewed: bool,
    range_span: u64,
    make: impl Fn() -> M + Send + Sync + 'static,
) -> Scenario {
    let w = Workload::paper(size, 0, skewed); // keys and fill; mix below
    Scenario::custom(name, about, id, move |spec| {
        let m = make();
        w.initial_fill(spec.seed, |k, v| m.put(k, v).is_none());
        let (meas, ranges) = measure(
            spec,
            |_| (0u64, 0u64),
            |(ranges, ranged), rng, _| {
                let p = rng.next_below(1000) as u32;
                let k = w.sample_key(rng);
                if p < 100 {
                    m.put(k, k);
                } else if p < 200 {
                    m.remove(k);
                } else if p < 220 {
                    m.range(k, k.saturating_add(range_span - 1), &mut |_, _| {
                        *ranged += 1
                    });
                    *ranges += 1;
                } else {
                    let _ = m.get(k);
                }
                reclaim::quiescent();
                1
            },
            |r| r,
        );
        let (ranges, ranged) = ranges.iter().fold((0, 0), |(a, b), &(r, n)| (a + r, b + n));
        if ranges == 0 {
            return meas;
        }
        meas.with_extra("keys_per_range", ranged as f64 / ranges as f64)
    })
}

fn map_ordered(r: &mut Registry) {
    // Expectation: point-op ordering mirrors fig11; ranges add a
    // per-node validation cost to the OPTIK designs that fraser's marked
    // pointers get for free, and keys_per_range sits near span/2 (half the
    // sampled windows fall past the populated prefix of the key space).
    let about = "Extension: ordered structures as maps — in-place OPTIK \
                 upserts + validated range scans; point ops track fig11, \
                 ranges pay per-step validation except on fraser";
    const SIZE: u64 = 1024;
    const SPAN: u64 = 64;
    let name = |series: &str| format!("map.ordered.{series}");
    r.register(ordered_map_scenario(
        &name("herlihy"),
        about,
        "omap/sl-herlihy",
        SIZE,
        true,
        SPAN,
        HerlihySkipList::new,
    ));
    r.register(ordered_map_scenario(
        &name("herl-optik"),
        about,
        "omap/sl-herl-optik",
        SIZE,
        true,
        SPAN,
        HerlihyOptikSkipList::new,
    ));
    r.register(ordered_map_scenario(
        &name("optik1"),
        about,
        "omap/sl-optik1",
        SIZE,
        true,
        SPAN,
        OptikSkipList1::new,
    ));
    r.register(ordered_map_scenario(
        &name("optik2"),
        about,
        "omap/sl-optik2",
        SIZE,
        true,
        SPAN,
        OptikSkipList2::new,
    ));
    r.register(ordered_map_scenario(
        &name("fraser"),
        about,
        "omap/sl-fraser",
        SIZE,
        true,
        SPAN,
        FraserSkipList::new,
    ));
}

// ---------------------------------------------------------------------------
// probe.overhead: hook-site cost A/B pair.
// ---------------------------------------------------------------------------

/// One validated-acquisition loop; `hooked` adds the densest per-op probe
/// usage a real data structure emits (a timestamp pair, a counter bump,
/// and a histogram record). With the `probe` feature off both series must
/// measure the same — that equality is the layer's zero-cost claim, and
/// the pinned bench-smoke in CI sweeps both to keep it observable.
fn probe_overhead_scenario(name: &str, about: &str, id: &str, hooked: bool) -> Scenario {
    Scenario::custom(name, about, id, move |spec| {
        let lock = OptikVersioned::default();
        let body = |(ops, acc): &mut (u64, u64), _: &mut _, _: &mut _| {
            let t0 = if hooked { optik_probe::now() } else { 0 };
            loop {
                let v = lock.get_version();
                if OptikVersioned::is_locked_version(v) {
                    synchro::relax();
                    continue;
                }
                if lock.try_lock_version(v) {
                    lock.unlock();
                    break;
                }
                if hooked {
                    optik_probe::count(optik_probe::Event::ReadRetry);
                }
            }
            *acc = acc.wrapping_mul(6364136223846793005).wrapping_add(*ops);
            if hooked {
                optik_probe::record(
                    optik_probe::HistKind::RetryLoop,
                    optik_probe::elapsed(t0, optik_probe::now()),
                );
            }
            *ops += 1;
            1
        };
        measure(spec, |_| (0, 0), body, |(_, acc)| std::hint::black_box(acc)).0
    })
}

fn probe_overhead(r: &mut Registry) {
    let about = "Hook-overhead A/B: bare and hooked run the same acquisition \
                 loop; a probe-disabled build must show no gap between them";
    r.register(probe_overhead_scenario(
        "probe.overhead.bare",
        about,
        "probe/overhead-bare",
        false,
    ));
    r.register(probe_overhead_scenario(
        "probe.overhead.hooked",
        about,
        "probe/overhead-hooked",
        true,
    ));
}

// ---------------------------------------------------------------------------
// Ablations.
// ---------------------------------------------------------------------------

fn ablate_base_lock(r: &mut Registry) {
    let about = "Ablation: Fig 5's 'both OPTIK locks behave identically' claim \
                 checked inside a real structure (one contended OPTIK lock)";
    let w = Workload::paper(128, 20, false);
    r.register(Scenario::set(
        "ablate-base-lock.versioned",
        about,
        "list/optik-gl",
        w.clone(),
        OptikGlList::<OptikVersioned>::new,
    ));
    r.register(Scenario::set(
        "ablate-base-lock.ticket",
        about,
        "list/optik-gl-ticket",
        w,
        OptikGlList::<OptikTicket>::new,
    ));
}

/// Handle wrapper exporting node-cache hit/miss counters on drop.
struct CountingHandle<'a> {
    inner: optik_lists::OptikCacheHandle<'a>,
    hits: &'a AtomicU64,
    misses: &'a AtomicU64,
}

impl SetHandle for CountingHandle<'_> {
    fn search(&mut self, key: u64) -> Option<u64> {
        self.inner.search(key)
    }
    fn insert(&mut self, key: u64, val: u64) -> bool {
        self.inner.insert(key, val)
    }
    fn delete(&mut self, key: u64) -> Option<u64> {
        self.inner.delete(key)
    }
}

impl Drop for CountingHandle<'_> {
    fn drop(&mut self) {
        self.hits
            .fetch_add(self.inner.cache_hits(), Ordering::Relaxed);
        self.misses
            .fetch_add(self.inner.cache_misses(), Ordering::Relaxed);
    }
}

fn ablate_node_cache(r: &mut Registry) {
    let about = "Ablation S5.1: node-cache hit rate and throughput delta; the \
                 paper reports ~49.8%/~40% hit rates on large/small lists for \
                 gains of ~50%/~15%";
    for size in [64u64, 1024, 8192] {
        let w = Workload::paper(size, 20, false);
        r.register(Scenario::set(
            &format!("ablate-node-cache.{size}.optik"),
            about,
            "list/optik",
            w.clone(),
            OptikList::new,
        ));
        r.register(Scenario::custom(
            &format!("ablate-node-cache.{size}.optik-cache"),
            about,
            "list/optik-cache",
            move |spec| {
                let set = OptikCacheList::new();
                w.initial_fill(spec.seed, |k, v| set.insert(k, v));
                let hits = AtomicU64::new(0);
                let misses = AtomicU64::new(0);
                let res = run_set_workload(spec, &w, |_| CountingHandle {
                    inner: set.handle(),
                    hits: &hits,
                    misses: &misses,
                });
                let h = hits.load(Ordering::Relaxed) as f64;
                let m = misses.load(Ordering::Relaxed) as f64;
                res.with_extra("cache_hit_pct", 100.0 * h / (h + m).max(1.0))
            },
        ));
    }
}

fn ablate_resize(r: &mut Registry) {
    let about = "Ablation: what Fig 10's buckets==elements sizing hides — an \
                 undersized fixed table degenerates to O(chain) scans while the \
                 per-segment-resizable table grows back to O(1)";
    const ELEMS: u64 = 8192;
    const SEGMENTS: usize = 128;
    let w = Workload::paper(ELEMS, 20, false);
    r.register(Scenario::set(
        "ablate-resize.java-well-sized",
        about,
        "ht/java",
        w.clone(),
        || StripedHashTable::new(ELEMS as usize, SEGMENTS),
    ));
    r.register(Scenario::set(
        "ablate-resize.java-under-sized",
        about,
        "ht/java-undersized",
        w.clone(),
        || StripedHashTable::new(ELEMS as usize / 64, SEGMENTS),
    ));
    r.register(Scenario::set(
        "ablate-resize.java-resize",
        about,
        "ht/java-resize",
        w,
        // Starts at 2 buckets/segment and must grow to fit 8192 elements
        // during the initial fill of every repetition.
        || ResizableStripedHashTable::new(SEGMENTS, 2),
    ));
}

fn ablate_victim(r: &mut Registry) {
    let about = "Ablation S5.4: sensitivity of the 'more than two waiters' \
                 victim-queue threshold on the enqueue-heavy workload; t2 is \
                 the paper's choice, tinf disables the victim queue";
    for (series, threshold) in [
        ("t0", 0u32),
        ("t1", 1),
        ("t2", 2),
        ("t4", 4),
        ("t8", 8),
        ("t16", 16),
        ("tinf", u32::MAX),
    ] {
        r.register(Scenario::queue(
            &format!("ablate-victim.{series}"),
            about,
            // Distinct subject id per threshold: t0 (always divert) and
            // tinf (victim queue disabled) are different code paths, each
            // a row of the subject table.
            &format!("queue/optik3-{series}"),
            QUEUE_PREFILL,
            60,
            move || VictimQueue::with_threshold(threshold),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subjects;
    use optik_harness::scenario::RunSpec;
    use std::time::Duration;

    #[test]
    fn registry_is_complete_and_consistent() {
        let r = registry();
        assert!(r.len() >= 100, "expected the full sweep, got {}", r.len());
        assert_eq!(
            r.families(),
            vec![
                "fig5",
                "fig7",
                "fig9",
                "fig10",
                "fig11",
                "fig12",
                "bst",
                "stacks",
                "alloc",
                "kv",
                "map",
                "probe",
                "ablate-base-lock",
                "ablate-node-cache",
                "ablate-resize",
                "ablate-victim",
            ],
            "the registry's families, in registration order"
        );
        // Every group has a blurb and at least one scenario.
        for g in r.groups() {
            assert!(!group_blurb(g).is_empty(), "missing blurb for `{g}`");
            assert!(!r.in_group(g).is_empty());
        }
        // Figure 9's table has the paper's seven columns.
        let fig9_large: Vec<&str> = r
            .in_group("fig9.large")
            .iter()
            .map(|s| s.series())
            .collect();
        assert_eq!(
            fig9_large,
            vec![
                "harris",
                "lazy",
                "lazy-cache",
                "mcs-gl-opt",
                "optik-gl",
                "optik",
                "optik-cache"
            ]
        );
    }

    #[test]
    fn smoke_run_one_scenario_per_kind() {
        let r = registry();
        let spec = RunSpec {
            threads: 2,
            duration: Duration::from_millis(5),
            seed: 1,
            record_latency: false,
        };
        for name in [
            "fig5.optik-versioned",   // raw lock loop
            "fig7.small.optik",       // array map as set
            "fig9.small.optik-cache", // per-thread handles
            "fig12.stable.optik2",    // queue
            "stacks.treiber",         // stack
            "kv.batch.striped-optik", // sharded kv store, batched ops
            "kv.small.optik-map",     // kv over bucketed array-map shards
            "ablate-victim.t2",       // parameterized queue
        ] {
            let s = r.get(name).unwrap_or_else(|| panic!("missing {name}"));
            let m = s.run(&spec);
            assert!(m.ops > 0, "{name} did no work");
        }
    }

    #[test]
    fn kv_family_is_complete() {
        let r = registry();
        let kv: Vec<&Scenario> = r.select(&["kv".into()]);
        assert!(
            kv.len() >= 20,
            "expected >=20 kv scenarios, got {}",
            kv.len()
        );
        // Every kv scenario must be a map subject (MapSpec-checkable);
        // the ordered-backed ones are additionally range-checkable.
        for s in &kv {
            assert!(
                matches!(subjects::kind(s.subject_id()), "map" | "ordered"),
                "{}",
                s.name()
            );
        }
        // The four workload groups sweep the same backend series.
        for g in ["kv.read-heavy", "kv.write-heavy", "kv.batch", "kv.scan"] {
            let series: Vec<&str> = r.in_group(g).iter().map(|s| s.series()).collect();
            assert_eq!(
                series,
                vec!["optik-map", "striped", "striped-optik", "resizable"],
                "{g}"
            );
        }
        assert_eq!(r.in_group("kv.shards").len(), 6, "shard ablation sweep");
    }

    #[test]
    fn ci_subset_patterns_pick_what_the_old_name_regex_picked() {
        // CI's subset smoke step selects with positional patterns; they
        // must cover exactly the names the retired
        // `^(kv\.range|kv\.ttl|kv\.rebalance|kv\.write-heavy|kv\.multiget|map\.ordered|alloc\.|probe\.)`
        // filter matched, so no scenario left or joined the smoke run.
        let r = registry();
        let patterns: Vec<String> = [
            "kv.range",
            "kv.ttl",
            "kv.rebalance",
            "kv.write-heavy",
            "kv.multiget",
            "map.ordered",
            "alloc",
            "probe",
        ]
        .map(String::from)
        .to_vec();
        let regex_prefixes = [
            "kv.range",
            "kv.ttl",
            "kv.rebalance",
            "kv.write-heavy",
            "kv.multiget",
            "map.ordered",
            "alloc.",
            "probe.",
        ];
        let got: Vec<&str> = r.select(&patterns).iter().map(|s| s.name()).collect();
        let want: Vec<&str> = r
            .select(&[])
            .iter()
            .map(|s| s.name())
            .filter(|n| regex_prefixes.iter().any(|p| n.starts_with(p)))
            .collect();
        assert_eq!(got, want);
        for p in &patterns {
            assert!(!r.select(std::slice::from_ref(p)).is_empty(), "{p}");
        }
    }

    #[test]
    fn ordered_families_are_complete() {
        let r = registry();
        let range_series: Vec<&str> = r.in_group("kv.range").iter().map(|s| s.series()).collect();
        assert_eq!(
            range_series,
            vec!["herlihy", "herl-optik", "optik2", "fraser"],
            "ordered backends mounted in the kv store"
        );
        let omap_series: Vec<&str> = r
            .in_group("map.ordered")
            .iter()
            .map(|s| s.series())
            .collect();
        assert_eq!(
            omap_series,
            vec!["herlihy", "herl-optik", "optik1", "optik2", "fraser"],
            "every ordered structure appears as a raw map subject"
        );
        // All of them are ordered subjects: the linearizability tier runs
        // both the single-key map rounds and the range rounds on each.
        for s in r.select(&["kv.range".into(), "map.ordered".into()]) {
            assert_eq!(subjects::kind(s.subject_id()), "ordered", "{}", s.name());
        }
    }

    #[test]
    fn ordered_scenarios_run_and_report_range_metric() {
        let r = registry();
        let spec = RunSpec {
            threads: 2,
            duration: Duration::from_millis(20),
            seed: 9,
            record_latency: false,
        };
        for name in ["kv.range.optik2", "map.ordered.fraser"] {
            let s = r.get(name).unwrap_or_else(|| panic!("missing {name}"));
            let m = s.run(&spec);
            assert!(m.ops > 0, "{name} did no work");
            let (k, v) = m
                .extra
                .iter()
                .find(|(k, _)| k == "keys_per_range")
                .unwrap_or_else(|| panic!("{name}: range metric missing"));
            assert_eq!(k, "keys_per_range");
            assert!(*v >= 0.0);
        }
    }

    #[test]
    fn ttl_and_rebalance_families_are_complete() {
        let r = registry();
        let ttl_series: Vec<&str> = r.in_group("kv.ttl").iter().map(|s| s.series()).collect();
        assert_eq!(
            ttl_series,
            vec!["optik-map", "striped-optik", "resizable"],
            "TTL-wrapped backend sweep"
        );
        for s in r.in_group("kv.ttl") {
            assert_eq!(subjects::kind(s.subject_id()), "map", "{}", s.name());
        }
        let rebal_series: Vec<&str> = r
            .in_group("kv.rebalance")
            .iter()
            .map(|s| s.series())
            .collect();
        assert_eq!(
            rebal_series,
            vec!["optik2", "fraser"],
            "rebalancing ordered-backend sweep"
        );
        for s in r.in_group("kv.rebalance") {
            assert_eq!(subjects::kind(s.subject_id()), "ordered", "{}", s.name());
        }
    }

    #[test]
    fn ttl_scenario_runs_and_rebalance_scenario_migrates() {
        let r = registry();
        let spec = RunSpec {
            threads: 2,
            duration: Duration::from_millis(60),
            seed: 9,
            record_latency: false,
        };
        let s = r.get("kv.ttl.striped-optik").expect("ttl scenario");
        let m = s.run(&spec);
        assert!(m.ops > 0, "ttl scenario did no work");
        // 30ms TTLs inside a 60ms window: sweeps run (the swept count may
        // be 0 on an unlucky scheduler, but the metric must be reported).
        assert!(
            m.extra.iter().any(|(k, _)| k == "swept_per_sweep"),
            "sweep metric missing: {:?}",
            m.extra
        );
        let s = r.get("kv.rebalance.optik2").expect("rebalance scenario");
        let m = s.run(&spec);
        assert!(m.ops > 0, "rebalance scenario did no work");
        let (_, v) = m
            .extra
            .iter()
            .find(|(k, _)| k == "keys_per_migration")
            .expect("zipf load over contiguous partitions must migrate");
        assert!(*v > 0.0, "migrations moved nothing");
    }

    #[test]
    fn kv_scan_scenario_reports_keys_per_scan() {
        let r = registry();
        let s = r.get("kv.scan.striped").unwrap();
        let m = s.run(&RunSpec {
            threads: 2,
            duration: Duration::from_millis(20),
            seed: 3,
            record_latency: false,
        });
        let (k, v) = m
            .extra
            .iter()
            .find(|(k, _)| k == "keys_per_scan")
            .expect("scan metric present");
        assert_eq!(k, "keys_per_scan");
        assert!(*v > 0.0, "{v}");
    }

    #[test]
    fn node_cache_scenario_reports_hit_rate() {
        let r = registry();
        let s = r.get("ablate-node-cache.64.optik-cache").unwrap();
        let m = s.run(&RunSpec {
            threads: 2,
            duration: Duration::from_millis(10),
            seed: 2,
            record_latency: false,
        });
        let (k, v) = &m.extra[0];
        assert_eq!(k, "cache_hit_pct");
        assert!((0.0..=100.0).contains(v), "{v}");
    }
}
