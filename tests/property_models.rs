//! Workspace-wide property-based model tests.
//!
//! Every concurrent structure, driven single-threaded by an arbitrary
//! operation sequence, must agree step-for-step with the obvious standard
//! library model (`BTreeMap` for sets, `VecDeque` for queues, `Vec` for
//! stacks). Single-threaded model agreement plus per-crate concurrent
//! invariant tests (counts, stable-key visibility, linearizable single-key
//! histories) together give the correctness story of the reproduction.
//!
//! These tests deliberately use a *small* key range so that sequences of a
//! few hundred operations revisit keys often — duplicate inserts, misses,
//! and delete/re-insert cycles are where the validation logic lives.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use proptest::prelude::*;

use optik_suite::bsts::{GlobalLockBst, OptikBst, OptikGlBst};
use optik_suite::harness::api::{ConcurrentMap, ConcurrentQueue, ConcurrentSet, OrderedMap};
use optik_suite::hashtables::{
    LazyGlHashTable, OptikGlHashTable, OptikHashTable, OptikMapHashTable,
    ResizableStripedHashTable, StripedHashTable, StripedOptikHashTable,
};
use optik_suite::kv::KvStore;
use optik_suite::lists::{
    GlobalLockList, HarrisList, LazyCacheList, LazyList, OptikCacheList, OptikGlList, OptikList,
};
use optik_suite::queues::{
    MsLbQueue, MsLfQueue, OptikQueue0, OptikQueue1, OptikQueue2, VictimQueue,
};
use optik_suite::skiplists::{
    FraserSkipList, HerlihyOptikSkipList, HerlihySkipList, OptikSkipList1, OptikSkipList2,
};
use optik_suite::stacks::{ConcurrentStack, EliminationStack, OptikStack, TreiberStack};

/// One search-structure operation drawn by proptest.
#[derive(Debug, Clone, Copy)]
enum SetOp {
    Insert(u64, u64),
    Delete(u64),
    Search(u64),
}

fn set_ops(max_key: u64, len: usize) -> impl Strategy<Value = Vec<SetOp>> {
    proptest::collection::vec(
        (0u8..3, 1..=max_key, 0u64..1_000).prop_map(|(op, k, v)| match op {
            0 => SetOp::Insert(k, v),
            1 => SetOp::Delete(k),
            _ => SetOp::Search(k),
        }),
        1..len,
    )
}

fn check_set_against_model(set: &dyn ConcurrentSet, ops: &[SetOp]) -> Result<(), TestCaseError> {
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for &op in ops {
        match op {
            SetOp::Insert(k, v) => {
                let expect = !model.contains_key(&k);
                if expect {
                    model.insert(k, v);
                }
                prop_assert_eq!(set.insert(k, v), expect, "insert {}", k);
            }
            SetOp::Delete(k) => {
                prop_assert_eq!(set.delete(k), model.remove(&k), "delete {}", k);
            }
            SetOp::Search(k) => {
                prop_assert_eq!(set.search(k), model.get(&k).copied(), "search {}", k);
            }
        }
    }
    prop_assert_eq!(set.len(), model.len(), "final length");
    // Every surviving key must still be visible with its exact value.
    for (&k, &v) in &model {
        prop_assert_eq!(set.search(k), Some(v), "survivor {}", k);
    }
    Ok(())
}

/// All sets, constructed fresh (hash tables sized so collisions occur).
fn all_sets() -> Vec<(&'static str, Arc<dyn ConcurrentSet>)> {
    vec![
        ("list/mcs-gl-opt", Arc::new(GlobalLockList::new())),
        (
            "list/optik-gl",
            Arc::new(OptikGlList::<optik::OptikVersioned>::new()),
        ),
        ("list/optik", Arc::new(OptikList::new())),
        ("list/optik-cache", Arc::new(OptikCacheList::new())),
        ("list/lazy", Arc::new(LazyList::new())),
        ("list/lazy-cache", Arc::new(LazyCacheList::new())),
        ("list/harris", Arc::new(HarrisList::new())),
        ("ht/optik-gl", Arc::new(OptikGlHashTable::new(8))),
        ("ht/optik", Arc::new(OptikHashTable::new(8))),
        (
            "ht/optik-map",
            Arc::new(OptikMapHashTable::with_bucket_capacity(8, 48)),
        ),
        ("ht/lazy-gl", Arc::new(LazyGlHashTable::new(8))),
        ("ht/java", Arc::new(StripedHashTable::new(8, 4))),
        ("ht/java-optik", Arc::new(StripedOptikHashTable::new(8, 4))),
        (
            "ht/java-resize",
            Arc::new(ResizableStripedHashTable::new(4, 2)),
        ),
        ("sl/herlihy", Arc::new(HerlihySkipList::new())),
        ("sl/herl-optik", Arc::new(HerlihyOptikSkipList::new())),
        ("sl/optik1", Arc::new(OptikSkipList1::new())),
        ("sl/optik2", Arc::new(OptikSkipList2::new())),
        ("sl/fraser", Arc::new(FraserSkipList::new())),
        ("bst/mcs-gl", Arc::new(GlobalLockBst::new())),
        (
            "bst/optik-gl",
            Arc::new(OptikGlBst::<optik::OptikVersioned>::new()),
        ),
        ("bst/optik-tk", Arc::new(OptikBst::new())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn every_set_matches_btreemap(ops in set_ops(32, 300)) {
        for (name, set) in all_sets() {
            check_set_against_model(set.as_ref(), &ops)
                .map_err(|e| TestCaseError::fail(format!("{name}: {e}")))?;
        }
    }

    #[test]
    fn every_set_matches_btreemap_dense_two_keys(ops in set_ops(2, 400)) {
        // Two keys: maximal revisit rate; exercises duplicate-insert and
        // delete-reinsert validation paths almost every step.
        for (name, set) in all_sets() {
            check_set_against_model(set.as_ref(), &ops)
                .map_err(|e| TestCaseError::fail(format!("{name}: {e}")))?;
        }
    }
}

/// One kv-store operation drawn by proptest, including the batched and
/// scan operations only the store layer has.
#[derive(Debug, Clone)]
enum KvOp {
    Put(u64, u64),
    Remove(u64),
    Get(u64),
    MultiPut(Vec<(u64, u64)>),
    MultiRemove(Vec<u64>),
    MultiGet(Vec<u64>),
    Snapshot,
}

fn kv_ops(max_key: u64, len: usize) -> impl Strategy<Value = Vec<KvOp>> {
    // (selector, key, val, batch seed): batch contents derive from the
    // seed through a small LCG, so one tuple strategy covers every arm
    // (the offline proptest stand-in has no `prop_oneof`).
    proptest::collection::vec((0u8..7, 1..=max_key, 0u64..1_000, 0u64..u64::MAX), 1..len).prop_map(
        move |tuples| {
            tuples
                .into_iter()
                .map(|(op, k, v, seed)| {
                    let batch_len = (seed % 5 + 1) as usize;
                    let mut x = seed | 1;
                    let mut draw = || {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (x >> 32) % max_key + 1
                    };
                    match op {
                        0 => KvOp::Put(k, v),
                        1 => KvOp::Remove(k),
                        2 => KvOp::Get(k),
                        3 => {
                            KvOp::MultiPut((0..batch_len).map(|i| (draw(), v + i as u64)).collect())
                        }
                        4 => KvOp::MultiRemove((0..batch_len).map(|_| draw()).collect()),
                        5 => KvOp::MultiGet((0..batch_len).map(|_| draw()).collect()),
                        _ => KvOp::Snapshot,
                    }
                })
                .collect()
        },
    )
}

/// Single-threaded batch-op atomicity reduces to sequential composition:
/// every batched operation must agree, entry by entry and in input order,
/// with applying its single-key counterpart to the model — including
/// duplicate keys within one batch (later entries observe earlier ones).
fn check_kv_against_model(
    store: &KvStore<StripedOptikHashTable>,
    ops: &[KvOp],
) -> Result<(), TestCaseError> {
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for op in ops {
        match op {
            &KvOp::Put(k, v) => {
                prop_assert_eq!(store.put(k, v), model.insert(k, v), "put {}", k);
            }
            &KvOp::Remove(k) => {
                prop_assert_eq!(store.remove(k), model.remove(&k), "remove {}", k);
            }
            &KvOp::Get(k) => {
                prop_assert_eq!(store.get(k), model.get(&k).copied(), "get {}", k);
            }
            KvOp::MultiPut(entries) => {
                let expect: Vec<Option<u64>> =
                    entries.iter().map(|&(k, v)| model.insert(k, v)).collect();
                prop_assert_eq!(store.multi_put(entries), expect, "multi_put {:?}", entries);
            }
            KvOp::MultiRemove(keys) => {
                let expect: Vec<Option<u64>> = keys.iter().map(|k| model.remove(k)).collect();
                prop_assert_eq!(store.multi_remove(keys), expect, "multi_remove {:?}", keys);
            }
            KvOp::MultiGet(keys) => {
                let expect: Vec<Option<u64>> = keys.iter().map(|k| model.get(k).copied()).collect();
                prop_assert_eq!(store.multi_get(keys), expect, "multi_get {:?}", keys);
            }
            KvOp::Snapshot => {
                let expect: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
                prop_assert_eq!(store.snapshot(), expect, "snapshot");
            }
        }
    }
    prop_assert_eq!(store.len(), model.len(), "final length");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn kv_store_matches_btreemap_including_batches(ops in kv_ops(24, 200)) {
        for shards in [1usize, 4, 16] {
            let store = KvStore::with_shards(shards, |_| StripedOptikHashTable::new(16, 4));
            check_kv_against_model(&store, &ops)
                .map_err(|e| TestCaseError::fail(format!("{shards} shards: {e}")))?;
        }
    }

    #[test]
    fn map_backends_match_btreemap_upserts(ops in kv_ops(16, 150)) {
        // The raw backends under the same op tape (batches applied as
        // their single-key composition — the trait has no batch API).
        let backends: Vec<(&str, std::sync::Arc<dyn ConcurrentMap>)> = vec![
            ("ht/optik-map", std::sync::Arc::new(
                OptikMapHashTable::with_bucket_capacity(8, 32))),
            ("ht/java", std::sync::Arc::new(StripedHashTable::new(8, 4))),
            ("ht/java-optik", std::sync::Arc::new(StripedOptikHashTable::new(8, 4))),
            ("ht/java-resize", std::sync::Arc::new(ResizableStripedHashTable::new(4, 2))),
        ];
        for (name, m) in backends {
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            for op in &ops {
                match op {
                    &KvOp::Put(k, v) => {
                        prop_assert_eq!(m.put(k, v), model.insert(k, v), "{}: put {}", name, k);
                    }
                    &KvOp::Remove(k) => {
                        prop_assert_eq!(m.remove(k), model.remove(&k), "{}: remove {}", name, k);
                    }
                    &KvOp::Get(k) => {
                        prop_assert_eq!(m.get(k), model.get(&k).copied(), "{}: get {}", name, k);
                    }
                    KvOp::MultiPut(entries) => {
                        for &(k, v) in entries {
                            prop_assert_eq!(m.put(k, v), model.insert(k, v), "{}: put {}", name, k);
                        }
                    }
                    KvOp::MultiRemove(keys) => {
                        for k in keys {
                            prop_assert_eq!(m.remove(*k), model.remove(k), "{}: remove {}", name, k);
                        }
                    }
                    KvOp::MultiGet(keys) => {
                        for k in keys {
                            prop_assert_eq!(m.get(*k), model.get(k).copied(), "{}: get {}", name, k);
                        }
                    }
                    KvOp::Snapshot => {
                        let mut seen = BTreeMap::new();
                        m.for_each(&mut |k, v| { seen.insert(k, v); });
                        prop_assert_eq!(&seen, &model, "{}: for_each", name);
                    }
                }
            }
            prop_assert_eq!(ConcurrentMap::len(m.as_ref()), model.len(), "{}: final length", name);
        }
    }
}

/// Every `OrderedMap` backend (the structures the kv store can mount for
/// range scans), plus ordered-sharded stores over two of them.
fn all_ordered_maps() -> Vec<(&'static str, Arc<dyn OrderedMap>)> {
    use optik_suite::kv::KvStore;
    use optik_suite::skiplists::{
        FraserSkipList, HerlihyOptikSkipList, HerlihySkipList, OptikSkipList1, OptikSkipList2,
    };
    vec![
        ("omap/sl-herlihy", Arc::new(HerlihySkipList::new())),
        ("omap/sl-herl-optik", Arc::new(HerlihyOptikSkipList::new())),
        ("omap/sl-optik1", Arc::new(OptikSkipList1::new())),
        ("omap/sl-optik2", Arc::new(OptikSkipList2::new())),
        ("omap/sl-fraser", Arc::new(FraserSkipList::new())),
        (
            "kv/range-sl",
            Arc::new(KvStore::with_ordered_shards(4, 32, |_| {
                OptikSkipList2::new()
            })),
        ),
        (
            "kv/range-sl-herl-optik",
            Arc::new(KvStore::with_ordered_shards(3, 32, |_| {
                HerlihyOptikSkipList::new()
            })),
        ),
        // Nested stores with *mixed* routing policies: ordered partitions
        // over hash-sharded inner stores, and the inverse — the policy
        // layer composes, and a hash-sharded ordered store still serves
        // ranges (via the post-merge sort) wherever it sits in the stack.
        (
            "kv/nested-ord-over-hash",
            Arc::new(KvStore::with_ordered_shards(3, 32, |_| {
                KvStore::with_shards(2, |_| OptikSkipList2::new())
            })),
        ),
        (
            "kv/nested-hash-over-ord",
            Arc::new(KvStore::with_shards(2, |_| {
                KvStore::with_ordered_shards(3, 32, |_| OptikSkipList2::new())
            })),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Interleaved put/remove/get/range against a `BTreeMap` model: every
    /// batched op is applied as its single-key composition (the trait has
    /// no batch API), every `MultiGet` additionally drives a bounded
    /// `range` over the batch's key window, and every `Snapshot` checks
    /// the full sweep plus `for_each` agreement.
    #[test]
    fn ordered_backends_match_btreemap_with_ranges(ops in kv_ops(24, 200)) {
        for (name, m) in all_ordered_maps() {
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            for op in &ops {
                match op {
                    &KvOp::Put(k, v) => {
                        prop_assert_eq!(m.put(k, v), model.insert(k, v), "{}: put {}", name, k);
                    }
                    &KvOp::Remove(k) => {
                        prop_assert_eq!(m.remove(k), model.remove(&k), "{}: remove {}", name, k);
                    }
                    &KvOp::Get(k) => {
                        prop_assert_eq!(m.get(k), model.get(&k).copied(), "{}: get {}", name, k);
                    }
                    KvOp::MultiPut(entries) => {
                        for &(k, v) in entries {
                            prop_assert_eq!(m.put(k, v), model.insert(k, v), "{}: put {}", name, k);
                        }
                    }
                    KvOp::MultiRemove(keys) => {
                        for k in keys {
                            prop_assert_eq!(m.remove(*k), model.remove(k), "{}: remove {}", name, k);
                        }
                    }
                    KvOp::MultiGet(keys) => {
                        let lo = *keys.iter().min().expect("non-empty batch");
                        let hi = *keys.iter().max().expect("non-empty batch");
                        let got = m.range_collect(lo, hi);
                        let want: Vec<(u64, u64)> =
                            model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
                        prop_assert_eq!(got, want, "{}: range [{}, {}]", name, lo, hi);
                    }
                    KvOp::Snapshot => {
                        let got = m.range_collect(1, u64::MAX - 1);
                        let want: Vec<(u64, u64)> =
                            model.iter().map(|(&k, &v)| (k, v)).collect();
                        prop_assert_eq!(got, want, "{}: full range", name);
                        let mut each = BTreeMap::new();
                        m.for_each(&mut |k, v| { each.insert(k, v); });
                        prop_assert_eq!(&each, &model, "{}: for_each", name);
                    }
                }
            }
            prop_assert_eq!(ConcurrentMap::len(m.as_ref()), model.len(), "{}: final length", name);
        }
    }
}

/// One TTL-store operation drawn by proptest, including explicit fake-
/// clock advances and full-budget sweeps.
#[derive(Debug, Clone, Copy)]
enum TtlKvOp {
    Put(u64, u64),
    PutTtl(u64, u64, u64),
    ExpireAfter(u64, u64),
    Remove(u64),
    Get(u64),
    Advance(u64),
    Sweep,
    Snapshot,
}

fn ttl_ops(max_key: u64, len: usize) -> impl Strategy<Value = Vec<TtlKvOp>> {
    proptest::collection::vec(
        (0u8..8, 1..=max_key, 0u64..1_000, 0u64..u64::MAX).prop_map(|(op, k, v, seed)| {
            let ttl = seed % 9 + 1;
            match op {
                0 => TtlKvOp::Put(k, v),
                1 => TtlKvOp::PutTtl(k, v, ttl),
                2 => TtlKvOp::ExpireAfter(k, ttl),
                3 => TtlKvOp::Remove(k),
                4 => TtlKvOp::Advance(seed % 5 + 1),
                5 => TtlKvOp::Sweep,
                6 => TtlKvOp::Snapshot,
                _ => TtlKvOp::Get(k),
            }
        }),
        1..len,
    )
}

/// Single-threaded TTL semantics against a `BTreeMap<key, (val,
/// deadline)>` model with an explicit clock: every operation first
/// normalizes the touched key (an expired binding is invisible and
/// physically dropped, exactly the store's by-need discipline), sweeps
/// reclaim precisely the expired population, and snapshots show only
/// live bindings — while `len()` tracks the *physical* population, which
/// the model mirrors because both sides purge at the same points.
fn check_ttl_against_model(
    store: &KvStore<StripedOptikHashTable>,
    clock: &optik_suite::kv::FakeClock,
    ops: &[TtlKvOp],
) -> Result<(), TestCaseError> {
    use optik_suite::kv::Clock;
    let mut model: BTreeMap<u64, (u64, Option<u64>)> = BTreeMap::new();
    let purge = |model: &mut BTreeMap<u64, (u64, Option<u64>)>, now: u64, k: u64| {
        if model
            .get(&k)
            .is_some_and(|&(_, d)| d.is_some_and(|d| d <= now))
        {
            model.remove(&k);
        }
    };
    for &op in ops {
        let now = clock.now();
        match op {
            TtlKvOp::Put(k, v) => {
                purge(&mut model, now, k);
                let expect = model.insert(k, (v, None)).map(|(v, _)| v);
                prop_assert_eq!(store.put(k, v), expect, "put {}", k);
            }
            TtlKvOp::PutTtl(k, v, ttl) => {
                purge(&mut model, now, k);
                let expect = model.insert(k, (v, Some(now + ttl))).map(|(v, _)| v);
                prop_assert_eq!(store.put_with_ttl(k, v, ttl), expect, "put_with_ttl {}", k);
            }
            TtlKvOp::ExpireAfter(k, ttl) => {
                purge(&mut model, now, k);
                let expect = model.contains_key(&k);
                if let Some(e) = model.get_mut(&k) {
                    e.1 = Some(now + ttl);
                }
                prop_assert_eq!(store.expire_after(k, ttl), expect, "expire_after {}", k);
            }
            TtlKvOp::Remove(k) => {
                purge(&mut model, now, k);
                let expect = model.remove(&k).map(|(v, _)| v);
                prop_assert_eq!(store.remove(k), expect, "remove {}", k);
            }
            TtlKvOp::Get(k) => {
                let expect = model
                    .get(&k)
                    .filter(|&&(_, d)| !d.is_some_and(|d| d <= now))
                    .map(|&(v, _)| v);
                prop_assert_eq!(store.get(k), expect, "get {}", k);
            }
            TtlKvOp::Advance(ticks) => {
                clock.advance(ticks);
            }
            TtlKvOp::Sweep => {
                let expired: Vec<u64> = model
                    .iter()
                    .filter(|&(_, &(_, d))| d.is_some_and(|d| d <= now))
                    .map(|(&k, _)| k)
                    .collect();
                prop_assert_eq!(
                    store.sweep_expired(4096),
                    expired.len() as u64,
                    "sweep reclaimed a different population"
                );
                for k in expired {
                    model.remove(&k);
                }
            }
            TtlKvOp::Snapshot => {
                let expect: Vec<(u64, u64)> = model
                    .iter()
                    .filter(|&(_, &(_, d))| !d.is_some_and(|d| d <= now))
                    .map(|(&k, &(v, _))| (k, v))
                    .collect();
                prop_assert_eq!(store.snapshot(), expect, "snapshot");
            }
        }
    }
    prop_assert_eq!(store.len(), model.len(), "physical population");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn ttl_store_matches_deadline_btreemap_model(ops in ttl_ops(24, 200)) {
        for shards in [1usize, 4] {
            let clock = Arc::new(optik_suite::kv::FakeClock::new());
            let store = KvStore::with_shards_ttl(
                shards,
                Arc::clone(&clock) as Arc<dyn optik_suite::kv::Clock>,
                |_| StripedOptikHashTable::new(16, 4),
            );
            check_ttl_against_model(&store, &clock, &ops)
                .map_err(|e| TestCaseError::fail(format!("{shards} shards: {e}")))?;
        }
    }
}

/// One queue operation drawn by proptest.
#[derive(Debug, Clone, Copy)]
enum QueueOp {
    Enqueue(u64),
    Dequeue,
}

fn queue_ops(len: usize) -> impl Strategy<Value = Vec<QueueOp>> {
    proptest::collection::vec(
        (0u8..2, 0u64..1_000).prop_map(|(op, v)| {
            if op == 0 {
                QueueOp::Enqueue(v)
            } else {
                QueueOp::Dequeue
            }
        }),
        1..len,
    )
}

fn all_queues() -> Vec<(&'static str, Arc<dyn ConcurrentQueue>)> {
    vec![
        ("ms-lf", Arc::new(MsLfQueue::new())),
        ("ms-lb", Arc::new(MsLbQueue::new())),
        ("optik0", Arc::new(OptikQueue0::new())),
        ("optik1", Arc::new(OptikQueue1::new())),
        ("optik2", Arc::new(OptikQueue2::new())),
        ("optik3", Arc::new(VictimQueue::new())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn every_queue_matches_vecdeque(ops in queue_ops(400)) {
        for (name, q) in all_queues() {
            let mut model: VecDeque<u64> = VecDeque::new();
            for &op in &ops {
                match op {
                    QueueOp::Enqueue(v) => {
                        q.enqueue(v);
                        model.push_back(v);
                    }
                    QueueOp::Dequeue => {
                        prop_assert_eq!(q.dequeue(), model.pop_front(), "{}", name);
                    }
                }
            }
            prop_assert_eq!(q.len(), model.len(), "{}: final length", name);
            // Drain: remaining order must be exact FIFO.
            while let Some(expect) = model.pop_front() {
                prop_assert_eq!(q.dequeue(), Some(expect), "{}: drain", name);
            }
            prop_assert_eq!(q.dequeue(), None, "{}: empty after drain", name);
        }
    }
}

/// One stack operation drawn by proptest.
#[derive(Debug, Clone, Copy)]
enum StackOp {
    Push(u64),
    Pop,
}

fn stack_ops(len: usize) -> impl Strategy<Value = Vec<StackOp>> {
    proptest::collection::vec(
        (0u8..2, 0u64..1_000).prop_map(|(op, v)| {
            if op == 0 {
                StackOp::Push(v)
            } else {
                StackOp::Pop
            }
        }),
        1..len,
    )
}

fn all_stacks() -> Vec<(&'static str, Arc<dyn ConcurrentStack>)> {
    vec![
        ("treiber", Arc::new(TreiberStack::new())),
        ("optik", Arc::new(OptikStack::new())),
        ("elimination", Arc::new(EliminationStack::new())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn every_stack_matches_vec(ops in stack_ops(400)) {
        for (name, s) in all_stacks() {
            let mut model: Vec<u64> = Vec::new();
            for &op in &ops {
                match op {
                    StackOp::Push(v) => {
                        s.push(v);
                        model.push(v);
                    }
                    StackOp::Pop => {
                        prop_assert_eq!(s.pop(), model.pop(), "{}", name);
                    }
                }
            }
            prop_assert_eq!(s.len(), model.len(), "{}: final length", name);
            while let Some(expect) = model.pop() {
                prop_assert_eq!(s.pop(), Some(expect), "{}: drain", name);
            }
        }
    }
}

/// The OPTIK lock version algebra, modelled directly from the paper's
/// Figure 4 semantics: unlock bumps the observable version, revert
/// restores it, and stale versions never validate.
#[derive(Debug, Clone, Copy)]
enum LockOp {
    /// Lock-validate the *current* version, then unlock (commit).
    Commit,
    /// Lock-validate the current version, then revert (abort).
    Abort,
    /// Try to lock with a version stale by the given number of commits.
    TryStale(u8),
}

fn lock_ops(len: usize) -> impl Strategy<Value = Vec<LockOp>> {
    proptest::collection::vec(
        (0u8..3, 1u8..4).prop_map(|(op, n)| match op {
            0 => LockOp::Commit,
            1 => LockOp::Abort,
            _ => LockOp::TryStale(n),
        }),
        1..len,
    )
}

fn check_lock_algebra<L: optik::OptikLock>(ops: &[LockOp]) -> Result<(), TestCaseError> {
    let lock = L::default();
    let mut commits: u64 = 0;
    let mut seen = vec![lock.get_version()];
    for &op in ops {
        match op {
            LockOp::Commit => {
                let v = lock.get_version();
                prop_assert!(lock.try_lock_version(v), "current version must validate");
                lock.unlock();
                commits += 1;
                let v2 = lock.get_version();
                prop_assert!(!L::is_same_version(v, v2), "commit must change the version");
                prop_assert!(!L::is_locked_version(v2), "unlock must free the lock");
                seen.push(v2);
            }
            LockOp::Abort => {
                let v = lock.get_version();
                prop_assert!(lock.try_lock_version(v));
                lock.revert();
                prop_assert!(
                    L::is_same_version(v, lock.get_version()),
                    "revert must restore the version"
                );
            }
            LockOp::TryStale(n) => {
                // Any version observed `>= 1` commit ago must fail.
                let idx = seen.len().saturating_sub(1 + n as usize);
                let stale = seen[idx];
                if !L::is_same_version(stale, lock.get_version()) {
                    prop_assert!(
                        !lock.try_lock_version(stale),
                        "stale version must not validate"
                    );
                    prop_assert!(!lock.is_locked(), "failed trylock must not leave it locked");
                }
            }
        }
    }
    // `commits` counts successful validations; the lock must be free at
    // the end of any algebra sequence (every path unlocks or reverts).
    let _ = commits;
    prop_assert!(!lock.is_locked());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn versioned_lock_algebra(ops in lock_ops(200)) {
        check_lock_algebra::<optik::OptikVersioned>(&ops)?;
    }

    #[test]
    fn ticket_lock_algebra(ops in lock_ops(200)) {
        check_lock_algebra::<optik::OptikTicket>(&ops)?;
    }

    #[test]
    fn optik_cell_is_a_consistent_register(writes in proptest::collection::vec(0u64..1_000, 1..100)) {
        let cell = optik::OptikCell::<u64>::new(0);
        let mut last = 0;
        for w in writes {
            cell.write(w);
            last = w;
            prop_assert_eq!(cell.read(), last);
            let doubled = cell.update(|x| x.wrapping_mul(2));
            last = last.wrapping_mul(2);
            prop_assert_eq!(doubled, last);
        }
        prop_assert_eq!(cell.into_inner(), last);
    }
}

/// One node-pool instruction drawn by proptest.
#[derive(Debug, Clone, Copy)]
enum PoolOp {
    /// Allocate a slot and keep it live.
    Alloc,
    /// Retire the most recent live slot through QSBR.
    Retire,
    /// Allocate and immediately return a never-published slot.
    Unpublish,
    /// Announce a quiescent point and collect graced batches.
    Quiesce,
}

/// Per-thread op tapes (the outer vec is chunked into concurrent waves).
fn pool_tapes(threads: usize, len: usize) -> impl Strategy<Value = Vec<Vec<PoolOp>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            (0u8..6).prop_map(|op| match op {
                0 | 1 => PoolOp::Alloc,
                2 | 3 => PoolOp::Retire,
                4 => PoolOp::Unpublish,
                _ => PoolOp::Quiesce,
            }),
            1..len,
        ),
        1..threads,
    )
}

/// Runs one thread's tape against the shared pool, returning how many
/// slots it allocated and how many it left live (abandoned, never
/// retired). Retired slots are sealed immediately so grace periods can
/// elapse — and magazines exchange with the depot — mid-wave.
fn pool_churn_worker(
    pool: &Arc<optik_suite::reclaim::NodePool<u64>>,
    domain: &Arc<optik_suite::reclaim::Qsbr>,
    tape: &[PoolOp],
) -> (u64, u64) {
    let h = domain.register();
    let mut live: Vec<*mut u64> = Vec::new();
    let mut allocs = 0u64;
    for &op in tape {
        match op {
            PoolOp::Alloc => {
                live.push(pool.alloc_init(|| allocs));
                allocs += 1;
            }
            PoolOp::Retire => {
                if let Some(p) = live.pop() {
                    // SAFETY: allocated above, never published, retired
                    // exactly once.
                    unsafe { pool.retire(p, &h) };
                    h.flush();
                }
            }
            PoolOp::Unpublish => {
                let p = pool.alloc_init(|| 0);
                allocs += 1;
                // SAFETY: allocated just above, never published.
                unsafe { pool.dealloc_unpublished(p) };
            }
            PoolOp::Quiesce => {
                h.quiescent();
                h.collect();
            }
        }
    }
    (allocs, live.len() as u64)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The magazine pool's conservation ledger under randomized thread
    /// churn: threads come and go in concurrent waves over one shared
    /// pool (tiny 4-slot magazines, 16-slot chunks, a private QSBR
    /// domain), allocating, retiring, abandoning live slots, and
    /// announcing quiescence at arbitrary points. After each wave — all
    /// of its handles dropped, so every sealed batch has passed grace —
    /// the ledger must balance exactly: no slot lost in a magazine⇄depot
    /// exchange, none recirculated twice, and the bump region's handout
    /// count covering every fresh (non-recycled) allocation.
    #[test]
    fn pool_conservation_ledger_under_thread_churn(tapes in pool_tapes(6, 60)) {
        use optik_suite::reclaim::NodePool;

        let pool: Arc<NodePool<u64>> = NodePool::with_config(16, 4);
        let domain = optik_suite::reclaim::Qsbr::new();
        let mut total_allocs = 0u64;
        let mut total_live = 0u64;
        for wave in tapes.chunks(2) {
            let results: Vec<(u64, u64)> = std::thread::scope(|s| {
                let joins: Vec<_> = wave
                    .iter()
                    .map(|tape| {
                        let pool = &pool;
                        let domain = &domain;
                        s.spawn(move || pool_churn_worker(pool, domain, tape))
                    })
                    .collect();
                joins
                    .into_iter()
                    .map(|j| j.join().expect("pool churn worker"))
                    .collect()
            });
            for (allocs, live) in results {
                total_allocs += allocs;
                total_live += live;
            }
            let s = pool.stats();
            let d = domain.stats();
            prop_assert_eq!(d.retired, d.freed, "wave stranded garbage: {:?}", d);
            prop_assert_eq!(s.in_grace, 0, "wave left slots in grace: {:?}", s);
            prop_assert_eq!(s.allocations, total_allocs, "allocation count drifted: {:?}", s);
            prop_assert_eq!(s.live(), total_live, "slot conservation violated: {:?}", s);
            // Bump handouts cover every fresh allocation; the excess is
            // batch-prefetched slots still parked (fresh) in magazines.
            prop_assert!(
                s.capacity - s.unallocated >= s.allocations - s.recycle_hits,
                "bump-region ledger drifted: {:?}",
                s
            );
        }
    }
}
