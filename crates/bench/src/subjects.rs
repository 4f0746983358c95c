//! The subject table: every structure the correctness tiers check,
//! listed once.
//!
//! A row pairs a subject id (`list/harris`, `kv/range-sl-optik2`, ...)
//! with a [`Subject`]: a factory that takes the largest key its caller
//! will use and builds the structure sized for it (queues and stacks,
//! which hold values, take no size). The property, stress and
//! linearizability tiers in `tests/` iterate [`table`] at their own key
//! ranges, so a structure listed here is checked by every tier. The
//! scenarios in [`crate::scenarios`] name their row by id and keep their
//! own paper-sized constructors for the benchmark; a row no scenario
//! names (the nested stores) is checked without being benchmarked.
//!
//! Sizing for a caller's `max_key`:
//!
//! - hash-table rows get `max_key / 4` buckets (at least one), split over
//!   a kv row's shards, so chains hold a few keys and collide;
//! - fixed-capacity rows (the array maps, `OptikMapHashTable`'s bucket
//!   arrays) hold every key in `1..=max_key`;
//! - range-routed kv rows partition `[1, max_key]` over the shard count
//!   their scenarios register.

use std::sync::Arc;

use optik::{OptikTicket, OptikVersioned};
use optik_harness::api::{
    ConcurrentMap, ConcurrentQueue, ConcurrentSet, ConcurrentStack, Key, OrderedMap,
};

use optik_bsts::{GlobalLockBst, OptikBst, OptikGlBst};
use optik_hashtables::{
    LazyGlHashTable, OptikGlHashTable, OptikHashTable, OptikMapHashTable,
    ResizableStripedHashTable, StripedHashTable, StripedOptikHashTable,
};
use optik_kv::{KvStore, SystemClock};
use optik_lists::{GlobalLockList, HarrisList, LazyList, OptikGlList, OptikList};
use optik_maps::{LockArrayMap, OptikArrayMap};
use optik_queues::{MsLbQueue, MsLfQueue, OptikQueue0, OptikQueue1, OptikQueue2, VictimQueue};
use optik_skiplists::{
    FraserSkipList, HerlihyOptikSkipList, HerlihySkipList, OptikSkipList1, OptikSkipList2,
};
use optik_stacks::{EliminationStack, OptikStack, TreiberStack};

/// Builds a fresh structure for keys in `1..=max_key`.
type Make<T> = Box<dyn Fn(Key) -> Arc<T> + Send + Sync>;

/// Builds a fresh structure that holds values, not keys: no size to fit.
type MakeUnkeyed<T> = Box<dyn Fn() -> Arc<T> + Send + Sync>;

/// How the correctness tiers build one row's structure, by the interface
/// they check it through.
pub enum Subject {
    /// A search data structure (list, hash table, skip list, array map,
    /// BST).
    Set(Make<dyn ConcurrentSet>),
    /// A FIFO queue.
    Queue(MakeUnkeyed<dyn ConcurrentQueue>),
    /// A LIFO stack.
    Stack(MakeUnkeyed<dyn ConcurrentStack>),
    /// A key–value map (upsert semantics: the hash-routed kv stores).
    Map(Make<dyn ConcurrentMap>),
    /// An ordered key–value map (map semantics plus range scans: the
    /// skip lists as maps and the stores mounted over them). The tiers
    /// run both the map checks and the range checks on these.
    Ordered(Make<dyn OrderedMap>),
}

impl Subject {
    /// A set row.
    pub fn set<S: ConcurrentSet + 'static>(
        make: impl Fn(Key) -> S + Send + Sync + 'static,
    ) -> Self {
        Subject::Set(Box::new(move |max_key| Arc::new(make(max_key))))
    }

    /// A queue row.
    pub fn queue<Q: ConcurrentQueue + 'static>(
        make: impl Fn() -> Q + Send + Sync + 'static,
    ) -> Self {
        Subject::Queue(Box::new(move || Arc::new(make())))
    }

    /// A stack row.
    pub fn stack<S: ConcurrentStack + 'static>(
        make: impl Fn() -> S + Send + Sync + 'static,
    ) -> Self {
        Subject::Stack(Box::new(move || Arc::new(make())))
    }

    /// A map row.
    pub fn map<M: ConcurrentMap + 'static>(
        make: impl Fn(Key) -> M + Send + Sync + 'static,
    ) -> Self {
        Subject::Map(Box::new(move |max_key| Arc::new(make(max_key))))
    }

    /// An ordered-map row.
    pub fn ordered<M: OrderedMap + 'static>(
        make: impl Fn(Key) -> M + Send + Sync + 'static,
    ) -> Self {
        Subject::Ordered(Box::new(move |max_key| Arc::new(make(max_key))))
    }

    /// Short tag for listings: `set`, `queue`, `stack`, `map` or
    /// `ordered`.
    pub fn kind(&self) -> &'static str {
        match self {
            Subject::Set(_) => "set",
            Subject::Queue(_) => "queue",
            Subject::Stack(_) => "stack",
            Subject::Map(_) => "map",
            Subject::Ordered(_) => "ordered",
        }
    }
}

/// The kind of `id`'s row (see [`Subject::kind`]), or `-` for an id with
/// no row: a raw loop that builds no structure (`lock/`, `alloc/` and
/// `probe/` scenarios).
pub fn kind(id: &str) -> &'static str {
    table()
        .iter()
        .find(|(row, _)| *row == id)
        .map_or("-", |(_, subject)| subject.kind())
}

/// Lock stripes of the Java-style table rows: fewer than their buckets
/// once `max_key` reaches 20, so buckets share stripes.
const SEGMENTS: usize = 4;

/// Shards of the kv rows whose scenarios register eight.
const SHARDS: usize = 8;

/// Buckets for one of `ways` equal parts of a hash-table row sized for
/// `max_key`: a quarter of the key range in all, at least one per part.
fn buckets(max_key: Key, ways: usize) -> usize {
    (max_key as usize / 4 / ways).max(1)
}

/// A hash-routed store of `shards` backends, each `backend(max_key,
/// shards)`.
fn hashed<B: ConcurrentMap + 'static>(
    shards: usize,
    backend: fn(Key, usize) -> B,
) -> impl Fn(Key) -> KvStore<B> + Send + Sync + 'static {
    move |max_key| KvStore::with_shards(shards, |_| backend(max_key, shards))
}

/// A range-routed store partitioning `[1, max_key]` over `shards`
/// backends.
fn ranged<B: OrderedMap + 'static>(
    shards: usize,
    backend: fn() -> B,
) -> impl Fn(Key) -> KvStore<B> + Send + Sync + 'static {
    move |max_key| KvStore::with_ordered_shards(shards, max_key, |_| backend())
}

/// A hash-routed TTL store of [`SHARDS`] backends on the wall clock.
fn ttl<B: ConcurrentMap + 'static>(
    backend: fn(Key, usize) -> B,
) -> impl Fn(Key) -> KvStore<B> + Send + Sync + 'static {
    move |max_key| {
        KvStore::with_shards_ttl(SHARDS, Arc::new(SystemClock::new()), |_| {
            backend(max_key, SHARDS)
        })
    }
}

// The hash-table backends, sized as one of `ways` parts of a row for
// `max_key` (`ways` is a kv row's shard count, 1 for a bare table).

/// Bucket arrays hold every key up to `max_key`: keys pick buckets by
/// `key % buckets`, so no bucket sees more than `max_key / buckets`
/// (rounded up).
fn optik_map_backend(max_key: Key, ways: usize) -> OptikMapHashTable {
    let b = buckets(max_key, ways);
    OptikMapHashTable::with_bucket_capacity(b, (max_key as usize).div_ceil(b))
}

fn striped_backend(max_key: Key, ways: usize) -> StripedHashTable {
    StripedHashTable::new(buckets(max_key, ways), SEGMENTS)
}

fn striped_optik_backend(max_key: Key, ways: usize) -> StripedOptikHashTable {
    StripedOptikHashTable::new(buckets(max_key, ways), SEGMENTS)
}

/// Starts at the row's bucket count, two per segment, and grows.
fn resizable_backend(max_key: Key, ways: usize) -> ResizableStripedHashTable {
    ResizableStripedHashTable::new((buckets(max_key, ways) / 2).max(1), 2)
}

/// Every subject, one row per id.
pub fn table() -> Vec<(&'static str, Subject)> {
    let mut rows = vec![
        ("map/mcs", Subject::set(|m| LockArrayMap::new(m as usize))),
        (
            "map/optik",
            Subject::set(|m| OptikArrayMap::<OptikVersioned>::new(m as usize)),
        ),
        ("list/harris", Subject::set(|_| HarrisList::new())),
        ("list/lazy", Subject::set(|_| LazyList::new())),
        ("list/mcs-gl-opt", Subject::set(|_| GlobalLockList::new())),
        (
            "list/optik-gl",
            Subject::set(|_| OptikGlList::<OptikVersioned>::new()),
        ),
        (
            "list/optik-gl-ticket",
            Subject::set(|_| OptikGlList::<OptikTicket>::new()),
        ),
        ("list/optik", Subject::set(|_| OptikList::new())),
        (
            "ht/lazy-gl",
            Subject::set(|m| LazyGlHashTable::new(buckets(m, 1))),
        ),
        ("ht/java", Subject::set(|m| striped_backend(m, 1))),
        (
            "ht/java-undersized",
            Subject::set(|m| striped_backend(m, 16)),
        ),
        ("ht/java-resize", Subject::set(|m| resizable_backend(m, 1))),
        (
            "ht/java-optik",
            Subject::set(|m| striped_optik_backend(m, 1)),
        ),
        (
            "ht/optik",
            Subject::set(|m| OptikHashTable::new(buckets(m, 1))),
        ),
        (
            "ht/optik-gl",
            Subject::set(|m| OptikGlHashTable::new(buckets(m, 1))),
        ),
        ("ht/optik-map", Subject::set(|m| optik_map_backend(m, 1))),
        ("sl/fraser", Subject::set(|_| FraserSkipList::new())),
        ("sl/herlihy", Subject::set(|_| HerlihySkipList::new())),
        (
            "sl/herl-optik",
            Subject::set(|_| HerlihyOptikSkipList::new()),
        ),
        ("sl/optik1", Subject::set(|_| OptikSkipList1::new())),
        ("sl/optik2", Subject::set(|_| OptikSkipList2::new())),
        ("bst/mcs-gl", Subject::set(|_| GlobalLockBst::new())),
        (
            "bst/optik-gl",
            Subject::set(|_| OptikGlBst::<OptikVersioned>::new()),
        ),
        ("bst/optik-tk", Subject::set(|_| OptikBst::new())),
        ("queue/ms-lf", Subject::queue(MsLfQueue::new)),
        ("queue/ms-lb", Subject::queue(MsLbQueue::new)),
        ("queue/optik0", Subject::queue(OptikQueue0::new)),
        ("queue/optik1", Subject::queue(OptikQueue1::new)),
        ("queue/optik2", Subject::queue(OptikQueue2::new)),
        ("queue/optik3", Subject::queue(VictimQueue::new)),
        ("stack/treiber", Subject::stack(TreiberStack::new)),
        ("stack/optik", Subject::stack(OptikStack::new)),
        ("stack/elim", Subject::stack(EliminationStack::new)),
        (
            "kv/optik-map",
            Subject::map(hashed(SHARDS, optik_map_backend)),
        ),
        ("kv/striped", Subject::map(hashed(SHARDS, striped_backend))),
        (
            "kv/striped-optik",
            Subject::map(hashed(SHARDS, striped_optik_backend)),
        ),
        (
            "kv/resizable",
            Subject::map(hashed(SHARDS, resizable_backend)),
        ),
        (
            "kv/optik-map-small",
            Subject::map(hashed(16, optik_map_backend)),
        ),
        ("kv/ttl-optik-map", Subject::map(ttl(optik_map_backend))),
        (
            "kv/ttl-striped-optik",
            Subject::map(ttl(striped_optik_backend)),
        ),
        ("kv/ttl-resizable", Subject::map(ttl(resizable_backend))),
        (
            "kv/hash-skiplist",
            Subject::ordered(|_| KvStore::with_shards(SHARDS, |_| OptikSkipList2::new())),
        ),
        (
            "kv/range-sl-herlihy",
            Subject::ordered(ranged(SHARDS, HerlihySkipList::new)),
        ),
        (
            "kv/range-sl-herl-optik",
            Subject::ordered(ranged(SHARDS, HerlihyOptikSkipList::new)),
        ),
        (
            "kv/range-sl-optik2",
            Subject::ordered(ranged(SHARDS, OptikSkipList2::new)),
        ),
        (
            "kv/range-sl-fraser",
            Subject::ordered(ranged(SHARDS, FraserSkipList::new)),
        ),
        // Nested stores with mixed routing: ordered partitions over
        // hash-sharded inner stores, and the inverse. The routing layers
        // compose, and a hash-routed ordered store still serves ranges
        // (by its post-merge sort) wherever it sits in the stack.
        (
            "kv/nested-ord-over-hash",
            Subject::ordered(|m| {
                KvStore::with_ordered_shards(3, m, |_| {
                    KvStore::with_shards(2, |_| OptikSkipList2::new())
                })
            }),
        ),
        (
            "kv/nested-hash-over-ord",
            Subject::ordered(|m| {
                KvStore::with_shards(2, |_| {
                    KvStore::with_ordered_shards(3, m, |_| OptikSkipList2::new())
                })
            }),
        ),
        (
            "omap/sl-herlihy",
            Subject::ordered(|_| HerlihySkipList::new()),
        ),
        (
            "omap/sl-herl-optik",
            Subject::ordered(|_| HerlihyOptikSkipList::new()),
        ),
        (
            "omap/sl-optik1",
            Subject::ordered(|_| OptikSkipList1::new()),
        ),
        (
            "omap/sl-optik2",
            Subject::ordered(|_| OptikSkipList2::new()),
        ),
        (
            "omap/sl-fraser",
            Subject::ordered(|_| FraserSkipList::new()),
        ),
    ];
    // The victim-queue threshold sweep: t0 (always divert) and tinf
    // (victim queue disabled) are different code paths from the paper's
    // t2, so each threshold is a row of its own.
    for (id, threshold) in [
        ("queue/optik3-t0", 0u32),
        ("queue/optik3-t1", 1),
        ("queue/optik3-t2", 2),
        ("queue/optik3-t4", 4),
        ("queue/optik3-t8", 8),
        ("queue/optik3-t16", 16),
        ("queue/optik3-tinf", u32::MAX),
    ] {
        rows.push((
            id,
            Subject::queue(move || VictimQueue::with_threshold(threshold)),
        ));
    }
    // The shard-count sweep over one backend.
    for (id, shards) in [
        ("kv/striped-optik-s1", 1),
        ("kv/striped-optik-s2", 2),
        ("kv/striped-optik-s4", 4),
        ("kv/striped-optik-s8", 8),
        ("kv/striped-optik-s16", 16),
        ("kv/striped-optik-s32", 32),
    ] {
        rows.push((id, Subject::map(hashed(shards, striped_optik_backend))));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_names_a_row_or_a_raw_loop() {
        let ids: Vec<&str> = table().into_iter().map(|(id, _)| id).collect();
        for s in crate::scenarios::registry().iter() {
            let id = s.subject_id();
            let raw_loop = ["lock/", "alloc/", "probe/"]
                .iter()
                .any(|p| id.starts_with(p));
            assert!(
                ids.contains(&id) != raw_loop,
                "{}: subject id `{id}` must name a table row or a raw loop, not both or neither",
                s.name()
            );
        }
    }

    #[test]
    fn no_id_has_two_rows() {
        let mut ids: Vec<&str> = table().into_iter().map(|(id, _)| id).collect();
        let rows = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), rows, "duplicate subject ids");
    }

    #[test]
    fn every_row_holds_every_key_up_to_its_max_key() {
        const MAX_KEY: Key = 32;
        let holds_all =
            |id: &str, insert: &dyn Fn(Key) -> bool, search: &dyn Fn(Key) -> Option<Key>| {
                for k in 1..=MAX_KEY {
                    assert!(insert(k), "{id}: insert {k}");
                }
                for k in 1..=MAX_KEY {
                    assert_eq!(search(k), Some(k), "{id}: search {k}");
                }
            };
        for (id, subject) in table() {
            match subject {
                Subject::Set(make) => {
                    let set = make(MAX_KEY);
                    holds_all(id, &|k| set.insert(k, k), &|k| set.search(k));
                }
                Subject::Map(make) => {
                    let map = make(MAX_KEY);
                    holds_all(id, &|k| map.put(k, k).is_none(), &|k| map.get(k));
                }
                Subject::Ordered(make) => {
                    let map = make(MAX_KEY);
                    holds_all(id, &|k| map.put(k, k).is_none(), &|k| map.get(k));
                }
                // Queues and stacks hold values, not keys: no size to fit.
                Subject::Queue(_) | Subject::Stack(_) => {}
            }
        }
    }
}
