//! Online range-partition migration for ordered-sharded stores.
//!
//! An ordered-sharded store's load follows the key distribution, so a hot
//! key range concentrates on one partition.
//! [`KvStore::shift_boundary`] moves the boundary between two adjacent
//! shards to a new key while the store serves traffic, migrating the
//! entries that change ownership in bounded batches. When to move a
//! boundary, and where to, is the caller's decision: the store keeps no
//! load statistics, so its reads write nothing to decide it.
//!
//! Each migration batch follows the store's own disciplines: the two
//! flanking shard locks are taken in **ascending order** (the sorted-
//! acquisition total order every batched operation uses, so rebalancing
//! cannot deadlock against batches or scans), the batch is **copied** to
//! the receiver, the routing table flips (one OPTIK version bump on the
//! partition table), and only then are the originals retired from the
//! donor. A lock-free get that raced the flip fails routing validation
//! and retries; one that routed before the flip finds the originals still
//! present. Between batches every lock is released, so writers starve for
//! at most one batch. Expiry deadlines (TTL stores) migrate with their
//! entries.

use std::fmt;

use optik::OptikLock;

use optik_harness::api::{Key, OrderedMap, Val};

use crate::policy::RangePolicy;
use crate::store::{KvStore, Shard};

/// Keys migrated per lock acquisition: the granularity at which writers
/// blocked on a migrating shard make progress.
pub const MIGRATION_BATCH: usize = 64;

/// What one boundary migration did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Entries that changed shards.
    pub moved: u64,
    /// Lock acquisitions it took (≥ 1 batch per [`MIGRATION_BATCH`] keys).
    pub batches: u64,
}

/// Why a rebalance request was refused (no partial migration happens: the
/// boundary either reaches the requested key or is untouched).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceError {
    /// The store routes by hash; there is no partition table to move.
    NotRangeSharded,
    /// `boundary` does not name a movable boundary (the last partition's
    /// bound is pinned to `u64::MAX`).
    NoSuchBoundary {
        /// The offending boundary index.
        boundary: usize,
    },
    /// The requested bound would leave the partition table unsorted.
    BoundOutOfOrder {
        /// The requested bound.
        new_bound: Key,
        /// Smallest legal bound (the previous partition's bound).
        lower: Key,
        /// Largest legal bound (the next partition's bound).
        upper: Key,
    },
}

impl fmt::Display for RebalanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RebalanceError::NotRangeSharded => {
                write!(f, "store is hash-sharded: no partition table to move")
            }
            RebalanceError::NoSuchBoundary { boundary } => {
                write!(f, "boundary {boundary} does not exist or is pinned")
            }
            RebalanceError::BoundOutOfOrder {
                new_bound,
                lower,
                upper,
            } => write!(
                f,
                "bound {new_bound} outside the legal window [{lower}, {upper}]"
            ),
        }
    }
}

impl<B: OrderedMap> KvStore<B> {
    /// The current partition table (ascending inclusive upper bounds,
    /// last entry `u64::MAX`), or `None` for hash-sharded stores.
    pub fn partition_bounds(&self) -> Option<Vec<Key>> {
        self.routing.range().map(RangePolicy::snapshot_bounds)
    }

    /// Moves the boundary between shards `boundary` and `boundary + 1` to
    /// `new_bound` (the new inclusive upper key of shard `boundary`),
    /// migrating every entry that changes ownership in
    /// [`MIGRATION_BATCH`]-key batches. Concurrent gets, puts, batches,
    /// and range scans stay linearizable throughout — they validate the
    /// routing version (reads) or re-check the route under the shard lock
    /// (writes) and retry across the flip.
    ///
    /// Returns how much was migrated. Lowering the bound donates the
    /// upper span of shard `boundary` rightward; raising it pulls the
    /// lower span of shard `boundary + 1` leftward; either end may leave
    /// a partition empty-span (a legal state — splitting it back later is
    /// just another shift).
    pub fn shift_boundary(
        &self,
        boundary: usize,
        new_bound: Key,
    ) -> Result<MigrationStats, RebalanceError> {
        let rp = self
            .routing
            .range()
            .ok_or(RebalanceError::NotRangeSharded)?;
        if boundary + 1 >= self.shards.len() {
            return Err(RebalanceError::NoSuchBoundary { boundary });
        }
        let mut stats = MigrationStats::default();
        loop {
            let (a, b) = (boundary, boundary + 1);
            // Span covers the locked batch: acquisition through the copy,
            // flip, and retire in `migrate` (which releases the locks).
            let _span = optik_probe::trace::span(optik_probe::trace::SpanKind::Migration);
            // Ascending acquisition: the store-wide batch total order.
            self.shards[a].lock.lock();
            self.shards[b].lock.lock();
            stats.batches += 1;
            optik_probe::count(optik_probe::Event::MigrationBatch);
            // Flanking bounds are stable while we hold these two locks
            // (moving either needs one of them).
            let cur = rp.bound(a);
            let lower = if a == 0 { 0 } else { rp.bound(a - 1) };
            let upper = rp.bound(b);
            if new_bound < lower || new_bound > upper {
                self.shards[b].lock.revert();
                self.shards[a].lock.revert();
                return Err(RebalanceError::BoundOutOfOrder {
                    new_bound,
                    lower,
                    upper,
                });
            }
            let done = match new_bound.cmp(&cur) {
                std::cmp::Ordering::Equal => {
                    self.shards[b].lock.revert();
                    self.shards[a].lock.revert();
                    true
                }
                std::cmp::Ordering::Less => {
                    // Shrink shard a: keys in (new_bound, cur] move a → b,
                    // top-down so every intermediate bound keeps unmoved
                    // keys on shard a's side of the table.
                    self.migrate(
                        rp,
                        a,
                        b,
                        a,
                        new_bound.saturating_add(1),
                        cur,
                        new_bound,
                        &mut stats,
                    )
                }
                std::cmp::Ordering::Greater => {
                    // Grow shard a: keys in (cur, new_bound] move b → a,
                    // bottom-up for the symmetric reason.
                    self.migrate(
                        rp,
                        a,
                        b,
                        b,
                        cur.saturating_add(1),
                        new_bound,
                        new_bound,
                        &mut stats,
                    )
                }
            };
            if done {
                return Ok(stats);
            }
            // Locks were released by `migrate`; writers drain before the
            // next batch.
        }
    }

    /// One locked migration batch between the locked shards `a` < `b`:
    /// moves up to [`MIGRATION_BATCH`] entries of `[span_lo, span_hi]`
    /// out of `donor` (the edge nearest `target` last), flips
    /// `bounds[a]` to an intermediate bound that exactly covers the moved
    /// prefix, and retires the originals. Returns whether the boundary
    /// reached `target`. Unlocks both shards either way.
    #[allow(clippy::too_many_arguments)] // one tight internal step, named at the two call sites
    fn migrate(
        &self,
        rp: &RangePolicy,
        a: usize,
        b: usize,
        donor: usize,
        span_lo: Key,
        span_hi: Key,
        target: Key,
        stats: &mut MigrationStats,
    ) -> bool {
        let donor_shard: &Shard<B> = &self.shards[donor];
        let recv_shard: &Shard<B> = &self.shards[a + b - donor];
        let mut span: Vec<(Key, Val)> = Vec::new();
        // Exact under the shard lock: writers are excluded.
        donor_shard
            .map
            .range(span_lo, span_hi, &mut |k, v| span.push((k, v)));
        if span.is_empty() {
            rp.shift(a, target);
            // The maps did not change; only the routing version bumps.
            self.shards[b].lock.revert();
            self.shards[a].lock.revert();
            return true;
        }
        let take = span.len().min(MIGRATION_BATCH);
        let shrinking = donor == a;
        let (batch, next) = if shrinking {
            // Donate the top of the span; the intermediate bound sits just
            // below the smallest moved key.
            let batch = &span[span.len() - take..];
            let next = if take == span.len() {
                target
            } else {
                batch[0].0 - 1
            };
            (batch, next)
        } else {
            // Pull the bottom of the span; the intermediate bound is the
            // largest moved key.
            let batch = &span[..take];
            let next = if take == span.len() {
                target
            } else {
                batch[take - 1].0
            };
            (batch, next)
        };
        // Copy first (values with any TTL deadlines)…
        for &(k, v) in batch {
            let deadline = donor_shard.deadlines.as_ref().and_then(|dd| dd.get(k));
            recv_shard.put_entry(k, v, deadline);
        }
        // …flip the routing (one version bump: optimistic readers that
        // routed before the flip re-validate and retry)…
        rp.shift(a, next);
        // …then retire the originals from the donor.
        for &(k, _) in batch {
            donor_shard.remove_entry(k);
        }
        stats.moved += take as u64;
        optik_probe::count_n(optik_probe::Event::MigrationMoved, take as u64);
        self.shards[b].lock.unlock();
        self.shards[a].lock.unlock();
        next == target
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optik_harness::api::ConcurrentMap;
    use optik_skiplists::OptikSkipList2;

    fn ordered_store(shards: usize, max_key: u64) -> KvStore<OptikSkipList2> {
        KvStore::with_ordered_shards(shards, max_key, |_| OptikSkipList2::new())
    }

    #[test]
    fn shift_migrates_entries_both_ways() {
        let s = ordered_store(4, 400);
        for k in 1..=400u64 {
            s.put(k, k + 9);
        }
        assert_eq!(s.partition_bounds().unwrap(), vec![100, 200, 300, u64::MAX]);
        // Shrink shard 0 to [1, 40]: 60 keys migrate into shard 1.
        let stats = s.shift_boundary(0, 40).unwrap();
        assert_eq!(stats.moved, 60);
        assert_eq!(s.partition_bounds().unwrap()[0], 40);
        // Everything still routes and reads exactly.
        for k in 1..=400u64 {
            assert_eq!(s.get(k), Some(k + 9), "key {k} after shrink");
        }
        assert_eq!(s.len(), 400);
        // Grow it back past its old bound: 110 keys migrate left.
        let stats = s.shift_boundary(0, 150).unwrap();
        assert_eq!(stats.moved, 110);
        for k in 1..=400u64 {
            assert_eq!(s.get(k), Some(k + 9), "key {k} after grow");
        }
        let win = s.range_scan(1, 400);
        assert_eq!(win.len(), 400);
        assert!(win.windows(2).all(|w| w[0].0 < w[1].0), "no duplicates");
    }

    #[test]
    fn shift_batches_bound_the_per_lock_work() {
        let s = ordered_store(2, 1000);
        for k in 1..=500u64 {
            s.put(k, k);
        }
        // 500 keys over batches of MIGRATION_BATCH: at least 8 lock rounds.
        let stats = s.shift_boundary(0, 0).unwrap();
        assert_eq!(stats.moved, 500);
        assert!(
            stats.batches as usize >= 500 / MIGRATION_BATCH,
            "{} batches",
            stats.batches
        );
        // Shard 0 is now an empty-span partition; the store still serves.
        assert_eq!(s.partition_bounds().unwrap(), vec![0, u64::MAX]);
        assert_eq!(s.len(), 500);
        assert_eq!(s.range_scan(1, 1000).len(), 500);
        assert_eq!(s.get(250), Some(250));
    }

    #[test]
    fn shift_rejects_illegal_requests() {
        let s = ordered_store(4, 400);
        assert_eq!(
            s.shift_boundary(3, 50),
            Err(RebalanceError::NoSuchBoundary { boundary: 3 }),
            "the last bound is pinned"
        );
        assert_eq!(
            s.shift_boundary(1, 50),
            Err(RebalanceError::BoundOutOfOrder {
                new_bound: 50,
                lower: 100,
                upper: 300
            }),
            "bounds must stay sorted"
        );
        let hash = KvStore::with_shards(4, |_| OptikSkipList2::new());
        assert_eq!(
            hash.shift_boundary(0, 10),
            Err(RebalanceError::NotRangeSharded)
        );
        assert!(hash.partition_bounds().is_none());
    }

    #[test]
    fn shard_of_follows_a_boundary_shift() {
        let s = ordered_store(4, 400);
        for k in 1..=400u64 {
            s.put(k, k);
        }
        assert_eq!(s.shard_of(150), 1);
        s.shift_boundary(0, 150).unwrap();
        assert_eq!((s.shard_of(150), s.shard_of(151)), (0, 1));
        // Shard 1 becomes empty-span: its old keys now route to shard 2.
        s.shift_boundary(1, 150).unwrap();
        assert_eq!((s.shard_of(150), s.shard_of(151)), (0, 2));
        assert_eq!(s.shard_of(300), 2);
        for k in 1..=400u64 {
            assert_eq!(s.get(k), Some(k), "key {k}");
            assert_eq!(s.backend(s.shard_of(k)).get(k), Some(k), "key {k}");
        }
    }

    #[test]
    fn empty_partitions_migrate_for_free() {
        let s = ordered_store(4, 400);
        // No entries at all: every shift is a pure routing flip.
        let stats = s.shift_boundary(1, 110).unwrap();
        assert_eq!(
            stats,
            MigrationStats {
                moved: 0,
                batches: 1
            }
        );
        assert!(s.range_scan(1, 400).is_empty());
        assert_eq!(ConcurrentMap::len(&s), 0);
    }

    #[test]
    fn deadlines_migrate_with_their_entries() {
        // `shift_boundary` writes both shards' data maps and deadline tables
        // through the single-writer entry points; the (value, deadline) pairs
        // must arrive intact on the other side, in both directions.
        let clock = std::sync::Arc::new(crate::ttl::FakeClock::new());
        let s: KvStore<OptikSkipList2> =
            KvStore::with_ordered_shards_ttl(2, 100, clock.clone(), |_| OptikSkipList2::new());
        for k in 1..=100u64 {
            if k % 2 == 0 {
                s.put_with_ttl(k, k * 3, k);
            } else {
                s.put(k, k * 3);
            }
        }
        let moved = s.shift_boundary(0, 20).expect("legal shift").moved;
        assert_eq!(moved, 30, "keys 21..=50 change shards");
        let moved = s.shift_boundary(0, 80).expect("legal shift").moved;
        assert_eq!(moved, 60, "keys 21..=80 change shards");
        assert_eq!(s.len(), 100);
        // Even keys expire at tick == key: after 40 ticks exactly the even
        // keys up to 40 are gone, wherever they live now.
        clock.advance(40);
        let want: Vec<(u64, u64)> = (1..=100u64)
            .filter(|k| k % 2 == 1 || *k > 40)
            .map(|k| (k, k * 3))
            .collect();
        assert_eq!(s.snapshot(), want);
        assert_eq!(s.sweep_expired(1024), 20);
        assert_eq!(s.len(), 80);
    }
}
