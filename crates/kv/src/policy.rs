//! The routing layer: pluggable [`ShardPolicy`] implementations deciding
//! which shard owns a key.
//!
//! Two policies ship with the store:
//!
//! - [`HashPolicy`] — Fibonacci-spread hashing (the default): uniform
//!   load, static routing (the table never changes), but a key range
//!   intersects every shard.
//! - [`RangePolicy`] — contiguous key partitions whose boundaries live in
//!   an atomic partition table guarded by an OPTIK version lock: range
//!   scans touch only the shards their window intersects, and the online
//!   rebalancer (`rebalance.rs`) migrates boundaries while the store
//!   serves traffic.
//!
//! Routing reads are the read-side OPTIK pattern one level *above* the
//! shards: [`ShardPolicy::route`] is a raw, lock-free read of the routing
//! table, and callers of a **dynamic** policy pair it with
//! [`ShardPolicy::version`] / [`ShardPolicy::validate`] (optimistic reads)
//! or with a shard-lock re-check (writes) to make the decision stable —
//! exactly how the store's data reads validate against shard versions.
//! Static policies validate trivially (and the store caches the
//! static/dynamic bit), so a hash-sharded fast path pays one indirect
//! `route` call and nothing else over the pre-layer code.

use std::sync::atomic::Ordering;

// The partition-table bounds are OPTIK validation points (optimistic
// routes read them and validate against the routing lock), so they use
// the schedulable shim type: raw atomics in normal builds, yield points
// under `--cfg optik_explore`.
use synchro::shim::AtomicU64;

use optik::{OptikLock, OptikVersioned, Version};

use optik_harness::api::Key;

/// Fibonacci spread; the *high* bits select the shard so backends that
/// bucket by `key % buckets` see an unbiased key stream per shard.
#[inline]
pub(crate) fn spread(key: Key) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// How keys map to shards.
///
/// Implementations must route every key to a shard index below
/// [`ShardPolicy::num_shards`], even while the table is being modified —
/// a concurrent reader may act on a stale decision, never on an
/// out-of-bounds one. Dynamic policies (those whose table can change)
/// additionally expose an OPTIK version so readers can detect a routing
/// change that raced their data reads and retry.
pub trait ShardPolicy: Send + Sync {
    /// Number of shards this policy routes over.
    fn num_shards(&self) -> usize;

    /// Whether the routing table can change at runtime. Static policies
    /// let the store skip routing validation entirely.
    fn is_dynamic(&self) -> bool {
        false
    }

    /// Current routing-table version (free, i.e. not mid-update), for
    /// later [`ShardPolicy::validate`]. Static policies return a
    /// constant.
    fn version(&self) -> Version {
        0
    }

    /// Whether the routing table is unchanged since `version` was read
    /// (acquire-fenced, seqlock style). Always true for static policies.
    fn validate(&self, _version: Version) -> bool {
        true
    }

    /// Raw routing-table read: the shard owning `key` right now. For
    /// dynamic policies this is a *snapshot hint* — callers make it
    /// stable with version validation or a shard-lock re-check.
    fn route(&self, key: Key) -> usize;

    /// The contiguous shard window covering `[lo, hi]`, or `None` when
    /// the policy does not partition contiguously (a range then has to
    /// visit every shard).
    fn range_cover(&self, _lo: Key, _hi: Key) -> Option<(usize, usize)> {
        None
    }

    /// Whether ascending keys map to ascending positions *within* a
    /// shard's backend (contiguous partitions over ordered maps).
    /// Batched readers key-sort their per-shard probes only when this
    /// holds — under hashed routing the backend scatters keys anyway,
    /// so the sort would be pure cost.
    fn key_ordered_shards(&self) -> bool {
        false
    }

    /// Downcast hook for the rebalancer, which needs the partition table
    /// itself. `None` for every policy but [`RangePolicy`].
    fn as_range(&self) -> Option<&RangePolicy> {
        None
    }
}

/// Fibonacci-spread hash routing (the store default). Static: the table
/// is the hash function, so there is nothing to version.
#[derive(Debug)]
pub struct HashPolicy {
    shards: usize,
}

impl HashPolicy {
    /// A hash policy over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        Self { shards }
    }
}

impl ShardPolicy for HashPolicy {
    fn num_shards(&self) -> usize {
        self.shards
    }
    #[inline]
    fn route(&self, key: Key) -> usize {
        optik_hashtables::bucket_of(spread(key) >> 32, self.shards)
    }
}

/// Contiguous key partitions behind an OPTIK version lock.
///
/// `bounds[i]` is the *inclusive* upper key of shard `i`, ascending; the
/// last bound is pinned to `u64::MAX` so every key routes somewhere.
/// Shard `i` owns `(bounds[i-1], bounds[i]]` (shard 0 owns
/// `[0, bounds[0]]`), and a partition is **empty-span** when two adjacent
/// bounds are equal — a legal state the rebalancer can both create and
/// undo.
///
/// Boundary updates happen under the crate-internal `shift` (the OPTIK
/// lock's write side, driven by `KvStore::shift_boundary`); lookups read
/// the atomic bounds lock-free and validate against the lock version
/// when they need a stable decision.
pub struct RangePolicy {
    lock: OptikVersioned,
    bounds: Box<[AtomicU64]>,
}

impl RangePolicy {
    /// `shards` contiguous partitions of `max_key.div_ceil(shards)` keys
    /// each, the last partition additionally owning everything above
    /// `max_key`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `max_key` is zero.
    pub fn contiguous(shards: usize, max_key: Key) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(max_key > 0, "need a non-empty key space");
        let span = max_key.div_ceil(shards as u64).max(1);
        let bounds: Box<[AtomicU64]> = (0..shards)
            .map(|i| {
                if i + 1 == shards {
                    AtomicU64::new(u64::MAX)
                } else {
                    AtomicU64::new(span.saturating_mul(i as u64 + 1))
                }
            })
            .collect();
        Self {
            lock: OptikVersioned::new(),
            bounds,
        }
    }

    /// The inclusive upper bound of shard `i`, as currently published.
    /// Stable only while the caller excludes rebalancing (e.g. holds the
    /// shard locks flanking the boundary) or validates the version.
    pub(crate) fn bound(&self, i: usize) -> Key {
        self.bounds[i].load(Ordering::Acquire)
    }

    /// Publishes `new_bound` as shard `i`'s upper bound, under the
    /// routing lock (one version bump per shift, so racing optimistic
    /// routes retry). The caller (the rebalancer) must already hold the
    /// locks of the shards flanking the boundary and must keep the bounds
    /// ascending; the last bound is immutable.
    pub(crate) fn shift(&self, i: usize, new_bound: Key) {
        assert!(i + 1 < self.bounds.len(), "last bound is pinned to MAX");
        self.lock.lock();
        self.bounds[i].store(new_bound, Ordering::Release);
        self.lock.unlock();
    }

    /// A validated snapshot of the partition table (ascending, last entry
    /// `u64::MAX`).
    pub fn snapshot_bounds(&self) -> Vec<Key> {
        loop {
            let v = self.lock.get_version_wait();
            let out: Vec<Key> = self
                .bounds
                .iter()
                .map(|b| b.load(Ordering::Acquire))
                .collect();
            if self.lock.validate(v) {
                return out;
            }
            synchro::relax();
        }
    }
}

impl ShardPolicy for RangePolicy {
    fn num_shards(&self) -> usize {
        self.bounds.len()
    }
    fn is_dynamic(&self) -> bool {
        true
    }
    fn key_ordered_shards(&self) -> bool {
        true
    }
    fn version(&self) -> Version {
        self.lock.get_version_wait()
    }
    fn validate(&self, version: Version) -> bool {
        self.lock.validate(version)
    }
    #[inline]
    fn route(&self, key: Key) -> usize {
        // First shard whose inclusive upper bound covers the key. The
        // last bound is u64::MAX, so the search always lands in range
        // even when a concurrent shift tears the snapshot (callers
        // validate when they need the decision to be stable).
        let n = self.bounds.len();
        let (mut lo, mut hi) = (0usize, n - 1);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if key <= self.bounds[mid].load(Ordering::Acquire) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }
    fn range_cover(&self, lo: Key, hi: Key) -> Option<(usize, usize)> {
        Some((self.route(lo), self.route(hi)))
    }
    fn as_range(&self) -> Option<&RangePolicy> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_policy_mask_routes_exactly_like_the_modulo() {
        for shards in [1usize, 2, 3, 4, 7, 8, 12, 64] {
            let p = HashPolicy::new(shards);
            for k in (1..=5_000u64).chain([u64::MAX - 1, 1 << 63]) {
                let want = ((spread(k) >> 32) % shards as u64) as usize;
                assert_eq!(p.route(k), want, "key {k}, {shards} shards");
            }
        }
    }

    #[test]
    fn hash_policy_routes_in_range_and_spreads() {
        let p = HashPolicy::new(8);
        let mut hit = vec![false; 8];
        for k in 1..=1_000u64 {
            let s = p.route(k);
            assert!(s < 8);
            hit[s] = true;
        }
        assert!(hit.iter().all(|&h| h), "some shard never selected: {hit:?}");
        assert!(!p.is_dynamic());
        assert!(p.validate(p.version()));
        assert!(p.range_cover(1, 10).is_none());
    }

    #[test]
    fn range_policy_partitions_contiguously() {
        let p = RangePolicy::contiguous(4, 1000);
        assert_eq!(p.snapshot_bounds(), vec![250, 500, 750, u64::MAX]);
        assert_eq!(p.route(1), 0);
        assert_eq!(p.route(250), 0);
        assert_eq!(p.route(251), 1);
        assert_eq!(p.route(1000), 3);
        assert_eq!(p.route(u64::MAX - 1), 3);
        assert_eq!(p.route(u64::MAX), 3);
        assert_eq!(p.range_cover(100, 600), Some((0, 2)));
        assert_eq!(p.range_cover(900, u64::MAX), Some((3, 3)));
    }

    #[test]
    fn shift_moves_the_boundary_and_bumps_the_version() {
        let p = RangePolicy::contiguous(4, 400);
        let v = p.version();
        assert_eq!(p.route(150), 1);
        p.shift(0, 150);
        assert!(!p.validate(v), "a shift must invalidate optimistic routes");
        assert_eq!(p.route(150), 0);
        assert_eq!(p.route(151), 1);
        // Empty-span partition: shard 1 owns (150, 150] = nothing.
        p.shift(1, 150);
        assert_eq!(p.route(151), 2);
        assert_eq!(p.snapshot_bounds(), vec![150, 150, 300, u64::MAX]);
    }

    #[test]
    #[should_panic(expected = "last bound is pinned")]
    fn last_bound_is_immutable() {
        let p = RangePolicy::contiguous(2, 100);
        p.shift(1, 10);
    }
}
