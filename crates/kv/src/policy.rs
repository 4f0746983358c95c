//! The routing layer: which shard owns a key.
//!
//! A store routes one of two ways ([`Routing`]):
//!
//! - **hash** — Fibonacci-spread hashing (the default): uniform load,
//!   static routing (the table never changes), but a key range
//!   intersects every shard.
//! - **range** ([`RangePolicy`]) — contiguous key partitions whose
//!   boundaries live in an atomic partition table guarded by an OPTIK
//!   version lock: range scans touch only the shards their window
//!   intersects, and `KvStore::shift_boundary` (`rebalance.rs`) migrates
//!   a boundary while the store serves traffic, when its caller asks.
//!
//! Routing reads are the read-side OPTIK pattern one level *above* the
//! shards: [`Routing::route`] is a raw, lock-free read of the routing
//! table, and callers of a range-routed store pair it with
//! [`Routing::version`] / [`Routing::validate`] (optimistic reads) or with
//! a shard-lock re-check (writes) to make the decision stable — exactly
//! how the store's data reads validate against shard versions. Hash
//! routing validates trivially and reads no atomic: a hash-sharded fast
//! path pays the inlined spread and `bucket_of`, nothing else.

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

/// How a store maps keys to shards. Every route lands below the shard
/// count, even while a range table is being modified — a concurrent
/// reader may act on a stale decision, never on an out-of-bounds one.
pub(crate) enum Routing {
    /// Fibonacci-spread hashing over `shards` shards. Static: the table
    /// is the hash function, so there is nothing to version.
    Hash {
        /// Number of shards routed over.
        shards: usize,
    },
    /// Contiguous partitions behind an OPTIK version lock: dynamic, and
    /// key-ordered within each shard.
    Range(RangePolicy),
}

impl Routing {
    /// Number of shards routed over.
    pub(crate) fn num_shards(&self) -> usize {
        match self {
            Routing::Hash { shards } => *shards,
            Routing::Range(rp) => rp.bounds.len(),
        }
    }

    /// Raw routing-table read: the shard owning `key` right now. Under
    /// range routing this is a *snapshot hint* — callers make it stable
    /// with version validation or a shard-lock re-check.
    #[inline]
    pub(crate) fn route(&self, key: Key) -> usize {
        match self {
            Routing::Hash { shards } => optik_hashtables::bucket_of(spread(key) >> 32, *shards),
            Routing::Range(rp) => rp.route(key),
        }
    }

    /// Current routing-table version (free, i.e. not mid-update), for a
    /// later [`Routing::validate`]. Hash routing reads nothing and
    /// returns a constant.
    #[inline]
    pub(crate) fn version(&self) -> Version {
        match self {
            Routing::Hash { .. } => 0,
            Routing::Range(rp) => rp.lock.get_version_wait(),
        }
    }

    /// Whether the routing table is unchanged since `version` was read
    /// (acquire-fenced, seqlock style). Always true under hash routing.
    #[inline]
    pub(crate) fn validate(&self, version: Version) -> bool {
        match self {
            Routing::Hash { .. } => true,
            Routing::Range(rp) => rp.lock.validate(version),
        }
    }

    /// The contiguous shard window covering `[lo, hi]`, or `None` under
    /// hash routing (a range then has to visit every shard).
    #[inline]
    pub(crate) fn range_cover(&self, lo: Key, hi: Key) -> Option<(usize, usize)> {
        self.range().map(|rp| (rp.route(lo), rp.route(hi)))
    }

    /// The partition table, when range-routed: what `shift_boundary` moves.
    #[inline]
    pub(crate) fn range(&self) -> Option<&RangePolicy> {
        match self {
            Routing::Hash { .. } => None,
            Routing::Range(rp) => Some(rp),
        }
    }
}

/// Contiguous key partitions behind an OPTIK version lock.
///
/// `bounds[i]` is the *inclusive* upper key of shard `i`, ascending; the
/// last bound is pinned to `u64::MAX` so every key routes somewhere.
/// Shard `i` owns `(bounds[i-1], bounds[i]]` (shard 0 owns
/// `[0, bounds[0]]`), and a partition is **empty-span** when two adjacent
/// bounds are equal — a legal state `shift_boundary` can both create
/// and undo.
///
/// Boundary updates happen under `shift` (the OPTIK lock's write side,
/// driven by `KvStore::shift_boundary`); lookups read the atomic bounds
/// lock-free and validate against the lock version when they need a
/// stable decision.
pub(crate) struct RangePolicy {
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
    pub(crate) fn contiguous(shards: usize, max_key: Key) -> Self {
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

    /// First shard whose inclusive upper bound covers the key. The last
    /// bound is `u64::MAX`, so the search always lands in range even when
    /// a concurrent shift tears the snapshot (callers validate when they
    /// need the decision to be stable).
    #[inline]
    pub(crate) fn route(&self, key: Key) -> usize {
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

    /// The inclusive upper bound of shard `i`, as currently published.
    /// Stable only while the caller excludes rebalancing (e.g. holds the
    /// shard locks flanking the boundary) or validates the version.
    pub(crate) fn bound(&self, i: usize) -> Key {
        self.bounds[i].load(Ordering::Acquire)
    }

    /// Publishes `new_bound` as shard `i`'s upper bound, under the
    /// routing lock (one version bump per shift, so racing optimistic
    /// routes retry). The caller (`shift_boundary`) must already hold the
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
    pub(crate) fn snapshot_bounds(&self) -> Vec<Key> {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn range(shards: usize, max_key: Key) -> Routing {
        Routing::Range(RangePolicy::contiguous(shards, max_key))
    }

    #[test]
    fn hash_routing_mask_routes_exactly_like_the_modulo() {
        for shards in [1usize, 2, 3, 4, 7, 8, 12, 64] {
            let r = Routing::Hash { shards };
            for k in (1..=5_000u64).chain([u64::MAX - 1, 1 << 63]) {
                let want = ((spread(k) >> 32) % shards as u64) as usize;
                assert_eq!(r.route(k), want, "key {k}, {shards} shards");
            }
        }
    }

    #[test]
    fn hash_routing_routes_in_range_and_spreads() {
        let r = Routing::Hash { shards: 8 };
        let mut hit = vec![false; 8];
        for k in 1..=1_000u64 {
            let s = r.route(k);
            assert!(s < 8);
            hit[s] = true;
        }
        assert!(hit.iter().all(|&h| h), "some shard never selected: {hit:?}");
        assert_eq!(r.num_shards(), 8);
        assert!(r.range().is_none(), "hash routing is static");
        assert!(r.validate(r.version()));
        assert!(r.range_cover(1, 10).is_none());
    }

    #[test]
    fn range_routing_partitions_contiguously() {
        let r = range(4, 1000);
        assert_eq!(r.num_shards(), 4);
        let rp = r.range().expect("range-routed");
        assert_eq!(rp.snapshot_bounds(), vec![250, 500, 750, u64::MAX]);
        assert_eq!(r.route(1), 0);
        assert_eq!(r.route(250), 0);
        assert_eq!(r.route(251), 1);
        assert_eq!(r.route(1000), 3);
        assert_eq!(r.route(u64::MAX - 1), 3);
        assert_eq!(r.route(u64::MAX), 3);
        assert_eq!(r.range_cover(100, 600), Some((0, 2)));
        assert_eq!(r.range_cover(900, u64::MAX), Some((3, 3)));
    }

    #[test]
    fn shift_moves_the_boundary_and_bumps_the_version() {
        let r = range(4, 400);
        let rp = r.range().expect("range-routed");
        let v = r.version();
        assert_eq!(r.route(150), 1);
        rp.shift(0, 150);
        assert!(!r.validate(v), "a shift must invalidate optimistic routes");
        assert_eq!(r.route(150), 0);
        assert_eq!(r.route(151), 1);
        // Empty-span partition: shard 1 owns (150, 150] = nothing.
        rp.shift(1, 150);
        assert_eq!(r.route(151), 2);
        assert_eq!(rp.snapshot_bounds(), vec![150, 150, 300, u64::MAX]);
    }

    #[test]
    fn range_cover_follows_a_shift() {
        let r = range(4, 400);
        let rp = r.range().expect("range-routed");
        assert_eq!(r.range_cover(50, 250), Some((0, 2)));
        rp.shift(0, 60);
        assert_eq!(r.range_cover(50, 250), Some((0, 2)));
        rp.shift(1, 260);
        assert_eq!(r.range_cover(50, 250), Some((0, 1)));
        assert_eq!(r.range_cover(61, 250), Some((1, 1)));
        // Shard 1 becomes empty-span: its window collapses onto shard 0.
        rp.shift(0, 260);
        assert_eq!(r.range_cover(61, 250), Some((0, 0)));
        assert_eq!(r.range_cover(261, 261), Some((2, 2)));
        assert_eq!(r.range_cover(250, 301), Some((0, 3)));
    }

    #[test]
    fn range_route_agrees_with_a_linear_scan_of_the_bounds() {
        // The binary search must pick the first shard whose bound covers
        // the key, also across runs of equal bounds (empty-span shards).
        let r = range(5, 1000);
        let rp = r.range().expect("range-routed");
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for round in 0..200 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let bounds = rp.snapshot_bounds();
            let i = (x % 4) as usize;
            let lower = if i == 0 { 0 } else { bounds[i - 1] };
            let upper = bounds[i + 1].min(1500);
            rp.shift(i, lower + (x >> 32) % (upper - lower + 1));
            let bounds = rp.snapshot_bounds();
            assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "{bounds:?}");
            for k in (0..=1600u64).chain(bounds.iter().flat_map(|&b| [b.saturating_sub(1), b])) {
                let want = bounds.iter().position(|&b| k <= b).unwrap();
                assert_eq!(r.route(k), want, "round {round}, key {k}, {bounds:?}");
            }
        }
    }

    #[test]
    fn one_range_shard_owns_every_key() {
        let r = range(1, 10);
        assert_eq!(r.num_shards(), 1);
        assert_eq!(r.range().unwrap().snapshot_bounds(), vec![u64::MAX]);
        for k in [0, 1, 10, 11, u64::MAX - 1, u64::MAX] {
            assert_eq!(r.route(k), 0, "key {k}");
        }
        assert_eq!(r.range_cover(1, u64::MAX), Some((0, 0)));
        assert!(r.validate(r.version()));
    }

    #[test]
    #[should_panic(expected = "last bound is pinned")]
    fn last_bound_is_immutable() {
        let r = range(2, 100);
        r.range().expect("range-routed").shift(1, 10);
    }
}
