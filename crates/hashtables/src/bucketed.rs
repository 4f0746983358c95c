//! Hash tables built from one concurrent list per bucket.
//!
//! "Intuitively, the list protected by a global lock, resulting in
//! per-bucket locking, is more suitable for hash tables" (§5.2): with one
//! element per bucket on average, fine-grained per-node locking buys
//! nothing over one OPTIK lock per bucket, while the global-lock OPTIK
//! list's infeasible-updates-never-lock property carries over intact.

use optik_lists::{LazyList, LazyListPool, OptikGlList, OptikGlListPool, OptikList, OptikListPool};

use crate::{bucket_of, ConcurrentSet, Key, Val};

macro_rules! bucketed_table {
    ($(#[$doc:meta])* $name:ident, $list:ty, $pool:ty) => {
        $(#[$doc])*
        pub struct $name {
            buckets: Box<[$list]>,
        }

        impl $name {
            /// Creates a table with `buckets` buckets.
            ///
            /// All buckets draw nodes from one shared pool — ssmem's
            /// per-thread-allocator shape (§5.1). One pool per bucket would
            /// hand every bucket its own magazines and depot, and the
            /// allocation path's cache footprint would scale with the
            /// bucket count instead of the thread count.
            ///
            /// # Panics
            ///
            /// Panics if `buckets == 0`.
            pub fn new(buckets: usize) -> Self {
                assert!(buckets > 0, "need at least one bucket");
                let pool = <$pool>::new();
                Self {
                    buckets: (0..buckets).map(|_| <$list>::with_pool(&pool)).collect(),
                }
            }

            /// Number of buckets.
            pub fn num_buckets(&self) -> usize {
                self.buckets.len()
            }

            #[inline]
            fn bucket(&self, key: Key) -> &$list {
                &self.buckets[bucket_of(key, self.buckets.len())]
            }
        }

        impl ConcurrentSet for $name {
            fn search(&self, key: Key) -> Option<Val> {
                self.bucket(key).search(key)
            }

            fn insert(&self, key: Key, val: Val) -> bool {
                self.bucket(key).insert(key, val)
            }

            fn delete(&self, key: Key) -> Option<Val> {
                self.bucket(key).delete(key)
            }

            fn len(&self) -> usize {
                self.buckets.iter().map(|b| b.len()).sum()
            }
        }
    };
}

bucketed_table!(
    /// Per-bucket global-lock OPTIK list (*optik-gl* in Figure 10 — the
    /// paper's overall fastest hash table).
    OptikGlHashTable,
    OptikGlList,
    OptikGlListPool
);

bucketed_table!(
    /// Per-bucket fine-grained OPTIK list (*optik* in Figure 10; ~9% slower
    /// than optik-gl in the paper because some operations take two locks).
    OptikHashTable,
    OptikList,
    OptikListPool
);

bucketed_table!(
    /// Per-bucket lazy list (*lazy-gl* in Figure 10).
    LazyGlHashTable,
    LazyList,
    LazyListPool
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_bucket_collisions_behave() {
        let t = OptikGlHashTable::new(4);
        // Keys 1, 5, 9, 13 all map to bucket 1.
        for (i, k) in [1u64, 5, 9, 13].iter().enumerate() {
            assert!(t.insert(*k, i as u64));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.search(9), Some(2));
        assert_eq!(t.delete(5), Some(1));
        assert_eq!(t.search(5), None);
        assert_eq!(t.search(13), Some(3));
    }

    #[test]
    fn num_buckets_reported() {
        assert_eq!(OptikHashTable::new(7).num_buckets(), 7);
        assert_eq!(LazyGlHashTable::new(1).num_buckets(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_panics() {
        let _ = OptikGlHashTable::new(0);
    }

    #[test]
    fn single_bucket_degenerates_to_list() {
        let t = OptikHashTable::new(1);
        for k in 1..=50u64 {
            assert!(t.insert(k, k));
        }
        assert_eq!(t.len(), 50);
        for k in 1..=50u64 {
            assert_eq!(t.delete(k), Some(k));
        }
        assert!(t.is_empty());
    }
}
