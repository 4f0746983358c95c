//! # optik-suite — the complete OPTIK reproduction under one roof
//!
//! Re-exports every crate of the workspace so applications can depend on a
//! single package:
//!
//! ```
//! use optik_suite::prelude::*;
//!
//! let list = OptikList::new();
//! assert!(list.insert(7, 70));
//! assert_eq!(list.search(7), Some(70));
//! ```
//!
//! See the repository README for the full tour, and `DESIGN.md` for the
//! paper-to-module map.

#![warn(missing_docs)]

pub use optik;
pub use optik_bsts as bsts;
pub use optik_harness as harness;
pub use optik_hashtables as hashtables;
pub use optik_kv as kv;
pub use optik_lists as lists;
pub use optik_maps as maps;
pub use optik_queues as queues;
pub use optik_skiplists as skiplists;
pub use optik_stacks as stacks;
pub use reclaim;
pub use synchro;

/// The most common imports in one place.
pub mod prelude {
    pub use optik::{OptikGuard, OptikLock, OptikTicket, OptikVersioned};
    pub use optik_bsts::{GlobalLockBst, OptikBst, OptikGlBst};
    pub use optik_harness::api::{
        ConcurrentMap, ConcurrentQueue, ConcurrentSet, Key, OrderedMap, SetHandle, Val,
    };
    pub use optik_hashtables::{
        OptikGlHashTable, OptikHashTable, OptikMapHashTable, ResizableStripedHashTable,
    };
    pub use optik_kv::{Clock, FakeClock, KvStore, SystemClock};
    pub use optik_lists::{LazyList, OptikGlList, OptikList};
    pub use optik_maps::{ArrayMap, OptikArrayMap};
    pub use optik_queues::{MsLfQueue, OptikQueue2, VictimQueue};
    pub use optik_skiplists::{OptikSkipList1, OptikSkipList2};
    pub use optik_stacks::{ConcurrentStack, EliminationStack, OptikStack, TreiberStack};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_headline_types() {
        let list = OptikList::new();
        assert!(list.insert(1, 2));
        let ht = OptikGlHashTable::new(4);
        assert!(ht.insert(1, 2));
        let q = OptikQueue2::new();
        q.enqueue(5);
        assert_eq!(q.dequeue(), Some(5));
        let lock = OptikVersioned::new();
        let v = lock.get_version();
        assert!(lock.try_lock_version(v));
        lock.unlock();
    }
}
