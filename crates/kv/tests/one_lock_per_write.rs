//! One lock per store write, none for a write that cannot change anything.
//!
//! The lock counts come from the probe's `LockAcquire` counter, which is
//! process-wide: everything here runs inside **one**
//! test function, so no sibling test can land in a measurement window.
//! Without `--features probe` the counters read zero and the count
//! assertions that expect a non-zero value are skipped; the replies and
//! contents are checked either way.

use std::sync::Arc;

use optik_hashtables::StripedOptikHashTable;
use optik_kv::{FakeClock, KvStore};
use optik_probe::{Event, Snapshot};
use optik_skiplists::OptikSkipList2;

/// `f`'s reply and the lock acquisitions it made.
fn locks_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = Snapshot::take();
    let out = f();
    let d = Snapshot::take().delta_since(&before);
    (out, d.get(Event::LockAcquire))
}

/// Asserts the probed count when the hooks are live.
fn assert_count(got: u64, want: u64, what: &str) {
    if optik_probe::enabled() {
        assert_eq!(got, want, "{what}");
    } else {
        assert_eq!(got, 0, "{what}: hooks are compiled out");
    }
}

#[test]
fn store_writes_take_one_lock_and_infeasible_removes_none() {
    // Statically routed, no TTL.
    let s: KvStore<StripedOptikHashTable> =
        KvStore::with_shards(2, |_| StripedOptikHashTable::new(64, 8));

    let (prev, locks) = locks_during(|| s.put(1, 10));
    assert_eq!(prev, None);
    assert_count(locks, 1, "fresh put: the shard lock and no stripe lock");
    let (prev, locks) = locks_during(|| s.put(1, 11));
    assert_eq!(prev, Some(10));
    assert_count(locks, 1, "overwriting put");

    let (gone, locks) = locks_during(|| s.remove(999));
    assert_eq!(gone, None);
    assert_eq!(locks, 0, "a remove miss must not lock");

    let (gone, locks) = locks_during(|| s.remove(1));
    assert_eq!(gone, Some(11));
    assert_count(locks, 1, "remove hit");

    // Batches: one lock per involved shard, nothing per key.
    let entries: Vec<(u64, u64)> = (1..=16).map(|k| (k, k * 10)).collect();
    let shards_hit = u64::from(entries.iter().any(|&(k, _)| s.shard_of(k) == 0))
        + u64::from(entries.iter().any(|&(k, _)| s.shard_of(k) == 1));
    let (prevs, locks) = locks_during(|| s.multi_put(&entries));
    assert!(prevs.iter().all(Option::is_none));
    assert_count(locks, shards_hit, "multi_put");
    let keys: Vec<u64> = (1..=16).collect();
    let (gone, locks) = locks_during(|| s.multi_remove(&keys));
    assert_eq!(gone, (1..=16).map(|k| Some(k * 10)).collect::<Vec<_>>());
    assert_count(locks, shards_hit, "multi_remove");
    assert!(s.is_empty());

    // TTL store: a miss still takes today's path (one lock), and every
    // TTL write is one lock for the value and the deadline together.
    let clock = Arc::new(FakeClock::new());
    let t: KvStore<StripedOptikHashTable> =
        KvStore::with_shards_ttl(1, clock.clone(), |_| StripedOptikHashTable::new(64, 8));
    let (gone, locks) = locks_during(|| t.remove(999));
    assert_eq!(gone, None);
    assert_count(locks, 1, "ttl store: a remove miss still locks");
    let (prev, locks) = locks_during(|| t.put_with_ttl(1, 10, 5));
    assert_eq!(prev, None);
    assert_count(locks, 1, "put_with_ttl: value and deadline under one lock");
    let (armed, locks) = locks_during(|| t.expire_after(1, 9));
    assert!(armed);
    assert_count(locks, 1, "expire_after");
    t.put_with_ttl(2, 20, 3);
    t.put(3, 30);
    clock.advance(9);
    let (swept, locks) = locks_during(|| t.sweep_expired(16));
    assert_eq!(swept, 2);
    assert_count(locks, 1, "sweep: one lock for the whole shard's candidates");
    assert_eq!(t.snapshot(), vec![(3, 30)]);

    // Dynamically routed store: the route is only stable under the lock.
    let o: KvStore<OptikSkipList2> =
        KvStore::with_ordered_shards(2, 100, |_| OptikSkipList2::new());
    o.put(60, 6);
    let (gone, locks) = locks_during(|| o.remove(70));
    assert_eq!(gone, None);
    assert_count(locks, 1, "ordered store: a remove miss still locks");
}
