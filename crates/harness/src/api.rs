//! Shared interfaces the benchmarked data structures implement.

/// Key type used across all search data structures.
///
/// The value `0` and `u64::MAX` are reserved for head/tail sentinels and
/// empty-slot markers; user keys must lie strictly between them.
pub type Key = u64;

/// Value type used across all data structures.
pub type Val = u64;

/// Smallest user key.
pub const MIN_USER_KEY: Key = 1;
/// Largest user key.
pub const MAX_USER_KEY: Key = u64::MAX - 1;

/// A concurrent search data structure (list, hash table, skip list): the
/// three-operation interface from §2 of the paper.
pub trait ConcurrentSet: Send + Sync {
    /// Searches for `key`, returning its value if present.
    fn search(&self, key: Key) -> Option<Val>;
    /// Inserts `key → val` if absent; returns whether it was inserted.
    fn insert(&self, key: Key, val: Val) -> bool;
    /// Deletes `key`, returning its value if it was present.
    fn delete(&self, key: Key) -> Option<Val>;
    /// Number of elements (O(n); exact only in quiescence).
    fn len(&self) -> usize;
    /// Whether the structure is empty (see [`ConcurrentSet::len`]).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-thread session on a [`ConcurrentSet`].
///
/// Structures with thread-local state (e.g. the node-caching lists of §5.1)
/// implement their operations on a handle; stateless structures get a
/// blanket handle that simply forwards. The benchmark runner always goes
/// through handles.
pub trait SetHandle {
    /// See [`ConcurrentSet::search`].
    fn search(&mut self, key: Key) -> Option<Val>;
    /// See [`ConcurrentSet::insert`].
    fn insert(&mut self, key: Key, val: Val) -> bool;
    /// See [`ConcurrentSet::delete`].
    fn delete(&mut self, key: Key) -> Option<Val>;
}

/// Blanket forwarding handle for stateless structures.
impl<S: ConcurrentSet + ?Sized> SetHandle for &S {
    fn search(&mut self, key: Key) -> Option<Val> {
        ConcurrentSet::search(*self, key)
    }
    fn insert(&mut self, key: Key, val: Val) -> bool {
        ConcurrentSet::insert(*self, key, val)
    }
    fn delete(&mut self, key: Key) -> Option<Val> {
        ConcurrentSet::delete(*self, key)
    }
}

/// A concurrent key–value map: the interface the `optik-kv` store layer
/// builds on.
///
/// Where [`ConcurrentSet`] exposes the paper's three-operation *set*
/// semantics (`insert` fails on a present key), a map's `put` is an atomic
/// **upsert**: it replaces the value of a present key and returns the
/// previous binding. The distinction matters for linearizability: a put
/// implemented as `delete` + `insert` would expose a window in which the
/// key is absent, which the map specification
/// ([`crate::linearize::MapSpec`]) rejects — implementors must update
/// values in place under their own synchronization.
///
/// `for_each` exists for snapshot scans: callers must either hold whatever
/// lock excludes writers (the kv store's per-shard OPTIK lock) or tolerate
/// a momentarily inconsistent view and validate afterwards. Traversal
/// safety under concurrent deletion is the implementor's responsibility
/// (the workspace backends retire nodes through QSBR, so a traversal by a
/// registered, non-quiescing thread never touches freed memory).
///
/// # Single-writer entry points
///
/// A caller that already serializes every *writer* of the map under a lock
/// of its own (the kv store's per-shard OPTIK lock) pays for the backend's
/// internal write synchronization a second time, and that inner lock can
/// never contend. `put_exclusive` / `remove_exclusive` are the same
/// operations under a stronger precondition: **the caller excludes every
/// other writer of this map for the duration of the call**. Lock-free
/// readers (`get`, `for_each`, [`OrderedMap::range`]) may run concurrently
/// and must observe exactly what they observe next to `put`/`remove`: the
/// same publication order of links and values, the same QSBR retirement.
/// The defaults forward to `put`/`remove`, which is always correct; a
/// backend overrides the pair only where it can keep every lock word its
/// readers consult moving as they expect. Two do:
/// `StripedOptikHashTable`, whose readers never read the stripe versions,
/// so its pair takes no lock at all; and the OPTIK skip lists
/// (`OptikSkipList1`/`OptikSkipList2`), whose pair descends once and
/// keeps only the lock-word writes their `range` validates against — the
/// level-0 predecessor's version bump and a removed node's forever-held
/// lock.
///
/// # Batched lookups
///
/// A lookup in a pointer-chasing structure is a chain of dependent loads,
/// so a caller with several keys in hand that runs them one `get` after
/// another waits out every cache miss of every chain in sequence. The
/// chains of *different* keys are independent: [`ConcurrentMap::get_each`]
/// takes the whole batch — each probe names its own map, because the kv
/// store's batch has one key-ordered map per shard — so that a backend
/// can advance them side by side and have several misses in flight. The
/// contract is per probe and no stronger than `get`'s: `out[i]` is a value
/// `probes[i].0.get(probes[i].1)` could have returned at some instant
/// inside the call. The probes are **independent**: nothing is promised
/// across them (no snapshot, no atomicity, no order — a caller that needs
/// a common instant brackets the call with validation windows of its own,
/// as the store does with its shard versions), and a backend may announce
/// QSBR quiescence **once**, before it holds any pointer, instead of once
/// per key. The default is the per-probe `get` loop, which is always
/// correct; a backend overrides it only when overlapping the walks pays.
///
/// # Batched writes
///
/// A caller that writes several keys under locks of its own (the kv
/// store's batch writers lock every involved shard) can hand the backend
/// the whole batch, so that the descents — where the cache misses are —
/// run **before** the locks are taken, as the paper's traversals do, and
/// are not repeated inside them. [`ConcurrentMap::write_each`] takes the
/// ops (`Some(v)`: put, `None`: remove; each names its own map) and an
/// `exclude` callback. A backend may walk to every key first, with no
/// lock held; then it calls `exclude` exactly once, which takes the
/// caller's exclusion of every other writer of every map in the batch and
/// reports, per op, whether that op's map is **fresh**: unwritten since
/// the call began. Then the ops are applied in order, each exactly as
/// `put_exclusive`/`remove_exclusive` would, and `out[i]` is op `i`'s
/// previous binding. An op on a fresh map may use what the walk found
/// (that is the OPTIK validation: taking the lock at the version the walk
/// started from proves the walk current); an op on a stale one descends
/// again. If `exclude` returns `false` it has taken nothing, and nothing
/// is applied. The default calls `exclude` with no flags and then the
/// single-writer pair per op, which is always correct; the OPTIK skip
/// lists override it with one interleaved walk whose descents the applies
/// reuse.
pub trait ConcurrentMap: Send + Sync {
    /// Looks up `key`, returning its current value if present.
    fn get(&self, key: Key) -> Option<Val>;
    /// Inserts or atomically updates `key → val`, returning the previous
    /// value (`None` if the key was newly inserted).
    ///
    /// # Panics
    ///
    /// Fixed-capacity backends panic when asked to insert a fresh key into
    /// a full structure — capacity is a sizing decision made at
    /// construction, not an outcome callers are expected to handle.
    fn put(&self, key: Key, val: Val) -> Option<Val>;
    /// Removes `key`, returning its value if it was present.
    fn remove(&self, key: Key) -> Option<Val>;
    /// [`ConcurrentMap::put`] for a caller that is the map's only writer
    /// (see "Single-writer entry points" in the trait docs). Defaults to
    /// `put`.
    ///
    /// # Safety
    ///
    /// For the duration of the call no other thread may be inside `put`,
    /// `remove`, `put_exclusive` or `remove_exclusive` on this map.
    unsafe fn put_exclusive(&self, key: Key, val: Val) -> Option<Val> {
        self.put(key, val)
    }
    /// [`ConcurrentMap::remove`] for a caller that is the map's only
    /// writer. Defaults to `remove`.
    ///
    /// # Safety
    ///
    /// As for [`ConcurrentMap::put_exclusive`].
    unsafe fn remove_exclusive(&self, key: Key) -> Option<Val> {
        self.remove(key)
    }
    /// Looks up `probes[i].1` in `probes[i].0` for every `i`, writing the
    /// result to `out[i]` (see "Batched lookups" in the trait docs: the
    /// probes are independent `get`s, possibly on different maps).
    /// Defaults to the per-probe [`ConcurrentMap::get`] loop.
    ///
    /// # Panics
    ///
    /// Panics if `probes` and `out` differ in length.
    fn get_each(probes: &[(&Self, Key)], out: &mut [Option<Val>])
    where
        Self: Sized,
    {
        assert_eq!(probes.len(), out.len(), "one result slot per probe");
        for (&(map, key), slot) in probes.iter().zip(out) {
            *slot = map.get(key);
        }
    }
    /// Applies every op of `ops` in order — `Some(v)` puts, `None`
    /// removes — once `exclude` has excluded every other writer, writing
    /// op `i`'s previous binding to `out[i]` (see "Batched writes" in the
    /// trait docs). Returns what `exclude` returned; on `false` nothing
    /// was applied and `out` is untouched.
    ///
    /// `exclude` receives either no flags (a backend that walks nothing
    /// before it, like this default) or one per op, all `false`, and sets
    /// `fresh[i]` only if no thread has written `ops[i].0` since this call
    /// began. Defaults to `exclude` followed by
    /// [`ConcurrentMap::put_exclusive`] / `remove_exclusive` per op.
    ///
    /// # Safety
    ///
    /// Once `exclude` returns `true`, no other thread may write any map of
    /// `ops` until this call returns (the `put_exclusive` contract, for
    /// every map of the batch), and a `fresh` flag it sets must be true as
    /// stated above. `exclude` must not announce QSBR quiescence.
    ///
    /// # Panics
    ///
    /// Panics if `ops` and `out` differ in length.
    unsafe fn write_each(
        ops: &[(&Self, Key, Option<Val>)],
        out: &mut [Option<Val>],
        exclude: &mut dyn FnMut(&mut [bool]) -> bool,
    ) -> bool
    where
        Self: Sized,
    {
        assert_eq!(ops.len(), out.len(), "one result slot per op");
        if !exclude(&mut []) {
            return false;
        }
        for (&(map, key, val), slot) in ops.iter().zip(out) {
            // SAFETY: `exclude` excluded every other writer of `map`.
            *slot = unsafe {
                match val {
                    Some(v) => map.put_exclusive(key, v),
                    None => map.remove_exclusive(key),
                }
            };
        }
        true
    }
    /// Number of entries (O(n); exact only in quiescence).
    fn len(&self) -> usize;
    /// Whether the map is empty (see [`ConcurrentMap::len`]).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Visits every entry once (see the trait docs for the concurrency
    /// contract).
    fn for_each(&self, f: &mut dyn FnMut(Key, Val));
}

/// A [`ConcurrentMap`] over a *key-ordered* structure (a skip list):
/// the backend contract for the kv store's range scans.
///
/// `range` visits every live entry with `lo <= key <= hi`, in ascending
/// key order, each key at most once. The concurrency contract mirrors
/// [`ConcurrentMap::for_each`]: exact under whatever lock excludes writers
/// (the kv store's per-shard OPTIK lock during its range fallback),
/// quiescence-consistent otherwise — implementations traverse
/// optimistically with per-step validation (version checks where the
/// structure has OPTIK locks, link re-checks elsewhere) and re-position
/// after the last emitted key on interference, so concurrent updates can
/// be missed or included but never tear the order or duplicate a key.
/// Traversal safety under concurrent deletion is QSBR, as for `for_each`.
pub trait OrderedMap: ConcurrentMap {
    /// Visits every entry with key in `[lo, hi]`, ascending (see the trait
    /// docs for the concurrency contract).
    fn range(&self, lo: Key, hi: Key, f: &mut dyn FnMut(Key, Val));

    /// Collects [`OrderedMap::range`] into a vector (sorted by key).
    fn range_collect(&self, lo: Key, hi: Key) -> Vec<(Key, Val)> {
        let mut out = Vec::new();
        self.range(lo, hi, &mut |k, v| out.push((k, v)));
        out
    }
}

/// A concurrent FIFO queue (§5.4).
pub trait ConcurrentQueue: Send + Sync {
    /// Enqueues `val` at the head of the queue.
    fn enqueue(&self, val: Val);
    /// Dequeues the tail element, if any.
    fn dequeue(&self) -> Option<Val>;
    /// Number of elements (O(n); exact only in quiescence).
    fn len(&self) -> usize;
    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A concurrent LIFO stack (§5.5 — the paper's honest negative result).
///
/// Defined here (rather than in the stacks crate) so the benchmark driver
/// and the correctness tiers can treat stacks like every other structure.
pub trait ConcurrentStack: Send + Sync {
    /// Pushes a value.
    fn push(&self, val: Val);
    /// Pops the most recently pushed value, if any.
    fn pop(&self) -> Option<Val>;
    /// Number of elements (O(n); exact only in quiescence).
    fn len(&self) -> usize;
    /// Whether the stack is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    struct MutexSet(Mutex<BTreeMap<Key, Val>>);
    impl ConcurrentSet for MutexSet {
        fn search(&self, key: Key) -> Option<Val> {
            self.0.lock().unwrap().get(&key).copied()
        }
        fn insert(&self, key: Key, val: Val) -> bool {
            let mut m = self.0.lock().unwrap();
            if let std::collections::btree_map::Entry::Vacant(e) = m.entry(key) {
                e.insert(val);
                true
            } else {
                false
            }
        }
        fn delete(&self, key: Key) -> Option<Val> {
            self.0.lock().unwrap().remove(&key)
        }
        fn len(&self) -> usize {
            self.0.lock().unwrap().len()
        }
    }

    #[test]
    fn blanket_handle_forwards() {
        let set = MutexSet(Mutex::new(BTreeMap::new()));
        let mut h: &MutexSet = &set;
        assert!(SetHandle::insert(&mut h, 3, 30));
        assert_eq!(SetHandle::search(&mut h, 3), Some(30));
        assert_eq!(SetHandle::delete(&mut h, 3), Some(30));
        assert!(set.is_empty());
    }
}
