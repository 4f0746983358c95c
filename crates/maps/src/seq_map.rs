//! Sequential array map: the single-threaded baseline and test oracle.

use std::cell::UnsafeCell;

use crate::{ArrayMap, Key, Val, EMPTY_KEY};

/// A fixed-capacity sequential array map.
///
/// Not thread-safe for concurrent use — it exists as the algorithmic
/// baseline the concurrent maps are transformed from (§4.1) and as the
/// oracle for the cross-implementation tests. It still implements
/// [`ArrayMap`] (which requires `Send + Sync`) so it can stand in wherever
/// external synchronization is guaranteed; all interior access is unsafe
/// only in the presence of actual races, which its users must exclude.
pub struct SeqArrayMap {
    slots: Box<[UnsafeCell<(Key, Val)>]>,
}

// SAFETY: users must serialize access (documented above); the test oracle
// and the single-threaded benches do.
unsafe impl Send for SeqArrayMap {}
unsafe impl Sync for SeqArrayMap {}

impl SeqArrayMap {
    /// Creates a map with `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            slots: (0..capacity)
                .map(|_| UnsafeCell::new((EMPTY_KEY, 0)))
                .collect(),
        }
    }

    // Interior mutability through UnsafeCell: sound only under the struct's
    // external-serialization contract, like `SeqList`.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    fn slot(&self, i: usize) -> &mut (Key, Val) {
        // SAFETY: callers are externally serialized (struct contract).
        unsafe { &mut *self.slots[i].get() }
    }
}

impl ArrayMap for SeqArrayMap {
    fn search(&self, key: Key) -> Option<Val> {
        debug_assert_ne!(key, EMPTY_KEY);
        for i in 0..self.slots.len() {
            let (k, v) = *self.slot(i);
            if k == key {
                return Some(v);
            }
        }
        None
    }

    fn insert(&self, key: Key, val: Val) -> bool {
        debug_assert_ne!(key, EMPTY_KEY);
        let mut free = None;
        for i in 0..self.slots.len() {
            let (k, _) = *self.slot(i);
            if k == key {
                return false;
            }
            if k == EMPTY_KEY && free.is_none() {
                free = Some(i);
            }
        }
        match free {
            Some(i) => {
                *self.slot(i) = (key, val);
                true
            }
            None => false,
        }
    }

    fn delete(&self, key: Key) -> Option<Val> {
        debug_assert_ne!(key, EMPTY_KEY);
        for i in 0..self.slots.len() {
            let (k, v) = *self.slot(i);
            if k == key {
                self.slot(i).0 = EMPTY_KEY;
                return Some(v);
            }
        }
        None
    }

    fn len(&self) -> usize {
        (0..self.slots.len())
            .filter(|&i| self.slot(i).0 != EMPTY_KEY)
            .count()
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn basic_semantics() {
        let m = SeqArrayMap::new(4);
        assert_eq!(m.capacity(), 4);
        assert!(m.insert(1, 10));
        assert!(m.insert(2, 20));
        assert_eq!(m.search(1), Some(10));
        assert_eq!(m.search(3), None);
        assert_eq!(m.delete(2), Some(20));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn insert_on_full_map_fails_until_a_delete_frees_a_slot() {
        let m = SeqArrayMap::new(2);
        assert!(m.insert(1, 10));
        assert!(m.insert(2, 20));
        assert!(!m.insert(3, 30), "no free slot");
        assert_eq!(m.search(3), None);
        assert_eq!(m.delete(1), Some(10));
        assert!(m.insert(3, 30), "the deleted slot is free again");
        assert_eq!(m.search(3), Some(30));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn duplicate_insert_fails_and_keeps_the_first_value() {
        let m = SeqArrayMap::new(4);
        assert!(m.insert(1, 10));
        assert!(!m.insert(1, 11));
        assert_eq!(m.search(1), Some(10));
        assert_eq!(m.len(), 1);
    }

    proptest! {
        /// Sequential semantics match a HashMap capped at `capacity`.
        #[test]
        fn matches_hashmap_model(ops in proptest::collection::vec(
            (0u8..3, 1u64..20, 0u64..1000), 1..200))
        {
            let m = SeqArrayMap::new(8);
            let mut model: HashMap<u64, u64> = HashMap::new();
            for (op, key, val) in ops {
                match op {
                    0 => {
                        let expect = !model.contains_key(&key) && model.len() < 8;
                        prop_assert_eq!(m.insert(key, val), expect);
                        if expect { model.insert(key, val); }
                    }
                    1 => {
                        let expect = model.remove(&key);
                        prop_assert_eq!(m.delete(key), expect);
                    }
                    _ => {
                        prop_assert_eq!(m.search(key), model.get(&key).copied());
                    }
                }
                prop_assert_eq!(m.len(), model.len());
            }
        }
    }
}
