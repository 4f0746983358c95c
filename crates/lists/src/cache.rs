//! Node caching (§5.1): a thread's last visited node as the entry point of
//! its next operation.
//!
//! "Each thread keeps track of the last accessed node after each
//! operation, accompanied by the version number that the thread observed.
//! This node can be subsequently used as the entry point for the next
//! operation." The cache is not a list of its own: [`crate::OptikList`]
//! and [`crate::LazyList`] run their one body per operation, starting from
//! a validated cached node instead of head.
//!
//! Validation is one load of the node's *word*, which only grows across
//! delete and recycle and is odd from a node's delete until its slot is
//! recycled: the OPTIK version in [`crate::OptikList`] (a deleted node
//! stays locked until recycling unlocks it past every version seen
//! before), the stamp in [`crate::LazyList`] (its low bit is the deletion
//! mark; recycle moves it to the next even value). An even word equal to the cached one
//! proves the node was linked, and not recycled, when it was read. Nodes
//! live in a type-stable [`reclaim::NodePool`], so that read is always of a
//! valid node. The read follows the operation's quiescent point, so a node
//! it finds live is retired, if at all, after that point, and its slot is
//! not recycled before the thread's next one: the operation may walk from
//! it as from any node it reached from head.

use crate::Key;

/// A list node a thread may cache across operations.
pub(crate) trait CachedNode {
    /// The validation word (see the module docs).
    fn word(&self) -> u64;
    /// The node's key.
    fn key(&self) -> Key;
}

/// A thread's node cache: the node its last operation stopped at, with the
/// word seen then, and how many operations entered through it.
pub(crate) struct NodeCache<N> {
    entry: Option<(*mut N, u64)>,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

impl<N> Default for NodeCache<N> {
    fn default() -> Self {
        Self {
            entry: None,
            hits: 0,
            misses: 0,
        }
    }
}

impl<N: CachedNode> NodeCache<N> {
    /// The cached node and its word if the node is a valid entry point for
    /// an operation on `key`: its word is unchanged and even, and its key
    /// is smaller than `key`. Counts a hit or a miss.
    ///
    /// # Safety
    ///
    /// Caller must be past its quiescent point for this operation, and the
    /// cached node's pool must still be alive.
    #[inline]
    pub(crate) unsafe fn entry(&mut self, key: Key) -> Option<(*mut N, u64)> {
        let entry = self.entry.filter(|&(node, seen)| {
            // SAFETY: type-stable pool memory is always a valid node, and
            // one that validates stays unrecycled (see the module docs).
            let node = unsafe { &*node };
            let word = node.word();
            word == seen && word & 1 == 0 && node.key() < key
        });
        if entry.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        entry
    }

    /// Caches `node` at its current word.
    ///
    /// # Safety
    ///
    /// `node` must be protected by the caller's QSBR grace period.
    #[inline]
    pub(crate) unsafe fn remember(&mut self, node: *mut N) {
        // SAFETY: per contract.
        self.entry = Some((node, unsafe { (*node).word() }));
    }
}
