//! Size-classed skip-list nodes: a per-list header followed by a trailing
//! tower of `next` links, stored in one of two slot classes.
//!
//! The paper's skip lists (ASCYLIB) allocate a node with exactly as many
//! `next` slots as its tower is tall. Geometric(1/2) heights make 15 of 16
//! towers at most four levels tall, so a node type that embeds a
//! `MAX_LEVEL`-slot tower spends four cache lines where one would do. Nodes
//! here are a `#[repr(C)]` header `H` (key, value, lock/state word, height,
//! flags) followed by the tower, in two classes:
//!
//! - **small**: exactly one 64-byte-aligned cache line — the header plus
//!   [`small_levels`] links — so reaching a node is one miss and a level
//!   descent inside it is none;
//! - **tall**: `MAX_LEVEL` links, for the rare high towers and the two
//!   sentinels.
//!
//! Each class is its own type-stable [`NodePool`], so a slot is only ever
//! recycled as a node of the same list *and* class; QSBR retirement and
//! the pool conservation ledger hold per class. Lists keep passing
//! `*mut H` around; [`next`] computes the link address past the header,
//! which is the same offset in both classes.

use std::mem::{align_of, size_of, MaybeUninit};
use std::sync::Arc;

use reclaim::NodePool;

use crate::level::MAX_LEVEL;

/// Bytes in a cache line: the size and alignment of the small class.
const LINE: usize = 64;

/// A list's per-node header: everything in a node except its tower.
pub(crate) trait Header: Send + Sync + Sized + 'static {
    /// One tower slot: `AtomicPtr<Self>`, or a mark-tagged `AtomicUsize`
    /// word. Its default is the null link.
    type Link: Default + Send + Sync + 'static;

    /// Highest valid level of this node's tower (height − 1); fixed for
    /// the node's lifetime, and what picks its class.
    fn top_level(&self) -> usize;
}

/// Byte offset of the tower from the header: where `#[repr(C)]` places the
/// field that follows an `H`.
const fn tower_offset<H: Header>() -> usize {
    size_of::<H>().next_multiple_of(align_of::<H::Link>())
}

/// Tower levels that fit beside an `H` in one cache line.
pub(crate) const fn small_levels<H: Header>() -> usize {
    (LINE - tower_offset::<H>()) / size_of::<H::Link>()
}

/// Small-class slot: header + `S` links in one aligned cache line.
#[repr(C, align(64))]
pub(crate) struct Small<H: Header, const S: usize> {
    hdr: H,
    next: [H::Link; S],
}

/// Tall-class slot: header + a full-height tower; line-aligned so its
/// header and low levels share a line exactly as in the small class.
#[repr(C, align(64))]
pub(crate) struct Tall<H: Header> {
    hdr: H,
    next: [H::Link; MAX_LEVEL],
}

/// The link at level `l` of the node whose header is at `p`.
///
/// # Safety
///
/// `p` must come from [`Towers::alloc`], be protected by the caller's QSBR
/// grace period (or be a sentinel), and `l <= (*p).top_level()`.
#[inline(always)]
pub(crate) unsafe fn next<'a, H: Header>(p: *mut H, l: usize) -> &'a H::Link {
    // SAFETY: `alloc` hands out the `hdr` field of a `#[repr(C)]` `Small`
    // or `Tall`, whose `next` array starts `tower_offset` bytes on and has
    // more than `top_level` links (the class is picked from `top_level`);
    // the pointer keeps the whole slot's provenance.
    unsafe {
        debug_assert!(l <= (*p).top_level(), "level {l} above the tower");
        &*p.cast::<u8>()
            .add(tower_offset::<H>())
            .cast::<H::Link>()
            .add(l)
    }
}

/// The two node pools of one skip list. `S` must be `small_levels::<H>()`
/// (checked at compile time; it is a parameter only because an array
/// length cannot be computed from a generic type).
pub(crate) struct Towers<H: Header, const S: usize> {
    /// Slots are uninitialized memory until [`Towers::alloc`] writes a
    /// node into them, which is what lets construction take one without
    /// a header to put there.
    small: Arc<NodePool<MaybeUninit<Small<H, S>>>>,
    tall: Arc<NodePool<Tall<H>>>,
}

impl<H: Header, const S: usize> Towers<H, S> {
    /// The layout the module promises, checked per instantiation.
    const LAYOUT: () = {
        assert!(S == small_levels::<H>() && S >= 1 && S < MAX_LEVEL);
        // Headers keep `top_level` in a `u8`.
        assert!(MAX_LEVEL <= u8::MAX as usize);
        assert!(size_of::<Small<H, S>>() == LINE && align_of::<Small<H, S>>() == LINE);
        assert!(align_of::<Tall<H>>() == LINE);
        // `next(p, l)` stays inside the slot for every level of the class.
        assert!(tower_offset::<H>() + S * size_of::<H::Link>() <= size_of::<Small<H, S>>());
        assert!(tower_offset::<H>() + MAX_LEVEL * size_of::<H::Link>() <= size_of::<Tall<H>>());
    };

    /// Empty pools for both classes.
    pub(crate) fn new() -> Self {
        let () = Self::LAYOUT;
        let small: Arc<NodePool<MaybeUninit<Small<H, S>>>> = NodePool::new();
        let tall = NodePool::new();
        // Grow the small class's first chunk now, as the sentinels do for
        // the tall class: a list's first insert usually runs under a
        // caller's lock (a kv shard's), and building a chunk there stalls
        // every reader waiting on that lock.
        let first = small.alloc_init(MaybeUninit::uninit);
        // SAFETY: just allocated from this pool and never published.
        unsafe { small.dealloc_unpublished(first) };
        Self { small, tall }
    }

    /// Allocates a node holding `hdr` and an all-null tower, in the class
    /// `hdr.top_level()` selects.
    pub(crate) fn alloc(&self, hdr: H) -> *mut H {
        let null_tower = |_| H::Link::default();
        if hdr.top_level() < S {
            self.small
                .alloc_init(|| {
                    MaybeUninit::new(Small {
                        hdr,
                        next: std::array::from_fn(null_tower),
                    })
                })
                .cast()
        } else {
            assert!(hdr.top_level() < MAX_LEVEL, "tower above MAX_LEVEL");
            self.tall
                .alloc_init(|| Tall {
                    hdr,
                    next: std::array::from_fn(null_tower),
                })
                .cast()
        }
    }

    /// The `[small, tall]` slot ledgers, for tests that close them.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> [reclaim::PoolStats; 2] {
        [self.small.stats(), self.tall.stats()]
    }

    /// Seals the calling thread's retire bag and waits until nothing any of
    /// `towers` retired is still in grace (other tests share the global
    /// domain, so it can take a few rounds); `false` if that never happens.
    #[cfg(test)]
    pub(crate) fn grace_elapses(towers: &[&Self]) -> bool {
        reclaim::with_local(|h| {
            h.flush();
            for _ in 0..1_000_000 {
                h.quiescent();
                h.collect();
                if towers
                    .iter()
                    .flat_map(|t| t.stats())
                    .all(|s| s.in_grace == 0)
                {
                    return true;
                }
                std::thread::yield_now();
            }
            false
        })
    }

    /// Returns `p`'s slot to its class's pool after a grace period.
    ///
    /// # Safety
    ///
    /// `p` must come from this `Towers`' [`alloc`](Self::alloc), be
    /// unlinked (unreachable to new readers) and not be retired twice.
    pub(crate) unsafe fn retire(&self, p: *mut H) {
        // SAFETY: `top_level` is immutable, so it names the class — and
        // with it the pool and slot type — `alloc` chose; the rest is the
        // caller's contract.
        unsafe {
            if (*p).top_level() < S {
                reclaim::with_local(|h| self.small.retire(p.cast(), h));
            } else {
                reclaim::with_local(|h| self.tall.retire(p.cast(), h));
            }
        }
    }

    /// Immediately returns a never-published node to its class's pool.
    ///
    /// # Safety
    ///
    /// `p` must come from this `Towers`' [`alloc`](Self::alloc) and must
    /// never have been reachable from the list.
    pub(crate) unsafe fn dealloc_unpublished(&self, p: *mut H) {
        // SAFETY: class from the immutable `top_level`, as in `retire`.
        unsafe {
            if (*p).top_level() < S {
                self.small.dealloc_unpublished(p.cast());
            } else {
                self.tall.dealloc_unpublished(p.cast());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicPtr, Ordering};

    /// A 32-byte header like the lock-based lists'.
    #[repr(C)]
    struct Hdr {
        key: u64,
        pad: [u64; 2],
        top_level: u8,
    }

    impl Header for Hdr {
        type Link = AtomicPtr<Hdr>;
        fn top_level(&self) -> usize {
            self.top_level as usize
        }
    }

    const S: usize = small_levels::<Hdr>();

    fn hdr(key: u64, top_level: usize) -> Hdr {
        Hdr {
            key,
            pad: [0; 2],
            top_level: top_level as u8,
        }
    }

    /// `(small, tall)` live slots per the pools' ledgers.
    fn live(t: &Towers<Hdr, S>) -> (u64, u64) {
        (t.small.stats().live(), t.tall.stats().live())
    }

    #[test]
    fn a_32_byte_header_leaves_four_levels_in_the_line() {
        assert_eq!(size_of::<Hdr>(), 32);
        assert_eq!(S, 4);
        assert_eq!(size_of::<Small<Hdr, S>>(), 64);
        assert_eq!(size_of::<Tall<Hdr>>(), 256);
    }

    #[test]
    fn next_addresses_the_declared_tower_in_both_classes() {
        let t: Towers<Hdr, S> = Towers::new();
        for top in 0..MAX_LEVEL {
            let p = t.alloc(hdr(7, top));
            assert_eq!(p as usize % LINE, 0, "height {}", top + 1);
            // SAFETY: fresh, unpublished node; levels within its tower.
            unsafe {
                let base: *const AtomicPtr<Hdr> = if top < S {
                    (*p.cast::<Small<Hdr, S>>()).next.as_ptr()
                } else {
                    (*p.cast::<Tall<Hdr>>()).next.as_ptr()
                };
                for l in 0..=top {
                    assert!(std::ptr::eq(next(p, l), base.add(l)), "level {l} of {top}");
                    assert!(next(p, l).load(Ordering::Relaxed).is_null());
                }
                t.dealloc_unpublished(p);
            }
        }
        assert_eq!(live(&t), (0, 0));
    }

    #[test]
    fn every_height_recycles_into_its_own_class() {
        let t: Towers<Hdr, S> = Towers::new();
        // Head and tail sentinels: always tall.
        let tail = t.alloc(hdr(u64::MAX, MAX_LEVEL - 1));
        let head = t.alloc(hdr(0, MAX_LEVEL - 1));
        assert_eq!(live(&t), (0, 2));
        for height in 1..=MAX_LEVEL {
            let top = height - 1;
            let class = |(small, tall): (u64, u64)| if top < S { small } else { tall - 2 };
            let p = t.alloc(hdr(height as u64, top));
            assert_eq!(class(live(&t)), 1, "height {height}");
            // SAFETY: single-threaded; link head -> p -> tail, then unlink
            // and retire exactly once.
            unsafe {
                for l in 0..=top {
                    next(p, l).store(tail, Ordering::Relaxed);
                    next(head, l).store(p, Ordering::Relaxed);
                }
                assert_eq!(
                    (*next(head, top).load(Ordering::Relaxed)).key,
                    height as u64
                );
                for l in 0..=top {
                    next(head, l).store(tail, Ordering::Relaxed);
                }
                t.retire(p);
            }
            assert!(Towers::grace_elapses(&[&t]), "grace period never elapsed");
            assert_eq!(live(&t), (0, 2), "height {height}: back to the sentinels");
            // The freed slot is what its class hands out next.
            let q = t.alloc(hdr(0, top));
            assert_eq!(q, p, "height {height}: slot left its class");
            // SAFETY: never published.
            unsafe { t.dealloc_unpublished(q) };
            assert_eq!(live(&t), (0, 2));
        }
    }
}
