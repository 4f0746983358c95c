//! Software prefetch for pointer-chasing traversals.
//!
//! A pointer-chasing walk stalls on lines whose address it knows before
//! it needs the data — the window a non-faulting `prefetcht0` can hide.
//! The hint pays only when it aims past the very next load: the
//! `OptikSkipList2` descent hints the level below before it walks the
//! current one, and its interleaved batch walks hint the line each lane
//! compares next while the other lanes run. A hint on the line the next
//! instruction loads anyway hides nothing, so the list walks and the
//! other skip lists issue none. [`read`] issues the hint on x86_64 and
//! compiles to nothing everywhere else — including under
//! `--cfg optik_explore`, where the deterministic explorer owns the
//! interleaving and a micro-architectural hint would only blur the
//! schedule-to-outcome mapping the replay tokens pin.
//!
//! The hint is speculative and non-faulting, so it is safe to issue on
//! any pointer a traversal is about to dereference — even one a racing
//! delete is unlinking — as long as the pointer itself came from a
//! QSBR-protected load (the node's memory is still mapped for the
//! whole grace period).

/// Whether [`read`] compiles to an actual prefetch instruction on this
/// build (x86_64, outside the deterministic explorer). Off-target and
/// explorer builds pin this `false` so tests can assert the helper is
/// a no-op there.
pub const ACTIVE: bool = cfg!(all(target_arch = "x86_64", not(optik_explore)));

/// Prefetches the cache line at `p` for reading (`prefetcht0`: into all
/// cache levels). A no-op when [`ACTIVE`] is false. Null pointers are
/// architecturally safe to prefetch, but we skip them to keep the TLB
/// out of the picture and to make the probe's `PrefetchIssued` count
/// mean "useful address hinted".
#[inline(always)]
pub fn read<T>(p: *const T) {
    #[cfg(all(target_arch = "x86_64", not(optik_explore)))]
    if !p.is_null() {
        // SAFETY: prefetch is a non-faulting hint; any address, mapped
        // or not, is architecturally valid.
        unsafe {
            std::arch::x86_64::_mm_prefetch(p as *const i8, std::arch::x86_64::_MM_HINT_T0);
        }
        optik_probe::count(optik_probe::Event::PrefetchIssued);
    }
    #[cfg(not(all(target_arch = "x86_64", not(optik_explore))))]
    let _ = p;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the cfg policy: active exactly on x86_64 outside the
    /// explorer. On any other target (or under `--cfg optik_explore`)
    /// the helper must report inactive — the CI cross-check for
    /// "compiles to a no-op off x86".
    #[test]
    fn active_matches_target_policy() {
        let on_target = cfg!(all(target_arch = "x86_64", not(optik_explore)));
        assert_eq!(ACTIVE, on_target);
    }

    #[test]
    fn null_and_live_pointers_are_safe() {
        read::<u64>(std::ptr::null());
        let x = 42u64;
        read(&x as *const u64);
        // Dangling (but non-null) addresses are fine too: prefetch
        // never faults.
        read(0xdead_beef_usize as *const u64);
    }
}
