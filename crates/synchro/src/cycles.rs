//! Cheap timestamp counter for latency measurements.
//!
//! The paper measures per-operation latencies with "the per-core timestamp
//! counter for accurately measuring the duration of an operation in cycles"
//! (§5). On x86_64 we read `rdtsc` directly; elsewhere we fall back to a
//! monotonic clock scaled to nanoseconds (close enough to cycles at ~GHz
//! clock rates for distribution *shapes*).

/// Reads the current timestamp, in cycles on x86_64 (nanoseconds elsewhere).
#[inline]
#[cfg(target_arch = "x86_64")]
pub fn now() -> u64 {
    // SAFETY: `rdtsc` has no preconditions; it only reads the TSC.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// Reads the current timestamp, in cycles on x86_64 (nanoseconds elsewhere).
#[inline]
#[cfg(not(target_arch = "x86_64"))]
pub fn now() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

/// [`now`], ordered against the calling thread's own memory accesses: every
/// earlier store is globally visible and every earlier load has completed
/// before the counter is read, and no later access starts before it has
/// been. For stamps that order operations *across* threads (the
/// linearizability recorder's invoke/response instants): a bare `rdtsc` may
/// execute while the operation's last store still sits in the store buffer,
/// or after its first load, so "responded before the other was invoked" can
/// be claimed of two operations that overlapped. Costs a full fence — not
/// for latency sampling.
#[inline]
#[cfg(target_arch = "x86_64")]
pub fn now_ordered() -> u64 {
    use core::arch::x86_64::{_mm_lfence, _rdtsc};
    std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
    // SAFETY: `lfence` (SSE2, baseline on x86_64) and `rdtsc` have no
    // preconditions. The pair of `lfence`s keeps `rdtsc`, which is not a
    // serializing instruction, between the accesses on either side of it.
    unsafe {
        _mm_lfence();
        let t = _rdtsc();
        _mm_lfence();
        t
    }
}

/// [`now`], ordered against the calling thread's own memory accesses (see
/// the x86_64 variant; the clock call itself is not reordered here, so the
/// fence is all it takes).
#[inline]
#[cfg(not(target_arch = "x86_64"))]
pub fn now_ordered() -> u64 {
    std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
    let t = now();
    std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
    t
}

/// Returns the elapsed ticks between two [`now`] readings.
///
/// Saturates at zero if the counter appears to run backwards (possible
/// across socket migrations on exotic hardware).
#[inline]
pub fn elapsed(start: u64, end: u64) -> u64 {
    end.saturating_sub(start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_is_monotonic_enough() {
        let a = now();
        // Burn a little time so even coarse clocks advance.
        let mut x = 0u64;
        for i in 0..10_000u64 {
            x = x.wrapping_add(i * i);
        }
        std::hint::black_box(x);
        let b = now();
        assert!(b >= a, "timestamp went backwards: {a} -> {b}");
    }

    #[test]
    fn now_ordered_reads_the_same_counter() {
        let a = now();
        let b = now_ordered();
        let c = now();
        assert!(
            a <= b && b <= c,
            "not between two plain readings: {a} {b} {c}"
        );
    }

    #[test]
    fn elapsed_saturates() {
        assert_eq!(elapsed(10, 5), 0);
        assert_eq!(elapsed(5, 10), 5);
    }
}
