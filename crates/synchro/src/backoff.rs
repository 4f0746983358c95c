//! Exponential backoff, mirroring the paper's experimental methodology.
//!
//! §5 of the paper: "For fairness, all data structures use the exact same
//! backoff function. We use exponentially increasing backoff times with up
//! to 16k cycles maximum backoff." This module provides that function. The
//! unit of waiting is one `core::hint::spin_loop()` invocation, which on
//! x86 lowers to `pause`; a pause costs on the order of a few cycles, so the
//! default cap of [`Backoff::DEFAULT_MAX_WAIT`] iterations approximates the
//! paper's 16k-cycle ceiling.
//!
//! On top of the paper's fixed policy, [`Backoff::adaptive`] seeds each
//! retry loop's *ceiling* from the thread's recent validation-failure
//! streaks: a thread whose optimistic operations have been succeeding
//! starts with a low ceiling (a failed validation costs a few pauses and a
//! fast retry), while a thread stuck in a hot-shard storm carries its high
//! ceiling into the next loop and backs off toward the 16k ceiling
//! immediately instead of re-climbing from 2. The state is a per-thread
//! EWMA; nothing is shared between threads, so the adaptive policy adds no
//! coherence traffic to the loops it is tuning.
//!
//! One deliberate deviation: once saturated, each [`Backoff::backoff`] call
//! also yields to the OS scheduler (unless `OPTIK_PURE_SPIN=1`, see
//! [`relax`]), so on oversubscribed machines latency numbers can include
//! scheduler time the paper's purely cycle-bounded backoff would not —
//! same caveat as [`relax`] in the ROADMAP's single-core-fidelity open item.

use core::cell::Cell;
use core::hint;

/// Exponentially increasing busy-wait backoff with a hard cap.
///
/// Each call to [`Backoff::backoff`] spins for the current wait amount and
/// then doubles it, saturating at the configured maximum. Use one value per
/// retry loop; the state is intentionally not shared between threads.
///
/// # Examples
///
/// ```
/// use synchro::Backoff;
///
/// let mut bo = Backoff::new();
/// for attempt in 0..4 {
///     // ... try an optimistic operation, fail, then:
///     bo.backoff();
/// }
/// assert!(bo.waited() > 0);
/// ```
#[derive(Debug)]
pub struct Backoff {
    current: u32,
    /// Soft ceiling: where doubling stops *for now*. Fixed (== `max`) for
    /// [`Backoff::new`]; seeded from the thread's streak EWMA and escalated
    /// under sustained failure for [`Backoff::adaptive`].
    cap: u32,
    /// Hard ceiling (the paper's 16k-cycle bound for the default).
    max: u32,
    adaptive: bool,
    total: u64,
}

std::thread_local! {
    /// EWMA of the wait level recent adaptive retry loops ended at.
    /// Thread-local on purpose: sharing contention estimates between
    /// threads would put a coherence hotspot inside the backoff path.
    static STREAK_SEED: Cell<u32> = const { Cell::new(Backoff::INITIAL_WAIT) };
}

impl Backoff {
    /// Initial wait in spin iterations.
    pub const INITIAL_WAIT: u32 = 2;
    /// Default cap, approximating the paper's 16k-cycle maximum backoff.
    pub const DEFAULT_MAX_WAIT: u32 = 1 << 12;

    /// Creates a backoff with the default cap and the paper's fixed policy.
    #[inline]
    pub fn new() -> Self {
        Self::with_max(Self::DEFAULT_MAX_WAIT)
    }

    /// Creates a backoff with a custom cap (in spin iterations).
    #[inline]
    pub fn with_max(max: u32) -> Self {
        let max = max.max(1);
        Self {
            current: Self::INITIAL_WAIT,
            cap: max,
            max,
            adaptive: false,
            total: 0,
        }
    }

    /// Creates a contention-adaptive backoff for one retry loop.
    ///
    /// The soft ceiling is seeded from this thread's recent failure
    /// streaks (an EWMA of where previous adaptive loops ended): after a
    /// run of clean validations the ceiling sits near
    /// [`Backoff::INITIAL_WAIT`], so an isolated conflict costs a few
    /// pauses; during a hot-shard storm the ceiling rides up toward
    /// [`Backoff::DEFAULT_MAX_WAIT`], so re-entering the loop resumes the
    /// paper's maximum backoff instead of re-climbing. Sustained failure
    /// *within* one loop also escalates the ceiling (×4 per touch, up to
    /// the hard cap), so a mis-seeded low ceiling cannot trap a storm at
    /// short waits. Dropping the value folds the final wait level back
    /// into the thread-local seed.
    #[inline]
    pub fn adaptive() -> Self {
        let seed = STREAK_SEED
            .with(Cell::get)
            .clamp(Self::INITIAL_WAIT, Self::DEFAULT_MAX_WAIT);
        Self {
            current: Self::INITIAL_WAIT,
            cap: seed,
            max: Self::DEFAULT_MAX_WAIT,
            adaptive: true,
            total: 0,
        }
    }

    /// Spins for the current wait amount, then doubles it (saturating at
    /// the ceiling; adaptive ceilings escalate toward the hard cap while
    /// failures continue).
    ///
    /// Once saturated at the hard cap, each call also yields to the OS
    /// scheduler: a retry loop that has already waited the paper's maximum
    /// backoff is losing to some other thread, and on an oversubscribed
    /// machine that thread may be preempted and need the CPU to make
    /// progress at all. `OPTIK_PURE_SPIN=1` disables the yield (paper
    /// methodology; see [`relax`]).
    #[inline]
    pub fn backoff(&mut self) {
        optik_probe::count(optik_probe::Event::BackoffWait);
        #[cfg(optik_explore)]
        if crate::shim::hook_active() {
            // Under the explorer real time does not exist: report a
            // voluntary yield so the scheduler can hand the step to the
            // thread this backoff is waiting on, and skip the spin.
            crate::shim::yield_point(crate::shim::Access::YIELD);
            self.advance();
            return;
        }
        let n = self.current;
        spin(n);
        self.total += u64::from(n);
        if self.current >= self.max && !pure_spin() {
            std::thread::yield_now();
        }
        self.advance();
    }

    /// Doubles the wait, escalating an adaptive soft ceiling that keeps
    /// getting hit.
    #[inline]
    fn advance(&mut self) {
        if self.adaptive && self.current >= self.cap && self.cap < self.max {
            optik_probe::count(optik_probe::Event::BackoffEscalate);
            self.cap = self.cap.saturating_mul(4).min(self.max);
        }
        self.current = (self.current.saturating_mul(2)).min(self.cap);
    }

    /// Whether the backoff has reached its (current) maximum wait.
    #[inline]
    pub fn is_saturated(&self) -> bool {
        self.current >= self.cap
    }

    /// The current wait level in spin iterations (what the next
    /// [`Backoff::backoff`] call will wait).
    #[inline]
    pub fn level(&self) -> u32 {
        self.current
    }

    /// Total spin iterations waited so far.
    #[inline]
    pub fn waited(&self) -> u64 {
        self.total
    }

    /// Resets the wait back to the initial value.
    #[inline]
    pub fn reset(&mut self) {
        self.current = Self::INITIAL_WAIT;
    }
}

impl Drop for Backoff {
    fn drop(&mut self) {
        if !self.adaptive {
            return;
        }
        // Fold the observed contention level into the thread's seed:
        // weight the new observation 3:1 so a storm raises the next loop's
        // ceiling within a couple of operations, and an untouched loop
        // (current == INITIAL_WAIT) decays it just as fast.
        STREAK_SEED.with(|seed| {
            let old = seed.get();
            seed.set(
                (old / 4)
                    .saturating_add(self.current / 4 * 3)
                    .max(Self::INITIAL_WAIT),
            );
        });
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

/// Folds a clean first-try acquisition into the calling thread's
/// contention EWMA: the same 3:1 decay an untouched adaptive loop
/// applies on drop, without constructing one. Fast paths that succeed
/// without ever creating a [`Backoff`] call this so the estimate decays
/// once the storm passes instead of pinning at its peak.
#[inline]
pub fn note_calm() {
    STREAK_SEED.with(|seed| {
        let old = seed.get();
        seed.set((old / 4).max(Backoff::INITIAL_WAIT));
    });
}

/// Whether `OPTIK_PURE_SPIN=1` was set at first use (read once per
/// process): run pure pause-spin loops with no scheduler yields, matching
/// the paper's cycle-bounded methodology. See [`relax`].
#[inline]
pub(crate) fn pure_spin() -> bool {
    use std::sync::OnceLock;
    static PURE_SPIN: OnceLock<bool> = OnceLock::new();
    *PURE_SPIN.get_or_init(|| std::env::var_os("OPTIK_PURE_SPIN").is_some_and(|v| v == "1"))
}

/// Spins for `n` iterations of the CPU's pause hint.
#[inline]
pub fn spin(n: u32) {
    for _ in 0..n {
        hint::spin_loop();
    }
}

/// One iteration of an unbounded wait loop: usually the CPU's pause hint,
/// but every 128th call per thread yields to the OS scheduler.
///
/// Every spin-wait in the workspace that waits on *another thread's*
/// action (lock hand-off, version change, queue link) must use this
/// instead of a bare `spin_loop()`. On machines with more runnable
/// threads than cores — CI boxes, laptops — a pure spin loop burns its
/// entire scheduler quantum while the thread it waits on is preempted;
/// the periodic yield lets the holder run. On an unloaded multicore the
/// yield triggers at most once per 128 waited iterations, so measured
/// behavior matches the paper's pause-spin loops.
///
/// Setting `OPTIK_PURE_SPIN=1` (read once per process) disables the
/// periodic yield — here *and* in [`Backoff::backoff`]'s saturation yield —
/// restoring the paper's purely cycle-bounded behavior. This exists to
/// *measure* the yield's overhead (see DESIGN.md, "relax() yield
/// overhead"); running the test suite with it on an oversubscribed box
/// brings back the multi-minute spin convoys the yield was added to fix.
#[inline]
pub fn relax() {
    #[cfg(optik_explore)]
    if crate::shim::hook_active() {
        // A spin-wait iteration under the explorer is a scheduling
        // decision, not a pause: park at a Yield point until another
        // thread's write re-enables this one.
        crate::shim::yield_point(crate::shim::Access::YIELD);
        return;
    }
    if pure_spin() {
        hint::spin_loop();
        return;
    }
    std::thread_local! {
        static SPINS: Cell<u32> = const { Cell::new(0) };
    }
    let n = SPINS.with(|c| {
        let n = c.get().wrapping_add(1);
        c.set(n);
        n
    });
    if n & 0x7f == 0 {
        std::thread::yield_now();
    } else {
        hint::spin_loop();
    }
}

/// Proportional backoff: waits `distance * unit` pause iterations.
///
/// Used by the ticket-lock-based OPTIK `lock_backoff` extension (§3.2 of the
/// paper): a thread that knows it is `distance` slots away from acquiring a
/// ticket lock waits proportionally instead of hammering the lock word.
#[inline]
pub fn proportional(distance: u32, unit: u32) -> u32 {
    let n = distance.saturating_mul(unit);
    spin(n);
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_exponentially_then_saturates() {
        let mut bo = Backoff::with_max(16);
        assert!(!bo.is_saturated());
        bo.backoff(); // waited 2, current 4
        bo.backoff(); // waited 4, current 8
        bo.backoff(); // waited 8, current 16
        assert!(bo.is_saturated());
        bo.backoff(); // waited 16, current stays 16
        assert!(bo.is_saturated());
        assert_eq!(bo.waited(), 2 + 4 + 8 + 16);
    }

    #[test]
    fn reset_restores_initial_wait() {
        let mut bo = Backoff::with_max(8);
        bo.backoff();
        bo.backoff();
        bo.reset();
        assert!(!bo.is_saturated());
        let before = bo.waited();
        bo.backoff();
        assert_eq!(bo.waited(), before + u64::from(Backoff::INITIAL_WAIT));
    }

    #[test]
    fn max_is_clamped_to_at_least_one() {
        let mut bo = Backoff::with_max(0);
        bo.backoff();
        assert!(bo.is_saturated());
    }

    #[test]
    fn proportional_waits_product() {
        assert_eq!(proportional(3, 10), 30);
        assert_eq!(proportional(0, 10), 0);
        // saturating multiply, not overflow (don't actually spin u32::MAX:
        // exercise the arithmetic path the function uses)
        assert_eq!(u32::MAX.saturating_mul(2), u32::MAX);
    }

    #[test]
    fn default_matches_new() {
        let a = Backoff::default();
        let b = Backoff::new();
        assert_eq!(a.max, b.max);
        assert_eq!(a.current, b.current);
    }

    /// The adaptive seed is thread-local; run each scenario on a fresh
    /// thread so test order can't leak seeds between assertions.
    fn on_fresh_thread(f: impl FnOnce() + Send + 'static) {
        std::thread::spawn(f).join().unwrap();
    }

    #[test]
    fn adaptive_starts_cheap_when_uncontended() {
        on_fresh_thread(|| {
            // A history of clean loops keeps the ceiling at the floor …
            for _ in 0..8 {
                let _ = Backoff::adaptive();
            }
            let bo = Backoff::adaptive();
            assert_eq!(bo.cap, Backoff::INITIAL_WAIT);
            // … so one failed validation costs a couple of pauses.
            let mut bo = bo;
            bo.backoff();
            assert!(bo.waited() <= u64::from(Backoff::INITIAL_WAIT));
        });
    }

    #[test]
    fn adaptive_escalates_to_the_hard_cap_under_sustained_failure() {
        on_fresh_thread(|| {
            let mut bo = Backoff::adaptive();
            // Even with the lowest seed, a storm must reach the paper's
            // ceiling within a bounded number of retries.
            for _ in 0..32 {
                bo.advance(); // growth logic without actually spinning 16k
            }
            assert_eq!(bo.current, Backoff::DEFAULT_MAX_WAIT);
        });
    }

    #[test]
    fn adaptive_seed_rises_after_storms_and_decays_after_calm() {
        on_fresh_thread(|| {
            // Storm: a loop that ends at a high wait raises the seed …
            {
                let mut bo = Backoff::adaptive();
                for _ in 0..32 {
                    bo.advance();
                }
            }
            let stormy = STREAK_SEED.with(Cell::get);
            assert!(stormy > Backoff::INITIAL_WAIT, "seed after storm: {stormy}");
            // … so the next loop starts with an elevated ceiling.
            assert!(Backoff::adaptive().cap > Backoff::INITIAL_WAIT);
            // Calm: untouched loops decay the seed back to the floor.
            for _ in 0..16 {
                let _ = Backoff::adaptive();
            }
            assert_eq!(STREAK_SEED.with(Cell::get), Backoff::INITIAL_WAIT);
        });
    }

    #[test]
    fn note_calm_decays_the_seed_a_storm_raised() {
        on_fresh_thread(|| {
            let seed = || STREAK_SEED.with(Cell::get);
            assert_eq!(seed(), Backoff::INITIAL_WAIT);
            {
                let mut bo = Backoff::adaptive();
                for _ in 0..32 {
                    bo.advance();
                }
                // The loop's own level is visible before the drop folds
                // it into the EWMA.
                assert_eq!(bo.level(), Backoff::DEFAULT_MAX_WAIT);
            }
            assert!(seed() > Backoff::INITIAL_WAIT);
            // Clean fast-path acquisitions decay the estimate back to
            // the floor without constructing a Backoff.
            for _ in 0..16 {
                note_calm();
            }
            assert_eq!(seed(), Backoff::INITIAL_WAIT);
        });
    }

    #[test]
    fn fixed_policy_is_unaffected_by_the_adaptive_seed() {
        on_fresh_thread(|| {
            {
                let mut bo = Backoff::adaptive();
                for _ in 0..32 {
                    bo.advance();
                }
            }
            // Backoff::new ignores the seed entirely.
            let bo = Backoff::new();
            assert_eq!(bo.cap, Backoff::DEFAULT_MAX_WAIT);
            assert_eq!(bo.current, Backoff::INITIAL_WAIT);
        });
    }
}
