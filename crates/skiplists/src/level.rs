//! Tower-height generation shared by all skip lists.

#[cfg(not(optik_explore))]
use std::cell::Cell;

/// Number of levels in every skip list (towers use `1..=MAX_LEVEL`).
///
/// With p = 1/2 geometric heights a list of n elements uses about
/// log2(n) levels, so 24 leaves headroom up to ~2^24 elements: the paper's
/// largest structure holds 2^16, the `ordered_scan_mixed` benchmark 2^17
/// (2^14 per partition). Only the two sentinels and the towers taller than
/// the one-line class pay for all 24 slots (see `tower.rs`).
pub const MAX_LEVEL: usize = 24;

#[cfg(not(optik_explore))]
thread_local! {
    static LEVEL_RNG: Cell<u64> = const { Cell::new(0) };
}

/// Draws a tower height in `1..=MAX_LEVEL` for `key`'s node, geometric
/// with p = 1/2.
///
/// Normal builds draw from a per-thread xorshift generator — heights are
/// independent of the key, as the classic algorithm prescribes. Under
/// `--cfg optik_explore` the height is a **pure hash of the key**: the
/// schedule explorer re-runs a model from scratch per schedule and
/// replays recorded decision prefixes, which requires the number of
/// per-level lock acquisitions (shim trap points) to be identical across
/// re-runs — any dependence on thread identity, allocation addresses, or
/// draw history would make the tree nondeterministic. Key-hashed heights
/// keep the same geometric distribution across distinct keys while being
/// a deterministic function of the inserted data.
#[cfg(optik_explore)]
pub fn random_level(key: u64) -> usize {
    // SplitMix64 finalizer: full-avalanche, so trailing-ones of the
    // mixed word is geometric(1/2) across keys.
    let mut x = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    ((x.trailing_ones() as usize) + 1).min(MAX_LEVEL)
}

/// Draws a tower height in `1..=MAX_LEVEL` for `key`'s node, geometric
/// with p = 1/2, using a per-thread xorshift generator (the key is
/// unused outside exploration builds).
#[cfg(not(optik_explore))]
pub fn random_level(_key: u64) -> usize {
    LEVEL_RNG.with(|cell| {
        let mut x = cell.get();
        if x == 0 {
            // Derive a distinct nonzero seed per thread.
            let addr = &x as *const _ as u64;
            x = addr
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(std::process::id() as u64)
                | 1;
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        cell.set(x);
        // Count trailing ones of a random word = geometric(1/2).
        let h = (x.trailing_ones() as usize) + 1;
        h.min(MAX_LEVEL)
    })
}

/// Restarts the calling thread's height draws from `seed`, so that two
/// lists fed the same op stream after the same reseed build the same
/// towers. (Under `--cfg optik_explore` heights are pure in the key
/// already, and this does nothing.)
#[cfg(test)]
pub(crate) fn reseed(seed: u64) {
    #[cfg(not(optik_explore))]
    LEVEL_RNG.with(|cell| cell.set(seed | 1));
    #[cfg(optik_explore)]
    let _ = seed;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_in_range() {
        for key in 0..100_000 {
            let l = random_level(key);
            assert!((1..=MAX_LEVEL).contains(&l));
        }
    }

    #[test]
    fn distribution_is_roughly_geometric() {
        let mut counts = [0usize; MAX_LEVEL + 1];
        const N: u64 = 200_000;
        for key in 0..N {
            counts[random_level(key)] += 1;
        }
        // Level 1 ≈ 50%, level 2 ≈ 25%.
        assert!(counts[1] as f64 > N as f64 * 0.45, "{}", counts[1]);
        assert!(counts[1] as f64 * 0.4 < counts[2] as f64);
        assert!(counts[2] as f64 * 0.4 < counts[3] as f64);
        // Tall towers are rare but exist.
        assert!(counts[8..].iter().sum::<usize>() > 0);
    }

    #[cfg(optik_explore)]
    #[test]
    fn exploration_heights_are_pure_in_the_key() {
        let a: Vec<usize> = (0..64).map(random_level).collect();
        let b = std::thread::spawn(|| (0..64).map(random_level).collect::<Vec<_>>())
            .join()
            .unwrap();
        assert_eq!(a, b, "explore heights must not depend on the thread");
    }

    #[cfg(not(optik_explore))]
    #[test]
    fn different_threads_draw_independently() {
        let a: Vec<usize> = (0..64).map(random_level).collect();
        let b = std::thread::spawn(|| (0..64).map(random_level).collect::<Vec<_>>())
            .join()
            .unwrap();
        assert_ne!(a, b, "astronomically unlikely to coincide");
    }
}
