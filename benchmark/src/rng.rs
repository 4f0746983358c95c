//! Deterministic random numbers for input generation: a splitmix64
//! generator and an exact Zipf sampler. Nothing here is shared with the
//! repository's own harness, so a change there cannot move the inputs.

/// The splitmix64 finalizer: a bijective 64-bit mixer.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// splitmix64: one add and one mix per draw, full 2^64 period.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(mix64(seed))
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`; `n` must be a power of two (every range the
    /// benchmark draws from is), so masking is exact.
    #[inline]
    pub fn below_pow2(&mut self, n: u64) -> u64 {
        debug_assert!(n.is_power_of_two());
        self.next_u64() & (n - 1)
    }
}

/// Zipf over ranks `1..=n` with exponent `s > 0`, by rejection-inversion
/// (Hörmann & Derflinger 1996): exact for every exponent, no table, about
/// one `exp` and one `ln` per draw.
pub struct Zipf {
    n: f64,
    s: f64,
    h_x1: f64,
    h_n: f64,
    cut: f64,
}

impl Zipf {
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n >= 1 && s > 0.0);
        let n = n as f64;
        Zipf {
            n,
            s,
            h_x1: h_integral(1.5, s) - 1.0,
            h_n: h_integral(n + 0.5, s),
            cut: 2.0 - h_integral_inv(h_integral(2.5, s) - h(2.0, s), s),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        loop {
            let u = self.h_n + rng.next_f64() * (self.h_x1 - self.h_n);
            let x = h_integral_inv(u, self.s);
            let k = (x + 0.5).floor().clamp(1.0, self.n);
            if k - x <= self.cut || u >= h_integral(k + 0.5, self.s) - h(k, self.s) {
                return k as u64;
            }
        }
    }
}

/// `x^-s`.
fn h(x: f64, s: f64) -> f64 {
    (-s * x.ln()).exp()
}

/// Antiderivative of `h`: `(x^(1-s) - 1) / (1 - s)`, continuous at `s = 1`.
fn h_integral(x: f64, s: f64) -> f64 {
    let log_x = x.ln();
    expm1_over(log_x * (1.0 - s)) * log_x
}

fn h_integral_inv(x: f64, s: f64) -> f64 {
    // Rounding can push the argument just below -1, where ln1p is undefined.
    let t = (x * (1.0 - s)).max(-1.0);
    (ln1p_over(t) * x).exp()
}

/// `expm1(t) / t`, continuous at 0.
fn expm1_over(t: f64) -> f64 {
    if t.abs() > 1e-8 {
        t.exp_m1() / t
    } else {
        1.0 + t * 0.5 * (1.0 + t / 3.0)
    }
}

/// `ln1p(t) / t`, continuous at 0.
fn ln1p_over(t: f64) -> f64 {
    if t.abs() > 1e-8 {
        t.ln_1p() / t
    } else {
        1.0 - t * (0.5 - t / 3.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The analytic share of rank 1 is `1 / sum_{k<=n} k^-s`.
    fn top_share(n: u64, s: f64) -> f64 {
        1.0 / (1..=n).map(|k| (k as f64).powf(-s)).sum::<f64>()
    }

    #[test]
    fn zipf_top_key_share_matches_the_analytic_value() {
        // The (range, exponent) pairs of the workloads and of the ladder's R.
        for (n, s) in [(1u64 << 17, 0.99), (2048, 1.2), (1 << 21, 0.99)] {
            let z = Zipf::new(n, s);
            let mut rng = Rng::new(7);
            let draws = 1_000_000;
            let mut top = 0u64;
            for _ in 0..draws {
                let k = z.sample(&mut rng);
                assert!((1..=n).contains(&k));
                top += (k == 1) as u64;
            }
            let got = top as f64 / draws as f64;
            let want = top_share(n, s);
            assert!(
                (got / want - 1.0).abs() < 0.02,
                "n={n} s={s}: top share {got} vs analytic {want}"
            );
        }
    }

    #[test]
    fn same_seed_same_draws() {
        let (mut a, mut b, mut c) = (Rng::new(1), Rng::new(1), Rng::new(2));
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
    }
}
