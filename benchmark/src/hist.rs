//! Log-linear latency histogram: constant memory, 32 sub-buckets per
//! power of two, so a bucket is at most 1/32 of its value wide and its
//! midpoint is within 1.6 % of any sample in it. Values below 32 ns are
//! exact.

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64]>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }
}

#[inline]
fn index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    ((shift as usize + 1) << SUB_BITS) + ((v >> shift) as usize & (SUB - 1))
}

/// `[low, low + width)` covered by bucket `i`.
fn bounds(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, 1);
    }
    let shift = (i >> SUB_BITS) as u32 - 1;
    (((SUB + (i & (SUB - 1))) as u64) << shift, 1 << shift)
}

impl Hist {
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (`0 < q <= 1`), interpolated linearly by rank
    /// inside its bucket so that the value moves smoothly with the data
    /// and is not pinned to bucket edges. 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q * self.total as f64;
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (before + c) as f64 >= rank {
                let (low, width) = bounds(i);
                let inside = ((rank - before as f64) / c as f64).clamp(0.0, 1.0);
                return low as f64 + width as f64 * inside;
            }
            before += c;
        }
        unreachable!("rank {rank} lies within total {}", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn buckets_tile_the_u64_range() {
        let mut next = 0u64;
        for i in 0..BUCKETS {
            let (low, width) = bounds(i);
            assert_eq!(
                low,
                next,
                "bucket {i} starts where {} ended",
                i.wrapping_sub(1)
            );
            assert_eq!(index(low), i);
            assert_eq!(index(low + (width - 1)), i);
            next = low.wrapping_add(width);
        }
        assert_eq!(next, 0, "last bucket ends at 2^64");
    }

    #[test]
    fn percentiles_match_a_sorted_vector_within_bucket_error() {
        let mut rng = Rng::new(3);
        let mut h = Hist::default();
        // Latency-shaped: a body around 100 ns and a long multiplicative tail.
        let mut xs: Vec<u64> = (0..200_000)
            .map(|_| {
                let body = 60 + rng.next_u64() % 80;
                let tail = 1u64 << (rng.next_u64() % 100).saturating_sub(88);
                body * tail
            })
            .collect();
        for &x in &xs {
            h.record(x);
        }
        xs.sort_unstable();
        assert_eq!(h.count(), xs.len() as u64);
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = xs[((q * xs.len() as f64).ceil() as usize).max(1) - 1] as f64;
            let got = h.quantile(q);
            assert!(
                (got / exact - 1.0).abs() <= 0.02 + 1.0 / exact,
                "q={q}: histogram {got} vs sorted {exact}"
            );
        }
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (Hist::default(), Hist::default());
        a.record(10);
        b.record(1000);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.quantile(1.0) / 1e6 - 1.0).abs() < 0.04);
        assert_eq!(Hist::default().quantile(0.5), 0.0);
    }
}
