//! The four workloads and the op streams they replay.
//!
//! A stream is generated from the seed before anything is timed; the store
//! only ever sees the generated inputs. One op is a `u64`: the kind in the
//! top byte, the (first) key below it.

use crate::rng::{mix64, Rng, Zipf};

pub type Key = u64;
pub type Val = u64;

/// Every value the benchmark stores is this function of its key, so any
/// hit can be checked without shared bookkeeping.
pub const VAL_XOR: u64 = 0x5bd1_e995_5bd1_e995;

/// Ops per thread and stream; streams are replayed cyclically.
pub const STREAM_LEN: usize = 1 << 20;
/// Keys per `multi_get` / `multi_put` / `multi_remove` call.
pub const BATCH: usize = 8;
/// A range scan covers `[lo, lo + RANGE_SPAN]`: 64 keys, about 32 entries.
pub const RANGE_SPAN: u64 = 63;

pub const GET: u64 = 0;
pub const PUT: u64 = 1;
pub const REMOVE: u64 = 2;
pub const MULTI_GET: u64 = 3;
pub const RANGE_SCAN: u64 = 4;
pub const MULTI_PUT: u64 = 5;
pub const MULTI_REMOVE: u64 = 6;
pub const KIND_NAMES: [&str; 7] = [
    "get",
    "put",
    "remove",
    "multi_get",
    "range_scan",
    "multi_put",
    "multi_remove",
];

const KIND_SHIFT: u32 = 56;
const KEY_MASK: u64 = (1 << KIND_SHIFT) - 1;

#[inline]
pub fn pack(kind: u64, key: Key) -> u64 {
    kind << KIND_SHIFT | key
}

#[inline]
pub fn unpack(op: u64) -> (u64, Key) {
    (op >> KIND_SHIFT, op & KEY_MASK)
}

/// The `j`-th key of the batch op whose stream key is `base`: spread over
/// the whole key range, so a batch crosses shards.
#[inline]
pub fn batch_key(base: Key, j: usize, key_range: u64) -> Key {
    1 + (mix64(base ^ (j as u64) << 32) & (key_range - 1))
}

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Backend {
    /// `KvStore<StripedOptikHashTable>::with_shards`, 16 segments per shard,
    /// one bucket per key of the range in total.
    Hash { shards: usize },
    /// `KvStore<OptikSkipList2>::with_ordered_shards(shards, key_range)`.
    Ordered { shards: usize },
}

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Dist {
    Uniform,
    Zipf(f64),
}

/// Shares in thousandths of: get, put, remove, multi_get, range_scan, and
/// multi-key writes (alternating `multi_put` / `multi_remove`).
pub type Mix = [u32; 6];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub backend: Backend,
    /// Entries after the fill; the key range is twice this (§5 of the
    /// paper), so equal put and remove shares keep the size steady.
    pub entries: u64,
    pub dist: Dist,
    pub mix: Mix,
}

impl Workload {
    pub fn key_range(&self) -> u64 {
        self.entries * 2
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "read_mostly_zipf",
        why: "2^16 entries under zipf 0.99, 95% get: routing, shard version read/validate and chain walks do the work; locks, the allocator and QSBR almost none",
        backend: Backend::Hash { shards: 8 },
        entries: 1 << 16,
        dist: Dist::Zipf(0.99),
        mix: [950, 25, 25, 0, 0, 0],
    },
    Workload {
        name: "write_heavy_uniform",
        why: "2^16 entries (fits cache), uniform, 80% put/remove: shard lock and version bump, backend insert/delete, NodePool and QSBR do the work; the read path little",
        backend: Backend::Hash { shards: 8 },
        entries: 1 << 16,
        dist: Dist::Uniform,
        mix: [200, 400, 400, 0, 0, 0],
    },
    Workload {
        name: "hot_shard_writes",
        why: "1024 entries in one shard under zipf 1.2, 80% put/remove: every write meets on one lock word and every get races a version bump; the paper's contention regime",
        backend: Backend::Hash { shards: 1 },
        entries: 1 << 10,
        dist: Dist::Zipf(1.2),
        mix: [200, 400, 400, 0, 0, 0],
    },
    Workload {
        name: "ordered_scan_mixed",
        why: "2^17 entries in 8 range partitions of skip lists with multi_get(8), range_scan(64) and multi-key writes: validated routing, the batch planner and range stitching do the work; no hash table",
        backend: Backend::Ordered { shards: 8 },
        entries: 1 << 17,
        dist: Dist::Uniform,
        mix: [500, 100, 100, 150, 100, 50],
    },
];

/// The ladder's read stream R: the read workload's shape over a fill that
/// misses the private cache. As an end-to-end workload this size swings by
/// 12-30 % from run to run on the reference box (its memory traffic competes
/// with the host's other guests), which no bound survives; on the ladder it
/// is reported, not gated.
pub const LADDER_READ: Workload = Workload {
    name: "ladder_read",
    why: "2^20 entries (15x the 4 MiB L2) under zipf 0.99, gets only",
    backend: Backend::Hash { shards: 8 },
    entries: 1 << 20,
    dist: Dist::Zipf(0.99),
    mix: [1000, 0, 0, 0, 0, 0],
};

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Draws keys in `[1, key_range]`. Zipf ranks go through a multiplicative
/// bijection of the range, so hot keys are scattered over buckets and
/// shards and not packed at the low end.
pub struct KeyGen {
    range: u64,
    zipf: Option<Zipf>,
}

impl KeyGen {
    pub fn new(dist: Dist, key_range: u64) -> Self {
        assert!(key_range.is_power_of_two());
        KeyGen {
            range: key_range,
            zipf: match dist {
                Dist::Uniform => None,
                Dist::Zipf(s) => Some(Zipf::new(key_range, s)),
            },
        }
    }

    #[inline]
    pub fn rank_to_key(&self, rank: u64) -> Key {
        1 + ((rank - 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) & (self.range - 1))
    }

    #[inline]
    pub fn draw(&self, rng: &mut Rng) -> Key {
        match &self.zipf {
            None => 1 + rng.below_pow2(self.range),
            Some(z) => self.rank_to_key(z.sample(rng)),
        }
    }
}

/// The op stream of one worker thread.
pub fn generate(w: &Workload, seed: u64, thread: usize) -> Vec<u64> {
    debug_assert_eq!(w.mix.iter().sum::<u32>(), 1000);
    let mut rng = Rng::new(mix64(seed) ^ mix64(thread as u64 + 1));
    let keys = KeyGen::new(w.dist, w.key_range());
    let mut multi_writes = 0u64;
    (0..STREAM_LEN)
        .map(|_| {
            let mut pick = (rng.next_u64() % 1000) as u32;
            let mut slot = 0;
            while pick >= w.mix[slot] {
                pick -= w.mix[slot];
                slot += 1;
            }
            let kind = if slot as u64 == MULTI_PUT {
                multi_writes += 1;
                MULTI_PUT + (multi_writes & 1)
            } else {
                slot as u64
            };
            pack(kind, keys.draw(&mut rng))
        })
        .collect()
}

/// FNV-1a over every stream, printed as `stream_fnv`: two runs replayed
/// the same inputs iff these agree.
pub fn fnv(streams: &[Vec<u64>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for op in streams.iter().flatten() {
        for b in op.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in &WORKLOADS {
            let a = fnv(&[generate(w, 42, 0), generate(w, 42, 1)]);
            let b = fnv(&[generate(w, 42, 0), generate(w, 42, 1)]);
            let c = fnv(&[generate(w, 43, 0), generate(w, 43, 1)]);
            assert_eq!(a, b, "{}", w.name);
            assert_ne!(a, c, "{}", w.name);
            assert_ne!(generate(w, 42, 0), generate(w, 42, 1), "threads differ");
        }
    }

    #[test]
    fn mix_shares_are_within_half_a_percent_and_keys_in_range() {
        for w in &WORKLOADS {
            let stream = generate(w, 42, 0);
            let mut seen = [0u32; 7];
            for &op in &stream {
                let (kind, key) = unpack(op);
                assert!((1..=w.key_range()).contains(&key));
                seen[kind as usize] += 1;
            }
            seen[MULTI_PUT as usize] += seen[MULTI_REMOVE as usize];
            for (slot, &want) in w.mix.iter().enumerate() {
                let got = seen[slot] as f64 / stream.len() as f64;
                assert!(
                    (got - want as f64 / 1000.0).abs() < 0.005,
                    "{} slot {slot}: {got} vs {want}/1000",
                    w.name
                );
            }
        }
    }

    #[test]
    fn rank_scramble_is_a_bijection_of_the_range() {
        let g = KeyGen::new(Dist::Zipf(1.2), 2048);
        let mut seen = vec![false; 2049];
        for rank in 1..=2048 {
            let k = g.rank_to_key(rank) as usize;
            assert!((1..=2048).contains(&k) && !seen[k]);
            seen[k] = true;
        }
    }

    #[test]
    fn batch_keys_stay_in_range() {
        for j in 0..BATCH {
            assert!((1..=1 << 18).contains(&batch_key(12345, j, 1 << 18)));
        }
    }
}
