//! The closed-loop driver: set-up, worker threads that replay their op
//! streams back to back and check every reply, and the coordinator that
//! cuts the run into windows while the workers keep going.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use optik_hashtables::StripedOptikHashTable;
use optik_kv::{ConcurrentMap, KvStore};
use optik_skiplists::OptikSkipList2;

use crate::hist::Hist;
use crate::rng::Rng;
use crate::stream::{self, Backend, Key, KeyGen, Val, Workload, BATCH, RANGE_SPAN, VAL_XOR};
use crate::trace::{Probe, SpanLog, CLASSES};

/// OPTIK stripes of a hash-sharded store over all its shards: 16 per shard at 8 shards.
pub const STRIPES: usize = 128;
/// One op in this many is timed in an untraced window.
pub const SAMPLE_STRIDE: usize = 16;
/// Violation descriptions kept per thread (all are counted).
const KEEP_VIOLATIONS: usize = 8;

const GET_CLASS: usize = 0;
const WRITE_CLASS: usize = 1;
const MULTI_CLASS: usize = 2;

/// The multi-key calls the workloads make beside `ConcurrentMap`'s, so that
/// one driver serves both store types.
pub trait Store: ConcurrentMap {
    fn multi_get(&self, keys: &[Key]) -> Vec<Option<Val>>;
    fn multi_put(&self, entries: &[(Key, Val)]) -> Vec<Option<Val>>;
    fn multi_remove(&self, keys: &[Key]) -> Vec<Option<Val>>;
    fn range_scan(&self, lo: Key, hi: Key) -> Vec<(Key, Val)>;
}

pub type HashStore = KvStore<StripedOptikHashTable>;
pub type OrderedStore = KvStore<OptikSkipList2>;

macro_rules! impl_store {
    ($ty:ty, |$s:ident, $lo:ident, $hi:ident| $range:expr) => {
        impl Store for $ty {
            fn multi_get(&self, keys: &[Key]) -> Vec<Option<Val>> {
                KvStore::multi_get(self, keys)
            }
            fn multi_put(&self, entries: &[(Key, Val)]) -> Vec<Option<Val>> {
                KvStore::multi_put(self, entries)
            }
            fn multi_remove(&self, keys: &[Key]) -> Vec<Option<Val>> {
                KvStore::multi_remove(self, keys)
            }
            fn range_scan(&self, $lo: Key, $hi: Key) -> Vec<(Key, Val)> {
                let $s = self;
                $range
            }
        }
    };
}
impl_store!(HashStore, |_s, _lo, _hi| unreachable!(
    "no hash-sharded workload has range scans in its mix"
));
impl_store!(OrderedStore, |s, lo, hi| KvStore::range_scan(s, lo, hi));

pub fn hash_store(shards: usize, key_range: u64) -> HashStore {
    let buckets = key_range as usize / shards;
    KvStore::with_shards(shards, |_| {
        StripedOptikHashTable::new(buckets, STRIPES / shards)
    })
}

pub fn ordered_store(shards: usize, key_range: u64) -> OrderedStore {
    KvStore::with_ordered_shards(shards, key_range, |_| OptikSkipList2::new())
}

/// Puts uniformly drawn keys until `entries` of them were fresh, counted
/// from `put`'s return value.
pub fn fill(entries: u64, key_range: u64, seed: u64, mut put: impl FnMut(Key, Val) -> Option<Val>) {
    let keys = KeyGen::new(stream::Dist::Uniform, key_range);
    let mut rng = Rng::new(seed ^ 0xf111);
    let mut fresh = 0;
    while fresh < entries {
        let k = keys.draw(&mut rng);
        fresh += put(k, k ^ VAL_XOR).is_none() as u64;
    }
}

/// What the oracle expects a hit on `key` to return. The self-test breaks
/// the constant on purpose to prove that a wrong reply fails the run.
pub struct Oracle {
    pub xor: u64,
}

#[derive(Default, Clone)]
pub struct Counts {
    pub ops: u64,
    pub gets: u64,
    pub get_hits: u64,
    pub puts: u64,
    pub put_fresh: u64,
    pub removes: u64,
    pub remove_hits: u64,
    /// Entries added by `multi_put` and taken by `multi_remove`, for the audit.
    pub batch_fresh: u64,
    pub batch_removed: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.ops += o.ops;
        self.gets += o.gets;
        self.get_hits += o.get_hits;
        self.puts += o.puts;
        self.put_fresh += o.put_fresh;
        self.removes += o.removes;
        self.remove_hits += o.remove_hits;
        self.batch_fresh += o.batch_fresh;
        self.batch_removed += o.batch_removed;
    }
}

#[derive(Clone, Copy, PartialEq)]
pub enum Mode {
    /// Latency of one op in [`SAMPLE_STRIDE`] goes into the histograms.
    Sampled,
    /// Every call is wrapped in spans.
    Traced,
}

/// One thread's share of one window.
pub struct Slot {
    pub begin: Instant,
    pub end: Instant,
    pub counts: Counts,
    pub lat: [Hist; CLASSES],
    pub spans: Option<SpanLog>,
}

impl Slot {
    pub fn seconds(&self) -> f64 {
        (self.end - self.begin).as_secs_f64()
    }
}

pub struct ThreadResult {
    pub slots: Vec<Slot>,
    /// Ops executed, counted apart from the slots: no op may fall between windows.
    pub executed: u64,
    pub violation_count: u64,
    pub violations: Vec<String>,
}

struct Untimed;
impl Probe for Untimed {
    #[inline(always)]
    fn call_begin(&mut self) {}
    #[inline(always)]
    fn call_end(&mut self, _: usize) {}
    #[inline(always)]
    fn quiesce_begin(&mut self) {}
    #[inline(always)]
    fn quiesce_end(&mut self, _: u64) {}
}

struct Sample<'a> {
    lat: &'a mut [Hist; CLASSES],
    t: Instant,
}
impl Probe for Sample<'_> {
    #[inline(always)]
    fn call_begin(&mut self) {
        self.t = Instant::now();
    }
    #[inline(always)]
    fn call_end(&mut self, class: usize) {
        self.lat[class].record(self.t.elapsed().as_nanos() as u64);
    }
    #[inline(always)]
    fn quiesce_begin(&mut self) {}
    #[inline(always)]
    fn quiesce_end(&mut self, _: u64) {}
}

struct Worker<'a, S> {
    store: &'a S,
    oracle: &'a Oracle,
    key_range: u64,
    violation_count: u64,
    violations: Vec<String>,
}

impl<S: Store> Worker<'_, S> {
    #[cold]
    fn violation(&mut self, what: std::fmt::Arguments) {
        self.violation_count += 1;
        if self.violations.len() < KEEP_VIOLATIONS {
            self.violations.push(what.to_string());
        }
    }

    #[inline(always)]
    fn check_hit(&mut self, call: &str, key: Key, got: Val) {
        let want = key ^ self.oracle.xor;
        if got != want {
            self.violation(format_args!(
                "{call}({key}) returned {got:#x}, want {want:#x}"
            ));
        }
    }

    /// Runs one op: the call (between the probe's hooks), the oracle's
    /// check of the reply (outside them), then the quiescence announcement.
    #[inline(always)]
    fn step<P: Probe>(&mut self, op: u64, c: &mut Counts, p: &mut P) {
        let (kind, key) = stream::unpack(op);
        c.ops += 1;
        match kind {
            stream::GET => {
                p.call_begin();
                let r = self.store.get(key);
                p.call_end(GET_CLASS);
                c.gets += 1;
                if let Some(v) = r {
                    c.get_hits += 1;
                    self.check_hit("get", key, v);
                }
            }
            stream::PUT => {
                p.call_begin();
                let r = self.store.put(key, key ^ VAL_XOR);
                p.call_end(WRITE_CLASS);
                c.puts += 1;
                match r {
                    None => c.put_fresh += 1,
                    Some(v) => self.check_hit("put", key, v),
                }
            }
            stream::REMOVE => {
                p.call_begin();
                let r = self.store.remove(key);
                p.call_end(WRITE_CLASS);
                c.removes += 1;
                if let Some(v) = r {
                    c.remove_hits += 1;
                    self.check_hit("remove", key, v);
                }
            }
            stream::RANGE_SCAN => {
                let hi = key + RANGE_SPAN;
                p.call_begin();
                let r = self.store.range_scan(key, hi);
                p.call_end(MULTI_CLASS);
                let mut floor = key;
                for &(k, v) in &r {
                    if k < floor || k > hi {
                        self.violation(format_args!(
                            "range_scan({key}, {hi}) returned key {k} out of order or out of range"
                        ));
                    }
                    floor = k + 1;
                    self.check_hit("range_scan", k, v);
                }
            }
            _ => {
                let keys: [Key; BATCH] =
                    std::array::from_fn(|j| stream::batch_key(key, j, self.key_range));
                let entries: [(Key, Val); BATCH] = keys.map(|k| (k, k ^ VAL_XOR));
                p.call_begin();
                let r = match kind {
                    stream::MULTI_GET => self.store.multi_get(&keys),
                    stream::MULTI_PUT => self.store.multi_put(&entries),
                    _ => self.store.multi_remove(&keys),
                };
                p.call_end(MULTI_CLASS);
                if r.len() != BATCH {
                    self.violation(format_args!(
                        "{} of {BATCH} keys answered with {} values",
                        stream::KIND_NAMES[kind as usize],
                        r.len()
                    ));
                }
                // Replies are positional: the j-th value belongs to the j-th key.
                for (&k, v) in keys.iter().zip(&r) {
                    match (kind, v) {
                        (stream::MULTI_PUT, None) => c.batch_fresh += 1,
                        (stream::MULTI_REMOVE, Some(_)) => c.batch_removed += 1,
                        _ => {}
                    }
                    if let Some(v) = *v {
                        self.check_hit(stream::KIND_NAMES[kind as usize], k, v);
                    }
                }
            }
        }
        p.quiesce_begin();
        reclaim::quiescent();
        p.quiesce_end(op);
    }
}

/// Runs `threads` workers over `store` through the windows of `plan`
/// (index 0 is the warm-up). Threads are spawned once; the coordinator
/// publishes the current window and each worker files its counts and
/// samples under the window it observes, so windows are cut in flight.
///
/// `at_window(i)` runs on the coordinator as window `i` begins, and once
/// more with `plan.len()` when the last one ends.
pub fn run<S: Store>(
    store: &S,
    streams: &[Vec<u64>],
    key_range: u64,
    oracle: &Oracle,
    plan: &[(Mode, Duration)],
    mut at_window: impl FnMut(usize),
) -> Vec<ThreadResult> {
    let stop = plan.len();
    let current = AtomicUsize::new(0);
    let ready = Barrier::new(streams.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                let (current, ready) = (&current, &ready);
                scope.spawn(move || {
                    let mut w = Worker {
                        store,
                        oracle,
                        key_range,
                        violation_count: 0,
                        violations: Vec::new(),
                    };
                    let mask = stream.len() - 1;
                    let mut slots = Vec::with_capacity(plan.len());
                    let mut i = 0usize;
                    ready.wait();
                    loop {
                        let window = current.load(Ordering::Relaxed);
                        if window == stop {
                            break;
                        }
                        let mut counts = Counts::default();
                        let mut lat: [Hist; CLASSES] = Default::default();
                        let mut spans = (plan[window].0 == Mode::Traced).then(SpanLog::new);
                        let begin = Instant::now();
                        match &mut spans {
                            Some(log) => {
                                while current.load(Ordering::Relaxed) == window {
                                    w.step(stream[i & mask], &mut counts, log);
                                    i += 1;
                                }
                            }
                            None => {
                                while current.load(Ordering::Relaxed) == window {
                                    let op = stream[i & mask];
                                    if i.is_multiple_of(SAMPLE_STRIDE) {
                                        let mut probe = Sample {
                                            lat: &mut lat,
                                            t: begin,
                                        };
                                        w.step(op, &mut counts, &mut probe);
                                    } else {
                                        w.step(op, &mut counts, &mut Untimed);
                                    }
                                    i += 1;
                                }
                            }
                        }
                        slots.push(Slot {
                            begin,
                            end: Instant::now(),
                            counts,
                            lat,
                            spans,
                        });
                    }
                    ThreadResult {
                        slots,
                        executed: i as u64,
                        violation_count: w.violation_count,
                        violations: w.violations,
                    }
                })
            })
            .collect();
        // The coordinator filled the store, so it may be registered with the
        // QSBR domain; it announces no quiescence while it sleeps, and would
        // hold every retired node in limbo unless it went offline.
        reclaim::offline_while(|| {
            ready.wait();
            for (window, &(_, dur)) in plan.iter().enumerate() {
                current.store(window, Ordering::Relaxed);
                at_window(window);
                std::thread::sleep(dur);
            }
            at_window(stop);
            current.store(stop, Ordering::Relaxed);
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        })
    })
}

/// Every thread's op stream.
pub fn streams(w: &Workload, seed: u64, threads: usize) -> Vec<Vec<u64>> {
    (0..threads).map(|t| stream::generate(w, seed, t)).collect()
}

/// Builds the workload's store and fills it.
pub fn build<S: Store>(w: &Workload, seed: u64, make: impl Fn(usize, u64) -> S) -> S {
    let shards = match w.backend {
        Backend::Hash { shards } | Backend::Ordered { shards } => shards,
    };
    let store = make(shards, w.key_range());
    fill(w.entries, w.key_range(), seed, |k, v| store.put(k, v));
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::WORKLOADS;

    fn short_run<S: Store>(
        w: &Workload,
        make: impl Fn(usize, u64) -> S,
        oracle: &Oracle,
        plan: &[(Mode, Duration)],
    ) -> (Vec<ThreadResult>, i64) {
        let store = build(w, 5, make);
        let r = run(
            &store,
            &streams(w, 5, 2),
            w.key_range(),
            oracle,
            plan,
            |_| {},
        );
        (r, store.len() as i64)
    }

    const PLAN: [(Mode, Duration); 4] = [
        (Mode::Sampled, Duration::from_millis(30)),
        (Mode::Sampled, Duration::from_millis(60)),
        (Mode::Traced, Duration::from_millis(60)),
        (Mode::Sampled, Duration::from_millis(60)),
    ];

    #[test]
    fn window_cutting_loses_no_op_and_the_audit_is_exact() {
        // The two small workloads: one per store type.
        let oracle = Oracle { xor: VAL_XOR };
        let runs = [
            (
                &WORKLOADS[2],
                short_run(&WORKLOADS[2], hash_store, &oracle, &PLAN),
            ),
            (
                &WORKLOADS[3],
                short_run(&WORKLOADS[3], ordered_store, &oracle, &PLAN),
            ),
        ];
        for (w, (threads, len)) in runs {
            let mut all = Counts::default();
            for t in &threads {
                assert_eq!(t.slots.len(), PLAN.len());
                let filed: u64 = t.slots.iter().map(|s| s.counts.ops).sum();
                assert_eq!(filed, t.executed, "{}: ops filed vs executed", w.name);
                assert_eq!(t.violation_count, 0, "{:?}", t.violations);
                assert!(t.slots[2].spans.is_some() && t.slots[1].spans.is_none());
                t.slots.iter().for_each(|s| all.add(&s.counts));
            }
            assert!(all.ops > 0);
            let want = w.entries as i64 + (all.put_fresh + all.batch_fresh) as i64
                - (all.remove_hits + all.batch_removed) as i64;
            assert_eq!(len, want, "{}: conservation", w.name);
        }
    }

    #[test]
    fn a_wrong_oracle_constant_is_caught() {
        let wrong = Oracle { xor: VAL_XOR ^ 1 };
        let (threads, _) = short_run(&WORKLOADS[2], hash_store, &wrong, &PLAN[..2]);
        assert!(threads.iter().map(|t| t.violation_count).sum::<u64>() > 0);
        assert!(!threads[0].violations.is_empty());
    }
}
