//! The per-layer price ladder: single-threaded rungs that drive the same
//! key streams through each layer in turn, so that the difference between
//! two rungs is the price of the layer between them.
//!
//! Hash rungs replay R (zipf 0.99 gets over a 2^20-entry fill, see
//! `stream::LADDER_READ`) and W (the puts and removes of
//! `write_heavy_uniform`, in stream order); ordered rungs replay the gets
//! and the puts/removes of `ordered_scan_mixed`. Rungs run round-robin in
//! [`PASSES`] passes and report the median pass, so slow drift of the
//! machine hits neighbouring rungs alike. Write rungs announce quiescence
//! after every op, as the workloads do.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use optik::{OptikLock, OptikTicket, OptikVersioned};
use optik_hashtables::{StripedHashTable, StripedOptikHashTable};
use optik_kv::{ConcurrentMap, FakeClock, KvStore, OrderedMap};
use optik_skiplists::OptikSkipList2;
use reclaim::NodePool;
use synchro::{RawLock, TtasLock};

use crate::driver::{fill, hash_store, ordered_store, STRIPES};
use crate::metrics::Value;
use crate::stream::{self, Key, Val, Workload, BATCH, RANGE_SPAN, VAL_XOR, WORKLOADS};

const PASSES: usize = 3;
/// Ops between two looks at the clock.
const CHUNK: usize = 4096;
/// Keys given a deadline per `kv.ttl` cycle before the sweep takes them all.
const TTL_CYCLE: usize = 1 << 15;
/// Keys the rebalance rung moves across a partition boundary and back.
const SHIFT_SPAN: u64 = 4096;

struct Rung<'a> {
    names: Vec<&'static str>,
    /// Runs for about the given time; one value per name.
    run: Box<dyn FnMut(Duration) -> Vec<f64> + 'a>,
}

/// Calls `chunk` (which performs and returns a number of ops) until
/// `budget` is spent; nanoseconds per op.
fn ns_per_op(budget: Duration, mut chunk: impl FnMut() -> usize) -> f64 {
    let t = Instant::now();
    let mut ops = 0;
    loop {
        ops += chunk();
        let spent = t.elapsed();
        if spent >= budget {
            return spent.as_nanos() as f64 / ops as f64;
        }
    }
}

/// A rung of one metric: nanoseconds per op of `chunk`.
fn rung<'a>(name: &'static str, mut chunk: impl FnMut() -> usize + 'a) -> Rung<'a> {
    Rung {
        names: vec![name],
        run: Box::new(move |budget| vec![ns_per_op(budget, &mut chunk)]),
    }
}

/// A chunk of `CHUNK` calls of `op`.
fn times(mut op: impl FnMut()) -> impl FnMut() -> usize {
    move || {
        for _ in 0..CHUNK {
            op();
        }
        CHUNK
    }
}

/// A cursor over a cyclic input.
struct Cycle<'a, T> {
    items: &'a [T],
    at: usize,
}

impl<'a, T> Cycle<'a, T> {
    fn new(items: &'a [T]) -> Self {
        assert!(items.len() >= CHUNK);
        Cycle { items, at: 0 }
    }

    fn next(&mut self, n: usize) -> &'a [T] {
        if self.at + n > self.items.len() {
            self.at = 0;
        }
        self.at += n;
        &self.items[self.at - n..self.at]
    }
}

fn get_rung<'a>(name: &'static str, keys: &'a [Key], map: &'a impl ConcurrentMap) -> Rung<'a> {
    let mut keys = Cycle::new(keys);
    rung(name, move || {
        for &k in keys.next(CHUNK) {
            black_box(map.get(k));
        }
        CHUNK
    })
}

/// Replays `CHUNK` puts and removes, quiescing after each as the workloads do.
fn replay_writes(map: &impl ConcurrentMap, ops: &mut Cycle<u64>) -> usize {
    for &op in ops.next(CHUNK) {
        let (kind, k) = stream::unpack(op);
        if kind == stream::PUT {
            black_box(map.put(k, k ^ VAL_XOR));
        } else {
            black_box(map.remove(k));
        }
        reclaim::quiescent();
    }
    CHUNK
}

fn write_rung<'a>(name: &'static str, ops: &'a [u64], map: &'a impl ConcurrentMap) -> Rung<'a> {
    let mut ops = Cycle::new(ops);
    rung(name, move || replay_writes(map, &mut ops))
}

fn lock_rung<'a, L: OptikLock + 'a>(name: &'static str) -> Rung<'a> {
    let lock = L::default();
    rung(
        name,
        times(move || {
            let v = lock.get_version();
            assert!(black_box(lock.try_lock_version(v)));
            lock.unlock();
        }),
    )
}

/// Node of the pool rung: the size of a hash-chain node.
#[derive(Default)]
struct PoolNode {
    _key: AtomicU64,
    _val: AtomicU64,
    _next: AtomicU64,
}

/// `map` with the fill of workload `w`.
fn filled<M: ConcurrentMap>(map: M, w: &Workload, seed: u64) -> M {
    fill(w.entries, w.key_range(), seed, |k, v| map.put(k, v));
    map
}

/// The keys of the stream's ops of one kind.
fn keys_of(ops: &[u64], kind: u64) -> Vec<Key> {
    let keys = ops.iter().map(|&op| stream::unpack(op));
    keys.filter(|&(k, _)| k == kind).map(|(_, k)| k).collect()
}

/// The stream's single-key puts and removes, in order.
fn writes_of(ops: Vec<u64>) -> Vec<u64> {
    let is_write = |op: &u64| matches!(stream::unpack(*op).0, stream::PUT | stream::REMOVE);
    ops.into_iter().filter(is_write).collect()
}

/// Runs every rung for about `budget` in total and returns each measured
/// metric as the median of its passes, then the derived prices.
pub fn run(seed: u64, threads: usize, budget: Duration) -> Vec<(String, Value)> {
    let ([_, write_w, _, ordered_w], read_w) = (&WORKLOADS, &stream::LADDER_READ);
    let r_keys = keys_of(&stream::generate(read_w, seed, 0), stream::GET);
    let w_ops = writes_of(stream::generate(write_w, seed, 0));
    let (w_puts, w_removes) = (
        keys_of(&w_ops, stream::PUT),
        keys_of(&w_ops, stream::REMOVE),
    );
    let o_stream = stream::generate(ordered_w, seed, 0);
    let o_keys = keys_of(&o_stream, stream::GET);
    let o_ops = writes_of(o_stream);

    // One store per (layer, stream): every rung finds the fill its stream
    // was made for. A raw table has as many buckets and stripes as a store
    // has over all its shards.
    let (r_range, w_range) = (read_w.key_range(), write_w.key_range());
    let optik_r = filled(
        StripedOptikHashTable::new(r_range as usize, STRIPES),
        read_w,
        seed,
    );
    let optik_w = filled(
        StripedOptikHashTable::new(w_range as usize, STRIPES),
        write_w,
        seed,
    );
    let striped_r = filled(
        StripedHashTable::new(r_range as usize, STRIPES),
        read_w,
        seed,
    );
    let striped_w = filled(
        StripedHashTable::new(w_range as usize, STRIPES),
        write_w,
        seed,
    );
    let kv = |shards: usize, w: &Workload| filled(hash_store(shards, w.key_range()), w, seed);
    let (s1_r, s1_w) = (kv(1, read_w), kv(1, write_w));
    let (s8_r, s8_w, s8_stalled) = (kv(8, read_w), kv(8, write_w), kv(8, write_w));
    let clock = Arc::new(FakeClock::new());
    let ttl = |range: u64| {
        let make = |_| StripedOptikHashTable::new(range as usize / 8, STRIPES / 8);
        KvStore::with_shards_ttl(8, clock.clone(), make)
    };
    let (ttl_r, ttl_w) = (filled(ttl(r_range), read_w, seed), ttl(w_range));
    let skip = filled(OptikSkipList2::new(), ordered_w, seed);
    let ordered = filled(ordered_store(8, ordered_w.key_range()), ordered_w, seed);

    let versioned = OptikVersioned::default();
    let contended = OptikVersioned::default();
    let ttas = TtasLock::new();
    let pool: Arc<NodePool<PoolNode>> = NodePool::new();
    let (mut r8, mut o8) = (Cycle::new(&r_keys), Cycle::new(&o_keys));
    let (mut o_lo, mut o_lo_kv) = (Cycle::new(&o_keys), Cycle::new(&o_keys));
    let (mut batch_puts, mut batch_removes) = (Cycle::new(&w_puts), Cycle::new(&w_removes));
    let mut ttl_puts = Cycle::new(&w_puts);
    let mut stalled_ops = Cycle::new(&w_ops);
    let bounds = ordered.partition_bounds();
    let bound0 = bounds.expect("ordered store is range-sharded")[0];

    let mut rungs: Vec<Rung> = vec![
        rung(
            "driver.timer_overhead_ns",
            times(|| {
                black_box(Instant::now().elapsed());
            }),
        ),
        rung(
            "core.versioned.validate_ns",
            times(|| {
                let v = black_box(&versioned).get_version();
                assert!(black_box(versioned.validate(v)));
            }),
        ),
        lock_rung::<OptikVersioned>("core.versioned.lock_unlock_ns"),
        lock_rung::<OptikTicket>("core.ticket.lock_unlock_ns"),
        Rung {
            names: vec![
                "core.versioned.contended_lock_ns",
                "core.versioned.trylock_success_share",
            ],
            run: Box::new(|budget| {
                // `threads` threads meet on one lock word, as the writers of
                // `hot_shard_writes` do on their shard's. Wall time per
                // acquisition, and the share of validated attempts that won.
                let stop = AtomicBool::new(false);
                let t = Instant::now();
                let (mut locked, mut tried) = (0u64, 0u64);
                std::thread::scope(|scope| {
                    let contend = || {
                        let (mut locked, mut tried) = (0u64, 0u64);
                        while !stop.load(Ordering::Relaxed) {
                            let v = contended.get_version_wait();
                            tried += 1;
                            if contended.try_lock_version(v) {
                                locked += 1;
                                contended.unlock();
                            }
                        }
                        (locked, tried)
                    };
                    let handles: Vec<_> = (0..threads).map(|_| scope.spawn(contend)).collect();
                    std::thread::sleep(budget);
                    stop.store(true, Ordering::Relaxed);
                    for h in handles {
                        let (l, n) = h.join().expect("lock thread panicked");
                        locked += l;
                        tried += n;
                    }
                });
                vec![
                    t.elapsed().as_nanos() as f64 / locked as f64,
                    locked as f64 / tried as f64,
                ]
            }),
        },
        rung(
            "synchro.ttas.lock_unlock_ns",
            times(|| {
                black_box(&ttas).lock();
                ttas.unlock();
            }),
        ),
        Rung {
            names: vec![
                "reclaim.pool.alloc_retire_ns",
                "reclaim.pool.magazine_hit_rate",
            ],
            run: Box::new(|budget| {
                let alloc_retire = times(|| {
                    let p = pool.alloc_init(PoolNode::default);
                    // SAFETY: `p` came from this pool just now, was never
                    // published anywhere, and is retired exactly once.
                    reclaim::with_local(|h| unsafe { pool.retire(p, h) });
                    reclaim::quiescent();
                });
                let ns = ns_per_op(budget, alloc_retire);
                vec![ns, pool.stats().magazine_hit_rate()]
            }),
        },
        rung("reclaim.qsbr.quiescent_ns", times(reclaim::quiescent)),
        get_rung("hashtables.striped_optik.get_ns", &r_keys, &optik_r),
        get_rung("hashtables.striped.get_ns", &r_keys, &striped_r),
        get_rung("kv.s1.get_ns", &r_keys, &s1_r),
        get_rung("kv.s8.get_ns", &r_keys, &s8_r),
        get_rung("kv.ttl.get_ns", &r_keys, &ttl_r),
        get_rung("skiplists.optik2.get_ns", &o_keys, &skip),
        get_rung("kv.ordered.get_ns", &o_keys, &ordered),
        write_rung("hashtables.striped_optik.put_remove_ns", &w_ops, &optik_w),
        write_rung("hashtables.striped.put_remove_ns", &w_ops, &striped_w),
        write_rung("kv.s1.put_remove_ns", &w_ops, &s1_w),
        write_rung("kv.s8.put_remove_ns", &w_ops, &s8_w),
        write_rung("skiplists.optik2.put_remove_ns", &o_ops, &skip),
        write_rung("kv.ordered.put_remove_ns", &o_ops, &ordered),
        Rung {
            names: vec!["reclaim.qsbr.stalled_reader_ratio"],
            run: Box::new(|budget| {
                // A thread that registers with the QSBR domain and then never
                // announces quiescence: nothing retired meanwhile can be freed.
                // W's cost with it, then (once it is released) without it.
                let (registered_tx, registered) = mpsc::channel();
                let (release, released) = mpsc::channel::<()>();
                std::thread::scope(|scope| {
                    scope.spawn(move || {
                        reclaim::quiescent();
                        registered_tx.send(()).expect("the rung waits for this");
                        let _ = released.recv();
                    });
                    registered.recv().expect("stalled thread registered");
                    let mut half =
                        || ns_per_op(budget / 2, || replay_writes(&s8_stalled, &mut stalled_ops));
                    let stalled = half();
                    release.send(()).expect("stalled thread waits for this");
                    vec![half() / stalled]
                })
            }),
        },
        Rung {
            names: vec!["kv.ttl.put_ns", "kv.ttl.sweep_per_key_ns"],
            run: Box::new(|budget| {
                // Cycles of: give TTL_CYCLE keys a deadline, let it pass, sweep them all.
                let t = Instant::now();
                let (mut put_ns, mut sweep_ns, mut puts, mut swept) = (0u128, 0u128, 0usize, 0u64);
                while t.elapsed() < budget {
                    let t_put = Instant::now();
                    for &k in ttl_puts.next(TTL_CYCLE) {
                        black_box(ttl_w.put_with_ttl(k, k ^ VAL_XOR, 1));
                        reclaim::quiescent();
                    }
                    put_ns += t_put.elapsed().as_nanos();
                    puts += TTL_CYCLE;
                    clock.advance(2);
                    let t_sweep = Instant::now();
                    loop {
                        let n = ttl_w.sweep_expired(usize::MAX);
                        reclaim::quiescent();
                        swept += n;
                        if n == 0 {
                            break;
                        }
                    }
                    sweep_ns += t_sweep.elapsed().as_nanos();
                }
                vec![put_ns as f64 / puts as f64, sweep_ns as f64 / swept as f64]
            }),
        },
        rung("kv.multi_get8.per_key_ns", || {
            for _ in 0..CHUNK / BATCH {
                black_box(s8_r.multi_get(r8.next(BATCH)));
            }
            CHUNK
        }),
        rung("kv.ordered.multi_get8.per_key_ns", || {
            for _ in 0..CHUNK / BATCH {
                black_box(ordered.multi_get(o8.next(BATCH)));
            }
            CHUNK
        }),
        Rung {
            names: vec!["kv.multi_put8.per_key_ns"],
            run: Box::new(|budget| {
                // Timed multi_puts of W's put keys alternate with untimed
                // multi_removes of W's remove keys, which keep the size steady.
                let t = Instant::now();
                let (mut ns, mut keys) = (0u128, 0usize);
                while t.elapsed() < budget {
                    let t_put = Instant::now();
                    for _ in 0..CHUNK / BATCH {
                        let keys = batch_puts.next(BATCH);
                        let entries: [(Key, Val); BATCH] =
                            std::array::from_fn(|j| (keys[j], keys[j] ^ VAL_XOR));
                        black_box(s8_w.multi_put(&entries));
                        reclaim::quiescent();
                    }
                    ns += t_put.elapsed().as_nanos();
                    keys += CHUNK;
                    for _ in 0..CHUNK / BATCH {
                        black_box(s8_w.multi_remove(batch_removes.next(BATCH)));
                        reclaim::quiescent();
                    }
                }
                vec![ns as f64 / keys as f64]
            }),
        },
        rung("skiplists.optik2.range64_ns", || {
            for &lo in o_lo.next(CHUNK / 8) {
                black_box(skip.range_collect(lo, lo + RANGE_SPAN));
            }
            CHUNK / 8
        }),
        rung("kv.ordered.range_scan64_ns", || {
            for &lo in o_lo_kv.next(CHUNK / 8) {
                black_box(ordered.range_scan(lo, lo + RANGE_SPAN));
            }
            CHUNK / 8
        }),
        rung("kv.scan.per_entry_ns", || {
            let mut entries = 0;
            s8_w.scan(|k, v| entries += (black_box(v) == k ^ VAL_XOR) as usize);
            entries
        }),
        // Donates the top SHIFT_SPAN keys of partition 0 to partition 1 and
        // takes them back: the store ends each cycle as it began.
        rung("kv.rebalance.shift_per_key_ns", || {
            let there = ordered.shift_boundary(0, bound0 - SHIFT_SPAN);
            let back = ordered.shift_boundary(0, bound0);
            reclaim::quiescent();
            (there.expect("legal boundary").moved + back.expect("legal boundary").moved) as usize
        }),
    ];

    let slice = budget / (rungs.len() * PASSES) as u32;
    let mut passes: Vec<Vec<Vec<f64>>> = rungs
        .iter()
        .map(|r| vec![Vec::new(); r.names.len()])
        .collect();
    for _ in 0..PASSES {
        for (rung, passes) in rungs.iter_mut().zip(&mut passes) {
            for (metric, value) in passes.iter_mut().zip((rung.run)(slice)) {
                metric.push(value);
            }
        }
    }
    let mut out: Vec<(String, Value)> = Vec::new();
    for (rung, passes) in rungs.iter().zip(passes) {
        for (&name, values) in rung.names.iter().zip(passes) {
            out.push((name.into(), Value::median_of(values, PASSES as u64)));
        }
    }
    for (name, upper, lower) in [
        (
            "kv.shard.get_added_ns",
            "kv.s1.get_ns",
            "hashtables.striped_optik.get_ns",
        ),
        (
            "kv.shard.write_added_ns",
            "kv.s1.put_remove_ns",
            "hashtables.striped_optik.put_remove_ns",
        ),
        ("kv.routing.get_added_ns", "kv.s8.get_ns", "kv.s1.get_ns"),
        ("kv.ttl.get_added_ns", "kv.ttl.get_ns", "kv.s8.get_ns"),
        (
            "kv.range_policy.get_added_ns",
            "kv.ordered.get_ns",
            "skiplists.optik2.get_ns",
        ),
    ] {
        let of = |name: &str| {
            out.iter()
                .find(|(n, _)| n == name)
                .expect("rung measured")
                .1
                .value
        };
        let price = of(upper) - of(lower);
        out.push((name.into(), Value::single(price)));
    }
    out
}
