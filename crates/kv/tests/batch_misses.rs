//! Where a batch takes its misses: which backend lookups the batched calls
//! of a store make, and when.
//!
//! The backends are wrapped in [`Tapped`], which logs every lookup, range
//! walk and write the store asks of a shard and can fire a hook on the
//! first lookup or walk of a chosen shard — a write or a boundary shift
//! landing exactly inside the windows of a `multi_get` or a `range_scan`,
//! or between a batch write's walk and its locks, on the calling thread,
//! without a race to win.
//!
//! The `ReadRepair` / `ReadRetry` / `LockAcquire` / `BatchRewalk` counts
//! come from the probe's process-wide counters, so the two tests take
//! turns on [`COUNTERS`]. Without `--features probe` the counters read
//! zero; the lookup logs and the replies are checked either way.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use optik_hashtables::StripedOptikHashTable;
use optik_kv::{ConcurrentMap, FakeClock, Key, KvStore, OrderedMap, Val};
use optik_probe::{Event, Snapshot};
use optik_skiplists::OptikSkipList2;

/// Held by a test while it reads deltas of the process-wide probe counters.
static COUNTERS: Mutex<()> = Mutex::new(());

/// What the store asked of a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    /// `get`, one probe of a `get_each`, or one key of a `write_each`
    /// walk (logged once the walk is over, before the locks) or descended
    /// to again (logged after the locks, before the applies).
    Probe,
    /// `range`; the logged key is the window's lower end.
    Walk,
    /// `put`, `remove` or their single-writer twins.
    Write,
}

/// One logged backend call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    shard: usize,
    /// Whether the call went to the shard's deadline table.
    deadlines: bool,
    call: Call,
    key: Key,
    /// The process's `LockAcquire` count when the call was made.
    locks: u64,
}

type Hook = Box<dyn FnOnce() + Send>;

/// The log and the hook shared by all of one store's backends.
#[derive(Default)]
struct Tap {
    log: Mutex<Vec<Entry>>,
    /// Fires once, before the first lookup or walk in this shard's data map.
    hook: Mutex<Option<(usize, Hook)>>,
    /// Set while the hook runs and during set-up: what those ask of the
    /// backends is not the call under test.
    muted: AtomicBool,
}

impl Tap {
    fn arm(&self, shard: usize, hook: impl FnOnce() + Send + 'static) {
        *self.hook.lock().unwrap() = Some((shard, Box::new(hook)));
    }

    fn quietly<R>(&self, f: impl FnOnce() -> R) -> R {
        self.muted.store(true, Ordering::Relaxed);
        let out = f();
        self.muted.store(false, Ordering::Relaxed);
        out
    }

    /// The calls logged during `f`, with the probe deltas
    /// `(ReadRepair, ReadRetry, LockAcquire, BatchRewalk)`; `locks` of
    /// each entry is rebased to the start of `f`.
    fn during<R>(&self, f: impl FnOnce() -> R) -> (R, Vec<Entry>, [u64; 4]) {
        self.log.lock().unwrap().clear();
        let before = Snapshot::take();
        let out = f();
        let d = Snapshot::take().delta_since(&before);
        let base = before.get(Event::LockAcquire);
        let log = std::mem::take(&mut *self.log.lock().unwrap())
            .into_iter()
            .map(|e| Entry {
                locks: e.locks - base,
                ..e
            })
            .collect();
        let counts = [
            Event::ReadRepair,
            Event::ReadRetry,
            Event::LockAcquire,
            Event::BatchRewalk,
        ]
        .map(|e| d.get(e));
        (out, log, counts)
    }
}

/// A backend that reports to a [`Tap`] before it forwards.
struct Tapped<B> {
    inner: B,
    shard: usize,
    deadlines: bool,
    tap: Arc<Tap>,
}

impl<B> Tapped<B> {
    fn note(&self, call: Call, key: Key) {
        if self.tap.muted.load(Ordering::Relaxed) {
            return;
        }
        if call != Call::Write && !self.deadlines {
            let mut armed = self.tap.hook.lock().unwrap();
            if armed
                .as_ref()
                .is_some_and(|&(shard, _)| shard == self.shard)
            {
                let (_, hook) = armed.take().expect("checked above");
                drop(armed);
                self.tap.quietly(hook);
            }
        }
        self.tap.log.lock().unwrap().push(Entry {
            shard: self.shard,
            deadlines: self.deadlines,
            call,
            key,
            locks: Snapshot::take().get(Event::LockAcquire),
        });
    }
}

impl<B: ConcurrentMap> ConcurrentMap for Tapped<B> {
    fn get(&self, key: Key) -> Option<Val> {
        self.note(Call::Probe, key);
        self.inner.get(key)
    }
    fn get_each(probes: &[(&Self, Key)], out: &mut [Option<Val>]) {
        for &(map, key) in probes {
            map.note(Call::Probe, key);
        }
        let inner: Vec<(&B, Key)> = probes.iter().map(|&(map, key)| (&map.inner, key)).collect();
        B::get_each(&inner, out);
    }
    fn put(&self, key: Key, val: Val) -> Option<Val> {
        self.note(Call::Write, key);
        self.inner.put(key, val)
    }
    fn remove(&self, key: Key) -> Option<Val> {
        self.note(Call::Write, key);
        self.inner.remove(key)
    }
    unsafe fn put_exclusive(&self, key: Key, val: Val) -> Option<Val> {
        self.note(Call::Write, key);
        // SAFETY: the caller's contract, forwarded.
        unsafe { self.inner.put_exclusive(key, val) }
    }
    unsafe fn remove_exclusive(&self, key: Key) -> Option<Val> {
        self.note(Call::Write, key);
        // SAFETY: the caller's contract, forwarded.
        unsafe { self.inner.remove_exclusive(key) }
    }
    /// Forwards the batch, logging inside its `exclude`: a backend that
    /// walked (it hands over one flag per op) has finished the walk and
    /// taken no lock yet, so the walk is logged — which fires an armed
    /// hook — then the caller excludes, then every op is logged as it is
    /// about to be applied, preceded by a second lookup where its map was
    /// stale.
    unsafe fn write_each(
        ops: &[(&Self, Key, Option<Val>)],
        out: &mut [Option<Val>],
        exclude: &mut dyn FnMut(&mut [bool]) -> bool,
    ) -> bool {
        let inner: Vec<(&B, Key, Option<Val>)> =
            ops.iter().map(|&(map, k, v)| (&map.inner, k, v)).collect();
        let mut forwarded = |fresh: &mut [bool]| {
            if !fresh.is_empty() {
                for &(map, key, _) in ops {
                    map.note(Call::Probe, key);
                }
            }
            if !exclude(fresh) {
                return false;
            }
            for (i, &(map, key, _)) in ops.iter().enumerate() {
                if fresh.get(i) == Some(&false) {
                    map.note(Call::Probe, key);
                }
                map.note(Call::Write, key);
            }
            true
        };
        // SAFETY: the caller's contract, forwarded.
        unsafe { B::write_each(&inner, out, &mut forwarded) }
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn for_each(&self, f: &mut dyn FnMut(Key, Val)) {
        self.inner.for_each(f);
    }
}

impl<B: OrderedMap> OrderedMap for Tapped<B> {
    fn range(&self, lo: Key, hi: Key, f: &mut dyn FnMut(Key, Val)) {
        self.note(Call::Walk, lo);
        self.inner.range(lo, hi, f);
    }
}

/// A `make` closure for the store constructors: the first backend built
/// for a shard is its data map, the second its deadline table.
fn tapped<B>(tap: &Arc<Tap>, mut make: impl FnMut() -> B) -> impl FnMut(usize) -> Tapped<B> {
    let tap = Arc::clone(tap);
    let mut built = Vec::new();
    move |shard| {
        let deadlines = built.contains(&shard);
        built.push(shard);
        Tapped {
            inner: make(),
            shard,
            deadlines,
            tap: Arc::clone(&tap),
        }
    }
}

/// Asserts a probe counter when the hooks are live.
fn assert_count(got: u64, want: u64, what: &str) {
    if optik_probe::enabled() {
        assert_eq!(got, want, "{what}");
    } else {
        assert_eq!(got, 0, "{what}: hooks are compiled out");
    }
}

/// The `(shard, key)` of the logged lookups in `table`, in order.
fn probes(log: &[Entry], deadlines: bool) -> Vec<(usize, Key)> {
    log.iter()
        .filter(|e| e.call == Call::Probe && e.deadlines == deadlines)
        .map(|e| (e.shard, e.key))
        .collect()
}

/// The shards whose data maps were range-walked, in order.
fn walks(log: &[Entry]) -> Vec<usize> {
    log.iter()
        .filter(|e| e.call == Call::Walk && !e.deadlines)
        .map(|e| e.shard)
        .collect()
}

/// Four partitions of a hundred keys; two keys of each, in no order.
const KEYS: [Key; 8] = [350, 50, 250, 150, 260, 60, 360, 160];
/// [`KEYS`] as the grouped plan probes them: by shard, then by key.
const PLANNED: [(usize, Key); 8] = [
    (0, 50),
    (0, 60),
    (1, 150),
    (1, 160),
    (2, 250),
    (2, 260),
    (3, 350),
    (3, 360),
];

type Ordered = KvStore<Tapped<OptikSkipList2>>;

/// What [`filled`] puts into a store.
fn fill() -> impl Iterator<Item = (Key, Val)> {
    (10..=400).step_by(10).map(|k| (k, k * 10))
}

fn filled<B: ConcurrentMap>(store: KvStore<B>, tap: &Tap) -> Arc<KvStore<B>> {
    tap.quietly(|| {
        for (k, v) in fill() {
            store.put(k, v);
        }
    });
    Arc::new(store)
}

fn ordered_store(tap: &Arc<Tap>) -> Arc<Ordered> {
    let make = tapped(tap, OptikSkipList2::new);
    filled(KvStore::with_ordered_shards(4, 400, make), tap)
}

#[test]
fn batched_calls_take_their_misses_overlapped_and_before_the_locks() {
    let _turn = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let want = |patch: &[(Key, Option<Val>)]| -> Vec<Option<Val>> {
        KEYS.iter()
            .map(|&k| {
                patch
                    .iter()
                    .find(|&&(p, _)| p == k)
                    .map_or(Some(k * 10), |&(_, v)| v)
            })
            .collect()
    };

    // (a) A write to one shard inside a `multi_get`'s windows: that
    // shard's keys are looked up again, nobody else's, and the reply is
    // the snapshot after the write.
    let tap = Arc::new(Tap::default());
    let store = ordered_store(&tap);
    assert!(!store.backend(0).deadlines, "`backend` is the data map");
    let (got, log, counts) = tap.during(|| store.multi_get(&KEYS));
    assert_eq!(got, want(&[]));
    assert_eq!(
        probes(&log, false),
        PLANNED,
        "undisturbed: one lookup per key"
    );
    assert_eq!(counts, [0; 4], "undisturbed: no repair, no retry, no lock");
    let writer = Arc::clone(&store);
    tap.arm(2, move || {
        writer.put(250, 7);
    });
    let (got, log, [repairs, retries, _, _]) = tap.during(|| store.multi_get(&KEYS));
    assert_eq!(got, want(&[(250, Some(7))]), "the snapshot after the write");
    let mut expect = PLANNED.to_vec();
    expect.extend([(2, 250), (2, 260)]);
    assert_eq!(
        probes(&log, false),
        expect,
        "shard 2 again, and only shard 2"
    );
    assert_count(repairs, 1, "one shard repaired");
    assert_eq!(retries, 0, "no full retry");

    // (b) A TTL store samples one clock for the whole batch, inside every
    // window: one broken window breaks them all.
    let tap = Arc::new(Tap::default());
    let clock = Arc::new(FakeClock::new());
    let make = tapped(&tap, OptikSkipList2::new);
    let store = filled(
        KvStore::with_ordered_shards_ttl(4, 400, clock.clone(), make),
        &tap,
    );
    assert!(!store.backend(0).deadlines, "`backend` is the data map");
    tap.quietly(|| store.put_with_ttl(150, 1, 5));
    clock.advance(5);
    let writer = Arc::clone(&store);
    tap.arm(2, move || {
        writer.put(250, 7);
    });
    let (got, log, [repairs, retries, _, _]) = tap.during(|| store.multi_get(&KEYS));
    assert_eq!(got, want(&[(250, Some(7)), (150, None)]));
    let twice = [PLANNED, PLANNED].concat();
    assert_eq!(probes(&log, false), twice, "every value again");
    assert_eq!(probes(&log, true), twice, "and every deadline");
    assert_count(repairs, 4, "all four windows re-opened");
    assert_eq!(retries, 0, "inside the repair loop, not around it");

    // (c) A boundary shift inside the windows invalidates the plan, not a
    // window: the full retry, re-routed (key 60 now lives in shard 1).
    let tap = Arc::new(Tap::default());
    let store = ordered_store(&tap);
    let mover = Arc::clone(&store);
    tap.arm(2, move || {
        let moved = mover.shift_boundary(0, 55).expect("legal shift").moved;
        assert_eq!(moved, 5, "keys 60..=100");
    });
    let (got, log, [repairs, retries, _, _]) = tap.during(|| store.multi_get(&KEYS));
    assert_eq!(got, want(&[]));
    let mut expect = PLANNED.to_vec();
    expect.extend(PLANNED.map(|(s, k)| (if k == 60 { 1 } else { s }, k)));
    assert_eq!(probes(&log, false), expect);
    assert_eq!(
        repairs, 0,
        "nothing to repair in a plan that no longer routes"
    );
    assert_count(retries, 1, "one full retry");

    // (d) Batch writers on a key-ordered store walk to every key once, in
    // plan order, with no lock held; then come all four shard locks, then
    // the applies, with no second descent.
    let tap = Arc::new(Tap::default());
    let store = ordered_store(&tap);
    let entries = KEYS.map(|k| (k, k + 1));
    let walk_then_apply = |log: &[Entry], what: &str| {
        let (walk, apply) = log.split_at(KEYS.len());
        let routed = |e: &Entry| (e.shard, e.key);
        assert_eq!(
            walk.iter().map(routed).collect::<Vec<_>>(),
            PLANNED,
            "{what}"
        );
        assert_eq!(
            apply.iter().map(routed).collect::<Vec<_>>(),
            PLANNED,
            "{what}"
        );
        assert!(
            walk.iter()
                .all(|e| e.call == Call::Probe && !e.deadlines && e.locks == 0),
            "{what}: a lock before the walk ended: {log:?}"
        );
        assert!(
            apply.iter().all(|e| e.call == Call::Write && !e.deadlines),
            "{what}: {log:?}"
        );
        // All four shard locks before the first apply (the skip list's
        // own node locks come after it).
        for e in apply {
            assert_count(e.locks, 4, what);
        }
    };
    let (prevs, log, counts) = tap.during(|| store.multi_put(&entries));
    assert_eq!(prevs, want(&[]));
    walk_then_apply(&log, "multi_put");
    assert_eq!(counts[3], 0, "undisturbed: no walk thrown away");
    let (gone, log, _) = tap.during(|| store.multi_remove(&KEYS));
    assert_eq!(gone, KEYS.map(|k| Some(k + 1)));
    walk_then_apply(&log, "multi_remove");
    // A miss is walked all the same: the walk does not know.
    let (gone, log, _) = tap.during(|| store.multi_remove(&KEYS));
    assert!(gone.iter().all(Option::is_none));
    walk_then_apply(&log, "multi_remove of absent keys");

    // (e) A write into shard 2 between the walk and the locks moves that
    // shard's version, so exactly shard 2's keys are descended to again
    // under the lock, and the batch lands as it would after the write.
    // The write links 257 between where the walk left the batch's 255 and
    // 265, so a batch that kept that walk would unlink it again.
    let tap = Arc::new(Tap::default());
    let store = ordered_store(&tap);
    let fresh_keys = KEYS.map(|k| (k + 5, k));
    let writer = Arc::clone(&store);
    tap.arm(2, move || {
        writer.put(257, 7);
    });
    let (prevs, log, [_, _, _, rewalks]) = tap.during(|| store.multi_put(&fresh_keys));
    assert_eq!(prevs, [None; KEYS.len()], "every key was absent");
    let mut expect: Vec<(usize, Key)> = PLANNED.map(|(s, k)| (s, k + 5)).to_vec();
    expect.extend([(2, 255), (2, 265)]);
    assert_eq!(
        probes(&log, false),
        expect,
        "shard 2 again, and only shard 2"
    );
    assert_count(rewalks, 1, "one shard walked again");
    let mut model: Vec<(Key, Val)> = fill().chain(fresh_keys).chain([(257, 7)]).collect();
    model.sort_unstable();
    assert_eq!(store.range_scan(1, 400), model, "the write, then the batch");

    // (f) A boundary shift at the same point moves key 60 to shard 1: the
    // route check under the locks fails, every lock is reverted, and the
    // batch is planned again, re-routed — walk and applies included.
    let tap = Arc::new(Tap::default());
    let store = ordered_store(&tap);
    let mover = Arc::clone(&store);
    tap.arm(2, move || {
        mover.shift_boundary(0, 55).expect("legal shift");
    });
    let (prevs, log, [_, _, _, rewalks]) = tap.during(|| store.multi_put(&entries));
    assert_eq!(prevs, want(&[]));
    let rerouted = PLANNED.map(|(s, k)| (if k == 60 { 1 } else { s }, k));
    let mut replanned = rerouted.to_vec();
    replanned.sort_unstable();
    let mut expect = PLANNED.to_vec();
    expect.extend(&replanned);
    assert_eq!(probes(&log, false), expect, "walked again, re-routed");
    let writes: Vec<(usize, Key)> = log
        .iter()
        .filter(|e| e.call == Call::Write)
        .map(|e| (e.shard, e.key))
        .collect();
    assert_eq!(writes, replanned, "applied once, re-routed");
    assert_eq!(rewalks, 0, "a moved route re-plans; it is no stale shard");
    assert_eq!(store.multi_get(&KEYS), KEYS.map(|k| Some(k + 1)));

    // (g) On a hash-routed store nothing is walked: a hashed backend has
    // no descent to reuse, and the default `write_each` applies the batch
    // through the single-writer pair.
    let tap = Arc::new(Tap::default());
    let make = tapped(&tap, || StripedOptikHashTable::new(64, 8));
    let hashed: KvStore<Tapped<StripedOptikHashTable>> = KvStore::with_shards(4, make);
    let (prevs, log, _) = tap.during(|| hashed.multi_put(&entries));
    assert!(prevs.iter().all(Option::is_none));
    assert!(probes(&log, false).is_empty(), "multi_put walked: {log:?}");
    assert_eq!(log.len(), KEYS.len(), "one write per key: {log:?}");
    let (got, log, _) = tap.during(|| hashed.multi_get(&KEYS));
    assert_eq!(got, KEYS.map(|k| Some(k + 1)));
    let mut planned = KEYS.map(|k| (hashed.shard_of(k), k));
    planned.sort_unstable();
    assert_eq!(probes(&log, false), planned, "by shard, then by key");
    let (gone, log, _) = tap.during(|| hashed.multi_remove(&KEYS));
    assert_eq!(gone, KEYS.map(|k| Some(k + 1)));
    assert!(
        probes(&log, false).is_empty(),
        "multi_remove walked: {log:?}"
    );

    // (h) Case (a) on the hash-routed store: a write into one shard inside
    // a `multi_get`'s windows re-probes that shard's span alone.
    let tap = Arc::new(Tap::default());
    let make = tapped(&tap, || StripedOptikHashTable::new(64, 8));
    let hashed = filled(KvStore::with_shards(4, make), &tap);
    let hit = KEYS[0];
    let shard = hashed.shard_of(hit);
    let writer = Arc::clone(&hashed);
    tap.arm(shard, move || {
        writer.put(hit, 7);
    });
    let (got, log, [repairs, retries, _, _]) = tap.during(|| hashed.multi_get(&KEYS));
    assert_eq!(got, want(&[(hit, Some(7))]), "the snapshot after the write");
    let mut expect = planned.to_vec();
    expect.extend(planned.iter().filter(|&&(s, _)| s == shard));
    assert!(expect.len() < 2 * KEYS.len(), "the keys span shards");
    assert_eq!(
        probes(&log, false),
        expect,
        "shard {shard} again, and only shard {shard}"
    );
    assert_count(repairs, 1, "one shard repaired");
    assert_eq!(retries, 0, "no full retry");
}

/// The same four interferences inside a `range_scan`'s windows: every
/// shard the window touches is walked inside **one** windowed read, so a
/// write into one of them re-walks that shard alone and the reply is one
/// snapshot.
#[test]
fn range_scans_walk_every_shard_inside_one_windowed_read() {
    let _turn = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    // `fill()` with `patch` applied: `Some(v)` rebinds, `None` drops.
    let want = |patch: &[(Key, Option<Val>)]| -> Vec<(Key, Val)> {
        fill()
            .filter_map(|(k, v)| match patch.iter().find(|&&(p, _)| p == k) {
                Some(&(_, patched)) => patched.map(|v| (k, v)),
                None => Some((k, v)),
            })
            .collect()
    };
    // A key of `fill()` that hash-routes to shard 2.
    let in_shard_2 = |store: &Ordered| {
        fill()
            .map(|(k, _)| k)
            .find(|&k| store.shard_of(k) == 2)
            .expect("40 keys over 4 shards")
    };

    // (a) Hash-sharded: the window touches all four shards. A write into
    // shard 2 inside the windows: shard 2 is walked again, nobody else.
    let tap = Arc::new(Tap::default());
    let store = filled(
        KvStore::with_shards(4, tapped(&tap, OptikSkipList2::new)),
        &tap,
    );
    let (got, log, counts) = tap.during(|| store.range_scan(1, 400));
    assert_eq!(got, want(&[]));
    assert_eq!(walks(&log), [0, 1, 2, 3], "undisturbed: one walk per shard");
    assert_eq!(counts, [0; 4], "undisturbed: no repair, no retry, no lock");
    let hit = in_shard_2(&store);
    let writer = Arc::clone(&store);
    tap.arm(2, move || {
        writer.put(hit, 7);
    });
    let (got, log, [repairs, retries, _, _]) = tap.during(|| store.range_scan(1, 400));
    assert_eq!(got, want(&[(hit, Some(7))]), "the snapshot after the write");
    assert_eq!(
        walks(&log),
        [0, 1, 2, 3, 2],
        "shard 2 again, and only shard 2"
    );
    assert_count(repairs, 1, "one shard repaired");
    assert_eq!(retries, 0, "no full retry");

    // (b) A TTL store filters every shard's walk with one clock sample,
    // inside every window: one broken window re-opens them all, and the
    // clock is read again — the entry that expires between the two samples
    // is gone from the reply.
    let tap = Arc::new(Tap::default());
    let clock = Arc::new(FakeClock::new());
    let make = tapped(&tap, OptikSkipList2::new);
    let store = filled(KvStore::with_shards_ttl(4, clock.clone(), make), &tap);
    let hit = in_shard_2(&store);
    let dying = fill().map(|(k, _)| k).find(|&k| k != hit).unwrap();
    tap.quietly(|| store.put_with_ttl(dying, 1, 5));
    let (writer, ticker) = (Arc::clone(&store), Arc::clone(&clock));
    tap.arm(2, move || {
        writer.put(hit, 7);
        ticker.advance(5);
    });
    let (got, log, [repairs, retries, _, _]) = tap.during(|| store.range_scan(1, 400));
    assert_eq!(got, want(&[(hit, Some(7)), (dying, None)]));
    assert_eq!(walks(&log), [0, 1, 2, 3, 0, 1, 2, 3], "every shard again");
    assert_count(repairs, 4, "all four windows re-opened");
    assert_eq!(retries, 0, "inside the repair loop, not around it");

    // (c) A boundary shift inside the windows voids the cover, not a
    // window: the full retry.
    let tap = Arc::new(Tap::default());
    let store = ordered_store(&tap);
    let mover = Arc::clone(&store);
    tap.arm(2, move || {
        mover.shift_boundary(0, 55).expect("legal shift");
    });
    let (got, log, [repairs, retries, _, _]) = tap.during(|| store.range_scan(1, 400));
    assert_eq!(got, want(&[]));
    assert_eq!(walks(&log), [0, 1, 2, 3, 0, 1, 2, 3]);
    assert_eq!(repairs, 0, "nothing to repair under a cover that moved");
    assert_count(retries, 1, "one full retry");

    // (d) A window inside one partition pays for one shard: one walk, one
    // version read and validated (a second window would show as a second
    // walk), no lock.
    let (got, log, counts) = tap.during(|| store.range_scan(110, 190));
    let inside: Vec<(Key, Val)> = want(&[])
        .into_iter()
        .filter(|&(k, _)| (110..=190).contains(&k))
        .collect();
    assert_eq!(got, inside);
    assert_eq!(walks(&log), [1], "exactly one range walk");
    assert_eq!(counts, [0; 4], "no repair, no retry, no lock");
}
