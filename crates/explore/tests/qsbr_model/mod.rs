//! A model of `reclaim`'s global-epoch QSBR over the always-trapping
//! `traced` atomics, shared by `explore_qsbr.rs` (exhaustive families)
//! and `explore_replays.rs` (the pinned schedule).
//!
//! The real `Qsbr` words stay plain atomics — every `quiescent()` inside
//! the kv and pool families would otherwise become a yield point and
//! re-pin every recorded token — so the protocol is checked here, on a
//! transcription small enough to exhaust: one global `epoch`, one `seen`
//! word per slot, and the four operations that touch them (`seal`,
//! `quiescent`, `come_online`, `offline`), line for line as in
//! `crates/reclaim/src/domain.rs`. Traced atomics are `SeqCst`, so the
//! model covers every interleaving of the protocol's steps, not the weak
//! orderings between them: the `SeqCst` fences of `open_grace`/`online`
//! are what make the real code behave like this model at the one place
//! (store `seen`, then read the structure) where it would otherwise
//! differ.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

use optik_explore::traced::{yield_now, TracedU64};
use optik_explore::Trial;

/// `seen` of a slot that is offline or unclaimed.
const OFFLINE: u64 = u64::MAX;

const SLOTS: usize = 3;
/// Contents of the node while allocated / after its memory was reused.
const LIVE: u64 = 7;
const POISON: u64 = 0xDEAD;

struct Domain {
    epoch: TracedU64,
    seen: [TracedU64; SLOTS],
}

/// A sealed batch's grace period.
struct Grace {
    target: u64,
    waiting: Vec<usize>,
}

struct Handle<'a> {
    domain: &'a Domain,
    slot: usize,
    announced: Cell<u64>,
}

impl Domain {
    /// Slots 0 and 1 registered and online at epoch 0, slot 2 unclaimed.
    fn new() -> Self {
        Domain {
            epoch: TracedU64::new(0),
            seen: [
                TracedU64::new(0),
                TracedU64::new(0),
                TracedU64::new(OFFLINE),
            ],
        }
    }

    fn handle(&self, slot: usize, announced: u64) -> Handle<'_> {
        Handle {
            domain: self,
            slot,
            announced: Cell::new(announced),
        }
    }

    /// `Qsbr::open_grace`.
    fn seal(&self) -> Grace {
        let target = self.epoch.fetch_add(1) + 1;
        let waiting = (0..SLOTS)
            .filter(|&i| self.seen[i].load() < target)
            .collect();
        Grace { target, waiting }
    }

    /// `Qsbr::grace_elapsed`.
    fn grace_elapsed(&self, grace: &mut Grace) -> bool {
        let target = grace.target;
        grace.waiting.retain(|&i| self.seen[i].load() < target);
        grace.waiting.is_empty()
    }
}

impl Handle<'_> {
    /// `QsbrHandle::online` (and the tail of `Qsbr::register`).
    fn come_online(&self) {
        let epoch = self.domain.epoch.load();
        self.domain.seen[self.slot].store(epoch);
        self.announced.set(epoch);
    }

    /// `QsbrHandle::quiescent`.
    fn quiescent(&self) {
        let epoch = self.domain.epoch.load();
        if epoch != self.announced.get() && self.announced.get() != OFFLINE {
            self.domain.seen[self.slot].store(epoch);
            self.announced.set(epoch);
        }
    }

    /// `QsbrHandle::offline` (and handle drop).
    fn offline(&self) {
        self.domain.seen[self.slot].store(OFFLINE);
        self.announced.set(OFFLINE);
    }
}

/// How the reader orders its announcement against its last use.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Reader {
    /// Uses the node, then announces: the QSBR contract.
    AnnouncesAfterUse,
    /// Announces between finding the node and using it: the bug the
    /// families must reject.
    AnnouncesBeforeLastUse,
}

/// What one schedule observed.
#[allow(dead_code)] // the replay suite mounts this module and reads no field
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Outcome {
    /// The reader reached the node before it was unlinked.
    pub reader_found: bool,
    /// The thread that came online mid-way reached the node.
    pub late_found: bool,
    /// The seal recorded the late thread's slot.
    pub late_recorded: bool,
}

/// One node, three threads. The reader (online throughout) finds the
/// node through `link` and then uses it; the writer unlinks it, seals,
/// announces, polls the grace period and then reuses the memory; a third
/// thread comes online somewhere in between and runs the same read.
/// Every thread leaves by going offline, as a dropped handle does.
///
/// Panics with "use after free" (`Trial::run` adds the schedule token) if
/// a thread that found the node reads it after the writer reused it.
pub fn run(trial: &Trial, reader: Reader) -> Outcome {
    let domain = Domain::new();
    let link = TracedU64::new(1);
    let node = TracedU64::new(LIVE);
    let (reader_found, late_found, late_recorded) = (
        AtomicBool::new(false),
        AtomicBool::new(false),
        AtomicBool::new(false),
    );

    let find_then_use = |h: &Handle<'_>, reader: Reader| -> bool {
        let found = link.load() == 1;
        if found {
            if reader == Reader::AnnouncesBeforeLastUse {
                h.quiescent();
            }
            assert_eq!(node.load(), LIVE, "use after free");
        }
        h.quiescent();
        found
    };

    trial.run(&[
        &|| {
            let h = domain.handle(0, 0);
            reader_found.store(find_then_use(&h, reader), Relaxed);
            h.offline();
        },
        &|| {
            let h = domain.handle(1, 0);
            link.store(0);
            let mut grace = domain.seal();
            late_recorded.store(grace.waiting.contains(&2), Relaxed);
            h.quiescent();
            while !domain.grace_elapsed(&mut grace) {
                yield_now();
            }
            node.store(POISON);
            h.offline();
        },
        &|| {
            let h = domain.handle(2, OFFLINE);
            h.come_online();
            late_found.store(find_then_use(&h, Reader::AnnouncesAfterUse), Relaxed);
            h.offline();
        },
    ]);
    Outcome {
        reader_found: reader_found.into_inner(),
        late_found: late_found.into_inner(),
        late_recorded: late_recorded.into_inner(),
    }
}
