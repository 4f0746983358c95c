//! Per-thread span timelines dumped as Chrome trace-event JSON.
//!
//! Spans ([`SpanKind`]) mark the coarse maintenance operations whose timing
//! shapes tail latency — shard migrations, TTL sweeps, QSBR grace periods —
//! and land in a bounded per-thread ring (oldest overwritten first, so a
//! long run keeps its most recent `RING_CAPACITY` (4096) spans per thread).
//! [`drain_json`] converts everything recorded so far into the Chrome
//! trace-event format (`{"traceEvents": [...]}` with `ph: "X"` complete
//! events), loadable in Perfetto or `about:tracing`.
//!
//! Timestamps are the probe's cycle counter; the dump calibrates
//! cycles-per-microsecond against a wall-clock anchor captured at the first
//! recorded span, so the timeline's µs axis is approximately real time.

/// The coarse maintenance operations worth a timeline entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One rebalance migration batch (copy + boundary flip).
    Migration,
    /// One TTL sweep pass over a shard window.
    TtlSweep,
    /// One QSBR grace period (limbo batch seal to free).
    Grace,
    /// One full rebalancer decision round.
    RebalanceRound,
}

impl SpanKind {
    /// Trace-event `name`.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Migration => "migration",
            SpanKind::TtlSweep => "ttl_sweep",
            SpanKind::Grace => "grace",
            SpanKind::RebalanceRound => "rebalance_round",
        }
    }

    /// Trace-event `cat` (Perfetto groups by category).
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Migration | SpanKind::RebalanceRound => "rebalance",
            SpanKind::TtlSweep => "ttl",
            SpanKind::Grace => "reclaim",
        }
    }
}

#[cfg(feature = "probe")]
mod active {
    use super::SpanKind;
    use crate::MAX_THREADS;
    use std::sync::{Mutex, OnceLock};
    use std::time::Instant;

    /// Per-thread ring capacity; at 24 bytes per span this bounds trace
    /// memory to ~100 KiB per recording thread.
    pub(super) const RING_CAPACITY: usize = 4096;

    #[derive(Clone, Copy)]
    pub(super) struct Span {
        pub(super) kind: SpanKind,
        pub(super) start: u64,
        pub(super) end: u64,
    }

    /// `(spans, overwrite cursor)`; the cursor is live once len hits
    /// capacity. One extra shared slot for teardown-phase spans.
    pub(super) static RINGS: [Mutex<(Vec<Span>, usize)>; MAX_THREADS + 1] = {
        #[allow(clippy::declare_interior_mutable_const)]
        const RING: Mutex<(Vec<Span>, usize)> = Mutex::new((Vec::new(), 0));
        [RING; MAX_THREADS + 1]
    };

    /// Wall-clock anchor for cycle→µs calibration, captured at first use.
    static ANCHOR: OnceLock<(Instant, u64)> = OnceLock::new();

    pub(super) fn anchor() -> (Instant, u64) {
        *ANCHOR.get_or_init(|| (Instant::now(), raw_now()))
    }

    /// Probe timestamp: TSC on x86_64, monotonic nanoseconds elsewhere —
    /// the same counter `synchro::cycles::now` reads, so values from either
    /// are comparable.
    #[inline]
    pub(crate) fn raw_now() -> u64 {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: rdtsc has no preconditions on x86_64.
            unsafe { core::arch::x86_64::_rdtsc() }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            static EPOCH: OnceLock<Instant> = OnceLock::new();
            EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
        }
    }

    pub(super) fn record_span(kind: SpanKind, start: u64, end: u64) {
        anchor(); // ensure calibration starts no later than the first span
        let idx = crate::thread_index().unwrap_or(MAX_THREADS);
        let mut ring = RINGS[idx].lock().unwrap_or_else(|e| e.into_inner());
        let (spans, cursor) = &mut *ring;
        let span = Span { kind, start, end };
        if spans.len() < RING_CAPACITY {
            spans.push(span);
        } else {
            spans[*cursor] = span;
            *cursor = (*cursor + 1) % RING_CAPACITY;
        }
    }

    /// Cycles per microsecond, measured between the anchor and now.
    /// Falls back to 1000 (a 1 GHz counter) for degenerate elapsed times.
    pub(super) fn cycles_per_us() -> f64 {
        let (wall, cyc) = anchor();
        let elapsed_us = wall.elapsed().as_secs_f64() * 1e6;
        let elapsed_cyc = raw_now().saturating_sub(cyc) as f64;
        if elapsed_us > 1.0 && elapsed_cyc > 0.0 {
            elapsed_cyc / elapsed_us
        } else {
            1000.0
        }
    }
}

#[cfg(feature = "probe")]
pub(crate) use active::raw_now;

/// RAII span recorder returned by [`span`]: drop ends the span and files
/// it in the calling thread's ring. A ZST no-op when the feature is off.
pub struct SpanGuard {
    #[cfg(feature = "probe")]
    kind: SpanKind,
    #[cfg(feature = "probe")]
    start: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        #[cfg(feature = "probe")]
        active::record_span(self.kind, self.start, raw_now());
    }
}

/// Opens a span of `kind` covering the guard's lifetime.
#[inline]
pub fn span(kind: SpanKind) -> SpanGuard {
    #[cfg(not(feature = "probe"))]
    let _ = kind;
    SpanGuard {
        #[cfg(feature = "probe")]
        kind,
        #[cfg(feature = "probe")]
        start: raw_now(),
    }
}

/// Records an already-timed span (for call sites that cannot hold a guard
/// across the region, e.g. when the endpoints live in different frames).
#[inline]
pub fn record_span(kind: SpanKind, start: u64, end: u64) {
    #[cfg(feature = "probe")]
    active::record_span(kind, start, end);
    #[cfg(not(feature = "probe"))]
    {
        let _ = (kind, start, end);
    }
}

/// Drains every thread's span ring into one Chrome trace-event JSON
/// document. Returns `None` when no spans were recorded (or the feature is
/// off), so callers skip writing empty trace files.
pub fn drain_json() -> Option<String> {
    #[cfg(feature = "probe")]
    {
        let scale = active::cycles_per_us();
        let (_, anchor_cycles) = {
            // Reuse the calibration anchor as t=0 of the timeline.
            active::anchor()
        };
        let mut events = Vec::new();
        for (tid, ring) in active::RINGS.iter().enumerate() {
            let mut ring = ring.lock().unwrap_or_else(|e| e.into_inner());
            let (spans, cursor) = &mut *ring;
            // Emit in recorded order: the ring is oldest-first from `cursor`.
            let n = spans.len();
            for i in 0..n {
                let s = spans[(*cursor + i) % n];
                let ts = s.start.saturating_sub(anchor_cycles) as f64 / scale;
                let dur = s.end.saturating_sub(s.start) as f64 / scale;
                events.push(format!(
                    concat!(
                        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",",
                        "\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{}}}"
                    ),
                    s.kind.name(),
                    s.kind.category(),
                    ts,
                    dur,
                    tid
                ));
            }
            spans.clear();
            *cursor = 0;
        }
        if events.is_empty() {
            return None;
        }
        Some(format!("{{\"traceEvents\":[{}]}}", events.join(",")))
    }
    #[cfg(not(feature = "probe"))]
    {
        None
    }
}

#[cfg(all(test, feature = "probe"))]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Both tests drain the process-wide rings, so one would take the
    /// other's spans; they take turns on this lock.
    static RINGS_TURN: Mutex<()> = Mutex::new(());

    fn rings_turn() -> MutexGuard<'static, ()> {
        // A failed test poisons the lock; the other still gets its turn.
        RINGS_TURN.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn spans_drain_as_trace_event_json() {
        let _turn = rings_turn();
        {
            let _g = span(SpanKind::Migration);
            std::hint::black_box(0);
        }
        record_span(SpanKind::TtlSweep, raw_now(), raw_now() + 1000);
        let json = drain_json().expect("two spans were recorded");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"migration\""));
        assert!(json.contains("\"name\":\"ttl_sweep\""));
        assert!(json.contains("\"ph\":\"X\""));
        // Drained rings start over.
        assert!(drain_json().is_none());
    }

    #[test]
    fn ring_is_bounded() {
        let _turn = rings_turn();
        let t = raw_now();
        for _ in 0..(super::active::RING_CAPACITY + 100) {
            record_span(SpanKind::Grace, t, t + 1);
        }
        let json = drain_json().expect("spans recorded");
        let n = json.matches("\"name\":\"grace\"").count();
        assert!(n <= super::active::RING_CAPACITY);
    }
}
