//! The driver's span recorder. In a traced window every op gets a parent
//! `op` span with children `kv.<call>` and `reclaim.quiescent`; the self
//! time of `op` is the driver's own overhead. Every span is timed and
//! summed; only the first [`KEEP`] ops of each thread are kept as records
//! and written out, so that a trace file stays small enough to open.

use std::fmt::Write as _;
use std::time::Instant;

use crate::stream::{unpack, KIND_NAMES};

/// Op records kept per thread (three spans each).
pub const KEEP: usize = 1 << 14;

/// Latency classes: every call is a get, a single-key write, or a multi-key op.
pub const CLASSES: usize = 3;
pub const CLASS_NAMES: [&str; CLASSES] = ["get", "write", "multi"];

/// Timing hooks the driver calls around the store call and around the
/// quiescence announcement of every op.
pub trait Probe {
    fn call_begin(&mut self);
    fn call_end(&mut self, class: usize);
    fn quiesce_begin(&mut self);
    fn quiesce_end(&mut self, op: u64);
}

pub struct SpanRec {
    op: u64,
    begin: u64,
    call_begin: u64,
    call_end: u64,
    quiesce_begin: u64,
    end: u64,
}

pub struct SpanLog {
    base: Instant,
    op_begin: u64,
    call_begin: u64,
    call_end: u64,
    quiesce_begin: u64,
    /// Time inside store calls, by class, over every op of the window.
    pub call_ns: [u64; CLASSES],
    pub quiesce_ns: u64,
    /// Wall time of every `op` span: calls, quiescence and the driver's own work.
    pub total_ns: u64,
    pub kept: Vec<SpanRec>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            base: Instant::now(),
            op_begin: 0,
            call_begin: 0,
            call_end: 0,
            quiesce_begin: 0,
            call_ns: [0; CLASSES],
            quiesce_ns: 0,
            total_ns: 0,
            kept: Vec::with_capacity(KEEP),
        }
    }

    #[inline(always)]
    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }
}

impl Probe for SpanLog {
    #[inline(always)]
    fn call_begin(&mut self) {
        self.call_begin = self.now();
    }

    #[inline(always)]
    fn call_end(&mut self, class: usize) {
        self.call_end = self.now();
        self.call_ns[class] += self.call_end - self.call_begin;
    }

    #[inline(always)]
    fn quiesce_begin(&mut self) {
        self.quiesce_begin = self.now();
    }

    /// Closes the op: ops run back to back, so this op's end is the next one's begin.
    #[inline(always)]
    fn quiesce_end(&mut self, op: u64) {
        let end = self.now();
        self.quiesce_ns += end - self.quiesce_begin;
        self.total_ns += end - self.op_begin;
        if self.kept.len() < KEEP {
            self.kept.push(SpanRec {
                op,
                begin: self.op_begin,
                call_begin: self.call_begin,
                call_end: self.call_end,
                quiesce_begin: self.quiesce_begin,
                end,
            });
        }
        self.op_begin = end;
    }
}

/// Chrome-trace JSON (`chrome://tracing`, Perfetto): complete events, one
/// `tid` per worker, timestamps in microseconds since the thread's window began.
pub fn chrome_trace(workload: &str, threads: &[&SpanLog]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"kvbench {workload}\"}}}}"
    );
    let us = |ns: u64| ns as f64 / 1000.0;
    for (tid, log) in threads.iter().enumerate() {
        for (seq, r) in log.kept.iter().enumerate() {
            let kind = KIND_NAMES[unpack(r.op).0 as usize];
            let _ = write!(
                out,
                ",\n{{\"name\":\"op\",\"cat\":\"driver\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"seq\":{seq},\"kind\":\"{kind}\"}}}}",
                us(r.begin),
                us(r.end - r.begin),
            );
            let _ = write!(
                out,
                ",\n{{\"name\":\"kv.{kind}\",\"cat\":\"kv\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3}}}",
                us(r.call_begin),
                us(r.call_end - r.call_begin),
            );
            let _ = write!(
                out,
                ",\n{{\"name\":\"reclaim.quiescent\",\"cat\":\"reclaim\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3}}}",
                us(r.quiesce_begin),
                us(r.end - r.quiesce_begin),
            );
        }
    }
    out.push_str("\n]}\n");
    out
}
