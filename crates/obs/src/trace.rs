//! Per-operation span tracing: fixed-memory, lock-cheap, explicit-clock.
//!
//! A *trace* is one protocol operation's journey through the vertical
//! stack; a [`Span`] is one layer hop inside it (driver op, driver round,
//! object apply, WAL append, …). The [`SpanRecorder`] keeps a fixed ring
//! of live trace buffers — recording into a missing trace opens a buffer,
//! the oldest open buffer is evicted when the ring is full, and a buffer
//! holds at most [`MAX_SPANS_PER_TRACE`] spans — so memory never grows
//! with traffic, the same rule every other recorder in this crate obeys.
//!
//! **Slow-op capture**: [`SpanRecorder::finish`] retires a trace and, when
//! its end-to-end latency is at or over the configured threshold, moves
//! the whole span buffer into a bounded captured queue (oldest captured
//! trace evicted). `rastor trace` serves that queue over the wire as the
//! `rastor-traces/v1` document from [`SpanRecorder::traces_json`].
//!
//! **Clocks are the caller's.** Span start/end times are plain `u64`s —
//! microseconds on the thread runtime (via [`epoch_us`]), logical ticks in
//! a simulator — so deterministic tests can assert exact span trees. A
//! span's two times always share one clock; times of *different* spans in
//! one trace may come from different processes' clocks, which is why the
//! consumers print durations, not absolute offsets.
//!
//! **Sampling**: even with recording on, [`SpanRecorder::next_trace`]
//! mints a real id for only one op in [`DEFAULT_SAMPLE_EVERY`] (stride
//! configurable, deterministic) — unsampled ops carry [`NO_TRACE`] and
//! skip every span site. Slow-op capture therefore judges a sampled
//! subset, trading capture completeness for a per-op cost low enough to
//! leave tracing on in production.
//!
//! Recording is disabled by default and costs one relaxed atomic load per
//! call site when off — the tracing-off twin of the `exp t10` overhead
//! matrix measures exactly that; the tracing-on twin measures the
//! default-stride sampled cost.

use crate::metrics::{Counter, Registry};
use crate::names;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Live trace buffers a recorder keeps before evicting the oldest.
pub const MAX_LIVE_TRACES: usize = 128;

/// Spans one trace buffer holds before counting further spans as dropped.
pub const MAX_SPANS_PER_TRACE: usize = 64;

/// Captured slow-op traces kept before the oldest is evicted.
pub const MAX_CAPTURED_TRACES: usize = 32;

/// Default slow-op latency threshold: ops at or over this are captured.
pub const DEFAULT_SLOW_OP_THRESHOLD_US: u64 = 10_000;

/// Default op-sampling stride: [`SpanRecorder::next_trace`] mints a real
/// trace id for one op in this many and [`NO_TRACE`] for the rest, so a
/// fully traced deployment pays the span-recording cost on a sampled
/// subset of its traffic. Deterministic (a shared counter, not a coin
/// flip) so tests and twin benches see a fixed fraction. Stride 1 traces
/// everything.
pub const DEFAULT_SAMPLE_EVERY: u64 = 8;

/// The null trace id: never minted, never recorded against.
pub const NO_TRACE: u64 = 0;

/// Canonical span names, one per layer hop of the vertical stack.
pub mod span {
    /// Whole driver operation, submit to completion.
    pub const DRIVER_OP: &str = "driver.op";
    /// One protocol round of a driver operation (detail = round number).
    pub const DRIVER_ROUND: &str = "driver.round";
    /// Whole kv operation, submit to harvest (detail = 0 put, 1 get).
    pub const KV_OP: &str = "kv.op";
    /// Object-host queue wait, envelope submission to executor pickup
    /// (detail = object id) — on both substrates.
    pub const SERVER_QUEUE: &str = "server.queue";
    /// Object-host executor applying one request frame (detail = object
    /// id) — on both substrates.
    pub const SERVER_APPLY: &str = "server.apply";
    /// One WAL record append (detail = record bytes).
    pub const WAL_APPEND: &str = "wal.append";
    /// One WAL fdatasync (detail = object id is unknown here; 0).
    pub const WAL_FSYNC: &str = "wal.fsync";
}

/// One layer hop of one traced operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Span {
    /// The trace this span belongs to.
    pub trace: u64,
    /// Which hop this is (a [`span`] constant).
    pub name: &'static str,
    /// Hop-specific detail (round number, object id, byte count, …).
    pub detail: u64,
    /// Hop start, on the recording caller's clock.
    pub start_us: u64,
    /// Hop end, on the same clock as `start_us`.
    pub end_us: u64,
}

impl Span {
    /// The hop's duration (saturating).
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// One retired trace whose latency crossed the slow-op threshold.
#[derive(Clone, Debug)]
pub struct CapturedTrace {
    /// The trace id.
    pub trace: u64,
    /// End-to-end latency [`SpanRecorder::finish`] computed for it.
    pub latency_us: u64,
    /// Every span recorded for the trace, in recording order.
    pub spans: Vec<Span>,
    /// Spans lost to the per-trace buffer cap.
    pub dropped: u64,
}

struct TraceBuf {
    spans: Vec<Span>,
    dropped: u64,
}

#[derive(Default)]
struct Inner {
    /// Live (unfinished) trace buffers, keyed by trace id.
    live: HashMap<u64, TraceBuf>,
    /// Trace ids in buffer-open order — the eviction queue.
    order: VecDeque<u64>,
    /// Retired traces that crossed the threshold, oldest first.
    captured: VecDeque<CapturedTrace>,
}

/// The fixed-memory span recorder. One process-wide instance lives behind
/// [`global`]; deterministic tests build their own with
/// [`SpanRecorder::new`].
pub struct SpanRecorder {
    enabled: AtomicBool,
    threshold_us: AtomicU64,
    sample_every: AtomicU64,
    ops_offered: AtomicU64,
    next_id: AtomicU64,
    inner: Mutex<Inner>,
    spans_recorded: Arc<Counter>,
    spans_dropped: Arc<Counter>,
    slow_ops_captured: Arc<Counter>,
}

impl Default for SpanRecorder {
    fn default() -> SpanRecorder {
        SpanRecorder::new()
    }
}

impl SpanRecorder {
    /// A disabled recorder with private tally counters.
    pub fn new() -> SpanRecorder {
        SpanRecorder {
            enabled: AtomicBool::new(false),
            threshold_us: AtomicU64::new(DEFAULT_SLOW_OP_THRESHOLD_US),
            sample_every: AtomicU64::new(DEFAULT_SAMPLE_EVERY),
            ops_offered: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            inner: Mutex::new(Inner::default()),
            spans_recorded: Arc::new(Counter::default()),
            spans_dropped: Arc::new(Counter::default()),
            slow_ops_captured: Arc::new(Counter::default()),
        }
    }

    /// A disabled recorder whose `trace.*` tallies live in `registry`
    /// (what [`global`] uses, so the counters ride every metrics
    /// snapshot).
    pub fn with_registry(registry: &Registry) -> SpanRecorder {
        let mut r = SpanRecorder::new();
        r.spans_recorded = registry.counter(names::TRACE_SPANS_RECORDED);
        r.spans_dropped = registry.counter(names::TRACE_SPANS_DROPPED);
        r.slow_ops_captured = registry.counter(names::TRACE_SLOW_OPS_CAPTURED);
        r
    }

    /// Whether recording is on. Every recording seam checks this first,
    /// so tracing-off costs one relaxed load.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Relaxed)
    }

    /// Switch recording on or off (off clears nothing: captured traces
    /// stay readable).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Relaxed);
    }

    /// The current slow-op capture threshold.
    pub fn threshold_us(&self) -> u64 {
        self.threshold_us.load(Relaxed)
    }

    /// Set the slow-op capture threshold (0 captures every finished op).
    pub fn set_threshold_us(&self, us: u64) {
        self.threshold_us.store(us, Relaxed);
    }

    /// The current op-sampling stride (1 = trace every op).
    pub fn sample_every(&self) -> u64 {
        self.sample_every.load(Relaxed).max(1)
    }

    /// Set the op-sampling stride; 0 is treated as 1.
    pub fn set_sample_every(&self, n: u64) {
        self.sample_every.store(n.max(1), Relaxed);
    }

    /// Mint the next trace id: nonzero and unique within this recorder
    /// for one offered op in [`SpanRecorder::sample_every`], or
    /// [`NO_TRACE`] for unsampled ops and while recording is off.
    pub fn next_trace(&self) -> u64 {
        if !self.is_enabled() {
            return NO_TRACE;
        }
        if !self
            .ops_offered
            .fetch_add(1, Relaxed)
            .is_multiple_of(self.sample_every())
        {
            return NO_TRACE;
        }
        self.next_id.fetch_add(1, Relaxed)
    }

    /// Record one span against `trace`. A missing trace opens a buffer
    /// (evicting the oldest open one when the ring is full); a full
    /// buffer counts the span as dropped instead of growing. No-op for
    /// [`NO_TRACE`] or while disabled.
    pub fn record(&self, trace: u64, name: &'static str, detail: u64, start_us: u64, end_us: u64) {
        if trace == NO_TRACE || !self.is_enabled() {
            return;
        }
        let mut inner = self.inner.lock().expect("trace recorder lock");
        if !inner.live.contains_key(&trace) {
            if inner.live.len() >= MAX_LIVE_TRACES {
                if let Some(old) = inner.order.pop_front() {
                    if let Some(buf) = inner.live.remove(&old) {
                        self.spans_dropped.add(buf.spans.len() as u64 + buf.dropped);
                    }
                }
            }
            inner.live.insert(
                trace,
                TraceBuf {
                    spans: Vec::with_capacity(8),
                    dropped: 0,
                },
            );
            inner.order.push_back(trace);
        }
        let buf = inner.live.get_mut(&trace).expect("buffer just ensured");
        if buf.spans.len() >= MAX_SPANS_PER_TRACE {
            buf.dropped += 1;
            self.spans_dropped.inc();
            return;
        }
        buf.spans.push(Span {
            trace,
            name,
            detail,
            start_us,
            end_us,
        });
        self.spans_recorded.inc();
    }

    /// Retire `trace`: its buffer leaves the live ring, and when the
    /// end-to-end latency (`end_us` minus the earliest span start) is at
    /// or over the threshold, the whole span buffer is captured. No-op
    /// for unknown traces — a trace whose buffer was evicted simply
    /// vanishes.
    pub fn finish(&self, trace: u64, end_us: u64) {
        if trace == NO_TRACE {
            return;
        }
        let mut inner = self.inner.lock().expect("trace recorder lock");
        let Some(buf) = inner.live.remove(&trace) else {
            return;
        };
        inner.order.retain(|&t| t != trace);
        let start = buf.spans.iter().map(|s| s.start_us).min().unwrap_or(end_us);
        let latency_us = end_us.saturating_sub(start);
        if latency_us >= self.threshold_us() {
            if inner.captured.len() >= MAX_CAPTURED_TRACES {
                inner.captured.pop_front();
            }
            inner.captured.push_back(CapturedTrace {
                trace,
                latency_us,
                spans: buf.spans,
                dropped: buf.dropped,
            });
            self.slow_ops_captured.inc();
        }
    }

    /// Number of live (unfinished) trace buffers.
    pub fn live_traces(&self) -> usize {
        self.inner.lock().expect("trace recorder lock").live.len()
    }

    /// The captured slow-op traces, oldest first (cloned out; the queue
    /// keeps serving until newer captures evict them).
    pub fn captured(&self) -> Vec<CapturedTrace> {
        self.inner
            .lock()
            .expect("trace recorder lock")
            .captured
            .iter()
            .cloned()
            .collect()
    }

    /// Drop every captured trace (the live ring is untouched).
    pub fn clear_captured(&self) {
        self.inner
            .lock()
            .expect("trace recorder lock")
            .captured
            .clear();
    }

    /// Serialize the captured slow-op traces as the `rastor-traces/v1`
    /// JSON document: one captured trace per line, each span an inline
    /// `[name, detail, start_us, end_us]` array — the same line
    /// discipline as every other machine-readable document here.
    pub fn traces_json(&self) -> String {
        let inner = self.inner.lock().expect("trace recorder lock");
        let mut out = String::from("{\n\"schema\": \"rastor-traces/v1\",\n");
        let _ = writeln!(out, "\"threshold_us\": {},", self.threshold_us());
        let _ = writeln!(out, "\"sample_every\": {},", self.sample_every());
        let _ = writeln!(out, "\"enabled\": {},", self.is_enabled());
        out.push_str("\"captured\": [\n");
        for (i, c) in inner.captured.iter().enumerate() {
            let mut spans = String::new();
            for (j, s) in c.spans.iter().enumerate() {
                let _ = write!(
                    spans,
                    "{}[\"{}\",{},{},{}]",
                    if j == 0 { "" } else { "," },
                    s.name,
                    s.detail,
                    s.start_us,
                    s.end_us
                );
            }
            let _ = writeln!(
                out,
                "{{\"trace\":{},\"latency_us\":{},\"dropped\":{},\"spans\":[{spans}]}}{}",
                c.trace,
                c.latency_us,
                c.dropped,
                if i + 1 == inner.captured.len() {
                    ""
                } else {
                    ","
                }
            );
        }
        out.push_str("]\n}\n");
        out
    }
}

/// The process-wide recorder every production seam records into; its
/// `trace.*` tallies live in [`Registry::global`].
pub fn global() -> &'static SpanRecorder {
    static GLOBAL: OnceLock<SpanRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| SpanRecorder::with_registry(&Registry::global()))
}

/// Microseconds since the process's trace epoch (first call) — the shared
/// wall-clock base every thread-runtime span uses, so spans recorded by
/// different threads of one process are directly comparable.
pub fn epoch_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

thread_local! {
    /// The trace the current thread is applying a request for — the
    /// context bridge into layers whose interfaces carry no trace id
    /// (object behaviors, the WAL under them).
    static CURRENT: Cell<u64> = const { Cell::new(NO_TRACE) };
}

/// Set the current thread's trace context, returning the previous one —
/// executors wrap each traced request apply in `set_current`/restore.
pub fn set_current(trace: u64) -> u64 {
    CURRENT.with(|c| c.replace(trace))
}

/// The current thread's trace context ([`NO_TRACE`] when outside one).
pub fn current() -> u64 {
    CURRENT.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on() -> SpanRecorder {
        let r = SpanRecorder::new();
        r.set_enabled(true);
        r.set_threshold_us(0);
        r.set_sample_every(1);
        r
    }

    #[test]
    fn sampling_traces_one_op_per_stride() {
        let r = SpanRecorder::new();
        r.set_enabled(true);
        r.set_sample_every(4);
        let minted: Vec<u64> = (0..8).map(|_| r.next_trace()).collect();
        let real: Vec<u64> = minted.iter().copied().filter(|&t| t != NO_TRACE).collect();
        assert_eq!(real.len(), 2, "two of eight offered ops are sampled");
        assert_eq!(minted[0], real[0], "the stride starts traced");
        assert_eq!(minted[4], real[1]);
        // Stride 0 clamps to 1: everything is sampled.
        r.set_sample_every(0);
        assert_eq!(r.sample_every(), 1);
        assert!((0..4).all(|_| r.next_trace() != NO_TRACE));
    }

    #[test]
    fn disabled_recorder_mints_and_records_nothing() {
        let r = SpanRecorder::new();
        assert_eq!(r.next_trace(), NO_TRACE);
        r.record(7, span::DRIVER_OP, 0, 0, 5);
        assert_eq!(r.live_traces(), 0);
        r.finish(7, 5);
        assert!(r.captured().is_empty());
    }

    #[test]
    fn trace_ids_are_nonzero_and_unique() {
        let r = on();
        let a = r.next_trace();
        let b = r.next_trace();
        assert_ne!(a, NO_TRACE);
        assert_ne!(b, NO_TRACE);
        assert_ne!(a, b);
    }

    #[test]
    fn finish_over_threshold_captures_the_span_tree() {
        let r = on();
        r.set_threshold_us(100);
        let t = r.next_trace();
        r.record(t, span::DRIVER_OP, 0, 10, 250);
        r.record(t, span::DRIVER_ROUND, 1, 10, 120);
        r.record(t, span::DRIVER_ROUND, 2, 120, 250);
        r.finish(t, 250);
        let caps = r.captured();
        assert_eq!(caps.len(), 1);
        assert_eq!(caps[0].trace, t);
        assert_eq!(caps[0].latency_us, 240, "end 250 - earliest start 10");
        assert_eq!(caps[0].spans.len(), 3);
        assert_eq!(caps[0].spans[1].name, span::DRIVER_ROUND);
        assert_eq!(caps[0].spans[1].duration_us(), 110);
        assert_eq!(r.live_traces(), 0, "finish retires the buffer");
    }

    #[test]
    fn finish_under_threshold_discards() {
        let r = on();
        r.set_threshold_us(1_000);
        let t = r.next_trace();
        r.record(t, span::DRIVER_OP, 0, 0, 10);
        r.finish(t, 10);
        assert!(r.captured().is_empty());
        assert_eq!(r.live_traces(), 0);
    }

    #[test]
    fn live_ring_evicts_the_oldest_open_trace() {
        let r = on();
        for t in 1..=(MAX_LIVE_TRACES as u64 + 3) {
            r.record(t, span::SERVER_APPLY, 0, t, t + 1);
        }
        assert_eq!(r.live_traces(), MAX_LIVE_TRACES);
        // Traces 1..=3 were evicted; finishing them captures nothing.
        for t in 1..=3u64 {
            r.finish(t, 100);
        }
        assert!(r.captured().is_empty());
        // A surviving trace still captures.
        r.finish(10, 100);
        assert_eq!(r.captured().len(), 1);
        assert_eq!(
            r.spans_dropped.get(),
            3,
            "evicted buffers count their spans"
        );
    }

    #[test]
    fn per_trace_span_cap_drops_overflow() {
        let r = on();
        let t = r.next_trace();
        for i in 0..(MAX_SPANS_PER_TRACE as u64 + 5) {
            r.record(t, span::SERVER_APPLY, i, i, i + 1);
        }
        r.finish(t, 1_000);
        let caps = r.captured();
        assert_eq!(caps[0].spans.len(), MAX_SPANS_PER_TRACE);
        assert_eq!(caps[0].dropped, 5);
        assert_eq!(r.spans_dropped.get(), 5);
    }

    #[test]
    fn captured_queue_is_bounded_oldest_evicted() {
        let r = on();
        for t in 1..=(MAX_CAPTURED_TRACES as u64 + 4) {
            r.record(t, span::KV_OP, 0, 0, 50);
            r.finish(t, 50);
        }
        let caps = r.captured();
        assert_eq!(caps.len(), MAX_CAPTURED_TRACES);
        assert_eq!(caps[0].trace, 5, "oldest four evicted");
        assert_eq!(r.slow_ops_captured.get(), MAX_CAPTURED_TRACES as u64 + 4);
    }

    #[test]
    fn current_trace_is_thread_local_and_restores() {
        assert_eq!(current(), NO_TRACE);
        let prev = set_current(42);
        assert_eq!(prev, NO_TRACE);
        assert_eq!(current(), 42);
        let handle = std::thread::spawn(current);
        assert_eq!(handle.join().expect("probe thread"), NO_TRACE);
        set_current(prev);
        assert_eq!(current(), NO_TRACE);
    }

    #[test]
    fn traces_json_is_line_disciplined() {
        let r = on();
        for t in 1..=2u64 {
            r.record(t, span::DRIVER_OP, 0, 0, 30);
            r.record(t, span::WAL_APPEND, 16, 5, 9);
            r.finish(t, 30);
        }
        let doc = r.traces_json();
        assert!(doc.contains("\"schema\": \"rastor-traces/v1\""));
        assert!(doc.contains("\"threshold_us\": 0"));
        assert_eq!(doc.matches("\"trace\":").count(), 2);
        assert!(doc.contains("[\"wal.append\",16,5,9]"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
        // One captured trace per line: scanners split on newlines.
        assert!(doc.lines().filter(|l| l.contains("\"trace\":")).count() == 2);
    }

    #[test]
    fn registry_backed_tallies_ride_the_snapshot() {
        let reg = Registry::new();
        let r = SpanRecorder::with_registry(&reg);
        r.set_enabled(true);
        r.set_threshold_us(0);
        let t = r.next_trace();
        r.record(t, span::DRIVER_OP, 0, 0, 10);
        r.finish(t, 10);
        assert_eq!(reg.counter_value(names::TRACE_SPANS_RECORDED), 1);
        assert_eq!(reg.counter_value(names::TRACE_SLOW_OPS_CAPTURED), 1);
    }
}
