//! Opt-in structured tracing: a bounded ring-buffer [`TraceSink`] of
//! per-request span events and per-step scheduler events, exportable as
//! Chrome trace-event-format JSON (loadable directly in Perfetto or
//! `chrome://tracing`).
//!
//! Tracing is **off by default** — the server only allocates a sink when
//! `ServerConfig::trace_events > 0` — and bounded: once the ring is
//! full, the oldest events are dropped (and counted) so a long-running
//! server cannot grow without limit. Event timestamps are microseconds
//! since the sink's creation.
//!
//! # Event vocabulary
//!
//! | name | ph | tid | meaning |
//! |---|---|---|---|
//! | `enqueued` | `i` | request id | client called `submit` |
//! | `admitted` | `i` | request id | worker pulled it off the queue |
//! | `prefill_chunk` | `X` | request id | one prefill segment advanced (args: `tokens`) |
//! | `first_token` | `i` | request id | first generated token streamed |
//! | `finished` / `cancelled` / `deadline_expired` / `faulted` | `i` | request id | terminal outcome |
//! | `step` | `X` | 0 | one scheduler step (args: batch composition) |
//!
//! `pid` is always 1 (one server process); `tid 0` is the scheduler
//! lane, and each request renders as its own timeline row.

use crate::net::json::escape_into;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Chrome trace-event phase. The sink emits only complete spans and
/// instants — enough for request/step timelines without begin/end
/// pairing state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// `ph: "X"` — a complete span with a duration.
    Complete,
    /// `ph: "i"` — an instantaneous event.
    Instant,
}

/// One argument value on a trace event.
#[derive(Debug, Clone, Copy)]
pub enum TraceArg {
    /// Unsigned integer argument.
    U64(u64),
    /// Floating-point argument.
    F64(f64),
}

/// One recorded event. Timestamps and durations are microseconds since
/// the sink's epoch.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event name (fixed vocabulary; see module docs).
    pub name: &'static str,
    /// Span or instant.
    pub phase: TracePhase,
    /// Start time, µs since sink creation.
    pub ts_us: u64,
    /// Span duration in µs (0 for instants).
    pub dur_us: u64,
    /// Timeline row: request id, or 0 for the scheduler lane.
    pub tid: u64,
    /// Small fixed set of numeric arguments.
    pub args: Vec<(&'static str, TraceArg)>,
}

/// A bounded ring buffer of [`TraceEvent`]s. Recording takes a short
/// `Mutex` (tracing is opt-in, so serving hot paths only pay this when
/// a timeline was requested); export serializes the retained window.
#[derive(Debug)]
pub struct TraceSink {
    epoch: Instant,
    capacity: usize,
    events: Mutex<VecDeque<TraceEvent>>,
    dropped: AtomicU64,
}

impl TraceSink {
    /// A sink retaining at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            epoch: Instant::now(),
            capacity,
            events: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
            dropped: AtomicU64::new(0),
        }
    }

    /// Microseconds from the sink's epoch to `t` (0 for pre-epoch
    /// instants, e.g. a request enqueued before the server spawned).
    pub fn ts(&self, t: Instant) -> u64 {
        t.checked_duration_since(self.epoch)
            .map(|d| d.as_micros().min(u64::MAX as u128) as u64)
            .unwrap_or(0)
    }

    /// Records an instantaneous event.
    pub fn instant(
        &self,
        name: &'static str,
        tid: u64,
        ts_us: u64,
        args: Vec<(&'static str, TraceArg)>,
    ) {
        self.push(TraceEvent {
            name,
            phase: TracePhase::Instant,
            ts_us,
            dur_us: 0,
            tid,
            args,
        });
    }

    /// Records a complete span from `start_us` to `end_us`.
    pub fn complete(
        &self,
        name: &'static str,
        tid: u64,
        start_us: u64,
        end_us: u64,
        args: Vec<(&'static str, TraceArg)>,
    ) {
        self.push(TraceEvent {
            name,
            phase: TracePhase::Complete,
            ts_us: start_us,
            dur_us: end_us.saturating_sub(start_us),
            tid,
            args,
        });
    }

    fn push(&self, ev: TraceEvent) {
        let mut q = self.events.lock().expect("trace sink poisoned");
        if q.len() == self.capacity {
            q.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        q.push_back(ev);
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace sink poisoned").len()
    }

    /// True when no events have been recorded (or all were dropped).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Serializes the retained events as Chrome trace-event-format JSON
    /// (the object form: `{"traceEvents": [...]}`), loadable directly
    /// in Perfetto. Instants carry thread scope (`"s":"t"`); spans
    /// carry `dur`.
    pub fn export_json(&self) -> String {
        let events = self.events.lock().expect("trace sink poisoned");
        let mut out = String::with_capacity(events.len() * 96 + 128);
        out.push_str("{\"traceEvents\":[");
        for (i, ev) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            escape_into(ev.name, &mut out);
            let _ = write!(
                out,
                ",\"cat\":\"serving\",\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":{}",
                match ev.phase {
                    TracePhase::Complete => "X",
                    TracePhase::Instant => "i",
                },
                ev.ts_us,
                ev.tid
            );
            match ev.phase {
                TracePhase::Complete => {
                    let _ = write!(out, ",\"dur\":{}", ev.dur_us);
                }
                TracePhase::Instant => out.push_str(",\"s\":\"t\""),
            }
            if !ev.args.is_empty() {
                out.push_str(",\"args\":{");
                for (j, (k, v)) in ev.args.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    escape_into(k, &mut out);
                    match v {
                        TraceArg::U64(n) => {
                            let _ = write!(out, ":{n}");
                        }
                        // JSON has no NaN/Inf literals; clamp to null.
                        TraceArg::F64(x) if x.is_finite() => {
                            let _ = write!(out, ":{x}");
                        }
                        TraceArg::F64(_) => out.push_str(":null"),
                    }
                }
                out.push('}');
            }
            out.push('}');
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped_events\":{}}}}}",
            self.dropped()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        let sink = TraceSink::new(3);
        for i in 0..5u64 {
            sink.instant("enqueued", i, i * 10, Vec::new());
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 2);
        let json = sink.export_json();
        // The two oldest (tid 0, 1) were evicted.
        assert!(!json.contains("\"tid\":0,"));
        assert!(json.contains("\"tid\":2"));
        assert!(json.contains("\"tid\":4"));
        assert!(json.contains("\"dropped_events\":2"));
    }

    #[test]
    fn export_has_trace_event_shape() {
        let sink = TraceSink::new(16);
        sink.instant(
            "admitted",
            7,
            100,
            vec![("prompt_tokens", TraceArg::U64(12))],
        );
        sink.complete("step", 0, 100, 450, vec![("requests", TraceArg::U64(3))]);
        let json = sink.export_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"s\":\"t\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":350"));
        assert!(json.contains("\"args\":{\"prompt_tokens\":12}"));
        assert!(json.contains("\"args\":{\"requests\":3}"));
        assert!(json.ends_with("}"));
    }

    #[test]
    fn timestamps_are_relative_to_epoch_and_saturating() {
        let sink = TraceSink::new(4);
        let before = Instant::now();
        let sink2 = TraceSink::new(4);
        // An instant captured before sink2's epoch maps to 0, not a panic.
        assert_eq!(sink2.ts(before), 0);
        let later = Instant::now();
        // Non-decreasing for post-epoch instants.
        assert!(sink.ts(later) >= sink.ts(before));
    }
}
