//! Runtime observability: an always-on, lock-light [`metrics`] layer
//! plus opt-in structured [`trace`] timelines.
//!
//! The serving stack threads one [`MetricsRegistry`] through every
//! layer: [`Session`](crate::Session) owns the registry and records
//! per-step batch composition, the [`server`](crate::server) registers
//! request lifecycle latencies and terminal outcomes into the same
//! registry, and the engine contributes per-kernel dispatch counters
//! and decoded-cache statistics through [`EngineTelemetry`]. Clients
//! read everything through
//! [`ServerHandle::metrics_snapshot`](crate::ServerHandle::metrics_snapshot)
//! (structured) or the Prometheus-style
//! [`MetricsSnapshot::render_text`] (text exposition), and pull
//! Perfetto-loadable timelines via
//! [`ServerHandle::export_trace`](crate::ServerHandle::export_trace).
//!
//! Instrumentation never perturbs numerics: metrics observe scheduling
//! and dispatch decisions, they do not influence them, and serving
//! conformance tests pin that default-dispatch token streams stay
//! bitwise identical to the offline session's, traced or untraced.
//! Metrics have no off switch; tracing is opt-in through
//! [`ServerConfig::trace_events`](crate::ServerConfig::trace_events).

pub mod metrics;
pub mod trace;

pub use metrics::{
    collector_fn, Collect, Counter, Gauge, Histogram, HistogramSnapshot, MetricKind, MetricSample,
    MetricsRegistry, MetricsSnapshot, Sample, SampleValue,
};
pub use trace::{TraceArg, TraceEvent, TracePhase, TraceSink};

/// Lets an engine contribute its own instruments (kernel dispatch
/// counters, cache statistics) to the serving registry. The server
/// calls [`EngineTelemetry::register_telemetry`] once at spawn, before
/// the worker thread starts.
///
/// The default implementation registers nothing, so engines without
/// internal state (e.g. the dense [`DequantGemm`](microscopiq_fm::DequantGemm)
/// oracle) satisfy the bound for free.
pub trait EngineTelemetry {
    /// Registers this engine's collectors into `registry`.
    fn register_telemetry(&self, registry: &MetricsRegistry) {
        let _ = registry;
    }
}

/// The dense reference engine has no kernels or cache to report.
impl EngineTelemetry for microscopiq_fm::DequantGemm {}
