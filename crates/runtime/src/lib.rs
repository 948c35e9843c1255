//! `microscopiq-runtime` — the packed-weight inference engine.
//!
//! Everything upstream of this crate treats [`PackedLayer`] as a storage
//! format and computes on dense dequantized matrices. This crate makes the
//! packed format *executable*, the way the paper's PEs consume `bb`-bit
//! slots and per-block scales directly (Fig. 5, §5):
//!
//! * [`kernels`] — the pluggable kernel layer: every fused dequant-GEMM
//!   implementation lives behind the [`MicroKernel`] trait, and a
//!   [`KernelRegistry`] dispatches per call on (activation columns, bit
//!   width, outlier density, group size). The scalar `f64` oracle walks
//!   packed macro/micro-blocks, applies `Isf`/`MXScale`, reassembles
//!   outlier Upper/Lower halves via the permutation list, and accumulates
//!   into output tiles without ever materializing the dense weight matrix
//!   — bit-identical to `dequantize().matmul(..)` by construction. The
//!   lane-blocked `f32` kernel trades bitwise parity for an unrolled
//!   8-wide FMA inner loop within a pinned relative tolerance; explicit
//!   AVX2+FMA / NEON [`SimdKernel`]s register behind runtime feature
//!   detection, and the [`BucketedLaneKernel`] runs the paper's
//!   multiply-free code bucketing without a decode cache.
//! * [`cache`] — lazily decoded per-macro-block tiles in execution-ready
//!   bucketed form under an LRU residency cap, so repeated forward passes
//!   amortize unpacking and run multiply-free inlier accumulation.
//! * [`executor`] — [`RuntimeEngine`]: work-stealing parallel execution
//!   over row-block tiles on a persistent, lazily created pool of parked
//!   std threads, with a scalar fallback; plugs into
//!   [`microscopiq_fm::PackedTinyFm`] through the
//!   [`microscopiq_fm::PackedGemm`] trait.
//! * [`session`] — [`Session`]/[`BatchScheduler`]: continuous batching of
//!   concurrent generation requests over a packed TinyFM with
//!   **incremental KV-cached decode**: every request owns a
//!   [`microscopiq_fm::DecodeState`], its prompt advances as prefill
//!   segments — whole-prompt by default, or budgeted fixed-size chunks
//!   under [`SchedulerConfig`] so long prompts cannot stall live decode
//!   streams — and every later step feeds a single token through one
//!   segment-packed forward: O(prefix) per step instead of the
//!   O(prefix²) full-prefix recompute, bit-identical in exact-KV mode
//!   for every chunk size. [`Session::step`] returns the requests that
//!   finished on that step so callers can stream completions.
//! * [`server`] — [`Server`]/[`ServerHandle`]: the threaded serving
//!   front-end over [`Session`]. A dedicated worker thread drives the
//!   decode loop; client threads submit [`GenRequest`]s through a
//!   bounded admission queue (block or reject backpressure) and read
//!   per-token [`ResponseStream`]s. Requests join the running batch
//!   between steps, dropping a stream cancels its request (slot + KV
//!   cache reclaimed), and per-request deadlines expire mid-flight.
//! * [`telemetry`] — always-on lock-light metrics (atomic counters,
//!   gauges, log-bucketed mergeable histograms; Prometheus-style text
//!   exposition) plus an opt-in bounded [`TraceSink`] exporting
//!   per-request / per-step timelines as Chrome trace-event JSON.
//!   Instrumentation is observational only: default-dispatch token
//!   streams are bitwise identical with telemetry on or off.
//!
//! # Examples
//!
//! ```
//! use microscopiq_core::{MicroScopiQ, QuantConfig};
//! use microscopiq_core::traits::{LayerTensors, WeightQuantizer};
//! use microscopiq_linalg::{Matrix, SeededRng};
//! use microscopiq_runtime::RuntimeEngine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = SeededRng::new(1);
//! let w = Matrix::from_fn(32, 64, |_, _| rng.normal(0.0, 0.02));
//! let x = Matrix::from_fn(64, 16, |_, _| rng.normal(0.0, 1.0));
//! let layer = LayerTensors::new(w, x)?;
//! let packed = MicroScopiQ::w2().quantize_layer(&layer)?.packed.unwrap();
//!
//! let acts = Matrix::from_fn(64, 4, |_, _| rng.normal(0.0, 1.0));
//! let engine = RuntimeEngine::parallel();
//! let fused = engine.gemm(&packed, &acts);
//! let dense = packed.dequantize().matmul(&acts);
//! // No dense weights were built, yet results agree to < 1e-9 (the
//! // scalar engine is even bit-identical).
//! for (a, b) in fused.as_slice().iter().zip(dense.as_slice().iter()) {
//!     assert!((a - b).abs() < 1e-9);
//! }
//! # Ok(())
//! # }
//! ```
//!
//! [`PackedLayer`]: microscopiq_core::packed::PackedLayer

pub mod cache;
pub mod executor;
pub mod kernels;
pub mod net;
mod pool;
pub mod prefix;
pub mod server;
pub mod session;
pub mod telemetry;

pub use cache::{BucketTile, CacheStats, DecodedCache, DecodedTile, FlatTile};
pub use executor::{EngineConfig, PrefetchStats, RuntimeEngine};
pub use kernels::{
    detected_cpu_features, fused_gemm_serial, fused_gemv_serial, BucketedCacheKernel,
    BucketedLaneKernel, DispatchKey, KernelCtx, KernelPolicy, KernelRegistry, LaneKernel,
    MicroKernel, ScalarKernel, SimdKernel, Tolerance,
};
pub use microscopiq_fm::{DecodeState, KvCacheConfig, KvMode};
pub use net::{
    Fleet, FleetConfig, FleetHandle, FleetReport, HttpConfig, HttpServer, SupervisionConfig,
};
pub use prefix::{PrefixCache, PrefixCacheConfig, PrefixCacheStats, PrefixMatch, PrefixMetrics};
pub use server::{
    AdmissionPolicy, Deadline, RequestOptions, ResponseStream, ServeError, Server, ServerConfig,
    ServerHandle, ServerReport, ShedPolicy, StreamEvent, SubmitError,
};
pub use session::{
    BatchScheduler, GenRequest, GenResult, QosClass, QosShares, RequestId, SchedulerConfig,
    Session, SessionStats, StepBatch, StepReport,
};
pub use telemetry::{
    EngineTelemetry, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, TraceSink,
};
