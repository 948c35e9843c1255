//! The parallel tiled executor: a [`RuntimeEngine`] that runs the fused
//! dequant-GEMM over row-block tiles on a persistent thread pool with
//! work-stealing tile claims, executing every tile through the one kernel
//! the engine's [`Tier`] picks at construction (see
//! [`crate::kernels::dispatch`]).
//!
//! **The pool.** A call of at least `parallel_threshold` MACs is one job
//! on the engine's pool (`pool.rs`): `threads − 1` long-lived workers,
//! created by the first such call and joined when the engine drops, plus
//! the calling thread. Between jobs the workers are parked on a condvar;
//! a split costs one wake-up and one wait, not a thread spawn and join
//! per worker. An engine that never crosses the threshold never owns a
//! thread. The pool runs one job at a time: a second thread calling the
//! same engine meanwhile runs its call serially, which the accumulation
//! contract below makes bitwise equal. Two kinds of job take that one
//! path (`RuntimeEngine::split`): a GEMM/GEMV call's row tiles, and a
//! layer's attention heads, which `microscopiq_fm::decode` hands over
//! through [`PackedGemm::run_parts`] with the pass's Q·K plus P·V
//! multiply-adds as its size. Each head writes its own panel of the
//! attention output, so that split is bitwise as well.
//!
//! **Tiles.** Tiling is over *output rows*: the output buffer is cut at
//! the tile edges into disjoint sub-slices and each claimed tile is
//! computed straight into its own, so workers never write the same
//! element and nothing is copied afterwards. Tile claims come from one
//! shared atomic counter — whoever is idle, worker or caller, takes the
//! next unclaimed tile, which balances load when outlier-heavy blocks
//! make some tiles slower than others.
//!
//! **Determinism.** Tile edges are a pure function of the layer shape and
//! engine config (`RuntimeEngine::tile_edges`), and every kernel's
//! restricted-range `gemm_rows` / `gemv_rows` accumulates each output
//! element in full-range order (the [`MicroKernel`] contract) — so a
//! call's result is bitwise the same whichever thread computed which
//! tile, whether it split at all, and run to run.
//!
//! **Decoded tiles.** An exact-tier engine owns a [`DecodedCache`] and
//! looks the called layer up in it once per call, before any row split:
//! every tile of the call, on whichever thread, indexes the same slice of
//! decoded groups, so no tile takes a lock or touches a counter.
//!
//! Numerics are the picked kernel's pinned tolerance: the scalar tier
//! runs the scalar oracle (bit-identical to `dequantize().matmul(..)` for
//! any thread count or tile size), the exact tier the bucketed kernel
//! over decoded tiles (within the runtime's 1e-9 contract, ~1e-12
//! observed); the fast tier runs the `simd-f32` kernel (AVX2+FMA
//! detected) or else the lane-blocked `lane-f32` kernel, each at its own
//! pinned relative tolerance. Every kernel runs the layout every served
//! model has, `DotProduct` groups of at most `MAX_GROUP` slots, which
//! `PackedTinyFm::quantize_from` checks once where a model enters
//! serving.

use crate::cache::{CacheStats, DecodedCache, LayerTiles};
use crate::kernels::{
    BucketedCacheKernel, KernelCtx, KernelMetrics, KernelOp, LaneKernel, MicroKernel, ScalarKernel,
    SimdKernel, KERNEL_NAMES, SIMD_KERNEL,
};
use crate::pool::Pool;
use crate::telemetry::metrics::Counter;
use crate::telemetry::{
    collector_fn, EngineTelemetry, MetricKind, MetricsRegistry, Sample, SampleValue,
};
use microscopiq_core::packed::PackedLayer;
use microscopiq_fm::{PackedGemm, PartFn};
use microscopiq_linalg::Matrix;
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

/// Which kernels an engine runs; see [`crate::kernels::dispatch`] for the
/// pick table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The scalar oracle, bit-exact, straight from the packed layer.
    Scalar,
    /// The `bucketed-cache` kernel (within `Abs(1e-9)`) over a decoded
    /// cache that holds every layer the engine has run.
    Exact,
    /// The `f32` kernels, without a cache: `simd-f32` where the host has
    /// it, `lane-f32` elsewhere.
    Fast,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Threads a split call runs on — the caller plus `threads − 1` pool
    /// workers; 0 means all available cores.
    pub threads: usize,
    /// The kernels the engine runs.
    pub tier: Tier,
    /// Calls of fewer multiply-accumulates than this run on the calling
    /// thread; larger ones are one job on the engine's pool. The same
    /// gate sizes a layer's attention pass (see [`PackedGemm::run_parts`]).
    /// The default, 2^19, is read off the serial-vs-split table the
    /// `kernels` bench bin prints, which alternates one serial and one
    /// split call per sample. On a 2-vCPU host a split costs a fixed
    /// ≈ 1–7 µs — waking the parked worker, and sleeping until it is off
    /// its last tile: a 64×64·m=1 GEMV goes 11.8 → 18.0 µs on the exact
    /// tier and 4.1 → 7.9 µs on the f32 tier. What a split buys depends
    /// on whether the host's second vCPU is free, which changes from run
    /// to run: seven back-to-back runs put the exact tier's break-even at
    /// 2^15, 2^15.8, 2^17, 2^19.6 and, three times, never (serial and
    /// split within ≈ 3% on every shape), and the f32 tier's between 2^17
    /// and 2^18.8 or, the same three times, never. In the last run (the
    /// tracked `results/BENCH_kernels.json`) the exact tier's split won
    /// every 256- and 512-wide call (256×256·m=96: 2429 → 1273 µs) and
    /// the f32 tier's every one but 256×256·m=1. The f32 tier is 3–5×
    /// faster per MAC against the same fixed cost, and a serial 256×256
    /// f32 call costs ≈ 55–90 µs at every m from 4 to 8, so one MAC count
    /// cannot sit at both tiers' optimum; 2^19 keeps a
    /// 256-wide model's m ≥ 8 steps splitting on both and every m ≤ 16
    /// call of the 32- and 64-wide models serial.
    pub parallel_threshold: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            tier: Tier::Exact,
            parallel_threshold: 1 << 19,
        }
    }
}

impl EngineConfig {
    /// The scalar configuration — **the** single source of truth for what
    /// "the scalar engine" means ([`RuntimeEngine::scalar`] is exactly
    /// `RuntimeEngine::new(EngineConfig::scalar())`).
    ///
    /// Knobs the scalar engine honors: none beyond what this constructor
    /// pins. [`Tier::Scalar`] runs every call on the bit-exact oracle
    /// kernel;
    /// `threads: 1` disables tiling entirely, and `parallel_threshold` is
    /// moot once `threads == 1` (kept at `usize::MAX` for
    /// belt-and-braces).
    pub fn scalar() -> Self {
        Self {
            threads: 1,
            tier: Tier::Scalar,
            parallel_threshold: usize::MAX,
        }
    }
}

/// Empty; kept for the frozen `benchmark/` package until ROADMAP 2(iv)'s benchmark PR.
#[derive(Debug, Default)]
pub struct PrefetchStats;

/// How the jobs that crossed `parallel_threshold` ran, by source: GEMM
/// and GEMV row tiles, and attention heads.
#[derive(Debug, Default)]
struct PoolJobs {
    gemm: SplitOutcomes,
    attention: SplitOutcomes,
}

/// As a job on the pool, or serially because another thread's job held
/// it.
#[derive(Debug, Default)]
struct SplitOutcomes {
    split: Counter,
    busy_serial: Counter,
}

/// A packed-weight GEMM engine: one kernel + decoded-block cache +
/// parallel tiled execution. Implements [`PackedGemm`], so it plugs
/// straight into [`microscopiq_fm::PackedTinyFm`].
#[derive(Debug)]
pub struct RuntimeEngine {
    cfg: EngineConfig,
    threads: usize,
    // Arc'd so telemetry collectors can observe cache statistics after
    // the engine moves onto a worker thread.
    cache: Option<Arc<DecodedCache>>,
    /// The kernel every call runs, picked from the tier at construction.
    kernel: &'static dyn MicroKernel,
    // Arc'd for the telemetry collectors, like the cache.
    metrics: Arc<KernelMetrics>,
    // `None` until the first call crosses `parallel_threshold`. Holding
    // the lock is holding the pool: one job at a time (`claim_pool`).
    pool: Mutex<Option<Pool>>,
    pool_jobs: Arc<PoolJobs>,
}

impl RuntimeEngine {
    /// Creates an engine from a configuration.
    pub fn new(cfg: EngineConfig) -> Self {
        let threads = if cfg.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            cfg.threads
        };
        let cache = (cfg.tier == Tier::Exact).then(Arc::default);
        let kernel: &'static dyn MicroKernel = match cfg.tier {
            Tier::Scalar => &ScalarKernel,
            Tier::Exact => &BucketedCacheKernel,
            Tier::Fast => match SimdKernel::try_new() {
                Some(simd) => simd,
                None => &LaneKernel,
            },
        };
        Self {
            cfg,
            threads,
            cache,
            kernel,
            metrics: Arc::default(),
            pool: Mutex::new(None),
            pool_jobs: Arc::default(),
        }
    }

    /// The default engine: all cores, the exact tier.
    pub fn parallel() -> Self {
        Self::new(EngineConfig::default())
    }

    /// The fast serving tier, [`Tier::Fast`]: every call — including the
    /// m = 1 GEMV shape that dominates per-step decode — runs the
    /// `simd-f32` kernel when AVX2+FMA is detected and the lane-blocked
    /// `lane-f32` kernel otherwise. Results are within the picked
    /// kernel's pinned relative tolerance of the bit-exact default — the
    /// f32-tolerant serving conformance tier (`tests/fast_serving.rs`)
    /// bounds per-token logit deltas and pins argmax-token parity, which
    /// is what qualifies this engine for [`crate::Server::spawn`]. Unlike
    /// the bit-exact tiers, this engine's per-column results depend on
    /// batch composition (an f32 kernel's GEMV entry rounds differently
    /// from a one-column slice of its GEMM), so serving determinism holds at the tolerance/argmax level,
    /// not bit for bit.
    pub fn fast() -> Self {
        Self::new(EngineConfig {
            tier: Tier::Fast,
            ..EngineConfig::default()
        })
    }

    /// The scalar fallback engine (single thread, the scalar tier, so it
    /// runs the scalar oracle, bit-exact) —
    /// `Self::new(EngineConfig::scalar())`.
    pub fn scalar() -> Self {
        Self::new(EngineConfig::scalar())
    }

    /// The configuration the engine was built from.
    pub fn config(&self) -> EngineConfig {
        self.cfg
    }

    /// Threads a split call runs on: the caller plus the pool's workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Decoded-cache statistics, on the exact tier.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Always `None`; kept for the frozen `benchmark/` package until ROADMAP 2(iv)'s benchmark PR.
    pub fn prefetch_stats(&self) -> Option<&PrefetchStats> {
        None
    }

    /// The kernel every GEMM and GEMV call runs: the pick table of
    /// [`crate::kernels::dispatch`], a function of the tier and of SIMD
    /// detection alone.
    pub fn kernel(&self) -> &'static dyn MicroKernel {
        self.kernel
    }

    /// The layer's decoded tiles on the exact tier: the call's one cache
    /// lookup, made before any row split.
    fn tiles(&self, layer: &PackedLayer) -> Option<LayerTiles> {
        self.cache.as_ref().map(|cache| cache.layer_tiles(layer))
    }

    /// Computes `W · acts` from the packed layer through the picked
    /// kernel.
    ///
    /// # Panics
    ///
    /// Panics if `acts.rows() != layer.d_col()`.
    pub fn gemm(&self, layer: &PackedLayer, acts: &Matrix) -> Matrix {
        assert_eq!(
            layer.d_col(),
            acts.rows(),
            "fused gemm dimension mismatch: {}x{} · {}x{}",
            layer.d_row(),
            layer.d_col(),
            acts.rows(),
            acts.cols()
        );
        let n = acts.cols();
        let tiles = self.tiles(layer);
        let ctx = KernelCtx {
            tiles: tiles.as_deref(),
            acts32: None,
        };
        let kernel = self.kernel;
        let work = layer.d_row() * layer.d_col() * n;
        let serial = self.threads <= 1 || work < self.cfg.parallel_threshold;
        // One record per call (never per tile), keyed by the shape the
        // call executes as.
        let op = if serial && n == 1 {
            KernelOp::Gemv
        } else {
            KernelOp::Gemm
        };
        self.metrics
            .record(kernel, op, layer.inlier_bits(), layer.num_groups() as u64);
        if serial {
            // Decode fast path: one activation column (m = 1) runs the
            // kernel's GEMV entry (no tile bookkeeping, no Matrix output
            // staging). Large m = 1 problems still honor
            // `parallel_threshold` above, so decode on a big layer can
            // use the pool.
            if n == 1 {
                let mut out = vec![0.0_f64; layer.d_row()];
                kernel.gemv(&ctx, layer, acts.as_slice(), &mut out);
                return Matrix::from_vec(layer.d_row(), 1, out);
            }
            let mut out = Matrix::zeros(layer.d_row(), n);
            kernel.gemm_rows(&ctx, layer, acts, 0, layer.d_row(), out.as_mut_slice());
            return out;
        }
        self.gemm_parallel(kernel, &ctx, layer, acts)
    }

    /// Computes `W · x` for a single activation column through the
    /// picked kernel's GEMV entry — the decode fast path `PackedGemm::gemv`
    /// routes into. Problems above `parallel_threshold` split the
    /// reduction over the pool ([`Self::gemv_parallel`]): single-stream
    /// decode no longer pins one core. Tile edges depend only on the
    /// layer shape and engine config, and each tile owns its output rows,
    /// so the parallel result is bitwise identical to the serial one for
    /// every kernel, run to run.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != layer.d_col()`.
    pub fn gemv(&self, layer: &PackedLayer, x: &[f64]) -> Vec<f64> {
        assert_eq!(
            layer.d_col(),
            x.len(),
            "fused gemv dimension mismatch: {}x{} · {}",
            layer.d_row(),
            layer.d_col(),
            x.len()
        );
        let tiles = self.tiles(layer);
        let ctx = KernelCtx {
            tiles: tiles.as_deref(),
            acts32: None,
        };
        let kernel = self.kernel;
        self.metrics.record(
            kernel,
            KernelOp::Gemv,
            layer.inlier_bits(),
            layer.num_groups() as u64,
        );
        let work = layer.d_row() * layer.d_col();
        let mut out = vec![0.0_f64; layer.d_row()];
        if self.threads > 1 && work >= self.cfg.parallel_threshold {
            self.gemv_parallel(kernel, &ctx, layer, x, &mut out);
        } else {
            kernel.gemv(&ctx, layer, x, &mut out);
        }
        out
    }

    /// Tile edges for a `d_row`-row output: about 4 tiles per thread,
    /// which keeps the steal queue busy without making tiles too small to
    /// amortize claim overhead. A tile may cut anywhere: each output row
    /// is one line of groups.
    fn tile_edges(&self, layer: &PackedLayer) -> Vec<usize> {
        let d_row = layer.d_row();
        let rows = (d_row / (self.threads * 4)).max(1);
        let mut edges: Vec<usize> = (0..d_row).step_by(rows).collect();
        edges.push(d_row);
        edges
    }

    /// The pool (created by the first caller), or `None` while another
    /// thread's job is running on it.
    fn claim_pool(&self) -> Option<MutexGuard<'_, Option<Pool>>> {
        match self.pool.try_lock() {
            Ok(guard) => Some(guard),
            // A kernel panic unwound through an earlier job's guard.
            // `Pool::run` re-raises only once every worker has left the
            // job, so the pool behind the poison is idle and whole.
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// The one split path: calls `part(i, parts[i])` for every part as
    /// one pool job — whoever is idle, worker or caller, claims the next
    /// part — and counts it in `outcomes`. While another thread's job
    /// holds the pool it runs nothing and hands the parts back.
    fn split<'a>(
        &self,
        outcomes: &SplitOutcomes,
        parts: Vec<&'a mut [f64]>,
        part: &PartFn<'_>,
    ) -> Result<(), Vec<&'a mut [f64]>> {
        let Some(mut pool) = self.claim_pool() else {
            outcomes.busy_serial.inc();
            return Err(parts);
        };
        outcomes.split.inc();
        let pool = pool.get_or_insert_with(|| Pool::new(self.threads - 1));
        // One never-contended lock per part: it hands whoever claims the
        // part its `&mut`, which a shared closure cannot hold.
        let parts: Vec<Mutex<&mut [f64]>> = parts.into_iter().map(Mutex::new).collect();
        pool.run_tiles(parts.len(), &|i| {
            let mut p = parts[i].lock().expect("a part is claimed once");
            part(i, &mut p);
        });
        Ok(())
    }

    /// Fills the `d_row × n` output `out` by calling
    /// `tile(row_lo, row_hi, rows)`: as one pool job over the row tiles,
    /// each claimed tile writing its own sub-slice of `out` — or, while
    /// another thread's job holds the pool, as a single full-range tile
    /// on this thread.
    fn run_tiled(
        &self,
        layer: &PackedLayer,
        n: usize,
        out: &mut [f64],
        tile: &(dyn Fn(usize, usize, &mut [f64]) + Sync),
    ) {
        let edges = self.tile_edges(layer);
        let mut rest = &mut *out;
        let tiles = edges
            .windows(2)
            .map(|e| {
                let (rows, tail) = std::mem::take(&mut rest).split_at_mut((e[1] - e[0]) * n);
                rest = tail;
                rows
            })
            .collect();
        let split = self.split(&self.pool_jobs.gemm, tiles, &|t, rows| {
            tile(edges[t], edges[t + 1], rows)
        });
        if split.is_err() {
            tile(0, layer.d_row(), out);
        }
    }

    /// Parallel GEMM: one pool job in which workers and the caller steal
    /// row tiles off a shared counter ([`Self::run_tiled`]) and run the
    /// picked kernel straight into the tile's rows of the output.
    fn gemm_parallel(
        &self,
        kernel: &dyn MicroKernel,
        ctx: &KernelCtx<'_>,
        layer: &PackedLayer,
        acts: &Matrix,
    ) -> Matrix {
        // Convert the activations to f32 once per GEMM for kernels that
        // consume an f32 image — every tile shares it instead of paying
        // one conversion per tile.
        let acts32: Option<Vec<f32>> = kernel
            .wants_f32_acts()
            .then(|| acts.as_slice().iter().map(|&v| v as f32).collect());
        let ctx = match &acts32 {
            Some(a) => ctx.with_acts32(a),
            None => *ctx,
        };
        let n = acts.cols();
        let mut out = Matrix::zeros(layer.d_row(), n);
        self.run_tiled(layer, n, out.as_mut_slice(), &|lo, hi, rows| {
            kernel.gemm_rows(&ctx, layer, acts, lo, hi, rows)
        });
        out
    }

    /// Parallel GEMV: the reduction splits over the same row tiles as
    /// [`Self::gemm_parallel`], each claimed tile running the kernel's
    /// `gemv_rows` into its own range of `out`.
    ///
    /// **Determinism:** tile edges are a pure function of the layer shape
    /// and engine config ([`Self::tile_edges`]), tiles own disjoint output
    /// ranges, and every kernel's restricted-range `gemv_rows` accumulates
    /// each element in full-range order (the trait contract) — so the
    /// result is bitwise identical to the serial `gemv` whichever thread
    /// ran which tile, and reproducible run to run.
    fn gemv_parallel(
        &self,
        kernel: &dyn MicroKernel,
        ctx: &KernelCtx<'_>,
        layer: &PackedLayer,
        x: &[f64],
        out: &mut [f64],
    ) {
        let x32: Option<Vec<f32>> = kernel
            .wants_f32_acts()
            .then(|| x.iter().map(|&v| v as f32).collect());
        let ctx = match &x32 {
            Some(a) => ctx.with_acts32(a),
            None => *ctx,
        };
        self.run_tiled(layer, 1, out, &|lo, hi, rows| {
            kernel.gemv_rows(&ctx, layer, x, lo, hi, rows)
        });
    }
}

impl PackedGemm for RuntimeEngine {
    fn name(&self) -> &str {
        "microscopiq-runtime"
    }

    fn matmul(&self, layer: &PackedLayer, acts: &Matrix) -> Matrix {
        self.gemm(layer, acts)
    }

    fn gemv(&self, layer: &PackedLayer, x: &[f64]) -> Vec<f64> {
        self.gemv(layer, x)
    }

    /// Attention heads take the GEMM calls' split path and gate: one
    /// pool job at `work ≥ parallel_threshold`, in order on the calling
    /// thread otherwise or while another thread's job holds the pool.
    fn run_parts(&self, work: usize, parts: Vec<&mut [f64]>, part: &PartFn<'_>) {
        let parts = if self.threads > 1 && work >= self.cfg.parallel_threshold {
            match self.split(&self.pool_jobs.attention, parts, part) {
                Ok(()) => return,
                Err(parts) => parts,
            }
        } else {
            parts
        };
        for (i, p) in parts.into_iter().enumerate() {
            part(i, p);
        }
    }
}

impl EngineTelemetry for RuntimeEngine {
    /// Contributes the engine's kernel counters and decoded-cache
    /// statistics as dynamic collector families, so one serving
    /// snapshot covers kernels and cache alongside scheduler/server
    /// instruments. Collectors hold `Arc`s to the engine's internals
    /// and read them lazily at snapshot time — nothing is added to the
    /// GEMM/GEMV hot path.
    fn register_telemetry(&self, registry: &MetricsRegistry) {
        let kernel_metrics = self.metrics.clone();
        registry.register_collector(
            "microscopiq_kernel_calls_total",
            "Dispatched kernel invocations by (kernel, op, bits).",
            MetricKind::Counter,
            collector_fn(move || kernel_metrics.call_samples()),
        );
        let kernel_metrics = self.metrics.clone();
        registry.register_collector(
            "microscopiq_kernel_decoded_groups_total",
            "Packed groups traversed by dispatched kernels (decode volume).",
            MetricKind::Counter,
            collector_fn(move || kernel_metrics.group_samples()),
        );
        // Kernel availability on this host: 1/0 per known kernel name, so
        // bench/metric trajectories from hosts with and without SIMD stay
        // comparable at a glance. Only `simd-f32` can be missing.
        let simd = SimdKernel::try_new().is_some();
        registry.register_collector(
            "microscopiq_kernel_available",
            "Whether each known kernel is available on this host (1/0).",
            MetricKind::Gauge,
            collector_fn(move || {
                KERNEL_NAMES
                    .into_iter()
                    .map(|name| Sample {
                        labels: vec![("kernel", name.to_string())],
                        value: SampleValue::Gauge(i64::from(name != SIMD_KERNEL || simd)),
                    })
                    .collect()
            }),
        );
        registry.register_collector(
            "microscopiq_cpu_feature",
            "Detected CPU features relevant to the SIMD kernel (1/0).",
            MetricKind::Gauge,
            collector_fn(move || {
                crate::kernels::detected_cpu_features()
                    .into_iter()
                    .map(|(feature, present)| Sample {
                        labels: vec![("feature", feature.to_string())],
                        value: SampleValue::Gauge(i64::from(present)),
                    })
                    .collect()
            }),
        );
        let threads = self.threads as i64;
        registry.register_collector(
            "microscopiq_engine_threads",
            "Threads a split GEMM/GEMV call or attention pass runs on (caller + pool workers).",
            MetricKind::Gauge,
            collector_fn(move || {
                vec![Sample {
                    labels: Vec::new(),
                    value: SampleValue::Gauge(threads),
                }]
            }),
        );
        let jobs = self.pool_jobs.clone();
        registry.register_collector(
            "microscopiq_pool_jobs_total",
            "Jobs above parallel_threshold by source (GEMM/GEMV row tiles, attention heads) and how they ran (split over the pool / serially while it was busy).",
            MetricKind::Counter,
            collector_fn(move || {
                [("gemm", &jobs.gemm), ("attention", &jobs.attention)]
                    .into_iter()
                    .flat_map(|(op, o)| {
                        [("split", &o.split), ("busy_serial", &o.busy_serial)].map(
                            |(outcome, n)| Sample {
                                labels: vec![
                                    ("op", op.to_string()),
                                    ("outcome", outcome.to_string()),
                                ],
                                value: SampleValue::Counter(n.get()),
                            },
                        )
                    })
                    .collect()
            }),
        );
        if let Some(cache) = &self.cache {
            let c = cache.clone();
            registry.register_collector(
                "microscopiq_cache_events_total",
                "Decoded-cache layer lookups by outcome (hit/miss).",
                MetricKind::Counter,
                collector_fn(move || {
                    let stats = c.stats();
                    [("hit", stats.hits), ("miss", stats.misses)]
                        .into_iter()
                        .map(|(event, n)| Sample {
                            labels: vec![("event", event.to_string())],
                            value: SampleValue::Counter(n),
                        })
                        .collect()
                }),
            );
            let c = cache.clone();
            registry.register_collector(
                "microscopiq_cache_resident_bytes",
                "Decoded-block cache residency in bytes.",
                MetricKind::Gauge,
                collector_fn(move || {
                    vec![Sample {
                        labels: Vec::new(),
                        value: SampleValue::Gauge(c.stats().resident_bytes as i64),
                    }]
                }),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{LANE_KERNEL, SCALAR_KERNEL};
    use microscopiq_core::config::QuantConfig;
    use microscopiq_core::solver::solve;
    use microscopiq_core::traits::LayerTensors;
    use microscopiq_core::MicroScopiQ;
    use microscopiq_fm::{DecodeJob, DecodeState, PackedTinyFm, TinyFm, TinyFmConfig};
    use microscopiq_linalg::{Matrix, SeededRng};

    fn packed_layer(rows: usize, cols: usize, seed: u64) -> PackedLayer {
        let mut rng = SeededRng::new(seed);
        let mut w = Matrix::from_fn(rows, cols, |_, _| rng.normal(0.0, 0.02));
        for _ in 0..(rows * cols / 40) {
            let r = rng.below(rows);
            let c = rng.below(cols);
            w[(r, c)] = rng.sign() * rng.uniform_range(0.15, 0.5);
        }
        let x = Matrix::from_fn(cols, 8, |_, _| rng.normal(0.0, 1.0));
        let layer = LayerTensors::new(w, x).unwrap();
        let cfg = QuantConfig::w2()
            .macro_block(16)
            .row_block(16)
            .build()
            .unwrap();
        solve(&layer, &cfg).unwrap().packed.unwrap()
    }

    fn max_abs_diff(a: &Matrix, b: &Matrix) -> f64 {
        a.as_slice()
            .iter()
            .zip(b.as_slice().iter())
            .fold(0.0_f64, |m, (x, y)| m.max((x - y).abs()))
    }

    #[test]
    fn parallel_uncached_matches_dense_bitwise() {
        let layer = packed_layer(64, 32, 1);
        let mut rng = SeededRng::new(2);
        let acts = Matrix::from_fn(32, 9, |_, _| rng.normal(0.0, 1.0));
        let serial = RuntimeEngine::scalar().gemm(&layer, &acts);
        let parallel = RuntimeEngine::new(EngineConfig {
            threads: 4,
            tier: Tier::Scalar,
            parallel_threshold: 0,
        })
        .gemm(&layer, &acts);
        assert_eq!(serial, parallel);
        assert_eq!(serial, layer.dequantize().matmul(&acts), "vs dense");
    }

    #[test]
    fn cached_engine_matches_dense_within_tolerance() {
        // Batch 9 exercises the 8 + 1 column-chunk split.
        let layer = packed_layer(64, 32, 11);
        let mut rng = SeededRng::new(12);
        let acts = Matrix::from_fn(32, 9, |_, _| rng.normal(0.0, 1.0));
        let dense = layer.dequantize().matmul(&acts);
        let cached = RuntimeEngine::new(EngineConfig {
            threads: 2,
            tier: Tier::Exact,
            parallel_threshold: 0,
        });
        let first = cached.gemm(&layer, &acts);
        let second = cached.gemm(&layer, &acts);
        assert!(max_abs_diff(&first, &dense) < 1e-9);
        assert_eq!(first, second, "warm pass must repeat cold pass exactly");
    }

    #[test]
    fn cached_engine_hits_on_second_pass() {
        let layer = packed_layer(32, 64, 3);
        let mut rng = SeededRng::new(4);
        let acts = Matrix::from_fn(64, 4, |_, _| rng.normal(0.0, 1.0));
        let engine = RuntimeEngine::new(EngineConfig {
            threads: 1,
            tier: Tier::Exact,
            parallel_threshold: usize::MAX,
        });
        let a = engine.gemm(&layer, &acts);
        let stats1 = engine.cache_stats().unwrap();
        let b = engine.gemm(&layer, &acts);
        let stats2 = engine.cache_stats().unwrap();
        assert_eq!(a, b);
        assert_eq!((stats1.misses, stats1.hits), (1, 0));
        assert_eq!(stats2.hits, 1, "second pass must hit the layer");
        assert_eq!(stats2.misses, stats1.misses);
        assert_eq!(stats2.resident_bytes, stats1.resident_bytes);
    }

    #[test]
    fn two_threads_on_one_engine_both_match_scalar_bitwise() {
        let layer = packed_layer(64, 32, 31);
        let mut rng = SeededRng::new(32);
        let acts = Matrix::from_fn(32, 9, |_, _| rng.normal(0.0, 1.0));
        let x: Vec<f64> = acts.col(0);
        let want = RuntimeEngine::scalar().gemm(&layer, &acts);
        let want_v = RuntimeEngine::scalar().gemv(&layer, &x);
        let engine = RuntimeEngine::new(EngineConfig {
            threads: 3,
            tier: Tier::Scalar,
            parallel_threshold: 0,
        });
        let jobs = |e: &RuntimeEngine| {
            let gemm = &e.pool_jobs.gemm;
            (gemm.split.get(), gemm.busy_serial.get())
        };

        // The busy path, forced: while the pool is held a call runs as
        // one full-range tile on its own thread.
        let held = engine.pool.lock().unwrap();
        assert_eq!(engine.gemm(&layer, &acts), want);
        assert_eq!(engine.gemv(&layer, &x), want_v);
        assert!(held.is_none(), "a busy call must not create the pool");
        drop(held);
        assert_eq!(jobs(&engine), (0, 2));

        // And unforced: two callers racing for it.
        const ROUNDS: u64 = 200;
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..ROUNDS {
                        assert_eq!(engine.gemm(&layer, &acts), want);
                        assert_eq!(engine.gemv(&layer, &x), want_v);
                    }
                });
            }
        });
        let (split, busy) = jobs(&engine);
        assert_eq!(split + busy, 2 + 4 * ROUNDS, "every call counted once");
        assert!(split > 0);
    }

    #[test]
    fn a_kernel_panic_in_a_split_call_leaves_the_engine_usable() {
        let layer = packed_layer(64, 32, 33);
        let mut rng = SeededRng::new(34);
        let acts = Matrix::from_fn(32, 4, |_, _| rng.normal(0.0, 1.0));
        let engine = RuntimeEngine::new(EngineConfig {
            threads: 2,
            tier: Tier::Scalar,
            parallel_threshold: 0,
        });
        let want = engine.gemm(&layer, &acts);
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.run_tiled(&layer, 4, &mut [0.0; 256], &|lo, _, _| {
                assert!(lo < 32, "tile failed");
            })
        }));
        assert!(failed.is_err());
        assert!(engine.pool.is_poisoned());
        assert_eq!(
            engine.gemm(&layer, &acts),
            want,
            "split again after the panic"
        );
        assert_eq!(engine.pool_jobs.gemm.busy_serial.get(), 0);
    }

    #[test]
    fn tiny_problems_skip_thread_spawn() {
        let layer = packed_layer(16, 16, 5);
        let mut rng = SeededRng::new(6);
        let acts = Matrix::from_fn(16, 2, |_, _| rng.normal(0.0, 1.0));
        let engine = RuntimeEngine::new(EngineConfig {
            threads: 8,
            tier: Tier::Scalar,
            parallel_threshold: usize::MAX,
        });
        assert_eq!(engine.gemm(&layer, &acts), layer.dequantize().matmul(&acts));
        assert!(
            engine.pool.lock().unwrap().is_none(),
            "an engine that never splits never owns a thread"
        );
    }

    #[test]
    fn odd_tile_sizes_cover_all_rows() {
        // Tile rows follow the thread count: 40 rows split 5, 3 (ragged
        // last tile), 2 and 1 rows per tile.
        for threads in [2, 3, 5, 7] {
            let layer = packed_layer(40, 32, 7);
            let mut rng = SeededRng::new(8);
            let acts = Matrix::from_fn(32, 3, |_, _| rng.normal(0.0, 1.0));
            let engine = RuntimeEngine::new(EngineConfig {
                threads,
                tier: Tier::Scalar,
                parallel_threshold: 0,
            });
            assert_eq!(
                engine.gemm(&layer, &acts),
                layer.dequantize().matmul(&acts),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn single_column_fast_path_matches_dense() {
        // m = 1 below the parallel threshold takes the serial GEMV route
        // (bit-exact uncached, 1e-9 through the bucketed cache); above
        // the threshold it still honors the row-tiled parallel config.
        let layer = packed_layer(64, 32, 13);
        let mut rng = SeededRng::new(14);
        let acts = Matrix::from_fn(32, 1, |_, _| rng.normal(0.0, 1.0));
        let dense = layer.dequantize().matmul(&acts);
        let gemv_route = RuntimeEngine::new(EngineConfig {
            threads: 4,
            tier: Tier::Scalar,
            parallel_threshold: usize::MAX,
        });
        assert_eq!(gemv_route.gemm(&layer, &acts), dense, "gemv");
        assert_eq!(
            gemv_route.gemv(&layer, acts.as_slice()),
            dense.as_slice().to_vec(),
            "gemv entry point"
        );
        let parallel_route = RuntimeEngine::new(EngineConfig {
            threads: 4,
            tier: Tier::Scalar,
            parallel_threshold: 0,
        });
        assert_eq!(parallel_route.gemm(&layer, &acts), dense, "parallel m=1");
        let cached = RuntimeEngine::new(EngineConfig {
            threads: 4,
            tier: Tier::Exact,
            parallel_threshold: usize::MAX,
        });
        assert!(
            max_abs_diff(&cached.gemm(&layer, &acts), &dense) < 1e-9,
            "cached"
        );
    }

    #[test]
    fn every_column_chunk_width_is_exercised() {
        // n = 15 → chunks 8, 4, 2, 1.
        let layer = packed_layer(32, 32, 9);
        let mut rng = SeededRng::new(10);
        let acts = Matrix::from_fn(32, 15, |_, _| rng.normal(0.0, 1.0));
        let dense = layer.dequantize().matmul(&acts);
        let engine = RuntimeEngine::new(EngineConfig {
            threads: 1,
            tier: Tier::Exact,
            parallel_threshold: usize::MAX,
        });
        assert!(max_abs_diff(&engine.gemm(&layer, &acts), &dense) < 1e-9);
    }

    #[test]
    fn scalar_constructors_agree_and_pin_the_oracle() {
        // `RuntimeEngine::scalar()` and `EngineConfig::scalar()` are one
        // definition — the satellite fix for the duplicated constructors.
        let engine = RuntimeEngine::scalar();
        assert_eq!(engine.config(), EngineConfig::scalar());
        assert_eq!(engine.threads(), 1);
        assert!(engine.cache_stats().is_none(), "scalar engine has no cache");
        assert_eq!(engine.kernel().name(), SCALAR_KERNEL);
    }

    #[test]
    fn fast_policy_dispatches_lane_and_stays_within_pin() {
        let layer = packed_layer(64, 32, 17);
        let mut rng = SeededRng::new(18);
        let acts = Matrix::from_fn(32, 9, |_, _| rng.normal(0.0, 1.0));
        let dense = layer.dequantize().matmul(&acts);
        let fast = RuntimeEngine::new(EngineConfig {
            threads: 1,
            tier: Tier::Fast,
            parallel_threshold: usize::MAX,
        });
        // The fast tier picks the SIMD kernel when this host has one, the
        // lane kernel otherwise — both in the same tolerance class.
        let expected = if SimdKernel::try_new().is_some() {
            SIMD_KERNEL
        } else {
            LANE_KERNEL
        };
        let picked = fast.kernel();
        assert_eq!(picked.name(), expected);
        let got = fast.gemm(&layer, &acts);
        let tol = picked.tolerance();
        for (&a, &b) in got.as_slice().iter().zip(dense.as_slice().iter()) {
            assert!(tol.accepts(a, b), "{expected} via engine: {a} vs {b}");
        }
    }

    #[test]
    fn parallel_gemv_is_bitwise_identical_to_serial_for_every_policy() {
        let layer = packed_layer(64, 32, 19);
        let mut rng = SeededRng::new(20);
        let x: Vec<f64> = (0..32).map(|_| rng.normal(0.0, 1.0)).collect();
        for tier in [Tier::Scalar, Tier::Exact, Tier::Fast] {
            let serial = RuntimeEngine::new(EngineConfig {
                threads: 1,
                tier,
                parallel_threshold: usize::MAX,
            })
            .gemv(&layer, &x);
            // Same kernel, reduction split across workers at several
            // thread counts (and so tile sizes): the stitch must reproduce
            // the serial result bit for bit, every run.
            for threads in [2usize, 3, 4, 5, 8] {
                let engine = RuntimeEngine::new(EngineConfig {
                    threads,
                    tier,
                    parallel_threshold: 0,
                });
                let a = engine.gemv(&layer, &x);
                let b = engine.gemv(&layer, &x);
                assert_eq!(a, serial, "{tier:?} threads={threads}");
                assert_eq!(a, b, "{tier:?} repeat run");
            }
        }
    }

    #[test]
    fn parallel_gemv_through_cached_default_matches_serial_bitwise() {
        let layer = packed_layer(64, 32, 23);
        let mut rng = SeededRng::new(24);
        let x: Vec<f64> = (0..32).map(|_| rng.normal(0.0, 1.0)).collect();
        let serial = RuntimeEngine::new(EngineConfig {
            threads: 1,
            tier: Tier::Exact,
            parallel_threshold: usize::MAX,
        });
        let parallel = RuntimeEngine::new(EngineConfig {
            threads: 4,
            tier: Tier::Exact,
            parallel_threshold: 0,
        });
        // Cold and warm cache passes must agree with the serial engine.
        let s = serial.gemv(&layer, &x);
        assert_eq!(parallel.gemv(&layer, &x), s, "cold cache");
        assert_eq!(parallel.gemv(&layer, &x), s, "warm cache");
    }

    #[test]
    fn racing_first_calls_decode_one_resident_copy() {
        let layer = packed_layer(64, 32, 25);
        let mut rng = SeededRng::new(26);
        let acts = Matrix::from_fn(32, 9, |_, _| rng.normal(0.0, 1.0));
        let bits = |m: &Matrix| -> Vec<u64> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
        let want = bits(
            &RuntimeEngine::new(EngineConfig {
                threads: 1,
                tier: Tier::Exact,
                parallel_threshold: usize::MAX,
            })
            .gemm(&layer, &acts),
        );
        let one_copy = {
            let cache = DecodedCache::new();
            cache.layer_tiles(&layer);
            cache.stats().resident_bytes
        };
        // A fresh engine per round, so both calls are a first touch.
        for round in 0..20 {
            let engine = RuntimeEngine::new(EngineConfig {
                threads: 4,
                tier: Tier::Exact,
                parallel_threshold: 0,
            });
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                let calls: Vec<_> = (0..2)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            engine.gemm(&layer, &acts)
                        })
                    })
                    .collect();
                for call in calls {
                    assert_eq!(bits(&call.join().unwrap()), want, "round {round}");
                }
            });
            let stats = engine.cache_stats().unwrap();
            assert_eq!(stats.resident_bytes, one_copy, "round {round}");
            assert_eq!(stats.hits + stats.misses, 2, "one lookup per call");
        }
    }

    #[test]
    fn engine_telemetry_exposes_availability_features_and_threads() {
        let engine = RuntimeEngine::new(EngineConfig {
            threads: 3,
            tier: Tier::Exact,
            ..EngineConfig::default()
        });
        let registry = MetricsRegistry::new();
        engine.register_telemetry(&registry);
        let text = registry.render_text();
        assert!(text.contains("microscopiq_kernel_available"));
        assert!(text.contains("kernel=\"scalar-f64\""));
        assert!(text.contains("kernel=\"simd-f32\""));
        assert!(text.contains("microscopiq_cpu_feature"));
        assert!(text.contains("feature=\"avx2\""));
        assert!(text.contains("microscopiq_engine_threads 3"));
        assert!(text.contains("caller + pool workers"));
        for op in ["gemm", "attention"] {
            for outcome in ["split", "busy_serial"] {
                let line =
                    format!("microscopiq_pool_jobs_total{{op=\"{op}\",outcome=\"{outcome}\"}} 0");
                assert!(text.contains(&line), "{line}");
            }
        }
    }

    /// A 4-head packed model (8-wide heads) for the attention-split tests.
    fn four_head_model() -> PackedTinyFm {
        let cfg = TinyFmConfig {
            d_model: 32,
            n_heads: 4,
            d_ff: 48,
            n_layers: 2,
            vocab: 40,
        };
        let fm = TinyFm::teacher(cfg, 41);
        let mut rng = SeededRng::new(42);
        let calib: Vec<Vec<usize>> = (0..3).map(|_| fm.generate(8, 0.8, &mut rng)).collect();
        let q = MicroScopiQ::new(
            QuantConfig::w4()
                .macro_block(32)
                .row_block(32)
                .build()
                .unwrap(),
        );
        PackedTinyFm::quantize_from(&fm, &q, &calib).unwrap()
    }

    fn advance(
        model: &PackedTinyFm,
        engine: &RuntimeEngine,
        states: &mut [DecodeState],
        tokens: &[Vec<usize>],
    ) -> Vec<Matrix> {
        let mut jobs: Vec<DecodeJob<'_>> = states
            .iter_mut()
            .zip(tokens)
            .map(|(state, tokens)| DecodeJob { state, tokens })
            .collect();
        model.advance_batch(&mut jobs, engine)
    }

    fn assert_bitwise(got: &[Matrix], want: &[Matrix], what: &str) {
        for (job, (g, w)) in got.iter().zip(want).enumerate() {
            let same = g
                .as_slice()
                .iter()
                .zip(w.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{what}: job {job} diverged from serial attention");
        }
    }

    /// Attention heads split over the pool give the serial bits: a mixed
    /// batch (a prefill chunk on top of two attached prefix segments, a
    /// cold prefill, a decode step), then one decode step each; and a
    /// split requested while another thread holds the pool runs
    /// serially, to the same bits.
    #[test]
    fn attention_split_is_bitwise_serial() {
        let model = four_head_model();
        let cfg = model.config();
        let engine = |parallel_threshold| {
            RuntimeEngine::new(EngineConfig {
                threads: 3,
                tier: Tier::Scalar,
                parallel_threshold,
            })
        };
        let (serial, split) = (engine(usize::MAX), engine(0));
        let mut rng = SeededRng::new(43);
        let mut draw = |n: usize| -> Vec<usize> { (0..n).map(|_| rng.below(cfg.vocab)).collect() };
        // A donor shares its first 8 and 16 rows; the first job
        // attaches both segments and prefills the rest on top.
        let prompt = draw(24);
        let mut donor = DecodeState::exact(cfg);
        advance(
            &model,
            &serial,
            std::slice::from_mut(&mut donor),
            std::slice::from_ref(&prompt),
        );
        let bundles = [
            donor.share_prefix(8).unwrap(),
            donor.share_prefix(16).unwrap(),
        ];
        let attached = DecodeState::with_prefix(cfg, &prompt[..16], &bundles);
        let mut decoding = DecodeState::exact(cfg);
        advance(
            &model,
            &serial,
            std::slice::from_mut(&mut decoding),
            &[draw(20)],
        );
        let fresh = DecodeState::exact(cfg);

        let mut want_states = vec![attached, fresh, decoding];
        let mut got_states = want_states.clone();
        let mut held_states = want_states.clone();
        let batch = [prompt[16..].to_vec(), draw(11), draw(1)];
        let want = advance(&model, &serial, &mut want_states, &batch);
        let got = advance(&model, &split, &mut got_states, &batch);
        assert_bitwise(&got, &want, "mixed batch");
        let step: Vec<Vec<usize>> = (0..3).map(|_| draw(1)).collect();
        let want_step = advance(&model, &serial, &mut want_states, &step);
        assert_bitwise(
            &advance(&model, &split, &mut got_states, &step),
            &want_step,
            "decode step",
        );

        // The same batch while another thread holds the pool.
        let attention = &split.pool_jobs.attention;
        let before = (attention.split.get(), attention.busy_serial.get());
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let held = std::thread::scope(|scope| {
            let pool = &split.pool;
            scope.spawn(move || {
                let _pool = pool.lock().unwrap();
                held_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            });
            held_rx.recv().unwrap();
            let out = advance(&model, &split, &mut held_states, &batch);
            release_tx.send(()).unwrap();
            out
        });
        assert_bitwise(&held, &want, "busy pool");
        let after = (attention.split.get(), attention.busy_serial.get());
        assert_eq!(after, (before.0, before.1 + cfg.n_layers as u64));
        assert_eq!(serial.pool_jobs.attention.split.get(), 0);
        assert!(split.pool_jobs.attention.split.get() >= 2 * cfg.n_layers as u64);
    }
}
