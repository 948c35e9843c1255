//! The parallel tiled executor: a [`RuntimeEngine`] that runs the fused
//! dequant-GEMM over row-block tiles on a persistent thread pool with
//! work-stealing tile claims, executing every tile through the kernel the
//! [`KernelRegistry`] dispatches for the call (see [`crate::kernels`]).
//!
//! **The pool.** A call of at least `parallel_threshold` MACs is one job
//! on the engine's pool (`pool.rs`): `threads − 1` long-lived workers,
//! created by the first such call and joined when the engine drops, plus
//! the calling thread. Between jobs the workers are parked on a condvar;
//! a split costs one wake-up and one wait, not a thread spawn and join
//! per worker. An engine that never crosses the threshold never owns a
//! thread. The pool runs one job at a time: a second thread calling the
//! same engine meanwhile runs its call serially, which the accumulation
//! contract below makes bitwise equal.
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
//! Numerics are the dispatched kernel's pinned tolerance: under the
//! default policy the uncached path runs the scalar oracle (bit-identical
//! to `dequantize().matmul(..)` for any thread count or tile size) and
//! the cached path runs the bucketed kernel (within the runtime's 1e-9
//! contract, ~1e-12 observed); opting into [`KernelPolicy::Fast`] adds
//! the lane-blocked `f32` kernel at its own pinned relative tolerance.

use crate::cache::{CacheStats, DecodedCache};
use crate::kernels::{DispatchKey, KernelCtx, KernelOp, KernelPolicy, KernelRegistry, MicroKernel};
use crate::pool::Pool;
use crate::telemetry::metrics::Counter;
use crate::telemetry::{
    collector_fn, EngineTelemetry, MetricKind, MetricsRegistry, Sample, SampleValue,
};
use microscopiq_core::packed::PackedLayer;
use microscopiq_fm::PackedGemm;
use microscopiq_linalg::Matrix;
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Threads a split call runs on — the caller plus `threads − 1` pool
    /// workers; 0 means all available cores.
    pub threads: usize,
    /// Decoded-tile cache residency cap in bytes; 0 disables caching.
    pub cache_bytes: usize,
    /// Output rows per tile; 0 picks a size from the thread count.
    pub tile_rows: usize,
    /// Calls of fewer multiply-accumulates than this run on the calling
    /// thread; larger ones are one job on the engine's pool. The default,
    /// 2^19, is read off the serial-vs-split table the `kernels` bench
    /// bin prints. On a 2-vCPU host a split costs a fixed ≈15–30 µs —
    /// waking the parked worker, and sleeping until it is off its last
    /// tile (it was ~70–120 µs while every call spawned and joined its
    /// threads): a 64×64·m=1 GEMV goes 15 → 47 µs on the exact tier and
    /// 2 → 17 µs on the f32 tier. The two paths cross near 2^19 on both
    /// tiers: the exact tier ties at 256×256·m=8 (2^19) and the split
    /// wins from 2^19.6; the f32 tier still loses at 64×64·m=96 (2^18.6)
    /// and wins from 2^19. The f32 tier is 3–4× faster per MAC against
    /// the same fixed cost, so one MAC count cannot sit at both tiers'
    /// optimum; 2^19 keeps a 256-wide model's m ≥ 8 steps splitting on
    /// both and every m ≤ 16 call of the 32- and 64-wide models serial.
    pub parallel_threshold: usize,
    /// How the engine picks a kernel per call (see
    /// [`crate::kernels::dispatch`] for the policy table). The default
    /// reproduces the pre-dispatch engine bit for bit.
    pub policy: KernelPolicy,
    /// Warm the decoded-tile cache for the *next* layer from a background
    /// worker while the current layer's GEMM runs ([`PackedGemm::prefetch`]
    /// hints arrive from the model's forward pass). Requires
    /// `cache_bytes > 0` to have any effect. Observational only: prefetch
    /// populates the same cache the bucketed kernel would fill on demand,
    /// so results are unchanged with it on or off.
    pub prefetch: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            cache_bytes: 64 << 20,
            tile_rows: 0,
            parallel_threshold: 1 << 19,
            policy: KernelPolicy::Default,
            prefetch: false,
        }
    }
}

impl EngineConfig {
    /// The scalar configuration — **the** single source of truth for what
    /// "the scalar engine" means ([`RuntimeEngine::scalar`] is exactly
    /// `RuntimeEngine::new(EngineConfig::scalar())`).
    ///
    /// Knobs the scalar engine honors: none beyond what this constructor
    /// pins. `policy: Scalar` forces the bit-exact oracle kernel on every
    /// call, `threads: 1` disables tiling entirely (so `tile_rows` is
    /// never read), `cache_bytes: 0` disables the decoded cache (the
    /// oracle would ignore it anyway), and `parallel_threshold` is moot
    /// once `threads == 1` (kept at `usize::MAX` for belt-and-braces).
    pub fn scalar() -> Self {
        Self {
            threads: 1,
            cache_bytes: 0,
            tile_rows: 0,
            parallel_threshold: usize::MAX,
            policy: KernelPolicy::Scalar,
            prefetch: false,
        }
    }
}

/// Counters for the next-layer prefetch worker: hints accepted into the
/// bounded queue, layers fully decoded into the cache, and hints dropped
/// because the queue was full (best-effort — a dropped hint only means
/// the bucketed kernel decodes on demand as it always did).
#[derive(Debug, Default)]
pub struct PrefetchStats {
    issued: crate::telemetry::metrics::Counter,
    completed: crate::telemetry::metrics::Counter,
    dropped: crate::telemetry::metrics::Counter,
}

impl PrefetchStats {
    /// Hints accepted into the prefetch queue.
    pub fn issued(&self) -> u64 {
        self.issued.get()
    }

    /// Layers whose groups were all decoded into the cache.
    pub fn completed(&self) -> u64 {
        self.completed.get()
    }

    /// Hints dropped because the queue was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }
}

/// The next-layer prefetch worker: one background thread draining a
/// small bounded queue of layer hints, decoding every group of each
/// hinted layer into the shared [`DecodedCache`]. Hints are best-effort
/// (`try_send`); the queue stays shallow so a burst of hints cannot
/// build up a backlog of stale decode work.
#[derive(Debug)]
struct Prefetcher {
    tx: Option<std::sync::mpsc::SyncSender<Arc<PackedLayer>>>,
    worker: Option<std::thread::JoinHandle<()>>,
    stats: Arc<PrefetchStats>,
}

impl Prefetcher {
    fn spawn(cache: Arc<DecodedCache>) -> Self {
        let (tx, rx) = std::sync::mpsc::sync_channel::<Arc<PackedLayer>>(2);
        let stats = Arc::new(PrefetchStats::default());
        let worker_stats = stats.clone();
        let worker = std::thread::Builder::new()
            .name("microscopiq-prefetch".into())
            .spawn(move || {
                while let Ok(layer) = rx.recv() {
                    let id = layer.content_fingerprint();
                    for g in 0..layer.num_groups() {
                        cache.get_or_decode(id, &layer, g);
                    }
                    worker_stats.completed.inc();
                }
            })
            .expect("spawn prefetch worker");
        Self {
            tx: Some(tx),
            worker: Some(worker),
            stats,
        }
    }

    fn hint(&self, layer: &Arc<PackedLayer>) {
        let Some(tx) = &self.tx else { return };
        match tx.try_send(layer.clone()) {
            Ok(()) => self.stats.issued.inc(),
            Err(_) => self.stats.dropped.inc(),
        }
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        // Closing the channel ends the worker's recv loop; join so no
        // decode outlives the engine (the cache Arc would keep memory
        // alive, but a detached thread could not be reasoned about in
        // tests).
        drop(self.tx.take());
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// How the calls that crossed `parallel_threshold` ran: as a job on the
/// pool, or serially because another thread's job held it.
#[derive(Debug, Default)]
struct PoolJobs {
    split: Counter,
    busy_serial: Counter,
}

/// A packed-weight GEMM engine: kernel dispatch + decoded-block cache +
/// parallel tiled execution. Implements [`PackedGemm`], so it plugs
/// straight into [`microscopiq_fm::PackedTinyFm`].
#[derive(Debug)]
pub struct RuntimeEngine {
    cfg: EngineConfig,
    threads: usize,
    // Arc'd so telemetry collectors can observe cache statistics after
    // the engine moves onto a worker thread.
    cache: Option<Arc<DecodedCache>>,
    registry: KernelRegistry,
    prefetcher: Option<Prefetcher>,
    // `None` until the first call crosses `parallel_threshold`. Holding
    // the lock is holding the pool: one job at a time (`claim_pool`).
    pool: Mutex<Option<Pool>>,
    pool_jobs: Arc<PoolJobs>,
}

impl RuntimeEngine {
    /// Creates an engine from a configuration with the default kernel
    /// registry.
    pub fn new(cfg: EngineConfig) -> Self {
        Self::with_registry(cfg, KernelRegistry::with_defaults())
    }

    /// Creates an engine dispatching over a caller-assembled registry
    /// (see [`crate::kernels::dispatch`] for how to register a kernel).
    pub fn with_registry(cfg: EngineConfig, registry: KernelRegistry) -> Self {
        let threads = if cfg.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            cfg.threads
        };
        let cache = (cfg.cache_bytes > 0).then(|| Arc::new(DecodedCache::new(cfg.cache_bytes)));
        // Prefetch only makes sense with a cache to warm.
        let prefetcher = match (&cache, cfg.prefetch) {
            (Some(cache), true) => Some(Prefetcher::spawn(cache.clone())),
            _ => None,
        };
        Self {
            cfg,
            threads,
            cache,
            registry,
            prefetcher,
            pool: Mutex::new(None),
            pool_jobs: Arc::default(),
        }
    }

    /// The default engine: all cores, 64 MiB decoded-tile cache, default
    /// dispatch policy.
    pub fn parallel() -> Self {
        Self::new(EngineConfig::default())
    }

    /// The fast serving tier: [`KernelPolicy::Fast`] with the decoded
    /// cache disabled, so dispatch resolves to the lane-blocked `f32`
    /// kernel on every supported call — including the m = 1 GEMV shape
    /// that dominates per-step decode (~6× over the scalar oracle on
    /// 512×2048) — with the scalar oracle as fallback for outlier-heavy
    /// layers or oversized groups. (With a cache, `Fast` would resolve
    /// to the near-exact bucketed kernel, i.e. the default tier.)
    /// Results are within the lane kernel's pinned relative tolerance of
    /// the bit-exact default — the f32-tolerant serving conformance tier
    /// (`tests/fast_serving.rs`) bounds per-token logit deltas and pins
    /// argmax-token parity, which is what qualifies this engine for
    /// [`crate::Server::spawn`]. Unlike the bit-exact tiers, this
    /// engine's per-column results depend on batch composition (the lane
    /// GEMV entry rounds differently from a one-column slice of its
    /// GEMM), so serving determinism holds at the tolerance/argmax level,
    /// not bit for bit.
    pub fn fast() -> Self {
        Self::new(EngineConfig {
            policy: KernelPolicy::Fast,
            cache_bytes: 0,
            ..EngineConfig::default()
        })
    }

    /// The scalar fallback engine (single thread, no cache, scalar-oracle
    /// policy, bit-exact) — `Self::new(EngineConfig::scalar())`.
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

    /// Decoded-cache statistics, when caching is enabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Prefetch-worker counters, when next-layer prefetch is enabled
    /// (`prefetch: true` and a decoded cache configured).
    pub fn prefetch_stats(&self) -> Option<&PrefetchStats> {
        self.prefetcher.as_ref().map(|p| p.stats.as_ref())
    }

    /// The kernel registry this engine dispatches over.
    pub fn registry(&self) -> &KernelRegistry {
        &self.registry
    }

    /// Registered kernel names in dispatch priority order.
    pub fn kernel_names(&self) -> Vec<&'static str> {
        self.registry.names()
    }

    /// The kernel the engine would dispatch for an `m`-column call on
    /// this layer (introspection for benches and tests).
    pub fn kernel_for(&self, layer: &PackedLayer, m: usize) -> &'static str {
        let key = DispatchKey::for_call(layer, m);
        let ctx = self.ctx(layer);
        self.registry.select(self.cfg.policy, &key, &ctx).name()
    }

    /// The execution context for a layer: the decoded cache keyed by the
    /// layer's (memoized) content fingerprint, when caching is enabled.
    fn ctx(&self, layer: &PackedLayer) -> KernelCtx<'_> {
        match &self.cache {
            Some(cache) => KernelCtx::cached(cache.as_ref(), layer.content_fingerprint()),
            None => KernelCtx::uncached(),
        }
    }

    /// Computes `W · acts` from the packed layer through the dispatched
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
        let key = DispatchKey::for_call(layer, n);
        let ctx = self.ctx(layer);
        let kernel = self.registry.select(self.cfg.policy, &key, &ctx);
        let work = layer.d_row() * layer.d_col() * n;
        let serial = self.threads <= 1 || work < self.cfg.parallel_threshold;
        // One dispatch record per call (never per tile), keyed by the
        // shape the call executes as.
        let op = if serial && n == 1 {
            KernelOp::Gemv
        } else {
            KernelOp::Gemm
        };
        self.registry
            .record_call(kernel.name(), op, key.bits, layer.num_groups() as u64);
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
    /// dispatched GEMV kernel — the decode fast path `PackedGemm::gemv`
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
        let key = DispatchKey::for_call(layer, 1);
        let ctx = self.ctx(layer);
        let kernel = self.registry.select(self.cfg.policy, &key, &ctx);
        self.registry.record_call(
            kernel.name(),
            KernelOp::Gemv,
            key.bits,
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

    /// Tile edges for a `d_row`-row output. Tiles align to macro-block
    /// boundaries on the `OutputChannel` axis so no group straddles tiles.
    fn tile_edges(&self, layer: &PackedLayer) -> Vec<usize> {
        let d_row = layer.d_row();
        let quantum = match layer.axis() {
            microscopiq_core::config::GroupAxis::DotProduct => 1,
            microscopiq_core::config::GroupAxis::OutputChannel => layer.macro_block(),
        };
        let rows = if self.cfg.tile_rows > 0 {
            self.cfg.tile_rows
        } else {
            // ~4 tiles per worker keeps the steal queue busy without
            // making tiles too small to amortize claim overhead.
            (d_row / (self.threads * 4)).max(1)
        };
        let rows = rows.next_multiple_of(quantum);
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
        let Some(mut pool) = self.claim_pool() else {
            self.pool_jobs.busy_serial.inc();
            return tile(0, layer.d_row(), out);
        };
        self.pool_jobs.split.inc();
        let pool = pool.get_or_insert_with(|| Pool::new(self.threads - 1));
        let edges = self.tile_edges(layer);
        // One never-contended lock per tile: it hands whoever claims the
        // tile the `&mut` to its rows, which a shared closure cannot hold.
        let mut rest = out;
        let tiles: Vec<Mutex<&mut [f64]>> = edges
            .windows(2)
            .map(|e| {
                let (rows, tail) = std::mem::take(&mut rest).split_at_mut((e[1] - e[0]) * n);
                rest = tail;
                Mutex::new(rows)
            })
            .collect();
        pool.run_tiles(tiles.len(), &|t| {
            let mut rows = tiles[t].lock().expect("a tile is claimed once");
            tile(edges[t], edges[t + 1], &mut rows);
        });
    }

    /// Parallel GEMM: one pool job in which workers and the caller steal
    /// row tiles off a shared counter ([`Self::run_tiled`]) and run the
    /// dispatched kernel straight into the tile's rows of the output.
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

    /// Best-effort hint that `layer` executes soon: when next-layer
    /// prefetch is enabled, the background worker decodes the layer's
    /// groups into the shared cache while the current layer's GEMM runs.
    /// A full queue drops the hint (counted) rather than blocking the
    /// forward pass.
    fn prefetch(&self, layer: &Arc<PackedLayer>) {
        if let Some(p) = &self.prefetcher {
            p.hint(layer);
        }
    }
}

impl EngineTelemetry for RuntimeEngine {
    /// Contributes the engine's dispatch counters and decoded-cache
    /// statistics as dynamic collector families, so one serving
    /// snapshot covers kernels and cache alongside scheduler/server
    /// instruments. Collectors hold `Arc`s to the engine's internals
    /// and read them lazily at snapshot time — nothing is added to the
    /// GEMM/GEMV hot path.
    fn register_telemetry(&self, registry: &MetricsRegistry) {
        let kernel_metrics = self.registry.metrics().clone();
        registry.register_collector(
            "microscopiq_kernel_calls_total",
            "Dispatched kernel invocations by (kernel, op, bits).",
            MetricKind::Counter,
            collector_fn(move || kernel_metrics.call_samples()),
        );
        let kernel_metrics = self.registry.metrics().clone();
        registry.register_collector(
            "microscopiq_kernel_decoded_groups_total",
            "Packed groups traversed by dispatched kernels (decode volume).",
            MetricKind::Counter,
            collector_fn(move || kernel_metrics.group_samples()),
        );
        // Kernel availability on this host: 1/0 per known kernel name, so
        // bench/metric trajectories from hosts with and without SIMD stay
        // comparable at a glance.
        let registered = self.registry.names();
        registry.register_collector(
            "microscopiq_kernel_available",
            "Whether each known kernel is registered on this host (1/0).",
            MetricKind::Gauge,
            collector_fn(move || {
                use crate::kernels::{
                    BUCKETED_KERNEL, BUCKETED_LANE_KERNEL, LANE_KERNEL, SCALAR_KERNEL, SIMD_KERNEL,
                };
                [
                    SCALAR_KERNEL,
                    LANE_KERNEL,
                    BUCKETED_KERNEL,
                    BUCKETED_LANE_KERNEL,
                    SIMD_KERNEL,
                ]
                .into_iter()
                .map(|name| Sample {
                    labels: vec![("kernel", name.to_string())],
                    value: SampleValue::Gauge(i64::from(registered.contains(&name))),
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
            "Threads a split GEMM/GEMV call runs on (caller + pool workers).",
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
            "Calls above parallel_threshold by how they ran (split over the pool / serially while it was busy).",
            MetricKind::Counter,
            collector_fn(move || {
                [
                    ("split", jobs.split.get()),
                    ("busy_serial", jobs.busy_serial.get()),
                ]
                .into_iter()
                .map(|(outcome, n)| Sample {
                    labels: vec![("outcome", outcome.to_string())],
                    value: SampleValue::Counter(n),
                })
                .collect()
            }),
        );
        if let Some(p) = &self.prefetcher {
            let stats = p.stats.clone();
            registry.register_collector(
                "microscopiq_prefetch_events_total",
                "Next-layer prefetch hints by outcome (issued/completed/dropped).",
                MetricKind::Counter,
                collector_fn(move || {
                    [
                        ("issued", stats.issued()),
                        ("completed", stats.completed()),
                        ("dropped", stats.dropped()),
                    ]
                    .into_iter()
                    .map(|(event, n)| Sample {
                        labels: vec![("event", event.to_string())],
                        value: SampleValue::Counter(n),
                    })
                    .collect()
                }),
            );
        }
        if let Some(cache) = &self.cache {
            let c = cache.clone();
            registry.register_collector(
                "microscopiq_cache_events_total",
                "Decoded-block cache lookups by outcome (hit/miss/eviction).",
                MetricKind::Counter,
                collector_fn(move || {
                    let stats = c.stats();
                    [
                        ("hit", stats.hits),
                        ("miss", stats.misses),
                        ("eviction", stats.evictions),
                    ]
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
    use crate::kernels::LANE_KERNEL;
    use microscopiq_core::config::{GroupAxis, QuantConfig};
    use microscopiq_core::solver::solve;
    use microscopiq_core::traits::LayerTensors;
    use microscopiq_linalg::{Matrix, SeededRng};

    fn packed_layer(rows: usize, cols: usize, axis: GroupAxis, seed: u64) -> PackedLayer {
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
            .group_axis(axis)
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
    fn parallel_uncached_matches_dense_bitwise_both_axes() {
        for axis in [GroupAxis::DotProduct, GroupAxis::OutputChannel] {
            let layer = packed_layer(64, 32, axis, 1);
            let mut rng = SeededRng::new(2);
            let acts = Matrix::from_fn(32, 9, |_, _| rng.normal(0.0, 1.0));
            let serial = RuntimeEngine::scalar().gemm(&layer, &acts);
            let parallel = RuntimeEngine::new(EngineConfig {
                threads: 4,
                cache_bytes: 0,
                tile_rows: 16,
                parallel_threshold: 0,
                ..EngineConfig::default()
            })
            .gemm(&layer, &acts);
            assert_eq!(serial, parallel, "{axis:?}");
            let dense = layer.dequantize().matmul(&acts);
            assert_eq!(serial, dense, "{axis:?} vs dense");
        }
    }

    #[test]
    fn cached_engine_matches_dense_within_tolerance_both_axes() {
        for axis in [GroupAxis::DotProduct, GroupAxis::OutputChannel] {
            // Batch 9 exercises the 8 + 1 column-chunk split.
            let layer = packed_layer(64, 32, axis, 11);
            let mut rng = SeededRng::new(12);
            let acts = Matrix::from_fn(32, 9, |_, _| rng.normal(0.0, 1.0));
            let dense = layer.dequantize().matmul(&acts);
            let cached = RuntimeEngine::new(EngineConfig {
                threads: 2,
                cache_bytes: 1 << 20,
                tile_rows: 16,
                parallel_threshold: 0,
                ..EngineConfig::default()
            });
            let first = cached.gemm(&layer, &acts);
            let second = cached.gemm(&layer, &acts);
            assert!(max_abs_diff(&first, &dense) < 1e-9, "{axis:?}");
            assert_eq!(first, second, "warm pass must repeat cold pass exactly");
        }
    }

    #[test]
    fn cached_engine_hits_on_second_pass() {
        let layer = packed_layer(32, 64, GroupAxis::DotProduct, 3);
        let mut rng = SeededRng::new(4);
        let acts = Matrix::from_fn(64, 4, |_, _| rng.normal(0.0, 1.0));
        let engine = RuntimeEngine::new(EngineConfig {
            threads: 1,
            cache_bytes: 1 << 20,
            tile_rows: 0,
            parallel_threshold: usize::MAX,
            ..EngineConfig::default()
        });
        let a = engine.gemm(&layer, &acts);
        let stats1 = engine.cache_stats().unwrap();
        let b = engine.gemm(&layer, &acts);
        let stats2 = engine.cache_stats().unwrap();
        assert_eq!(a, b);
        assert_eq!(stats1.hits, 0);
        assert_eq!(
            stats2.hits,
            layer.num_groups() as u64,
            "second pass must hit every tile"
        );
        assert_eq!(stats2.misses, stats1.misses);
    }

    #[test]
    fn two_threads_on_one_engine_both_match_scalar_bitwise() {
        let layer = packed_layer(64, 32, GroupAxis::DotProduct, 31);
        let mut rng = SeededRng::new(32);
        let acts = Matrix::from_fn(32, 9, |_, _| rng.normal(0.0, 1.0));
        let x: Vec<f64> = acts.col(0);
        let want = RuntimeEngine::scalar().gemm(&layer, &acts);
        let want_v = RuntimeEngine::scalar().gemv(&layer, &x);
        let engine = RuntimeEngine::new(EngineConfig {
            threads: 3,
            cache_bytes: 0,
            tile_rows: 8,
            parallel_threshold: 0,
            ..EngineConfig::default()
        });
        let jobs = |e: &RuntimeEngine| (e.pool_jobs.split.get(), e.pool_jobs.busy_serial.get());

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
        let layer = packed_layer(64, 32, GroupAxis::DotProduct, 33);
        let mut rng = SeededRng::new(34);
        let acts = Matrix::from_fn(32, 4, |_, _| rng.normal(0.0, 1.0));
        let engine = RuntimeEngine::new(EngineConfig {
            threads: 2,
            cache_bytes: 0,
            tile_rows: 8,
            parallel_threshold: 0,
            ..EngineConfig::default()
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
        assert_eq!(engine.pool_jobs.busy_serial.get(), 0);
    }

    #[test]
    fn tiny_problems_skip_thread_spawn() {
        let layer = packed_layer(16, 16, GroupAxis::DotProduct, 5);
        let mut rng = SeededRng::new(6);
        let acts = Matrix::from_fn(16, 2, |_, _| rng.normal(0.0, 1.0));
        let engine = RuntimeEngine::new(EngineConfig {
            threads: 8,
            cache_bytes: 0,
            tile_rows: 0,
            parallel_threshold: usize::MAX,
            ..EngineConfig::default()
        });
        assert_eq!(engine.gemm(&layer, &acts), layer.dequantize().matmul(&acts));
        assert!(
            engine.pool.lock().unwrap().is_none(),
            "an engine that never splits never owns a thread"
        );
    }

    #[test]
    fn odd_tile_sizes_cover_all_rows() {
        for tile_rows in [1, 3, 7, 64, 1000] {
            let layer = packed_layer(48, 32, GroupAxis::OutputChannel, 7);
            let mut rng = SeededRng::new(8);
            let acts = Matrix::from_fn(32, 3, |_, _| rng.normal(0.0, 1.0));
            let engine = RuntimeEngine::new(EngineConfig {
                threads: 3,
                cache_bytes: 0,
                tile_rows,
                parallel_threshold: 0,
                ..EngineConfig::default()
            });
            assert_eq!(
                engine.gemm(&layer, &acts),
                layer.dequantize().matmul(&acts),
                "tile_rows={tile_rows}"
            );
        }
    }

    #[test]
    fn single_column_fast_path_matches_dense() {
        // m = 1 below the parallel threshold takes the serial GEMV route
        // (bit-exact uncached, 1e-9 through the bucketed cache); above
        // the threshold it still honors the row-tiled parallel config.
        for axis in [GroupAxis::DotProduct, GroupAxis::OutputChannel] {
            let layer = packed_layer(64, 32, axis, 13);
            let mut rng = SeededRng::new(14);
            let acts = Matrix::from_fn(32, 1, |_, _| rng.normal(0.0, 1.0));
            let dense = layer.dequantize().matmul(&acts);
            let gemv_route = RuntimeEngine::new(EngineConfig {
                threads: 4,
                cache_bytes: 0,
                tile_rows: 8,
                parallel_threshold: usize::MAX,
                ..EngineConfig::default()
            });
            assert_eq!(gemv_route.gemm(&layer, &acts), dense, "{axis:?} gemv");
            assert_eq!(
                gemv_route.gemv(&layer, acts.as_slice()),
                dense.as_slice().to_vec(),
                "{axis:?} gemv entry point"
            );
            let parallel_route = RuntimeEngine::new(EngineConfig {
                threads: 4,
                cache_bytes: 0,
                tile_rows: 8,
                parallel_threshold: 0,
                ..EngineConfig::default()
            });
            assert_eq!(
                parallel_route.gemm(&layer, &acts),
                dense,
                "{axis:?} parallel m=1"
            );
            let cached = RuntimeEngine::new(EngineConfig {
                threads: 4,
                cache_bytes: 1 << 20,
                tile_rows: 8,
                parallel_threshold: usize::MAX,
                ..EngineConfig::default()
            });
            assert!(
                max_abs_diff(&cached.gemm(&layer, &acts), &dense) < 1e-9,
                "{axis:?} cached"
            );
        }
    }

    #[test]
    fn every_column_chunk_width_is_exercised() {
        // n = 15 → chunks 8, 4, 2, 1.
        let layer = packed_layer(32, 32, GroupAxis::DotProduct, 9);
        let mut rng = SeededRng::new(10);
        let acts = Matrix::from_fn(32, 15, |_, _| rng.normal(0.0, 1.0));
        let dense = layer.dequantize().matmul(&acts);
        let engine = RuntimeEngine::new(EngineConfig {
            threads: 1,
            cache_bytes: 1 << 20,
            tile_rows: 0,
            parallel_threshold: usize::MAX,
            ..EngineConfig::default()
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
        let layer = packed_layer(32, 32, GroupAxis::DotProduct, 15);
        assert_eq!(engine.kernel_for(&layer, 8), "scalar-f64");
        assert_eq!(engine.kernel_for(&layer, 1), "scalar-f64");
    }

    #[test]
    fn fast_policy_dispatches_lane_and_stays_within_pin() {
        let layer = packed_layer(64, 32, GroupAxis::DotProduct, 17);
        let mut rng = SeededRng::new(18);
        let acts = Matrix::from_fn(32, 9, |_, _| rng.normal(0.0, 1.0));
        let dense = layer.dequantize().matmul(&acts);
        let fast = RuntimeEngine::new(EngineConfig {
            threads: 1,
            cache_bytes: 0,
            parallel_threshold: usize::MAX,
            policy: KernelPolicy::Fast,
            ..EngineConfig::default()
        });
        // At m = 9, Fast picks the SIMD kernel when this host has one,
        // the lane kernel otherwise — both in the same tolerance class.
        let expected = if crate::kernels::SimdKernel::try_new().is_some() {
            crate::kernels::SIMD_KERNEL
        } else {
            LANE_KERNEL
        };
        let picked = fast.kernel_for(&layer, 9);
        assert_eq!(picked, expected);
        let got = fast.gemm(&layer, &acts);
        let tol = fast.registry().get(picked).unwrap().tolerance();
        for (&a, &b) in got.as_slice().iter().zip(dense.as_slice().iter()) {
            assert!(tol.accepts(a, b), "{picked} via engine: {a} vs {b}");
        }
        // With a cache configured, Fast prefers the bucketed kernel.
        let fast_cached = RuntimeEngine::new(EngineConfig {
            threads: 1,
            cache_bytes: 1 << 20,
            parallel_threshold: usize::MAX,
            policy: KernelPolicy::Fast,
            ..EngineConfig::default()
        });
        assert_eq!(fast_cached.kernel_for(&layer, 9), "bucketed-cache");
    }

    #[test]
    fn parallel_gemv_is_bitwise_identical_to_serial_for_every_policy() {
        for axis in [GroupAxis::DotProduct, GroupAxis::OutputChannel] {
            let layer = packed_layer(64, 32, axis, 19);
            let mut rng = SeededRng::new(20);
            let x: Vec<f64> = (0..32).map(|_| rng.normal(0.0, 1.0)).collect();
            for policy in [
                KernelPolicy::Default,
                KernelPolicy::Scalar,
                KernelPolicy::Fast,
            ] {
                let serial = RuntimeEngine::new(EngineConfig {
                    threads: 1,
                    cache_bytes: 0,
                    tile_rows: 0,
                    parallel_threshold: usize::MAX,
                    policy,
                    ..EngineConfig::default()
                })
                .gemv(&layer, &x);
                // Same kernel, reduction split across workers at several
                // tile sizes and thread counts: the stitch must reproduce
                // the serial result bit for bit, every run.
                for threads in [2usize, 3, 4] {
                    for tile_rows in [0usize, 8, 16, 48] {
                        let engine = RuntimeEngine::new(EngineConfig {
                            threads,
                            cache_bytes: 0,
                            tile_rows,
                            parallel_threshold: 0,
                            policy,
                            ..EngineConfig::default()
                        });
                        let a = engine.gemv(&layer, &x);
                        let b = engine.gemv(&layer, &x);
                        assert_eq!(
                            a, serial,
                            "{axis:?} {policy:?} threads={threads} tile_rows={tile_rows}"
                        );
                        assert_eq!(a, b, "{axis:?} {policy:?} repeat run");
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_gemv_through_cached_default_matches_serial_bitwise() {
        let layer = packed_layer(64, 32, GroupAxis::DotProduct, 23);
        let mut rng = SeededRng::new(24);
        let x: Vec<f64> = (0..32).map(|_| rng.normal(0.0, 1.0)).collect();
        let serial = RuntimeEngine::new(EngineConfig {
            threads: 1,
            cache_bytes: 1 << 20,
            parallel_threshold: usize::MAX,
            ..EngineConfig::default()
        });
        let parallel = RuntimeEngine::new(EngineConfig {
            threads: 4,
            cache_bytes: 1 << 20,
            tile_rows: 16,
            parallel_threshold: 0,
            ..EngineConfig::default()
        });
        // Cold and warm cache passes must agree with the serial engine.
        let s = serial.gemv(&layer, &x);
        assert_eq!(parallel.gemv(&layer, &x), s, "cold cache");
        assert_eq!(parallel.gemv(&layer, &x), s, "warm cache");
    }

    #[test]
    fn prefetch_warms_the_cache_and_leaves_results_unchanged() {
        let layer = Arc::new(packed_layer(64, 32, GroupAxis::DotProduct, 27));
        let mut rng = SeededRng::new(28);
        let x: Vec<f64> = (0..32).map(|_| rng.normal(0.0, 1.0)).collect();
        let plain = RuntimeEngine::new(EngineConfig {
            threads: 1,
            cache_bytes: 1 << 20,
            parallel_threshold: usize::MAX,
            ..EngineConfig::default()
        });
        let prefetching = RuntimeEngine::new(EngineConfig {
            threads: 1,
            cache_bytes: 1 << 20,
            parallel_threshold: usize::MAX,
            prefetch: true,
            ..EngineConfig::default()
        });
        assert!(plain.prefetch_stats().is_none());
        let stats = || prefetching.prefetch_stats().expect("prefetcher enabled");

        prefetching.prefetch(&layer);
        // The worker decodes asynchronously; wait (bounded) for the layer
        // to finish, then the first gemv must hit every group.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while stats().completed() < 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "prefetch worker never completed the hinted layer"
            );
            std::thread::yield_now();
        }
        assert_eq!(stats().issued(), 1);
        let misses_before = prefetching.cache_stats().unwrap().misses;
        let warm = prefetching.gemv(&layer, &x);
        let after = prefetching.cache_stats().unwrap();
        assert_eq!(
            after.misses, misses_before,
            "post-prefetch gemv must not decode anything"
        );
        assert_eq!(after.hits, layer.num_groups() as u64);
        // Prefetch is observational: identical output with it off.
        assert_eq!(warm, plain.gemv(&layer, &x));
    }

    #[test]
    fn prefetch_queue_overflow_drops_hints_without_blocking() {
        let engine = RuntimeEngine::new(EngineConfig {
            threads: 1,
            cache_bytes: 1 << 20,
            parallel_threshold: usize::MAX,
            prefetch: true,
            ..EngineConfig::default()
        });
        let layer = Arc::new(packed_layer(64, 32, GroupAxis::DotProduct, 29));
        // Many more hints than the queue holds: every hint must return
        // immediately, each either accepted or counted as dropped.
        for _ in 0..64 {
            engine.prefetch(&layer);
        }
        let stats = engine.prefetch_stats().unwrap();
        assert_eq!(stats.issued() + stats.dropped(), 64);
    }

    #[test]
    fn engine_telemetry_exposes_availability_features_and_threads() {
        let engine = RuntimeEngine::new(EngineConfig {
            threads: 3,
            cache_bytes: 1 << 20,
            prefetch: true,
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
        assert!(text.contains("microscopiq_pool_jobs_total{outcome=\"split\"} 0"));
        assert!(text.contains("microscopiq_pool_jobs_total{outcome=\"busy_serial\"} 0"));
        assert!(text.contains("microscopiq_prefetch_events_total"));
    }
}
