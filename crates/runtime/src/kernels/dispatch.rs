//! Kernel selection: a [`KernelRegistry`] of [`MicroKernel`]s plus the
//! [`KernelPolicy`] that picks one per GEMM/GEMV call from the call's
//! [`DispatchKey`] (activation columns, bit width, outlier density,
//! group size) and [`KernelCtx`] (cache availability).
//!
//! # Policy table
//!
//! | policy | engine | selection |
//! |---|---|---|
//! | [`KernelPolicy::Default`] | `RuntimeEngine::parallel()` | [`BucketedCacheKernel`] when the engine has a decoded cache, [`ScalarKernel`] otherwise — byte-for-byte the pre-dispatch engine behavior |
//! | [`KernelPolicy::Scalar`] | `RuntimeEngine::scalar()` | always the scalar oracle (bitwise, ignores the cache) |
//! | [`KernelPolicy::Fast`] | `RuntimeEngine::fast()` | first registered kernel whose `supports` accepts the call, in registry priority order; scalar as the universal fallback |
//!
//! The registry's priority order is bucketed-cache, explicit SIMD (when
//! runtime feature detection passes), lane-blocked `f32`, scalar. So
//! `Fast` resolves to: bucketed tiles when a cache is available;
//! otherwise, on supported shapes (group ≤ 256 slots, outlier density
//! ≤ 0.5), the `simd-f32` kernel on hosts with AVX2+FMA or NEON and the
//! `lane-f32` kernel on hosts without (or with `MICROSCOPIQ_SIMD=off`);
//! and the scalar oracle for everything else (e.g. outlier-heavy layers,
//! oversized groups).
//!
//! # Choosing a registry
//!
//! ```
//! use microscopiq_runtime::kernels::synth::{synth_packed, SynthSpec};
//! use microscopiq_runtime::kernels::{KernelPolicy, KernelRegistry, LANE_KERNEL};
//! use microscopiq_runtime::{EngineConfig, RuntimeEngine};
//!
//! // The portable registry: what `with_defaults` builds on a host
//! // without AVX2+FMA/NEON.
//! let engine = RuntimeEngine::with_registry(
//!     EngineConfig {
//!         policy: KernelPolicy::Fast,
//!         cache_bytes: 0,
//!         ..EngineConfig::default()
//!     },
//!     KernelRegistry::without_simd(),
//! );
//! assert_eq!(engine.kernel_names(), ["bucketed-cache", "lane-f32", "scalar-f64"]);
//! let layer = synth_packed(&SynthSpec::default());
//! assert_eq!(engine.kernel_for(&layer, 1), LANE_KERNEL);
//! ```

use super::bucketed::{BucketedCacheKernel, BUCKETED_KERNEL};
use super::lane::LaneKernel;
use super::scalar::ScalarKernel;
use super::simd::SimdKernel;
use super::{DispatchKey, KernelCtx, MicroKernel};
use crate::telemetry::metrics::{Counter, Sample, SampleValue};
use std::sync::{Arc, RwLock};

/// How the engine picks a kernel per call, one variant per engine
/// constructor. `Default` reproduces the pre-dispatch engine exactly;
/// anything else is an explicit opt-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPolicy {
    /// Bucketed decoded-cache execution when the engine has a cache,
    /// scalar oracle otherwise (bitwise uncached).
    #[default]
    Default,
    /// Always the scalar `f64` oracle — bitwise everywhere, never touches
    /// the decoded cache even when one is configured.
    Scalar,
    /// Fastest supporting kernel in registry priority order.
    Fast,
}

/// The shape a dispatched call executed as, for invocation accounting:
/// the batched row-tile path or the single-column GEMV fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelOp {
    /// Multi-column (or row-tiled parallel) execution.
    Gemm,
    /// Single-column serial fast path.
    Gemv,
}

impl KernelOp {
    fn index(self) -> usize {
        match self {
            KernelOp::Gemm => 0,
            KernelOp::Gemv => 1,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            KernelOp::Gemm => "gemm",
            KernelOp::Gemv => "gemv",
        }
    }
}

/// Bit widths tracked per kernel (the packed format supports 2 and 4).
const TRACKED_BITS: [u32; 2] = [2, 4];

fn bits_index(bits: u32) -> usize {
    if bits == 2 {
        0
    } else {
        1
    }
}

/// Invocation counters for one registered kernel: calls keyed by
/// (execution shape, bit width) plus total packed-group traversal
/// volume (the decode-work proxy).
#[derive(Debug, Default)]
struct KernelSlot {
    name: &'static str,
    /// `calls[op][bits_index]`.
    calls: [[Counter; 2]; 2],
    groups: Counter,
}

/// Per-kernel dispatch counters for one registry. Recording takes an
/// uncontended read lock plus relaxed atomic adds; the write lock is
/// only taken the first time a kernel name appears. Registry clones
/// share these counters (an engine built from a cloned registry reports
/// into the same series).
#[derive(Debug, Default)]
pub struct KernelMetrics {
    slots: RwLock<Vec<KernelSlot>>,
}

impl KernelMetrics {
    /// Records one dispatched call.
    pub fn record(&self, name: &'static str, op: KernelOp, bits: u32, groups: u64) {
        {
            let slots = self.slots.read().expect("kernel metrics poisoned");
            if let Some(s) = slots.iter().find(|s| s.name == name) {
                s.calls[op.index()][bits_index(bits)].inc();
                s.groups.add(groups);
                return;
            }
        }
        let mut slots = self.slots.write().expect("kernel metrics poisoned");
        let pos = slots
            .iter()
            .position(|s| s.name == name)
            .unwrap_or_else(|| {
                slots.push(KernelSlot {
                    name,
                    ..KernelSlot::default()
                });
                slots.len() - 1
            });
        slots[pos].calls[op.index()][bits_index(bits)].inc();
        slots[pos].groups.add(groups);
    }

    /// Total calls recorded for `name`, summed over shapes and widths.
    pub fn calls_for(&self, name: &str) -> u64 {
        let slots = self.slots.read().expect("kernel metrics poisoned");
        slots
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.calls.iter().flatten().map(Counter::get).sum::<u64>())
            .sum()
    }

    /// Counter samples for the `kernel_calls` family: one series per
    /// occupied (kernel, op, bits) combination.
    pub fn call_samples(&self) -> Vec<Sample> {
        let slots = self.slots.read().expect("kernel metrics poisoned");
        let mut out = Vec::new();
        for s in slots.iter() {
            for op in [KernelOp::Gemm, KernelOp::Gemv] {
                for (bi, &bits) in TRACKED_BITS.iter().enumerate() {
                    let n = s.calls[op.index()][bi].get();
                    if n > 0 {
                        out.push(Sample {
                            labels: vec![
                                ("kernel", s.name.to_string()),
                                ("op", op.as_str().to_string()),
                                ("bits", bits.to_string()),
                            ],
                            value: SampleValue::Counter(n),
                        });
                    }
                }
            }
        }
        out
    }

    /// Counter samples for the `decoded_groups` family: packed groups
    /// traversed, one series per kernel.
    pub fn group_samples(&self) -> Vec<Sample> {
        let slots = self.slots.read().expect("kernel metrics poisoned");
        slots
            .iter()
            .filter(|s| s.groups.get() > 0)
            .map(|s| Sample {
                labels: vec![("kernel", s.name.to_string())],
                value: SampleValue::Counter(s.groups.get()),
            })
            .collect()
    }
}

/// An ordered set of kernels. `Fast` picks the first kernel whose
/// `supports` accepts the call; the scalar oracle is always present as
/// the final fallback.
#[derive(Debug, Clone)]
pub struct KernelRegistry {
    kernels: Vec<Arc<dyn MicroKernel>>,
    scalar: Arc<dyn MicroKernel>,
    metrics: Arc<KernelMetrics>,
}

impl Default for KernelRegistry {
    fn default() -> Self {
        Self::with_defaults()
    }
}

impl KernelRegistry {
    /// The standard registry: bucketed-cache, then the explicit SIMD
    /// kernel (iff runtime feature detection passes and
    /// `MICROSCOPIQ_SIMD` does not force-disable it), then lane-blocked
    /// `f32`, then the scalar oracle.
    pub fn with_defaults() -> Self {
        Self::assemble(SimdKernel::try_new())
    }

    /// The standard registry with the SIMD kernel unconditionally left
    /// out — what `with_defaults` builds on a host without AVX2/NEON.
    /// The graceful-fallback tests pin that this registry dispatches
    /// bitwise-stably.
    pub fn without_simd() -> Self {
        Self::assemble(None)
    }

    fn assemble(simd: Option<SimdKernel>) -> Self {
        let mut kernels: Vec<Arc<dyn MicroKernel>> = vec![Arc::new(BucketedCacheKernel)];
        if let Some(s) = simd {
            kernels.push(Arc::new(s));
        }
        kernels.push(Arc::new(LaneKernel));
        kernels.push(Arc::new(ScalarKernel));
        Self {
            kernels,
            scalar: Arc::new(ScalarKernel),
            metrics: Arc::new(KernelMetrics::default()),
        }
    }

    /// The registry's dispatch counters (shared by clones).
    pub fn metrics(&self) -> &Arc<KernelMetrics> {
        &self.metrics
    }

    /// Records one dispatched call against the registry's counters —
    /// called by the engine at its GEMM/GEMV entry points, once per
    /// call (not per tile).
    pub fn record_call(&self, name: &'static str, op: KernelOp, bits: u32, groups: u64) {
        self.metrics.record(name, op, bits, groups);
    }

    /// The registered kernels in priority order.
    pub fn kernels(&self) -> &[Arc<dyn MicroKernel>] {
        &self.kernels
    }

    /// Registered kernel names in priority order.
    pub fn names(&self) -> Vec<&'static str> {
        self.kernels.iter().map(|k| k.name()).collect()
    }

    /// Looks a kernel up by name.
    pub fn get(&self, name: &str) -> Option<&dyn MicroKernel> {
        self.kernels
            .iter()
            .find(|k| k.name() == name)
            .map(|k| k.as_ref())
    }

    /// Selects the kernel for one call per the policy table (see module
    /// docs). Always returns *some* kernel — the scalar oracle backs
    /// every policy.
    pub fn select(
        &self,
        policy: KernelPolicy,
        key: &DispatchKey,
        ctx: &KernelCtx<'_>,
    ) -> &dyn MicroKernel {
        match policy {
            KernelPolicy::Scalar => self.scalar.as_ref(),
            KernelPolicy::Default => {
                if ctx.cache.is_some() {
                    self.get(BUCKETED_KERNEL).unwrap_or(self.scalar.as_ref())
                } else {
                    self.scalar.as_ref()
                }
            }
            KernelPolicy::Fast => self
                .kernels
                .iter()
                .find(|k| k.supports(key, ctx))
                .map(|k| k.as_ref())
                .unwrap_or(self.scalar.as_ref()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::lane::{LANE_KERNEL, MAX_GROUP};
    use super::super::scalar::SCALAR_KERNEL;
    use super::*;
    use crate::cache::DecodedCache;

    fn key(m: usize, group: usize, frac: f64) -> DispatchKey {
        DispatchKey {
            m,
            bits: 2,
            outlier_frac: frac,
            group,
        }
    }

    #[test]
    fn default_policy_mirrors_cache_availability() {
        let reg = KernelRegistry::with_defaults();
        let cache = DecodedCache::new(1 << 16);
        let k = key(8, 64, 0.03);
        assert_eq!(
            reg.select(KernelPolicy::Default, &k, &KernelCtx::uncached())
                .name(),
            SCALAR_KERNEL
        );
        assert_eq!(
            reg.select(KernelPolicy::Default, &k, &KernelCtx::cached(&cache, 1))
                .name(),
            BUCKETED_KERNEL
        );
    }

    #[test]
    fn scalar_policy_ignores_cache() {
        let reg = KernelRegistry::with_defaults();
        let cache = DecodedCache::new(1 << 16);
        assert_eq!(
            reg.select(
                KernelPolicy::Scalar,
                &key(1, 64, 0.0),
                &KernelCtx::cached(&cache, 1)
            )
            .name(),
            SCALAR_KERNEL
        );
    }

    #[test]
    fn fast_policy_prefers_lane_uncached_and_respects_supports() {
        let reg = KernelRegistry::with_defaults();
        let ctx = KernelCtx::uncached();
        // The pick is simd-f32 when detection passed on this host,
        // lane-f32 otherwise.
        let simd = SimdKernel::try_new().map(|_| super::super::simd::SIMD_KERNEL);
        let expected = simd.unwrap_or(LANE_KERNEL);
        // The priority order itself is pinned, so a kernel no served
        // path selects cannot slip back into it unnoticed.
        let order: Vec<&str> = [Some(BUCKETED_KERNEL), simd, Some(LANE_KERNEL)]
            .into_iter()
            .flatten()
            .chain([SCALAR_KERNEL])
            .collect();
        assert_eq!(reg.names(), order);
        assert_eq!(
            reg.select(KernelPolicy::Fast, &key(8, 64, 0.03), &ctx)
                .name(),
            expected
        );
        // Without the SIMD kernel the same call resolves to lane-f32 —
        // the graceful-fallback priority order.
        assert_eq!(
            KernelRegistry::without_simd()
                .select(KernelPolicy::Fast, &key(8, 64, 0.03), &ctx)
                .name(),
            LANE_KERNEL
        );
        // Oversized group and outlier-heavy layers fall back to scalar.
        assert_eq!(
            reg.select(KernelPolicy::Fast, &key(8, MAX_GROUP * 2, 0.03), &ctx)
                .name(),
            SCALAR_KERNEL
        );
        assert_eq!(
            reg.select(KernelPolicy::Fast, &key(8, 64, 0.9), &ctx)
                .name(),
            SCALAR_KERNEL
        );
        // With a cache, the bucketed kernel outranks lane.
        let cache = DecodedCache::new(1 << 16);
        assert_eq!(
            reg.select(
                KernelPolicy::Fast,
                &key(8, 64, 0.03),
                &KernelCtx::cached(&cache, 1)
            )
            .name(),
            BUCKETED_KERNEL
        );
    }
}
