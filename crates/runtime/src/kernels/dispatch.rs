//! Kernel selection: an engine's [`Tier`] picks its one kernel at
//! construction ([`RuntimeEngine::kernel`]), and [`KernelMetrics`] counts
//! the calls each kernel ran.
//!
//! # Pick table
//!
//! | tier | engine | kernel |
//! |---|---|---|
//! | [`Tier::Exact`] with a cache | `RuntimeEngine::parallel()` | [`BucketedCacheKernel`] |
//! | [`Tier::Exact`], `cache_bytes: 0` | `RuntimeEngine::scalar()` | [`ScalarKernel`] |
//! | [`Tier::Fast`] | `RuntimeEngine::fast()` | [`SimdKernel`] when [`SimdKernel::try_new`] finds it, [`LaneKernel`] otherwise |
//!
//! Nothing about a call enters the pick — not the layer, the activation
//! columns `m`, the bit width or the outlier density — so every call of
//! one engine runs one kernel.
//!
//! ```
//! use microscopiq_runtime::kernels::{SimdKernel, BUCKETED_KERNEL, LANE_KERNEL, SCALAR_KERNEL, SIMD_KERNEL};
//! use microscopiq_runtime::RuntimeEngine;
//!
//! assert_eq!(RuntimeEngine::scalar().kernel().name(), SCALAR_KERNEL);
//! assert_eq!(RuntimeEngine::parallel().kernel().name(), BUCKETED_KERNEL);
//! // `MICROSCOPIQ_SIMD=off`, or a host without AVX2+FMA, gives lane-f32.
//! let f32_kernel = if SimdKernel::try_new().is_some() { SIMD_KERNEL } else { LANE_KERNEL };
//! assert_eq!(RuntimeEngine::fast().kernel().name(), f32_kernel);
//! ```
//!
//! [`Tier`]: crate::Tier
//! [`Tier::Exact`]: crate::Tier::Exact
//! [`Tier::Fast`]: crate::Tier::Fast
//! [`RuntimeEngine::kernel`]: crate::RuntimeEngine::kernel
//! [`BucketedCacheKernel`]: super::BucketedCacheKernel
//! [`ScalarKernel`]: super::ScalarKernel
//! [`SimdKernel`]: super::SimdKernel
//! [`SimdKernel::try_new`]: super::SimdKernel::try_new
//! [`LaneKernel`]: super::LaneKernel

use super::{MicroKernel, KERNEL_NAMES};
use crate::telemetry::metrics::{Counter, Sample, SampleValue};

/// The shape a call executed as, for invocation accounting:
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

/// Invocation counters for one kernel: calls keyed by (execution shape,
/// bit width) plus total packed-group traversal volume (the decode-work
/// proxy).
#[derive(Debug, Default)]
struct KernelSlot {
    /// `calls[op][bits_index]`.
    calls: [[Counter; 2]; 2],
    groups: Counter,
}

/// Per-kernel call counters for one engine: one fixed slot per kernel, at
/// its [`MicroKernel::index`]. Recording is relaxed atomic adds.
#[derive(Debug, Default)]
pub struct KernelMetrics {
    slots: [KernelSlot; KERNEL_NAMES.len()],
}

impl KernelMetrics {
    /// Records one call of `kernel`.
    pub fn record(&self, kernel: &dyn MicroKernel, op: KernelOp, bits: u32, groups: u64) {
        let slot = &self.slots[kernel.index()];
        slot.calls[op.index()][bits_index(bits)].inc();
        slot.groups.add(groups);
    }

    /// Counter samples for the `kernel_calls` family: one series per
    /// occupied (kernel, op, bits) combination.
    pub fn call_samples(&self) -> Vec<Sample> {
        let mut out = Vec::new();
        for (name, s) in KERNEL_NAMES.iter().zip(&self.slots) {
            for op in [KernelOp::Gemm, KernelOp::Gemv] {
                for (bi, &bits) in TRACKED_BITS.iter().enumerate() {
                    let n = s.calls[op.index()][bi].get();
                    if n > 0 {
                        out.push(Sample {
                            labels: vec![
                                ("kernel", name.to_string()),
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
        KERNEL_NAMES
            .iter()
            .zip(&self.slots)
            .filter(|(_, s)| s.groups.get() > 0)
            .map(|(name, s)| Sample {
                labels: vec![("kernel", name.to_string())],
                value: SampleValue::Counter(s.groups.get()),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::super::*;
    use super::Sample;
    use crate::{EngineConfig, RuntimeEngine, Tier};

    #[test]
    fn default_policy_mirrors_cache_availability() {
        let exact = |cache_bytes| {
            RuntimeEngine::new(EngineConfig {
                tier: Tier::Exact { cache_bytes },
                ..EngineConfig::default()
            })
        };
        assert_eq!(exact(0).kernel().name(), SCALAR_KERNEL);
        assert_eq!(exact(1 << 16).kernel().name(), BUCKETED_KERNEL);
    }

    /// `kernel op bits value` (or `kernel value`) per sample.
    fn render(samples: Vec<Sample>) -> Vec<String> {
        samples
            .into_iter()
            .map(|s| {
                let labels: Vec<String> = s.labels.into_iter().map(|(_, v)| v).collect();
                format!("{} {:?}", labels.join(" "), s.value)
            })
            .collect()
    }

    #[test]
    fn metrics_count_each_kernel_in_its_own_slot() {
        let metrics = KernelMetrics::default();
        metrics.record(&LaneKernel, KernelOp::Gemv, 2, 5);
        metrics.record(&LaneKernel, KernelOp::Gemv, 2, 5);
        metrics.record(&ScalarKernel, KernelOp::Gemm, 4, 3);
        assert_eq!(
            render(metrics.call_samples()),
            ["scalar-f64 gemm 4 Counter(1)", "lane-f32 gemv 2 Counter(2)"]
        );
        assert_eq!(
            render(metrics.group_samples()),
            ["scalar-f64 Counter(3)", "lane-f32 Counter(10)"]
        );
    }
}
