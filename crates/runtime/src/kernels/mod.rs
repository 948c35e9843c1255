//! The pluggable kernel layer: every way the runtime turns a
//! [`PackedLayer`] and an activation matrix into output rows lives behind
//! the [`MicroKernel`] trait, and a [`KernelRegistry`] picks the
//! implementation per call from a [`DispatchKey`] (activation columns
//! `m`, inlier bit width, outlier density, group size, group axis).
//!
//! Registered kernels:
//!
//! * [`ScalarKernel`] (`scalar-f64`) — the conformance **oracle**: walks
//!   packed groups in the dense reference's reduction order and
//!   accumulates in `f64`. Bit-identical to `dequantize().matmul(..)`.
//!   The only kernel that runs both group axes: every
//!   [`GroupAxis::OutputChannel`] layer executes here.
//! * [`LaneKernel`] (`lane-f32`) — the portable lane-blocked kernel, and
//!   the `Fast` pick on hosts without AVX2+FMA: decodes each group's
//!   unscaled codes into a stack-resident `f32` plane
//!   ([`PackedLayer::group`] → `decode_codes_f32`, no per-block
//!   allocation), runs an unrolled 8-wide loop over column lanes that the
//!   compiler vectorizes, with the per-group scale hoisted out, and fixes
//!   outliers up with exact `f64` multiply-adds. Matches the oracle
//!   within a pinned relative tolerance.
//! * [`BucketedCacheKernel`] (`bucketed-cache`) — executes from the
//!   engine's decoded-tile cache ([`crate::cache`]): code-bucketed tiles
//!   at `bb = 2`, flat `f32` tiles at `bb = 4`. Requires a cache in the
//!   [`KernelCtx`].
//! * [`SimdKernel`] (`simd-f32`) — explicit `std::arch` SIMD: AVX2+FMA on
//!   `x86_64`, registered only when runtime feature detection passes (and
//!   not force-disabled via `MICROSCOPIQ_SIMD=off`).
//!   Fuses in-register code decode (shift-based sign extension) with the
//!   FMA reduction; outliers fix up in exact `f64` like the lane kernel.
//!   The `Fast` pick for every uncached call it supports.
//!
//! The three non-oracle kernels run the [`GroupAxis::DotProduct`] layout
//! only — the paper's grouping, the `QuantConfig` default and the layout
//! of every model the runtime serves. Only the accelerator experiments
//! pack `OutputChannel` layers; dispatch sends those to the oracle.
//!
//! Selection is governed by [`KernelPolicy`] — see [`dispatch`] for the
//! policy table. The default policy is scalar when uncached and bucketed
//! tiles when cached — on `DotProduct` layers, the pre-dispatch engine
//! bit for bit.
//!
//! Every kernel pins a [`Tolerance`] against the scalar oracle
//! (`Bitwise` for the oracle itself); the kernel conformance suite
//! (`crates/runtime/tests/kernel_conformance.rs`) sweeps shapes × bit
//! widths × outlier regimes and asserts each registered kernel honors
//! its pin on the layouts it runs.
//!
//! [`PackedLayer`]: microscopiq_core::packed::PackedLayer
//! [`PackedLayer::group`]: microscopiq_core::packed::PackedLayer::group

pub mod bucketed;
pub mod dispatch;
pub mod lane;
pub mod scalar;
pub mod simd;
pub mod synth;

pub use bucketed::{BucketedCacheKernel, BUCKETED_KERNEL};
pub use dispatch::{KernelMetrics, KernelOp, KernelPolicy, KernelRegistry};
pub use lane::{LaneKernel, LANE_KERNEL, MAX_GROUP};
pub use scalar::{fused_gemm_serial, fused_gemv_serial, ScalarKernel, SCALAR_KERNEL};
pub use simd::{detected_cpu_features, SimdKernel, SIMD_KERNEL};

use crate::cache::DecodedCache;
use microscopiq_core::config::GroupAxis;
use microscopiq_core::packed::{GroupSpan, PackedLayer};
use microscopiq_linalg::Matrix;

/// Unregistered; kept for the frozen `benchmark/` package until ROADMAP 2(iv)'s benchmark PR.
pub const BUCKETED_LANE_KERNEL: &str = "bucketed-lane";

/// How far a kernel's output may sit from the scalar oracle. Pinned per
/// kernel and asserted by the conformance suite; loosening a pin is an
/// API change, not a test tweak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Every element equals the oracle bit for bit.
    Bitwise,
    /// Max absolute deviation per element.
    Abs(f64),
    /// Max deviation per element of `eps × (1 + |oracle|)` — relative
    /// with an absolute floor, for reduced-precision accumulation whose
    /// error scales with the output magnitude.
    Rel(f64),
}

impl Tolerance {
    /// The largest deviation this tolerance allows for an element whose
    /// oracle value is `reference`.
    pub fn allowed(&self, reference: f64) -> f64 {
        match *self {
            Tolerance::Bitwise => 0.0,
            Tolerance::Abs(eps) => eps,
            Tolerance::Rel(eps) => eps * (1.0 + reference.abs()),
        }
    }

    /// Whether `got` is acceptable against the oracle value `reference`.
    pub fn accepts(&self, got: f64, reference: f64) -> bool {
        match *self {
            Tolerance::Bitwise => got.to_bits() == reference.to_bits(),
            _ => (got - reference).abs() <= self.allowed(reference),
        }
    }
}

/// The shape/content features dispatch keys on: built once per GEMM call
/// from the layer (outlier density is memoized inside [`PackedLayer`], so
/// this is O(1) on the hot path).
#[derive(Debug, Clone, Copy)]
pub struct DispatchKey {
    /// Activation columns (`m = 1` is the decode GEMV shape).
    pub m: usize,
    /// Inlier bit budget `bb` (2 or 4).
    pub bits: u32,
    /// Fraction of micro-blocks carrying outlier metadata.
    pub outlier_frac: f64,
    /// Macro-block (group) size.
    pub group: usize,
    /// The axis groups run along; only the oracle runs `OutputChannel`.
    pub axis: GroupAxis,
}

impl DispatchKey {
    /// The key for one `W · acts` call with `m` activation columns.
    pub fn for_call(layer: &PackedLayer, m: usize) -> Self {
        Self {
            m,
            bits: layer.inlier_bits(),
            outlier_frac: layer.outlier_micro_block_fraction(),
            group: layer.macro_block(),
            axis: layer.axis(),
        }
    }
}

/// Per-call execution context handed to kernels: the engine's decoded-tile
/// cache (with the layer's content fingerprint as cache key), when one is
/// configured, and optionally a shared `f32` image of the activations so
/// tiled callers convert once per GEMM instead of once per tile.
#[derive(Debug, Clone, Copy)]
pub struct KernelCtx<'a> {
    /// `(cache, layer fingerprint)` when the engine runs with a decoded
    /// cache; `None` for cache-less execution.
    pub cache: Option<(&'a DecodedCache, u64)>,
    /// Precomputed `f32` copy of the full activation matrix (row-major,
    /// same shape as `acts`), for kernels that report
    /// [`MicroKernel::wants_f32_acts`]. Kernels fall back to converting
    /// locally when absent.
    pub acts32: Option<&'a [f32]>,
}

impl<'a> KernelCtx<'a> {
    /// A cache-less context.
    pub fn uncached() -> Self {
        Self {
            cache: None,
            acts32: None,
        }
    }

    /// A context backed by a decoded-tile cache keyed by the layer's
    /// content fingerprint.
    pub fn cached(cache: &'a DecodedCache, layer_id: u64) -> Self {
        Self {
            cache: Some((cache, layer_id)),
            acts32: None,
        }
    }

    /// The same context with a precomputed `f32` activation image
    /// attached (must be the row-major conversion of the `acts` the
    /// kernel will be called with).
    pub fn with_acts32(self, acts32: &'a [f32]) -> Self {
        Self {
            acts32: Some(acts32),
            ..self
        }
    }
}

/// One fused dequant-GEMM implementation. Kernels are stateless (any
/// per-call state lives in [`KernelCtx`] or on the stack), so one
/// instance serves every thread of the parallel executor.
///
/// The contract: `gemm_rows` *accumulates* `W · acts` for output rows
/// `[row_lo, row_hi)` into a zeroed, row-major `(row_hi − row_lo) ×
/// acts.cols()` buffer, and the result must match the scalar oracle
/// within [`MicroKernel::tolerance`].
///
/// `supports` mixes two kinds of answer. The **layout** — the group axis
/// and, for the `f32` kernels, a group of at most [`MAX_GROUP`] slots —
/// is a precondition: a kernel that refuses a layout asserts it on entry,
/// so a direct call outside it panics rather than computing garbage.
/// **Outlier density** is performance advice only: a kernel invoked
/// directly on an outlier-heavy layer it would refuse must still meet its
/// tolerance.
pub trait MicroKernel: Send + Sync + std::fmt::Debug {
    /// Registry name.
    fn name(&self) -> &'static str;

    /// Pinned deviation bound against the scalar oracle.
    fn tolerance(&self) -> Tolerance;

    /// Whether the dispatcher should consider this kernel for a call.
    fn supports(&self, key: &DispatchKey, ctx: &KernelCtx<'_>) -> bool;

    /// Whether the kernel reads [`KernelCtx::acts32`] when present — a
    /// tiled caller then converts the activations once per GEMM rather
    /// than paying one conversion per tile.
    fn wants_f32_acts(&self) -> bool {
        false
    }

    /// Accumulates output rows `[row_lo, row_hi)` of `W · acts` into
    /// `out` (zeroed, row-major `(row_hi − row_lo) × acts.cols()`).
    ///
    /// Precondition: on an [`GroupAxis::OutputChannel`] layer (which only
    /// the scalar oracle accepts), `row_lo` and `row_hi` must align to
    /// macro-block boundaries (`row_hi` may be `d_row`) — groups span
    /// whole macro-blocks of output rows there, and the oracle indexes
    /// `span.offset - row_lo` on that assumption.
    /// [`RuntimeEngine`](crate::RuntimeEngine) quantizes its tile edges
    /// accordingly; direct callers must too. `DotProduct` tiles may cut
    /// anywhere.
    ///
    /// # Panics
    ///
    /// Panics on a layout the kernel does not run (see the trait docs).
    /// May panic on dimension mismatches (`acts.rows() != layer.d_col()`,
    /// `out` too short) — the engine validates before dispatching — and
    /// on unaligned `OutputChannel` row ranges (usize underflow).
    fn gemm_rows(
        &self,
        ctx: &KernelCtx<'_>,
        layer: &PackedLayer,
        acts: &Matrix,
        row_lo: usize,
        row_hi: usize,
        out: &mut [f64],
    );

    /// Accumulates output rows `[row_lo, row_hi)` of `W · x` for a single
    /// activation column into `out` (zeroed, `row_hi − row_lo` elements).
    /// The default routes through [`MicroKernel::gemm_rows`]; kernels with
    /// a shape-specialized GEMV override it.
    ///
    /// The same `OutputChannel` alignment precondition as
    /// [`MicroKernel::gemm_rows`] applies. Additionally — the
    /// **parallel-GEMV determinism contract** — a restricted row range
    /// must accumulate each output element in exactly the order the full
    /// range would, so that tiles computed on separate threads and
    /// stitched at fixed split points reproduce the serial result bit for
    /// bit.
    fn gemv_rows(
        &self,
        ctx: &KernelCtx<'_>,
        layer: &PackedLayer,
        x: &[f64],
        row_lo: usize,
        row_hi: usize,
        out: &mut [f64],
    ) {
        let acts = Matrix::from_vec(x.len(), 1, x.to_vec());
        self.gemm_rows(ctx, layer, &acts, row_lo, row_hi, out);
    }

    /// Accumulates the full `W · x` product for a single activation
    /// column into `out` (zeroed, `layer.d_row()` elements). Routes
    /// through [`MicroKernel::gemv_rows`] at the full row range.
    fn gemv(&self, ctx: &KernelCtx<'_>, layer: &PackedLayer, x: &[f64], out: &mut [f64]) {
        self.gemv_rows(ctx, layer, x, 0, layer.d_row(), out);
    }
}

/// Asserts the layout precondition of the `f32` kernels: `DotProduct`
/// groups of at most [`MAX_GROUP`] slots.
#[inline]
pub(crate) fn assert_f32_layout(layer: &PackedLayer, kernel: &str) {
    assert_eq!(
        layer.axis(),
        GroupAxis::DotProduct,
        "{kernel} runs DotProduct layers only"
    );
    assert!(
        layer.macro_block() <= MAX_GROUP,
        "{kernel} group plane holds at most {MAX_GROUP} slots"
    );
}

/// Group indices contributing to output rows `[row_lo, row_hi)`, in an
/// order that keeps per-output-element accumulation ascending in `k`.
///
/// * `DotProduct`: rows are lines; every group of lines `row_lo..row_hi`
///   contributes. The walk is k-block-major (macro-block position outer,
///   line inner) so one activation block stays cache-hot across all
///   output rows — the same blocking the dense matmul uses. Per output
///   row the macro-block position still ascends, so per-element
///   accumulation order is unchanged.
/// * `OutputChannel`: rows are `offset` positions; the groups at
///   macro-block positions covering the row range contribute, walked with
///   the line (= reduction index) outermost.
pub fn groups_for_rows(layer: &PackedLayer, row_lo: usize, row_hi: usize) -> Vec<usize> {
    let per_line = layer.groups_per_line();
    match layer.axis() {
        GroupAxis::DotProduct => {
            let mut order = Vec::with_capacity((row_hi - row_lo) * per_line);
            for mab in 0..per_line {
                for line in row_lo..row_hi {
                    order.push(line * per_line + mab);
                }
            }
            order
        }
        GroupAxis::OutputChannel => {
            let mab_lo = row_lo / layer.macro_block();
            let mab_hi = row_hi.div_ceil(layer.macro_block());
            let mut order = Vec::with_capacity((mab_hi - mab_lo) * layer.lines());
            for line in 0..layer.lines() {
                for mab in mab_lo..mab_hi {
                    order.push(line * per_line + mab);
                }
            }
            order
        }
    }
}

/// Walks every group contributing to output rows `[row_lo, row_hi)` in
/// oracle order ([`groups_for_rows`]), decoding each into one reused
/// buffer and handing `f` the span plus the decoded `f64` values — the
/// shared group-decode loop for kernels that consume dense group values
/// (both the scalar GEMM and GEMV run through here).
pub fn for_each_decoded_group(
    layer: &PackedLayer,
    row_lo: usize,
    row_hi: usize,
    mut f: impl FnMut(GroupSpan, &[f64]),
) {
    let mut buf = vec![0.0_f64; layer.macro_block()];
    for g in groups_for_rows(layer, row_lo, row_hi) {
        let view = layer.group(g);
        let span = view.span();
        view.decode_into(&mut buf);
        f(span, &buf[..span.len]);
    }
}

/// Splits `n` output columns into fixed-width chunks (8, then 4/2/1 for
/// the remainder) so lane kernels run on compile-time widths.
pub fn for_col_chunks(n: usize, mut f: impl FnMut(usize, usize)) {
    let mut c0 = 0;
    while n - c0 >= 8 {
        f(c0, 8);
        c0 += 8;
    }
    for w in [4, 2, 1] {
        while n - c0 >= w {
            f(c0, w);
            c0 += w;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::synth::{synth_packed, SynthSpec};
    use super::*;

    #[test]
    fn group_order_covers_every_group_once() {
        for (axis, rows, cols) in [
            (GroupAxis::DotProduct, 24, 48),
            (GroupAxis::OutputChannel, 32, 16),
        ] {
            let layer = synth_packed(&SynthSpec {
                axis,
                d_row: rows,
                d_col: cols,
                bits: 2,
                outlier_rate: 0.1,
                seed: 7,
                ..SynthSpec::default()
            });
            let mut order = groups_for_rows(&layer, 0, layer.d_row());
            order.sort_unstable();
            let expect: Vec<usize> = (0..layer.num_groups()).collect();
            assert_eq!(order, expect, "{axis:?}");
        }
    }

    #[test]
    fn decoded_group_walk_matches_direct_decode() {
        let layer = synth_packed(&SynthSpec {
            axis: GroupAxis::DotProduct,
            d_row: 8,
            d_col: 40,
            bits: 4,
            outlier_rate: 0.3,
            seed: 3,
            ..SynthSpec::default()
        });
        let mut walked = 0usize;
        for_each_decoded_group(&layer, 0, layer.d_row(), |span, w| {
            assert_eq!(w.len(), span.len);
            let mut direct = vec![0.0; layer.macro_block()];
            // Spans identify the group uniquely; re-derive its index.
            let per_line = layer.groups_per_line();
            let g = span.line * per_line + span.offset / layer.macro_block();
            layer.decode_group_into(g, &mut direct);
            assert_eq!(w, &direct[..span.len]);
            walked += 1;
        });
        assert_eq!(walked, layer.num_groups());
    }

    #[test]
    fn tolerance_semantics() {
        assert!(Tolerance::Bitwise.accepts(1.5, 1.5));
        assert!(!Tolerance::Bitwise.accepts(1.5 + f64::EPSILON, 1.5));
        assert!(Tolerance::Abs(1e-9).accepts(1.0 + 1e-10, 1.0));
        assert!(!Tolerance::Abs(1e-9).accepts(1.0 + 1e-8, 1.0));
        // Rel scales with the oracle magnitude and keeps a floor at 0.
        assert!(Tolerance::Rel(1e-3).accepts(100.05, 100.0));
        assert!(!Tolerance::Rel(1e-3).accepts(100.2, 100.0));
        assert!(Tolerance::Rel(1e-3).accepts(5e-4, 0.0));
    }

    #[test]
    fn col_chunks_tile_exactly() {
        for n in [1usize, 2, 3, 7, 8, 9, 15, 16, 31] {
            let mut covered = vec![false; n];
            for_col_chunks(n, |c0, w| {
                assert!([8, 4, 2, 1].contains(&w));
                for (c, slot) in covered.iter_mut().enumerate().skip(c0).take(w) {
                    assert!(!*slot, "column {c} chunked twice (n={n})");
                    *slot = true;
                }
            });
            assert!(covered.iter().all(|&c| c), "n={n} not fully covered");
        }
    }
}
