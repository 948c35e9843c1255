//! The kernel layer: every way the runtime turns a [`PackedLayer`] and an
//! activation matrix into output rows lives behind the [`MicroKernel`]
//! trait. There are four kernels, and an engine's tier picks its one
//! kernel at construction (see [`dispatch`] for the pick table):
//!
//! * [`ScalarKernel`] (`scalar-f64`) — the conformance **oracle**: walks
//!   packed groups in the dense reference's reduction order and
//!   accumulates in `f64`. Bit-identical to `dequantize().matmul(..)`.
//! * [`BucketedCacheKernel`] (`bucketed-cache`) — executes from the
//!   engine's decoded-tile cache ([`crate::cache`]): code-bucketed tiles
//!   at `bb = 2`, flat `f32` tiles at `bb = 4`. Requires a cache in the
//!   [`KernelCtx`]. The exact tier's kernel when it has a cache.
//! * [`LaneKernel`] (`lane-f32`) — the portable lane-blocked kernel, and
//!   the fast tier's kernel on hosts without AVX2+FMA: decodes each
//!   group's unscaled codes into a stack-resident `f32` plane
//!   ([`PackedLayer::group`] → `decode_codes_f32`, no per-block
//!   allocation), runs an unrolled 8-wide loop over column lanes that the
//!   compiler vectorizes, with the per-group scale hoisted out, and fixes
//!   outliers up with exact `f64` multiply-adds. Matches the oracle
//!   within a pinned relative tolerance.
//! * [`SimdKernel`] (`simd-f32`) — explicit `std::arch` SIMD: AVX2+FMA on
//!   `x86_64`, available only when runtime feature detection passes (and
//!   not force-disabled via `MICROSCOPIQ_SIMD=off`).
//!   Fuses in-register code decode (shift-based sign extension) with the
//!   FMA reduction; outliers fix up in exact `f64` like the lane kernel.
//!   The fast tier's kernel wherever it is available.
//!
//! The runtime executes one layout, the one every served model has:
//! [`GroupAxis::DotProduct`] groups of at most [`MAX_GROUP`] slots,
//! checked once where a model enters serving
//! (`PackedTinyFm::quantize_from`). Every kernel asserts the axis on
//! entry, and the two `f32` kernels, whose group planes live on the
//! stack, the group size too.
//!
//! Every kernel pins a [`Tolerance`] against the scalar oracle
//! (`Bitwise` for the oracle itself); the kernel conformance suite
//! (`crates/runtime/tests/kernel_conformance.rs`) sweeps shapes × bit
//! widths × outlier regimes and asserts each kernel of [`available`]
//! honors its pin.
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
pub use dispatch::{KernelMetrics, KernelOp};
pub use lane::{LaneKernel, LANE_KERNEL};
pub use microscopiq_fm::MAX_GROUP;
pub use scalar::{fused_gemm_serial, fused_gemv_serial, ScalarKernel, SCALAR_KERNEL};
pub use simd::{detected_cpu_features, SimdKernel, SIMD_KERNEL};

use crate::cache::DecodedCache;
use microscopiq_core::config::GroupAxis;
use microscopiq_core::packed::{GroupSpan, PackedLayer};
use microscopiq_linalg::Matrix;

/// No kernel by this name; kept for the frozen `benchmark/` package until ROADMAP 2(iv)'s benchmark PR.
pub const BUCKETED_LANE_KERNEL: &str = "bucketed-lane";

/// The four kernels' names in a fixed order: a kernel's position here is
/// its [`MicroKernel::index`], and its slot in [`KernelMetrics`].
pub const KERNEL_NAMES: [&str; 4] = [SCALAR_KERNEL, BUCKETED_KERNEL, LANE_KERNEL, SIMD_KERNEL];

/// The kernels this host runs, in [`KERNEL_NAMES`] order: the scalar
/// oracle, `bucketed-cache` and `lane-f32` everywhere, plus `simd-f32`
/// when [`SimdKernel::try_new`] finds it. The conformance suite and the
/// `kernels` bench iterate this list.
pub fn available() -> Vec<&'static dyn MicroKernel> {
    let mut kernels: Vec<&'static dyn MicroKernel> =
        vec![&ScalarKernel, &BucketedCacheKernel, &LaneKernel];
    if let Some(simd) = SimdKernel::try_new() {
        kernels.push(simd);
    }
    kernels
}

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
/// Every kernel runs `DotProduct` layers only, the two `f32` kernels
/// groups of at most [`MAX_GROUP`] slots. A kernel asserts its layout on
/// entry, so a direct call outside it panics rather than computing
/// garbage. Outlier density is no precondition: every kernel meets its
/// tolerance at any density.
pub trait MicroKernel: Send + Sync + std::fmt::Debug {
    /// The kernel's position in [`KERNEL_NAMES`].
    fn index(&self) -> usize;

    /// The kernel's name (`scalar-f64`, `bucketed-cache`, `lane-f32`,
    /// `simd-f32`).
    fn name(&self) -> &'static str {
        KERNEL_NAMES[self.index()]
    }

    /// Pinned deviation bound against the scalar oracle.
    fn tolerance(&self) -> Tolerance;

    /// Whether the kernel reads [`KernelCtx::acts32`] when present — a
    /// tiled caller then converts the activations once per GEMM rather
    /// than paying one conversion per tile.
    fn wants_f32_acts(&self) -> bool {
        false
    }

    /// Accumulates output rows `[row_lo, row_hi)` of `W · acts` into
    /// `out` (zeroed, row-major `(row_hi − row_lo) × acts.cols()`).
    ///
    /// # Panics
    ///
    /// Panics on a layout the kernel does not run (see the trait docs).
    /// May panic on dimension mismatches (`acts.rows() != layer.d_col()`,
    /// `out` too short) — the engine validates before dispatching.
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
    /// activation column into `out` (zeroed, `row_hi − row_lo` elements):
    /// the m = 1 decode shape, without staging `x` as a one-column
    /// [`Matrix`].
    ///
    /// The **parallel-GEMV determinism contract**: a restricted row range
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
    );

    /// Accumulates the full `W · x` product for a single activation
    /// column into `out` (zeroed, `layer.d_row()` elements). Routes
    /// through [`MicroKernel::gemv_rows`] at the full row range.
    fn gemv(&self, ctx: &KernelCtx<'_>, layer: &PackedLayer, x: &[f64], out: &mut [f64]) {
        self.gemv_rows(ctx, layer, x, 0, layer.d_row(), out);
    }
}

/// Asserts every kernel's layout precondition: a `DotProduct` layer.
#[inline]
pub(crate) fn assert_dot_product(layer: &PackedLayer, kernel: &str) {
    assert_eq!(
        layer.axis(),
        GroupAxis::DotProduct,
        "{kernel} runs DotProduct layers only"
    );
}

/// Asserts the layout precondition of the `f32` kernels: `DotProduct`
/// groups of at most [`MAX_GROUP`] slots.
#[inline]
pub(crate) fn assert_f32_layout(layer: &PackedLayer, kernel: &str) {
    assert_dot_product(layer, kernel);
    assert!(
        layer.macro_block() <= MAX_GROUP,
        "{kernel} group plane holds at most {MAX_GROUP} slots"
    );
}

/// Group indices contributing to output rows `[row_lo, row_hi)`, in an
/// order that keeps per-output-element accumulation ascending in `k`:
/// every group of lines `row_lo..row_hi`, walked k-block-major
/// (macro-block position outer, line inner) so one activation block stays
/// cache-hot across all output rows — the same blocking the dense matmul
/// uses. Per output row the macro-block position still ascends, so
/// per-element accumulation order is unchanged.
pub fn groups_for_rows(
    layer: &PackedLayer,
    row_lo: usize,
    row_hi: usize,
) -> impl Iterator<Item = usize> + Clone {
    let per_line = layer.groups_per_line();
    (0..per_line).flat_map(move |mab| (row_lo..row_hi).map(move |line| line * per_line + mab))
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
        let layer = synth_packed(&SynthSpec {
            d_row: 24,
            d_col: 48,
            bits: 2,
            outlier_rate: 0.1,
            seed: 7,
            ..SynthSpec::default()
        });
        let mut order: Vec<usize> = groups_for_rows(&layer, 0, layer.d_row()).collect();
        order.sort_unstable();
        let expect: Vec<usize> = (0..layer.num_groups()).collect();
        assert_eq!(order, expect);
    }

    #[test]
    fn decoded_group_walk_matches_direct_decode() {
        let layer = synth_packed(&SynthSpec {
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
    fn available_kernels_sit_at_their_index() {
        let names: Vec<&str> = available().iter().map(|k| k.name()).collect();
        let simd = SimdKernel::try_new().map(|_| SIMD_KERNEL);
        let want: Vec<&str> = [SCALAR_KERNEL, BUCKETED_KERNEL, LANE_KERNEL]
            .into_iter()
            .chain(simd)
            .collect();
        assert_eq!(names, want);
        for kernel in available() {
            assert_eq!(KERNEL_NAMES[kernel.index()], kernel.name());
        }
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
