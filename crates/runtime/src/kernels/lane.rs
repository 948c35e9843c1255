//! The lane-blocked `f32` kernel: the portable fast path the dispatch
//! layer selects for uncached GEMM/GEMV on supported shapes when the
//! explicit SIMD kernel is not registered (no AVX2+FMA, a host other
//! than `x86_64`, or `MICROSCOPIQ_SIMD=off`).
//!
//! Supported layout: `DotProduct` groups of at most [`MAX_GROUP`] slots,
//! asserted on entry; `OutputChannel` layers run on the scalar oracle.
//!
//! Strategy (per macro-block group):
//!
//! 1. **Stack-resident code plane.** The group's unscaled inlier codes
//!    decode into a `[f32; MAX_GROUP]` on the stack through the borrowed
//!    [`GroupView::decode_codes_f32`] API — no per-block allocation, and
//!    integer codes are exact in `f32`.
//! 2. **Scale hoisting.** Inliers decode to `code × 2^Isf` with one scale
//!    per group, so the inner loop accumulates raw `code × activation`
//!    partial sums and multiplies by the scale once per group per lane
//!    block — the per-element scale multiply that dominates per-group
//!    quantized kernels (see "Finer is Better" / the IBM microscaling
//!    study) is amortized to `1/group_len`.
//! 3. **8-wide FMA lanes.** Activation columns process in compile-time
//!    chunks of 8 (then 4/2/1 for the remainder) with the running sums in
//!    a `[f32; N]` register block — a branchless, unrolled inner loop the
//!    compiler autovectorizes (zero codes multiply to zero instead of
//!    branching).
//! 4. **Exact outlier fixups.** Outlier slots are zeroed in the plane and
//!    their exact `f64` decoded values accumulate separately in full
//!    precision, so the large-magnitude outliers the paper's format
//!    protects never see `f32` rounding.
//!
//! Numerics: activations and inlier products round to `f32`
//! (outliers stay exact), so results match the scalar oracle within the
//! pinned [`Tolerance::Rel`] bound rather than bitwise. The conformance
//! suite asserts the pin across shapes × widths × outlier regimes.
//!
//! [`GroupView::decode_codes_f32`]: microscopiq_core::packed::GroupView::decode_codes_f32

use super::{
    assert_f32_layout, for_col_chunks, groups_for_rows, DispatchKey, KernelCtx, MicroKernel,
    Tolerance,
};
use microscopiq_core::config::GroupAxis;
use microscopiq_core::packed::PackedLayer;
use microscopiq_linalg::Matrix;

/// Registry name of the lane-blocked `f32` kernel.
pub const LANE_KERNEL: &str = "lane-f32";

/// Largest group (macro-block) size the stack-resident code plane holds.
pub const MAX_GROUP: usize = 256;

/// Outlier micro-block fraction above which dispatch prefers the scalar
/// oracle: when most blocks carry outliers, the exact `f64` fixup loop
/// dominates and the `f32` lane work is overhead. (The kernel stays
/// *correct* beyond this density — `supports` is performance advice.)
pub(crate) const MAX_OUTLIER_FRAC: f64 = 0.5;

/// The lane-blocked `f32` kernel. Stateless; ignores the decoded cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaneKernel;

/// One group's contribution to one output row: `orow32[c] += scale ×
/// Σ_k plane[k] · acts32[k][c]` over a compile-time block of `N` columns,
/// with the partial sums held in registers and the scale applied once at
/// the end.
#[inline]
fn row_lanes<const N: usize>(
    plane: &[f32],
    acts32: &[f32],
    k0: usize,
    n: usize,
    c0: usize,
    scale: f32,
    orow32: &mut [f32],
) {
    let mut acc = [0.0_f32; N];
    for (i, &c) in plane.iter().enumerate() {
        let a: &[f32; N] = acts32[(k0 + i) * n + c0..][..N]
            .try_into()
            .expect("chunk width");
        for j in 0..N {
            acc[j] += c * a[j];
        }
    }
    let o: &mut [f32; N] = (&mut orow32[c0..][..N]).try_into().expect("chunk width");
    for j in 0..N {
        o[j] += scale * acc[j];
    }
}

/// 8-lane blocked dot product with a scalar tail; partial lane sums
/// reduce pairwise at the end.
#[inline]
fn dot_lanes(w: &[f32], x: &[f32]) -> f32 {
    let mut acc = [0.0_f32; 8];
    let mut wc = w.chunks_exact(8);
    let mut xc = x.chunks_exact(8);
    for (cw, cx) in (&mut wc).zip(&mut xc) {
        let cw: &[f32; 8] = cw.try_into().expect("chunk of 8");
        let cx: &[f32; 8] = cx.try_into().expect("chunk of 8");
        for j in 0..8 {
            acc[j] += cw[j] * cx[j];
        }
    }
    let mut tail = 0.0_f32;
    for (a, b) in wc.remainder().iter().zip(xc.remainder().iter()) {
        tail += a * b;
    }
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7])) + tail
}

impl MicroKernel for LaneKernel {
    fn name(&self) -> &'static str {
        LANE_KERNEL
    }

    fn tolerance(&self) -> Tolerance {
        // f32 accumulation over the reduction dimension; pinned with
        // headroom over the observed ~1e-5 worst case at k = 2048.
        Tolerance::Rel(1e-3)
    }

    fn supports(&self, key: &DispatchKey, _ctx: &KernelCtx<'_>) -> bool {
        key.axis == GroupAxis::DotProduct
            && key.group <= MAX_GROUP
            && key.outlier_frac <= MAX_OUTLIER_FRAC
    }

    fn wants_f32_acts(&self) -> bool {
        true // a tiled caller should convert the activations once per GEMM
    }

    fn gemm_rows(
        &self,
        ctx: &KernelCtx<'_>,
        layer: &PackedLayer,
        acts: &Matrix,
        row_lo: usize,
        row_hi: usize,
        out: &mut [f64],
    ) {
        assert_f32_layout(layer, LANE_KERNEL);
        let n = acts.cols();
        let rows = row_hi - row_lo;
        // The f32 image of the activations: shared through the context
        // when a tiled caller precomputed it, converted here otherwise
        // (then amortized over every group in the tile). One f32 lane
        // accumulator per tile; outliers accumulate separately, exactly,
        // straight into `out`.
        let local32: Vec<f32>;
        let acts32: &[f32] = match ctx.acts32 {
            Some(shared) => {
                debug_assert_eq!(shared.len(), acts.as_slice().len(), "acts32 shape");
                shared
            }
            None => {
                local32 = acts.as_slice().iter().map(|&v| v as f32).collect();
                &local32
            }
        };
        let mut lane_acc = vec![0.0_f32; rows * n];
        let mut plane = [0.0_f32; MAX_GROUP];
        for g in groups_for_rows(layer, row_lo, row_hi) {
            let view = layer.group(g);
            let span = view.span();
            let scale = view.isf().value() as f32;
            let r = span.line - row_lo;
            {
                let orow64 = &mut out[r * n..(r + 1) * n];
                view.decode_codes_f32(&mut plane[..span.len], |slot, v| {
                    let arow = acts.row(span.offset + slot);
                    for (o, a) in orow64.iter_mut().zip(arow.iter()) {
                        *o += v * a;
                    }
                });
            }
            let orow32 = &mut lane_acc[r * n..(r + 1) * n];
            for_col_chunks(n, |c0, width| match width {
                8 => row_lanes::<8>(
                    &plane[..span.len],
                    acts32,
                    span.offset,
                    n,
                    c0,
                    scale,
                    orow32,
                ),
                4 => row_lanes::<4>(
                    &plane[..span.len],
                    acts32,
                    span.offset,
                    n,
                    c0,
                    scale,
                    orow32,
                ),
                2 => row_lanes::<2>(
                    &plane[..span.len],
                    acts32,
                    span.offset,
                    n,
                    c0,
                    scale,
                    orow32,
                ),
                _ => row_lanes::<1>(
                    &plane[..span.len],
                    acts32,
                    span.offset,
                    n,
                    c0,
                    scale,
                    orow32,
                ),
            });
        }
        for (o, &l) in out.iter_mut().zip(lane_acc.iter()) {
            *o += l as f64;
        }
    }

    fn gemv_rows(
        &self,
        ctx: &KernelCtx<'_>,
        layer: &PackedLayer,
        x: &[f64],
        row_lo: usize,
        row_hi: usize,
        out: &mut [f64],
    ) {
        assert_f32_layout(layer, LANE_KERNEL);
        // Restricted ranges visit the same groups in the same per-element
        // order as the full range (groups_for_rows keeps per-row k
        // ascending), so tiled GEMV stitches bitwise — the parallel-GEMV
        // determinism contract.
        let local32: Vec<f32>;
        let x32: &[f32] = match ctx.acts32 {
            Some(shared) => {
                debug_assert_eq!(shared.len(), x.len(), "acts32 shape");
                shared
            }
            None => {
                local32 = x.iter().map(|&v| v as f32).collect();
                &local32
            }
        };
        let mut lane_acc = vec![0.0_f32; row_hi - row_lo];
        let mut plane = [0.0_f32; MAX_GROUP];
        for g in groups_for_rows(layer, row_lo, row_hi) {
            let view = layer.group(g);
            let span = view.span();
            let scale = view.isf().value() as f32;
            let r = span.line - row_lo;
            {
                let acc = &mut out[r];
                view.decode_codes_f32(&mut plane[..span.len], |slot, v| {
                    *acc += v * x[span.offset + slot];
                });
            }
            let dot = dot_lanes(
                &plane[..span.len],
                &x32[span.offset..span.offset + span.len],
            );
            lane_acc[r] += scale * dot;
        }
        for (o, &l) in out.iter_mut().zip(lane_acc.iter()) {
            *o += l as f64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::synth::{synth_packed, SynthSpec};
    use super::super::{fused_gemm_serial, fused_gemv_serial};
    use super::*;
    use microscopiq_linalg::SeededRng;

    fn check_within(tol: Tolerance, got: &[f64], oracle: &[f64], what: &str) {
        assert_eq!(got.len(), oracle.len());
        for (i, (&a, &b)) in got.iter().zip(oracle.iter()).enumerate() {
            assert!(
                tol.accepts(a, b),
                "{what}: element {i} off by {} (allowed {})",
                (a - b).abs(),
                tol.allowed(b)
            );
        }
    }

    #[test]
    fn lane_gemm_matches_oracle_within_pin_all_regimes() {
        for bits in [2u32, 4] {
            for rate in [0.0, 0.1, 0.9] {
                let layer = synth_packed(&SynthSpec {
                    d_row: 48,
                    d_col: 64,
                    bits,
                    outlier_rate: rate,
                    seed: 11,
                    ..SynthSpec::default()
                });
                let mut rng = SeededRng::new(5);
                // n = 13 exercises the 8 + 4 + 1 chunk split.
                let acts = Matrix::from_fn(64, 13, |_, _| rng.normal(0.0, 1.0));
                let oracle = fused_gemm_serial(&layer, &acts);
                let mut got = Matrix::zeros(48, 13);
                LaneKernel.gemm_rows(
                    &KernelCtx::uncached(),
                    &layer,
                    &acts,
                    0,
                    48,
                    got.as_mut_slice(),
                );
                check_within(
                    LaneKernel.tolerance(),
                    got.as_slice(),
                    oracle.as_slice(),
                    &format!("bits={bits} rate={rate}"),
                );
            }
        }
    }

    #[test]
    fn lane_gemm_row_tiles_stitch_to_full_result() {
        let layer = synth_packed(&SynthSpec {
            axis: GroupAxis::DotProduct,
            d_row: 32,
            d_col: 48,
            bits: 2,
            outlier_rate: 0.15,
            seed: 23,
            ..SynthSpec::default()
        });
        let mut rng = SeededRng::new(6);
        let acts = Matrix::from_fn(48, 9, |_, _| rng.normal(0.0, 1.0));
        let mut full = Matrix::zeros(32, 9);
        LaneKernel.gemm_rows(
            &KernelCtx::uncached(),
            &layer,
            &acts,
            0,
            32,
            full.as_mut_slice(),
        );
        // 32 rows in tiles of 10/10/10/2 — tiled execution must equal the
        // single-call result exactly (each row's sum order is unchanged).
        let mut stitched = Matrix::zeros(32, 9);
        for (lo, hi) in [(0usize, 10usize), (10, 20), (20, 30), (30, 32)] {
            let mut tile = vec![0.0_f64; (hi - lo) * 9];
            LaneKernel.gemm_rows(&KernelCtx::uncached(), &layer, &acts, lo, hi, &mut tile);
            stitched.as_mut_slice()[lo * 9..hi * 9].copy_from_slice(&tile);
        }
        assert_eq!(full, stitched);
    }

    #[test]
    fn lane_gemv_matches_oracle_within_pin() {
        for bits in [2u32, 4] {
            let layer = synth_packed(&SynthSpec {
                d_row: 40,
                d_col: 56,
                bits,
                outlier_rate: 0.2,
                seed: 31,
                ..SynthSpec::default()
            });
            let mut rng = SeededRng::new(9);
            let x: Vec<f64> = (0..56).map(|_| rng.normal(0.0, 1.0)).collect();
            let oracle = fused_gemv_serial(&layer, &x);
            let mut got = vec![0.0_f64; 40];
            LaneKernel.gemv(&KernelCtx::uncached(), &layer, &x, &mut got);
            check_within(
                LaneKernel.tolerance(),
                &got,
                &oracle,
                &format!("gemv bits={bits}"),
            );
        }
    }

    #[test]
    #[should_panic(expected = "runs DotProduct layers only")]
    fn output_channel_gemm_panics() {
        let layer = synth_packed(&SynthSpec {
            axis: GroupAxis::OutputChannel,
            ..SynthSpec::default()
        });
        let acts = Matrix::zeros(layer.d_col(), 2);
        let mut out = vec![0.0; layer.d_row() * 2];
        LaneKernel.gemm_rows(
            &KernelCtx::uncached(),
            &layer,
            &acts,
            0,
            layer.d_row(),
            &mut out,
        );
    }

    #[test]
    #[should_panic(expected = "runs DotProduct layers only")]
    fn output_channel_gemv_panics() {
        let layer = synth_packed(&SynthSpec {
            axis: GroupAxis::OutputChannel,
            ..SynthSpec::default()
        });
        let x = vec![0.0; layer.d_col()];
        let mut out = vec![0.0; layer.d_row()];
        LaneKernel.gemv(&KernelCtx::uncached(), &layer, &x, &mut out);
    }

    #[test]
    fn shared_f32_image_equals_local_conversion() {
        // A tiled caller hands the same f32 image through the context
        // that the kernel would build itself — results must be identical
        // bit for bit.
        let layer = synth_packed(&SynthSpec {
            axis: GroupAxis::DotProduct,
            d_row: 24,
            d_col: 48,
            bits: 2,
            outlier_rate: 0.1,
            seed: 41,
            ..SynthSpec::default()
        });
        assert!(LaneKernel.wants_f32_acts());
        let mut rng = SeededRng::new(42);
        let acts = Matrix::from_fn(48, 9, |_, _| rng.normal(0.0, 1.0));
        let mut local = vec![0.0_f64; 24 * 9];
        LaneKernel.gemm_rows(&KernelCtx::uncached(), &layer, &acts, 0, 24, &mut local);
        let image: Vec<f32> = acts.as_slice().iter().map(|&v| v as f32).collect();
        let mut shared = vec![0.0_f64; 24 * 9];
        LaneKernel.gemm_rows(
            &KernelCtx::uncached().with_acts32(&image),
            &layer,
            &acts,
            0,
            24,
            &mut shared,
        );
        assert_eq!(local, shared);
    }

    #[test]
    fn dispatch_advice_rejects_unsupported_regimes() {
        let k = LaneKernel;
        let ctx = KernelCtx::uncached();
        let key = |group, frac| DispatchKey {
            m: 8,
            bits: 2,
            outlier_frac: frac,
            group,
            axis: GroupAxis::DotProduct,
        };
        assert!(k.supports(&key(64, 0.03), &ctx));
        let output_channel = DispatchKey {
            axis: GroupAxis::OutputChannel,
            ..key(64, 0.03)
        };
        assert!(!k.supports(&output_channel, &ctx), "OutputChannel layout");
        assert!(
            !k.supports(&key(MAX_GROUP + 1, 0.03), &ctx),
            "group too big"
        );
        assert!(!k.supports(&key(64, 0.8), &ctx), "outlier-heavy");
    }
}
