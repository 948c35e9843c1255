//! The scalar `f64` reference kernel — the conformance **oracle** every
//! other kernel is measured against.
//!
//! It computes `W · X` directly from a [`PackedLayer`], walking
//! macro-blocks in layout order, decoding each group (Isf inlier scale,
//! MXScale outlier exponent, Upper/Lower half reassembly through the
//! permutation list) into one reused buffer, and accumulating scaled
//! activation rows into the output — the dense weight matrix is never
//! materialized.
//!
//! Accumulation order is chosen to be *bit-identical* to
//! `layer.dequantize().matmul(x)`: for every output element,
//! contributions arrive in ascending reduction index `k`, which is also
//! the order the dense blocked matmul uses. Skipped zero weights add
//! exactly nothing, so this kernel and the dense reference agree to the
//! last ulp — which is why its pinned tolerance is [`Tolerance::Bitwise`].

use super::{assert_dot_product, for_each_decoded_group, KernelCtx, MicroKernel, Tolerance};
use microscopiq_core::packed::{GroupSpan, PackedLayer};
use microscopiq_linalg::Matrix;

/// Name of the scalar oracle kernel.
pub const SCALAR_KERNEL: &str = "scalar-f64";

/// Accumulates one decoded macro-block span into the output.
///
/// * `w` — decoded weights for the span (`span.len` values);
/// * `acts` — activations, `d_col × n`;
/// * `out` — output buffer rows `[row_base, row_base + out_rows)` of the
///   full `d_row × n` result, stored row-major in `out`.
///
/// The span lives on output row `span.line`; a span outside `[row_base,
/// row_base + out_rows)` is the caller's bug.
fn accumulate_span(
    span: &GroupSpan,
    w: &[f64],
    acts: &Matrix,
    out: &mut [f64],
    row_base: usize,
    n: usize,
) {
    let r = span.line - row_base;
    let orow = &mut out[r * n..(r + 1) * n];
    for (i, &wv) in w.iter().enumerate() {
        if wv == 0.0 {
            continue;
        }
        let arow = acts.row(span.offset + i);
        for (o, a) in orow.iter_mut().zip(arow.iter()) {
            *o += wv * a;
        }
    }
}

/// The scalar `f64` oracle kernel. Stateless; ignores the execution
/// context (it never touches the decoded cache).
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarKernel;

impl MicroKernel for ScalarKernel {
    fn index(&self) -> usize {
        0
    }

    fn tolerance(&self) -> Tolerance {
        Tolerance::Bitwise
    }

    fn gemm_rows(
        &self,
        _ctx: &KernelCtx<'_>,
        layer: &PackedLayer,
        acts: &Matrix,
        row_lo: usize,
        row_hi: usize,
        out: &mut [f64],
    ) {
        assert_dot_product(layer, SCALAR_KERNEL);
        let n = acts.cols();
        for_each_decoded_group(layer, row_lo, row_hi, |span, w| {
            accumulate_span(&span, w, acts, out, row_lo, n);
        });
    }

    fn gemv_rows(
        &self,
        _ctx: &KernelCtx<'_>,
        layer: &PackedLayer,
        x: &[f64],
        row_lo: usize,
        row_hi: usize,
        out: &mut [f64],
    ) {
        assert_dot_product(layer, SCALAR_KERNEL);
        for_each_decoded_group(layer, row_lo, row_hi, |span, w| {
            let acc = &mut out[span.line - row_lo];
            for (i, &wv) in w.iter().enumerate() {
                if wv != 0.0 {
                    *acc += wv * x[span.offset + i];
                }
            }
        });
    }
}

/// The scalar fused dequant-GEMM: `W · acts` computed straight from packed
/// blocks on a single thread, with no decoded-block caching. A free-
/// function wrapper over [`ScalarKernel`], kept as the repo-wide oracle
/// entry point.
///
/// # Panics
///
/// Panics if `acts.rows() != layer.d_col()`.
pub fn fused_gemm_serial(layer: &PackedLayer, acts: &Matrix) -> Matrix {
    assert_eq!(
        layer.d_col(),
        acts.rows(),
        "fused gemm dimension mismatch: {}x{} · {}x{}",
        layer.d_row(),
        layer.d_col(),
        acts.rows(),
        acts.cols()
    );
    let mut out = Matrix::zeros(layer.d_row(), acts.cols());
    ScalarKernel.gemm_rows(
        &KernelCtx::uncached(),
        layer,
        acts,
        0,
        layer.d_row(),
        out.as_mut_slice(),
    );
    out
}

/// The scalar fused dequant-GEMV: `W · x` for a single activation column,
/// computed straight from packed blocks with no tile bookkeeping. This is
/// the decode fast path (m = 1): per-step serving batches of one collapse
/// to a GEMV per linear layer, where tile-queue and thread-spawn overhead
/// would dominate the actual multiply-accumulates.
///
/// Bit-identical to [`fused_gemm_serial`] on a one-column activation
/// matrix (same per-element accumulation order).
///
/// # Panics
///
/// Panics if `x.len() != layer.d_col()`.
pub fn fused_gemv_serial(layer: &PackedLayer, x: &[f64]) -> Vec<f64> {
    assert_eq!(
        layer.d_col(),
        x.len(),
        "fused gemv dimension mismatch: {}x{} · {}",
        layer.d_row(),
        layer.d_col(),
        x.len()
    );
    let mut out = vec![0.0_f64; layer.d_row()];
    ScalarKernel.gemv(&KernelCtx::uncached(), layer, x, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use microscopiq_core::config::QuantConfig;
    use microscopiq_core::solver::solve;
    use microscopiq_core::traits::LayerTensors;
    use microscopiq_linalg::{Matrix, SeededRng};

    fn packed_layer(rows: usize, cols: usize, bits: u32, seed: u64) -> PackedLayer {
        let mut rng = SeededRng::new(seed);
        let mut w = Matrix::from_fn(rows, cols, |_, _| rng.normal(0.0, 0.02));
        for _ in 0..(rows * cols / 40) {
            let r = rng.below(rows);
            let c = rng.below(cols);
            w[(r, c)] = rng.sign() * rng.uniform_range(0.15, 0.5);
        }
        let x = Matrix::from_fn(cols, 8, |_, _| rng.normal(0.0, 1.0));
        let layer = LayerTensors::new(w, x).unwrap();
        let cfg = QuantConfig::builder(bits)
            .macro_block(16)
            .row_block(16)
            .build()
            .unwrap();
        solve(&layer, &cfg).unwrap().packed.unwrap()
    }

    #[test]
    fn fused_matches_dense_bitwise_dot_product() {
        let layer = packed_layer(24, 48, 2, 1);
        let mut rng = SeededRng::new(2);
        let acts = Matrix::from_fn(48, 7, |_, _| rng.normal(0.0, 1.0));
        let fused = fused_gemm_serial(&layer, &acts);
        let dense = layer.dequantize().matmul(&acts);
        assert_eq!(fused, dense, "fused path must be bit-identical");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let layer = packed_layer(16, 32, 2, 9);
        let acts = Matrix::zeros(16, 4);
        let _ = fused_gemm_serial(&layer, &acts);
    }

    #[test]
    fn gemv_matches_gemm_bitwise() {
        for bits in [2, 4] {
            let layer = packed_layer(24, 48, bits, 21);
            let mut rng = SeededRng::new(22);
            let x: Vec<f64> = (0..48).map(|_| rng.normal(0.0, 1.0)).collect();
            let acts = Matrix::from_vec(48, 1, x.clone());
            let gemv = fused_gemv_serial(&layer, &x);
            let gemm = fused_gemm_serial(&layer, &acts);
            assert_eq!(gemv, gemm.as_slice().to_vec(), "bits={bits}");
        }
    }

    #[test]
    #[should_panic(expected = "gemv dimension mismatch")]
    fn gemv_dimension_mismatch_panics() {
        let layer = packed_layer(16, 32, 2, 9);
        let _ = fused_gemv_serial(&layer, &[0.0; 16]);
    }
}
