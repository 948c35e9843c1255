//! The bucketed decoded-cache kernel: executes from the engine's
//! [`DecodedCache`] tiles so warm passes skip unpacking entirely.
//!
//! 2-bit layers run from [`BucketTile`]s — inliers contribute per bucket
//! as `code·2^Isf × Σ activation-rows` (branch-free adds with one
//! multiply per bucket per column) and outliers as individual exact
//! multiply-adds. 4-bit layers run from [`FlatTile`]s (exact `f32`
//! castbacks walked once at full width, `f64` escapes for values that do
//! not round-trip). Partial bucket sums reassociate relative to the dense
//! reference, so results agree to ~1e-12 — pinned at the runtime's 1e-9
//! contract, not bitwise.
//!
//! This kernel requires a cache in its [`KernelCtx`] and a `DotProduct`
//! layer (asserted on entry); the exact tier picks it exactly when the
//! engine has a cache configured.
//!
//! [`DecodedCache`]: crate::cache::DecodedCache
//! [`BucketTile`]: crate::cache::BucketTile
//! [`FlatTile`]: crate::cache::FlatTile

use super::{
    assert_dot_product, for_col_chunks, groups_for_rows, KernelCtx, MicroKernel, Tolerance,
};
use crate::cache::{BucketTile, DecodedTile, FlatTile};
use microscopiq_core::packed::{GroupSpan, PackedLayer};
use microscopiq_linalg::Matrix;
use std::sync::Arc;

/// Name of the bucketed decoded-cache kernel.
pub const BUCKETED_KERNEL: &str = "bucketed-cache";

/// Bucketed accumulation of one cached tile into columns
/// `[col0, col0 + N)` of the output rows `[row_base, ..)` buffer.
fn accumulate_bucketed<const N: usize>(
    span: &GroupSpan,
    tile: &BucketTile,
    acts_flat: &[f64],
    n: usize,
    col0: usize,
    out: &mut [f64],
    row_base: usize,
) {
    let arow_at = |k: usize| -> &[f64; N] {
        acts_flat[k * n + col0..][..N]
            .try_into()
            .expect("chunk width")
    };
    let r = span.line - row_base;
    let orow: &mut [f64; N] = (&mut out[r * n + col0..][..N])
        .try_into()
        .expect("chunk width");
    for (m, slots) in tile.buckets() {
        // Short buckets (common at bb = 4, where 15 code values
        // split a 64-slot group thinly): direct multiply-adds beat
        // the accumulate-then-combine detour.
        if slots.len() < 4 {
            for &i in slots {
                let arow = arow_at(span.offset + i as usize);
                for j in 0..N {
                    orow[j] += m * arow[j];
                }
            }
            continue;
        }
        let mut acc = [0.0_f64; N];
        for &i in slots {
            let arow = arow_at(span.offset + i as usize);
            for j in 0..N {
                acc[j] += arow[j];
            }
        }
        for j in 0..N {
            orow[j] += m * acc[j];
        }
    }
    for &(i, v) in tile.outliers() {
        let arow = arow_at(span.offset + i as usize);
        for j in 0..N {
            orow[j] += v * arow[j];
        }
    }
}

/// Accumulation of one flat `f32` tile at full output width (no column
/// chunking — the group is walked once). Values are exact `f32`
/// castbacks; wide-escaped slots contribute their exact `f64` values.
fn accumulate_flat(
    span: &GroupSpan,
    tile: &FlatTile,
    acts_flat: &[f64],
    out: &mut [f64],
    row_base: usize,
    n: usize,
) {
    let arow_at = |k: usize| -> &[f64] { &acts_flat[k * n..(k + 1) * n] };
    let r = span.line - row_base;
    let orow = &mut out[r * n..(r + 1) * n];
    for (i, &wv) in tile.values().iter().enumerate() {
        if wv == 0.0 {
            continue;
        }
        let wv = wv as f64;
        let arow = arow_at(span.offset + i);
        for (o, a) in orow.iter_mut().zip(arow.iter()) {
            *o += wv * a;
        }
    }
    for &(i, v) in tile.wide() {
        let arow = arow_at(span.offset + i as usize);
        for (o, a) in orow.iter_mut().zip(arow.iter()) {
            *o += v * a;
        }
    }
}

/// The decoded-cache execution kernel. Stateless — the cache arrives per
/// call through the [`KernelCtx`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BucketedCacheKernel;

impl BucketedCacheKernel {
    /// The shared body behind both trait entry points: runs cached tiles
    /// over a flat row-major activation image (`d_col × n`), so the GEMV
    /// path can hand its column slice straight through without staging a
    /// one-column [`Matrix`] copy.
    #[allow(clippy::too_many_arguments)] // internal kernel; args are the GEMM coordinates
    fn run(
        &self,
        ctx: &KernelCtx<'_>,
        layer: &PackedLayer,
        acts_flat: &[f64],
        n: usize,
        row_lo: usize,
        row_hi: usize,
        out: &mut [f64],
    ) {
        assert_dot_product(layer, BUCKETED_KERNEL);
        let (cache, layer_id) = ctx
            .cache
            .expect("bucketed-cache kernel requires a decoded cache in the context");
        let order = groups_for_rows(layer, row_lo, row_hi);
        let tiles: Vec<Arc<DecodedTile>> = order
            .clone()
            .map(|g| cache.get_or_decode(layer_id, layer, g))
            .collect();
        if layer.inlier_bits() == 2 {
            // Bucketed tiles: column-chunked so the per-bucket accumulators
            // live in fixed-size registers.
            for_col_chunks(n, |col0, width| {
                for (g, tile) in order.clone().zip(&tiles) {
                    let DecodedTile::Bucketed(tile) = tile.as_ref() else {
                        unreachable!("2-bit layers decode to bucketed tiles");
                    };
                    let span = layer.group_span(g);
                    match width {
                        8 => accumulate_bucketed::<8>(&span, tile, acts_flat, n, col0, out, row_lo),
                        4 => accumulate_bucketed::<4>(&span, tile, acts_flat, n, col0, out, row_lo),
                        2 => accumulate_bucketed::<2>(&span, tile, acts_flat, n, col0, out, row_lo),
                        _ => accumulate_bucketed::<1>(&span, tile, acts_flat, n, col0, out, row_lo),
                    }
                }
            });
        } else {
            // Flat tiles: one full-width walk per group.
            for (g, tile) in order.zip(&tiles) {
                let DecodedTile::Flat(tile) = tile.as_ref() else {
                    unreachable!("4-bit layers decode to flat tiles");
                };
                let span = layer.group_span(g);
                accumulate_flat(&span, tile, acts_flat, out, row_lo, n);
            }
        }
    }
}

impl MicroKernel for BucketedCacheKernel {
    fn index(&self) -> usize {
        1
    }

    fn tolerance(&self) -> Tolerance {
        // Reassociated bucket partial sums: ~1e-12 observed, pinned at
        // the runtime's long-standing 1e-9 contract.
        Tolerance::Abs(1e-9)
    }

    /// # Panics
    ///
    /// Panics on a layer that is not `DotProduct` or if the context
    /// carries no decoded cache (the engine picks this kernel only with
    /// one).
    fn gemm_rows(
        &self,
        ctx: &KernelCtx<'_>,
        layer: &PackedLayer,
        acts: &Matrix,
        row_lo: usize,
        row_hi: usize,
        out: &mut [f64],
    ) {
        self.run(
            ctx,
            layer,
            acts.as_slice(),
            acts.cols(),
            row_lo,
            row_hi,
            out,
        );
    }

    /// The m = 1 decode shape without the default's one-column `Matrix`
    /// staging copy: a column vector *is* a flat `d_col × 1` image, so it
    /// feeds the tile accumulators directly. Bit-identical to
    /// `gemm_rows` on the equivalent one-column matrix.
    fn gemv_rows(
        &self,
        ctx: &KernelCtx<'_>,
        layer: &PackedLayer,
        x: &[f64],
        row_lo: usize,
        row_hi: usize,
        out: &mut [f64],
    ) {
        self.run(ctx, layer, x, 1, row_lo, row_hi, out);
    }
}

#[cfg(test)]
mod tests {
    use super::super::fused_gemm_serial;
    use super::super::synth::{synth_packed, SynthSpec};
    use super::*;
    use crate::cache::DecodedCache;
    use microscopiq_core::config::GroupAxis;
    use microscopiq_linalg::SeededRng;

    #[test]
    fn bucketed_matches_oracle_within_pin_and_reuses_tiles() {
        for bits in [2u32, 4] {
            let layer = synth_packed(&SynthSpec {
                d_row: 32,
                d_col: 64,
                bits,
                outlier_rate: 0.1,
                seed: 17,
                ..SynthSpec::default()
            });
            let mut rng = SeededRng::new(3);
            let acts = Matrix::from_fn(64, 9, |_, _| rng.normal(0.0, 1.0));
            let oracle = fused_gemm_serial(&layer, &acts);
            let cache = DecodedCache::new(1 << 20);
            let ctx = KernelCtx::cached(&cache, layer.content_fingerprint());
            let run = || {
                let mut out = Matrix::zeros(32, 9);
                BucketedCacheKernel.gemm_rows(&ctx, &layer, &acts, 0, 32, out.as_mut_slice());
                out
            };
            let cold = run();
            let tol = BucketedCacheKernel.tolerance();
            for (&a, &b) in cold.as_slice().iter().zip(oracle.as_slice().iter()) {
                assert!(tol.accepts(a, b), "bits={bits}: {a} vs {b}");
            }
            assert_eq!(cold, run(), "warm pass must repeat cold pass exactly");
            assert_eq!(cache.stats().hits, layer.num_groups() as u64);
        }
    }

    #[test]
    fn gemv_override_is_bitwise_identical_to_one_column_gemm() {
        for bits in [2u32, 4] {
            let layer = synth_packed(&SynthSpec {
                d_row: 32,
                d_col: 64,
                bits,
                outlier_rate: 0.2,
                seed: 29,
                ..SynthSpec::default()
            });
            let mut rng = SeededRng::new(30);
            let x: Vec<f64> = (0..64).map(|_| rng.normal(0.0, 1.0)).collect();
            let cache = DecodedCache::new(1 << 20);
            let ctx = KernelCtx::cached(&cache, layer.content_fingerprint());
            let mut via_gemv = vec![0.0_f64; 32];
            BucketedCacheKernel.gemv(&ctx, &layer, &x, &mut via_gemv);
            let acts = Matrix::from_vec(64, 1, x.clone());
            let mut via_gemm = vec![0.0_f64; 32];
            BucketedCacheKernel.gemm_rows(&ctx, &layer, &acts, 0, 32, &mut via_gemm);
            assert_eq!(via_gemv, via_gemm, "bits={bits}");
        }
    }

    #[test]
    #[should_panic(expected = "requires a decoded cache")]
    fn missing_cache_panics() {
        let layer = synth_packed(&SynthSpec::default());
        let acts = Matrix::zeros(layer.d_col(), 2);
        let mut out = vec![0.0; layer.d_row() * 2];
        BucketedCacheKernel.gemm_rows(
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
    fn output_channel_layer_panics() {
        let layer = synth_packed(&SynthSpec {
            axis: GroupAxis::OutputChannel,
            ..SynthSpec::default()
        });
        let x = vec![0.0; layer.d_col()];
        let mut out = vec![0.0; layer.d_row()];
        let cache = DecodedCache::new(1 << 20);
        BucketedCacheKernel.gemv(
            &KernelCtx::cached(&cache, layer.content_fingerprint()),
            &layer,
            &x,
            &mut out,
        );
    }
}
