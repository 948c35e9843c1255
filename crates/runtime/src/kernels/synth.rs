//! Direct packed-layer synthesis for kernel tests and benches: builds a
//! [`PackedLayer`] straight in packed form (random inlier codes, shared
//! scales over a realistic range, outlier-bearing micro-blocks at a
//! controlled rate) so kernel measurements and conformance sweeps exercise
//! the runtime, not the quantizer — and can produce shapes the solver
//! path would make awkward (odd reduction lengths, outlier-heavy
//! regimes, both grouping axes, both bit budgets).

use microscopiq_core::config::GroupAxis;
use microscopiq_core::microblock::PermEntry;
use microscopiq_core::packed::{PackedLayer, PackedLayerBuilder};
use microscopiq_linalg::SeededRng;
use microscopiq_mx::fp::TinyFloat;
use microscopiq_mx::mxfp::MxScale;
use microscopiq_mx::scale::Pow2Scale;

/// What to synthesize. `..SynthSpec::default()` fills unexercised knobs.
#[derive(Debug, Clone, Copy)]
pub struct SynthSpec {
    /// Grouping axis.
    pub axis: GroupAxis,
    /// Output-channel count.
    pub d_row: usize,
    /// Input-feature count (need not divide the macro-block — tail
    /// groups come out partial, as real odd shapes do).
    pub d_col: usize,
    /// Inlier bit budget (2 or 4).
    pub bits: u32,
    /// Micro-block size `Bμ` (power of two).
    pub micro: usize,
    /// Macro-block size `BM` (multiple of `micro`).
    pub macro_block: usize,
    /// Probability that a full micro-block carries one outlier pair
    /// (partial tail blocks never do — permutation entries must address
    /// real slots).
    pub outlier_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SynthSpec {
    fn default() -> Self {
        Self {
            axis: GroupAxis::DotProduct,
            d_row: 32,
            d_col: 64,
            bits: 2,
            micro: 8,
            macro_block: 64,
            outlier_rate: 0.03,
            seed: 7,
        }
    }
}

/// Synthesizes a packed layer per the spec. Per group, the draws are
/// each micro-block's codes and outlier metadata in slot order, then the
/// group's scale.
///
/// # Panics
///
/// Panics (inside [`PackedLayerBuilder`]) if the spec's block geometry is
/// invalid.
pub fn synth_packed(spec: &SynthSpec) -> PackedLayer {
    let mut rng = SeededRng::new(spec.seed);
    let mut builder = PackedLayerBuilder::new(
        spec.axis,
        spec.d_row,
        spec.d_col,
        spec.bits,
        spec.micro,
        spec.macro_block,
    );
    let (lines, line_len) = match spec.axis {
        GroupAxis::DotProduct => (spec.d_row, spec.d_col),
        GroupAxis::OutputChannel => (spec.d_col, spec.d_row),
    };
    let fmt = TinyFloat::for_outlier_bits(spec.bits * 2);
    let per_line = line_len.div_ceil(spec.macro_block);
    // One group's draws, kept until its scale is drawn.
    let mut codes = Vec::with_capacity(spec.macro_block);
    let mut metas: Vec<Option<(MxScale, [PermEntry; 1])>> = Vec::new();
    for g in 0..lines * per_line {
        let len = (line_len - (g % per_line) * spec.macro_block).min(spec.macro_block);
        codes.clear();
        metas.clear();
        for start in (0..len).step_by(spec.micro) {
            let n = (len - start).min(spec.micro);
            codes.extend((0..n).map(|_| rng.below(1usize << spec.bits) as u8));
            metas.push((n == spec.micro && rng.chance(spec.outlier_rate)).then(|| {
                let upper = rng.below(spec.micro) as u8;
                let lower = (upper as usize + 1 + rng.below(spec.micro - 1)) % spec.micro;
                let mxscale = MxScale::new(rng.below(4) as i32 - 2, rng.below(2) as u32, fmt);
                let entry = PermEntry {
                    upper_loc: upper,
                    lower_loc: lower as u8,
                };
                (mxscale, [entry])
            }));
        }
        let isf = Pow2Scale::new(-(rng.below(4) as i32) - 4);
        let micro_blocks = codes.chunks(spec.micro).zip(&metas).map(|(c, meta)| {
            (
                c,
                meta.as_ref().map(|(mxscale, entry)| (*mxscale, &entry[..])),
            )
        });
        builder.set_group(g, isf, micro_blocks);
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_respects_spec_and_roundtrips() {
        for axis in [GroupAxis::DotProduct, GroupAxis::OutputChannel] {
            for bits in [2u32, 4] {
                let layer = synth_packed(&SynthSpec {
                    axis,
                    d_row: 24,
                    d_col: 52, // odd: tail group of 4 (macro 16)
                    bits,
                    micro: 8,
                    macro_block: 16,
                    outlier_rate: 0.25,
                    seed: 42,
                });
                assert_eq!(layer.axis(), axis);
                assert_eq!((layer.d_row(), layer.d_col()), (24, 52));
                assert_eq!(layer.inlier_bits(), bits);
                assert!(layer.outlier_micro_block_fraction() > 0.0);
                let back = PackedLayer::from_bytes(&layer.to_bytes()).unwrap();
                assert_eq!(back.dequantize(), layer.dequantize());
            }
        }
    }

    #[test]
    fn outlier_rate_zero_means_no_metadata() {
        let layer = synth_packed(&SynthSpec {
            outlier_rate: 0.0,
            ..SynthSpec::default()
        });
        assert_eq!(layer.outlier_micro_block_fraction(), 0.0);
    }
}
