//! The GPTQ-style block solver executing MicroScopiQ quantization
//! (Algorithm 1 of the paper).
//!
//! Processing walks the Hessian (input) dimension in compensation blocks of
//! `row_block` columns. Within a block, scale factors and outlier plans are
//! snapshotted per macro-block, columns are quantized in order, and the
//! quantization error of each column is propagated into not-yet-quantized
//! columns through the upper Cholesky factor of `H⁻¹` (L31–33); remaining
//! columns outside the block are updated once per block (L36).
//!
//! Both grouping axes are supported (see [`GroupAxis`]): `DotProduct`
//! snapshots each row's macro-block before its columns are processed;
//! `OutputChannel` quantizes one full column at a time with macro-blocks
//! spanning output channels.

use crate::config::{GroupAxis, OutlierMode, QuantConfig};
use crate::error::QuantError;
use crate::hessian::HessianState;
use crate::microblock::{MicroBlockPlan, SlotRole};
use crate::outlier::classify_outliers;
use crate::packed::{PackedLayer, PackedLayerBuilder};
use crate::traits::{LayerTensors, QuantStats};
use microscopiq_linalg::Matrix;
use microscopiq_mx::fp::TinyFloat;
use microscopiq_mx::halves::{split_into_halves, OutlierHalves};
use microscopiq_mx::mxfp::{MxFpBlock, MxScale};
use microscopiq_mx::mxint::{int_format_max, MxIntBlock};
use microscopiq_mx::scale::Pow2Scale;

/// Result of running the solver over one layer.
#[derive(Debug, Clone)]
pub struct SolverOutput {
    /// Dequantized weights.
    pub dequantized: Matrix,
    /// Packed hardware layout (only for the packable default mode).
    pub packed: Option<PackedLayer>,
    /// Measured statistics.
    pub stats: QuantStats,
}

/// Per-micro-block quantization state produced during planning.
#[derive(Debug, Clone)]
struct MicroBlockQuant {
    plan: MicroBlockPlan,
    /// Dequantized value per kept outlier (aligned with
    /// `plan.outlier_positions`), in original weight units.
    outlier_deq: Vec<f64>,
    /// Sign/mantissa halves per kept outlier.
    halves: Vec<OutlierHalves>,
    /// Storage-form MXScale (total exponent − Isf = applied exponent).
    mxscale: Option<MxScale>,
}

/// Planning result for one macro-block segment of one line.
#[derive(Debug, Clone)]
struct SegmentQuant {
    isf: Pow2Scale,
    micro: Vec<MicroBlockQuant>,
}

impl SegmentQuant {
    fn slot_role(&self, offset: usize, micro_block: usize) -> (usize, SlotRole) {
        let mb = offset / micro_block;
        let pos = offset % micro_block;
        (mb, self.micro[mb].plan.roles[pos])
    }
}

/// Plans one macro-block segment: outlier classification, inlier scale,
/// per-micro-block pruning plans and outlier quantization.
fn plan_segment(snapshot: &[f64], saliency: &[f64], cfg: &QuantConfig) -> SegmentQuant {
    let bb = cfg.inlier_bits;
    let flagged = match cfg.outlier_mode {
        OutlierMode::Ignore => vec![false; snapshot.len()],
        _ => classify_outliers(snapshot, cfg.sigma_threshold),
    };
    // Isf from the inlier maximum only (§4.2), with optional clipping.
    let inlier_max = snapshot
        .iter()
        .zip(flagged.iter())
        .filter(|(_, &f)| !f)
        .fold(0.0_f64, |m, (v, _)| m.max(v.abs()))
        * cfg.clip_ratio;
    let isf = if inlier_max > 0.0 {
        Pow2Scale::from_max(inlier_max, int_format_max(bb) as f64)
    } else {
        // Degenerate segment (all-outlier or all-zero): neutral scale.
        Pow2Scale::one()
    };

    let fmt = TinyFloat::for_outlier_bits(cfg.outlier_bits);
    let prescale = |v: f64| {
        if cfg.prescale_outliers {
            v * isf.value()
        } else {
            v
        }
    };
    let unprescale_exp = if cfg.prescale_outliers {
        -isf.exponent()
    } else {
        0
    };

    let mut micro = Vec::with_capacity(snapshot.len().div_ceil(cfg.micro_block));
    // For MxFpMacroBlock mode, outliers across the whole segment share one
    // scale; collect first, quantize once, then scatter.
    let mut mab_outliers: Vec<(usize, usize, f64)> = Vec::new(); // (μB, k, value)

    for (mb_idx, start) in (0..snapshot.len()).step_by(cfg.micro_block).enumerate() {
        let end = (start + cfg.micro_block).min(snapshot.len());
        let slots = &snapshot[start..end];
        let plan = MicroBlockPlan::build(
            &flagged[start..end],
            slots,
            &saliency[start..end],
            cfg.prune_redistribute && cfg.outlier_mode != OutlierMode::Ignore,
        );
        let n = plan.n_outliers();
        let mut mbq = MicroBlockQuant {
            plan,
            outlier_deq: Vec::new(),
            halves: Vec::new(),
            mxscale: None,
        };
        if n > 0 {
            let values: Vec<f64> = mbq
                .plan
                .outlier_positions
                .iter()
                .map(|&p| prescale(slots[p]))
                .collect();
            match cfg.outlier_mode {
                OutlierMode::Ignore => {}
                OutlierMode::MxFpMicroBlock => {
                    let block = MxFpBlock::quantize(&values, fmt);
                    for i in 0..n {
                        let v = block.dequantize_element(i) * (unprescale_exp as f64).exp2();
                        mbq.outlier_deq.push(v);
                        mbq.halves.push(split_into_halves(
                            block.signs()[i],
                            block.mantissas()[i],
                            fmt.mantissa_bits(),
                        ));
                    }
                    // Storage MXScale: decode applies total − Isf, so when
                    // prescaling is off the Isf must be pre-added here.
                    let adjust = if cfg.prescale_outliers {
                        0
                    } else {
                        isf.exponent()
                    };
                    mbq.mxscale = Some(MxScale::new(
                        block.scale().level1() + adjust,
                        block.scale().micro(),
                        fmt,
                    ));
                }
                OutlierMode::MxFpMacroBlock => {
                    for (k, &v) in values.iter().enumerate() {
                        mab_outliers.push((mb_idx, k, v));
                        mbq.outlier_deq.push(0.0); // filled after segment pass
                    }
                }
                OutlierMode::MxIntMicroBlock => {
                    let block = MxIntBlock::quantize(&values, cfg.outlier_bits);
                    for (i, d) in block.dequantize().into_iter().enumerate() {
                        let _ = i;
                        mbq.outlier_deq.push(d * (unprescale_exp as f64).exp2());
                    }
                }
            }
        }
        micro.push(mbq);
    }

    if cfg.outlier_mode == OutlierMode::MxFpMacroBlock && !mab_outliers.is_empty() {
        let values: Vec<f64> = mab_outliers.iter().map(|&(_, _, v)| v).collect();
        let block = MxFpBlock::quantize(&values, fmt);
        for (i, &(mb_idx, k, _)) in mab_outliers.iter().enumerate() {
            micro[mb_idx].outlier_deq[k] =
                block.dequantize_element(i) * (unprescale_exp as f64).exp2();
        }
    }

    SegmentQuant { isf, micro }
}

/// Accumulated solver statistics.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    outliers: usize,
    pruned: usize,
    demoted: usize,
    micro_blocks: usize,
    micro_blocks_with_outliers: usize,
    elements: usize,
}

impl Counters {
    fn absorb_segment(&mut self, seg: &SegmentQuant) {
        for mbq in &seg.micro {
            self.micro_blocks += 1;
            self.elements += mbq.plan.roles.len();
            let n = mbq.plan.n_outliers();
            self.outliers += n;
            self.pruned += mbq.plan.pruned_positions.len();
            self.demoted += mbq.plan.demoted;
            if n > 0 {
                self.micro_blocks_with_outliers += 1;
            }
        }
    }

    fn into_stats(self, ebw: f64) -> QuantStats {
        let total = self.elements.max(1) as f64;
        QuantStats {
            effective_bit_width: ebw,
            outlier_fraction: self.outliers as f64 / total,
            pruned_fraction: self.pruned as f64 / total,
            outlier_micro_block_fraction: self.micro_blocks_with_outliers as f64
                / self.micro_blocks.max(1) as f64,
            demoted_outlier_fraction: self.demoted as f64
                / (self.outliers + self.demoted).max(1) as f64,
        }
    }
}

/// Whether this configuration produces the hardware packed layout.
fn packable(cfg: &QuantConfig) -> bool {
    cfg.outlier_mode == OutlierMode::MxFpMicroBlock && cfg.prune_redistribute
}

/// Analytic EBW for non-packable (side-band outlier) configurations:
/// aligned budget plus unaligned outlier storage (value + 16-bit index),
/// the group-A overhead the paper contrasts against.
fn sideband_ebw(cfg: &QuantConfig, counters: &Counters) -> f64 {
    let bb = cfg.inlier_bits as f64;
    if cfg.outlier_mode == OutlierMode::Ignore {
        return bb;
    }
    let frac = counters.outliers as f64 / counters.elements.max(1) as f64;
    bb + frac * (cfg.outlier_bits as f64 + 16.0)
}

/// Quantizes one micro-block slot given its role, returning
/// `(dequantized value, raw slot bits)`.
fn quantize_slot(
    role: SlotRole,
    current: f64,
    seg: &SegmentQuant,
    mb: usize,
    cfg: &QuantConfig,
) -> (f64, u8) {
    let bb = cfg.inlier_bits;
    match role {
        SlotRole::Inlier => {
            let code = MxIntBlock::quantize_scalar(current, bb, seg.isf);
            let dq = MxIntBlock::dequantize_scalar(code, seg.isf);
            (dq, (code as u8) & ((1 << bb) - 1))
        }
        SlotRole::OutlierUpper(k) => {
            let mbq = &seg.micro[mb];
            let bits = if k < mbq.halves.len() {
                mbq.halves[k].upper_bits(bb)
            } else {
                0
            };
            (mbq.outlier_deq[k], bits)
        }
        SlotRole::PrunedLower(k) => {
            let mbq = &seg.micro[mb];
            let bits = if k < mbq.halves.len() {
                mbq.halves[k].lower_bits(bb)
            } else {
                0
            };
            (0.0, bits)
        }
    }
}

/// Runs the solver.
///
/// # Errors
///
/// Propagates [`QuantError`] from Hessian construction.
pub fn solve(layer: &LayerTensors, cfg: &QuantConfig) -> Result<SolverOutput, QuantError> {
    match cfg.group_axis {
        GroupAxis::DotProduct => solve_dot_product(layer, cfg),
        GroupAxis::OutputChannel => solve_output_channel(layer, cfg),
    }
}

/// A builder for the packed layer when this configuration produces the
/// hardware layout.
fn packed_builder(
    layer: &LayerTensors,
    cfg: &QuantConfig,
    axis: GroupAxis,
) -> Option<PackedLayerBuilder> {
    packable(cfg).then(|| {
        PackedLayerBuilder::new(
            axis,
            layer.d_row(),
            layer.d_col(),
            cfg.inlier_bits,
            cfg.micro_block,
            cfg.macro_block,
        )
    })
}

/// Writes a quantized segment, whose slot codes are `codes`, as group `g`.
fn pack_segment(
    builder: &mut PackedLayerBuilder,
    g: usize,
    seg: &SegmentQuant,
    codes: &[u8],
    micro_block: usize,
) {
    let micro_blocks = codes.chunks(micro_block).zip(&seg.micro).map(|(c, mbq)| {
        let outliers = mbq.mxscale.map(|m| (m, mbq.plan.perm.entries()));
        (c, outliers)
    });
    builder.set_group(g, seg.isf, micro_blocks);
}

fn make_hessian(layer: &LayerTensors, cfg: &QuantConfig) -> Result<HessianState, QuantError> {
    if cfg.error_compensation {
        HessianState::from_calibration(&layer.calibration, cfg.percdamp)
    } else {
        Ok(HessianState::identity(layer.d_col()))
    }
}

fn solve_dot_product(layer: &LayerTensors, cfg: &QuantConfig) -> Result<SolverOutput, QuantError> {
    let d_row = layer.d_row();
    let d_col = layer.d_col();
    let hessian = make_hessian(layer, cfg)?;
    let mut work = layer.weights.clone();
    let mut deq = Matrix::zeros(d_row, d_col);
    let mut counters = Counters::default();

    let mabs_per_line = d_col.div_ceil(cfg.macro_block);
    let mut packed = packed_builder(layer, cfg, GroupAxis::DotProduct);
    // Slot codes of the macro-block position being quantized, row after
    // row (`mab_len` per row), filled during phase B.
    let mut codes = vec![0u8; d_row * cfg.macro_block];

    let mut comp_start = 0;
    while comp_start < d_col {
        let comp_end = (comp_start + cfg.row_block).min(d_col);
        let mut err_block = Matrix::zeros(d_row, comp_end - comp_start);

        let mut mab_start = comp_start;
        while mab_start < comp_end {
            let mab_end = (mab_start + cfg.macro_block).min(comp_end);
            let mab_len = mab_end - mab_start;
            let mab_index = mab_start / cfg.macro_block;

            // Phase A: snapshot planning per row.
            let segments: Vec<SegmentQuant> = (0..d_row)
                .map(|r| {
                    let snap = &work.row(r)[mab_start..mab_end];
                    let saliency: Vec<f64> = snap
                        .iter()
                        .enumerate()
                        .map(|(i, &w)| hessian.saliency(w, mab_start + i))
                        .collect();
                    plan_segment(snap, &saliency, cfg)
                })
                .collect();
            for seg in &segments {
                counters.absorb_segment(seg);
            }

            // Phase B: column pass with in-block compensation.
            for jj in 0..mab_len {
                let j = mab_start + jj;
                let urow = if cfg.error_compensation {
                    hessian.update_row(j, comp_end)
                } else {
                    &[]
                };
                for r in 0..d_row {
                    let seg = &segments[r];
                    let (mb, role) = seg.slot_role(jj, cfg.micro_block);
                    let (dq, bits) = quantize_slot(role, work[(r, j)], seg, mb, cfg);
                    deq[(r, j)] = dq;
                    codes[r * mab_len + jj] = bits;
                    let e = (work[(r, j)] - dq) / hessian.diag(j);
                    err_block[(r, j - comp_start)] = e;
                    if !urow.is_empty() {
                        let row = work.row_mut(r);
                        for (k, &u) in urow.iter().enumerate() {
                            row[j + 1 + k] -= e * u;
                        }
                    }
                }
            }

            if let Some(builder) = packed.as_mut() {
                for (r, seg) in segments.iter().enumerate() {
                    let row_codes = &codes[r * mab_len..(r + 1) * mab_len];
                    let g = r * mabs_per_line + mab_index;
                    pack_segment(builder, g, seg, row_codes, cfg.micro_block);
                }
            }
            mab_start = mab_end;
        }

        // Phase C: propagate block errors into all later columns (L36).
        if cfg.error_compensation {
            hessian.propagate_block_error(&err_block, comp_start, &mut work);
        }
        comp_start = comp_end;
    }

    finish(cfg, deq, packed, counters)
}

fn solve_output_channel(
    layer: &LayerTensors,
    cfg: &QuantConfig,
) -> Result<SolverOutput, QuantError> {
    let d_row = layer.d_row();
    let d_col = layer.d_col();
    let hessian = make_hessian(layer, cfg)?;
    let mut work = layer.weights.clone();
    let mut deq = Matrix::zeros(d_row, d_col);
    let mut counters = Counters::default();

    let mabs_per_line = d_row.div_ceil(cfg.macro_block);
    let mut packed = packed_builder(layer, cfg, GroupAxis::OutputChannel);
    let mut codes = vec![0u8; cfg.macro_block];

    let mut comp_start = 0;
    while comp_start < d_col {
        let comp_end = (comp_start + cfg.row_block).min(d_col);
        let mut err_block = Matrix::zeros(d_row, comp_end - comp_start);

        for j in comp_start..comp_end {
            let col: Vec<f64> = (0..d_row).map(|r| work[(r, j)]).collect();
            // Within a column the Hessian diagonal is constant, so the
            // saliency ordering reduces to |w|².
            let saliency: Vec<f64> = col.iter().map(|&w| w * w).collect();

            let urow = if cfg.error_compensation {
                hessian.update_row(j, comp_end)
            } else {
                &[]
            };

            for (mab_index, mab_start) in (0..d_row).step_by(cfg.macro_block).enumerate() {
                let mab_end = (mab_start + cfg.macro_block).min(d_row);
                let seg =
                    plan_segment(&col[mab_start..mab_end], &saliency[mab_start..mab_end], cfg);
                counters.absorb_segment(&seg);
                let codes = &mut codes[..mab_end - mab_start];
                for (i, r) in (mab_start..mab_end).enumerate() {
                    let (mb, role) = seg.slot_role(i, cfg.micro_block);
                    let (dq, bits) = quantize_slot(role, work[(r, j)], &seg, mb, cfg);
                    deq[(r, j)] = dq;
                    codes[i] = bits;
                    let e = (work[(r, j)] - dq) / hessian.diag(j);
                    err_block[(r, j - comp_start)] = e;
                    if !urow.is_empty() {
                        let row = work.row_mut(r);
                        for (k, &u) in urow.iter().enumerate() {
                            row[j + 1 + k] -= e * u;
                        }
                    }
                }
                if let Some(builder) = packed.as_mut() {
                    let g = j * mabs_per_line + mab_index;
                    pack_segment(builder, g, &seg, codes, cfg.micro_block);
                }
            }
        }

        if cfg.error_compensation {
            hessian.propagate_block_error(&err_block, comp_start, &mut work);
        }
        comp_start = comp_end;
    }

    finish(cfg, deq, packed, counters)
}

fn finish(
    cfg: &QuantConfig,
    deq: Matrix,
    packed: Option<PackedLayerBuilder>,
    counters: Counters,
) -> Result<SolverOutput, QuantError> {
    let packed = packed.map(PackedLayerBuilder::finish);
    let ebw = packed
        .as_ref()
        .map(|p| p.effective_bit_width())
        .unwrap_or_else(|| sideband_ebw(cfg, &counters));
    let stats = counters.into_stats(ebw);
    Ok(SolverOutput {
        dequantized: deq,
        packed,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use microscopiq_linalg::SeededRng;

    /// Synthetic layer with a Gaussian body and injected outliers.
    fn test_layer(d_row: usize, d_col: usize, outlier_rate: f64, seed: u64) -> LayerTensors {
        let mut rng = SeededRng::new(seed);
        let mut w = Matrix::from_fn(d_row, d_col, |_, _| rng.normal(0.0, 0.02));
        let n_out = ((d_row * d_col) as f64 * outlier_rate) as usize;
        for _ in 0..n_out {
            let r = rng.below(d_row);
            let c = rng.below(d_col);
            w[(r, c)] = rng.sign() * rng.uniform_range(0.15, 0.4);
        }
        let x = Matrix::from_fn(d_col, d_col + 16, |_, _| rng.normal(0.0, 1.0));
        LayerTensors::new(w, x).unwrap()
    }

    fn w2_cfg() -> QuantConfig {
        QuantConfig::w2()
            .macro_block(16)
            .row_block(16)
            .build()
            .unwrap()
    }

    #[test]
    fn packed_dequantize_matches_solver_output() {
        // The core invariant: the solver's dequantized view and the packed
        // layout decode to the same tensor, on both axes.
        for axis in [GroupAxis::DotProduct, GroupAxis::OutputChannel] {
            let layer = test_layer(16, 32, 0.02, 7);
            let cfg = QuantConfig::w2()
                .macro_block(16)
                .row_block(16)
                .group_axis(axis)
                .build()
                .unwrap();
            let out = solve(&layer, &cfg).unwrap();
            let packed = out.packed.expect("default mode is packable");
            let decoded = packed.dequantize();
            assert!(
                out.dequantized.frobenius_distance(&decoded) < 1e-9,
                "axis {axis:?}: packed decode diverges"
            );
        }
    }

    #[test]
    fn outliers_survive_with_small_relative_error() {
        let layer = test_layer(8, 32, 0.03, 21);
        let out = solve(&layer, &w2_cfg()).unwrap();
        // Every weight ≥ 0.15 in magnitude must survive at high precision:
        // clipping to the 2-bit inlier range would leave ~0.06. A single
        // outlier sharing its μX with a larger block-mate can be pulled up
        // to the block's exponent floor (≤ 2× in the worst case), so the
        // per-element bound is a factor window plus sign preservation; the
        // *mean* relative error across outliers stays tight.
        let mut checked = 0;
        let mut total_rel = 0.0;
        for r in 0..8 {
            for c in 0..32 {
                let w = layer.weights[(r, c)];
                if w.abs() >= 0.15 {
                    let d = out.dequantized[(r, c)];
                    // The slot may legitimately be zero if this outlier's
                    // inlier neighbours were all outliers too; with 3%
                    // injection that does not happen.
                    assert!(d * w > 0.0, "outlier at ({r},{c}) flipped: {w} → {d}");
                    let factor = d.abs() / w.abs();
                    assert!(
                        (0.4..=2.5).contains(&factor),
                        "outlier at ({r},{c}): {w} → {d}"
                    );
                    total_rel += (d - w).abs() / w.abs();
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "test layer must contain outliers");
        let mean_rel = total_rel / checked as f64;
        assert!(mean_rel < 0.3, "mean outlier error too large: {mean_rel}");
    }

    #[test]
    fn error_compensation_reduces_output_error() {
        let layer = test_layer(8, 64, 0.02, 13);
        let with = QuantConfig::w2()
            .macro_block(16)
            .row_block(16)
            .build()
            .unwrap();
        let without = QuantConfig::w2()
            .macro_block(16)
            .row_block(16)
            .error_compensation(false)
            .build()
            .unwrap();
        let out_with = solve(&layer, &with).unwrap();
        let out_without = solve(&layer, &without).unwrap();
        let err = |o: &SolverOutput| {
            let reference = layer.weights.matmul(&layer.calibration);
            let got = o.dequantized.matmul(&layer.calibration);
            reference.frobenius_distance(&got) / reference.frobenius_norm()
        };
        assert!(
            err(&out_with) < err(&out_without),
            "compensation should reduce output error: {} vs {}",
            err(&out_with),
            err(&out_without)
        );
    }

    #[test]
    fn outlier_handling_beats_ignoring_outliers() {
        let layer = test_layer(8, 64, 0.03, 17);
        let full = w2_cfg();
        let ignore = QuantConfig::w2()
            .macro_block(16)
            .row_block(16)
            .outlier_mode(OutlierMode::Ignore)
            .build()
            .unwrap();
        let e_full = solve(&layer, &full)
            .unwrap()
            .dequantized
            .frobenius_distance(&layer.weights);
        let e_ignore = solve(&layer, &ignore)
            .unwrap()
            .dequantized
            .frobenius_distance(&layer.weights);
        assert!(
            e_full < e_ignore * 0.8,
            "full {e_full} vs ignore {e_ignore}"
        );
    }

    #[test]
    fn pruned_count_equals_outlier_count() {
        let layer = test_layer(8, 64, 0.02, 19);
        let out = solve(&layer, &w2_cfg()).unwrap();
        assert!(out.stats.outlier_fraction > 0.0);
        assert!(
            (out.stats.pruned_fraction - out.stats.outlier_fraction).abs() < 1e-12,
            "N:M invariant: one pruned slot per kept outlier"
        );
    }

    #[test]
    fn ebw_in_paper_range_for_w2() {
        let layer = test_layer(16, 128, 0.01, 23);
        let cfg = QuantConfig::w2().build().unwrap();
        let out = solve(&layer, &cfg).unwrap();
        let ebw = out.stats.effective_bit_width;
        // bb=2, Bμ=8: EBW ∈ [2, 6]; with ~1% outliers the paper reports 2.36.
        assert!((2.0..3.5).contains(&ebw), "ebw = {ebw}");
    }

    #[test]
    fn zero_weight_layer_is_handled() {
        let w = Matrix::zeros(4, 16);
        let mut rng = SeededRng::new(29);
        let x = Matrix::from_fn(16, 24, |_, _| rng.normal(0.0, 1.0));
        let layer = LayerTensors::new(w, x).unwrap();
        let out = solve(&layer, &w2_cfg()).unwrap();
        assert_eq!(out.dequantized.frobenius_norm(), 0.0);
        assert_eq!(out.stats.outlier_fraction, 0.0);
    }

    #[test]
    fn all_outlier_micro_block_demotes_excess() {
        // A block where most values are huge: at most Bμ/2 survive as
        // outliers; demotions are counted.
        let mut w = Matrix::zeros(1, 16);
        for c in 0..16 {
            w[(0, c)] = if c < 12 { 0.5 + c as f64 * 0.01 } else { 0.001 };
        }
        let mut rng = SeededRng::new(31);
        let x = Matrix::from_fn(16, 24, |_, _| rng.normal(0.0, 1.0));
        let layer = LayerTensors::new(w, x).unwrap();
        let out = solve(&layer, &w2_cfg()).unwrap();
        // Must not panic and must record some quantization result.
        assert!(out.dequantized.frobenius_norm() > 0.0);
    }

    #[test]
    fn non_aligned_dimensions_are_supported() {
        // d_col = 40 is not a multiple of macro(16) or micro(8) blocks.
        let layer = test_layer(5, 40, 0.02, 37);
        let out = solve(&layer, &w2_cfg()).unwrap();
        let packed = out.packed.unwrap();
        assert_eq!(packed.dequantize().cols(), 40);
        assert!(out.dequantized.frobenius_distance(&packed.dequantize()) < 1e-9);
    }

    #[test]
    fn w4_mode_produces_lower_error_than_w2() {
        let layer = test_layer(8, 64, 0.02, 41);
        let w2 = w2_cfg();
        let w4 = QuantConfig::w4()
            .macro_block(16)
            .row_block(16)
            .build()
            .unwrap();
        let e2 = solve(&layer, &w2)
            .unwrap()
            .dequantized
            .frobenius_distance(&layer.weights);
        let e4 = solve(&layer, &w4)
            .unwrap()
            .dequantized
            .frobenius_distance(&layer.weights);
        assert!(e4 < e2, "W4 error {e4} must beat W2 error {e2}");
    }

    #[test]
    fn sideband_mode_reports_higher_ebw() {
        let layer = test_layer(8, 64, 0.03, 43);
        let sideband = QuantConfig::w2()
            .macro_block(16)
            .row_block(16)
            .prune_redistribute(false)
            .build()
            .unwrap();
        let out = solve(&layer, &sideband).unwrap();
        assert!(out.packed.is_none());
        assert!(out.stats.effective_bit_width > 2.0);
        assert_eq!(out.stats.pruned_fraction, 0.0);
    }
}
