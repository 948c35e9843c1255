//! Functional weight-stationary array execution of a MicroScopiQ-packed
//! GEMM (§5.1, §5.6).
//!
//! The executor reproduces the datapath semantics exactly — multi-precision
//! INT PEs (module [`crate::pe`]), per-row ReCoN merges
//! (module [`crate::recon`]), scale alignment through the PE shift port
//! (§5.5) — using a shared fixed-point accumulator, and is validated
//! bit-exactly against `PackedLayer::dequantize() · X`. Cycle/latency
//! accounting lives in [`crate::perf`]; this module counts the events the
//! performance and energy models consume (ReCoN accesses, switch ops,
//! MACs).
//!
//! The packed layer must use `GroupAxis::OutputChannel` so that one μB maps
//! across one PE row, as in Fig. 6/8: the PE row shares one activation, so
//! a micro-block's slots must be distinct output channels of one input.

use crate::recon::{ColumnInput, ReCoN};
use microscopiq_core::config::GroupAxis;
use microscopiq_core::packed::PackedLayer;
use microscopiq_linalg::Matrix;
use microscopiq_mx::halves::unpack_sign_mag;
use microscopiq_mx::scale::Pow2Scale;

/// Quantized input activations: integer codes with one shared
/// power-of-two scale.
#[derive(Debug, Clone)]
pub struct QuantizedActs {
    /// Codes, `d_col × batch`, each in `[-127, 127]`.
    pub codes: Matrix,
    /// Shared scale `2^xsf`.
    pub scale: Pow2Scale,
}

impl QuantizedActs {
    /// Quantizes activations to INT8 with a per-tensor power-of-two scale.
    pub fn from_f64(x: &Matrix) -> Self {
        let scale = Pow2Scale::from_max(x.max_abs(), 127.0);
        let codes = Matrix::from_fn(x.rows(), x.cols(), |r, c| {
            scale.apply(x[(r, c)]).round().clamp(-127.0, 127.0)
        });
        Self { codes, scale }
    }

    /// The dequantized activations the reference GEMM should use.
    pub fn dequantize(&self) -> Matrix {
        let mut x = self.codes.clone();
        x.scale(self.scale.value());
        x
    }
}

/// Event counters from a functional execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecutionCounters {
    /// Integer MAC operations performed.
    pub macs: usize,
    /// Row-waves that required ReCoN (accesses).
    pub recon_accesses: usize,
    /// Total row-waves processed.
    pub total_waves: usize,
    /// ReCoN switch operations.
    pub switch_ops: usize,
    /// Merge operations (outlier partial sums reconstructed).
    pub merges: usize,
}

/// Result of executing a GEMM on the functional array.
#[derive(Debug, Clone)]
pub struct GemmExecution {
    /// Output activations `Y = W·X` (`d_row × batch`), real-valued.
    pub outputs: Matrix,
    /// Event counters.
    pub counters: ExecutionCounters,
}

/// Executes `Y = W · X` where `W` is the packed layer and `X` the quantized
/// activations.
///
/// # Panics
///
/// Panics if the layer is not `OutputChannel`-packed, or shapes mismatch.
pub fn execute_gemm(packed: &PackedLayer, acts: &QuantizedActs) -> GemmExecution {
    assert_eq!(
        packed.axis(),
        GroupAxis::OutputChannel,
        "hardware mapping requires OutputChannel packing (one micro-block per PE row)"
    );
    assert_eq!(
        acts.codes.rows(),
        packed.d_col(),
        "activation shape mismatch"
    );
    let d_row = packed.d_row();
    let d_col = packed.d_col();
    let batch = acts.codes.cols();
    let bb = packed.inlier_bits();
    let fmt = packed.outlier_format();
    let mb = fmt.mantissa_bits();
    let mabs_per_line = d_row.div_ceil(packed.macro_block());

    // Common accumulator exponent: every contribution is an integer times
    // 2^(exp). Inliers: isf + xsf − 0; outliers: (mxtotal − isf) + xsf − mb
    // (the merged value carries mb fractional bits).
    let xsf = acts.scale.exponent();
    let mut e_min = i32::MAX;
    for g in packed.iter_groups() {
        let isf = g.isf().exponent();
        e_min = e_min.min(isf + xsf);
        for (mxscale, _) in g.micro_blocks().filter_map(|(_, outliers)| outliers) {
            e_min = e_min.min(mxscale.total_exponent() - isf + xsf - mb as i32);
        }
    }
    if e_min == i32::MAX {
        e_min = xsf;
    }

    let mut acc = vec![vec![0i128; batch]; d_row];
    let mut counters = ExecutionCounters::default();
    let recon = ReCoN::new(packed.micro_block().next_power_of_two().max(2));

    // Walk line by line (line = input index k; its groups span output
    // channels — each μB maps across one PE row).
    for k in 0..d_col {
        for mab in 0..mabs_per_line {
            let group = packed.group(k * mabs_per_line + mab);
            let isf = group.isf().exponent();
            let mut offset = mab * packed.macro_block();
            for (codes, outliers) in group.micro_blocks() {
                let n = codes.len();
                match outliers {
                    None => {
                        // Pure inlier μB: straight PE-row MACs.
                        let shift = (isf + xsf - e_min) as u32;
                        #[allow(clippy::needless_range_loop)] // b indexes acts and acc together
                        for b in 0..batch {
                            let x = acts.codes[(k, b)] as i128;
                            for (i, &code) in codes.iter().enumerate() {
                                let sh = 8 - bb;
                                let w = ((code << sh) as i8 >> sh) as i128;
                                counters.macs += 1;
                                acc[offset + i][b] += (w * x) << shift;
                            }
                            counters.total_waves += 1;
                        }
                    }
                    Some((mxscale, entries)) => {
                        // Outlier-bearing μB: route every wave through ReCoN.
                        let out_exp = mxscale.total_exponent() - isf;
                        let in_shift = (isf + xsf - e_min) as u32;
                        let out_shift = (out_exp + xsf - mb as i32 - e_min) as u32;
                        // μB-relative perm entries are already relative.
                        let is_outlier_col: Vec<bool> = {
                            let mut v = vec![false; n];
                            for e in entries {
                                v[e.upper_loc as usize] = true;
                                v[e.lower_loc as usize] = true;
                            }
                            v
                        };
                        #[allow(clippy::needless_range_loop)] // b indexes acts and acc together
                        for b in 0..batch {
                            let x = acts.codes[(k, b)] as i64;
                            let mut inputs = Vec::with_capacity(recon.width());
                            for (i, &code) in codes.iter().enumerate() {
                                counters.macs += 1;
                                if is_outlier_col[i] {
                                    let half = unpack_sign_mag(code, bb) as i64;
                                    inputs.push(ColumnInput::Offload {
                                        res: half * x,
                                        iacc: 0,
                                    });
                                } else {
                                    let sh = 8 - bb;
                                    let w = ((code << sh) as i8 >> sh) as i64;
                                    inputs.push(ColumnInput::Psum((w * x) << mb));
                                }
                            }
                            // Pad to the network width.
                            while inputs.len() < recon.width() {
                                inputs.push(ColumnInput::Psum(0));
                            }
                            let signed_iacts: Vec<i64> = entries
                                .iter()
                                .map(|e| {
                                    let sign_bit = (codes[e.upper_loc as usize] >> (bb - 1)) & 1;
                                    if sign_bit == 1 {
                                        -x
                                    } else {
                                        x
                                    }
                                })
                                .collect();
                            let routed = recon.route(&inputs, entries, &signed_iacts, mb);
                            counters.recon_accesses += 1;
                            counters.total_waves += 1;
                            counters.switch_ops += routed.switch_ops;
                            counters.merges += routed.merges;
                            for (i, &v) in routed.outputs.iter().take(n).enumerate() {
                                // Each column keeps its own scale on the way
                                // out: merged outlier columns carry mb
                                // fractional bits at exponent out_exp − mb;
                                // inlier columns round-trip their ≪ mb
                                // pre-shift losslessly.
                                let (val, shift) = if is_outlier_col[i] {
                                    (v as i128, out_shift)
                                } else {
                                    ((v >> mb) as i128, in_shift)
                                };
                                acc[offset + i][b] += val << shift;
                            }
                        }
                    }
                }
                offset += n;
            }
        }
    }

    let scale = (e_min as f64).exp2();
    let outputs = Matrix::from_fn(d_row, batch, |r, b| acc[r][b] as f64 * scale);
    GemmExecution { outputs, counters }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microscopiq_core::config::QuantConfig;
    use microscopiq_core::solver::solve;
    use microscopiq_core::traits::LayerTensors;
    use microscopiq_linalg::SeededRng;

    fn packed_layer(
        d_row: usize,
        d_col: usize,
        bits: u32,
        seed: u64,
    ) -> (LayerTensors, PackedLayer) {
        let mut rng = SeededRng::new(seed);
        let mut w = Matrix::from_fn(d_row, d_col, |_, _| rng.normal(0.0, 0.02));
        let n_out = (d_row * d_col) / 40;
        for _ in 0..n_out {
            let r = rng.below(d_row);
            let c = rng.below(d_col);
            w[(r, c)] = rng.sign() * rng.uniform_range(0.15, 0.4);
        }
        let x = Matrix::from_fn(d_col, d_col + 8, |_, _| rng.normal(0.0, 1.0));
        let layer = LayerTensors::new(w, x).unwrap();
        let cfg = QuantConfig::builder(bits)
            .macro_block(16)
            .row_block(16)
            .group_axis(GroupAxis::OutputChannel)
            .build()
            .unwrap();
        let out = solve(&layer, &cfg).unwrap();
        (layer, out.packed.unwrap())
    }

    #[test]
    fn functional_gemm_matches_dequantized_reference_w2() {
        let (_layer, packed) = packed_layer(16, 24, 2, 1);
        let mut rng = SeededRng::new(2);
        let x = Matrix::from_fn(24, 5, |_, _| rng.normal(0.0, 1.0));
        let acts = QuantizedActs::from_f64(&x);
        let exec = execute_gemm(&packed, &acts);
        let reference = packed.dequantize().matmul(&acts.dequantize());
        let err = exec.outputs.frobenius_distance(&reference);
        assert!(err < 1e-9, "functional GEMM diverges: {err}");
        assert!(exec.counters.merges > 0, "test layer should exercise ReCoN");
    }

    #[test]
    fn functional_gemm_matches_dequantized_reference_w4() {
        let (_layer, packed) = packed_layer(16, 24, 4, 3);
        let mut rng = SeededRng::new(4);
        let x = Matrix::from_fn(24, 3, |_, _| rng.normal(0.0, 0.5));
        let acts = QuantizedActs::from_f64(&x);
        let exec = execute_gemm(&packed, &acts);
        let reference = packed.dequantize().matmul(&acts.dequantize());
        assert!(exec.outputs.frobenius_distance(&reference) < 1e-9);
    }

    #[test]
    fn recon_access_fraction_tracks_outlier_occupancy() {
        let (_layer, packed) = packed_layer(32, 32, 2, 5);
        let mut rng = SeededRng::new(6);
        let x = Matrix::from_fn(32, 4, |_, _| rng.normal(0.0, 1.0));
        let acts = QuantizedActs::from_f64(&x);
        let exec = execute_gemm(&packed, &acts);
        let access_frac = exec.counters.recon_accesses as f64 / exec.counters.total_waves as f64;
        let mb_frac = packed.outlier_micro_block_fraction();
        assert!(
            (access_frac - mb_frac).abs() < 1e-9,
            "access {access_frac} vs μB occupancy {mb_frac}"
        );
    }

    #[test]
    fn mac_count_is_full_gemm() {
        let (_layer, packed) = packed_layer(8, 16, 2, 7);
        let mut rng = SeededRng::new(8);
        let x = Matrix::from_fn(16, 3, |_, _| rng.normal(0.0, 1.0));
        let acts = QuantizedActs::from_f64(&x);
        let exec = execute_gemm(&packed, &acts);
        assert_eq!(exec.counters.macs, 8 * 16 * 3);
    }

    #[test]
    fn clean_tensor_never_touches_recon() {
        // No outliers → no ReCoN accesses at all.
        let mut rng = SeededRng::new(9);
        let w = Matrix::from_fn(16, 16, |_, _| rng.normal(0.0, 0.02));
        let x = Matrix::from_fn(16, 24, |_, _| rng.normal(0.0, 1.0));
        let layer = LayerTensors::new(w, x).unwrap();
        let cfg = QuantConfig::w2()
            .macro_block(16)
            .row_block(16)
            .group_axis(GroupAxis::OutputChannel)
            .sigma_threshold(50.0) // nothing qualifies
            .build()
            .unwrap();
        let packed = solve(&layer, &cfg).unwrap().packed.unwrap();
        let acts = QuantizedActs::from_f64(&Matrix::from_fn(16, 2, |_, _| rng.normal(0.0, 1.0)));
        let exec = execute_gemm(&packed, &acts);
        assert_eq!(exec.counters.recon_accesses, 0);
        let reference = packed.dequantize().matmul(&acts.dequantize());
        assert!(exec.outputs.frobenius_distance(&reference) < 1e-9);
    }
}
