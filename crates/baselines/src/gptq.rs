//! GPTQ (Frantar et al.) — Hessian-compensated group quantization with
//! float scales and no special outlier handling. The reference point for
//! error-compensation quality in Table 2.

use microscopiq_core::error::QuantError;
use microscopiq_core::hessian::HessianState;
use microscopiq_core::traits::{LayerTensors, QuantStats, QuantizedLayer, WeightQuantizer};
use microscopiq_linalg::Matrix;

/// GPTQ quantizer.
#[derive(Debug, Clone)]
pub struct Gptq {
    bits: u32,
    group: usize,
    block: usize,
    percdamp: f64,
}

impl Gptq {
    /// GPTQ at the given width with group-`group` float scales (the paper's
    /// standard configuration is 4-bit, group 128, block 128).
    pub fn new(bits: u32, group: usize) -> Self {
        Self {
            bits,
            group,
            block: 128,
            percdamp: 0.01,
        }
    }

    /// Overrides the compensation block size.
    pub fn block(mut self, block: usize) -> Self {
        self.block = block;
        self
    }

    /// Overrides the Hessian dampening fraction. Small, well-conditioned
    /// calibration sets (e.g. TinyFM traces) need far heavier damping than
    /// GPTQ's LLM default of 0.01 to keep low-bit compensation stable.
    pub fn percdamp(mut self, percdamp: f64) -> Self {
        self.percdamp = percdamp;
        self
    }
}

impl WeightQuantizer for Gptq {
    fn name(&self) -> &str {
        "GPTQ"
    }

    fn quantize_layer(&self, layer: &LayerTensors) -> Result<QuantizedLayer, QuantError> {
        let d_row = layer.d_row();
        let d_col = layer.d_col();
        let hessian = HessianState::from_calibration(&layer.calibration, self.percdamp)?;
        let qmax = ((1i64 << (self.bits - 1)) - 1) as f64;

        let mut work = layer.weights.clone();
        let mut deq = Matrix::zeros(d_row, d_col);
        // Per-row scale of the group currently being processed.
        let mut scales = vec![0.0_f64; d_row];

        let mut block_start = 0;
        while block_start < d_col {
            let block_end = (block_start + self.block).min(d_col);
            let mut err_block = Matrix::zeros(d_row, block_end - block_start);
            for j in block_start..block_end {
                if j % self.group == 0 || j == block_start {
                    // Refresh group scales from the current (compensated)
                    // weights, like GPTQ's dynamic group quantization.
                    let g_end = (j - (j % self.group) + self.group).min(d_col);
                    for (r, s) in scales.iter_mut().enumerate() {
                        let max_abs = work.row(r)[j..g_end]
                            .iter()
                            .fold(0.0_f64, |m, v| m.max(v.abs()));
                        *s = if max_abs == 0.0 { 0.0 } else { max_abs / qmax };
                    }
                }
                let urow = hessian.update_row(j, block_end);
                for r in 0..d_row {
                    let w = work[(r, j)];
                    let dq = if scales[r] == 0.0 {
                        0.0
                    } else {
                        (w / scales[r]).round().clamp(-qmax, qmax) * scales[r]
                    };
                    deq[(r, j)] = dq;
                    let e = (w - dq) / hessian.diag(j);
                    err_block[(r, j - block_start)] = e;
                    let row = work.row_mut(r);
                    for (k, &u) in urow.iter().enumerate() {
                        row[j + 1 + k] -= e * u;
                    }
                }
            }
            hessian.propagate_block_error(&err_block, block_start, &mut work);
            block_start = block_end;
        }

        Ok(QuantizedLayer {
            dequantized: deq,
            packed: None,
            stats: QuantStats {
                effective_bit_width: self.bits as f64,
                ..QuantStats::default()
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtn::Rtn;
    use microscopiq_linalg::{Matrix, SeededRng};

    fn layer(seed: u64) -> LayerTensors {
        let mut rng = SeededRng::new(seed);
        let w = Matrix::from_fn(8, 64, |_, _| rng.normal(0.0, 0.02));
        let x = Matrix::from_fn(64, 96, |_, _| rng.normal(0.0, 1.0));
        LayerTensors::new(w, x).unwrap()
    }

    #[test]
    fn gptq_beats_rtn_on_output_error() {
        let l = layer(1);
        let g = Gptq::new(4, 16).block(16);
        let r = Rtn::group(4, 16);
        let eg = g.quantize_layer(&l).unwrap().output_error(&l);
        let er = r.quantize_layer(&l).unwrap().output_error(&l);
        assert!(eg < er, "GPTQ {eg} must beat RTN {er}");
    }

    #[test]
    fn gptq_is_deterministic() {
        let l = layer(2);
        let g = Gptq::new(4, 16).block(16);
        let a = g.quantize_layer(&l).unwrap();
        let b = g.quantize_layer(&l).unwrap();
        assert_eq!(a.dequantized, b.dequantized);
    }

    #[test]
    fn more_bits_less_error() {
        let l = layer(3);
        let e2 = Gptq::new(2, 16)
            .block(16)
            .quantize_layer(&l)
            .unwrap()
            .output_error(&l);
        let e4 = Gptq::new(4, 16)
            .block(16)
            .quantize_layer(&l)
            .unwrap()
            .output_error(&l);
        assert!(e4 < e2);
    }

    #[test]
    fn name_is_gptq() {
        assert_eq!(Gptq::new(4, 128).name(), "GPTQ");
    }
}
