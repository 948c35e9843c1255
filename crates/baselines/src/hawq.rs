//! HAWQ-like mixed-precision baseline for the CNN rows of Table 4.
//!
//! HAWQ assigns per-layer/per-channel widths by Hessian sensitivity. This
//! reproduction scores output channels by `‖w_c‖² · E‖x‖²` (a standard
//! Hessian-trace surrogate) and gives the most sensitive half the higher
//! width — enough fidelity for its single reference row.

use crate::util::rtn_slice;
use microscopiq_core::error::QuantError;
use microscopiq_core::traits::{LayerTensors, QuantStats, QuantizedLayer, WeightQuantizer};
use microscopiq_linalg::Matrix;

/// HAWQ-like quantizer.
#[derive(Debug, Clone)]
pub struct HawqLike {
    low_bits: u32,
    high_bits: u32,
    high_fraction: f64,
}

impl HawqLike {
    /// Mixed precision with the top `high_fraction` sensitive channels at
    /// `high_bits`, the rest at `low_bits`.
    pub fn new(low_bits: u32, high_bits: u32, high_fraction: f64) -> Self {
        Self {
            low_bits,
            high_bits,
            high_fraction,
        }
    }
}

impl WeightQuantizer for HawqLike {
    fn name(&self) -> &str {
        "HAWQ"
    }

    fn quantize_layer(&self, layer: &LayerTensors) -> Result<QuantizedLayer, QuantError> {
        let act_energy: f64 = layer
            .calibration
            .as_slice()
            .iter()
            .map(|v| v * v)
            .sum::<f64>()
            / layer.calibration.cols() as f64;
        let sensitivity: Vec<f64> = (0..layer.d_row())
            .map(|r| layer.weights.row(r).iter().map(|w| w * w).sum::<f64>() * act_energy)
            .collect();
        let mut order: Vec<usize> = (0..layer.d_row()).collect();
        order.sort_by(|&a, &b| sensitivity[b].partial_cmp(&sensitivity[a]).expect("finite"));
        let n_high =
            ((layer.d_row() as f64 * self.high_fraction).round() as usize).clamp(0, layer.d_row());
        let mut bits = vec![self.low_bits; layer.d_row()];
        for &r in order.iter().take(n_high) {
            bits[r] = self.high_bits;
        }

        let mut deq = Matrix::zeros(layer.d_row(), layer.d_col());
        for r in 0..layer.d_row() {
            for (c, v) in rtn_slice(layer.weights.row(r), bits[r], 1.0)
                .into_iter()
                .enumerate()
            {
                deq[(r, c)] = v;
            }
        }
        let ebw = bits.iter().map(|&b| b as f64).sum::<f64>() / bits.len() as f64;
        Ok(QuantizedLayer {
            dequantized: deq,
            packed: None,
            stats: QuantStats {
                effective_bit_width: ebw,
                ..QuantStats::default()
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtn::Rtn;
    use microscopiq_linalg::SeededRng;

    fn layer(seed: u64) -> LayerTensors {
        let mut rng = SeededRng::new(seed);
        let w = Matrix::from_fn(16, 32, |r, _| {
            rng.normal(0.0, if r < 4 { 0.08 } else { 0.02 })
        });
        let x = Matrix::from_fn(32, 24, |_, _| rng.normal(0.0, 1.0));
        LayerTensors::new(w, x).unwrap()
    }

    #[test]
    fn mixed_precision_beats_uniform_low() {
        let l = layer(1);
        let h = HawqLike::new(2, 4, 0.5)
            .quantize_layer(&l)
            .unwrap()
            .weight_error(&l);
        let r = Rtn::per_channel(2)
            .quantize_layer(&l)
            .unwrap()
            .weight_error(&l);
        assert!(h < r, "HAWQ {h} vs uniform 2-bit {r}");
    }

    #[test]
    fn ebw_is_the_width_mix() {
        let l = layer(2);
        let out = HawqLike::new(2, 4, 0.5).quantize_layer(&l).unwrap();
        assert!((out.stats.effective_bit_width - 3.0).abs() < 1e-9);
    }

    #[test]
    fn sensitive_channels_get_high_bits() {
        // Rows 0..4 have 4× the weight energy; they must be among the
        // high-precision half, hence reconstructed more finely.
        let l = layer(3);
        let out = HawqLike::new(2, 4, 0.25).quantize_layer(&l).unwrap();
        let row_err = |r: usize| {
            l.weights
                .row(r)
                .iter()
                .zip(out.dequantized.row(r).iter())
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / l.weights.row(r).iter().map(|v| v.abs()).sum::<f64>()
        };
        assert!(
            row_err(0) < row_err(10),
            "{} vs {}",
            row_err(0),
            row_err(10)
        );
    }
}
