//! The common quantizer interface shared by MicroScopiQ and all baselines.

use crate::error::QuantError;
use crate::packed::PackedLayer;
use microscopiq_linalg::Matrix;

/// Input to layer-wise post-training quantization: the layer's weights and
/// a calibration activation sample.
#[derive(Debug, Clone)]
pub struct LayerTensors {
    /// Weights, `d_row × d_col` (output channels × input features).
    pub weights: Matrix,
    /// Calibration activations `X`, `d_col × n_samples`.
    pub calibration: Matrix,
}

impl LayerTensors {
    /// Bundles a weight matrix with calibration activations.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::ShapeMismatch`] if the inner dimensions
    /// disagree, or [`QuantError::NonFiniteInput`] if either tensor contains
    /// NaN/infinity.
    pub fn new(weights: Matrix, calibration: Matrix) -> Result<Self, QuantError> {
        if weights.cols() != calibration.rows() {
            return Err(QuantError::ShapeMismatch {
                weight_cols: weights.cols(),
                calib_rows: calibration.rows(),
            });
        }
        if weights.as_slice().iter().any(|v| !v.is_finite()) {
            return Err(QuantError::NonFiniteInput { tensor: "weights" });
        }
        if calibration.as_slice().iter().any(|v| !v.is_finite()) {
            return Err(QuantError::NonFiniteInput {
                tensor: "calibration",
            });
        }
        Ok(Self {
            weights,
            calibration,
        })
    }

    /// Output-channel count.
    pub fn d_row(&self) -> usize {
        self.weights.rows()
    }

    /// Input-feature count.
    pub fn d_col(&self) -> usize {
        self.weights.cols()
    }
}

/// Per-layer statistics captured during quantization.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QuantStats {
    /// Effective bit width including metadata (Eq. 4).
    pub effective_bit_width: f64,
    /// Fraction of weights classified as outliers.
    pub outlier_fraction: f64,
    /// Fraction of weights pruned to host outlier halves.
    pub pruned_fraction: f64,
    /// Fraction of micro-blocks containing at least one outlier.
    pub outlier_micro_block_fraction: f64,
    /// Fraction of outliers that were demoted to inliers because their
    /// micro-block exceeded `B_μ/2` outliers (0 for all evaluated models).
    pub demoted_outlier_fraction: f64,
}

/// The result of quantizing one layer.
#[derive(Debug, Clone)]
pub struct QuantizedLayer {
    /// Dequantized reconstruction of the weights (`d_row × d_col`).
    pub dequantized: Matrix,
    /// Hardware-facing packed representation, when the method produces one
    /// (MicroScopiQ always does; some baselines are software-metadata only).
    pub packed: Option<PackedLayer>,
    /// Measured statistics.
    pub stats: QuantStats,
}

impl QuantizedLayer {
    /// Relative layer output error `‖WX − QX‖F / ‖WX‖F` against the given
    /// original tensors — the accuracy proxy the experiments use, since
    /// they run on synthetic stand-ins rather than real checkpoints.
    pub fn output_error(&self, original: &LayerTensors) -> f64 {
        let ref_out = original.weights.matmul(&original.calibration);
        let q_out = self.dequantized.matmul(&original.calibration);
        let denom = ref_out.frobenius_norm();
        if denom == 0.0 {
            return 0.0;
        }
        ref_out.frobenius_distance(&q_out) / denom
    }

    /// Relative weight reconstruction error `‖W − Q‖F / ‖W‖F`.
    pub fn weight_error(&self, original: &LayerTensors) -> f64 {
        let denom = original.weights.frobenius_norm();
        if denom == 0.0 {
            return 0.0;
        }
        original.weights.frobenius_distance(&self.dequantized) / denom
    }
}

/// A layer-wise post-training weight quantizer (MicroScopiQ or a baseline).
pub trait WeightQuantizer {
    /// Short method name as it appears in the paper's tables
    /// (e.g. `"MicroScopiQ"`, `"GPTQ"`, `"OliVe"`).
    fn name(&self) -> &str;

    /// Quantizes one layer.
    ///
    /// # Errors
    ///
    /// Implementations return [`QuantError`] for malformed inputs or
    /// numerically unusable calibration data.
    fn quantize_layer(&self, layer: &LayerTensors) -> Result<QuantizedLayer, QuantError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_tensors_validates_shapes() {
        let w = Matrix::zeros(4, 8);
        let x = Matrix::zeros(6, 3);
        let err = LayerTensors::new(w, x).unwrap_err();
        assert_eq!(
            err,
            QuantError::ShapeMismatch {
                weight_cols: 8,
                calib_rows: 6
            }
        );
    }

    #[test]
    fn layer_tensors_rejects_nan() {
        let mut w = Matrix::zeros(2, 2);
        w[(0, 0)] = f64::NAN;
        let x = Matrix::zeros(2, 2);
        assert_eq!(
            LayerTensors::new(w, x).unwrap_err(),
            QuantError::NonFiniteInput { tensor: "weights" }
        );
    }

    #[test]
    fn perfect_reconstruction_has_zero_error() {
        let w = Matrix::from_fn(3, 4, |r, c| (r + c) as f64 * 0.1);
        let x = Matrix::from_fn(4, 5, |r, c| (r as f64 - c as f64) * 0.2);
        let layer = LayerTensors::new(w.clone(), x).unwrap();
        let q = QuantizedLayer {
            dequantized: w,
            packed: None,
            stats: QuantStats::default(),
        };
        assert_eq!(q.output_error(&layer), 0.0);
        assert_eq!(q.weight_error(&layer), 0.0);
    }

    #[test]
    fn output_error_scales_with_perturbation() {
        let w = Matrix::from_fn(3, 4, |r, c| ((r * 4 + c) as f64).sin() * 0.05);
        let x = Matrix::from_fn(4, 6, |r, c| ((r + c) as f64).cos());
        let layer = LayerTensors::new(w.clone(), x).unwrap();
        let perturb = |eps: f64| {
            let mut d = w.clone();
            for v in d.as_mut_slice() {
                *v += eps;
            }
            QuantizedLayer {
                dequantized: d,
                packed: None,
                stats: QuantStats::default(),
            }
            .output_error(&layer)
        };
        assert!(perturb(0.02) > perturb(0.005));
    }
}
