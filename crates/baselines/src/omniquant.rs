//! OmniQuant-GS — a grid-search approximation of OmniQuant (Shao et al.).
//!
//! OmniQuant learns two things by gradient descent: per-group weight
//! clipping (LWC) and an equivalent transformation migrating activation
//! difficulty to weights (LET). Both are low-dimensional, so grid search
//! finds near-identical optima at PTQ scale: LWC becomes a
//! per-group clip-ratio search minimizing group reconstruction MSE; LET is
//! the α-migration applied by the evaluation driver.

use crate::util::rtn_slice;
use microscopiq_core::error::QuantError;
use microscopiq_core::traits::{LayerTensors, QuantStats, QuantizedLayer, WeightQuantizer};
use microscopiq_linalg::Matrix;

/// OmniQuant-GS quantizer.
#[derive(Debug, Clone)]
pub struct OmniQuantGs {
    bits: u32,
    group: usize,
    clip_grid: Vec<f64>,
}

impl OmniQuantGs {
    /// OmniQuant-GS at the given width and group size.
    pub fn new(bits: u32, group: usize) -> Self {
        Self {
            bits,
            group,
            clip_grid: vec![0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 1.0],
        }
    }
}

impl WeightQuantizer for OmniQuantGs {
    fn name(&self) -> &str {
        "OmniQuant"
    }

    fn quantize_layer(&self, layer: &LayerTensors) -> Result<QuantizedLayer, QuantError> {
        let mut deq = Matrix::zeros(layer.d_row(), layer.d_col());
        for r in 0..layer.d_row() {
            let row = layer.weights.row(r);
            for (g, chunk) in row.chunks(self.group).enumerate() {
                // LWC: pick the clip ratio minimizing this group's MSE.
                let mut best: Option<(f64, Vec<f64>)> = None;
                for &clip in &self.clip_grid {
                    let cand = rtn_slice(chunk, self.bits, clip);
                    let mse: f64 = chunk
                        .iter()
                        .zip(cand.iter())
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum();
                    if best.as_ref().is_none_or(|(m, _)| mse < *m) {
                        best = Some((mse, cand));
                    }
                }
                let (_, values) = best.expect("non-empty grid");
                for (i, v) in values.into_iter().enumerate() {
                    deq[(r, g * self.group + i)] = v;
                }
            }
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
    use microscopiq_linalg::SeededRng;

    fn layer(seed: u64) -> LayerTensors {
        let mut rng = SeededRng::new(seed);
        let mut w = Matrix::from_fn(8, 64, |_, _| rng.normal(0.0, 0.02));
        for i in 0..4 {
            w[(i, i * 13 + 2)] = rng.sign() * 0.3;
        }
        let x = Matrix::from_fn(64, 32, |_, _| rng.normal(0.0, 1.0));
        LayerTensors::new(w, x).unwrap()
    }

    #[test]
    fn clipping_never_loses_to_plain_rtn_on_mse() {
        let l = layer(1);
        let o = OmniQuantGs::new(2, 16)
            .quantize_layer(&l)
            .unwrap()
            .weight_error(&l);
        let r = Rtn::group(2, 16)
            .quantize_layer(&l)
            .unwrap()
            .weight_error(&l);
        assert!(o <= r + 1e-12, "OmniQuant-GS {o} vs RTN {r}");
    }

    #[test]
    fn clipping_helps_at_two_bits_with_outliers() {
        // At 2 bits an unclipped outlier collapses the whole group; LWC
        // must strictly improve.
        let l = layer(2);
        let o = OmniQuantGs::new(2, 32)
            .quantize_layer(&l)
            .unwrap()
            .weight_error(&l);
        let r = Rtn::group(2, 32)
            .quantize_layer(&l)
            .unwrap()
            .weight_error(&l);
        assert!(o < r, "OmniQuant-GS {o} must strictly beat RTN {r}");
    }

    #[test]
    fn deterministic() {
        let l = layer(3);
        let q = OmniQuantGs::new(4, 16);
        assert_eq!(
            q.quantize_layer(&l).unwrap().dequantized,
            q.quantize_layer(&l).unwrap().dequantized
        );
    }
}
