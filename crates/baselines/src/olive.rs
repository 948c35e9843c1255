//! OliVe (Guo et al., ISCA'23) — outlier-victim pair quantization, the
//! paper's principal group-B comparison.
//!
//! Behavioural reproduction of the published scheme: inliers and outliers
//! share one 4-bit budget; inliers use the "flint" (adaptive float-int)
//! format, outliers the "abfloat" (adaptive biased float) format whose
//! exponent bias anchors at the outlier threshold; and the value *adjacent*
//! to every outlier is sacrificed ("victim") as the format identifier.
//! The victim rule is the failure mode §3.2 dissects: when two outliers are
//! adjacent — common in modern FMs — one of them is destroyed.
//!
//! Simplifications vs the RTL paper: encoding
//! tables are value-level rather than bit-level, and scales are per
//! macro-block rather than per tensor-core tile.

use microscopiq_core::error::QuantError;
use microscopiq_core::outlier::classify_outliers;
use microscopiq_core::traits::{LayerTensors, QuantStats, QuantizedLayer, WeightQuantizer};
use microscopiq_linalg::Matrix;

/// flint-4 magnitude levels: dense integers near zero, float-style spacing
/// further out (ANT's adaptive int/float hybrid).
const FLINT4_LEVELS: [f64; 8] = [0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0];

/// abfloat-4 magnitude multipliers over the outlier threshold:
/// `(1 + m/2) · 2^e` for e ∈ 0..4, m ∈ 0..2.
const ABFLOAT4_LEVELS: [f64; 8] = [1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0];

fn nearest(levels: &[f64], target: f64) -> f64 {
    levels
        .iter()
        .cloned()
        .min_by(|a, b| {
            (a - target)
                .abs()
                .partial_cmp(&(b - target).abs())
                .expect("finite")
        })
        .expect("non-empty table")
}

/// OliVe quantizer.
#[derive(Debug, Clone)]
pub struct Olive {
    /// Shared element width (the published design is 4-bit; 2-bit collapses
    /// the tables to their first four levels).
    bits: u32,
    /// Scale-sharing block along the input dimension.
    block: usize,
    /// Outlier threshold in σ.
    sigma: f64,
}

impl Olive {
    /// OliVe at the given width with block-128 scales.
    pub fn new(bits: u32) -> Self {
        Self {
            bits,
            block: 128,
            sigma: 3.0,
        }
    }

    /// Overrides the scale block size.
    pub fn block(mut self, block: usize) -> Self {
        self.block = block;
        self
    }

    fn levels(&self) -> (Vec<f64>, Vec<f64>) {
        let n = 1usize << (self.bits - 1);
        (
            FLINT4_LEVELS[..n.min(8)].to_vec(),
            ABFLOAT4_LEVELS[..n.min(8)].to_vec(),
        )
    }
}

impl WeightQuantizer for Olive {
    fn name(&self) -> &str {
        "OliVe"
    }

    fn quantize_layer(&self, layer: &LayerTensors) -> Result<QuantizedLayer, QuantError> {
        let (flint, abfloat) = self.levels();
        let mut deq = Matrix::zeros(layer.d_row(), layer.d_col());
        let mut outliers = 0usize;
        let mut victims = 0usize;
        let mut destroyed_outliers = 0usize;

        for r in 0..layer.d_row() {
            let row = layer.weights.row(r).to_vec();
            for (b, chunk) in row.chunks(self.block).enumerate() {
                let base = b * self.block;
                let flagged = classify_outliers(chunk, self.sigma);
                // Victim selection: the slot after each outlier (before it
                // at the block edge) is sacrificed as the identifier.
                let mut victim = vec![false; chunk.len()];
                for (i, &is_outlier) in flagged.iter().enumerate() {
                    if is_outlier {
                        let v = if i + 1 < chunk.len() { i + 1 } else { i - 1 };
                        if !victim[v] {
                            victim[v] = true;
                        }
                    }
                }
                let threshold = {
                    // Outlier scale anchors at the largest inlier magnitude.
                    let inlier_max = chunk
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| !flagged[*i])
                        .fold(0.0_f64, |m, (_, v)| m.max(v.abs()));
                    if inlier_max > 0.0 {
                        inlier_max
                    } else {
                        1.0
                    }
                };
                let inlier_scale = threshold / flint.last().copied().unwrap_or(1.0);
                for (i, &w) in chunk.iter().enumerate() {
                    let c = base + i;
                    if victim[i] {
                        // Victim slot: value destroyed. A flagged victim is
                        // a destroyed outlier — the §3.2 failure.
                        deq[(r, c)] = 0.0;
                        victims += 1;
                        if flagged[i] {
                            destroyed_outliers += 1;
                        }
                    } else if flagged[i] {
                        outliers += 1;
                        let mult = nearest(&abfloat, w.abs() / threshold);
                        deq[(r, c)] = w.signum() * mult * threshold;
                    } else {
                        let mag = nearest(&flint, w.abs() / inlier_scale);
                        deq[(r, c)] = w.signum() * mag * inlier_scale;
                    }
                }
            }
        }

        let total = (layer.d_row() * layer.d_col()) as f64;
        Ok(QuantizedLayer {
            dequantized: deq,
            packed: None,
            stats: QuantStats {
                effective_bit_width: self.bits as f64,
                outlier_fraction: outliers as f64 / total,
                pruned_fraction: victims as f64 / total,
                demoted_outlier_fraction: destroyed_outliers as f64
                    / (outliers + destroyed_outliers).max(1) as f64,
                ..QuantStats::default()
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microscopiq_linalg::SeededRng;

    fn layer_with_outliers(adjacent: bool, seed: u64) -> LayerTensors {
        let mut rng = SeededRng::new(seed);
        let mut w = Matrix::from_fn(4, 64, |_, _| rng.normal(0.0, 0.02));
        if adjacent {
            w[(0, 10)] = 0.3;
            w[(0, 11)] = 0.28; // adjacent pair — OliVe's nemesis
        } else {
            w[(0, 10)] = 0.3;
            w[(0, 40)] = 0.28;
        }
        let x = Matrix::from_fn(64, 32, |_, _| rng.normal(0.0, 1.0));
        LayerTensors::new(w, x).unwrap()
    }

    #[test]
    fn isolated_outliers_are_preserved() {
        let l = layer_with_outliers(false, 1);
        let out = Olive::new(4).block(64).quantize_layer(&l).unwrap();
        assert!(
            (out.dequantized[(0, 10)] - 0.3).abs() / 0.3 < 0.35,
            "outlier {} vs 0.3",
            out.dequantized[(0, 10)]
        );
    }

    #[test]
    fn victims_are_destroyed() {
        let l = layer_with_outliers(false, 2);
        let out = Olive::new(4).block(64).quantize_layer(&l).unwrap();
        assert_eq!(out.dequantized[(0, 11)], 0.0, "victim next to the outlier");
        assert!(out.stats.pruned_fraction > 0.0);
    }

    #[test]
    fn adjacent_outliers_destroy_one_of_the_pair() {
        // §3.2: the second adjacent outlier becomes the victim.
        let l = layer_with_outliers(true, 3);
        let out = Olive::new(4).block(64).quantize_layer(&l).unwrap();
        let a = out.dequantized[(0, 10)];
        let b = out.dequantized[(0, 11)];
        assert!(
            a == 0.0 || b == 0.0,
            "one of the adjacent pair must be zeroed: {a}, {b}"
        );
        assert!(out.stats.demoted_outlier_fraction > 0.0);
    }

    #[test]
    fn adjacency_costs_accuracy() {
        let iso = layer_with_outliers(false, 4);
        let adj = layer_with_outliers(true, 4);
        let q = Olive::new(4).block(64);
        let e_iso = q.quantize_layer(&iso).unwrap().weight_error(&iso);
        let e_adj = q.quantize_layer(&adj).unwrap().weight_error(&adj);
        assert!(
            e_adj > e_iso * 1.3,
            "adjacent-outlier error {e_adj} should exceed isolated {e_iso}"
        );
    }

    #[test]
    fn abfloat_covers_large_dynamic_range() {
        // A 12× threshold outlier is still representable.
        let mut rng = SeededRng::new(5);
        let mut w = Matrix::from_fn(1, 64, |_, _| rng.normal(0.0, 0.02));
        w[(0, 5)] = 0.7;
        let x = Matrix::from_fn(64, 16, |_, _| rng.normal(0.0, 1.0));
        let l = LayerTensors::new(w, x).unwrap();
        let out = Olive::new(4).block(64).quantize_layer(&l).unwrap();
        assert!(
            (out.dequantized[(0, 5)] - 0.7).abs() / 0.7 < 0.4,
            "large outlier {}",
            out.dequantized[(0, 5)]
        );
    }
}
