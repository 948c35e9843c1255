//! GPTQ Hessian machinery (§4.1): `H = 2XXᵀ + λI` and the upper Cholesky
//! factor of its inverse, which drives both error compensation and the
//! pruning saliency `w²/[H⁻¹]ₚₚ`.

use crate::error::QuantError;
use microscopiq_linalg::{upper_cholesky_of_inverse, Matrix};

/// The prepared Hessian state for one layer.
#[derive(Debug, Clone)]
pub struct HessianState {
    /// Upper Cholesky factor `U` of `H⁻¹` (so `H⁻¹ = Uᵀ·U`).
    chol_inv_upper: Matrix,
}

impl HessianState {
    /// Builds the damped Hessian `2XXᵀ + λI` from calibration activations
    /// (`d_col × n_samples`) with `λ = percdamp · mean(diag(2XXᵀ))` and
    /// factorizes its inverse.
    ///
    /// Dead input dimensions (zero diagonal) are handled by the damping
    /// term, matching GPTQ's practice.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::HessianNotPositiveDefinite`] if the damped
    /// Hessian still cannot be factorized.
    pub fn from_calibration(calibration: &Matrix, percdamp: f64) -> Result<Self, QuantError> {
        let mut h = calibration.gram();
        h.scale(2.0);
        let mean_diag: f64 = h.diagonal().iter().sum::<f64>() / h.rows() as f64;
        // Guard fully-degenerate calibration with an absolute floor.
        let damp = (percdamp * mean_diag).max(1e-8);
        h.add_diagonal(damp);
        let chol_inv_upper = upper_cholesky_of_inverse(&h)
            .map_err(|e| QuantError::HessianNotPositiveDefinite { pivot: e.pivot })?;
        Ok(Self { chol_inv_upper })
    }

    /// Builds the state for a quantizer that performs no compensation:
    /// the identity factor, under which saliency reduces to `w²` and
    /// compensation updates vanish.
    pub fn identity(dim: usize) -> Self {
        Self {
            chol_inv_upper: Matrix::identity(dim),
        }
    }

    /// The Hessian dimension (`d_col`).
    pub fn dim(&self) -> usize {
        self.chol_inv_upper.rows()
    }

    /// The diagonal entry `U[j,j]`, GPTQ's per-column error normalizer.
    pub fn diag(&self, j: usize) -> f64 {
        self.chol_inv_upper[(j, j)]
    }

    /// Pruning saliency of weight `w` at Hessian index `p`
    /// (Algorithm 1 L17): `w² / [H⁻¹]ₚₚ` with `[H⁻¹]ₚₚ` taken as
    /// `U[p,p]²` — the conditional variance once earlier columns are fixed,
    /// as in SparseGPT.
    pub fn saliency(&self, weight: f64, p: usize) -> f64 {
        let d = self.diag(p);
        weight * weight / (d * d)
    }

    /// The compensation row `U[j, j+1..end]` used to update not-yet-
    /// quantized columns after column `j` is quantized.
    pub fn update_row(&self, j: usize, end: usize) -> &[f64] {
        &self.chol_inv_upper.row(j)[j + 1..end]
    }

    /// The post-block update (Algorithm 1 L36): once the compensation block
    /// of columns `start..start + err.cols()` is quantized, subtracts its
    /// scaled errors' coupling from every later column,
    /// `work[r, k] −= Σⱼⱼ err[r, jj]·U[start + jj, k]`. A no-op when the
    /// block ends at the last column.
    ///
    /// Each sum starts at zero, runs `jj` upwards and skips zero errors; an
    /// accumulator row over `k` lets it read each `U` row contiguously.
    pub fn propagate_block_error(&self, err: &Matrix, start: usize, work: &mut Matrix) {
        let end = start + err.cols();
        if end >= self.dim() {
            return;
        }
        let mut acc = vec![0.0; self.dim() - end];
        for r in 0..err.rows() {
            acc.fill(0.0);
            for (jj, &e) in err.row(r).iter().enumerate() {
                if e != 0.0 {
                    let coupling = &self.chol_inv_upper.row(start + jj)[end..];
                    for (a, &u) in acc.iter_mut().zip(coupling) {
                        *a += e * u;
                    }
                }
            }
            for (w, a) in work.row_mut(r)[end..].iter_mut().zip(&acc) {
                *w -= a;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microscopiq_linalg::SeededRng;

    fn random_calibration(d: usize, n: usize, seed: u64) -> Matrix {
        let mut rng = SeededRng::new(seed);
        Matrix::from_fn(d, n, |_, _| rng.normal(0.0, 1.0))
    }

    #[test]
    fn builds_from_well_conditioned_calibration() {
        let x = random_calibration(16, 64, 1);
        let h = HessianState::from_calibration(&x, 0.01).unwrap();
        assert_eq!(h.dim(), 16);
        for j in 0..16 {
            assert!(h.diag(j) > 0.0);
        }
    }

    #[test]
    fn survives_rank_deficient_calibration_via_damping() {
        // Fewer samples than dimensions → XXᵀ is singular; damping rescues.
        let x = random_calibration(32, 4, 2);
        let h = HessianState::from_calibration(&x, 0.01);
        assert!(h.is_ok());
    }

    #[test]
    fn survives_dead_input_channel() {
        let mut x = random_calibration(8, 32, 3);
        for s in 0..32 {
            x[(5, s)] = 0.0;
        }
        assert!(HessianState::from_calibration(&x, 0.01).is_ok());
    }

    #[test]
    fn saliency_grows_with_weight_magnitude() {
        let x = random_calibration(8, 64, 4);
        let h = HessianState::from_calibration(&x, 0.01).unwrap();
        assert!(h.saliency(0.5, 3) > h.saliency(0.1, 3));
    }

    #[test]
    fn saliency_reflects_input_energy() {
        // A channel with much larger activation energy has a smaller
        // conditional variance [H⁻¹]ₚₚ, hence larger saliency for equal w.
        let mut x = random_calibration(8, 128, 5);
        for s in 0..128 {
            x[(2, s)] *= 10.0;
        }
        let h = HessianState::from_calibration(&x, 0.01).unwrap();
        assert!(
            h.saliency(0.3, 2) > h.saliency(0.3, 6),
            "hot channel saliency {} vs cold {}",
            h.saliency(0.3, 2),
            h.saliency(0.3, 6)
        );
    }

    #[test]
    fn identity_state_has_unit_diag_and_no_coupling() {
        let h = HessianState::identity(12);
        assert_eq!(h.dim(), 12);
        for j in 0..12 {
            assert_eq!(h.diag(j), 1.0);
        }
        assert!(h.update_row(3, 12).iter().all(|&v| v == 0.0));
    }

    /// Reference L36: one `(r, k)` sum at a time, reading `U` down a column.
    fn propagate_by_element(h: &HessianState, err: &Matrix, start: usize, work: &mut Matrix) {
        let end = start + err.cols();
        for r in 0..err.rows() {
            for k in end..h.dim() {
                let mut acc = 0.0;
                for jj in 0..err.cols() {
                    let e = err[(r, jj)];
                    if e != 0.0 {
                        acc += e * h.chol_inv_upper[(start + jj, k)];
                    }
                }
                work[(r, k)] -= acc;
            }
        }
    }

    #[test]
    fn block_update_is_bitwise_the_element_loop() {
        let d = 37;
        let h = HessianState::from_calibration(&random_calibration(d, 50, 7), 0.01).unwrap();
        let mut rng = SeededRng::new(8);
        let work = Matrix::from_fn(5, d, |_, _| rng.normal(0.0, 0.1));
        // Full blocks, a short block with columns after it, and blocks
        // that end at `d` (a partial last block among them), which update
        // nothing. Every third error is an exact zero, as for a weight
        // that quantizes exactly.
        for (start, len) in [(0, 8), (8, 8), (16, 5), (24, 13), (32, 5)] {
            let err = Matrix::from_fn(5, len, |r, c| {
                let e = rng.normal(0.0, 0.05);
                if (r + c) % 3 == 0 {
                    0.0
                } else {
                    e
                }
            });
            let mut fast = work.clone();
            let mut slow = work.clone();
            h.propagate_block_error(&err, start, &mut fast);
            propagate_by_element(&h, &err, start, &mut slow);
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&slow), "block {start}+{len}");
            if start + len == d {
                assert_eq!(bits(&fast), bits(&work), "the last block updates nothing");
            }
        }
    }

    #[test]
    fn update_row_length_matches_span() {
        let x = random_calibration(10, 40, 6);
        let h = HessianState::from_calibration(&x, 0.01).unwrap();
        assert_eq!(h.update_row(3, 10).len(), 6);
        assert_eq!(h.update_row(9, 10).len(), 0);
    }
}
