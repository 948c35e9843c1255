//! The upper Cholesky factor of an SPD inverse, for the GPTQ Hessian.
//!
//! GPTQ-style solvers (Algorithm 1 of the paper, following Frantar et al.)
//! run their column recurrence on the *upper* Cholesky factor `U` of
//! `H⁻¹ = (2XXᵀ + λI)⁻¹`, so that row `j` of `U` carries the couplings of
//! column `j` to every later column.
//!
//! `U` is computed without ever forming `H⁻¹`. With `J` the index reversal,
//! the lower Cholesky factor `M` of `J·H·J` gives `H = R·Rᵀ` for the upper
//! triangular `R = J·M·J`, hence `H⁻¹ = R⁻ᵀ·R⁻¹` and `U = R⁻¹ = J·M⁻¹·J`:
//! one factorization and one triangular inverse, ≈ n³/3 multiply-adds in
//! all. Both steps are written as dot products over contiguous row slices
//! and walk rows in panels of 64, so that each partner row is read
//! once per panel rather than once per row.

use crate::matrix::Matrix;
use std::error::Error;
use std::fmt;

/// Rows computed together. Each row a panel reads from the rest of the
/// matrix is then fetched once per panel instead of once per row, while the
/// panel's own rows stay in L2 (64 rows × 8 B × n = 2 MiB at n = 4096).
const PANEL: usize = 64;

/// Error produced when a matrix is not symmetric positive definite enough
/// to factorize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CholeskyError {
    /// Index of the pivot at which factorization broke down. For
    /// [`upper_cholesky_of_inverse`], which eliminates from the last index
    /// towards the first, this is the largest `p` for which the trailing
    /// block `A[p.., p..]` is not positive definite.
    pub pivot: usize,
}

impl fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "matrix is not positive definite (non-positive pivot at index {})",
            self.pivot
        )
    }
}

impl Error for CholeskyError {}

/// `Σ a[k]·b[k]` with eight independent partial sums, so the loop is not
/// bound by the latency of one chain of additions.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0_f64; 8];
    let split = a.len() - a.len() % 8;
    for (x, y) in a[..split].chunks_exact(8).zip(b[..split].chunks_exact(8)) {
        for l in 0..8 {
            acc[l] += x[l] * y[l];
        }
    }
    let tail: f64 = a[split..].iter().zip(&b[split..]).map(|(x, y)| x * y).sum();
    ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7])) + tail
}

/// Computes the upper Cholesky factor `U` of `A⁻¹` (so `A⁻¹ = Uᵀ·U` with `U`
/// upper-triangular and a positive diagonal), the form GPTQ's column
/// recurrence consumes.
///
/// # Errors
///
/// Returns [`CholeskyError`] if `a` is not SPD; its `pivot` names the
/// largest index `p` for which `a[p.., p..]` is not positive definite.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn upper_cholesky_of_inverse(a: &Matrix) -> Result<Matrix, CholeskyError> {
    assert_eq!(a.rows(), a.cols(), "cholesky requires a square matrix");
    let n = a.rows();
    // One buffer holds every stage: `R` in the upper triangle, its
    // transpose in the lower one, then `U = R⁻¹` in the upper triangle.
    let mut m = a.as_slice().to_vec();
    factor_reversed(&mut m, n)?;
    invert_factor(&mut m, n);
    Ok(Matrix::from_vec(n, n, m))
}

/// Factors `A = R·Rᵀ` in place, `R` upper-triangular with a positive
/// diagonal (the Cholesky factorization of `J·A·J`, read back through
/// `J`). Reads the upper triangle of `m`, leaves `R` there and `Rᵀ` in the
/// lower triangle; the two share the diagonal.
///
/// Row `i` of `R` follows from the rows below it,
/// `R[i][j] = (A[i][j] − R[i][j+1..]·R[j][j+1..]) / R[j][j]` for `j`
/// from `n − 1` down to `i`, so panels go bottom-up. Within a panel,
/// columns go right to left: by the time column `j` is reached, row `j`
/// is complete right of its diagonal, so its pivot follows and every
/// panel row above it takes its dot product against that one row.
fn factor_reversed(m: &mut [f64], n: usize) -> Result<(), CholeskyError> {
    let mut i1 = n;
    while i1 > 0 {
        let i0 = i1.saturating_sub(PANEL);
        for j in (i0..n).rev() {
            let (head, tail) = m.split_at_mut(j * n);
            let row_j = &mut tail[..n];
            if j < i1 {
                let pivot = row_j[j] - dot(&row_j[j + 1..], &row_j[j + 1..]);
                if pivot <= 0.0 || !pivot.is_finite() {
                    return Err(CholeskyError { pivot: j });
                }
                row_j[j] = pivot.sqrt();
            }
            for i in i0..j.min(i1) {
                let row_i = &mut head[i * n..(i + 1) * n];
                let v = (row_i[j] - dot(&row_i[j + 1..], &row_j[j + 1..])) / row_j[j];
                row_i[j] = v;
                row_j[i] = v;
            }
        }
        i1 = i0;
    }
    Ok(())
}

/// Replaces the factor left by [`factor_reversed`] with `U = R⁻¹`,
/// zeroing the lower triangle.
///
/// `U·R = I` gives `U[a][b] = −U[a][a..b]·R[a..b][b] / R[b][b]`, and the
/// column `R[a..b][b]` is the contiguous row slice `Rᵀ[b][a..b]` of the
/// lower triangle. Rows of `U` are independent; a panel of them is
/// filled left to right, so each row of `Rᵀ` is read once per panel. `U`'s
/// writes land in the upper triangle, which `Rᵀ` never occupies off the
/// diagonal, and the diagonal of `R` is kept aside before it is
/// overwritten.
fn invert_factor(m: &mut [f64], n: usize) {
    let diag: Vec<f64> = (0..n).map(|i| m[i * n + i]).collect();
    for a0 in (0..n).step_by(PANEL) {
        let a1 = (a0 + PANEL).min(n);
        for a in a0..a1 {
            m[a * n + a] = 1.0 / diag[a];
        }
        for b in a0 + 1..n {
            let (head, tail) = m.split_at_mut(b * n);
            let rt_b = &tail[..b];
            for a in a0..a1.min(b) {
                let row_a = &mut head[a * n..(a + 1) * n];
                row_a[b] = -dot(&row_a[a..b], &rt_b[a..]) / diag[b];
            }
        }
    }
    for i in 1..n {
        m[i * n..i * n + i].fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;
    use proptest::prelude::*;

    // The oracle: the explicit route through `A⁻¹` — Cholesky, triangular
    // inverse, `A⁻¹ = L⁻ᵀ·L⁻¹`, then a second Cholesky of the inverse.

    /// Lower-triangular Cholesky factor `L` with `A = L·Lᵀ`; the pivot of
    /// an error is the first failing index from the top.
    fn cholesky(a: &Matrix) -> Result<Matrix, CholeskyError> {
        assert_eq!(a.rows(), a.cols(), "cholesky requires a square matrix");
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut diag = a[(j, j)];
            for k in 0..j {
                diag -= l[(j, k)] * l[(j, k)];
            }
            if diag <= 0.0 || !diag.is_finite() {
                return Err(CholeskyError { pivot: j });
            }
            let djj = diag.sqrt();
            l[(j, j)] = djj;
            for i in (j + 1)..n {
                let mut v = a[(i, j)];
                for k in 0..j {
                    v -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = v / djj;
            }
        }
        Ok(l)
    }

    /// Inverts a lower-triangular matrix by forward substitution.
    fn invert_lower_triangular(l: &Matrix) -> Matrix {
        let n = l.rows();
        let mut inv = Matrix::zeros(n, n);
        for j in 0..n {
            assert!(l[(j, j)] != 0.0, "singular triangular matrix");
            inv[(j, j)] = 1.0 / l[(j, j)];
            for i in (j + 1)..n {
                let mut s = 0.0;
                for k in j..i {
                    s += l[(i, k)] * inv[(k, j)];
                }
                inv[(i, j)] = -s / l[(i, i)];
            }
        }
        inv
    }

    /// `A⁻¹ = L⁻ᵀ·L⁻¹`.
    fn spd_inverse(a: &Matrix) -> Result<Matrix, CholeskyError> {
        let linv = invert_lower_triangular(&cholesky(a)?);
        Ok(linv.transpose().matmul(&linv))
    }

    /// The upper factor of `A⁻¹` as the transposed lower Cholesky factor
    /// of the explicit inverse.
    fn oracle_upper_cholesky_of_inverse(a: &Matrix) -> Result<Matrix, CholeskyError> {
        Ok(cholesky(&spd_inverse(a)?)?.transpose())
    }

    fn spd_example(n: usize) -> Matrix {
        // B·Bᵀ + n·I is comfortably SPD.
        let b = Matrix::from_fn(n, n, |r, c| ((r * 3 + c * 5) % 7) as f64 / 7.0 + 0.1);
        let mut a = b.gram();
        a.add_diagonal(n as f64);
        a
    }

    #[test]
    fn cholesky_reconstructs_matrix() {
        let a = spd_example(8);
        let l = cholesky(&a).expect("SPD");
        let recon = l.matmul(&l.transpose());
        assert!(a.frobenius_distance(&recon) < 1e-9);
    }

    #[test]
    fn cholesky_factor_is_lower_triangular() {
        let a = spd_example(6);
        let l = cholesky(&a).expect("SPD");
        for r in 0..6 {
            for c in (r + 1)..6 {
                assert_eq!(l[(r, c)], 0.0);
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        let err = cholesky(&a).unwrap_err();
        assert_eq!(err.pivot, 1);
        assert!(err.to_string().contains("not positive definite"));
    }

    #[test]
    fn spd_inverse_gives_identity() {
        let a = spd_example(10);
        let inv = spd_inverse(&a).expect("SPD");
        let eye = a.matmul(&inv);
        assert!(eye.frobenius_distance(&Matrix::identity(10)) < 1e-8);
    }

    #[test]
    fn upper_factor_reconstructs_inverse() {
        let a = spd_example(7);
        let u = upper_cholesky_of_inverse(&a).expect("SPD");
        // U is upper triangular.
        for r in 0..7 {
            for c in 0..r {
                assert_eq!(u[(r, c)], 0.0);
            }
        }
        let inv = spd_inverse(&a).expect("SPD");
        let recon = u.transpose().matmul(&u);
        assert!(inv.frobenius_distance(&recon) < 1e-8);
    }

    #[test]
    fn triangular_inverse_matches_direct() {
        let a = spd_example(5);
        let l = cholesky(&a).expect("SPD");
        let linv = invert_lower_triangular(&l);
        let eye = l.matmul(&linv);
        assert!(eye.frobenius_distance(&Matrix::identity(5)) < 1e-10);
    }

    #[test]
    fn non_spd_pivot_names_the_failing_trailing_block() {
        // Eigenvalues 3, -1, 1. The top-down oracle fails at index 1;
        // eliminating bottom-up, `A[1.., 1..] = I` is fine and the whole
        // matrix is the first trailing block that is not, so pivot 0.
        let a = Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[2.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]);
        assert_eq!(cholesky(&a).unwrap_err().pivot, 1);
        let err = upper_cholesky_of_inverse(&a).unwrap_err();
        assert_eq!(err.pivot, 0);
        assert!(err.to_string().contains("not positive definite"));

        // A negative entry on the diagonal deep inside a larger matrix:
        // `A[p.., p..]` stops being SPD exactly at p = 100.
        let mut a = spd_example(PANEL + 70);
        a[(100, 100)] = -1.0;
        assert_eq!(upper_cholesky_of_inverse(&a).unwrap_err().pivot, 100);

        let mut a = spd_example(9);
        a[(8, 8)] = f64::NAN;
        assert_eq!(upper_cholesky_of_inverse(&a).unwrap_err().pivot, 8);
    }

    /// The three Hessian shapes the solver meets, at dimension `n`.
    fn hessian(kind: u8, n: usize, seed: u64) -> Matrix {
        let mut rng = SeededRng::new(seed);
        let damped = |x: &Matrix| {
            // `2XXᵀ + λI` with λ = 1% of the mean diagonal, as
            // `HessianState::from_calibration` builds it.
            let mut h = x.gram();
            h.scale(2.0);
            let mean = h.diagonal().iter().sum::<f64>() / n as f64;
            h.add_diagonal((0.01 * mean).max(1e-8));
            h
        };
        match kind {
            // Fewer samples than dimensions: XXᵀ is singular.
            0 => damped(&Matrix::from_fn(n, n / 2 + 1, |_, _| rng.normal(0.0, 1.0))),
            // Every third input channel never fires.
            1 => damped(&Matrix::from_fn(n, 2 * n, |r, _| {
                let v = rng.normal(0.0, 1.0);
                if r % 3 == 1 {
                    0.0
                } else {
                    v
                }
            })),
            // Rank-deficient with damping shrunk to 10^-e of the mean
            // diagonal, e ∈ [2, 7.5]: κ(A) reaches ≈ 1e8, and no diagonal
            // scaling removes it.
            _ => {
                let x = Matrix::from_fn(n, n / 2 + 1, |_, _| rng.normal(0.0, 1.0));
                let mut h = x.gram();
                h.scale(2.0);
                let mean = h.diagonal().iter().sum::<f64>() / n as f64;
                h.add_diagonal(mean * 10f64.powf(-rng.uniform_range(2.0, 7.5)));
                h
            }
        }
    }

    /// Bound on the relative Frobenius distance to the oracle, and on
    /// `‖UᵀUA − I‖_F / √n`. Over 90 cases of the sweep below the observed
    /// maxima were 5.9e-9 and 8.9e-9, both on κ ≈ 1e8 inputs; the other
    /// two kinds stay below 3e-14 and 2e-13.
    const TOL: f64 = 1e-7;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The direct factor is the oracle's, on every size around the
        /// panel width and on rank-deficient, dead-channel and
        /// ill-conditioned Hessians.
        #[test]
        fn direct_factor_matches_the_explicit_inverse_route(
            kind in 0u8..3,
            seed in 0u64..10_000,
        ) {
            for n in [1, 2, 3, 7, PANEL - 1, PANEL, PANEL + 1, 2 * PANEL + 2, 4 * PANEL + 1] {
                let a = hessian(kind, n, seed);
                let u = upper_cholesky_of_inverse(&a).expect("SPD");
                for r in 0..n {
                    prop_assert!(u[(r, r)] > 0.0, "n {} diag {} = {}", n, r, u[(r, r)]);
                    for c in 0..r {
                        prop_assert_eq!(u[(r, c)], 0.0);
                    }
                }
                let oracle = oracle_upper_cholesky_of_inverse(&a).expect("SPD");
                let rel = u.frobenius_distance(&oracle) / oracle.frobenius_norm();
                prop_assert!(rel < TOL, "kind {} n {}: relative distance {}", kind, n, rel);
                // Uᵀ·U·A = A⁻¹·A = I, to within the conditioning of A.
                let eye = u.transpose().matmul(&u.matmul(&a));
                let residual = eye.frobenius_distance(&Matrix::identity(n)) / (n as f64).sqrt();
                prop_assert!(residual < TOL, "kind {} n {}: ‖UᵀUA − I‖ = {}", kind, n, residual);
            }
        }
    }
}
