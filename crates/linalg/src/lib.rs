//! Dense linear algebra, statistics, and deterministic random sampling
//! substrate for the MicroScopiQ reproduction.
//!
//! The quantization framework needs a small, predictable numeric kernel:
//! row-major [`Matrix`] with blocked matmul, the upper Cholesky factor of the
//! inverse GPTQ Hessian `(2XXᵀ + λI)⁻¹`, summary statistics for the 3σ outlier
//! rule, and seeded heavy-tailed samplers for synthetic foundational-model
//! weights. Everything here is `f64`; quantization-facing tensors are `f32`
//! and convert at the boundary.
//!
//! # Examples
//!
//! ```
//! use microscopiq_linalg::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! assert_eq!(a.matmul(&b), a);
//! ```

pub mod cholesky;
pub mod matrix;
pub mod rng;
pub mod stats;

pub use cholesky::{upper_cholesky_of_inverse, CholeskyError};
pub use matrix::Matrix;
pub use rng::SeededRng;
pub use stats::{mean, percentile, std_dev, Summary};
