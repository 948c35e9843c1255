//! MicroScopiQ: outlier-aware microscaling post-training quantization.
//!
//! This crate implements the paper's primary contribution (§4): a PTQ
//! framework that quantizes inliers to MX-INT-(2/4) with macro-block shared
//! scales, keeps outliers at 2× precision in MX-FP with micro-block shared
//! microexponents, prunes the least-important inliers (Hessian saliency)
//! and redistributes the outlier LSB halves into the pruned slots — giving
//! a fixed per-element bit budget, aligned memory, and the effective bit
//! widths the paper reports (≈2.36 b at bb=2).
//!
//! Entry points:
//!
//! * [`MicroScopiQ`] — the quantizer, configured by [`QuantConfig`];
//! * [`traits::WeightQuantizer`] — the interface shared with baselines;
//! * [`packed::PackedLayer`] — the hardware-facing packed format (Fig. 5)
//!   with EBW per Eq. 4;
//! * [`activation`] — MX-INT activation quantization + α-migration;
//! * [`kv_cache`] — 2-bit KV-cache quantization (Table 7), plus the
//!   appendable [`LayerKvCache`] (exact or quantized-in-place storage)
//!   that backs incremental decode in `microscopiq-fm`/`-runtime`.
//!
//! # Examples
//!
//! ```
//! use microscopiq_core::{MicroScopiQ, QuantConfig};
//! use microscopiq_core::traits::{LayerTensors, WeightQuantizer};
//! use microscopiq_linalg::{Matrix, SeededRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = SeededRng::new(42);
//! let mut weights = Matrix::from_fn(16, 64, |_, _| rng.normal(0.0, 0.02));
//! weights[(3, 17)] = 0.35; // an outlier
//! let calib = Matrix::from_fn(64, 96, |_, _| rng.normal(0.0, 1.0));
//! let layer = LayerTensors::new(weights, calib)?;
//!
//! let q = MicroScopiQ::new(QuantConfig::w2().macro_block(64).row_block(64).build()?);
//! let result = q.quantize_layer(&layer)?;
//!
//! // Outliers survive 2-bit quantization at high precision…
//! assert!((result.dequantized[(3, 17)] - 0.35).abs() < 0.06);
//! // …while the effective bit width stays near the 2-bit budget.
//! assert!(result.stats.effective_bit_width < 3.0);
//! # Ok(())
//! # }
//! ```

pub mod activation;
pub mod config;
pub mod error;
pub mod hessian;
pub mod kv_cache;
pub mod microblock;
pub mod outlier;
pub mod packed;
pub mod quantizer;
pub mod solver;
pub mod traits;

pub use config::{GroupAxis, OutlierMode, QuantConfig, QuantConfigBuilder};
pub use error::QuantError;
pub use kv_cache::{KvCacheConfig, KvMode, KvSegment, KvSpan, KvView, LayerKvCache};
pub use quantizer::MicroScopiQ;
pub use traits::{LayerTensors, QuantStats, QuantizedLayer, WeightQuantizer};
