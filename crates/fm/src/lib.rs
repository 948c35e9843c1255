//! Synthetic foundational-model substrate for the MicroScopiQ reproduction.
//!
//! Real FM checkpoints cannot be loaded in this environment; this crate
//! provides calibrated stand-ins (README, "Stand-ins and simplifications"):
//!
//! * [`zoo`] — the paper's model inventory (Table 2 LLMs, Fig. 10 VLMs,
//!   Table 4 CNN/SSMs) with true architecture dimensions, proxy-scaled
//!   layer shapes, and per-model outlier profiles matching Fig. 2(a);
//! * [`synth`] — weight synthesis (Gaussian body + structured heavy-tail
//!   outliers with controllable adjacency);
//! * [`calib`] — calibration activations with hot outlier channels;
//! * [`eval`] — the synthesize→quantize→measure driver;
//! * [`metrics`] — monotone proxy maps from measured error to paper-style
//!   perplexity/accuracy;
//! * [`packed`] — packed-weight TinyFM: [`PackedGemm`] engines and the
//!   segment-packed batched forward used by `microscopiq-runtime`;
//! * [`decode`] — the shared decode-state forward path: [`DecodeState`]
//!   (per-block appendable KV caches) with `prefill`/`decode_step` on
//!   both [`TinyFm`] and [`PackedTinyFm`], bit-identical to full-prefix
//!   recompute;
//! * [`tinyfm`] — a real, runnable tiny transformer for proxy-free
//!   end-to-end perplexity checks.
//!
//! # Examples
//!
//! ```
//! use microscopiq_fm::zoo;
//!
//! let spec = zoo::model("LLaMA-3-8B");
//! assert_eq!(spec.fp_ppl, Some(6.13)); // the paper's FP16 baseline
//! ```

pub mod calib;
pub mod decode;
pub mod eval;
pub mod metrics;
pub mod packed;
pub mod synth;
pub mod tinyfm;
pub mod zoo;

pub use decode::{DecodeJob, DecodeState};
pub use eval::{evaluate_weight_activation, evaluate_weight_only, ModelEvaluation};
pub use metrics::{AccuracyMap, PerplexityMap};
pub use microscopiq_core::kv_cache::KvMode;
pub use packed::{sample_logits, sample_token, DequantGemm, PackedGemm, PackedTinyFm, PartFn};
pub use tinyfm::{TinyFm, TinyFmConfig};
pub use zoo::{all_models, cnn_ssm_zoo, llm_zoo, model, vlm_zoo, ModelClass, ModelSpec};
