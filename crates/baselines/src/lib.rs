//! Baseline quantization methods the paper compares against (Tables 2–4,
//! Fig. 2, Fig. 10): each implements
//! [`microscopiq_core::traits::WeightQuantizer`].
//!
//! | Module | Method | Paper group |
//! |---|---|---|
//! | [`rtn`] | RTN (tensor/channel/group), SmoothQuant & QMamba stand-ins | — |
//! | [`gptq`] | GPTQ — Hessian-compensated group quantization | — |
//! | [`awq`] | AWQ — activation-aware channel scaling | B |
//! | [`olive`] | OliVe — outlier-victim pair (flint/abfloat) | B |
//! | [`gobo`] | GOBO — FP outliers side-band + centroid inliers | A |
//! | [`omniquant`] | OmniQuant-GS — grid-searched LWC (learned → searched) | — |
//! | [`atom`] | Atom — hot channels at higher width | — |
//! | [`sdq`] | SDQ — rigid N:M sparse decomposition | A |
//! | [`hawq`] | HAWQ-like — Hessian-trace mixed precision (CNN rows) | — |
//!
//! Faithfulness notes and deliberate simplifications are documented in
//! each module header (see also README, "Stand-ins and simplifications").

pub mod atom;
pub mod awq;
pub mod gobo;
pub mod gptq;
pub mod hawq;
pub mod olive;
pub mod omniquant;
pub mod rtn;
pub mod sdq;
pub mod util;

pub use atom::Atom;
pub use awq::Awq;
pub use gobo::Gobo;
pub use gptq::Gptq;
pub use hawq::HawqLike;
pub use olive::Olive;
pub use omniquant::OmniQuantGs;
pub use rtn::{Rtn, RtnGranularity};
pub use sdq::Sdq;
