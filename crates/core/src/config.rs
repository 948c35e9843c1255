//! Configuration of the MicroScopiQ quantization framework.
//!
//! Every ablation row of Table 7 corresponds to a toggle here, so the
//! `table7_ablation` bench can reconstruct the paper's progressive study.

use crate::error::QuantError;

/// Which tensor dimension macro-/micro-blocks span.
///
/// The paper's algorithm text groups along the dot-product (input)
/// dimension while its accelerator walkthrough maps micro-blocks across
/// output channels. Both are supported; accuracy experiments default to
/// [`GroupAxis::DotProduct`], accelerator experiments use
/// [`GroupAxis::OutputChannel`].
///
/// The serving runtime's fast kernels (`lane-f32`, `simd-f32`,
/// `bucketed-cache`) run `DotProduct` layers only; an `OutputChannel`
/// layer executes on its scalar `f64` oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GroupAxis {
    /// Blocks span contiguous input-dimension (column) indices within a row.
    #[default]
    DotProduct,
    /// Blocks span contiguous output channels (rows) within a column.
    OutputChannel,
}

/// How outliers are treated (§3.3 and Table 7 ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OutlierMode {
    /// Outliers are clipped into the inlier format (rows 2–4 of Table 7).
    Ignore,
    /// MX-FP at 2× inlier precision, scales shared per micro-block
    /// (the full MicroScopiQ treatment).
    #[default]
    MxFpMicroBlock,
    /// MX-FP at 2× inlier precision, scales shared per macro-block
    /// (Table 7 row "MX-FP-4_{128,128}").
    MxFpMacroBlock,
    /// MX-INT at 2× inlier precision per micro-block (§3.3's INT-vs-FP
    /// outlier comparison).
    MxIntMicroBlock,
}

/// Full configuration for [`crate::MicroScopiQ`].
///
/// # Examples
///
/// ```
/// use microscopiq_core::config::QuantConfig;
///
/// let cfg = QuantConfig::w2().build().unwrap();
/// assert_eq!(cfg.inlier_bits, 2);
/// assert_eq!(cfg.outlier_bits, 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantConfig {
    /// Inlier element width (2 or 4); this is the per-element bit budget bb.
    pub inlier_bits: u32,
    /// Outlier element width, fixed at 2× the inlier width (4 or 8).
    pub outlier_bits: u32,
    /// Macro-block size `B_M` (inlier scale-sharing group).
    pub macro_block: usize,
    /// Micro-block size `B_μ` (outlier scale-sharing group).
    pub micro_block: usize,
    /// GPTQ error-compensation block size (paper: 128, aligned with `B_M`).
    pub row_block: usize,
    /// Outlier threshold in standard deviations (3σ rule).
    pub sigma_threshold: f64,
    /// Which dimension blocks span.
    pub group_axis: GroupAxis,
    /// Hessian dampening fraction λ = percdamp · mean(diag H).
    pub percdamp: f64,
    /// Outlier treatment.
    pub outlier_mode: OutlierMode,
    /// Pre-reduce outlier magnitude by ×2^Isf before quantization (§4.2).
    pub prescale_outliers: bool,
    /// Prune least-important inliers and redistribute outlier LSB halves
    /// (§4.3). When false, outliers are stored side-band (unaligned, like
    /// group-A techniques) and nothing is pruned.
    pub prune_redistribute: bool,
    /// Apply GPTQ-style error compensation (Algorithm 1 L31–36).
    pub error_compensation: bool,
    /// Weight-clipping ratio applied to block maxima before scale
    /// derivation (1.0 = none; Omni-MicroScopiQ grid-searches this).
    pub clip_ratio: f64,
}

impl QuantConfig {
    /// Builder seeded with the paper's W2 configuration
    /// (MX-INT-2_128 inliers, MX-FP-4_{8,8} outliers).
    pub fn w2() -> QuantConfigBuilder {
        QuantConfigBuilder::new(2)
    }

    /// Builder seeded with the paper's W4 configuration
    /// (MX-INT-4_128 inliers, MX-FP-8_{8,8} outliers).
    pub fn w4() -> QuantConfigBuilder {
        QuantConfigBuilder::new(4)
    }

    /// Builder with an explicit inlier width.
    pub fn builder(inlier_bits: u32) -> QuantConfigBuilder {
        QuantConfigBuilder::new(inlier_bits)
    }

    /// Number of micro-blocks per macro-block.
    pub fn micro_blocks_per_macro(&self) -> usize {
        self.macro_block / self.micro_block
    }

    /// Maximum outliers representable per micro-block (`B_μ / 2`).
    pub fn max_outliers_per_micro_block(&self) -> usize {
        self.micro_block / 2
    }

    /// Bits per permutation-list entry: `2·log2(B_μ)`.
    pub fn perm_entry_bits(&self) -> u32 {
        2 * (self.micro_block as u32).ilog2()
    }

    /// Total permutation-list bits for an outlier-bearing micro-block:
    /// `B_μ/2` entries (paper: 24 bits at `B_μ = 8`).
    pub fn perm_list_bits(&self) -> u32 {
        self.max_outliers_per_micro_block() as u32 * self.perm_entry_bits()
    }
}

impl Default for QuantConfig {
    fn default() -> Self {
        QuantConfig::w2().build().expect("default config is valid")
    }
}

/// Incremental builder for [`QuantConfig`].
#[derive(Debug, Clone)]
pub struct QuantConfigBuilder {
    cfg: QuantConfig,
}

impl QuantConfigBuilder {
    fn new(inlier_bits: u32) -> Self {
        Self {
            cfg: QuantConfig {
                inlier_bits,
                outlier_bits: inlier_bits * 2,
                macro_block: 128,
                micro_block: 8,
                row_block: 128,
                sigma_threshold: 3.0,
                group_axis: GroupAxis::DotProduct,
                percdamp: 0.01,
                outlier_mode: OutlierMode::MxFpMicroBlock,
                prescale_outliers: true,
                prune_redistribute: true,
                error_compensation: true,
                clip_ratio: 1.0,
            },
        }
    }

    /// Sets the macro-block size.
    pub fn macro_block(mut self, size: usize) -> Self {
        self.cfg.macro_block = size;
        self
    }

    /// Sets the micro-block size (Fig. 14 sweeps this).
    pub fn micro_block(mut self, size: usize) -> Self {
        self.cfg.micro_block = size;
        self
    }

    /// Sets the GPTQ compensation block size.
    pub fn row_block(mut self, size: usize) -> Self {
        self.cfg.row_block = size;
        self
    }

    /// Sets the outlier σ threshold.
    pub fn sigma_threshold(mut self, sigma: f64) -> Self {
        self.cfg.sigma_threshold = sigma;
        self
    }

    /// Sets the grouping axis.
    pub fn group_axis(mut self, axis: GroupAxis) -> Self {
        self.cfg.group_axis = axis;
        self
    }

    /// Sets the Hessian dampening fraction.
    pub fn percdamp(mut self, percdamp: f64) -> Self {
        self.cfg.percdamp = percdamp;
        self
    }

    /// Sets the outlier treatment.
    pub fn outlier_mode(mut self, mode: OutlierMode) -> Self {
        self.cfg.outlier_mode = mode;
        self
    }

    /// Enables/disables the ×2^Isf outlier magnitude pre-reduction.
    pub fn prescale_outliers(mut self, on: bool) -> Self {
        self.cfg.prescale_outliers = on;
        self
    }

    /// Enables/disables pruning + bit redistribution.
    pub fn prune_redistribute(mut self, on: bool) -> Self {
        self.cfg.prune_redistribute = on;
        self
    }

    /// Enables/disables GPTQ error compensation.
    pub fn error_compensation(mut self, on: bool) -> Self {
        self.cfg.error_compensation = on;
        self
    }

    /// Sets the clipping ratio (Omni-MicroScopiQ LWC).
    pub fn clip_ratio(mut self, ratio: f64) -> Self {
        self.cfg.clip_ratio = ratio;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidConfig`] if any structural constraint is
    /// violated (widths, divisibility, power-of-two micro-blocks, ranges).
    pub fn build(self) -> Result<QuantConfig, QuantError> {
        let c = &self.cfg;
        let fail = |reason: String| Err(QuantError::InvalidConfig { reason });
        if !(c.inlier_bits == 2 || c.inlier_bits == 4) {
            return fail(format!("inlier_bits must be 2 or 4, got {}", c.inlier_bits));
        }
        if c.outlier_bits != c.inlier_bits * 2 {
            return fail(format!(
                "outlier_bits must be 2× inlier_bits ({}), got {}",
                c.inlier_bits * 2,
                c.outlier_bits
            ));
        }
        if c.micro_block < 2 || !c.micro_block.is_power_of_two() {
            return fail(format!(
                "micro_block must be a power of two ≥ 2, got {}",
                c.micro_block
            ));
        }
        if !c.macro_block.is_multiple_of(c.micro_block) {
            return fail(format!(
                "macro_block ({}) must be a multiple of micro_block ({})",
                c.macro_block, c.micro_block
            ));
        }
        if c.row_block == 0 || !c.row_block.is_multiple_of(c.macro_block) {
            return fail(format!(
                "row_block ({}) must be a positive multiple of macro_block ({})",
                c.row_block, c.macro_block
            ));
        }
        if !(c.sigma_threshold.is_finite() && c.sigma_threshold > 0.0) {
            return fail(format!(
                "sigma_threshold must be positive, got {}",
                c.sigma_threshold
            ));
        }
        if !(c.percdamp.is_finite() && c.percdamp >= 0.0) {
            return fail(format!("percdamp must be non-negative, got {}", c.percdamp));
        }
        if !(c.clip_ratio.is_finite() && c.clip_ratio > 0.0 && c.clip_ratio <= 1.0) {
            return fail(format!(
                "clip_ratio must be in (0, 1], got {}",
                c.clip_ratio
            ));
        }
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_w2() {
        let c = QuantConfig::w2().build().unwrap();
        assert_eq!(c.inlier_bits, 2);
        assert_eq!(c.outlier_bits, 4);
        assert_eq!(c.macro_block, 128);
        assert_eq!(c.micro_block, 8);
        assert_eq!(c.micro_blocks_per_macro(), 16);
        assert_eq!(c.max_outliers_per_micro_block(), 4);
        assert_eq!(c.perm_entry_bits(), 6);
        assert_eq!(c.perm_list_bits(), 24); // paper: 24-bit perm list at Bμ=8
    }

    #[test]
    fn w4_doubles_outlier_bits() {
        let c = QuantConfig::w4().build().unwrap();
        assert_eq!(c.inlier_bits, 4);
        assert_eq!(c.outlier_bits, 8);
    }

    #[test]
    fn invalid_inlier_bits_rejected() {
        assert!(QuantConfig::builder(3).build().is_err());
        assert!(QuantConfig::builder(8).build().is_err());
    }

    #[test]
    fn non_power_of_two_micro_block_rejected() {
        let err = QuantConfig::w2().micro_block(6).build().unwrap_err();
        assert!(err.to_string().contains("power of two"));
    }

    #[test]
    fn macro_must_divide_by_micro() {
        assert!(QuantConfig::w2()
            .macro_block(100)
            .micro_block(8)
            .build()
            .is_err());
    }

    #[test]
    fn row_block_must_align_with_macro_block() {
        assert!(QuantConfig::w2().row_block(96).build().is_err());
        assert!(QuantConfig::w2().row_block(256).build().is_ok());
    }

    #[test]
    fn clip_ratio_range_enforced() {
        assert!(QuantConfig::w2().clip_ratio(0.0).build().is_err());
        assert!(QuantConfig::w2().clip_ratio(1.5).build().is_err());
        assert!(QuantConfig::w2().clip_ratio(0.9).build().is_ok());
    }

    #[test]
    fn group_size_sweep_configs_are_valid() {
        // Fig. 14 sweeps Bμ ∈ {2, 4, 8, 16, 32, 64, 128}.
        for bmu in [2usize, 4, 8, 16, 32, 64, 128] {
            let c = QuantConfig::w2().micro_block(bmu).build();
            assert!(c.is_ok(), "Bμ={bmu} should be valid");
        }
    }

    #[test]
    fn default_matches_w2() {
        assert_eq!(QuantConfig::default(), QuantConfig::w2().build().unwrap());
    }
}
