//! Accuracy proxies (README, "Stand-ins and simplifications"): mapping
//! measured layer output error to paper-style perplexity and
//! benchmark-accuracy numbers.
//!
//! Absolute paper numbers are not reproducible without real checkpoints;
//! the maps below are monotone in the measured error, so *orderings and
//! ratios between methods* — the properties the paper's tables argue from —
//! are preserved. Each bench calibrates the slope once on a neutral anchor
//! (GPTQ-W4 for perplexity) and then applies it uniformly to every method.

/// Calibrated proxy-perplexity map: `PPL = fp_ppl · exp(κ · err)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerplexityMap {
    /// Error-to-log-perplexity slope.
    pub kappa: f64,
}

/// The paper's GPTQ-W4A16 anchor on LLaMA-3-8B: 8.12 vs the 6.13 baseline.
pub const ANCHOR_LOG_PPL_RATIO: f64 = 0.281; // ln(8.12 / 6.13)

/// Fallback slope when no calibration run is available (examples, tests).
pub const DEFAULT_KAPPA: f64 = 4.0;

impl PerplexityMap {
    /// Calibrates κ from a measured anchor error so that the anchor method
    /// reproduces the paper's log-perplexity ratio.
    ///
    /// # Panics
    ///
    /// Panics if `anchor_error` is not strictly positive.
    pub fn calibrate(anchor_error: f64) -> Self {
        assert!(anchor_error > 0.0, "anchor error must be positive");
        Self {
            kappa: ANCHOR_LOG_PPL_RATIO / anchor_error,
        }
    }

    /// The uncalibrated default map.
    pub fn default_map() -> Self {
        Self {
            kappa: DEFAULT_KAPPA,
        }
    }

    /// Maps a measured mean output error to proxy perplexity.
    pub fn ppl(&self, fp_ppl: f64, error: f64) -> f64 {
        fp_ppl * (self.kappa * error).exp()
    }
}

/// Calibrated proxy-accuracy map:
/// `acc = chance + (fp_acc − chance) · exp(−κ · err)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyMap {
    /// Error-to-accuracy-decay slope.
    pub kappa: f64,
    /// Chance-level accuracy of the benchmark (%).
    pub chance: f64,
}

impl AccuracyMap {
    /// Calibrates from an anchor: a method with measured `anchor_error`
    /// scoring `anchor_acc` on a benchmark with the given chance level and
    /// full-precision accuracy.
    ///
    /// # Panics
    ///
    /// Panics unless `chance < anchor_acc <= fp_acc` and the error is
    /// positive.
    pub fn calibrate(anchor_error: f64, fp_acc: f64, anchor_acc: f64, chance: f64) -> Self {
        assert!(anchor_error > 0.0, "anchor error must be positive");
        assert!(
            chance < anchor_acc && anchor_acc <= fp_acc,
            "anchor accuracy must lie between chance and full precision"
        );
        let kappa = -((anchor_acc - chance) / (fp_acc - chance)).ln() / anchor_error;
        Self { kappa, chance }
    }

    /// The uncalibrated default (chance 25%, moderate decay).
    pub fn default_map() -> Self {
        Self {
            kappa: 3.0,
            chance: 25.0,
        }
    }

    /// Maps a measured error to proxy accuracy (%).
    pub fn accuracy(&self, fp_acc: f64, error: f64) -> f64 {
        self.chance + (fp_acc - self.chance) * (-self.kappa * error).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_error_is_lossless() {
        let m = PerplexityMap::default_map();
        assert_eq!(m.ppl(6.13, 0.0), 6.13);
        let a = AccuracyMap::default_map();
        assert_eq!(a.accuracy(80.0, 0.0), 80.0);
    }

    #[test]
    fn ppl_is_monotone_in_error() {
        let m = PerplexityMap::default_map();
        assert!(m.ppl(6.13, 0.2) > m.ppl(6.13, 0.1));
    }

    #[test]
    fn calibration_reproduces_anchor() {
        let m = PerplexityMap::calibrate(0.07);
        let got = m.ppl(6.13, 0.07);
        assert!((got - 8.12).abs() < 0.01, "anchor maps to {got}");
    }

    #[test]
    fn accuracy_decays_to_chance() {
        let a = AccuracyMap::default_map();
        let far = a.accuracy(80.0, 10.0);
        assert!((far - 25.0).abs() < 0.1);
    }

    #[test]
    fn accuracy_calibration_reproduces_anchor() {
        let a = AccuracyMap::calibrate(0.15, 62.3, 48.26, 0.0);
        let got = a.accuracy(62.3, 0.15);
        assert!((got - 48.26).abs() < 0.01);
    }

    #[test]
    fn ordering_is_preserved_under_any_calibration() {
        for kappa in [0.5, 2.0, 8.0] {
            let m = PerplexityMap { kappa };
            assert!(m.ppl(6.13, 0.05) < m.ppl(6.13, 0.30));
        }
    }
}
