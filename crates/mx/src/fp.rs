//! Tiny floating-point element formats for outliers: e1m2 (4-bit) and
//! e3m4 (8-bit).
//!
//! These are the per-element formats of §4.2 before microexponent sharing.
//! A value is `±1.m × 2^e` — always normal, because the MicroScopiQ
//! datapath adds the hidden bit unconditionally (ReCoN injects `iAct` for
//! the implicit `1.0`, §5.4), so no subnormal encodings exist. The exponent
//! is unbiased and non-negative (`0..2^eb`); block-level dynamic range is
//! provided by the level-1 power-of-two scale, not by negative element
//! exponents.

/// A tiny FP format with `eb` exponent bits and `mb` mantissa bits
/// (plus one sign bit).
///
/// # Examples
///
/// ```
/// use microscopiq_mx::fp::TinyFloat;
///
/// let e1m2 = TinyFloat::E1M2;
/// assert_eq!(e1m2.total_bits(), 4);
/// assert_eq!(e1m2.max_value(), 3.5);
/// let enc = e1m2.quantize(2.9);
/// assert_eq!(e1m2.decode(enc), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TinyFloat {
    exponent_bits: u32,
    mantissa_bits: u32,
}

/// One encoded tiny-float element: sign, exponent field, mantissa field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TinyFloatCode {
    /// Sign bit (true = negative).
    pub sign: bool,
    /// Unbiased exponent field value in `0..2^eb`.
    pub exponent: u32,
    /// Mantissa field value in `0..2^mb`.
    pub mantissa: u32,
}

impl TinyFloat {
    /// The 4-bit outlier element format (1 exponent, 2 mantissa bits).
    pub const E1M2: TinyFloat = TinyFloat {
        exponent_bits: 1,
        mantissa_bits: 2,
    };

    /// The 8-bit outlier element format (3 exponent, 4 mantissa bits).
    pub const E3M4: TinyFloat = TinyFloat {
        exponent_bits: 3,
        mantissa_bits: 4,
    };

    /// Creates a format with the given field widths.
    ///
    /// # Panics
    ///
    /// Panics if `exponent_bits` is not in `1..=5` or `mantissa_bits` is not
    /// an even value in `2..=6` (halving requires an even mantissa).
    pub fn new(exponent_bits: u32, mantissa_bits: u32) -> Self {
        assert!(
            (1..=5).contains(&exponent_bits),
            "unsupported exponent width"
        );
        assert!(
            (2..=6).contains(&mantissa_bits) && mantissa_bits.is_multiple_of(2),
            "mantissa width must be even and in 2..=6"
        );
        Self {
            exponent_bits,
            mantissa_bits,
        }
    }

    /// Selects the format whose total width is `bits` (4 → e1m2, 8 → e3m4),
    /// following §4.2.
    ///
    /// # Panics
    ///
    /// Panics for widths other than 4 or 8.
    #[inline]
    pub fn for_outlier_bits(bits: u32) -> Self {
        match bits {
            4 => Self::E1M2,
            8 => Self::E3M4,
            other => panic!("no outlier format defined for {other}-bit elements"),
        }
    }

    /// Exponent field width.
    #[inline]
    pub fn exponent_bits(&self) -> u32 {
        self.exponent_bits
    }

    /// Mantissa field width.
    #[inline]
    pub fn mantissa_bits(&self) -> u32 {
        self.mantissa_bits
    }

    /// Total element width including sign.
    pub fn total_bits(&self) -> u32 {
        1 + self.exponent_bits + self.mantissa_bits
    }

    /// Largest exponent field value.
    pub fn max_exponent(&self) -> u32 {
        (1 << self.exponent_bits) - 1
    }

    /// Number of distinct mantissa values.
    #[inline]
    pub fn mantissa_levels(&self) -> u32 {
        1 << self.mantissa_bits
    }

    /// Largest representable magnitude: `(2 − 2^−mb) × 2^emax`.
    pub fn max_value(&self) -> f64 {
        let frac_max = 2.0 - (-(self.mantissa_bits as f64)).exp2();
        frac_max * (self.max_exponent() as f64).exp2()
    }

    /// Smallest representable magnitude (`1.0 × 2^0`).
    pub fn min_value(&self) -> f64 {
        1.0
    }

    /// Decodes a code to its real magnitude-signed value.
    pub fn decode(&self, code: TinyFloatCode) -> f64 {
        let frac = 1.0 + code.mantissa as f64 / self.mantissa_levels() as f64;
        let mag = frac * (code.exponent as f64).exp2();
        if code.sign {
            -mag
        } else {
            mag
        }
    }

    /// Quantizes a value to the nearest representable code, clamping to the
    /// representable magnitude range `[1.0, max_value]`.
    ///
    /// Values with magnitude below 1.0 round up to the smallest normal —
    /// this format has no zero or subnormals (the hidden bit is added
    /// unconditionally by the hardware).
    pub fn quantize(&self, value: f64) -> TinyFloatCode {
        let sign = value < 0.0;
        let mag = value.abs().clamp(self.min_value(), self.max_value());
        // Candidate exponent: mag/2^e ∈ [1, 2).
        let e = (mag.log2().floor() as i64).clamp(0, self.max_exponent() as i64) as u32;
        let best = [e.saturating_sub(1), e, (e + 1).min(self.max_exponent())]
            .into_iter()
            .map(|exp| {
                let frac = mag / (exp as f64).exp2();
                let m = ((frac - 1.0) * self.mantissa_levels() as f64).round();
                let m = (m as i64).clamp(0, self.mantissa_levels() as i64 - 1) as u32;
                let code = TinyFloatCode {
                    sign,
                    exponent: exp,
                    mantissa: m,
                };
                let err = (self.decode(code).abs() - mag).abs();
                (code, err)
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite errors"))
            .expect("non-empty candidates");
        best.0
    }

    /// Quantizes with a fixed exponent (used after μX sharing): the value is
    /// represented as `±1.m × 2^exponent`, with the mantissa rounded to
    /// nearest and clamped.
    ///
    /// # Panics
    ///
    /// Panics if `exponent > max_exponent()`.
    pub fn quantize_with_exponent(&self, value: f64, exponent: u32) -> TinyFloatCode {
        assert!(exponent <= self.max_exponent(), "exponent out of range");
        let sign = value < 0.0;
        let frac = value.abs() / (exponent as f64).exp2();
        let m = ((frac - 1.0) * self.mantissa_levels() as f64).round();
        let m = (m as i64).clamp(0, self.mantissa_levels() as i64 - 1) as u32;
        TinyFloatCode {
            sign,
            exponent,
            mantissa: m,
        }
    }

    /// Enumerates all representable positive magnitudes in ascending order.
    pub fn positive_values(&self) -> Vec<f64> {
        let mut v = Vec::new();
        for e in 0..=self.max_exponent() {
            for m in 0..self.mantissa_levels() {
                v.push(self.decode(TinyFloatCode {
                    sign: false,
                    exponent: e,
                    mantissa: m,
                }));
            }
        }
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1m2_value_table_matches_paper_convention() {
        let vals = TinyFloat::E1M2.positive_values();
        assert_eq!(vals, vec![1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 3.5]);
    }

    #[test]
    fn e3m4_range() {
        let f = TinyFloat::E3M4;
        assert_eq!(f.total_bits(), 8);
        assert_eq!(f.max_exponent(), 7);
        assert!((f.max_value() - 1.9375 * 128.0).abs() < 1e-12);
    }

    #[test]
    fn quantize_is_nearest_among_representables() {
        let f = TinyFloat::E1M2;
        let table = f.positive_values();
        for i in 0..100 {
            let v = 0.8 + i as f64 * 0.03; // spans below-min through above-max
            let q = f.decode(f.quantize(v)).abs();
            let clamped = v.clamp(1.0, f.max_value());
            let best = table
                .iter()
                .cloned()
                .min_by(|a, b| {
                    (a - clamped)
                        .abs()
                        .partial_cmp(&(b - clamped).abs())
                        .unwrap()
                })
                .unwrap();
            // Ties (e.g. 2.75 between 2.5 and 3.0) may break either way.
            assert!(
                (q - clamped).abs() <= (best - clamped).abs() + 1e-12,
                "v={v} chose {q}, nearest is {best}"
            );
        }
    }

    #[test]
    fn quantize_preserves_sign() {
        let f = TinyFloat::E1M2;
        assert!(f.decode(f.quantize(-2.6)) < 0.0);
        assert!(f.decode(f.quantize(2.6)) > 0.0);
    }

    #[test]
    fn walkthrough_value_from_figure_8() {
        // The paper's walkthrough outlier decodes to 1.5 = 1.10₂ with
        // mantissa m1m0 = 10 and exponent 0.
        let f = TinyFloat::E1M2;
        let code = f.quantize(1.5);
        assert_eq!(code.exponent, 0);
        assert_eq!(code.mantissa, 2);
        assert_eq!(f.decode(code), 1.5);
    }

    #[test]
    fn figure_3_step2_examples() {
        // Figure 3(a) Step 2: 2.99 → s0 e1 m10 (=3.0); −3.50 → s1 e1 m11.
        let f = TinyFloat::E1M2;
        let a = f.quantize(2.99);
        assert_eq!((a.sign, a.exponent, a.mantissa), (false, 1, 2));
        assert_eq!(f.decode(a), 3.0);
        let b = f.quantize(-3.50);
        assert_eq!((b.sign, b.exponent, b.mantissa), (true, 1, 3));
        assert_eq!(f.decode(b), -3.5);
    }

    #[test]
    fn sub_minimum_values_round_up_to_one() {
        let f = TinyFloat::E1M2;
        assert_eq!(f.decode(f.quantize(0.2)).abs(), 1.0);
    }

    #[test]
    fn above_max_clamps() {
        let f = TinyFloat::E1M2;
        assert_eq!(f.decode(f.quantize(100.0)), 3.5);
    }

    #[test]
    fn fixed_exponent_quantization_clamps_mantissa() {
        let f = TinyFloat::E1M2;
        // 3.9 at exponent 0 would need mantissa ≈ 11.6 → clamps to 3 (1.75).
        let code = f.quantize_with_exponent(3.9, 0);
        assert_eq!(code.mantissa, 3);
        assert_eq!(f.decode(code), 1.75);
        // 0.5 at exponent 0 clamps mantissa low to 0 (1.0).
        let lo = f.quantize_with_exponent(0.5, 0);
        assert_eq!(f.decode(lo), 1.0);
    }

    #[test]
    fn for_outlier_bits_selects_documented_formats() {
        assert_eq!(TinyFloat::for_outlier_bits(4), TinyFloat::E1M2);
        assert_eq!(TinyFloat::for_outlier_bits(8), TinyFloat::E3M4);
    }

    #[test]
    #[should_panic(expected = "no outlier format")]
    fn unsupported_width_panics() {
        let _ = TinyFloat::for_outlier_bits(6);
    }
}
