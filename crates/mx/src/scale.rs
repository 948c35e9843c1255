//! Power-of-two shared scale factors (E8M0-style exponents).
//!
//! Every shared scale in the MX family is a pure power of two `2^e` with the
//! exponent `e` stored in 8 bits. Following Eq. 1 of the paper, the exponent
//! is derived from the block maximum so that the largest element maps inside
//! the target format's representable range.

/// The most negative exponent an 8-bit scale can carry.
pub const MIN_EXPONENT: i32 = -127;
/// The most positive exponent an 8-bit scale can carry.
pub const MAX_EXPONENT: i32 = 127;

/// A power-of-two scale factor `2^exponent` with an E8M0-representable
/// exponent.
///
/// # Examples
///
/// ```
/// use microscopiq_mx::scale::Pow2Scale;
///
/// let s = Pow2Scale::from_max(0.06, 1.0); // 2-bit inliers: max_int = 1
/// assert!(s.exponent() < 0, "inlier scales are negative powers of two");
/// let q = s.apply(0.06);
/// assert!(q.abs() <= 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pow2Scale(i32);

impl Pow2Scale {
    /// Creates a scale `2^exponent`, clamping into the representable range.
    #[inline]
    pub fn new(exponent: i32) -> Self {
        Self(exponent.clamp(MIN_EXPONENT, MAX_EXPONENT))
    }

    /// Identity scale `2^0`.
    pub fn one() -> Self {
        Self(0)
    }

    /// Derives the smallest power-of-two scale such that
    /// `max_abs / 2^e <= format_max` (Eq. 1 rounded up to a power of two).
    ///
    /// A zero or non-finite `max_abs` yields the minimum exponent so that
    /// every element quantizes to zero.
    ///
    /// # Panics
    ///
    /// Panics if `format_max` is not strictly positive.
    pub fn from_max(max_abs: f64, format_max: f64) -> Self {
        assert!(format_max > 0.0, "format_max must be positive");
        if !(max_abs.is_finite()) || max_abs <= 0.0 {
            return Self(MIN_EXPONENT);
        }
        let e = (max_abs / format_max).log2().ceil() as i32;
        Self::new(e)
    }

    /// The exponent `e` of `2^e`.
    #[inline]
    pub fn exponent(&self) -> i32 {
        self.0
    }

    /// The scale as a float, `2^e`: the exponent field of an `f64` with a
    /// zero mantissa, which every E8M0 exponent fits as a normal number.
    /// Kernels call this once per group, so it is built from bits rather
    /// than through `exp2`; both give the same value.
    #[inline]
    pub fn value(&self) -> f64 {
        f64::from_bits(((self.0 + 1023) as u64) << 52)
    }

    /// Divides a value by the scale (the forward direction of Eq. 2).
    pub fn apply(&self, x: f64) -> f64 {
        x / self.value()
    }

    /// Multiplies a value by the scale (dequantization direction).
    #[inline]
    pub fn unapply(&self, q: f64) -> f64 {
        q * self.value()
    }

    /// Composes two scales: `2^a · 2^b = 2^(a+b)` (saturating).
    pub fn compose(&self, other: Pow2Scale) -> Pow2Scale {
        Pow2Scale::new(self.0.saturating_add(other.0))
    }

    /// Inverse scale `2^(−e)`.
    pub fn inverse(&self) -> Pow2Scale {
        Pow2Scale::new(-self.0)
    }

    /// The raw biased byte as it would be stored in an E8M0 field
    /// (bias 127; exponent −127 encodes as 0).
    #[inline]
    pub fn to_e8m0_byte(&self) -> u8 {
        (self.0 + 127) as u8
    }

    /// Reconstructs a scale from a stored E8M0 byte.
    #[inline]
    pub fn from_e8m0_byte(byte: u8) -> Self {
        Self::new(byte as i32 - 127)
    }
}

impl Default for Pow2Scale {
    fn default() -> Self {
        Self::one()
    }
}

impl std::fmt::Display for Pow2Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "2^{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_max_guarantees_no_clipping() {
        for max in [0.001, 0.06, 0.9, 1.0, 3.7, 100.0, 1e6] {
            for fmax in [1.0, 3.5, 7.0, 248.0] {
                let s = Pow2Scale::from_max(max, fmax);
                assert!(
                    s.apply(max) <= fmax + 1e-12,
                    "max={max} fmax={fmax} scaled={}",
                    s.apply(max)
                );
                // The scale is tight: halving it would clip (unless clamped).
                if s.exponent() > MIN_EXPONENT {
                    let smaller = Pow2Scale::new(s.exponent() - 1);
                    assert!(smaller.apply(max) > fmax - 1e-9);
                }
            }
        }
    }

    #[test]
    fn zero_max_yields_min_exponent() {
        let s = Pow2Scale::from_max(0.0, 1.0);
        assert_eq!(s.exponent(), MIN_EXPONENT);
    }

    #[test]
    fn nan_max_yields_min_exponent() {
        let s = Pow2Scale::from_max(f64::NAN, 1.0);
        assert_eq!(s.exponent(), MIN_EXPONENT);
    }

    #[test]
    fn apply_unapply_roundtrip() {
        let s = Pow2Scale::new(-5);
        let x = 0.123;
        assert!((s.unapply(s.apply(x)) - x).abs() < 1e-15);
    }

    #[test]
    fn inlier_scales_are_negative_powers() {
        // §4.2 observation: with weight-scale maxima < 1, Isf < 0.
        for max in [0.01, 0.05, 0.2, 0.5, 0.99] {
            let s = Pow2Scale::from_max(max, 1.0);
            assert!(
                s.exponent() <= 0,
                "max={max} gave exponent {}",
                s.exponent()
            );
        }
    }

    #[test]
    fn e8m0_byte_roundtrip() {
        for e in MIN_EXPONENT..=MAX_EXPONENT {
            let s = Pow2Scale::new(e);
            assert_eq!(Pow2Scale::from_e8m0_byte(s.to_e8m0_byte()), s);
        }
    }

    #[test]
    fn value_is_bitwise_exp2_for_every_exponent() {
        for e in MIN_EXPONENT..=MAX_EXPONENT {
            let want = (e as f64).exp2();
            assert_eq!(Pow2Scale::new(e).value().to_bits(), want.to_bits(), "2^{e}");
        }
    }

    #[test]
    fn compose_adds_exponents() {
        let a = Pow2Scale::new(3);
        let b = Pow2Scale::new(-5);
        assert_eq!(a.compose(b).exponent(), -2);
        assert_eq!(a.compose(a.inverse()).exponent(), 0);
    }

    #[test]
    fn exponent_clamps_to_e8m0_range() {
        assert_eq!(Pow2Scale::new(1000).exponent(), MAX_EXPONENT);
        assert_eq!(Pow2Scale::new(-1000).exponent(), MIN_EXPONENT);
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(Pow2Scale::new(-4).to_string(), "2^-4");
    }
}
