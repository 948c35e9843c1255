//! MX-FP-b_{k1,k2} — the outlier format: tiny-FP elements whose exponents
//! are shared as a level-2 microexponent (μX) on top of a level-1
//! power-of-two scale (§2.2, §4.2).
//!
//! Quantization per micro-block:
//!
//! 1. a level-1 scale `2^Ol1sf` maps the block maximum into the element
//!    format's range (Eq. 1);
//! 2. elements are quantized to the tiny-FP format;
//! 3. the common exponent across the block is extracted as μX — we select
//!    the μX that minimizes total squared error, then re-round every
//!    element to `±1.m × 2^μX` (sign + mantissa only);
//! 4. the 8-bit `MXScale` stores the level-1 exponent in its MSBs and μX in
//!    its `eb` LSBs (7+1 for e1m2, 5+3 for e3m4).

use crate::fp::TinyFloat;
use crate::scale::Pow2Scale;

/// The shared 8-bit MXScale: level-1 power-of-two exponent concatenated
/// with the level-2 microexponent.
///
/// # Examples
///
/// ```
/// use microscopiq_mx::mxfp::MxScale;
/// use microscopiq_mx::fp::TinyFloat;
///
/// let s = MxScale::new(5, 1, TinyFloat::E1M2);
/// assert_eq!(s.total_exponent(), 6);
/// let round = MxScale::from_byte(s.to_byte(), TinyFloat::E1M2);
/// assert_eq!(round, s);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MxScale {
    level1: i32,
    micro: u32,
    exponent_bits: u32,
}

impl MxScale {
    /// Creates an MXScale from a level-1 exponent and microexponent.
    ///
    /// The level-1 exponent is clamped to the range its `8 − eb`-bit biased
    /// field can hold.
    ///
    /// # Panics
    ///
    /// Panics if `micro` exceeds the format's exponent range.
    pub fn new(level1: i32, micro: u32, format: TinyFloat) -> Self {
        assert!(
            micro <= format.max_exponent(),
            "microexponent {micro} out of range for format"
        );
        let field_bits = 8 - format.exponent_bits();
        let bias = 1 << (field_bits - 1);
        let level1 = level1.clamp(-bias, bias - 1);
        Self {
            level1,
            micro,
            exponent_bits: format.exponent_bits(),
        }
    }

    /// The level-1 exponent (`Ol1sf`).
    pub fn level1(&self) -> i32 {
        self.level1
    }

    /// The level-2 microexponent (`μX`).
    pub fn micro(&self) -> u32 {
        self.micro
    }

    /// The total exponent applied to every element: `Ol1sf + μX`.
    #[inline]
    pub fn total_exponent(&self) -> i32 {
        self.level1 + self.micro as i32
    }

    /// Packs into the 8-bit stored form: biased level-1 MSBs ‖ μX LSBs.
    pub fn to_byte(&self) -> u8 {
        let field_bits = 8 - self.exponent_bits;
        let bias = 1 << (field_bits - 1);
        let biased = (self.level1 + bias) as u8;
        (biased << self.exponent_bits) | (self.micro as u8)
    }

    /// Unpacks from the 8-bit stored form.
    #[inline]
    pub fn from_byte(byte: u8, format: TinyFloat) -> Self {
        let eb = format.exponent_bits();
        let field_bits = 8 - eb;
        let bias = 1 << (field_bits - 1);
        let micro = (byte & ((1 << eb) - 1)) as u32;
        let level1 = (byte >> eb) as i32 - bias;
        Self {
            level1,
            micro,
            exponent_bits: eb,
        }
    }
}

/// A micro-block of MX-FP-quantized outliers: per-element sign + mantissa,
/// plus the shared [`MxScale`].
///
/// # Examples
///
/// ```
/// use microscopiq_mx::mxfp::MxFpBlock;
/// use microscopiq_mx::fp::TinyFloat;
///
/// let outliers = [0.31_f64, -0.44, 0.52];
/// let block = MxFpBlock::quantize(&outliers, TinyFloat::E1M2);
/// let restored = block.dequantize();
/// for (o, r) in outliers.iter().zip(restored.iter()) {
///     assert!((o - r).abs() / o.abs() < 0.25, "o={o} r={r}");
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MxFpBlock {
    format: TinyFloat,
    signs: Vec<bool>,
    mantissas: Vec<u32>,
    scale: MxScale,
}

impl MxFpBlock {
    /// Quantizes a non-empty block of outlier values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn quantize(values: &[f64], format: TinyFloat) -> Self {
        assert!(!values.is_empty(), "cannot quantize an empty outlier block");
        let max_abs = values.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        // Level-1 scale maps the block max into the element format's range,
        // clamped up front to what the MXScale byte field can store so the
        // μX search below sees the exponent that will actually be applied.
        let field_bits = 8 - format.exponent_bits();
        let bias = 1i32 << (field_bits - 1);
        let level1 = Pow2Scale::new(
            Pow2Scale::from_max(max_abs, format.max_value())
                .exponent()
                .clamp(-bias, bias - 1),
        );

        // Pick the shared μX minimizing total squared error.
        let mut best: Option<(u32, f64, Vec<bool>, Vec<u32>)> = None;
        for micro in 0..=format.max_exponent() {
            let mut signs = Vec::with_capacity(values.len());
            let mut mans = Vec::with_capacity(values.len());
            let mut err = 0.0;
            for &v in values {
                let scaled = level1.apply(v);
                let code = format.quantize_with_exponent(scaled, micro);
                let deq = level1.unapply(format.decode(code));
                err += (deq - v) * (deq - v);
                signs.push(code.sign);
                mans.push(code.mantissa);
            }
            if best.as_ref().is_none_or(|(_, e, _, _)| err < *e) {
                best = Some((micro, err, signs, mans));
            }
        }
        let (micro, _, signs, mantissas) = best.expect("at least one μX candidate");
        Self {
            format,
            signs,
            mantissas,
            scale: MxScale::new(level1.exponent(), micro, format),
        }
    }

    /// The element format (e1m2 / e3m4).
    pub fn format(&self) -> TinyFloat {
        self.format
    }

    /// Per-element signs.
    pub fn signs(&self) -> &[bool] {
        &self.signs
    }

    /// Per-element mantissa fields (hidden bit implicit).
    pub fn mantissas(&self) -> &[u32] {
        &self.mantissas
    }

    /// The shared scale.
    pub fn scale(&self) -> MxScale {
        self.scale
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.signs.len()
    }

    /// Whether the block is empty (never true for constructed blocks).
    pub fn is_empty(&self) -> bool {
        self.signs.is_empty()
    }

    /// Reconstructs the real value of element `i`:
    /// `±(1 + m/2^mb) × 2^(Ol1sf + μX)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn dequantize_element(&self, i: usize) -> f64 {
        let frac = 1.0 + self.mantissas[i] as f64 / self.format.mantissa_levels() as f64;
        let mag = frac * (self.scale.total_exponent() as f64).exp2();
        if self.signs[i] {
            -mag
        } else {
            mag
        }
    }

    /// Reconstructs all values.
    pub fn dequantize(&self) -> Vec<f64> {
        (0..self.len())
            .map(|i| self.dequantize_element(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mxscale_byte_roundtrip_e1m2() {
        for level1 in -64..=63 {
            for micro in 0..=1 {
                let s = MxScale::new(level1, micro, TinyFloat::E1M2);
                assert_eq!(MxScale::from_byte(s.to_byte(), TinyFloat::E1M2), s);
            }
        }
    }

    #[test]
    fn mxscale_byte_roundtrip_e3m4() {
        for level1 in -16..=15 {
            for micro in 0..=7 {
                let s = MxScale::new(level1, micro, TinyFloat::E3M4);
                assert_eq!(MxScale::from_byte(s.to_byte(), TinyFloat::E3M4), s);
            }
        }
    }

    #[test]
    fn mxscale_clamps_level1() {
        let s = MxScale::new(1000, 0, TinyFloat::E1M2);
        assert_eq!(s.level1(), 63);
        let s = MxScale::new(-1000, 0, TinyFloat::E1M2);
        assert_eq!(s.level1(), -64);
    }

    #[test]
    fn uniform_magnitude_block_quantizes_tightly() {
        // All outliers of similar magnitude — the common case the paper's
        // Bμ=8 choice targets (Fig. 14: low outlier diversity).
        let vals = [0.30, 0.31, -0.29, 0.33];
        let block = MxFpBlock::quantize(&vals, TinyFloat::E1M2);
        for (v, d) in vals.iter().zip(block.dequantize().iter()) {
            assert!((v - d).abs() / v.abs() < 0.15, "v={v} d={d}");
        }
    }

    #[test]
    fn signs_survive_quantization() {
        let vals = [0.4, -0.4, 0.4, -0.4];
        let block = MxFpBlock::quantize(&vals, TinyFloat::E1M2);
        assert_eq!(block.signs(), &[false, true, false, true]);
        let deq = block.dequantize();
        assert!(deq[0] > 0.0 && deq[1] < 0.0);
    }

    #[test]
    fn single_outlier_is_nearly_exact() {
        // One value: level-1 + μX + mantissa can represent it to within a
        // mantissa step of relative precision.
        for v in [0.07, -3.3, 190.0, 1e-3] {
            let block = MxFpBlock::quantize(&[v], TinyFloat::E3M4);
            let d = block.dequantize()[0];
            assert!((v - d).abs() / v.abs() < 0.04, "v={v} d={d}");
        }
    }

    #[test]
    fn diverse_block_error_exceeds_uniform_block_error() {
        // Fig. 14's argument: more diverse outliers sharing one scale →
        // larger quantization error.
        let uniform = [0.30, 0.31, 0.32, 0.33];
        let diverse = [0.05, 0.31, 0.90, 0.12];
        let rel_err = |vals: &[f64]| {
            let b = MxFpBlock::quantize(vals, TinyFloat::E1M2);
            vals.iter()
                .zip(b.dequantize().iter())
                .map(|(v, d)| ((v - d) / v).abs())
                .sum::<f64>()
        };
        assert!(rel_err(&diverse) > rel_err(&uniform) * 2.0);
    }

    #[test]
    fn e3m4_beats_e1m2_on_diverse_blocks() {
        // §3.3: more outlier bits (dynamic range) → lower error.
        let vals = [0.05, 0.31, 0.90, 0.12];
        let err = |fmt: TinyFloat| {
            let b = MxFpBlock::quantize(&vals, fmt);
            vals.iter()
                .zip(b.dequantize().iter())
                .map(|(v, d)| (v - d) * (v - d))
                .sum::<f64>()
        };
        assert!(err(TinyFloat::E3M4) < err(TinyFloat::E1M2));
    }

    #[test]
    fn dequantize_element_matches_bulk() {
        let vals = [0.2, -0.5, 0.7];
        let block = MxFpBlock::quantize(&vals, TinyFloat::E3M4);
        let bulk = block.dequantize();
        for (i, &b) in bulk.iter().enumerate() {
            assert_eq!(block.dequantize_element(i), b);
        }
    }

    #[test]
    #[should_panic(expected = "empty outlier block")]
    fn empty_block_panics() {
        let _ = MxFpBlock::quantize(&[], TinyFloat::E1M2);
    }
}
