//! Upper/Lower outlier-half encoding (§4.3) and the ReCoN merge arithmetic
//! that reconstructs FP outlier partial sums from INT half products (§5.4).
//!
//! An MX-FP outlier, after μX sharing, is `±1.m × 2^E` with `mb` mantissa
//! bits. The sign is duplicated and each mantissa half is paired with it,
//! producing two sign-magnitude values that mimic the inlier MX-INT
//! structure:
//!
//! ```text
//!   mantissa m = m_hi ‖ m_lo          (mb/2 bits each)
//!   Upper = (-1)^s · m_hi             stored as {s, m_hi}
//!   Lower = (-1)^s · m_lo             stored as {s, m_lo}
//! ```
//!
//! A PE multiplies each half by the iAct as a plain integer. ReCoN then
//! merges: `psum += iAcc + (-1)^s·iAct  +  Upper·iAct ≫ mb/2  +
//! Lower·iAct ≫ mb` — the first term is the hidden bit, the shifts restore
//! each half's binary point. We carry partial sums in fixed point with `mb`
//! fractional bits so the shifts are lossless, and the merged partial sum
//! is exact.

/// The two sign-magnitude halves of a split outlier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OutlierHalves {
    /// Duplicated sign (true = negative).
    pub sign: bool,
    /// High mantissa half magnitude (`mb/2` bits).
    pub upper_mag: u32,
    /// Low mantissa half magnitude (`mb/2` bits).
    pub lower_mag: u32,
    /// Total mantissa width `mb` (even).
    pub mantissa_bits: u32,
}

impl OutlierHalves {
    /// Signed integer value of the upper half: `(-1)^s · m_hi`.
    pub fn upper_value(&self) -> i32 {
        if self.sign {
            -(self.upper_mag as i32)
        } else {
            self.upper_mag as i32
        }
    }

    /// Signed integer value of the lower half: `(-1)^s · m_lo`.
    pub fn lower_value(&self) -> i32 {
        if self.sign {
            -(self.lower_mag as i32)
        } else {
            self.lower_mag as i32
        }
    }

    /// Signed hidden-bit value: `(-1)^s · 1`.
    pub fn hidden_value(&self) -> i32 {
        if self.sign {
            -1
        } else {
            1
        }
    }

    /// Packs the upper half as raw weight-slot bits `{s, m_hi}` in a
    /// `slot_bits`-wide field.
    ///
    /// # Panics
    ///
    /// Panics if the magnitude does not fit `slot_bits − 1` bits.
    pub fn upper_bits(&self, slot_bits: u32) -> u8 {
        pack_sign_mag(self.sign, self.upper_mag, slot_bits)
    }

    /// Packs the lower half as raw weight-slot bits `{s, m_lo}`.
    ///
    /// # Panics
    ///
    /// Panics if the magnitude does not fit `slot_bits − 1` bits.
    pub fn lower_bits(&self, slot_bits: u32) -> u8 {
        pack_sign_mag(self.sign, self.lower_mag, slot_bits)
    }
}

fn pack_sign_mag(sign: bool, mag: u32, slot_bits: u32) -> u8 {
    assert!((2..=8).contains(&slot_bits), "slot width out of range");
    assert!(
        mag < (1 << (slot_bits - 1)),
        "magnitude {mag} does not fit in {} bits",
        slot_bits - 1
    );
    ((sign as u8) << (slot_bits - 1)) | (mag as u8)
}

/// Unpacks a `{s, mag}` sign-magnitude field into its signed value.
#[inline]
pub fn unpack_sign_mag(bits: u8, slot_bits: u32) -> i32 {
    let sign = (bits >> (slot_bits - 1)) & 1 == 1;
    let mag = (bits & ((1 << (slot_bits - 1)) - 1)) as i32;
    if sign {
        -mag
    } else {
        mag
    }
}

/// Splits a shared-exponent outlier (sign + `mb`-bit mantissa) into its
/// Upper/Lower halves with duplicated sign.
///
/// # Panics
///
/// Panics if `mantissa_bits` is odd or the mantissa does not fit.
pub fn split_into_halves(sign: bool, mantissa: u32, mantissa_bits: u32) -> OutlierHalves {
    assert!(
        mantissa_bits.is_multiple_of(2),
        "mantissa width must be even to halve"
    );
    assert!(
        mantissa < (1 << mantissa_bits),
        "mantissa {mantissa} does not fit in {mantissa_bits} bits"
    );
    let half = mantissa_bits / 2;
    OutlierHalves {
        sign,
        upper_mag: mantissa >> half,
        lower_mag: mantissa & ((1 << half) - 1),
        mantissa_bits,
    }
}

/// Reassembles the halves into `(sign, mantissa)`.
pub fn reassemble_halves(halves: OutlierHalves) -> (bool, u32) {
    let half = halves.mantissa_bits / 2;
    (halves.sign, (halves.upper_mag << half) | halves.lower_mag)
}

/// ReCoN's Merge (‖) operation in lossless fixed point.
///
/// Inputs are the raw INT products computed by the PEs
/// (`upper_res = upper_value·iAct`, `lower_res = lower_value·iAct`) plus the
/// iAct itself for the hidden bit, and the incoming accumulation `iacc_fp`
/// already carried at `2^mantissa_bits` fixed point. Returns the merged
/// partial sum at the same fixed point:
///
/// ```text
/// out = iacc + (-1)^s·iAct·2^mb + upper_res·2^(mb/2) + lower_res
/// ```
///
/// which equals `iacc + outlier_value·iAct·2^mb` exactly.
pub fn merge_halves_fixed_point(
    upper_res: i64,
    lower_res: i64,
    signed_iact: i64,
    iacc_fp: i64,
    mantissa_bits: u32,
) -> i64 {
    let half = mantissa_bits / 2;
    iacc_fp + (signed_iact << mantissa_bits) + (upper_res << half) + lower_res
}

/// ReCoN's Merge (‖) with the paper's literal arithmetic right shifts
/// (§5.4): `iacc + (-1)^s·iAct + upper_res ≫ mb/2 + lower_res ≫ mb`.
/// Exact when `iAct` is a multiple of `2^mb`; truncating otherwise.
pub fn merge_halves_shift(
    upper_res: i64,
    lower_res: i64,
    signed_iact: i64,
    iacc: i64,
    mantissa_bits: u32,
) -> i64 {
    let half = mantissa_bits / 2;
    iacc + signed_iact + (upper_res >> half) + (lower_res >> mantissa_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_reassemble_roundtrip_all_e1m2_mantissas() {
        for m in 0..4u32 {
            for sign in [false, true] {
                let h = split_into_halves(sign, m, 2);
                assert_eq!(reassemble_halves(h), (sign, m));
            }
        }
    }

    #[test]
    fn split_reassemble_roundtrip_all_e3m4_mantissas() {
        for m in 0..16u32 {
            for sign in [false, true] {
                let h = split_into_halves(sign, m, 4);
                assert_eq!(reassemble_halves(h), (sign, m));
            }
        }
    }

    #[test]
    fn negative_zero_half_contributes_nothing() {
        // Sign-magnitude fixes the {s=1, m=0} case that breaks two's
        // complement: the half must contribute 0, not −2.
        let h = split_into_halves(true, 0b10, 2); // m1=1, m0=0, negative
        assert_eq!(h.lower_value(), 0);
        assert_eq!(h.upper_value(), -1);
    }

    #[test]
    fn paper_walkthrough_merge() {
        // Fig. 8: outlier 1.5 = 1.10₂ (m=10, s=0), iAct=32, iAcc=8 → 56.
        let h = split_into_halves(false, 0b10, 2);
        let upper_res = h.upper_value() as i64 * 32; // 32
        let lower_res = h.lower_value() as i64 * 32; // 0
        let merged = merge_halves_shift(upper_res, lower_res, 32, 8, 2);
        assert_eq!(merged, 56); // (32≫1) + (0≫2) + 32 + 8
    }

    #[test]
    fn fixed_point_merge_matches_shift_merge_on_aligned_iacts() {
        for mant in 0..4u32 {
            for sign in [false, true] {
                let h = split_into_halves(sign, mant, 2);
                let iact = 32i64; // multiple of 2^mb → both paths exact
                let iacc = 8i64;
                let u = h.upper_value() as i64 * iact;
                let l = h.lower_value() as i64 * iact;
                let s = h.hidden_value() as i64 * iact;
                let shift = merge_halves_shift(u, l, s, iacc, 2);
                let fp = merge_halves_fixed_point(u, l, s, iacc << 2, 2);
                assert_eq!(fp, shift << 2, "mant={mant} sign={sign}");
            }
        }
    }

    #[test]
    fn fixed_point_merge_is_exact_for_any_iact() {
        // value = ±1.m; product must equal value · iact · 2^mb exactly.
        for mant in 0..16u32 {
            for sign in [false, true] {
                for iact in [-117i64, -3, 1, 7, 33, 255] {
                    let h = split_into_halves(sign, mant, 4);
                    let u = h.upper_value() as i64 * iact;
                    let l = h.lower_value() as i64 * iact;
                    let s = h.hidden_value() as i64 * iact;
                    let got = merge_halves_fixed_point(u, l, s, 0, 4);
                    let sign_f = if sign { -1.0 } else { 1.0 };
                    let value = sign_f * (1.0 + mant as f64 / 16.0);
                    let expect = (value * iact as f64 * 16.0).round() as i64;
                    assert_eq!(got, expect, "mant={mant} sign={sign} iact={iact}");
                }
            }
        }
    }

    #[test]
    fn negative_outlier_merge() {
        // outlier −1.5, iAct 32, iAcc 8 → 8 − 48 = −40.
        let h = split_into_halves(true, 0b10, 2);
        let u = h.upper_value() as i64 * 32;
        let l = h.lower_value() as i64 * 32;
        let s = h.hidden_value() as i64 * 32;
        assert_eq!(merge_halves_shift(u, l, s, 8, 2), -40);
    }

    #[test]
    fn bit_packing_roundtrip() {
        for sign in [false, true] {
            for mag in 0..2u32 {
                let h = OutlierHalves {
                    sign,
                    upper_mag: mag,
                    lower_mag: 1 - mag,
                    mantissa_bits: 2,
                };
                assert_eq!(unpack_sign_mag(h.upper_bits(2), 2), h.upper_value());
                assert_eq!(unpack_sign_mag(h.lower_bits(2), 2), h.lower_value());
            }
        }
    }

    #[test]
    fn e3m4_halves_fit_four_bit_slots() {
        let h = split_into_halves(true, 0b1110, 4);
        assert_eq!(h.upper_mag, 0b11);
        assert_eq!(h.lower_mag, 0b10);
        // 4-bit slot: sign at bit 3.
        assert_eq!(h.upper_bits(4), 0b1011);
        assert_eq!(unpack_sign_mag(h.upper_bits(4), 4), -3);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_mantissa_panics() {
        let _ = split_into_halves(false, 16, 4);
    }
}
