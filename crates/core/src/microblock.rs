//! Per-micro-block planning: outlier selection, Hessian-guided pruning of
//! least-important inliers, and the permutation list that records where the
//! outlier halves live (§4.3, Algorithm 1 Steps 2–3).

use crate::error::QuantError;

/// One permutation-list entry: the micro-block-relative locations of an
/// outlier's Upper and Lower halves (`{Upper_loc, Lower_loc}`, 6 bits at
/// `B_μ = 8`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PermEntry {
    /// Slot holding the Upper half — the outlier's own position.
    pub upper_loc: u8,
    /// Slot holding the Lower half — a pruned inlier's position.
    pub lower_loc: u8,
}

/// The per-micro-block permutation list (at most `B_μ/2` entries).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PermutationList {
    entries: Vec<PermEntry>,
}

impl PermutationList {
    /// Creates a list from entries.
    ///
    /// # Panics
    ///
    /// Panics if there are more than `micro_block / 2` entries or any
    /// location is out of range.
    pub fn new(entries: Vec<PermEntry>, micro_block: usize) -> Self {
        assert!(
            entries.len() <= micro_block / 2,
            "at most Bμ/2 outliers per micro-block"
        );
        for e in &entries {
            assert!(
                (e.upper_loc as usize) < micro_block && (e.lower_loc as usize) < micro_block,
                "permutation location out of range"
            );
        }
        Self { entries }
    }

    /// The entries.
    pub fn entries(&self) -> &[PermEntry] {
        &self.entries
    }

    /// Number of outliers recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no outliers are recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Packs to the on-chip bit format: `B_μ/2` entries of
    /// `2·log2(B_μ)` bits, zero-padded (paper: 24 bits at `B_μ = 8`).
    pub fn to_bits(&self, micro_block: usize) -> u64 {
        perm_word(&self.entries, micro_block)
    }

    /// Unpacks from the bit format.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::CorruptMetadata`] if the count or locations
    /// are out of range.
    pub fn from_bits(word: u64, micro_block: usize) -> Result<Self, QuantError> {
        let loc_bits = (micro_block as u32).ilog2();
        let count = (word >> 56) as usize;
        if count > micro_block / 2 {
            return Err(QuantError::CorruptMetadata {
                offset: 0,
                reason: format!("permutation count {count} exceeds Bμ/2"),
            });
        }
        let mask = (1u64 << loc_bits) - 1;
        let mut entries = Vec::with_capacity(count);
        for i in 0..count {
            let raw = word >> (i as u32 * 2 * loc_bits);
            let lower = (raw & mask) as u8;
            let upper = ((raw >> loc_bits) & mask) as u8;
            entries.push(PermEntry {
                upper_loc: upper,
                lower_loc: lower,
            });
        }
        Ok(Self { entries })
    }
}

/// [`PermutationList::to_bits`] over a borrowed entry slice, for stores
/// that keep entries without owning a list.
pub(crate) fn perm_word(entries: &[PermEntry], micro_block: usize) -> u64 {
    let loc_bits = (micro_block as u32).ilog2();
    let mut word = 0u64;
    for (i, e) in entries.iter().enumerate() {
        let entry = ((e.upper_loc as u64) << loc_bits) | e.lower_loc as u64;
        word |= entry << (i as u32 * 2 * loc_bits);
    }
    // Occupancy count rides in the top byte so decode knows how many
    // entries are real (slot 0/0 would otherwise be ambiguous).
    word | ((entries.len() as u64) << 56)
}

/// The quantization role assigned to each micro-block slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotRole {
    /// Regular inlier, quantized to MX-INT.
    Inlier,
    /// Outlier: the slot keeps the Upper half; index into the μB's outlier
    /// list.
    OutlierUpper(usize),
    /// Pruned inlier hosting the Lower half of outlier `index`.
    PrunedLower(usize),
}

/// The plan for one micro-block: which slots are outliers, which inliers
/// are pruned to host the Lower halves, and the resulting permutation list.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroBlockPlan {
    /// Role of every slot.
    pub roles: Vec<SlotRole>,
    /// Positions (ascending) of the outliers kept at high precision.
    pub outlier_positions: Vec<usize>,
    /// Positions (one per outlier) pruned to host Lower halves.
    pub pruned_positions: Vec<usize>,
    /// The permutation list pairing each outlier with its Lower slot.
    pub perm: PermutationList,
    /// Flagged outliers demoted to inliers because the block exceeded
    /// `B_μ/2` outliers.
    pub demoted: usize,
}

impl MicroBlockPlan {
    /// A plan with no outliers: every slot is an inlier.
    pub fn all_inliers(len: usize) -> Self {
        Self {
            roles: vec![SlotRole::Inlier; len],
            outlier_positions: Vec::new(),
            pruned_positions: Vec::new(),
            perm: PermutationList::default(),
            demoted: 0,
        }
    }

    /// Builds the plan for a micro-block (Algorithm 1 Steps 2.0–2.4, 3.0).
    ///
    /// * `flagged` — 3σ outlier mask for the block's slots;
    /// * `weights` — current weight values (for demotion ordering);
    /// * `saliency` — pruning saliency per slot (`w²/[H⁻¹]ₚₚ`); lower is
    ///   pruned first;
    /// * `redistribute` — when false, no pruning happens (outliers are
    ///   stored side-band) and the perm list stays empty.
    ///
    /// At most `len/2` outliers are kept (Algorithm 1 L12); excess flagged
    /// values are demoted to inliers, smallest magnitude first.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree.
    pub fn build(flagged: &[bool], weights: &[f64], saliency: &[f64], redistribute: bool) -> Self {
        let len = flagged.len();
        assert_eq!(weights.len(), len, "weights length mismatch");
        assert_eq!(saliency.len(), len, "saliency length mismatch");
        let max_outliers = len / 2;

        let mut flagged_pos: Vec<usize> = (0..len).filter(|&i| flagged[i]).collect();
        let demoted = flagged_pos.len().saturating_sub(max_outliers);
        if demoted > 0 {
            // Keep the largest-magnitude outliers (Step 2.0's min() with
            // the preservation bias of §3.2).
            flagged_pos.sort_by(|&a, &b| {
                weights[b]
                    .abs()
                    .partial_cmp(&weights[a].abs())
                    .expect("finite weights")
            });
            flagged_pos.truncate(max_outliers);
            flagged_pos.sort_unstable();
        }
        let outlier_positions = flagged_pos;
        let n = outlier_positions.len();

        let mut roles = vec![SlotRole::Inlier; len];
        for (k, &p) in outlier_positions.iter().enumerate() {
            roles[p] = SlotRole::OutlierUpper(k);
        }

        if !redistribute || n == 0 {
            return Self {
                roles,
                outlier_positions,
                pruned_positions: Vec::new(),
                perm: PermutationList::default(),
                demoted,
            };
        }

        // Step 2.2: n least-salient inlier positions, pruned ascending by
        // saliency (ties broken by position for determinism).
        let mut inlier_pos: Vec<usize> = (0..len)
            .filter(|&i| !matches!(roles[i], SlotRole::OutlierUpper(_)))
            .collect();
        inlier_pos.sort_by(|&a, &b| {
            saliency[a]
                .partial_cmp(&saliency[b])
                .expect("finite saliency")
                .then(a.cmp(&b))
        });
        let mut pruned_positions: Vec<usize> = inlier_pos.into_iter().take(n).collect();
        pruned_positions.sort_unstable();

        let mut entries = Vec::with_capacity(n);
        for (k, (&o, &p)) in outlier_positions
            .iter()
            .zip(pruned_positions.iter())
            .enumerate()
        {
            roles[p] = SlotRole::PrunedLower(k);
            entries.push(PermEntry {
                upper_loc: o as u8,
                lower_loc: p as u8,
            });
        }
        let perm = PermutationList::new(entries, len.next_power_of_two());

        Self {
            roles,
            outlier_positions,
            pruned_positions,
            perm,
            demoted,
        }
    }

    /// Number of kept outliers.
    pub fn n_outliers(&self) -> usize {
        self.outlier_positions.len()
    }

    /// Verifies the (B_μ−n):B_μ structured-sparsity invariant: pruned and
    /// outlier slots are disjoint and counts match.
    pub fn check_invariants(&self) -> bool {
        let n = self.n_outliers();
        if !self.perm.is_empty() && self.pruned_positions.len() != n {
            return false;
        }
        self.outlier_positions
            .iter()
            .all(|p| !self.pruned_positions.contains(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_saliency(len: usize) -> Vec<f64> {
        vec![1.0; len]
    }

    #[test]
    fn no_outliers_yields_trivial_plan() {
        let plan = MicroBlockPlan::build(&[false; 8], &[0.1; 8], &uniform_saliency(8), true);
        assert_eq!(plan.n_outliers(), 0);
        assert!(plan.perm.is_empty());
        assert!(plan.roles.iter().all(|r| matches!(r, SlotRole::Inlier)));
    }

    #[test]
    fn one_outlier_prunes_least_salient_inlier() {
        let flagged = [false, false, true, false, false, false, false, false];
        let weights = [0.1, 0.2, 5.0, 0.1, 0.1, 0.1, 0.1, 0.1];
        let mut sal = vec![1.0; 8];
        sal[6] = 0.01; // least important inlier
        let plan = MicroBlockPlan::build(&flagged, &weights, &sal, true);
        assert_eq!(plan.outlier_positions, vec![2]);
        assert_eq!(plan.pruned_positions, vec![6]);
        assert_eq!(
            plan.perm.entries()[0],
            PermEntry {
                upper_loc: 2,
                lower_loc: 6
            }
        );
        assert!(matches!(plan.roles[2], SlotRole::OutlierUpper(0)));
        assert!(matches!(plan.roles[6], SlotRole::PrunedLower(0)));
        assert!(plan.check_invariants());
    }

    #[test]
    fn outlier_slots_are_never_pruned() {
        // All outlier slots have tiny saliency; pruning must still pick
        // inlier slots only.
        let flagged = [true, true, false, false, true, false, false, false];
        let weights = [3.0, -4.0, 0.1, 0.1, 5.0, 0.1, 0.1, 0.1];
        let mut sal = vec![1.0; 8];
        sal[0] = 0.0;
        sal[1] = 0.0;
        sal[4] = 0.0;
        let plan = MicroBlockPlan::build(&flagged, &weights, &sal, true);
        assert_eq!(plan.n_outliers(), 3);
        assert!(plan.check_invariants());
        for p in &plan.pruned_positions {
            assert!(!plan.outlier_positions.contains(p));
        }
    }

    #[test]
    fn demotion_keeps_largest_magnitude() {
        // 6 flagged in a block of 8 → keep the 4 largest.
        let flagged = [true, true, true, true, true, true, false, false];
        let weights = [1.0, -9.0, 2.0, -8.0, 3.0, 7.0, 0.1, 0.1];
        let plan = MicroBlockPlan::build(&flagged, &weights, &uniform_saliency(8), true);
        assert_eq!(plan.demoted, 2);
        assert_eq!(plan.outlier_positions, vec![1, 3, 4, 5]); // magnitudes 9,8,3,7 → positions 1,3,5,4 sorted
        assert!(plan.check_invariants());
    }

    #[test]
    fn half_outliers_prunes_every_inlier() {
        let flagged = [true, false, true, false, true, false, true, false];
        let weights = [5.0, 0.1, 5.0, 0.2, 5.0, 0.3, 5.0, 0.4];
        let plan = MicroBlockPlan::build(&flagged, &weights, &uniform_saliency(8), true);
        assert_eq!(plan.n_outliers(), 4);
        assert_eq!(plan.pruned_positions, vec![1, 3, 5, 7]);
        // N:M pattern: (Bμ − n) = 4 non-zero slots out of 8... all of which
        // are outliers here.
        assert!(plan.check_invariants());
    }

    #[test]
    fn redistribute_off_keeps_all_inliers() {
        let flagged = [true, false, false, false, false, false, false, false];
        let weights = [5.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1];
        let plan = MicroBlockPlan::build(&flagged, &weights, &uniform_saliency(8), false);
        assert_eq!(plan.n_outliers(), 1);
        assert!(plan.pruned_positions.is_empty());
        assert!(plan.perm.is_empty());
    }

    #[test]
    fn perm_list_bit_roundtrip() {
        let entries = vec![
            PermEntry {
                upper_loc: 0,
                lower_loc: 2,
            },
            PermEntry {
                upper_loc: 3,
                lower_loc: 6,
            },
            PermEntry {
                upper_loc: 5,
                lower_loc: 7,
            },
        ];
        let list = PermutationList::new(entries.clone(), 8);
        let bits = list.to_bits(8);
        let back = PermutationList::from_bits(bits, 8).unwrap();
        assert_eq!(back.entries(), entries.as_slice());
    }

    #[test]
    fn perm_list_roundtrip_all_zero_entry() {
        // Entry {0,0} must survive thanks to the occupancy count.
        let list = PermutationList::new(
            vec![PermEntry {
                upper_loc: 0,
                lower_loc: 0,
            }],
            8,
        );
        let back = PermutationList::from_bits(list.to_bits(8), 8).unwrap();
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn corrupt_count_is_detected() {
        let word = 7u64 << 56; // count 7 > Bμ/2 = 4
        let err = PermutationList::from_bits(word, 8).unwrap_err();
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn paper_fig3_step3_pattern() {
        // Fig. 3(a) Step 3 row 2: permutation (0,3)(1,5)(4,7) for Bμ=8.
        let entries = vec![
            PermEntry {
                upper_loc: 0,
                lower_loc: 3,
            },
            PermEntry {
                upper_loc: 1,
                lower_loc: 5,
            },
            PermEntry {
                upper_loc: 4,
                lower_loc: 7,
            },
        ];
        let list = PermutationList::new(entries, 8);
        // 3 entries × 6 bits = 18 payload bits — fits the 24-bit budget.
        assert!(list.to_bits(8) & 0x00FF_FFFF_FFFF_FFFF < (1 << 18));
    }
}
