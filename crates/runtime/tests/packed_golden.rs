//! Golden values for the packed format: for a few fixed synthetic layers,
//! a digest of `to_bytes()`, its length and `content_fingerprint()`, as
//! recorded before the in-memory layout was flattened. The wire format
//! and the decoded-cache key are defined by these numbers, so a change to
//! how a `PackedLayer` is held in memory must leave every one of them
//! alone.
//!
//! The layers cover both group axes, both bit budgets, outlier rates 0
//! and 0.3, and line lengths that leave a partial tail group whose last
//! micro-block is short (5 of 8 slots).

use microscopiq_core::config::GroupAxis;
use microscopiq_core::packed::PackedLayer;
use microscopiq_runtime::kernels::synth::{synth_packed, SynthSpec};

/// FNV-1a over the serialized bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// (axis, bits, d_row, d_col, outlier rate, seed). Line length 109 =
/// 3 × 32 + 13: the tail group holds one full micro-block and one of 5.
const CASES: [(GroupAxis, u32, usize, usize, f64, u64); 4] = [
    (GroupAxis::DotProduct, 4, 12, 109, 0.3, 1),
    (GroupAxis::DotProduct, 2, 12, 109, 0.0, 2),
    (GroupAxis::OutputChannel, 2, 109, 12, 0.3, 3),
    (GroupAxis::OutputChannel, 4, 109, 12, 0.0, 4),
];

/// (FNV-1a of `to_bytes()`, its length, `content_fingerprint()`) per case.
const GOLDEN: [(u64, usize, u64); 4] = [
    (0x22454bd564219c89, 1343, 0x9d72976d3314f634),
    (0xca4599ef33cae64b, 839, 0x2a9a0a613b23e365),
    (0xa32f68035743eae5, 1015, 0xa1674c8bf8304d9f),
    (0x4c780179d0120bd3, 1163, 0x44710d2e41adadc8),
];

fn layer(case: usize) -> PackedLayer {
    let (axis, bits, d_row, d_col, outlier_rate, seed) = CASES[case];
    synth_packed(&SynthSpec {
        axis,
        d_row,
        d_col,
        bits,
        micro: 8,
        macro_block: 32,
        outlier_rate,
        seed,
    })
}

#[test]
fn serialized_bytes_and_fingerprint_match_golden() {
    for (case, &(digest, len, fingerprint)) in GOLDEN.iter().enumerate() {
        let l = layer(case);
        let bytes = l.to_bytes();
        assert_eq!(
            (fnv1a(&bytes), bytes.len(), l.content_fingerprint()),
            (digest, len, fingerprint),
            "case {case}"
        );
    }
}

#[test]
fn golden_layers_round_trip_through_bytes() {
    for case in 0..CASES.len() {
        let l = layer(case);
        let back = PackedLayer::from_bytes(&l.to_bytes()).unwrap();
        assert_eq!(back, l, "case {case}");
        assert_eq!(back.content_fingerprint(), l.content_fingerprint());
        assert_eq!(back.to_bytes(), l.to_bytes());
    }
}

#[test]
fn golden_layers_carry_outliers_only_where_asked() {
    for (case, &(.., rate, _)) in CASES.iter().enumerate() {
        let fraction = layer(case).outlier_micro_block_fraction();
        assert_eq!(fraction > 0.0, rate > 0.0, "case {case}: {fraction}");
    }
}
