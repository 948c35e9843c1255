//! Decode-pipeline parity properties: incremental KV-cached decode must
//! produce **bit-identical** logits to full-prefix recompute — across
//! batch sizes, prefix lengths, both bit budgets, and
//! outlier-free/outlier-heavy models.

use microscopiq_core::{MicroScopiQ, QuantConfig};
use microscopiq_fm::{
    DecodeJob, DecodeState, DequantGemm, KvMode, PackedTinyFm, TinyFm, TinyFmConfig,
};
use microscopiq_linalg::{Matrix, SeededRng};
use proptest::prelude::*;

fn small_cfg() -> TinyFmConfig {
    TinyFmConfig {
        d_model: 32,
        n_heads: 2,
        d_ff: 64,
        n_layers: 2,
        vocab: 48,
    }
}

/// A quantized packed model: `outlier_heavy` controls whether the teacher
/// carries FM-style weight outliers or is purely Gaussian.
fn packed_model(seed: u64, bits: u32, outlier_heavy: bool) -> (TinyFm, PackedTinyFm) {
    let cfg = small_cfg();
    let attn_outliers = if outlier_heavy {
        (cfg.d_model * cfg.d_model) / 40 // 2× the FM-statistics default
    } else {
        0
    };
    let fm = TinyFm::teacher_with_outliers(cfg, seed, attn_outliers);
    let mut rng = SeededRng::new(seed ^ 0x5eed);
    let calib: Vec<Vec<usize>> = (0..3).map(|_| fm.generate(10, 0.9, &mut rng)).collect();
    let q = MicroScopiQ::new(
        QuantConfig::builder(bits)
            .macro_block(32)
            .row_block(32)
            .build()
            .unwrap(),
    );
    let packed = PackedTinyFm::quantize_from(&fm, &q, &calib).unwrap();
    (fm, packed)
}

fn random_seq(rng: &mut SeededRng, vocab: usize, len: usize) -> Vec<usize> {
    (0..len).map(|_| rng.below(vocab)).collect()
}

/// Exactly compares an incremental run (prefill over `prefix` tokens,
/// then one decode_step per remaining token) against the full-prefix
/// logits `full` (`vocab × T`). The incremental logits at position
/// `t ≥ prefix − 1` must match bit for bit.
fn assert_packed_incremental_matches(
    model: &PackedTinyFm,
    seq: &[usize],
    prefix: usize,
    full: &Matrix,
) {
    let (mut state, prefill_logits) = model
        .prefill(&seq[..prefix], KvMode::Exact, &DequantGemm)
        .unwrap();
    for t in 0..prefix {
        for v in 0..full.rows() {
            assert_eq!(
                prefill_logits[(v, t)],
                full[(v, t)],
                "prefill logit ({v},{t}) diverged"
            );
        }
    }
    for (s, &tok) in seq.iter().enumerate().skip(prefix) {
        let step_logits = model.decode_step(&mut state, tok, &DequantGemm);
        for (v, &got) in step_logits.iter().enumerate() {
            assert_eq!(got, full[(v, s)], "decode logit ({v},{s}) diverged");
        }
    }
    assert_eq!(state.tokens(), seq, "state token bookkeeping");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Exact-KV incremental decode is bit-identical to the one-shot
    /// `forward_batch` across batch sizes, prefix lengths, both bit
    /// budgets, and outlier-free/outlier-heavy models.
    #[test]
    fn incremental_exact_matches_full_prefix_bitwise(
        seed in 0u64..500,
        batch in 1usize..4,
        lens in prop::collection::vec(3usize..14, 3),
        bits in prop_oneof![Just(2u32), Just(4u32)],
        outlier_heavy in any::<bool>(),
    ) {
        let (_, packed) = packed_model(seed, bits, outlier_heavy);
        let vocab = packed.config().vocab;
        let mut rng = SeededRng::new(seed ^ 0xF00D);
        let seqs: Vec<Vec<usize>> = (0..batch)
            .map(|b| random_seq(&mut rng, vocab, lens[b % lens.len()]))
            .collect();
        let refs: Vec<&[usize]> = seqs.iter().map(|s| s.as_slice()).collect();
        let full = packed.forward_batch(&refs, &DequantGemm);
        for (seq, full_logits) in seqs.iter().zip(full.iter()) {
            // Split each sequence at several prefix points, including the
            // degenerate one-token prefill.
            for prefix in [1, seq.len() / 2 + 1, seq.len()] {
                assert_packed_incremental_matches(&packed, seq, prefix, full_logits);
            }
        }
    }

    /// The dense TinyFm decode path obeys the same bitwise contract as
    /// the packed one.
    #[test]
    fn dense_incremental_matches_forward_bitwise(
        seed in 0u64..500,
        len in 4usize..16,
        prefix_frac in 0.1f64..1.0,
    ) {
        let fm = TinyFm::teacher(small_cfg(), seed);
        let mut rng = SeededRng::new(seed ^ 0xBEEF);
        let seq = random_seq(&mut rng, small_cfg().vocab, len);
        let prefix = ((len as f64 * prefix_frac) as usize).clamp(1, len);
        let full = fm.forward(&seq);
        let (mut state, prefill_logits) = fm.prefill(&seq[..prefix], KvMode::Exact).unwrap();
        for t in 0..prefix {
            for v in 0..full.rows() {
                prop_assert_eq!(prefill_logits[(v, t)], full[(v, t)]);
            }
        }
        for (s, &tok) in seq.iter().enumerate().skip(prefix) {
            let step_logits = fm.decode_step(&mut state, tok);
            for (v, &got) in step_logits.iter().enumerate() {
                prop_assert_eq!(got, full[(v, s)], "logit ({},{})", v, s);
            }
        }
    }

    /// Mixed batches — prefill segments riding with mid-decode
    /// single-token segments — leave every job bit-identical to running
    /// it alone.
    #[test]
    fn mixed_advance_batch_is_isolation_safe(
        seed in 0u64..500,
        bits in prop_oneof![Just(2u32), Just(4u32)],
    ) {
        let (_, packed) = packed_model(seed, bits, true);
        let vocab = packed.config().vocab;
        let mut rng = SeededRng::new(seed ^ 0xABBA);
        let prompt_a = random_seq(&mut rng, vocab, 7);
        let prompt_b = random_seq(&mut rng, vocab, 5);
        let tok_a = rng.below(vocab);

        // Reference: each request alone.
        let (mut solo_a, _) = packed.prefill(&prompt_a, KvMode::Exact, &DequantGemm).unwrap();
        let solo_a_logits = packed.decode_step(&mut solo_a, tok_a, &DequantGemm);
        let (_, solo_b_logits) = packed.prefill(&prompt_b, KvMode::Exact, &DequantGemm).unwrap();

        // Mixed: request A mid-decode (1 token) packed with B's prefill.
        let (mut state_a, _) = packed.prefill(&prompt_a, KvMode::Exact, &DequantGemm).unwrap();
        let mut state_b = DecodeState::exact(packed.config());
        let toks_a = [tok_a];
        let mut jobs = [
            DecodeJob { state: &mut state_a, tokens: &toks_a },
            DecodeJob { state: &mut state_b, tokens: &prompt_b },
        ];
        let out = packed.advance_batch(&mut jobs, &DequantGemm);
        prop_assert_eq!(&out[0].col(0), &solo_a_logits, "decode segment diverged");
        for t in 0..prompt_b.len() {
            for v in 0..vocab {
                prop_assert_eq!(out[1][(v, t)], solo_b_logits[(v, t)]);
            }
        }
    }
}

/// Exact-KV decode through the runtime-facing `DequantGemm` engine is
/// also bit-identical when the prefill is the *entire* sequence (pure
/// prefill, no decode steps) — the degenerate case `forward` wraps.
#[test]
fn pure_prefill_equals_forward() {
    let (_, packed) = packed_model(21, 2, false);
    let mut rng = SeededRng::new(3);
    let seq = random_seq(&mut rng, packed.config().vocab, 9);
    let full = packed.forward(&seq, &DequantGemm);
    let (state, logits) = packed.prefill(&seq, KvMode::Exact, &DequantGemm).unwrap();
    assert_eq!(logits, full);
    assert_eq!(state.len(), seq.len());
    assert_eq!(state.cache(0).len(), seq.len());
}
