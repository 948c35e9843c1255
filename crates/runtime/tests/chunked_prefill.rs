//! Chunk-boundary conformance for budgeted chunked prefill.
//!
//! The contract under test: splitting a prompt into
//! prefill chunks of *any* size (and capping per-step tokens with any
//! budget) is a pure scheduling choice — every served token stream is
//! **bitwise identical** to whole-prompt prefill, KV rows are appended
//! token by token either way, and cancelling a request parked mid-prefill
//! reclaims its partial KV cache in full.

use microscopiq_core::{MicroScopiQ, QuantConfig};
use microscopiq_fm::{DequantGemm, KvMode, PackedTinyFm, TinyFm, TinyFmConfig};
use microscopiq_linalg::SeededRng;
use microscopiq_runtime::{
    GenRequest, GenResult, RuntimeEngine, SchedulerConfig, Server, ServerConfig, Session,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::OnceLock;

/// A tiny 1-layer model so 512-token prefills stay cheap, shared across
/// proptest cases.
fn tiny_model() -> &'static PackedTinyFm {
    static MODEL: OnceLock<PackedTinyFm> = OnceLock::new();
    MODEL.get_or_init(|| {
        let cfg = TinyFmConfig {
            d_model: 16,
            n_heads: 2,
            d_ff: 32,
            n_layers: 1,
            vocab: 32,
        };
        let fm = TinyFm::teacher(cfg, 19);
        let mut rng = SeededRng::new(190);
        let calib: Vec<Vec<usize>> = (0..3).map(|_| fm.generate(8, 0.9, &mut rng)).collect();
        let q = MicroScopiQ::new(
            QuantConfig::w4()
                .macro_block(16)
                .row_block(16)
                .build()
                .unwrap(),
        );
        PackedTinyFm::quantize_from(&fm, &q, &calib).unwrap()
    })
}

/// A 2-layer model matching the serving conformance fixtures.
fn serving_model() -> PackedTinyFm {
    let cfg = TinyFmConfig {
        d_model: 32,
        n_heads: 2,
        d_ff: 64,
        n_layers: 2,
        vocab: 48,
    };
    let fm = TinyFm::teacher(cfg, 57);
    let mut rng = SeededRng::new(570);
    let calib: Vec<Vec<usize>> = (0..3).map(|_| fm.generate(10, 0.9, &mut rng)).collect();
    let q = MicroScopiQ::new(
        QuantConfig::w4()
            .macro_block(32)
            .row_block(32)
            .build()
            .unwrap(),
    );
    PackedTinyFm::quantize_from(&fm, &q, &calib).unwrap()
}

fn fleet(n: usize, vocab: usize, seed: u64, max_prompt: usize) -> Vec<GenRequest> {
    let mut rng = SeededRng::new(seed);
    (0..n)
        .map(|i| GenRequest {
            prompt: (0..1 + rng.below(max_prompt))
                .map(|_| rng.below(vocab))
                .collect(),
            max_new_tokens: 1 + rng.below(5),
            temperature: 0.7 + 0.1 * (i % 3) as f64,
            seed: 4_000 + i as u64,
            ..Default::default()
        })
        .collect()
}

fn whole_prompt_reference(model: &PackedTinyFm, reqs: &[GenRequest]) -> Vec<GenResult> {
    let mut session = Session::new(model.clone(), DequantGemm, 4);
    for r in reqs {
        session.submit(r.clone());
    }
    session.run_to_completion()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For arbitrary prompt lengths, chunk sizes, budgets, and mid-flight
    /// admissions, chunked exact-KV serving is bitwise equal to
    /// whole-prompt prefill, and cancelling a request parked mid-prefill
    /// leaves no KV behind.
    #[test]
    fn chunked_serving_is_bitwise_equal_to_whole_prompt(
        seed in 0u64..1_000,
        main_len in 1usize..513,
        chunk in 1usize..65,
        budget in 1usize..49,
        max_batch in 1usize..7,
    ) {
        let model = tiny_model();
        let vocab = model.config().vocab;
        let mut rng = SeededRng::new(seed);
        let main = GenRequest {
            prompt: (0..main_len).map(|_| rng.below(vocab)).collect(),
            max_new_tokens: 1 + rng.below(4),
            temperature: 0.8,
            seed: 7_000 + seed,
            ..Default::default()
        };
        let sides = fleet(3, vocab, seed ^ 0x51de, 24);
        // The victim's long prompt guarantees it is still mid-prefill
        // (or unscheduled) when cancelled two steps in.
        let victim = GenRequest {
            prompt: (0..300).map(|_| rng.below(vocab)).collect(),
            max_new_tokens: 4,
            temperature: 0.8,
            seed: 9_000 + seed,
            ..Default::default()
        };

        // Reference: whole-prompt prefill, everything submitted upfront
        // (by the determinism contract, admission timing is irrelevant).
        let mut all = vec![main.clone()];
        all.extend(sides.iter().cloned());
        let expected = whole_prompt_reference(model, &all);

        let cfg = SchedulerConfig::new(max_batch)
            .prefill_chunk(chunk)
            .token_budget(budget);
        let mut session =
            Session::with_config(model.clone(), DequantGemm, cfg, KvMode::Exact).unwrap();
        // main and sides[0] up front, the victim between them, the rest
        // admitted mid-flight.
        let main_id = session.submit(main);
        let s0_id = session.submit(sides[0].clone());
        let victim_id = session.submit(victim);
        let mut results: Vec<GenResult> = Vec::new();
        results.extend(session.step());
        results.extend(session.step());
        let occ_before = session.kv_occupancy();
        prop_assert!(session.cancel(victim_id), "victim is live two steps in");
        prop_assert!(
            session.kv_occupancy() <= occ_before,
            "cancel must never grow occupancy"
        );
        let s1_id = session.submit(sides[1].clone());
        let s2_id = session.submit(sides[2].clone());
        results.extend(session.run_to_completion());

        prop_assert_eq!(session.kv_occupancy(), 0, "all KV reclaimed at idle");
        prop_assert_eq!(session.stats().cancelled, 1);
        let by_id: HashMap<usize, GenResult> =
            results.into_iter().map(|r| (r.id, r)).collect();
        prop_assert!(!by_id.contains_key(&victim_id), "victim never finishes");
        for (got_id, want) in [
            (main_id, &expected[0]),
            (s0_id, &expected[1]),
            (s1_id, &expected[2]),
            (s2_id, &expected[3]),
        ] {
            let got = by_id.get(&got_id).expect("request finished");
            prop_assert_eq!(
                &got.tokens,
                &want.tokens,
                "chunk={} budget={} diverged from whole-prompt prefill",
                chunk,
                budget
            );
            prop_assert_eq!(got.new_tokens, want.new_tokens);
        }
    }
}

/// The threaded server under a chunked scheduler serves streams bitwise
/// equal to the offline whole-prompt reference (exact KV), on both the
/// reference engine and the fused parallel engine.
#[test]
fn chunked_server_matches_whole_prompt_offline_reference() {
    let model = serving_model();
    let reqs = fleet(14, model.config().vocab, 31, 40);
    let expected = whole_prompt_reference(&model, &reqs);

    for parallel in [false, true] {
        let cfg = ServerConfig {
            max_batch: 6,
            prefill_chunk: 4,
            token_budget: 9,
            ..ServerConfig::default()
        };
        let server = if parallel {
            Server::spawn(model.clone(), RuntimeEngine::parallel(), cfg).unwrap()
        } else {
            // Boxing is avoidable but spawn is generic; duplicate calls.
            Server::spawn(model.clone(), DequantGemm, cfg).unwrap()
        };
        let handle = server.handle();
        let streams: Vec<_> = reqs
            .iter()
            .map(|r| handle.submit(r.clone()).expect("submit"))
            .collect();
        for (s, want) in streams.into_iter().zip(expected.iter()) {
            let got = s.collect().expect("stream completes");
            assert_eq!(
                got.tokens, want.tokens,
                "chunked serving diverged (parallel={parallel})"
            );
        }
        drop(handle);
        let report = server.shutdown();
        assert_eq!(report.served, reqs.len());
        assert_eq!(report.final_kv_rows, 0);
        assert!(
            report.session.prefill_chunks > reqs.len(),
            "chunking must actually split prompts (got {} chunks for {} requests)",
            report.session.prefill_chunks,
            reqs.len()
        );
        assert_eq!(
            report.session.prefill_tokens,
            reqs.iter().map(|r| r.prompt.len()).sum::<usize>(),
            "every prompt token prefilled exactly once"
        );
    }
}
