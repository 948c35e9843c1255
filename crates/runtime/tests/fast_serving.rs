//! The f32-tolerant serving conformance tier: what qualifies
//! [`RuntimeEngine::fast`] (the `f32` kernels of `Tier::Fast`) to sit
//! behind [`Server::spawn`].
//!
//! The default serving tier pins **bitwise** parity against the offline
//! reference; an `f32` kernel can never meet that bar. This tier pins the
//! two properties serving actually needs:
//!
//! 1. **Bounded logit deltas** — per-token logits from the fast engine
//!    stay within [`LOGIT_TOL`] of the bit-exact reference, through
//!    prefill and resumed decode steps alike.
//! 2. **Argmax-token parity** — over the pinned fixtures, the top token
//!    at every position is identical, so near-greedy serving through the
//!    fast tier streams the same tokens as the exact tier.
//!
//! Plus a pinned-fixture check that chunked prefill reproduces
//! whole-prompt *tokens* within the fast tier. Note the tier does NOT
//! promise bitwise logit stability across chunk sizes: the lane kernel's
//! m = 1 GEMV entry tree-reduces its f32 accumulation, which rounds
//! differently from the sequential per-column order its m ≥ 2 GEMM uses,
//! so a step's batch composition (did this token ride alone?) can move
//! logit bits within the pinned tolerance. The exact-KV *bitwise*
//! chunking guarantee belongs to the bit-exact engine tiers
//! (`tests/chunked_prefill.rs`); here the contract is deltas + argmax.

use microscopiq_core::{MicroScopiQ, QuantConfig};
use microscopiq_fm::{DequantGemm, KvMode, PackedTinyFm, TinyFm, TinyFmConfig};
use microscopiq_linalg::SeededRng;
use microscopiq_runtime::{
    GenRequest, RuntimeEngine, SchedulerConfig, Server, ServerConfig, Session,
};

/// Pinned per-logit absolute tolerance for the fast serving tier.
/// Observed deltas on these fixtures are ~5e-6 (f32 accumulation inside
/// the lane kernel only — attention/norm math stays f64); the pin leaves
/// two orders of magnitude of headroom while still catching any
/// precision regression in the dispatch or kernel layers.
const LOGIT_TOL: f64 = 1e-3;

fn fixture_model(seed: u64) -> PackedTinyFm {
    let cfg = TinyFmConfig {
        d_model: 32,
        n_heads: 2,
        d_ff: 64,
        n_layers: 2,
        vocab: 48,
    };
    let fm = TinyFm::teacher(cfg, seed);
    let mut rng = SeededRng::new(seed ^ 0xfa57);
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

fn argmax(col: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in col.iter().enumerate() {
        if v > col[best] {
            best = i;
        }
    }
    best
}

/// Pinned fixture prompts (deterministic, in-vocabulary).
fn fixture_prompts(vocab: usize) -> Vec<Vec<usize>> {
    let mut rng = SeededRng::new(4242);
    (0..4)
        .map(|i| (0..6 + 9 * i).map(|_| rng.below(vocab)).collect())
        .collect()
}

#[test]
fn fast_engine_logits_bounded_with_argmax_parity_through_prefill_and_decode() {
    let model = fixture_model(91);
    let exact = RuntimeEngine::scalar();
    let fast = RuntimeEngine::fast();
    assert_eq!(fast.config().tier, microscopiq_runtime::Tier::Fast);

    let mut max_delta = 0.0_f64;
    for prompt in fixture_prompts(model.config().vocab) {
        let (mut state_e, logits_e) = model.prefill(&prompt, KvMode::Exact, &exact).unwrap();
        let (mut state_f, logits_f) = model.prefill(&prompt, KvMode::Exact, &fast).unwrap();
        for t in 0..prompt.len() {
            let col_e = logits_e.col(t);
            let col_f = logits_f.col(t);
            for (a, b) in col_e.iter().zip(col_f.iter()) {
                let d = (a - b).abs();
                max_delta = max_delta.max(d);
                assert!(
                    d <= LOGIT_TOL,
                    "prefill logit delta {d:.2e} exceeds serving tolerance at t={t}"
                );
            }
            assert_eq!(
                argmax(&col_e),
                argmax(&col_f),
                "prefill argmax diverged at position {t}"
            );
        }
        // Resumed decode: teacher-force the exact tier's greedy token
        // into both states so positions stay aligned.
        let mut tok = argmax(&logits_e.col(prompt.len() - 1));
        for step in 0..8 {
            let col_e = model.decode_step(&mut state_e, tok, &exact);
            let col_f = model.decode_step(&mut state_f, tok, &fast);
            for (a, b) in col_e.iter().zip(col_f.iter()) {
                let d = (a - b).abs();
                max_delta = max_delta.max(d);
                assert!(
                    d <= LOGIT_TOL,
                    "decode logit delta {d:.2e} exceeds serving tolerance at step {step}"
                );
            }
            assert_eq!(
                argmax(&col_e),
                argmax(&col_f),
                "decode argmax diverged at step {step}"
            );
            tok = argmax(&col_e);
        }
    }
    assert!(
        max_delta > 0.0,
        "the fast tier must actually run the f32 kernel (zero delta means \
         dispatch fell back to the oracle everywhere)"
    );
}

/// Near-greedy serving through the fast tier streams exactly the tokens
/// the bit-exact reference serves: at temperature 1e-6 the sampler is an
/// argmax, so this is argmax-token parity through the whole threaded
/// serving path (admission, batching, chunked prefill, streaming).
#[test]
fn fast_server_streams_match_exact_reference_at_near_greedy_temperature() {
    let model = fixture_model(92);
    let vocab = model.config().vocab;
    let mut rng = SeededRng::new(888);
    let reqs: Vec<GenRequest> = (0..10)
        .map(|i| GenRequest {
            prompt: (0..2 + rng.below(28)).map(|_| rng.below(vocab)).collect(),
            max_new_tokens: 6,
            temperature: 1e-6,
            seed: 600 + i as u64,
            ..Default::default()
        })
        .collect();
    let mut offline = Session::new(model.clone(), DequantGemm, 4);
    for r in &reqs {
        offline.submit(r.clone());
    }
    let expected = offline.run_to_completion();

    let server = Server::spawn(
        model,
        RuntimeEngine::fast(),
        ServerConfig {
            max_batch: 4,
            prefill_chunk: 8,
            token_budget: 16,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handle = server.handle();
    let streams: Vec<_> = reqs
        .iter()
        .map(|r| handle.submit(r.clone()).unwrap())
        .collect();
    for (s, want) in streams.into_iter().zip(expected.iter()) {
        let got = s.collect().expect("stream completes");
        assert_eq!(
            got.tokens, want.tokens,
            "fast tier diverged from the exact reference at near-greedy temperature"
        );
    }
    drop(handle);
    let report = server.shutdown();
    assert_eq!(report.served, reqs.len());
    assert_eq!(report.final_kv_rows, 0);
}

/// Chunked fast-tier serving reproduces whole-prompt serving's *tokens*
/// on this pinned fleet. Token-level, not bitwise: when chunking changes
/// whether a step carries one segment or several, m = 1 calls route
/// through the lane GEMV (tree-reduced f32 accumulation) instead of the
/// GEMM path, moving logit bits within the pinned tolerance — sampled
/// tokens only flip if an RNG draw lands inside that delta, which the
/// deterministic fixtures here pin to never happening. A bitwise
/// guarantee needs a bit-exact engine (see `chunked_prefill.rs`).
#[test]
fn fast_tier_chunked_serving_reproduces_whole_prompt_tokens_on_pinned_fleet() {
    let model = fixture_model(93);
    let vocab = model.config().vocab;
    let mut rng = SeededRng::new(777);
    let reqs: Vec<GenRequest> = (0..6)
        .map(|i| GenRequest {
            prompt: (0..3 + rng.below(30)).map(|_| rng.below(vocab)).collect(),
            max_new_tokens: 4,
            temperature: 0.8,
            seed: 700 + i as u64,
            ..Default::default()
        })
        .collect();
    let mut whole = Session::new(model.clone(), RuntimeEngine::fast(), 3);
    for r in &reqs {
        whole.submit(r.clone());
    }
    let expected = whole.run_to_completion();

    for chunk in [1usize, 3, 8] {
        let cfg = SchedulerConfig::new(3).prefill_chunk(chunk).token_budget(7);
        let mut session =
            Session::with_config(model.clone(), RuntimeEngine::fast(), cfg, KvMode::Exact).unwrap();
        for r in &reqs {
            session.submit(r.clone());
        }
        assert_eq!(
            session.run_to_completion(),
            expected,
            "chunk={chunk} changed fast-tier outputs"
        );
    }
}
