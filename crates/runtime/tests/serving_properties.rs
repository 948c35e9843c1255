//! Serving conformance and scheduler-fairness properties.
//!
//! **Conformance**: every token stream the threaded [`Server`] produces
//! must be bitwise identical to the offline
//! [`Session::run_to_completion`] output for the same (model, prompt,
//! seed, temperature, KV mode) — across server batch sizes 1/8/32, w2
//! and w4 weights, exact and quantized KV. Thread scheduling, admission
//! timing, and batching composition must never leak into results.
//!
//! **Fairness**: under mixed prompt lengths (1..512) no request
//! starves — the step-count gap between admission and first token is
//! bounded by queue position and the largest in-flight token budget; and
//! under a shed flood, interactive TTFT holds while best-effort is shed
//! (a wall-clock gate, `#[ignore]`d: run it alone, in release, with
//! `--ignored` and one test thread).

use microscopiq_core::{MicroScopiQ, QuantConfig};
use microscopiq_fm::{DequantGemm, KvCacheConfig, KvMode, PackedTinyFm, TinyFm, TinyFmConfig};
use microscopiq_linalg::SeededRng;
use microscopiq_runtime::{
    AdmissionPolicy, GenRequest, GenResult, QosClass, RuntimeEngine, Server, ServerConfig,
    ServerHandle, Session, ShedPolicy, SubmitError,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn packed_model(seed: u64, bits: u32) -> PackedTinyFm {
    let cfg = TinyFmConfig {
        d_model: 32,
        n_heads: 2,
        d_ff: 64,
        n_layers: 2,
        vocab: 48,
    };
    let fm = TinyFm::teacher(cfg, seed);
    let mut rng = SeededRng::new(seed ^ 0xbeef);
    let calib: Vec<Vec<usize>> = (0..3).map(|_| fm.generate(10, 0.9, &mut rng)).collect();
    let q = MicroScopiQ::new(
        QuantConfig::builder(bits)
            .macro_block(32)
            .row_block(32)
            .build()
            .unwrap(),
    );
    PackedTinyFm::quantize_from(&fm, &q, &calib).unwrap()
}

/// A mixed fleet of requests: varied prompt lengths and budgets,
/// including a zero-budget request (finishes with no generated tokens).
fn request_fleet(n: usize, vocab: usize, seed: u64) -> Vec<GenRequest> {
    let mut rng = SeededRng::new(seed);
    (0..n)
        .map(|i| GenRequest {
            prompt: (0..1 + rng.below(6)).map(|_| rng.below(vocab)).collect(),
            max_new_tokens: if i == n / 2 { 0 } else { 1 + rng.below(5) },
            temperature: 0.7 + 0.1 * (i % 3) as f64,
            seed: 1000 + i as u64,
            ..Default::default()
        })
        .collect()
}

/// Offline reference: one `Session` driven to completion on the main
/// thread. By the determinism contract its outputs depend only on each
/// request's own parameters and the KV mode.
fn offline_reference(model: &PackedTinyFm, kv: KvMode, reqs: &[GenRequest]) -> Vec<GenResult> {
    let mut session = Session::with_kv_mode(model.clone(), DequantGemm, 4, kv).unwrap();
    for r in reqs {
        session.submit(r.clone());
    }
    session.run_to_completion()
}

fn assert_server_matches_offline(model: &PackedTinyFm, kv: KvMode, max_batch: usize, label: &str) {
    let reqs = request_fleet(34, model.config().vocab, 9 + max_batch as u64);
    let expected = offline_reference(model, kv, &reqs);

    let server = Server::spawn(
        model.clone(),
        DequantGemm,
        ServerConfig {
            max_batch,
            queue_capacity: 64,
            max_in_flight: 64,
            kv_mode: kv,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handle = server.handle();
    let streams: Vec<_> = reqs
        .iter()
        .map(|r| handle.submit(r.clone()).expect("submit"))
        .collect();
    // Collect in submission order; `collect` also checks (via its debug
    // assertion) that the streamed tokens reconstruct the final suffix.
    let results: Vec<GenResult> = streams
        .into_iter()
        .map(|s| s.collect().expect("stream completes"))
        .collect();
    drop(handle);
    let report = server.shutdown();

    assert_eq!(results.len(), expected.len(), "{label}: completion count");
    for (got, want) in results.iter().zip(expected.iter()) {
        assert_eq!(
            got.tokens, want.tokens,
            "{label}: served stream diverged from offline decode"
        );
        assert_eq!(got.new_tokens, want.new_tokens, "{label}: token count");
    }
    assert_eq!(report.served, reqs.len(), "{label}: all requests served");
    assert_eq!(
        report.final_kv_rows, 0,
        "{label}: finished requests must release their KV rows eagerly"
    );
    assert_eq!(
        report.cancelled + report.expired + report.faulted,
        0,
        "{label}"
    );
}

fn quantized_kv() -> KvMode {
    // A small residual window so cache quantization actually engages at
    // these sequence lengths.
    KvMode::Quantized(KvCacheConfig {
        bits: 4,
        group: 8,
        residual: 8,
    })
}

#[test]
fn server_conformance_w4_exact_kv() {
    let model = packed_model(51, 4);
    for batch in [1, 8, 32] {
        assert_server_matches_offline(&model, KvMode::Exact, batch, &format!("w4/exact/b{batch}"));
    }
}

#[test]
fn server_conformance_w4_quantized_kv() {
    let model = packed_model(51, 4);
    for batch in [1, 8, 32] {
        assert_server_matches_offline(&model, quantized_kv(), batch, &format!("w4/qkv/b{batch}"));
    }
}

#[test]
fn server_conformance_w2_exact_kv() {
    let model = packed_model(52, 2);
    for batch in [1, 8, 32] {
        assert_server_matches_offline(&model, KvMode::Exact, batch, &format!("w2/exact/b{batch}"));
    }
}

#[test]
fn server_conformance_w2_quantized_kv() {
    let model = packed_model(52, 2);
    for batch in [1, 8, 32] {
        assert_server_matches_offline(&model, quantized_kv(), batch, &format!("w2/qkv/b{batch}"));
    }
}

#[test]
fn server_conformance_holds_on_the_fused_parallel_engine() {
    // Engine independence: the work-stealing fused engine serves the
    // same streams as the dequantize-then-matmul reference.
    let model = packed_model(51, 4);
    let reqs = request_fleet(12, model.config().vocab, 77);
    let expected = offline_reference(&model, KvMode::Exact, &reqs);
    let server = Server::spawn(
        model,
        RuntimeEngine::parallel(),
        ServerConfig {
            max_batch: 8,
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
        assert_eq!(s.collect().unwrap().tokens, want.tokens);
    }
}

/// Fairness model for the tests below: a tiny 1-layer model so the
/// 512-token prefills stay cheap, shared across proptest cases.
fn fairness_model() -> &'static PackedTinyFm {
    static MODEL: OnceLock<PackedTinyFm> = OnceLock::new();
    MODEL.get_or_init(|| {
        let cfg = TinyFmConfig {
            d_model: 16,
            n_heads: 2,
            d_ff: 32,
            n_layers: 1,
            vocab: 32,
        };
        let fm = TinyFm::teacher(cfg, 7);
        let mut rng = SeededRng::new(70);
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

/// Timing gate: multi-tenant QoS fairness under shedding. The same paced
/// interactive workload runs alone, then while a batch and a best-effort
/// flooder submit back to back against a shedding server. Read from the
/// server's own per-class histograms and shed counters (the series
/// `/metrics` exposes): interactive p99 TTFT holds within
/// `max(10 × alone, alone + 50 ms)`, best-effort is shed (the overload
/// was real), and interactive never is. Without shedding the flood pins
/// the 128-deep queue and interactive TTFT grows by orders of magnitude.
#[test]
#[ignore = "timing gate: run alone on the chaos CI leg"]
fn interactive_ttft_holds_while_a_flood_is_shed() {
    let cfg = ServerConfig {
        max_batch: 8,
        token_budget: 16,
        queue_capacity: 128,
        max_in_flight: 32,
        admission: AdmissionPolicy::Reject,
        shed: Some(ShedPolicy {
            interactive_ttft_p99: Duration::from_millis(50),
            min_samples: 32,
            queue_high: 16,
        }),
        ..ServerConfig::default()
    };
    let model = fairness_model();
    let reqs = request_fleet(64, model.config().vocab, 192);
    // 64 interactive arrivals at 192/s; returns their p99 TTFT in ms.
    // Interactive is never shed, but a flood burst can fill the queue
    // under `Reject`, so `QueueFull` retries — the server's TTFT clock
    // starts at the accepted submission, the latency the policy governs.
    let interactive_p99_ms = |handle: &ServerHandle| {
        let t0 = Instant::now();
        let streams: Vec<_> = reqs
            .iter()
            .enumerate()
            .map(|(i, req)| {
                let due = Duration::from_secs_f64(i as f64 / 192.0);
                std::thread::sleep(due.saturating_sub(t0.elapsed()));
                let mut retries = 0u32;
                loop {
                    match handle.submit(req.clone()) {
                        Ok(stream) => break stream,
                        Err(SubmitError::QueueFull) if retries < 50_000 => {
                            retries += 1;
                            std::thread::sleep(Duration::from_micros(100));
                        }
                        Err(e) => panic!("interactive submission refused: {e:?}"),
                    }
                }
            })
            .collect();
        for s in streams {
            s.collect().expect("every interactive request completes");
        }
        handle
            .metrics_snapshot()
            .histogram_with("microscopiq_ttft_us", &[("class", "interactive")])
            .expect("per-class interactive ttft histogram")
            .percentile(99.0)
            / 1e3
    };

    let server = Server::spawn(model.clone(), DequantGemm, cfg).unwrap();
    let alone = interactive_p99_ms(&server.handle());
    server.shutdown();

    let server = Server::spawn(model.clone(), DequantGemm, cfg).unwrap();
    let handle = server.handle();
    let stop = AtomicBool::new(false);
    let flooded = std::thread::scope(|s| {
        for (class, seed) in [(QosClass::Batch, 50_000), (QosClass::BestEffort, 60_000)] {
            let (handle, stop) = (handle.clone(), &stop);
            // A flood tenant holds its streams open and drains them once
            // the interactive phase is over.
            s.spawn(move || {
                let mut streams = Vec::new();
                for i in 0.. {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let req = GenRequest {
                        prompt: vec![1, 2, 3],
                        max_new_tokens: 4,
                        temperature: 0.8,
                        seed: seed + i,
                        class,
                        ..Default::default()
                    };
                    match handle.submit(req) {
                        Ok(stream) => streams.push(stream),
                        Err(SubmitError::Shed | SubmitError::QueueFull) => {
                            std::thread::sleep(Duration::from_micros(100))
                        }
                        Err(SubmitError::ServerClosed) => break,
                    }
                }
                for mut stream in streams {
                    while stream.next_event().is_some() {}
                }
            });
        }
        let p99 = interactive_p99_ms(&handle);
        stop.store(true, Ordering::Relaxed);
        p99
    });
    let snap = handle.metrics_snapshot();
    let shed = |class| {
        snap.counter_with("microscopiq_requests_shed_total", &[("class", class)])
            .unwrap_or(0)
    };
    let (be_shed, int_shed) = (shed("best_effort"), shed("interactive"));
    drop(handle);
    server.shutdown();

    let bound = (alone * 10.0).max(alone + 50.0);
    println!(
        "qos fairness: interactive ttft p99 alone {alone:.3} ms, flooded {flooded:.3} ms \
         (bound {bound:.3} ms); sheds best_effort={be_shed} interactive={int_shed}"
    );
    assert!(
        flooded <= bound,
        "interactive p99 TTFT must hold under a batch/best-effort flood \
         (alone {alone:.3} ms, flooded {flooded:.3} ms, bound {bound:.3} ms)"
    );
    assert!(
        be_shed > 0,
        "the flood must overload the server into shedding best-effort"
    );
    assert_eq!(int_shed, 0, "interactive traffic must never be shed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// No starvation under mixed prompt lengths: a request admitted with
    /// `ahead` requests in front of it gets its first token within
    /// `Bmax × (ahead/max_batch + 1)` steps of admission, where `Bmax`
    /// is the largest token budget in play — prompts of length 1..512
    /// must not change scheduling (prefill is one step regardless).
    #[test]
    fn no_request_starves_under_mixed_prompt_lengths(
        seed in 0u64..1_000,
        max_batch in 1usize..9,
        n_reqs in 2usize..13,
    ) {
        const BMAX: usize = 4;
        let model = fairness_model();
        let vocab = model.config().vocab;
        let mut rng = SeededRng::new(seed);
        let mut session = Session::new(model.clone(), DequantGemm, max_batch);

        // (id, ahead-of-it-at-admission, steps-at-admission)
        let mut admitted = Vec::new();
        let submit = |session: &mut Session<DequantGemm>,
                          admitted: &mut Vec<(usize, usize, usize)>,
                          rng: &mut SeededRng| {
            // Mostly short prompts, occasionally near the 512 cap.
            let len = if rng.below(4) == 0 {
                1 + rng.below(512)
            } else {
                1 + rng.below(32)
            };
            let ahead = session.pending();
            let at_step = session.stats().steps;
            let id = session.submit(GenRequest {
                prompt: (0..len).map(|_| rng.below(vocab)).collect(),
                max_new_tokens: 1 + rng.below(BMAX),
                temperature: 0.8,
                seed: rng.below(1 << 30) as u64,
                ..Default::default()
            });
            admitted.push((id, ahead, at_step));
        };

        // Half the fleet up front, the rest mid-flight (continuous
        // admission must not let either group starve).
        let upfront = n_reqs.div_ceil(2);
        for _ in 0..upfront {
            submit(&mut session, &mut admitted, &mut rng);
        }
        let mut first_token_step = vec![None; n_reqs];
        let mut finished = 0usize;
        let mut late = n_reqs - upfront;
        while finished < n_reqs {
            let report = session.step_report();
            let now = session.stats().steps;
            for (id, _) in report.emitted {
                if first_token_step[id].is_none() {
                    first_token_step[id] = Some(now);
                }
            }
            for res in report.finished {
                // Zero-budget requests never emit; treat completion as
                // their first service.
                first_token_step[res.id].get_or_insert(now);
                finished += 1;
            }
            if late > 0 {
                submit(&mut session, &mut admitted, &mut rng);
                late -= 1;
            }
        }

        for &(id, ahead, at_step) in &admitted {
            let first = first_token_step[id].expect("every request served");
            let gap = first - at_step;
            let bound = BMAX * (ahead / max_batch + 1);
            prop_assert!(
                gap <= bound,
                "request {id} starved: ahead={ahead} max_batch={max_batch} \
                 gap={gap} > bound={bound}"
            );
        }
    }
}
