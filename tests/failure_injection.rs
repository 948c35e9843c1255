//! Failure-injection integration tests: malformed inputs, corrupted
//! metadata, degenerate tensors, and serving-time faults (dropped
//! streams, expired deadlines, panicking workers) must fail loudly (or
//! degrade gracefully), never silently corrupt results or poison
//! unrelated requests.

use microscopiq::core::config::QuantConfig;
use microscopiq::core::packed::PackedLayer;
use microscopiq::core::solver::solve;
use microscopiq::core::traits::{LayerTensors, WeightQuantizer};
use microscopiq::core::{MicroScopiQ, QuantError};
use microscopiq::fm::{DequantGemm, PackedTinyFm, TinyFm, TinyFmConfig};
use microscopiq::linalg::{Matrix, SeededRng};
use microscopiq::runtime::{
    AdmissionPolicy, Deadline, GenRequest, RequestOptions, ServeError, Server, ServerConfig,
    Session, StreamEvent, SubmitError,
};
use std::time::Duration;

fn clean_layer(seed: u64) -> LayerTensors {
    let mut rng = SeededRng::new(seed);
    let w = Matrix::from_fn(8, 32, |_, _| rng.normal(0.0, 0.02));
    let x = Matrix::from_fn(32, 40, |_, _| rng.normal(0.0, 1.0));
    LayerTensors::new(w, x).unwrap()
}

#[test]
fn nan_weights_are_rejected_at_construction() {
    let mut rng = SeededRng::new(1);
    let mut w = Matrix::from_fn(4, 16, |_, _| rng.normal(0.0, 0.02));
    w[(2, 3)] = f64::NAN;
    let x = Matrix::from_fn(16, 8, |_, _| rng.normal(0.0, 1.0));
    assert!(matches!(
        LayerTensors::new(w, x),
        Err(QuantError::NonFiniteInput { tensor: "weights" })
    ));
}

#[test]
fn infinite_calibration_is_rejected() {
    let mut rng = SeededRng::new(2);
    let w = Matrix::from_fn(4, 16, |_, _| rng.normal(0.0, 0.02));
    let mut x = Matrix::from_fn(16, 8, |_, _| rng.normal(0.0, 1.0));
    x[(0, 0)] = f64::INFINITY;
    assert!(LayerTensors::new(w, x).is_err());
}

#[test]
fn every_truncation_point_is_detected() {
    let layer = clean_layer(3);
    let cfg = QuantConfig::w2()
        .macro_block(16)
        .row_block(16)
        .build()
        .unwrap();
    let packed = solve(&layer, &cfg).unwrap().packed.unwrap();
    let bytes = packed.to_bytes();
    for cut in 0..bytes.len() {
        let r = PackedLayer::from_bytes(&bytes[..cut]);
        assert!(r.is_err(), "truncation at {cut} went undetected");
    }
}

#[test]
fn random_byte_corruption_never_panics() {
    let layer = clean_layer(4);
    let cfg = QuantConfig::w2()
        .macro_block(16)
        .row_block(16)
        .build()
        .unwrap();
    let packed = solve(&layer, &cfg).unwrap().packed.unwrap();
    let bytes = packed.to_bytes().to_vec();
    let mut rng = SeededRng::new(5);
    for _ in 0..200 {
        let mut corrupted = bytes.clone();
        let pos = rng.below(corrupted.len());
        corrupted[pos] ^= 1 << rng.below(8);
        // Must either fail cleanly or decode to *something* — never panic.
        if let Ok(layer) = PackedLayer::from_bytes(&corrupted) {
            let _ = layer.effective_bit_width();
        }
    }
}

#[test]
fn zero_calibration_data_still_quantizes() {
    // All-zero calibration makes the Hessian pure damping — quantization
    // must still succeed (weights remain quantizable without curvature).
    let mut rng = SeededRng::new(6);
    let w = Matrix::from_fn(8, 32, |_, _| rng.normal(0.0, 0.02));
    let x = Matrix::zeros(32, 16);
    let layer = LayerTensors::new(w, x).unwrap();
    let out = MicroScopiQ::new(
        QuantConfig::w2()
            .macro_block(16)
            .row_block(16)
            .build()
            .unwrap(),
    )
    .quantize_layer(&layer);
    assert!(out.is_ok(), "degenerate calibration must not fail: {out:?}");
}

#[test]
fn constant_weight_rows_are_handled() {
    let mut rng = SeededRng::new(7);
    let mut w = Matrix::from_fn(8, 32, |_, _| 0.01);
    w[(0, 0)] = 0.011; // barely non-constant
    let x = Matrix::from_fn(32, 40, |_, _| rng.normal(0.0, 1.0));
    let layer = LayerTensors::new(w, x).unwrap();
    let out = MicroScopiQ::new(
        QuantConfig::w2()
            .macro_block(16)
            .row_block(16)
            .build()
            .unwrap(),
    )
    .quantize_layer(&layer)
    .unwrap();
    assert!(out.dequantized.as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn extreme_outlier_magnitudes_stay_finite() {
    let mut rng = SeededRng::new(8);
    let mut w = Matrix::from_fn(8, 32, |_, _| rng.normal(0.0, 0.02));
    w[(1, 1)] = 1e6;
    w[(2, 2)] = -1e6;
    let x = Matrix::from_fn(32, 40, |_, _| rng.normal(0.0, 1.0));
    let layer = LayerTensors::new(w, x).unwrap();
    let out = MicroScopiQ::new(
        QuantConfig::w2()
            .macro_block(16)
            .row_block(16)
            .build()
            .unwrap(),
    )
    .quantize_layer(&layer)
    .unwrap();
    assert!(out.dequantized.as_slice().iter().all(|v| v.is_finite()));
    // The giant outliers must be represented with bounded relative error.
    let rel = (out.dequantized[(1, 1)] - 1e6).abs() / 1e6;
    assert!(rel < 0.5, "extreme outlier error {rel}");
}

#[test]
fn invalid_configs_cannot_be_constructed() {
    assert!(QuantConfig::builder(3).build().is_err());
    assert!(QuantConfig::w2().micro_block(7).build().is_err());
    assert!(QuantConfig::w2().sigma_threshold(-1.0).build().is_err());
    assert!(QuantConfig::w2().clip_ratio(0.0).build().is_err());
}

// ---- serving failure modes -------------------------------------------

fn serving_model(seed: u64) -> PackedTinyFm {
    let cfg = TinyFmConfig {
        d_model: 32,
        n_heads: 2,
        d_ff: 64,
        n_layers: 2,
        vocab: 48,
    };
    let fm = TinyFm::teacher(cfg, seed);
    let mut rng = SeededRng::new(seed ^ 0xfa11);
    let calib: Vec<Vec<usize>> = (0..3).map(|_| fm.generate(8, 0.9, &mut rng)).collect();
    let q = MicroScopiQ::new(
        QuantConfig::w4()
            .macro_block(32)
            .row_block(32)
            .build()
            .unwrap(),
    );
    PackedTinyFm::quantize_from(&fm, &q, &calib).unwrap()
}

/// What the offline session produces for one request, run alone.
fn offline_tokens(model: &PackedTinyFm, req: &GenRequest) -> Vec<usize> {
    let mut session = Session::new(model.clone(), DequantGemm, 1);
    session.submit(req.clone());
    session.run_to_completion().remove(0).tokens
}

fn bystander_request() -> GenRequest {
    GenRequest {
        prompt: vec![1, 2, 3],
        max_new_tokens: 8,
        temperature: 0.8,
        seed: 11,
        ..Default::default()
    }
}

#[test]
fn dropped_stream_frees_slot_and_leaves_other_streams_unaffected() {
    let model = serving_model(60);
    let expected = offline_tokens(&model, &bystander_request());
    let server = Server::spawn(
        model,
        DequantGemm,
        ServerConfig {
            max_batch: 4,
            // Pace the worker so the client-side drop lands well before
            // the victim's 200-token budget could run out.
            pace: Duration::from_millis(2),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handle = server.handle();
    let mut victim = handle
        .submit(GenRequest {
            prompt: vec![5, 6],
            max_new_tokens: 200,
            temperature: 0.8,
            seed: 12,
            ..Default::default()
        })
        .unwrap();
    let bystander = handle.submit(bystander_request()).unwrap();
    // Churn on the same server: an expiry beside the hang-up.
    let doomed = handle
        .submit_with(
            GenRequest {
                prompt: vec![7, 8, 9],
                max_new_tokens: 50,
                temperature: 0.8,
                seed: 16,
                ..Default::default()
            },
            RequestOptions {
                deadline: Some(Deadline::Steps(0)),
                ..RequestOptions::default()
            },
        )
        .unwrap();
    // Wait for generation to actually start, then hang up mid-stream.
    assert!(
        matches!(victim.next_event(), Some(StreamEvent::Token(_))),
        "victim must be mid-generation before the drop"
    );
    drop(victim);
    let result = bystander.collect().expect("bystander completes");
    assert_eq!(
        result.tokens, expected,
        "a dropped neighbour must not perturb another stream's output"
    );
    assert_eq!(doomed.collect(), Err(ServeError::DeadlineExceeded));
    drop(handle);
    let report = server.shutdown();
    assert_eq!(report.cancelled, 1, "victim retired via cancellation");
    assert_eq!(report.expired, 1, "the doomed request expired");
    assert_eq!(report.served, 1);
    assert_eq!(
        report.final_kv_rows, 0,
        "the dropped request's KV cache must be reclaimed"
    );
}

#[test]
fn deadline_expires_mid_prefill_without_consuming_compute() {
    let model = serving_model(61);
    let bystander_req = bystander_request();
    let expected = offline_tokens(&model, &bystander_req);
    let server = Server::spawn(model, DequantGemm, ServerConfig::default()).unwrap();
    let handle = server.handle();
    let bystander = handle.submit(bystander_req.clone()).unwrap();
    // A zero-step deadline expires at the first sweep: the request is
    // retired before its prefill ever rides a decode step.
    let mut doomed = handle
        .submit_with(
            GenRequest {
                prompt: (0..40).map(|i| i % 48).collect(),
                max_new_tokens: 50,
                temperature: 0.8,
                seed: 13,
                ..Default::default()
            },
            RequestOptions {
                deadline: Some(Deadline::Steps(0)),
                ..RequestOptions::default()
            },
        )
        .unwrap();
    assert_eq!(
        doomed.next_event(),
        Some(StreamEvent::Error(ServeError::DeadlineExceeded)),
        "the only event on an expired stream is the deadline error"
    );
    assert_eq!(doomed.next_event(), None);
    let result = bystander.collect().expect("bystander completes");
    assert_eq!(result.tokens, expected);
    drop((doomed, handle));
    let report = server.shutdown();
    assert_eq!(report.expired, 1);
    assert_eq!(report.served, 1);
    assert_eq!(
        report.session.prefill_tokens,
        bystander_req.prompt.len(),
        "the expired request's 40-token prompt must never be prefilled"
    );
    assert_eq!(report.final_kv_rows, 0);
}

#[test]
fn deadline_expires_mid_chunked_prefill_and_reclaims_partial_kv() {
    let model = serving_model(64);
    let bystander_req = bystander_request();
    let expected = offline_tokens(&model, &bystander_req);
    let server = Server::spawn(
        model,
        DequantGemm,
        ServerConfig {
            max_batch: 4,
            // 40-token prompt at chunk 8 needs 5 steps; a 2-step deadline
            // expires while the request is parked mid-prefill with a
            // partial KV cache.
            prefill_chunk: 8,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handle = server.handle();
    let bystander = handle.submit(bystander_req.clone()).unwrap();
    let mut doomed = handle
        .submit_with(
            GenRequest {
                prompt: (0..40).map(|i| i % 48).collect(),
                max_new_tokens: 50,
                temperature: 0.8,
                seed: 15,
                ..Default::default()
            },
            RequestOptions {
                deadline: Some(Deadline::Steps(2)),
                ..RequestOptions::default()
            },
        )
        .unwrap();
    assert_eq!(
        doomed.next_event(),
        Some(StreamEvent::Error(ServeError::DeadlineExceeded)),
        "a request parked mid-prefill expires without ever emitting a token"
    );
    let result = bystander.collect().expect("bystander completes");
    assert_eq!(result.tokens, expected);
    drop((doomed, handle));
    let report = server.shutdown();
    assert_eq!(report.expired, 1);
    assert_eq!(report.served, 1);
    assert!(
        report.session.prefill_tokens < 40 + bystander_req.prompt.len(),
        "the doomed prompt must never be fully prefilled (got {} prefill tokens)",
        report.session.prefill_tokens
    );
    assert_eq!(
        report.final_kv_rows, 0,
        "the partial prefill's KV rows must be reclaimed"
    );
}

#[test]
fn worker_panic_faults_only_the_affected_stream() {
    let model = serving_model(62);
    let bystander_req = bystander_request();
    let expected = offline_tokens(&model, &bystander_req);
    let server = Server::spawn(model, DequantGemm, ServerConfig::default()).unwrap();
    let handle = server.handle();
    let bystander = handle.submit(bystander_req).unwrap();
    // Prompt validation runs on the worker thread: an out-of-vocabulary
    // prompt panics there, and the panic must surface on this stream
    // alone.
    let poisoned = handle
        .submit(GenRequest {
            prompt: vec![1_000_000],
            max_new_tokens: 4,
            temperature: 0.8,
            seed: 14,
            ..Default::default()
        })
        .unwrap();
    match poisoned.collect() {
        Err(ServeError::WorkerPanicked(msg)) => {
            assert!(
                msg.contains("vocabulary"),
                "panic message should name the cause, got: {msg}"
            );
        }
        other => panic!("poisoned stream must fault with WorkerPanicked, got {other:?}"),
    }
    let result = bystander.collect().expect("bystander completes");
    assert_eq!(
        result.tokens, expected,
        "a neighbour's panic must not perturb this stream's output"
    );
    drop(handle);
    let report = server.shutdown();
    assert_eq!(report.faulted, 1);
    assert_eq!(report.served, 1);
    assert_eq!(report.final_kv_rows, 0);
}

#[test]
fn full_admission_queue_rejects_instead_of_blocking() {
    let model = serving_model(63);
    let server = Server::spawn(
        model,
        DequantGemm,
        ServerConfig {
            max_batch: 1,
            queue_capacity: 1,
            max_in_flight: 1,
            admission: AdmissionPolicy::Reject,
            // Slow steps keep the first request in flight while we probe
            // the queue.
            pace: Duration::from_millis(5),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handle = server.handle();
    let req = |seed| GenRequest {
        prompt: vec![1, 2],
        max_new_tokens: 100,
        temperature: 0.8,
        seed,
        ..Default::default()
    };
    let first = handle.submit(req(1)).expect("first request admitted");
    // One slot in flight, one queue slot: saturating both must produce
    // QueueFull promptly rather than blocking this thread.
    let mut rejected = false;
    let mut parked = Vec::new();
    for seed in 2..20 {
        match handle.submit(req(seed)) {
            Ok(stream) => parked.push(stream),
            Err(SubmitError::QueueFull) => {
                rejected = true;
                break;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(rejected, "bounded queue must reject under overload");
    drop((first, parked, handle));
    let report = server.shutdown();
    assert_eq!(report.session.tokens_generated, report.session.steps);
}

// ---- wire-level failure injection ----------------------------------

/// A mid-stream TCP disconnect must cancel exactly the victim request:
/// the server maps the failed SSE write onto the drop-to-cancel path,
/// the bystander's stream stays bitwise identical to offline, and the
/// victim's KV cache drains to zero.
#[test]
fn tcp_disconnect_mid_stream_cancels_only_that_request() {
    use microscopiq::runtime::net::{HttpClient, HttpConfig, HttpServer, Json};
    use microscopiq::runtime::FleetConfig;

    let model = serving_model(70);
    let expected = offline_tokens(&model, &bystander_request());
    let server = HttpServer::bind(
        "127.0.0.1:0",
        model,
        |_| DequantGemm,
        HttpConfig {
            fleet: FleetConfig {
                workers: 1,
                server: ServerConfig {
                    max_batch: 4,
                    // Pace the worker so the hang-up lands well before
                    // the victim's token budget could run out.
                    pace: Duration::from_millis(2),
                    ..ServerConfig::default()
                },
                ..FleetConfig::default()
            },
            ..HttpConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    let mut victim_client = HttpClient::connect(addr).expect("connect victim");
    let mut victim = victim_client
        .generate(r#"{"prompt":[5,6],"max_new_tokens":2000,"temperature":0.8,"seed":12}"#)
        .expect("victim stream");
    assert_eq!(victim.status, 200);

    let bystander = std::thread::spawn(move || {
        let mut client = HttpClient::connect(addr).expect("connect bystander");
        let stream = client
            .generate(r#"{"prompt":[1,2,3],"max_new_tokens":8,"temperature":0.8,"seed":11}"#)
            .expect("bystander stream");
        let events = stream.collect_events().expect("bystander events");
        let done = events.last().expect("done event");
        done.get("tokens")
            .and_then(Json::as_arr)
            .expect("tokens")
            .iter()
            .map(|t| t.as_usize().unwrap())
            .collect::<Vec<usize>>()
    });

    // The victim must be mid-generation before the hang-up.
    for _ in 0..4 {
        let ev = victim.next_event().expect("victim event").expect("token");
        assert!(
            ev.get("token").is_some(),
            "expected a token event, got {ev:?}"
        );
    }
    drop(victim);
    drop(victim_client); // abrupt TCP close mid-stream

    assert_eq!(
        bystander.join().expect("bystander thread"),
        expected,
        "a dropped neighbour must not perturb another stream's output"
    );

    // The cancelled victim's KV must drain to zero.
    let fleet = server.fleet();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while fleet.worker(0).kv_rows() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "victim KV never reclaimed: {} rows live",
            fleet.worker(0).kv_rows()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(fleet);

    let report = server.shutdown();
    assert_eq!(report.lost(), 0);
    let worker = report.per_worker[0].as_ref().expect("worker report");
    assert_eq!(worker.cancelled, 1, "victim retired via cancellation");
    assert_eq!(worker.served, 1, "bystander finished normally");
    assert_eq!(worker.final_kv_rows, 0);
}

/// A panicking worker must drop out of the fleet's routing rotation
/// while the surviving workers keep serving bitwise-correct streams;
/// shutdown reports the loss instead of propagating the panic.
#[test]
fn fleet_worker_panic_is_removed_from_rotation() {
    use microscopiq::runtime::net::{Fleet, FleetConfig};

    let model = serving_model(71);
    let reqs: Vec<GenRequest> = (0..6)
        .map(|i| GenRequest {
            prompt: vec![1 + i, 2],
            max_new_tokens: 4,
            temperature: 0.8,
            seed: 100 + i as u64,
            ..Default::default()
        })
        .collect();
    let expected: Vec<Vec<usize>> = reqs.iter().map(|r| offline_tokens(&model, r)).collect();

    let fleet = Fleet::spawn(
        model,
        |_| DequantGemm,
        FleetConfig {
            workers: 2,
            server: ServerConfig::default(),
            ..FleetConfig::default()
        },
    )
    .expect("spawn fleet");
    let handle = fleet.handle();
    assert_eq!(handle.alive_workers(), 2);

    handle.worker(0).inject_worker_panic();
    // Wait for the worker thread to actually die: direct submissions
    // start failing with ServerClosed. A probe that races in before the
    // crash just dies with the worker (its stream is dropped here).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match handle.worker(0).submit(reqs[0].clone()) {
            Err(SubmitError::ServerClosed) => break,
            Ok(_racing_probe) => {}
            Err(e) => panic!("unexpected probe error: {e}"),
        }
        assert!(
            std::time::Instant::now() < deadline,
            "worker 0 never died after panic injection"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // The fleet keeps serving through the survivor, bitwise-correct.
    for (req, want) in reqs.iter().zip(&expected) {
        let (worker, stream) = handle.submit(req.clone()).expect("fleet still serves");
        assert_eq!(worker, 1, "dead worker must leave the rotation");
        let got = stream.collect().expect("stream completes");
        assert_eq!(&got.tokens, want, "survivor output diverged");
    }
    assert_eq!(handle.alive_workers(), 1);

    drop(handle);
    let report = fleet.shutdown();
    assert_eq!(report.lost(), 1, "exactly one worker lost");
    assert!(report.per_worker[0].is_none());
    assert!(
        report.panics[0].contains("injected worker panic"),
        "panic message propagated: {:?}",
        report.panics[0]
    );
    let survivor = report.per_worker[1].as_ref().expect("survivor report");
    assert_eq!(survivor.served, 6);
}
