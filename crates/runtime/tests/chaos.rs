//! Seeded chaos suite for the self-healing fleet: scripted worker kills
//! (mid-prefill, mid-decode, under flood), KV memory-pressure squeezes,
//! and combined kill+squeeze churn. Every scenario pins the same three
//! invariants:
//!
//! 1. **Bitwise stream correctness** — a stream that survives via
//!    deterministic failover or preempt-and-recompute delivers exactly
//!    the tokens the offline single-session reference produces. Worker
//!    death and memory pressure are invisible in token streams.
//! 2. **Accounting identities** — failover/respawn/preemption counters
//!    move when (and only when) the scripted fault fires; interactive
//!    traffic is never preempted; peak KV stays under the budget.
//! 3. **Full KV drain** — after the churn retires, no worker holds KV.
//!
//! One scenario is a wall-clock ratio (healed-fleet throughput) and is
//! `#[ignore]`d: run it alone, in release, with `--ignored` and one test
//! thread.
//!
//! The determinism contract (any worker produces identical tokens for
//! the same request — `fleet_conformance`) is what makes these cheap:
//! replay-and-skip needs no state transfer, only a resubmission.

use microscopiq_core::{MicroScopiQ, QuantConfig};
use microscopiq_fm::{DequantGemm, KvMode, PackedTinyFm, TinyFm, TinyFmConfig};
use microscopiq_linalg::SeededRng;
use microscopiq_runtime::net::{HttpClient, HttpConfig, HttpServer, Json};
use microscopiq_runtime::{
    EngineConfig, Fleet, FleetConfig, GenRequest, QosClass, RequestOptions, RuntimeEngine,
    ServeError, Server, ServerConfig, Session, SupervisionConfig, Tier,
};
use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn packed_model() -> &'static PackedTinyFm {
    static MODEL: OnceLock<PackedTinyFm> = OnceLock::new();
    MODEL.get_or_init(|| {
        let cfg = TinyFmConfig {
            d_model: 32,
            n_heads: 2,
            d_ff: 64,
            n_layers: 2,
            vocab: 48,
        };
        let fm = TinyFm::teacher(cfg, 91);
        let mut rng = SeededRng::new(0xc4a0);
        let calib: Vec<Vec<usize>> = (0..3).map(|_| fm.generate(10, 0.9, &mut rng)).collect();
        let q = MicroScopiQ::new(
            QuantConfig::w4()
                .macro_block(32)
                .row_block(32)
                .build()
                .unwrap(),
        );
        PackedTinyFm::quantize_from(&fm, &q, &calib).unwrap()
    })
}

/// Offline single-request reference — the bitwise ground truth any
/// worker (or any preempted/recovered execution) must reproduce.
fn offline_tokens(req: &GenRequest) -> Vec<usize> {
    let mut session =
        Session::with_kv_mode(packed_model().clone(), DequantGemm, 1, KvMode::Exact).unwrap();
    session.submit(req.clone());
    let results = session.run_to_completion();
    assert_eq!(results.len(), 1);
    results.into_iter().next().unwrap().tokens
}

fn chaos_request(i: usize, seed: u64, max_new: usize, class: QosClass) -> GenRequest {
    let vocab = packed_model().config().vocab;
    let mut rng = SeededRng::new(seed ^ (i as u64).wrapping_mul(0x9e37));
    GenRequest {
        prompt: (0..4 + rng.below(8)).map(|_| rng.below(vocab)).collect(),
        max_new_tokens: max_new,
        temperature: 0.8,
        seed: 3000 + i as u64,
        class,
        ..Default::default()
    }
}

fn failover_opts() -> RequestOptions {
    RequestOptions {
        failover: true,
        ..RequestOptions::default()
    }
}

fn paced_fleet(workers: usize, pace_ms: u64, supervised: bool) -> Fleet {
    Fleet::spawn(
        packed_model().clone(),
        |_| DequantGemm,
        FleetConfig {
            workers,
            server: ServerConfig {
                max_batch: 4,
                pace: Duration::from_millis(pace_ms),
                ..ServerConfig::default()
            },
            supervision: supervised.then(|| SupervisionConfig {
                max_restarts: 3,
                backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(100),
                interval: Duration::from_millis(10),
            }),
        },
    )
    .expect("spawn fleet")
}

#[test]
fn failover_mid_decode_is_bitwise_seamless() {
    let fleet = paced_fleet(2, 3, false);
    let handle = fleet.handle();
    let req = chaos_request(0, 0xdead, 24, QosClass::Interactive);
    let expected = offline_tokens(&req);

    let (idx, mut stream) = handle.submit_with(req, failover_opts()).expect("submit");
    // Read a few live tokens so the kill lands mid-decode, with part of
    // the stream already delivered to the client.
    let mut streamed = Vec::new();
    while streamed.len() < 3 {
        match stream.next_event().expect("live stream") {
            microscopiq_runtime::StreamEvent::Token(t) => streamed.push(t),
            other => panic!("unexpected early event: {other:?}"),
        }
    }
    handle.worker(idx).inject_worker_panic();
    let res = stream.collect().expect("failover must complete the stream");
    assert_eq!(res.tokens, expected, "failover stream diverged bitwise");
    assert!(
        handle.failovers() >= 1,
        "the kill must actually trigger failover"
    );
    assert!(
        handle
            .render_metrics()
            .contains("microscopiq_fleet_failovers_total"),
        "failovers are exposed as a fleet metric"
    );
    let report = fleet.shutdown();
    assert_eq!(report.lost(), 1, "exactly one incarnation died");
}

#[test]
fn failover_mid_prefill_replays_the_prompt() {
    let fleet = Fleet::spawn(
        packed_model().clone(),
        |_| DequantGemm,
        FleetConfig {
            workers: 2,
            server: ServerConfig {
                max_batch: 4,
                // Chunked prefill + pace: a 16-token prompt takes ≥ 8
                // paced steps before its first sampled token, so the
                // kill below lands mid-prefill.
                prefill_chunk: 2,
                pace: Duration::from_millis(3),
                ..ServerConfig::default()
            },
            supervision: None,
        },
    )
    .expect("spawn fleet");
    let handle = fleet.handle();
    let vocab = packed_model().config().vocab;
    let req = GenRequest {
        prompt: (0..16).map(|i| (i * 5 + 2) % vocab).collect(),
        max_new_tokens: 6,
        temperature: 0.8,
        seed: 4242,
        ..Default::default()
    };
    let expected = offline_tokens(&req);

    let (idx, stream) = handle.submit_with(req, failover_opts()).expect("submit");
    std::thread::sleep(Duration::from_millis(4));
    handle.worker(idx).inject_worker_panic();
    let res = stream.collect().expect("failover must complete the stream");
    assert_eq!(res.tokens, expected, "mid-prefill failover diverged");
    assert!(handle.failovers() >= 1);
    fleet.shutdown();
}

#[test]
fn failover_under_flood_completes_every_stream() {
    let fleet = paced_fleet(3, 1, false);
    let handle = fleet.handle();
    let reqs: Vec<GenRequest> = (0..16)
        .map(|i| chaos_request(i, 0xf100d, 8, QosClass::Interactive))
        .collect();
    let expected: Vec<Vec<usize>> = reqs.iter().map(offline_tokens).collect();

    let results: Vec<Vec<usize>> = std::thread::scope(|s| {
        let tasks: Vec<_> = reqs
            .iter()
            .map(|req| {
                let handle = handle.clone();
                let req = req.clone();
                s.spawn(move || {
                    let (_, stream) = handle.submit_with(req, failover_opts()).expect("submit");
                    stream.collect().expect("stream completes").tokens
                })
            })
            .collect();
        // Kill one worker while the flood is in flight; its orphans must
        // fail over while streams on the survivors are untouched.
        std::thread::sleep(Duration::from_millis(5));
        handle.worker(1).inject_worker_panic();
        tasks
            .into_iter()
            .map(|t| t.join().expect("no panic"))
            .collect()
    });
    for (i, (got, want)) in results.iter().zip(expected.iter()).enumerate() {
        assert_eq!(got, want, "stream {i} diverged under flood churn");
    }
    assert!(handle.failovers() >= 1, "the flood kill triggered failover");
    assert_eq!(handle.kv_rows(), 0, "KV drains after the flood retires");
    fleet.shutdown();
}

#[test]
fn supervisor_respawns_dead_worker_and_healthz_recovers() {
    let server = HttpServer::bind(
        "127.0.0.1:0",
        packed_model().clone(),
        |_| DequantGemm,
        HttpConfig {
            fleet: FleetConfig {
                workers: 2,
                server: ServerConfig {
                    max_batch: 4,
                    ..ServerConfig::default()
                },
                supervision: Some(SupervisionConfig {
                    max_restarts: 2,
                    backoff: Duration::from_millis(5),
                    max_backoff: Duration::from_millis(50),
                    interval: Duration::from_millis(10),
                }),
            },
            ..HttpConfig::default()
        },
    )
    .expect("bind fleet");
    let mut client = HttpClient::connect(server.addr()).expect("connect");

    server.fleet().worker(0).inject_worker_panic();
    // Wait for the worker thread to actually die, then for the
    // supervisor sweep to respawn it: healthz goes back to 200/ok with
    // the respawn counted. Generous deadline; typical recovery is one
    // 10 ms sweep.
    let deadline = Instant::now() + Duration::from_secs(10);
    let health_json = loop {
        let health = client.get("/healthz").expect("healthz");
        let json = Json::parse(&health.text()).expect("healthz JSON");
        let respawned = json.get("respawns").and_then(Json::as_usize).unwrap_or(0) >= 1;
        if health.status == 200 && respawned {
            break json;
        }
        assert!(
            Instant::now() < deadline,
            "fleet did not heal in time: status {} body {}",
            health.status,
            health.text()
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(health_json.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(
        health_json.get("workers_alive").and_then(Json::as_usize),
        Some(2),
        "full strength restored"
    );

    // The respawned slot serves: fleet metrics agree and a request
    // round-trips bitwise.
    let metrics = client.get("/metrics").expect("metrics").text();
    assert!(metrics.contains("microscopiq_fleet_workers_alive 2"));
    let respawn_line = metrics
        .lines()
        .find(|l| l.starts_with("microscopiq_fleet_respawns_total"))
        .expect("respawn counter exposed");
    let respawns: u64 = respawn_line
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .expect("counter value");
    assert!(respawns >= 1, "respawn counted: {respawn_line}");

    let req = chaos_request(7, 0x4ea1, 5, QosClass::Interactive);
    let expected = offline_tokens(&req);
    let prompt = req
        .prompt
        .iter()
        .map(|t| t.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let body = format!(
        r#"{{"prompt":[{prompt}],"max_new_tokens":{},"temperature":0.8,"seed":{}}}"#,
        req.max_new_tokens, req.seed,
    );
    let events = client
        .generate(&body)
        .expect("generate")
        .collect_events()
        .expect("events");
    let done = events.last().expect("terminal event");
    let tokens: Vec<usize> = done
        .get("tokens")
        .and_then(Json::as_arr)
        .expect("done tokens")
        .iter()
        .map(|t| t.as_usize().unwrap())
        .collect();
    assert_eq!(tokens, expected, "healed fleet serves bitwise");

    let report = server.shutdown();
    assert!(report.respawns >= 1, "report records the respawn");
    assert_eq!(report.lost(), 1, "one harvested corpse");
}

#[test]
fn kv_budget_squeeze_preempts_sheddable_and_stays_bitwise() {
    // Single worker under a KV byte ceiling: a best-effort pair acquires
    // KV first, then an interactive request arrives — its growth forces
    // a best-effort victim out (never interactive), peak KV must respect
    // the budget, and every stream — including preempted ones — must
    // come back bitwise identical.
    let budget = 24 * 1024; // d_model 32 × 2 layers → 1 KiB per token
    let server = Server::spawn(
        packed_model().clone(),
        DequantGemm,
        ServerConfig {
            max_batch: 2,
            prefill_chunk: 4,
            kv_byte_budget: Some(budget),
            pace: Duration::from_millis(5),
            ..ServerConfig::default()
        },
    )
    .expect("spawn server");
    let handle = server.handle();
    let vocab = packed_model().config().vocab;
    let mk = |i: usize, prompt_len: usize, max_new: usize, class: QosClass| GenRequest {
        prompt: (0..prompt_len).map(|j| (j * 3 + i) % vocab).collect(),
        max_new_tokens: max_new,
        temperature: 0.8,
        seed: 5100 + i as u64,
        class,
        ..Default::default()
    };
    // The best-effort pair exactly fills the budget (4 + 8 = 12 KiB
    // each): it fits on its own, so only the interactive arrival can
    // push occupancy past the ceiling — that arrival is what must force
    // a best-effort victim out. Short prompts + long decodes keep the
    // pair in flight for ~8 paced steps, a wide window for the
    // interactive request to land mid-flight.
    let reqs = [
        mk(0, 4, 8, QosClass::BestEffort),
        mk(1, 4, 8, QosClass::BestEffort),
        mk(2, 8, 4, QosClass::Interactive),
    ];
    let expected: Vec<Vec<usize>> = reqs.iter().map(offline_tokens).collect();

    let results: Vec<Vec<usize>> = std::thread::scope(|s| {
        let run = |req: GenRequest| {
            let handle = handle.clone();
            s.spawn(move || {
                handle
                    .submit(req)
                    .expect("submit")
                    .collect()
                    .unwrap()
                    .tokens
            })
        };
        let be0 = run(reqs[0].clone());
        let be1 = run(reqs[1].clone());
        // Stagger: let the best-effort pair acquire KV before the
        // interactive request applies pressure.
        let deadline = Instant::now() + Duration::from_secs(10);
        while handle.kv_bytes() < 12 * 1024 {
            assert!(Instant::now() < deadline, "best-effort never acquired KV");
            std::thread::sleep(Duration::from_millis(1));
        }
        let int = run(reqs[2].clone());
        vec![be0, be1, int]
            .into_iter()
            .map(|t| t.join().expect("no panic"))
            .collect()
    });
    for (i, (got, want)) in results.iter().zip(expected.iter()).enumerate() {
        assert_eq!(got, want, "stream {i} diverged under the KV squeeze");
    }
    assert_eq!(handle.kv_rows(), 0, "KV drains once the squeeze retires");
    let snap = handle.metrics_snapshot();
    drop(handle); // the worker exits once every admission sender is gone
    let report = server.shutdown();
    let stats = report.session;
    assert!(stats.preempted() > 0, "the squeeze actually preempted");
    assert_eq!(stats.preemptions[0], 0, "interactive never preempted");
    assert!(
        stats.peak_kv_bytes <= budget,
        "peak {} exceeded budget {budget}",
        stats.peak_kv_bytes
    );
    assert_eq!(report.final_kv_rows, 0);
    // The report reads the same instruments the registry exposes.
    for class in QosClass::ALL {
        assert_eq!(
            snap.counter_with("microscopiq_preemptions_total", &[("class", class.label())]),
            Some(stats.preemptions[class.index()] as u64),
            "{} preemptions",
            class.label()
        );
    }
    assert_eq!(
        snap.counter("microscopiq_recompute_tokens_total"),
        stats.recompute_tokens as u64
    );
    assert_eq!(
        snap.gauge("microscopiq_kv_peak_bytes"),
        Some(stats.peak_kv_bytes as i64)
    );
}

#[test]
fn kill_and_squeeze_churn_heals_and_drains() {
    // Everything at once: supervised fleet, KV budgets on every worker,
    // a mixed-class failover flood, and a worker kill mid-flight. All
    // streams complete bitwise, the fleet heals, and KV fully drains.
    let fleet = Fleet::spawn(
        packed_model().clone(),
        |_| DequantGemm,
        FleetConfig {
            workers: 2,
            server: ServerConfig {
                max_batch: 2,
                prefill_chunk: 4,
                kv_byte_budget: Some(24 * 1024),
                pace: Duration::from_millis(1),
                ..ServerConfig::default()
            },
            supervision: Some(SupervisionConfig {
                max_restarts: 3,
                backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(100),
                interval: Duration::from_millis(10),
            }),
        },
    )
    .expect("spawn fleet");
    let handle = fleet.handle();
    let reqs: Vec<GenRequest> = (0..12)
        .map(|i| {
            let class = match i % 3 {
                0 => QosClass::Interactive,
                1 => QosClass::Batch,
                _ => QosClass::BestEffort,
            };
            chaos_request(i, 0xc41f, 6, class)
        })
        .collect();
    let expected: Vec<Vec<usize>> = reqs.iter().map(offline_tokens).collect();

    let results: Vec<Vec<usize>> = std::thread::scope(|s| {
        let tasks: Vec<_> = reqs
            .iter()
            .map(|req| {
                let handle = handle.clone();
                let req = req.clone();
                s.spawn(move || {
                    let (_, stream) = handle.submit_with(req, failover_opts()).expect("submit");
                    stream.collect().expect("stream completes").tokens
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(4));
        handle.worker(0).inject_worker_panic();
        tasks
            .into_iter()
            .map(|t| t.join().expect("no panic"))
            .collect()
    });
    for (i, (got, want)) in results.iter().zip(expected.iter()).enumerate() {
        assert_eq!(got, want, "stream {i} diverged under kill+squeeze churn");
    }
    // Supervisor restores full strength: the killed incarnation is
    // harvested and its slot respawned (sweeps here are driven
    // explicitly so the test does not depend on traffic).
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.respawns() < 1 || handle.alive_workers() < 2 {
        handle.supervise();
        assert!(Instant::now() < deadline, "fleet failed to heal");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(handle.kv_rows(), 0, "KV drains after the churn");
    let report = fleet.shutdown();
    assert_eq!(report.lost(), 1, "exactly one incarnation died");
}

/// Timing gate: a respawned worker is a full replacement, not a degraded
/// survivor. A supervised two-worker fleet serves closed-loop waves of
/// failover streams — a pre-kill baseline, a wave with worker 0 killed
/// mid-flight (every stream must still complete), and a post-respawn
/// wave once the supervisor heals the fleet — and the healed fleet must
/// sustain at least 0.8× the pre-kill tokens/s. Best of two on the timed
/// waves blunts scheduler noise without moving the gate.
#[test]
#[ignore = "timing gate: run alone on the chaos CI leg"]
fn healed_fleet_sustains_pre_kill_throughput() {
    let fleet = Fleet::spawn(
        packed_model().clone(),
        |_| RuntimeEngine::parallel(),
        FleetConfig {
            workers: 2,
            server: ServerConfig {
                max_batch: 8,
                queue_capacity: 128,
                max_in_flight: 64,
                ..ServerConfig::default()
            },
            supervision: Some(SupervisionConfig {
                max_restarts: 4,
                backoff: Duration::from_millis(2),
                max_backoff: Duration::from_millis(50),
                interval: Duration::from_millis(5),
            }),
        },
    )
    .expect("spawn supervised fleet");
    let handle = fleet.handle();
    // One closed-loop wave of 64 failover streams; returns generated
    // tokens/s. `kill` panics worker 0 shortly after launch.
    let wave = |kill: bool| -> f64 {
        let t0 = Instant::now();
        let tokens: usize = std::thread::scope(|s| {
            let tasks: Vec<_> = (0..64)
                .map(|i| {
                    let handle = handle.clone();
                    s.spawn(move || {
                        let req = chaos_request(i, 0x4ec0, 16, QosClass::Interactive);
                        let (_, stream) = handle.submit_with(req, failover_opts()).expect("submit");
                        stream
                            .collect()
                            .expect("every failover stream must complete")
                            .new_tokens
                    })
                })
                .collect();
            if kill {
                std::thread::sleep(Duration::from_millis(2));
                handle.worker(0).inject_worker_panic();
            }
            tasks.into_iter().map(|t| t.join().expect("no panic")).sum()
        });
        tokens as f64 / t0.elapsed().as_secs_f64()
    };

    let pre = wave(false).max(wave(false));
    wave(true); // not timed: it measures survival
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.respawns() < 1 || handle.alive_workers() < 2 {
        handle.supervise();
        assert!(Instant::now() < deadline, "fleet failed to heal");
        std::thread::sleep(Duration::from_millis(1));
    }
    let post = wave(false).max(wave(false));
    let ratio = post / pre;
    let respawns = handle.respawns();
    println!("kill-and-recover: pre {pre:.0} tok/s, post {post:.0} tok/s, ratio {ratio:.2}");
    drop(handle);
    let report = fleet.shutdown();
    assert!(respawns >= 1, "the supervisor respawned the killed worker");
    assert_eq!(report.lost(), 1, "exactly the killed incarnation is lost");
    assert!(
        ratio >= 0.8,
        "post-respawn throughput must hold at >= 0.8x pre-kill \
         (pre {pre:.0} tok/s, post {post:.0} tok/s)"
    );
}

/// This process's compute-pool threads, by name (the kernel keeps the
/// first 15 bytes of `microscopiq-gemm-{i}`); `None` off Linux.
fn pool_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .flatten()
            .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
            .filter(|comm| comm.starts_with("microscopiq-gem"))
            .count(),
    )
}

#[test]
fn respawn_rounds_do_not_leak_pool_threads() {
    // Every other scenario in this binary serves through `DequantGemm`,
    // so each `microscopiq-gemm-*` thread alive here belongs to this
    // fleet — which is why the leak check counts those by name rather
    // than reading the process-wide `Threads:` line, which the scenarios
    // running beside this one move.
    let Some(before) = pool_threads() else {
        return;
    };
    assert_eq!(before, 0, "no pooled engine outside this scenario");
    let fleet = Fleet::spawn(
        packed_model().clone(),
        // The exact tier without a cache runs the bit-exact oracle kernel,
        // split over the pool on every call.
        |_| {
            RuntimeEngine::new(EngineConfig {
                threads: 2,
                tier: Tier::Exact { cache_bytes: 0 },
                parallel_threshold: 0,
            })
        },
        FleetConfig {
            workers: 2,
            server: ServerConfig {
                max_batch: 4,
                ..ServerConfig::default()
            },
            supervision: Some(SupervisionConfig {
                max_restarts: 3,
                backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(50),
                interval: Duration::from_millis(10),
            }),
        },
    )
    .expect("spawn fleet");
    let handle = fleet.handle();
    for round in 0..3u64 {
        // Traffic first, so the incarnation about to die owns a pool.
        for i in 0..6 {
            let req = chaos_request(i, 0x9001 + round, 4, QosClass::Interactive);
            let (_, stream) = handle
                .submit_with(req.clone(), failover_opts())
                .expect("submit");
            let got = stream.collect().expect("stream completes").tokens;
            assert_eq!(got, offline_tokens(&req), "round {round} stream {i}");
        }
        let live = pool_threads().expect("linux");
        assert!(
            (1..=2).contains(&live),
            "one pool worker per engine: {live}"
        );
        handle.worker((round % 2) as usize).inject_worker_panic();
        let deadline = Instant::now() + Duration::from_secs(10);
        while handle.respawns() <= round || handle.alive_workers() < 2 {
            handle.supervise();
            assert!(Instant::now() < deadline, "fleet failed to heal");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    let report = fleet.shutdown();
    assert_eq!(report.lost(), 3, "three incarnations died");
    // Engines drop with their server threads, and `Drop` joins the pool;
    // the kernel unlinks a joined task a moment after the join returns.
    let deadline = Instant::now() + Duration::from_secs(10);
    while pool_threads() != Some(before) {
        assert!(
            Instant::now() < deadline,
            "pool threads outlived their engines: {:?}",
            pool_threads()
        );
        std::thread::yield_now();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Routing under churn: concurrent submissions racing a worker
    /// death never panic, land on in-range workers exactly once, and —
    /// with failover on — still deliver bitwise-correct streams. The
    /// dead-worker CAS and the respawn/mark-alive CAS are both
    /// exercised by the race.
    #[test]
    fn routing_survives_worker_churn(
        seed in 0u64..1_000,
        workers in 2usize..5,
        kill_at in 0usize..4,
        n_reqs in 4usize..13,
    ) {
        let kill = kill_at % workers;
        let supervised = seed % 2 == 0;
        let fleet = paced_fleet(workers, 1, supervised);
        let handle = fleet.handle();
        let reqs: Vec<GenRequest> = (0..n_reqs)
            .map(|i| chaos_request(i, seed, 5, QosClass::Interactive))
            .collect();
        let expected: Vec<Vec<usize>> = reqs.iter().map(offline_tokens).collect();

        let outcomes: Vec<(usize, Result<Vec<usize>, ServeError>)> =
            std::thread::scope(|s| {
                let tasks: Vec<_> = reqs
                    .iter()
                    .enumerate()
                    .map(|(i, req)| {
                        let handle = handle.clone();
                        let req = req.clone();
                        // Half the streams opt into failover; the other
                        // half keep the fault-to-client contract.
                        let opts = if i % 2 == 0 {
                            failover_opts()
                        } else {
                            RequestOptions::default()
                        };
                        s.spawn(move || {
                            let (idx, stream) =
                                handle.submit_with(req, opts).expect("submit never fails");
                            (idx, stream.collect().map(|r| r.tokens))
                        })
                    })
                    .collect();
                std::thread::sleep(Duration::from_millis(2));
                handle.worker(kill).inject_worker_panic();
                tasks.into_iter().map(|t| t.join().expect("no panic")).collect()
            });

        for (i, (idx, outcome)) in outcomes.iter().enumerate() {
            prop_assert!(*idx < workers, "routed to out-of-range worker {idx}");
            match outcome {
                Ok(tokens) => prop_assert_eq!(
                    tokens,
                    &expected[i],
                    "stream {} diverged under churn",
                    i
                ),
                // Only non-failover streams may fault, and only with the
                // two worker-death errors.
                Err(e) => {
                    prop_assert!(i % 2 == 1, "failover stream {} faulted: {e}", i);
                    prop_assert!(
                        matches!(e, ServeError::Disconnected | ServeError::WorkerPanicked(_)),
                        "unexpected fault: {e}"
                    );
                }
            }
        }
        fleet.shutdown();
    }
}
