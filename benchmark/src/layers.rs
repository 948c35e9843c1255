//! The traced run of one workload: short fixed-*work* passes and direct
//! probes that put a number on every layer from outside, through public
//! functions only.
//!
//! * **session pass** — `Session<TimedEngine>` driven on the harness
//!   thread (submit what is due, `step_report`): `session.step` spans
//!   with the engine's calls as children, so a step splits into executor
//!   time and self time (plan, attention, KV, norms, sampling).
//! * **server passes** — the same requests through the real serving
//!   path, once plain and once with the timing engine and per-request
//!   spans; their throughput ratio is what tracing costs.
//! * **net pass** — the first requests again through `FleetHandle::submit`
//!   and through HTTP/SSE on one front-end, at the same concurrency: the
//!   difference is the wire.
//! * **probes** — `LayerKvCache::append`, `prefill_chunked` /
//!   `decode_step`, `PrefixCache`, `RequestParser`, `Json`, on the
//!   workload's own inputs.

use crate::loadgen::{self, Driver, Outcome, Sent};
use crate::measure::{analyze, EndToEnd, Window};
use crate::proc::{self, Usage};
use crate::report::{Metrics, Verdict, PER_LAYER};
use crate::run::{bind_http, check_drained, driver, Phase, Service, WIRE_CONNECTIONS};
use crate::setup::{build, Built};
use crate::stats::{mean, median, percentile, quartile_spread, sorted};
use crate::trace::{check_tree, chrome_trace, self_times_us, Recorder, Span, TimedEngine};
use crate::workloads::{wire_body, Arrival, Workload};
use microscopiq_core::LayerKvCache;
use microscopiq_fm::{KvMode, PackedGemm};
use microscopiq_linalg::SeededRng;
use microscopiq_runtime::kernels::{
    BUCKETED_KERNEL, BUCKETED_LANE_KERNEL, LANE_KERNEL, SCALAR_KERNEL, SIMD_KERNEL,
};
use microscopiq_runtime::net::json::obj;
use microscopiq_runtime::net::{HttpClient, Json, RequestParser};
use microscopiq_runtime::telemetry::{HistogramSnapshot, SampleValue};
use microscopiq_runtime::{
    EngineTelemetry, MetricsSnapshot, PrefixCache, PrefixCacheConfig, SchedulerConfig, Session,
};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A prefix-cache attach shorter than this saves less than the suffix it
/// is followed by; it counts as reuse, not as a hit.
const USEFUL_PREFIX_TOKENS: usize = 16;
/// Requests of the net pass on in-process workloads, where the wire is
/// not on the path and a small sample is enough to say so.
const NET_PASS_REQUESTS: usize = 8;

fn p(values: impl IntoIterator<Item = f64>, pct: f64) -> f64 {
    percentile(&sorted(values.into_iter().collect()), pct)
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn arg(s: &Span, key: &str) -> f64 {
    s.args
        .iter()
        .find(|(k, _)| *k == key)
        .map_or(0.0, |(_, v)| *v)
}

fn executor_call(s: &Span) -> bool {
    s.name == "executor.matmul" || s.name == "executor.gemv"
}

/// Share of the `roots` spans' time spent outside their engine calls.
fn self_share(spans: &[Span], roots: &str) -> f64 {
    let own = self_times_us(spans);
    let (mut total, mut own_total) = (0.0, 0.0);
    for s in spans.iter().filter(|s| s.name == roots) {
        total += s.dur_us();
        own_total += own[&s.id];
    }
    own_total / total.max(1e-9)
}

struct SessionPass {
    spans: Vec<Span>,
    /// Tokens of each prompt the prefix cache supplied at submit.
    reused: Vec<usize>,
    prompt_tokens: usize,
}

/// Drives the session directly. Closed-loop composition is a function of
/// the request list alone, so its counts repeat exactly.
fn session_pass(
    w: &Workload,
    seed: u64,
    built: &Built,
    n: usize,
    rec: &Arc<Recorder>,
    effective_bits: f64,
    m: &mut Metrics,
) -> SessionPass {
    let engine = TimedEngine {
        inner: w.tier.engine(),
        rec: rec.clone(),
    };
    let sched = SchedulerConfig::new(w.server.max_batch)
        .prefill_chunk(w.server.prefill_chunk)
        .token_budget(w.server.token_budget)
        .qos(w.server.qos);
    let mut session = Session::with_config(built.model.clone(), engine, sched, w.server.kv_mode)
        .expect("workload KV mode is valid");
    if let Some(cfg) = w.server.prefix_cache {
        session.enable_prefix_cache(cfg);
    }
    session
        .engine()
        .register_telemetry(session.metrics_registry());

    let (clients, due) = match w.arrival {
        Arrival::Closed { clients } => (clients, Vec::new()),
        Arrival::Open { per_s } => (usize::MAX, w.schedule(seed, n as f64 / per_s)),
    };
    let t0 = Instant::now();
    let (mut next, mut in_flight, mut finished) = (0, 0, 0);
    let (mut reused, mut prompt_tokens) = (Vec::with_capacity(n), 0);
    while finished < n {
        let is_due = |k: usize| due.get(k).is_none_or(|d| t0.elapsed().as_secs_f64() >= *d);
        while next < n && in_flight < clients && is_due(next) {
            let req = w.request(seed, next);
            prompt_tokens += req.prompt.len();
            let got = rec.scope(
                "session.submit",
                Some(next),
                || {
                    let before = session.stats().prefix_tokens_reused;
                    session.submit(req);
                    session.stats().prefix_tokens_reused - before
                },
                |got| vec![("prefix_tokens_reused", *got as f64)],
            );
            reused.push(got);
            next += 1;
            in_flight += 1;
        }
        if in_flight == 0 {
            // Open loop, nothing to do until the next arrival.
            let wait = due[next] - t0.elapsed().as_secs_f64();
            std::thread::sleep(Duration::from_secs_f64(wait.max(0.0)));
            continue;
        }
        let report = rec.scope(
            "session.step",
            None,
            || session.step_report(),
            |r| {
                let b = r.batch.clone().unwrap_or_default();
                vec![
                    ("requests", b.requests as f64),
                    ("prefill_chunks", b.prefill_chunks as f64),
                    ("prefill_tokens", b.prefill_tokens as f64),
                    ("decode_segments", b.decode_segments as f64),
                    ("new_tokens", b.new_tokens as f64),
                    ("kv_bytes", b.kv_bytes as f64),
                ]
            },
        );
        in_flight -= report.finished.len();
        finished += report.finished.len();
    }

    let stats = session.stats();
    let spans = rec.take();
    let steps: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "session.step" && arg(s, "requests") > 0.0)
        .collect();
    let own = self_times_us(&spans);
    let new_tokens: f64 = steps.iter().map(|s| arg(s, "new_tokens")).sum();
    m.set("session.steps", stats.steps as f64);
    m.set(
        "session.step_us_p50",
        p(steps.iter().map(|s| s.dur_us()), 50.0),
    );
    m.set(
        "session.step_us_p90",
        p(steps.iter().map(|s| s.dur_us()), 90.0),
    );
    m.set(
        "session.step_self_us_p50",
        p(steps.iter().map(|s| own[&s.id]), 50.0),
    );
    m.set(
        "session.submit_us_p50",
        p(
            spans
                .iter()
                .filter(|s| s.name == "session.submit")
                .map(Span::dur_us),
            50.0,
        ),
    );
    m.set(
        "session.batch_requests_mean",
        mean(&steps.iter().map(|s| arg(s, "requests")).collect::<Vec<_>>()),
    );
    m.set(
        "session.new_tokens_per_step_mean",
        new_tokens / steps.len().max(1) as f64,
    );
    m.set(
        "session.prefill_token_share",
        steps.iter().map(|s| arg(s, "prefill_tokens")).sum::<f64>() / new_tokens.max(1.0),
    );
    m.set("session.prefill_chunks", stats.prefill_chunks as f64);
    m.set("session.preemptions", stats.preempted() as f64);
    m.set("session.kv_peak_bytes", stats.peak_kv_bytes as f64);

    let calls: Vec<&Span> = spans.iter().filter(|s| executor_call(s)).collect();
    let busy_us: f64 = calls.iter().map(|s| s.dur_us()).sum();
    let step_us: f64 = steps.iter().map(|s| s.dur_us()).sum();
    let count = |name: &str| calls.iter().filter(|s| s.name == name).count() as f64;
    m.set("executor.matmul_calls", count("executor.matmul"));
    m.set("executor.gemv_calls", count("executor.gemv"));
    m.set(
        "executor.m_mean",
        mean(&calls.iter().map(|s| arg(s, "m")).collect::<Vec<_>>()),
    );
    m.set("executor.busy_share", busy_us / step_us.max(1e-9));
    // Computed from tensor shapes and bit widths, not measured traffic.
    let macs: f64 = calls
        .iter()
        .map(|s| arg(s, "d_row") * arg(s, "d_col") * arg(s, "m"))
        .sum();
    let bytes = calls
        .iter()
        .map(|s| arg(s, "d_row") * arg(s, "d_col"))
        .sum::<f64>()
        * effective_bits
        / 8.0;
    m.set(
        "executor.gmacs_per_s",
        macs / (busy_us * 1e-6).max(1e-9) / 1e9,
    );
    m.set(
        "executor.weight_gb_per_s",
        bytes / (busy_us * 1e-6).max(1e-9) / 1e9,
    );

    let snap = session.metrics_registry().snapshot();
    kernel_shares(&snap, m);
    let cache = session.engine().inner.cache_stats().unwrap_or_default();
    let lookups = (cache.hits + cache.misses).max(1);
    m.set("cache.hit_ratio", cache.hits as f64 / lookups as f64);
    m.set("cache.resident_bytes", cache.resident_bytes as f64);
    m.set("cache.evictions", cache.evictions as f64);
    let prefix = session.prefix_cache_stats().unwrap_or_default();
    m.set("prefix.evictions", prefix.evictions as f64);
    m.set("prefix.resident_bytes", prefix.resident_bytes as f64);

    SessionPass {
        spans,
        reused,
        prompt_tokens,
    }
}

fn kernel_shares(snap: &MetricsSnapshot, m: &mut Metrics) {
    let calls_of = |kernel: &str| -> f64 {
        snap.samples
            .iter()
            .filter(|s| s.name == "microscopiq_kernel_calls_total")
            .filter(|s| s.labels.iter().any(|(k, v)| *k == "kernel" && v == kernel))
            .map(|s| match s.value {
                SampleValue::Counter(n) => n as f64,
                _ => 0.0,
            })
            .sum()
    };
    let kernels = [
        ("kernels.share_bucketed_cache", BUCKETED_KERNEL),
        ("kernels.share_simd_f32", SIMD_KERNEL),
        ("kernels.share_lane_f32", LANE_KERNEL),
        ("kernels.share_bucketed_lane", BUCKETED_LANE_KERNEL),
        ("kernels.share_scalar_f64", SCALAR_KERNEL),
    ];
    let total: f64 = kernels.iter().map(|(_, k)| calls_of(k)).sum();
    for (name, kernel) in kernels {
        m.set(name, calls_of(kernel) / total.max(1.0));
    }
}

/// Percentile of one of the program's log-bucketed histograms (16 linear
/// sub-buckets per octave), interpolated by rank inside the bucket that
/// holds it. `HistogramSnapshot::percentile` answers with the bucket's
/// midpoint, which reads identically on runs that differ by up to 6%.
fn histogram_percentile(h: &HistogramSnapshot, pct: f64) -> f64 {
    let target = (pct / 100.0 * h.count as f64).max(1.0);
    let mut below = 0.0;
    for (hi, n) in h.occupied_buckets() {
        let n = n as f64;
        if below + n >= target {
            let width = match hi {
                0..=15 => 1.0,
                _ => (1u64 << (hi.ilog2() - 4)) as f64,
            };
            return (hi as f64 + 1.0 - width) + (width - 1.0) * (target - below) / n;
        }
        below += n;
    }
    f64::NAN
}

/// One fixed-work pass through the serving path.
struct ServerPass {
    phase: Phase,
    e2e: EndToEnd,
    cpu_per_token: f64,
    threads_peak: u64,
    snapshot: MetricsSnapshot,
    peak_live: usize,
    problems: Vec<String>,
}

fn server_pass<E, F>(w: &Workload, seed: u64, built: &Built, n: usize, mk_engine: F) -> ServerPass
where
    E: PackedGemm + EngineTelemetry + Send + 'static,
    F: Fn(usize) -> E + Send + Sync + 'static,
{
    let service = Service::start(w, built, mk_engine);
    let mut threads_peak = 0;
    let mut last_sample = Instant::now();
    let mut watch_threads = |now: Instant| {
        if now.duration_since(last_sample) >= Duration::from_millis(10) {
            last_sample = now;
            threads_peak = threads_peak.max(proc::threads());
        }
    };
    let before = Usage::now();
    let t0 = Instant::now();
    let phase = match &service {
        Service::Wire(http) => {
            let next = AtomicUsize::new(0);
            let records = loadgen::wire(
                w,
                seed,
                http.addr(),
                WIRE_CONNECTIONS,
                &next,
                &|i| i < n,
                || {
                    // Every client has claimed an index past the end.
                    while next.load(Ordering::Relaxed) < n + WIRE_CONNECTIONS {
                        watch_threads(Instant::now());
                        std::thread::sleep(Duration::from_millis(10));
                    }
                },
            );
            Phase::of(records)
        }
        Service::InProcess(_) => {
            let mut d: Driver = driver(w, seed, &service);
            match w.arrival {
                Arrival::Closed { clients } => {
                    d.closed(clients, |d, _| d.sent() < n, true, &mut watch_threads)
                }
                Arrival::Open { per_s } => {
                    d.open(t0, &w.schedule(seed, n as f64 / per_s), &mut watch_threads)
                }
            }
            Phase::of(std::mem::take(&mut d.done))
        }
    };
    let wall = t0.elapsed();
    let after = Usage::now();
    // The pass as a window of its own, so tails, spread and process
    // counters are computed by the same code as the untraced run.
    let win = Window {
        t0,
        segment: wall / crate::measure::SEGMENTS as u32,
        segments: crate::measure::SEGMENTS,
        usage: vec![before, after],
    };
    let e2e = analyze(w, &phase.records, &win);
    let phase_tokens: usize = phase.records.iter().map(|r| r.tokens.len()).sum();
    let handle = service.worker();
    let snapshot = handle.metrics_snapshot();
    let peak_live = handle.peak_live_streams();
    drop(handle);
    let finished = phase
        .records
        .iter()
        .filter(|r| r.outcome == Outcome::Finished)
        .count();
    let problems = check_drained(w, service, finished);
    ServerPass {
        phase,
        e2e,
        cpu_per_token: (after.cpu() - before.cpu()).as_secs_f64() / phase_tokens as f64,
        threads_peak,
        snapshot,
        peak_live,
        problems,
    }
}

/// Per-request spans as the client saw them.
fn request_spans(rec: &Recorder, records: &[Sent]) {
    for r in records {
        let (Some(&first), Some(&last)) = (r.token_at.first(), r.token_at.last()) else {
            continue;
        };
        let start = r.due.min(r.submitted);
        let root = rec.record(
            "gen.request",
            0,
            Some(r.index),
            start,
            last,
            vec![
                ("prompt_tokens", r.prompt_len as f64),
                ("new_tokens", r.tokens.len() as f64),
            ],
        );
        rec.record("gen.first_token", root, Some(r.index), start, first, vec![]);
        rec.record("gen.decode", root, Some(r.index), first, last, vec![]);
    }
}

fn ttft_us(records: &[Sent]) -> impl Iterator<Item = f64> + '_ {
    records
        .iter()
        .filter_map(|r| Some(us(r.token_at.first()?.saturating_duration_since(r.due))))
}

fn gaps_us(records: &[Sent]) -> impl Iterator<Item = f64> + '_ {
    records
        .iter()
        .flat_map(|r| r.token_at.windows(2).map(|p| us(p[1] - p[0])))
}

/// The same requests through the fleet router in process and over
/// HTTP/SSE, two at a time, on one front-end.
fn net_pass(w: &Workload, seed: u64, built: &Built, n: usize, m: &mut Metrics, v: &mut Verdict) {
    // Without the prefix cache: the same request list runs twice, and the
    // second time must cost the server what the first did.
    let mut replayable = w.clone();
    replayable.server.prefix_cache = None;
    let w = &replayable;
    let tier = w.tier;
    let http = bind_http(w, built, move |_| tier.engine());

    // Bytes both ways for whole requests, counted on a bare socket. These
    // also fill the decoded-tile cache before the two passes are compared.
    let (mut bytes, mut tokens) = (0usize, 0usize);
    for i in 0..4.min(n) {
        let req = w.request(seed, i);
        let wire = http_request_bytes(&wire_body(&req));
        match raw_exchange(http.addr(), &wire) {
            Ok(received) => {
                bytes += wire.len() + received;
                tokens += req.max_new_tokens;
            }
            Err(e) => v.problems.push(format!("raw wire exchange failed: {e}")),
        }
    }
    let connects = (0..16).map(|_| {
        let start = Instant::now();
        let conn = HttpClient::connect(http.addr());
        let took = us(start.elapsed());
        drop(conn);
        took
    });
    m.set("net.connect_us_p50", p(connects, 50.0));

    let fleet = http.fleet();
    let mut direct = Driver::new(
        w,
        seed,
        Box::new(move |req| fleet.submit(req).map(|(_, stream)| stream)),
    );
    direct.closed(WIRE_CONNECTIONS, |d, _| d.sent() < n, true, |_| {});
    let in_process = std::mem::take(&mut direct.done);
    // The driver holds the fleet handle, which keeps the workers alive.
    drop(direct);

    let wired = loadgen::wire(
        w,
        seed,
        http.addr(),
        WIRE_CONNECTIONS,
        &AtomicUsize::new(0),
        &|i| i < n,
        || {},
    );
    m.set(
        "net.wire_ttft_overhead_us_p50",
        p(ttft_us(&wired), 50.0) - p(ttft_us(&in_process), 50.0),
    );
    m.set(
        "net.wire_itl_overhead_us_p50",
        p(gaps_us(&wired), 50.0) - p(gaps_us(&in_process), 50.0),
    );
    m.set(
        "net.fleet_submit_us_p50",
        p(in_process.iter().map(|r| us(r.submit_took)), 50.0),
    );
    m.set(
        "net.wire_bytes_per_token",
        bytes as f64 / tokens.max(1) as f64,
    );

    let report = http.shutdown();
    let all: Vec<&Sent> = in_process.iter().chain(&wired).collect();
    v.attempted += all.len();
    let failed = all
        .iter()
        .filter(|r| r.outcome != Outcome::Finished)
        .count();
    v.failed += failed;
    if failed > 0 {
        v.problems
            .push(format!("{failed} net-pass requests failed"));
    }
    if report.total(|r| r.final_kv_rows) != 0 {
        v.problems.push("net pass left KV rows behind".into());
    }
}

fn http_request_bytes(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/generate HTTP/1.1\r\nHost: fleet\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Sends one request on a fresh connection and counts the response
/// bytes up to the terminating zero-length chunk.
fn raw_exchange(addr: std::net::SocketAddr, request: &[u8]) -> std::io::Result<usize> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(20)))?;
    stream.write_all(request)?;
    let mut seen = Vec::new();
    let mut buf = [0u8; 4096];
    while !seen.ends_with(b"\r\n0\r\n\r\n") {
        let got = stream.read(&mut buf)?;
        if got == 0 {
            break;
        }
        seen.extend_from_slice(&buf[..got]);
    }
    Ok(seen.len())
}

/// Direct probes: public functions of single layers on this workload's
/// shapes and inputs.
fn probes(w: &Workload, seed: u64, built: &Built, session_spans: &[Span], m: &mut Metrics) {
    let cfg = w.model.cfg;
    let mut rng = SeededRng::new(seed ^ 0x9E0B);

    // core: KV append at this model's width.
    let rows: Vec<Vec<f64>> = (0..64)
        .map(|_| (0..cfg.d_model).map(|_| rng.uniform()).collect())
        .collect();
    let mut cache = LayerKvCache::exact(cfg.d_model);
    let appends = 4096;
    let start = Instant::now();
    for i in 0..appends {
        cache.append(&rows[i % 64], &rows[(i + 1) % 64]);
    }
    black_box(cache.len());
    m.set(
        "core.kv_append_ns_per_row",
        start.elapsed().as_secs_f64() * 1e9 / appends as f64,
    );

    // fm: prefill and decode at fixed contexts, split into engine time
    // and the rest (attention over the KV view, KV append, norms).
    let rec = Arc::new(Recorder::default());
    let engine = TimedEngine {
        inner: w.tier.engine(),
        rec: rec.clone(),
    };
    let prompt: Vec<usize> = (0..512).map(|_| rng.below(cfg.vocab)).collect();
    let decode = |state: &mut microscopiq_fm::DecodeState, tag: &'static str| -> f64 {
        let steps: Vec<f64> = (0..8)
            .map(|i| {
                let start = Instant::now();
                rec.scope(
                    tag,
                    None,
                    || black_box(built.model.decode_step(state, prompt[i], &engine)),
                    |_| vec![],
                );
                us(start.elapsed())
            })
            .collect();
        median(&steps)
    };
    let (mut short, _) = built
        .model
        .prefill_chunked(&prompt[..64], KvMode::Exact, &engine, 64)
        .expect("exact KV");
    m.set("fm.decode_step_us_ctx64", decode(&mut short, "fm.decode64"));
    let start = Instant::now();
    let (mut long, _) = rec.scope(
        "fm.prefill",
        None,
        || {
            built
                .model
                .prefill_chunked(&prompt, KvMode::Exact, &engine, 64)
                .expect("exact KV")
        },
        |_| vec![],
    );
    m.set(
        "fm.prefill_us_per_token_ctx512",
        us(start.elapsed()) / prompt.len() as f64,
    );
    m.set(
        "fm.decode_step_us_ctx512",
        decode(&mut long, "fm.decode512"),
    );
    let probe_spans = rec.take();
    m.set(
        "fm.prefill_self_share_ctx512",
        self_share(&probe_spans, "fm.prefill"),
    );
    m.set(
        "fm.decode_self_share_ctx512",
        self_share(&probe_spans, "fm.decode512"),
    );

    // executor: call times come from the session pass; a call shape its
    // steps never produced (m = 1 under a full closed loop, m > 1 under a
    // single stream) is read from the probes above instead.
    for (metric, name) in [
        ("executor.matmul_us_p50", "executor.matmul"),
        ("executor.gemv_us_p50", "executor.gemv"),
    ] {
        let of = |spans: &[Span]| -> Vec<f64> {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::dur_us)
                .collect()
        };
        let mut seen = of(session_spans);
        if seen.is_empty() {
            seen = of(&probe_spans);
        }
        m.set(metric, p(seen, 50.0));
    }

    // prefix: insert and lookup on this workload's first prompts.
    let mut trie = PrefixCache::new(
        PrefixCacheConfig {
            capacity_bytes: 64 << 20,
        },
        cfg.n_layers,
        KvMode::Exact,
    );
    let plain = w.tier.engine();
    let prompts: Vec<Vec<usize>> = (0..6).map(|i| w.request(seed, i).prompt).collect();
    let mut inserts = Vec::new();
    for prompt in &prompts {
        let (state, _) = built
            .model
            .prefill_chunked(prompt, KvMode::Exact, &plain, 64)
            .expect("exact KV");
        let start = Instant::now();
        trie.insert(&state, prompt.len());
        inserts.push(us(start.elapsed()));
    }
    let lookups = prompts.iter().map(|prompt| {
        let start = Instant::now();
        black_box(trie.lookup(prompt));
        us(start.elapsed())
    });
    m.set("prefix.lookup_us_p50", p(lookups, 50.0));
    m.set("prefix.insert_us_p50", p(inserts, 50.0));

    // net: the parser and JSON on the bytes a wire client would send.
    let bodies: Vec<String> = (0..8).map(|i| wire_body(&w.request(seed, i))).collect();
    let wires: Vec<Vec<u8>> = bodies.iter().map(|b| http_request_bytes(b)).collect();
    let reps = 250;
    let start = Instant::now();
    for _ in 0..reps {
        for wire in &wires {
            let parsed = RequestParser::new().feed(black_box(wire));
            assert!(matches!(parsed, Ok(Some(_))), "probe request must parse");
        }
    }
    let per = |start: Instant, count: usize| start.elapsed().as_secs_f64() * 1e9 / count as f64;
    m.set(
        "net.http_parse_ns_per_request",
        per(start, reps * wires.len()),
    );
    let start = Instant::now();
    for _ in 0..reps {
        for body in &bodies {
            black_box(Json::parse(black_box(body)).expect("probe body is JSON"));
        }
    }
    m.set(
        "net.json_parse_ns_per_request",
        per(start, reps * bodies.len()),
    );
    let events = 20_000;
    let start = Instant::now();
    for t in 0..events {
        black_box(obj([("token", Json::Num((t % cfg.vocab) as f64))]).render());
    }
    m.set("net.json_render_ns_per_event", per(start, events));
}

/// Runs the traced passes of one workload and writes its trace file.
pub fn traced_run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace_dir: &std::path::Path,
) -> (Metrics, Verdict) {
    let mut m = Metrics::new(PER_LAYER);
    let mut v = Verdict::default();
    let n = w.traced_requests(seconds);

    let built = build(&w.model);
    let layer_ms: Vec<f64> = built.layer_s.iter().map(|s| s * 1e3).collect();
    m.set("core.quantize_s", built.layer_s.iter().sum());
    m.set("core.quantize_layer_ms_p50", p(layer_ms, 50.0));
    m.set("fm.calibrate_s", built.calibrate_s);
    let layers: Vec<_> = built
        .model
        .linear_ids()
        .into_iter()
        .map(|id| built.model.layer(id))
        .collect();
    let over_layers = |f: &dyn Fn(&microscopiq_core::packed::PackedLayer) -> f64| {
        mean(&layers.iter().map(|l| f(l)).collect::<Vec<_>>())
    };
    m.set(
        "core.outlier_microblock_fraction",
        over_layers(&|l| l.outlier_micro_block_fraction()),
    );
    let effective_bits = over_layers(&|l| l.effective_bit_width());
    m.set("core.effective_bits", effective_bits);
    m.set("core.packed_bytes", built.model.packed_bytes() as f64);

    // One recorder, so the exported spans share a clock.
    let rec = Arc::new(Recorder::default());
    let session = session_pass(w, seed, &built, n, &rec, effective_bits, &mut m);
    let useful = session
        .reused
        .iter()
        .filter(|&&t| t >= USEFUL_PREFIX_TOKENS)
        .count();
    m.set("prefix.hit_ratio", useful as f64 / n as f64);
    m.set(
        "prefix.tokens_reused_share",
        session.reused.iter().sum::<usize>() as f64 / session.prompt_tokens.max(1) as f64,
    );

    let tier = w.tier;
    let plain = server_pass(w, seed, &built, n, move |_| tier.engine());
    let discard = Arc::new(Recorder::default());
    let timed = {
        let rec = discard.clone();
        server_pass(w, seed, &built, n, move |_| TimedEngine {
            inner: tier.engine(),
            rec: rec.clone(),
        })
    };
    // Compared in CPU time per token, not wall throughput: on a shared
    // box two identical short passes differ by +-15% in tokens/s, and by
    // a few percent in the CPU they burn.
    m.set(
        "telemetry.trace_overhead_ratio",
        plain.cpu_per_token / timed.cpu_per_token,
    );
    let hist = |name: &str, pct: f64| {
        plain
            .snapshot
            .histogram_merged(name)
            .map_or(f64::NAN, |h| histogram_percentile(&h, pct))
    };
    m.set(
        "server.queue_wait_us_p50",
        hist("microscopiq_queue_wait_us", 50.0),
    );
    m.set(
        "server.queue_wait_us_p90",
        hist("microscopiq_queue_wait_us", 90.0),
    );
    m.set(
        "server.admit_to_first_token_us_p50",
        hist("microscopiq_admit_to_first_token_us", 50.0),
    );
    m.set("server.peak_live_streams", plain.peak_live as f64);
    let refused_by_client = plain
        .phase
        .records
        .iter()
        .filter(|r| matches!(&r.outcome, Outcome::Failed(why) if why.starts_with("refused")))
        .count();
    m.set(
        "server.refused",
        (plain
            .snapshot
            .counter("microscopiq_requests_rejected_total")
            + plain.snapshot.counter("microscopiq_requests_shed_total")) as f64
            + refused_by_client as f64,
    );
    m.set("server.ttft_p90_ms", plain.e2e.ttft_p90_ms);
    m.set("server.ttft_p99_ms", plain.e2e.ttft_p99_ms);
    m.set("server.itl_p90_ms", plain.e2e.itl_p90_ms);
    m.set("server.itl_p99_ms", plain.e2e.itl_p99_ms);
    m.set("proc.cpu_sys_share", plain.e2e.cpu_sys_share);
    m.set(
        "proc.ctx_switches_per_token",
        plain.e2e.ctx_switches_per_token,
    );
    m.set("proc.threads_peak", plain.threads_peak as f64);
    m.set("gen.sent", plain.phase.records.len() as f64);
    m.set("gen.late_ms_max", plain.phase.late_max.as_secs_f64() * 1e3);
    // Without the first and last segment: a fixed-work pass ramps up and
    // drains inside its own window.
    let rates = &plain.e2e.segment_rates;
    m.set(
        "gen.segment_iqr_tokens_per_s",
        quartile_spread(&rates[1..rates.len() - 1]),
    );
    for pass in [&plain, &timed] {
        v.attempted += pass.phase.records.len();
        let failed = pass
            .phase
            .records
            .iter()
            .filter(|r| r.outcome != Outcome::Finished);
        v.failed += failed.count();
        v.problems.extend(pass.problems.iter().cloned());
    }
    if v.failed > 0 {
        v.problems
            .push(format!("{} server-pass requests failed", v.failed));
    }

    let net_requests = if w.wire { n } else { NET_PASS_REQUESTS.min(n) };
    net_pass(w, seed, &built, net_requests, &mut m, &mut v);
    probes(w, seed, &built, &session.spans, &mut m);

    // The exported trace: the session pass's tree plus the traced server
    // pass's requests.
    request_spans(&rec, &timed.phase.records);
    let mut spans = session.spans;
    spans.extend(rec.take());
    if let Err(e) = check_tree(&spans) {
        v.problems.push(format!("trace is malformed: {e}"));
    }
    let step_ids: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.name == "session.step")
        .map(|s| s.id)
        .collect();
    if spans
        .iter()
        .any(|s| s.name.starts_with("executor.") && !step_ids.contains(&s.parent))
    {
        v.problems
            .push("an executor span has no session.step parent".into());
    }
    let path = trace_dir.join(format!("TRACE_{}.json", w.name));
    let written = std::fs::create_dir_all(trace_dir)
        .and_then(|()| std::fs::write(&path, chrome_trace(&spans)));
    if let Err(e) = written {
        v.problems
            .push(format!("cannot write {}: {e}", path.display()));
    }
    (m, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::by_name;
    use microscopiq_runtime::telemetry::Histogram;

    #[test]
    fn histogram_percentile_interpolates_inside_the_bucket() {
        let h = Histogram::new();
        // 1000..=1003 share one bucket (width 32 in this octave: 992..=1023).
        for v in [1000u64, 1001, 1002, 1003] {
            h.record(v);
        }
        let snap = h.snapshot();
        let (p25, p100) = (
            histogram_percentile(&snap, 25.0),
            histogram_percentile(&snap, 100.0),
        );
        assert_eq!(p25, 992.0 + 31.0 / 4.0);
        assert_eq!(p100, 1023.0);
        // Exact below 16, and across buckets the rank picks the bucket.
        let h = Histogram::new();
        for v in [3u64, 3, 3, 5000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(histogram_percentile(&snap, 50.0), 3.0);
        let top = histogram_percentile(&snap, 100.0);
        assert!((4864.0..=5119.0).contains(&top), "{top}");
        assert!(histogram_percentile(&HistogramSnapshot::default(), 50.0).is_nan());
    }

    /// The counts a later change may cite as evidence must not depend on
    /// timing: the closed-loop session pass is driven by the request list
    /// alone.
    #[test]
    fn session_pass_counts_for_decode_wide_repeat_exactly() {
        let w = by_name("decode_wide").unwrap();
        let built = build(&w.model);
        let pass = || {
            let mut m = Metrics::new(PER_LAYER);
            let rec = Arc::new(Recorder::default());
            let pass = session_pass(&w, 1, &built, 12, &rec, 4.0, &mut m);
            check_tree(&pass.spans).expect("well-formed span tree");
            let steps: Vec<u64> = pass
                .spans
                .iter()
                .filter(|s| s.name == "session.step")
                .map(|s| s.id)
                .collect();
            assert!(pass
                .spans
                .iter()
                .filter(|s| s.name.starts_with("executor."))
                .all(|s| steps.contains(&s.parent)));
            let counts: Vec<f64> = [
                "session.steps",
                "session.prefill_chunks",
                "session.batch_requests_mean",
                "session.new_tokens_per_step_mean",
                "session.prefill_token_share",
                "session.kv_peak_bytes",
                "executor.matmul_calls",
                "executor.gemv_calls",
                "executor.m_mean",
                "kernels.share_bucketed_cache",
                "cache.hit_ratio",
            ]
            .iter()
            .map(|name| m.get(name).expect("set by the session pass"))
            .collect();
            (counts, pass.spans.len(), pass.prompt_tokens)
        };
        let first = pass();
        assert!(first.0[0] > 0.0 && first.0[6] > 0.0);
        assert_eq!(first, pass());
    }
}
