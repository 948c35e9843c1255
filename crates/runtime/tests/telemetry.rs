//! Telemetry conformance: the observability layer must *observe*, never
//! *perturb*.
//!
//! * **Non-interference** — served token streams are bitwise identical
//!   with and without tracing (metrics are always on), and identical to
//!   the offline [`Session::run_to_completion`] reference.
//! * **Accounting identity** — after the server drains, the lifecycle
//!   counters balance: admitted = finished + cancelled + expired +
//!   faulted; the queue-depth and KV gauges return to zero; histogram
//!   counts equal the token counts the client actually observed.
//! * **Trace schema** — the exported trace is valid Chrome trace-event
//!   JSON (checked with a hand-rolled parser, no serde) carrying the
//!   expected per-request and per-step events.

use microscopiq_core::{MicroScopiQ, QuantConfig};
use microscopiq_fm::{DequantGemm, KvMode, PackedTinyFm, TinyFm, TinyFmConfig};
use microscopiq_linalg::SeededRng;
use microscopiq_runtime::{
    Deadline, GenRequest, GenResult, RequestOptions, RuntimeEngine, ServeError, Server,
    ServerConfig, ServerHandle, Session, StreamEvent,
};
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

fn serve_all(model: &PackedTinyFm, cfg: ServerConfig, reqs: &[GenRequest]) -> Vec<GenResult> {
    let server = Server::spawn(model.clone(), DequantGemm, cfg).unwrap();
    let handle = server.handle();
    let streams: Vec<_> = reqs
        .iter()
        .map(|r| handle.submit(r.clone()).expect("submit"))
        .collect();
    streams
        .into_iter()
        .map(|s| s.collect().expect("stream completes"))
        .collect()
}

/// Polls `cond` until it holds or the deadline passes.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

// ---------------------------------------------------------------------
// Non-interference: untraced and traced streams are bitwise identical.
// ---------------------------------------------------------------------

#[test]
fn streams_bitwise_identical_untraced_and_traced() {
    let model = packed_model(51, 4);
    let reqs = request_fleet(24, model.config().vocab, 17);

    // Offline reference (no server, no telemetry wiring at all).
    let mut session = Session::with_kv_mode(model.clone(), DequantGemm, 4, KvMode::Exact).unwrap();
    for r in &reqs {
        session.submit(r.clone());
    }
    let offline = session.run_to_completion();

    let base = ServerConfig {
        max_batch: 8,
        prefill_chunk: 2,
        ..ServerConfig::default()
    };
    let untraced = serve_all(&model, base, &reqs);
    let traced = serve_all(
        &model,
        ServerConfig {
            trace_events: 1 << 14,
            ..base
        },
        &reqs,
    );

    for ((want, a), b) in offline.iter().zip(&untraced).zip(&traced) {
        assert_eq!(
            a.tokens, want.tokens,
            "untraced server diverged from offline"
        );
        assert_eq!(b.tokens, want.tokens, "tracing diverged from offline");
    }
}

// ---------------------------------------------------------------------
// Accounting identity under churn.
// ---------------------------------------------------------------------

struct Observed {
    tokens: usize,
    finished: usize,
    expired: usize,
    faulted: usize,
    cancelled: usize,
}

/// Drains one stream to its terminal state, counting what the client saw.
/// Cancelled streams terminate as `Disconnected` (the worker retires them
/// without a terminal event).
fn drain(mut stream: microscopiq_runtime::ResponseStream, obs: &mut Observed) {
    loop {
        match stream.next_event() {
            Some(StreamEvent::Token(_)) => obs.tokens += 1,
            Some(StreamEvent::Sample { .. }) => {}
            Some(StreamEvent::Finished(_)) => {
                obs.finished += 1;
                return;
            }
            Some(StreamEvent::Error(ServeError::DeadlineExceeded)) => {
                obs.expired += 1;
                return;
            }
            Some(StreamEvent::Error(ServeError::WorkerPanicked(_))) => {
                obs.faulted += 1;
                return;
            }
            Some(StreamEvent::Error(ServeError::Disconnected)) | None => {
                obs.cancelled += 1;
                return;
            }
            Some(StreamEvent::Error(ServeError::Shed)) => {
                unreachable!("no shed policy configured in this test")
            }
        }
    }
}

#[test]
fn metrics_identity_holds_under_submit_cancel_deadline_churn() {
    let model = packed_model(52, 4);
    let vocab = model.config().vocab;
    let server = Server::spawn(
        model,
        DequantGemm,
        ServerConfig {
            max_batch: 4,
            max_in_flight: 8,
            pace: Duration::from_millis(1),
            trace_events: 1 << 12,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handle = server.handle();

    // Three submitter threads racing the worker: normal requests,
    // cancel-at-submit requests, zero-step deadlines, and one malformed
    // prompt that faults at admission.
    let fleets: Vec<std::thread::JoinHandle<Observed>> = (0..3)
        .map(|t| {
            let handle = handle.clone();
            std::thread::spawn(move || {
                let mut rng = SeededRng::new(100 + t);
                let mut obs = Observed {
                    tokens: 0,
                    finished: 0,
                    expired: 0,
                    faulted: 0,
                    cancelled: 0,
                };
                let mut streams = Vec::new();
                for i in 0..12usize {
                    let req = GenRequest {
                        prompt: if t == 0 && i == 7 {
                            Vec::new() // malformed: faults at admission
                        } else {
                            (0..1 + rng.below(4)).map(|_| rng.below(vocab)).collect()
                        },
                        max_new_tokens: 1 + rng.below(4),
                        temperature: 0.8,
                        seed: t * 1000 + i as u64,
                        ..Default::default()
                    };
                    let opts = if i % 4 == 3 {
                        RequestOptions {
                            deadline: Some(Deadline::Steps(0)),
                            ..RequestOptions::default()
                        }
                    } else {
                        RequestOptions::default()
                    };
                    let stream = handle.submit_with(req, opts).expect("submit");
                    if i % 5 == 4 {
                        stream.cancel();
                    }
                    streams.push(stream);
                }
                for s in streams {
                    drain(s, &mut obs);
                }
                obs
            })
        })
        .collect();
    let mut obs = Observed {
        tokens: 0,
        finished: 0,
        expired: 0,
        faulted: 0,
        cancelled: 0,
    };
    let mut submitted = 0usize;
    for f in fleets {
        let o = f.join().unwrap();
        obs.tokens += o.tokens;
        obs.finished += o.finished;
        obs.expired += o.expired;
        obs.faulted += o.faulted;
        obs.cancelled += o.cancelled;
        submitted += 12;
    }

    // Every stream is terminal; wait for the worker to retire the last
    // request and publish its gauges.
    wait_until("server drain", || {
        handle.live_streams() == 0 && handle.queue_depth() == 0
    });

    let snap = handle.metrics_snapshot();
    let admitted = snap.counter("microscopiq_requests_admitted_total");
    let finished = snap.counter("microscopiq_requests_finished_total");
    let cancelled = snap.counter("microscopiq_requests_cancelled_total");
    let expired = snap.counter("microscopiq_requests_expired_total");
    let faulted = snap.counter("microscopiq_requests_faulted_total");

    // Identity: everything admitted reached exactly one terminal state
    // (in-flight is zero after the drain).
    assert_eq!(admitted, submitted as u64, "every submission was admitted");
    assert_eq!(
        admitted,
        finished + cancelled + expired + faulted,
        "lifecycle counters must balance after drain \
         (finished={finished} cancelled={cancelled} expired={expired} faulted={faulted})"
    );
    // Terminal outcomes agree with what the clients saw. (A stream
    // cancelled at submit can race its own first sweep, so the
    // client-observed cancelled/finished split may differ from the
    // server's by requests that finished before the flag was seen — but
    // expired and faulted are deterministic.)
    assert_eq!(
        finished as usize + cancelled as usize,
        obs.finished + obs.cancelled
    );
    assert_eq!(expired as usize, obs.expired, "deadline expiries");
    assert_eq!(faulted as usize, obs.faulted, "admission faults");

    // Gauges return to zero once drained.
    assert_eq!(snap.gauge("microscopiq_queue_depth"), Some(0));
    assert_eq!(snap.gauge("microscopiq_live_streams"), Some(0));
    assert_eq!(
        snap.gauge("microscopiq_kv_rows"),
        Some(0),
        "KV fully reclaimed"
    );
    assert_eq!(handle.kv_rows(), 0);

    // Token accounting: the server recorded exactly the tokens clients
    // observed (receivers stayed alive, so no send ever failed).
    assert_eq!(
        snap.counter("microscopiq_tokens_streamed_total"),
        obs.tokens as u64
    );
    let ttft = snap
        .histogram("microscopiq_ttft_us")
        .expect("ttft histogram");
    let inter = snap
        .histogram("microscopiq_inter_token_us")
        .expect("inter-token histogram");
    let streams_with_tokens = ttft.count;
    assert_eq!(
        ttft.count,
        snap.histogram("microscopiq_admit_to_first_token_us")
            .unwrap()
            .count,
        "both first-token histograms record the same events"
    );
    assert_eq!(
        streams_with_tokens + inter.count,
        obs.tokens as u64,
        "first-token + inter-token samples partition the token stream"
    );
    let queue_wait = snap.histogram("microscopiq_queue_wait_us").unwrap();
    assert!(
        queue_wait.count <= admitted && queue_wait.count >= finished,
        "queue-wait samples cover live admissions only"
    );

    drop(handle);
    let report = server.shutdown();
    assert_eq!(report.served, finished as usize);
    assert_eq!(report.cancelled, cancelled as usize);
    assert_eq!(report.expired, expired as usize);
    assert_eq!(report.faulted, faulted as usize);
    assert_eq!(report.shed, 0, "no shed policy, nothing shed");
}

// ---------------------------------------------------------------------
// Queue-depth visibility.
// ---------------------------------------------------------------------

/// A server pacing 20 ms per step, so submissions back to back outrun
/// the worker deterministically; returns it with `n` streams submitted.
fn paced_flood(
    max_batch: usize,
    max_in_flight: usize,
    n: usize,
) -> (
    Server,
    ServerHandle,
    Vec<microscopiq_runtime::ResponseStream>,
) {
    let model = packed_model(53, 4);
    let vocab = model.config().vocab;
    let server = Server::spawn(
        model,
        DequantGemm,
        ServerConfig {
            max_batch,
            max_in_flight,
            pace: Duration::from_millis(20),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handle = server.handle();
    assert_eq!(handle.queue_depth(), 0, "idle server has an empty queue");
    let streams = (0..n)
        .map(|i| {
            handle
                .submit(GenRequest {
                    prompt: vec![i % vocab],
                    max_new_tokens: 4,
                    temperature: 0.8,
                    seed: i as u64,
                    ..Default::default()
                })
                .unwrap()
        })
        .collect();
    (server, handle, streams)
}

#[test]
fn queue_depth_surfaces_backpressure_and_drains_to_zero() {
    let (_server, handle, streams) = paced_flood(1, 1, 4);
    // With max_in_flight = 1 the worker holds one request live and paces
    // 20 ms per step, so at least the last two submissions are still
    // queued (or being pulled) right now.
    assert!(
        handle.queue_depth() >= 2,
        "queued submissions must be visible, got {}",
        handle.queue_depth()
    );

    for s in streams {
        s.collect().expect("stream completes");
    }
    wait_until("queue drain", || {
        handle.queue_depth() == 0 && handle.live_streams() == 0
    });
}

/// The flood case of the test above: 64 submissions against
/// `max_in_flight: 64` must be seen live together — a request needs four
/// 20 ms steps, and the whole flood is submitted in far less — so
/// `peak_live_streams` reaches at least 32, then everything drains.
#[test]
fn peak_live_streams_surfaces_a_flood_and_drains_to_zero() {
    let (_server, handle, streams) = paced_flood(32, 64, 64);
    for s in streams {
        s.collect().expect("stream completes");
    }
    assert!(
        handle.peak_live_streams() >= 32,
        "a flood must sustain >= 32 concurrent streams, got {}",
        handle.peak_live_streams()
    );
    wait_until("flood drain", || {
        handle.queue_depth() == 0 && handle.live_streams() == 0
    });
}

// ---------------------------------------------------------------------
// Scheduler / kernel / cache instrumentation populates end to end.
// ---------------------------------------------------------------------

#[test]
fn scheduler_kernel_and_cache_metrics_populate() {
    let model = packed_model(54, 4);
    let reqs = request_fleet(10, model.config().vocab, 33);
    let total_new: usize = reqs.iter().map(|r| r.max_new_tokens).sum();
    // Zero-budget requests finish instantly without a prefill pass, so
    // their prompts never count as prefill tokens.
    let total_prompt: usize = reqs
        .iter()
        .filter(|r| r.max_new_tokens > 0)
        .map(|r| r.prompt.len())
        .sum();

    let server = Server::spawn(model, RuntimeEngine::parallel(), ServerConfig::default()).unwrap();
    let handle = server.handle();
    let streams: Vec<_> = reqs
        .iter()
        .map(|r| handle.submit(r.clone()).unwrap())
        .collect();
    for s in streams {
        s.collect().expect("stream completes");
    }
    wait_until("drain", || handle.live_streams() == 0);
    let snap = handle.metrics_snapshot();

    // Scheduler: steps ran, prompts prefilled, budgets generated.
    assert!(snap.counter("microscopiq_scheduler_steps_total") > 0);
    assert_eq!(
        snap.counter("microscopiq_tokens_generated_total"),
        total_new as u64
    );
    assert_eq!(
        snap.counter("microscopiq_prefill_tokens_total"),
        total_prompt as u64
    );
    assert!(
        snap.histogram("microscopiq_step_batch_requests")
            .unwrap()
            .count
            > 0
    );

    // Kernels: the engine recorded per-(kernel, op, bits) invocations
    // and decoded-group volume.
    assert!(
        snap.counter("microscopiq_kernel_calls_total") > 0,
        "kernel call counters must populate"
    );
    assert!(snap.counter("microscopiq_kernel_decoded_groups_total") > 0);
    let has_op_label = snap
        .samples
        .iter()
        .filter(|s| s.name == "microscopiq_kernel_calls_total")
        .all(|s| {
            s.labels.iter().any(|(k, _)| *k == "op")
                && s.labels.iter().any(|(k, _)| *k == "bits")
                && s.labels.iter().any(|(k, _)| *k == "kernel")
        });
    assert!(
        has_op_label,
        "kernel samples carry (kernel, op, bits) labels"
    );

    // Decoded cache (enabled on the parallel engine): every lookup is a
    // hit or a miss.
    let hits = snap
        .counter_with("microscopiq_cache_events_total", &[("event", "hit")])
        .expect("cache hit counter");
    let misses = snap
        .counter_with("microscopiq_cache_events_total", &[("event", "miss")])
        .expect("cache miss counter");
    assert!(hits + misses > 0, "decode ran through the cached path");

    drop(handle);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Prometheus text exposition.
// ---------------------------------------------------------------------

#[test]
fn render_text_emits_prometheus_exposition_format() {
    let model = packed_model(55, 2);
    let reqs = request_fleet(6, model.config().vocab, 5);
    let server = Server::spawn(model, DequantGemm, ServerConfig::default()).unwrap();
    let handle = server.handle();
    let streams: Vec<_> = reqs
        .iter()
        .map(|r| handle.submit(r.clone()).unwrap())
        .collect();
    for s in streams {
        s.collect().expect("stream completes");
    }
    let text = handle.render_metrics();

    for needle in [
        "# HELP microscopiq_requests_admitted_total",
        "# TYPE microscopiq_requests_admitted_total counter",
        "# TYPE microscopiq_queue_depth gauge",
        "# TYPE microscopiq_ttft_us histogram",
        "microscopiq_ttft_us_bucket{class=\"interactive\",le=\"+Inf\"}",
        "microscopiq_ttft_us_sum{class=\"interactive\"}",
        "microscopiq_ttft_us_count{class=\"interactive\"}",
        "microscopiq_requests_shed_total{class=\"best_effort\"} 0",
        "microscopiq_scheduler_steps_total",
    ] {
        assert!(
            text.contains(needle),
            "missing {needle:?} in rendering:\n{text}"
        );
    }
    drop(handle);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Trace export: valid Chrome trace-event JSON with the expected events.
// ---------------------------------------------------------------------

/// Minimal JSON value for schema checking (hand-rolled; the workspace has
/// no serde).
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Self {
            s: s.as_bytes(),
            i: 0,
        }
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn expect(&mut self, b: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i).copied(),
            Some(b),
            "expected {:?} at byte {}",
            b as char,
            self.i
        );
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        *self
            .s
            .get(self.i)
            .unwrap_or_else(|| panic!("unexpected end of JSON"))
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Json::Str(self.string()),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Json {
        self.ws();
        assert!(
            self.s[self.i..].starts_with(word.as_bytes()),
            "bad literal at byte {}",
            self.i
        );
        self.i += word.len();
        v
    }

    fn object(&mut self) -> Json {
        self.expect(b'{');
        let mut fields = Vec::new();
        if self.peek() == b'}' {
            self.i += 1;
            return Json::Obj(fields);
        }
        loop {
            let key = self.string();
            self.expect(b':');
            fields.push((key, self.value()));
            match self.peek() {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                c => panic!("bad object separator {:?} at byte {}", c as char, self.i),
            }
        }
    }

    fn array(&mut self) -> Json {
        self.expect(b'[');
        let mut items = Vec::new();
        if self.peek() == b']' {
            self.i += 1;
            return Json::Arr(items);
        }
        loop {
            items.push(self.value());
            match self.peek() {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Json::Arr(items);
                }
                c => panic!("bad array separator {:?} at byte {}", c as char, self.i),
            }
        }
    }

    fn string(&mut self) -> String {
        self.expect(b'"');
        let mut out = String::new();
        loop {
            let b = self.s[self.i];
            self.i += 1;
            match b {
                b'"' => return out,
                b'\\' => {
                    let e = self.s[self.i];
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.s[self.i..self.i + 4]).unwrap();
                            let cp = u32::from_str_radix(hex, 16).expect("bad \\u escape");
                            self.i += 4;
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        _ => panic!("bad escape \\{} at byte {}", e as char, self.i),
                    }
                }
                _ => out.push(b as char),
            }
        }
    }

    fn number(&mut self) -> Json {
        self.ws();
        let start = self.i;
        while self.i < self.s.len()
            && matches!(
                self.s[self.i],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
        Json::Num(
            text.parse()
                .unwrap_or_else(|_| panic!("bad number {text:?}")),
        )
    }

    fn parse(mut self) -> Json {
        let v = self.value();
        self.ws();
        assert_eq!(self.i, self.s.len(), "trailing bytes after JSON document");
        v
    }
}

fn serve_traced(model: &PackedTinyFm, reqs: &[GenRequest]) -> (String, ServerHandle, Server) {
    let server = Server::spawn(
        model.clone(),
        DequantGemm,
        ServerConfig {
            max_batch: 4,
            prefill_chunk: 2,
            trace_events: 1 << 14,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handle = server.handle();
    let streams: Vec<_> = reqs
        .iter()
        .map(|r| handle.submit(r.clone()).unwrap())
        .collect();
    for s in streams {
        s.collect().expect("stream completes");
    }
    wait_until("drain", || handle.live_streams() == 0);
    let json = handle.export_trace().expect("tracing was enabled");
    (json, handle, server)
}

#[test]
fn exported_trace_is_valid_chrome_trace_event_json() {
    let model = packed_model(56, 4);
    let mut reqs = request_fleet(8, model.config().vocab, 21);
    // Force chunked prefill spans: one prompt well past the chunk size.
    reqs[0].prompt = (0..9).map(|t| t % model.config().vocab).collect();
    let (json, handle, server) = serve_traced(&model, &reqs);

    let doc = Parser::new(&json).parse();
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert!(!events.is_empty(), "trace captured no events");

    let mut names = std::collections::BTreeSet::new();
    for ev in events {
        let name = ev.get("name").and_then(Json::as_str).expect("name: string");
        names.insert(name.to_string());
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph: string");
        let ts = ev.get("ts").and_then(Json::as_num).expect("ts: number");
        assert!(ts >= 0.0, "timestamps are non-negative microseconds");
        ev.get("pid").and_then(Json::as_num).expect("pid: number");
        let tid = ev.get("tid").and_then(Json::as_num).expect("tid: number");
        match ph {
            "X" => {
                let dur = ev.get("dur").and_then(Json::as_num).expect("X has dur");
                assert!(dur >= 0.0);
            }
            "i" => {
                assert_eq!(
                    ev.get("s").and_then(Json::as_str),
                    Some("t"),
                    "instants carry thread scope"
                );
            }
            other => panic!("unexpected phase {other:?}"),
        }
        // Scheduler lane (tid 0) carries only step spans; request lanes
        // are tid >= 1.
        if name == "step" {
            assert_eq!(tid, 0.0, "step spans live on the scheduler lane");
            let args = ev.get("args").expect("step spans carry batch args");
            let arg = |key: &str| {
                args.get(key)
                    .and_then(Json::as_num)
                    .unwrap_or_else(|| panic!("step args missing {key}"))
            };
            for key in ["requests", "queue_depth", "kv_rows"] {
                arg(key);
            }
            assert_eq!(
                arg("prefill_tokens") + arg("recompute_tokens") + arg("decode_segments"),
                arg("new_tokens"),
                "a step's token args partition its new tokens"
            );
        } else {
            assert!(tid >= 1.0, "per-request events live on request lanes");
        }
    }
    for expected in [
        "enqueued",
        "admitted",
        "prefill_chunk",
        "first_token",
        "finished",
        "step",
    ] {
        assert!(
            names.contains(expected),
            "trace missing {expected:?} events"
        );
    }

    drop(handle);
    server.shutdown();
}
