//! Threaded serving front-end over [`Session`]/[`BatchScheduler`]: a
//! dedicated worker thread drives the continuous-batching decode loop
//! while any number of client threads submit requests and consume
//! per-token [`ResponseStream`]s — std threads and channels only, no
//! async runtime.
//!
//! ```text
//! client threads                     worker thread
//! ──────────────                     ─────────────────────────────────
//! handle.submit(req) ──bounded──▶    admit between steps   ┐
//!        │             queue        sweep deadlines/drops  │ per step
//!        ▼                          session.step_report()  │
//! ResponseStream ◀──per-request──   stream emitted tokens  ┘
//!   (drop = cancel)    channel      finish / expire / fault streams
//! ```
//!
//! Properties the conformance suite pins down:
//!
//! * **Continuous admission** — the worker drains the admission queue
//!   between *every* decode step, so requests join the running batch
//!   mid-flight, not at batch boundaries.
//! * **Determinism** — a request's token stream depends only on
//!   (model, prompt, seed, temperature), never on batching or
//!   arrival timing: streams are bitwise identical to the offline
//!   [`Session::run_to_completion`] output.
//! * **Cooperative cancellation** — dropping a [`ResponseStream`] sets a
//!   shared flag; the worker retires the request at the next sweep,
//!   releasing its batch slot and KV cache without touching other
//!   streams.
//! * **Chunked prefill** — with [`ServerConfig::prefill_chunk`] set, a
//!   long prompt advances a bounded chunk per step instead of stalling
//!   every live stream for one monolithic quadratic-attention forward; a
//!   request parked mid-prefill emits no tokens until the step that
//!   completes its prompt, and exact-KV outputs are bitwise identical to
//!   whole-prompt prefill for any chunk size.
//! * **Deadlines** — per-request [`Deadline`]s are checked between
//!   steps; an expired request (even one still waiting for its prefill,
//!   or parked partway through a chunked prefill) is retired with
//!   [`ServeError::DeadlineExceeded`] and its partial KV reclaimed.
//! * **Backpressure** — the admission queue is bounded
//!   ([`ServerConfig::queue_capacity`]); when the worker is saturated
//!   ([`ServerConfig::max_in_flight`] live requests) submissions block
//!   or are rejected per [`AdmissionPolicy`].
//! * **Fault isolation** — a panic while admitting a request (e.g. a
//!   malformed prompt validated on the worker) faults only that stream;
//!   a panic inside the shared batched forward faults only the requests
//!   that rode the panicked batch — queued requests keep serving and
//!   the server keeps accepting new work.

mod admission;
mod stream;

pub use admission::{
    AdmissionPolicy, Deadline, RequestOptions, ServerConfig, ShedPolicy, SubmitError,
};
pub(crate) use stream::FailoverCtx;
pub use stream::{ResponseStream, ServeError, StreamEvent};

use crate::prefix::{PrefixCacheStats, PrefixMetrics};
use crate::session::{GenRequest, GenResult, QosClass, RequestId, Session, SessionStats};
use crate::telemetry::{
    Counter, EngineTelemetry, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, TraceArg,
    TraceSink,
};
use admission::{Incoming, WorkerMsg};
use microscopiq_core::error::QuantError;
use microscopiq_fm::{PackedGemm, PackedTinyFm};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

/// Server-side instruments, registered into the session's
/// [`MetricsRegistry`] at spawn and shared (via [`Shared`]) between the
/// worker and every [`ServerHandle`]. Latency histograms record whole
/// microseconds.
#[derive(Debug)]
struct ServerMetrics {
    admitted: Arc<Counter>,
    rejected: Arc<Counter>,
    finished: Arc<Counter>,
    cancelled: Arc<Counter>,
    expired: Arc<Counter>,
    faulted: Arc<Counter>,
    tokens_streamed: Arc<Counter>,
    live: Arc<Gauge>,
    peak_live: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
    /// The session's KV-rows gauge (registered by the session; shared
    /// here so [`ServerHandle::kv_rows`] reads it without a snapshot).
    kv_rows: Arc<Gauge>,
    /// The session's KV-bytes gauge — what
    /// [`ServerConfig::kv_byte_budget`] is enforced against.
    kv_bytes: Arc<Gauge>,
    /// The session's in-step peak KV-bytes gauge (high-water mark).
    kv_peak_bytes: Arc<Gauge>,
    queue_wait_us: Arc<Histogram>,
    admit_to_first_token_us: Arc<Histogram>,
    /// Per-[`QosClass`] series (indexed by [`QosClass::index`]) of the
    /// `microscopiq_ttft_us{class=..}` family — the substrate the
    /// [`ShedPolicy`] latency trigger reads.
    ttft_us: [Arc<Histogram>; 3],
    /// Per-class series of `microscopiq_inter_token_us{class=..}`.
    inter_token_us: [Arc<Histogram>; 3],
    /// Per-class `microscopiq_requests_shed_total{class=..}`: refused at
    /// submit or retired at admission by the shed policy.
    shed: [Arc<Counter>; 3],
}

impl ServerMetrics {
    fn register(
        reg: &MetricsRegistry,
        kv_rows: Arc<Gauge>,
        kv_bytes: Arc<Gauge>,
        kv_peak_bytes: Arc<Gauge>,
    ) -> Self {
        Self {
            admitted: reg.counter(
                "microscopiq_requests_admitted_total",
                "Submissions the worker pulled off the admission queue (including ones \
                 cancelled while queued or faulted at admission).",
            ),
            rejected: reg.counter(
                "microscopiq_requests_rejected_total",
                "Submissions refused at the queue under the Reject policy.",
            ),
            finished: reg.counter(
                "microscopiq_requests_finished_total",
                "Requests that ran to their token budget.",
            ),
            cancelled: reg.counter(
                "microscopiq_requests_cancelled_total",
                "Requests retired because their stream was dropped or cancelled.",
            ),
            expired: reg.counter(
                "microscopiq_requests_expired_total",
                "Requests retired by deadline expiry.",
            ),
            faulted: reg.counter(
                "microscopiq_requests_faulted_total",
                "Streams terminated by a worker panic.",
            ),
            tokens_streamed: reg.counter(
                "microscopiq_tokens_streamed_total",
                "Tokens pushed onto response streams.",
            ),
            live: reg.gauge(
                "microscopiq_live_streams",
                "Streams currently admitted and unfinished.",
            ),
            peak_live: reg.gauge(
                "microscopiq_peak_live_streams",
                "Most streams ever live at once.",
            ),
            queue_depth: reg.gauge(
                "microscopiq_queue_depth",
                "Submissions enqueued (or blocked entering the queue) and not yet \
                 pulled by the worker.",
            ),
            kv_rows,
            kv_bytes,
            kv_peak_bytes,
            queue_wait_us: reg.histogram(
                "microscopiq_queue_wait_us",
                "Enqueue-to-admission latency per request, microseconds.",
            ),
            admit_to_first_token_us: reg.histogram(
                "microscopiq_admit_to_first_token_us",
                "Admission-to-first-token latency per request, microseconds.",
            ),
            ttft_us: QosClass::ALL.map(|c| {
                reg.histogram_labeled(
                    "microscopiq_ttft_us",
                    "Enqueue-to-first-token latency per request, microseconds (the \
                     client-observed TTFT), by QoS class.",
                    vec![("class", c.label().to_string())],
                )
            }),
            inter_token_us: QosClass::ALL.map(|c| {
                reg.histogram_labeled(
                    "microscopiq_inter_token_us",
                    "Gap between consecutive streamed tokens of one request, \
                     microseconds, by QoS class.",
                    vec![("class", c.label().to_string())],
                )
            }),
            shed: QosClass::ALL.map(|c| {
                reg.counter_labeled(
                    "microscopiq_requests_shed_total",
                    "Requests refused or retired by the shed policy, by QoS class.",
                    vec![("class", c.label().to_string())],
                )
            }),
        }
    }
}

/// State shared between the worker thread and every [`ServerHandle`].
#[derive(Debug)]
struct Shared {
    registry: MetricsRegistry,
    metrics: ServerMetrics,
    /// Present only when [`ServerConfig::trace_events`] > 0.
    trace: Option<Arc<TraceSink>>,
    /// Prefix-cache metric handles, present only when
    /// [`ServerConfig::prefix_cache`] is set — lets
    /// [`ServerHandle::prefix_cache_stats`] read counters without
    /// crossing into the worker thread.
    prefix: Option<PrefixMetrics>,
    /// Current overload shed level, published by the worker between
    /// steps and read by every handle at submit time. 0 = serve all;
    /// 1 = shed best-effort; 2 = shed batch too. Stays 0 without a
    /// [`ShedPolicy`].
    shed_level: AtomicU8,
    /// Set once the worker thread exits — through a drop guard, so a
    /// panicking worker (even one that died outside its per-request
    /// guards) flips it during unwinding. A fleet router uses this to
    /// pull dead workers from rotation without having to probe them
    /// with a doomed submission.
    worker_exited: AtomicBool,
}

/// Flips [`Shared::worker_exited`] when the worker's stack unwinds,
/// whether by normal return or panic.
struct ExitFlag(Arc<Shared>);

impl Drop for ExitFlag {
    fn drop(&mut self) {
        self.0.worker_exited.store(true, Ordering::SeqCst);
    }
}

/// Final accounting returned by [`Server::shutdown`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerReport {
    /// Counters from the underlying [`Session`].
    pub session: SessionStats,
    /// Requests that ran to their token budget.
    pub served: usize,
    /// Requests retired because their stream was dropped or cancelled.
    pub cancelled: usize,
    /// Requests retired by deadline expiry.
    pub expired: usize,
    /// Streams terminated by a worker panic.
    pub faulted: usize,
    /// Queued requests retired at admission by the shed policy: admitted
    /// minus every other terminal outcome, since no stream is live at
    /// exit (submit-time refusals are counted only in the
    /// `microscopiq_requests_shed_total` metric — they were never
    /// admitted).
    pub shed: usize,
    /// KV rows still held at exit — 0 unless the worker died abnormally.
    pub final_kv_rows: usize,
    /// Most streams ever live at once (admitted and unfinished).
    pub peak_live: usize,
}

/// Cheap, cloneable submission endpoint for a running [`Server`].
#[derive(Debug, Clone)]
pub struct ServerHandle {
    tx: mpsc::SyncSender<WorkerMsg>,
    policy: AdmissionPolicy,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Submits a request with default options, returning its stream.
    /// Under [`AdmissionPolicy::Block`] this blocks while the admission
    /// queue is full; under [`AdmissionPolicy::Reject`] it fails fast
    /// with [`SubmitError::QueueFull`].
    ///
    /// Prompt validation happens on the worker, not here: a malformed
    /// request (empty or out-of-vocabulary prompt) is accepted and then
    /// surfaces as [`ServeError::WorkerPanicked`] on its own stream.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] (reject policy, queue at capacity) or
    /// [`SubmitError::ServerClosed`] (worker gone).
    pub fn submit(&self, req: GenRequest) -> Result<ResponseStream, SubmitError> {
        self.submit_with(req, RequestOptions::default())
    }

    /// [`ServerHandle::submit`] with per-request options (deadline).
    ///
    /// # Errors
    ///
    /// Same as [`ServerHandle::submit`], plus [`SubmitError::Shed`]
    /// when the worker's [`ShedPolicy`] is currently shedding the
    /// request's QoS class.
    pub fn submit_with(
        &self,
        req: GenRequest,
        opts: RequestOptions,
    ) -> Result<ResponseStream, SubmitError> {
        // Fast-path overload rejection: the worker publishes its shed
        // level between steps; sheddable classes are refused here
        // before they ever consume a queue slot.
        let level = self.shared.shed_level.load(Ordering::Relaxed);
        if level >= ShedPolicy::shed_at(req.class) {
            self.shared.metrics.shed[req.class.index()].inc();
            return Err(SubmitError::Shed);
        }
        let (events, rx) = mpsc::channel();
        let cancelled = Arc::new(AtomicBool::new(false));
        let inc = Incoming {
            req,
            opts,
            events,
            cancelled: Arc::clone(&cancelled),
            submitted: Instant::now(),
        };
        // Count the submission into the queue-depth gauge *before* the
        // send: under `Block` a full queue parks this thread, and a
        // blocked submitter is queue pressure the worker should see.
        // The worker decrements on every pull, so depth returns to 0
        // once the queue drains; a failed send undoes the increment.
        let depth = &self.shared.metrics.queue_depth;
        depth.add(1);
        let sent = match self.policy {
            AdmissionPolicy::Block => self
                .tx
                .send(WorkerMsg::Submit(inc))
                .map_err(|_| SubmitError::ServerClosed),
            AdmissionPolicy::Reject => {
                self.tx
                    .try_send(WorkerMsg::Submit(inc))
                    .map_err(|e| match e {
                        mpsc::TrySendError::Full(_) => SubmitError::QueueFull,
                        mpsc::TrySendError::Disconnected(_) => SubmitError::ServerClosed,
                    })
            }
        };
        if let Err(e) = sent {
            depth.add(-1);
            if e == SubmitError::QueueFull {
                self.shared.metrics.rejected.inc();
            }
            return Err(e);
        }
        Ok(ResponseStream {
            rx,
            cancelled,
            terminated: false,
            failover: None,
        })
    }

    /// The current overload shed level: 0 = serving every class, 1 =
    /// shedding best-effort, 2 = shedding batch too. Always 0 without a
    /// [`ShedPolicy`].
    pub fn shed_level(&self) -> u8 {
        self.shared.shed_level.load(Ordering::Relaxed)
    }

    /// Whether the worker thread is still running. Flips to `false`
    /// the moment the worker exits — normal shutdown drain *or* a
    /// crash (set by a drop guard during unwinding) — so a router can
    /// pull a dead worker from rotation without probing it with a
    /// doomed submission.
    pub fn worker_alive(&self) -> bool {
        !self.shared.worker_exited.load(Ordering::SeqCst)
    }

    /// Failure-injection hook: makes the worker thread panic *outside*
    /// its per-step panic guard, killing it the way an unexpected crash
    /// would — live streams see [`ServeError::Disconnected`], later
    /// submissions fail with [`SubmitError::ServerClosed`], and a
    /// [`Fleet`](crate::net::Fleet) drops the worker from rotation.
    /// Used by the chaos tests; never called in normal operation.
    pub fn inject_worker_panic(&self) {
        let _ = self.tx.send(WorkerMsg::InjectPanic);
    }

    /// Streams currently live (admitted and unfinished).
    pub fn live_streams(&self) -> usize {
        self.shared.metrics.live.get().max(0) as usize
    }

    /// Most streams ever live at once.
    pub fn peak_live_streams(&self) -> usize {
        self.shared.metrics.peak_live.get().max(0) as usize
    }

    /// KV rows currently held by live requests (see
    /// [`Session::kv_occupancy`]).
    pub fn kv_rows(&self) -> usize {
        self.shared.metrics.kv_rows.get().max(0) as usize
    }

    /// KV storage bytes currently held by live requests (see
    /// [`Session::kv_occupancy_bytes`]) — the figure
    /// [`ServerConfig::kv_byte_budget`] bounds.
    pub fn kv_bytes(&self) -> usize {
        self.shared.metrics.kv_bytes.get().max(0) as usize
    }

    /// Largest KV byte occupancy ever observed inside a step (after the
    /// forward, before finished requests release). With
    /// [`ServerConfig::kv_byte_budget`] set this never exceeds the
    /// budget unless interactive demand alone exceeds it.
    pub fn peak_kv_bytes(&self) -> usize {
        self.shared.metrics.kv_peak_bytes.get().max(0) as usize
    }

    /// Prefix-cache counters and residency; `None` unless the server
    /// was spawned with [`ServerConfig::prefix_cache`] set. Reads the
    /// shared metric handles — no worker round-trip.
    pub fn prefix_cache_stats(&self) -> Option<PrefixCacheStats> {
        self.shared.prefix.as_ref().map(|m| m.snapshot())
    }

    /// Asks the worker to replace the prefix-cache byte budget, evicting
    /// down to it between steps (0 drains every unreferenced trie
    /// node). No-op when the cache is disabled or the worker is gone.
    pub fn set_prefix_cache_capacity(&self, capacity_bytes: usize) {
        let _ = self.tx.send(WorkerMsg::SetPrefixCapacity(capacity_bytes));
    }

    /// Submissions currently waiting in (or blocked entering) the
    /// admission queue — the backpressure a client would face right
    /// now. Under [`AdmissionPolicy::Reject`] a positive depth warns
    /// that `submit` may soon fail with
    /// [`SubmitError::QueueFull`]; previously that was observable only
    /// by failing.
    pub fn queue_depth(&self) -> usize {
        self.shared.metrics.queue_depth.get().max(0) as usize
    }

    /// A point-in-time snapshot of every registered instrument across
    /// the stack: scheduler, server lifecycle, kernels, and decoded
    /// cache. Render it for scraping with
    /// [`MetricsSnapshot::render_text`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.registry.snapshot()
    }

    /// The current metrics in Prometheus text exposition format —
    /// shorthand for `metrics_snapshot().render_text()`.
    pub fn render_metrics(&self) -> String {
        self.shared.registry.render_text()
    }

    /// Exports the retained trace window as Chrome trace-event JSON
    /// (Perfetto-loadable). `None` unless the server was spawned with
    /// [`ServerConfig::trace_events`] > 0.
    pub fn export_trace(&self) -> Option<String> {
        self.shared.trace.as_ref().map(|t| t.export_json())
    }
}

/// A running serving front-end: one worker thread owning a [`Session`],
/// fed through [`ServerHandle`]s. Dropping the `Server` (or calling
/// [`Server::shutdown`]) stops admission, drains in-flight requests, and
/// joins the worker — it blocks until every cloned handle is dropped,
/// since the worker only exits once all senders disconnect.
#[derive(Debug)]
pub struct Server {
    handle: Option<ServerHandle>,
    worker: Option<JoinHandle<ServerReport>>,
}

impl Server {
    /// Spawns the worker thread serving `model` through `engine` under
    /// `cfg`. The engine moves onto the worker, so it must be `Send`.
    ///
    /// # Errors
    ///
    /// Never: [`KvMode::Exact`](microscopiq_fm::KvMode::Exact) has no
    /// configuration to reject.
    pub fn spawn<E: PackedGemm + EngineTelemetry + Send + 'static>(
        model: PackedTinyFm,
        engine: E,
        cfg: ServerConfig,
    ) -> Result<Self, QuantError> {
        let sched = crate::session::SchedulerConfig::new(cfg.max_batch)
            .prefill_chunk(cfg.prefill_chunk)
            .token_budget(cfg.token_budget)
            .qos(cfg.qos);
        let mut session = Session::with_config(model, engine, sched, cfg.kv_mode)?;
        if let Some(prefix_cfg) = cfg.prefix_cache {
            session.enable_prefix_cache(prefix_cfg);
        }
        session.set_kv_byte_budget(cfg.kv_byte_budget);
        // One registry for the whole stack: the session created it and
        // registered its scheduler instruments; the engine contributes
        // kernel/cache collectors; the server adds lifecycle metrics.
        let registry = session.metrics_registry().clone();
        session.engine().register_telemetry(&registry);
        let (kv_rows, kv_bytes, kv_peak_bytes) = session.kv_gauges();
        let metrics = ServerMetrics::register(&registry, kv_rows, kv_bytes, kv_peak_bytes);
        let trace = (cfg.trace_events > 0).then(|| Arc::new(TraceSink::new(cfg.trace_events)));
        let prefix = session.prefix_metrics();
        let shared = Arc::new(Shared {
            registry,
            metrics,
            trace,
            prefix,
            shed_level: AtomicU8::new(0),
            worker_exited: AtomicBool::new(false),
        });
        let (tx, rx) = mpsc::sync_channel(cfg.queue_capacity.max(1));
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("microscopiq-serve".into())
            .spawn(move || worker_loop(session, rx, cfg, worker_shared))
            .expect("spawn serving worker");
        Ok(Self {
            handle: Some(ServerHandle {
                tx,
                policy: cfg.admission,
                shared,
            }),
            worker: Some(worker),
        })
    }

    /// A cloneable submission endpoint.
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone().expect("server is running")
    }

    /// Stops admission, drains every in-flight request to its terminal
    /// event, joins the worker, and returns the final accounting.
    /// Blocks until all cloned handles are dropped.
    ///
    /// # Panics
    ///
    /// Panics if the worker thread crashed outside its panic guard
    /// (e.g. via [`ServerHandle::inject_worker_panic`]); use
    /// [`Server::try_shutdown`] to observe that instead.
    pub fn shutdown(self) -> ServerReport {
        self.try_shutdown()
            .expect("serving worker crashed outside its panic guard")
    }

    /// Like [`Server::shutdown`], but a worker that died outside its
    /// panic guard returns `Err(panic message)` instead of propagating
    /// the panic — how a [`Fleet`](crate::net::Fleet) drains dead
    /// workers without dying itself.
    ///
    /// # Errors
    ///
    /// The worker thread's panic message, if it crashed.
    pub fn try_shutdown(mut self) -> Result<ServerReport, String> {
        self.handle.take();
        let worker = self.worker.take().expect("worker not yet joined");
        worker.join().map_err(panic_message)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.handle.take();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// Worker-side record of one live request.
struct Live {
    events: mpsc::Sender<StreamEvent>,
    cancelled: Arc<AtomicBool>,
    deadline: Option<Deadline>,
    class: QosClass,
    admitted_step: usize,
    /// Client-side enqueue instant (zero point for TTFT).
    submitted: Instant,
    /// Worker-side admission instant.
    admitted_at: Instant,
    /// When the latest token was streamed; `None` until the first.
    last_token_at: Option<Instant>,
    /// Sample ids of this request not yet finished, leader included —
    /// a singleton for plain requests, `n` consecutive ids for N-way
    /// generation ([`GenRequest::n_samples`]). The stream terminates
    /// only once this empties.
    outstanding: Vec<RequestId>,
    /// The leader sample's result, held back until every extra sample
    /// has been delivered as a [`StreamEvent::Sample`].
    leader_result: Option<GenResult>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

/// Trace lane for per-step scheduler events. Per-request lanes are
/// `request id + 1` so request 0 does not collide with this lane.
const SCHED_TID: u64 = 0;

fn request_tid(id: RequestId) -> u64 {
    id as u64 + 1
}

fn worker_loop<E: PackedGemm>(
    mut session: Session<E>,
    rx: mpsc::Receiver<WorkerMsg>,
    cfg: ServerConfig,
    shared: Arc<Shared>,
) -> ServerReport {
    let mut live: HashMap<RequestId, Live> = HashMap::new();
    // Extra-sample id → leader id, for routing fork results onto the
    // leader's stream. Entries are removed as samples finish or retire.
    let mut sample_of: HashMap<RequestId, RequestId> = HashMap::new();
    let mut rx_open = true;
    let mut shed_state = ShedState::default();
    let _exit_flag = ExitFlag(Arc::clone(&shared));

    loop {
        // One clock sample per loop iteration: admission stamps and every
        // Deadline::At check this step agree on "now", so two requests
        // with the same deadline expire on the same step.
        let mut now = Instant::now();

        // Re-grade overload before admitting: the published level gates
        // both submit-time refusals (on client threads) and the
        // admission-time retirement below.
        if let Some(policy) = &cfg.shed {
            let backlog = shared.metrics.queue_depth.get().max(0) as usize + session.pending();
            let level = shed_state.grade(policy, &shared.metrics, backlog);
            shared.shed_level.store(level, Ordering::Relaxed);
        }

        // Continuous admission: pull waiting submissions into the
        // session between steps, up to the in-flight cap. Leaving the
        // rest queued is what gives the bounded queue its backpressure.
        while rx_open && live.len() < cfg.max_in_flight {
            match rx.try_recv() {
                Ok(WorkerMsg::Submit(inc)) => {
                    admit(&mut session, &mut live, &mut sample_of, inc, now, &shared)
                }
                Ok(WorkerMsg::InjectPanic) => {
                    panic!("injected worker panic (failure-injection hook)")
                }
                Ok(WorkerMsg::SetPrefixCapacity(bytes)) => session.set_prefix_cache_capacity(bytes),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => rx_open = false,
            }
        }
        if live.is_empty() {
            if !rx_open {
                break;
            }
            // Idle: park until the next submission (or shutdown). The
            // park is unbounded, so restamp the clock before admitting.
            match rx.recv() {
                Ok(WorkerMsg::Submit(inc)) => {
                    now = Instant::now();
                    admit(&mut session, &mut live, &mut sample_of, inc, now, &shared);
                }
                Ok(WorkerMsg::InjectPanic) => {
                    panic!("injected worker panic (failure-injection hook)")
                }
                Ok(WorkerMsg::SetPrefixCapacity(bytes)) => session.set_prefix_cache_capacity(bytes),
                Err(_) => rx_open = false,
            }
            publish(&shared, &live);
            continue;
        }

        // Sweep before the step so a dropped stream frees its slot
        // without another forward, and a deadline of zero steps expires
        // before the request is ever prefilled.
        sweep(&mut session, &mut live, &mut sample_of, now, &shared);

        if !live.is_empty() {
            let step_start = shared.trace.as_deref().map(|t| t.ts(Instant::now()));
            match catch_unwind(AssertUnwindSafe(|| session.step_report())) {
                Ok(step) => {
                    // One timestamp for every token emitted this step:
                    // they left the same forward pass together.
                    let emitted_at = Instant::now();
                    for (id, tok) in step.emitted {
                        if let Some(l) = live.get_mut(&id) {
                            if l.events.send(StreamEvent::Token(tok)).is_err() {
                                // Receiver gone: flag for the next sweep.
                                l.cancelled.store(true, Ordering::Relaxed);
                            }
                            record_token(&shared, id, l, emitted_at);
                        }
                    }
                    for res in step.finished {
                        // Route a fork sample's result onto its
                        // leader's stream; a plain request is its own
                        // leader with a singleton group.
                        let leader = if live.contains_key(&res.id) {
                            res.id
                        } else if let Some(&leader) = sample_of.get(&res.id) {
                            leader
                        } else {
                            continue;
                        };
                        let Some(l) = live.get_mut(&leader) else {
                            continue;
                        };
                        l.outstanding.retain(|&s| s != res.id);
                        if res.id == leader {
                            l.leader_result = Some(res);
                        } else {
                            sample_of.remove(&res.id);
                            let _ = l.events.send(StreamEvent::Sample {
                                index: res.id - leader,
                                result: res,
                            });
                        }
                        if l.outstanding.is_empty() {
                            let mut l = live.remove(&leader).expect("leader is live");
                            shared.metrics.finished.inc();
                            if let Some(t) = shared.trace.as_deref() {
                                t.instant("finished", request_tid(leader), t.ts(now), vec![]);
                            }
                            let result = l
                                .leader_result
                                .take()
                                .expect("leader finished before its group emptied");
                            let _ = l.events.send(StreamEvent::Finished(result));
                        }
                    }
                    if let (Some(t), Some(start), Some(batch)) =
                        (shared.trace.as_deref(), step_start, step.batch.as_ref())
                    {
                        trace_step(t, start, batch);
                    }
                }
                Err(payload) => {
                    // The popped batch was lost when the step unwound;
                    // exactly those requests are no longer live in the
                    // session. They fault. Requests still waiting in the
                    // scheduler queue (and finished-but-undrained
                    // zero-budget ones) never rode the panicked batch —
                    // they keep serving, and the server keeps accepting
                    // new work.
                    let msg = panic_message(payload);
                    let ids: Vec<RequestId> = live.keys().copied().collect();
                    for id in ids {
                        // A stream faults if *any* of its samples died
                        // in the panicked batch; surviving group members
                        // are cancelled — their stream is gone.
                        let dead = live[&id].outstanding.iter().any(|&s| !session.is_live(s));
                        if dead {
                            let l = live.remove(&id).expect("id collected from live");
                            for s in &l.outstanding {
                                session.cancel(*s);
                                sample_of.remove(s);
                            }
                            shared.metrics.faulted.inc();
                            if let Some(t) = shared.trace.as_deref() {
                                t.instant("faulted", request_tid(id), t.ts(now), vec![]);
                            }
                            let _ = l
                                .events
                                .send(StreamEvent::Error(ServeError::WorkerPanicked(msg.clone())));
                        }
                    }
                }
            }
            if !cfg.pace.is_zero() {
                std::thread::sleep(cfg.pace);
            }
        }
        publish(&shared, &live);
    }

    publish(&shared, &live);
    let m = &shared.metrics;
    let count = |c: &Counter| c.get() as usize;
    let (served, cancelled, expired, faulted) = (
        count(&m.finished),
        count(&m.cancelled),
        count(&m.expired),
        count(&m.faulted),
    );
    ServerReport {
        session: session.stats(),
        served,
        cancelled,
        expired,
        faulted,
        shed: count(&m.admitted).saturating_sub(served + cancelled + expired + faulted),
        final_kv_rows: session.kv_occupancy(),
        peak_live: m.peak_live.get().max(0) as usize,
    }
}

/// Worker-side shed controller state. The queue-pressure trigger is
/// graded fresh every call; the latency trigger is graded over
/// *windows* of [`ShedPolicy::min_samples`] interactive TTFT samples
/// (via [`HistogramSnapshot::since`]) so that a breach long past cannot
/// latch shedding forever — the level recovers one window after
/// latencies do.
#[derive(Default)]
struct ShedState {
    /// Interactive TTFT snapshot at the start of the current window.
    window_start: crate::telemetry::HistogramSnapshot,
    /// Level from the last completed latency window.
    latency_level: u8,
}

impl ShedState {
    fn grade(&mut self, policy: &ShedPolicy, metrics: &ServerMetrics, backlog: usize) -> u8 {
        let current = metrics.ttft_us[QosClass::Interactive.index()].snapshot();
        let window = current.since(&self.window_start);
        if window.count >= policy.min_samples.max(1) {
            let p99 = window.percentile(99.0);
            let target = policy.interactive_ttft_p99.as_micros().max(1) as f64;
            self.latency_level = if p99 > 2.0 * target {
                2
            } else if p99 > target {
                1
            } else {
                0
            };
            self.window_start = current;
        }
        let queue_level = if backlog > policy.queue_high.saturating_mul(2) {
            2
        } else if backlog > policy.queue_high {
            1
        } else {
            0
        };
        self.latency_level.max(queue_level)
    }
}

/// Records per-token latency metrics and first-token trace events for
/// one stream. Every token emitted by a step shares one timestamp `at`.
fn record_token(shared: &Shared, id: RequestId, l: &mut Live, at: Instant) {
    shared.metrics.tokens_streamed.inc();
    let class = l.class.index();
    match l.last_token_at {
        None => {
            shared.metrics.ttft_us[class]
                .record_duration(at.saturating_duration_since(l.submitted));
            shared
                .metrics
                .admit_to_first_token_us
                .record_duration(at.saturating_duration_since(l.admitted_at));
            if let Some(t) = shared.trace.as_deref() {
                t.instant("first_token", request_tid(id), t.ts(at), vec![]);
            }
        }
        Some(prev) => {
            shared.metrics.inter_token_us[class]
                .record_duration(at.saturating_duration_since(prev));
        }
    }
    l.last_token_at = Some(at);
}

/// Emits the per-step scheduler span (lane 0) and one prefill-chunk span
/// per request that advanced its prompt this step.
fn trace_step(t: &TraceSink, start_us: u64, batch: &crate::session::StepBatch) {
    let end_us = t.ts(Instant::now());
    for &(id, tokens) in &batch.prefilled {
        t.complete(
            "prefill_chunk",
            request_tid(id),
            start_us,
            end_us,
            vec![("tokens", TraceArg::U64(tokens as u64))],
        );
    }
    t.complete(
        "step",
        SCHED_TID,
        start_us,
        end_us,
        vec![
            ("requests", TraceArg::U64(batch.requests as u64)),
            ("prefill_chunks", TraceArg::U64(batch.prefill_chunks as u64)),
            ("prefill_tokens", TraceArg::U64(batch.prefill_tokens as u64)),
            (
                "decode_segments",
                TraceArg::U64(batch.decode_segments as u64),
            ),
            (
                "recompute_tokens",
                TraceArg::U64(batch.recompute_tokens as u64),
            ),
            ("new_tokens", TraceArg::U64(batch.new_tokens as u64)),
            ("queue_depth", TraceArg::U64(batch.queue_depth as u64)),
            ("kv_rows", TraceArg::U64(batch.kv_rows as u64)),
        ],
    );
}

fn publish(shared: &Shared, live: &HashMap<RequestId, Live>) {
    // KV gauges are maintained by the session itself at each step; the
    // server only tracks stream liveness here.
    shared.metrics.live.set(live.len() as i64);
    shared.metrics.peak_live.set_max(live.len() as i64);
}

fn admit<E: PackedGemm>(
    session: &mut Session<E>,
    live: &mut HashMap<RequestId, Live>,
    sample_of: &mut HashMap<RequestId, RequestId>,
    inc: Incoming,
    now: Instant,
    shared: &Shared,
) {
    // Single decrement point for the queue-depth gauge: every submission
    // that made it into the channel passes through here exactly once.
    shared.metrics.queue_depth.add(-1);
    if inc.cancelled.load(Ordering::Relaxed) {
        // The stream was dropped while the submission sat in the queue.
        // It still counts as admitted so the accounting identity
        // admitted = finished + cancelled + expired + faulted + live
        // holds at every instant.
        shared.metrics.admitted.inc();
        shared.metrics.cancelled.inc();
        return;
    }
    // A request that was queued when the shed level rose past its class
    // is retired here without running: counted as admitted + shed so
    // the accounting identity (admitted = finished + cancelled +
    // expired + faulted + shed + live) still holds.
    let level = shared.shed_level.load(Ordering::Relaxed);
    if level >= ShedPolicy::shed_at(inc.req.class) {
        shared.metrics.admitted.inc();
        shared.metrics.shed[inc.req.class.index()].inc();
        let _ = inc.events.send(StreamEvent::Error(ServeError::Shed));
        return;
    }
    let before = session.stats();
    let Incoming {
        req,
        opts,
        events,
        cancelled,
        submitted,
    } = inc;
    let prompt_tokens = req.prompt.len();
    let max_new_tokens = req.max_new_tokens;
    let class = req.class;
    let n_samples = req.n_samples.max(1);
    // `Session::submit` validates the prompt and panics on malformed
    // input; caught here, that faults only the offending stream.
    match catch_unwind(AssertUnwindSafe(|| session.submit(req))) {
        Ok(id) => {
            shared.metrics.admitted.inc();
            shared
                .metrics
                .queue_wait_us
                .record_duration(now.saturating_duration_since(submitted));
            if let Some(t) = shared.trace.as_deref() {
                t.instant(
                    "enqueued",
                    request_tid(id),
                    t.ts(submitted),
                    vec![
                        ("prompt_tokens", TraceArg::U64(prompt_tokens as u64)),
                        ("max_new_tokens", TraceArg::U64(max_new_tokens as u64)),
                    ],
                );
                t.instant("admitted", request_tid(id), t.ts(now), vec![]);
                let after = session.stats();
                if after.prefix_hits > before.prefix_hits {
                    let reused = after.prefix_tokens_reused - before.prefix_tokens_reused;
                    t.instant(
                        "prefix_hit",
                        request_tid(id),
                        t.ts(now),
                        vec![("reused_tokens", TraceArg::U64(reused as u64))],
                    );
                }
            }
            for i in 1..n_samples {
                sample_of.insert(id + i, id);
            }
            live.insert(
                id,
                Live {
                    events,
                    cancelled,
                    deadline: opts.deadline,
                    class,
                    admitted_step: before.steps,
                    submitted,
                    admitted_at: now,
                    last_token_at: None,
                    outstanding: (id..id + n_samples).collect(),
                    leader_result: None,
                },
            );
        }
        Err(payload) => {
            shared.metrics.admitted.inc();
            shared.metrics.faulted.inc();
            let _ = events.send(StreamEvent::Error(ServeError::WorkerPanicked(
                panic_message(payload),
            )));
        }
    }
}

/// Retires cancelled and deadline-expired requests, reclaiming their
/// session slots and KV caches. All `Deadline::At` checks share the
/// caller's single per-step `now`, so coincident deadlines expire
/// together.
fn sweep<E: PackedGemm>(
    session: &mut Session<E>,
    live: &mut HashMap<RequestId, Live>,
    sample_of: &mut HashMap<RequestId, RequestId>,
    now: Instant,
    shared: &Shared,
) {
    let now_steps = session.stats().steps;
    let retire: Vec<RequestId> = live
        .iter()
        .filter(|(_, l)| {
            l.cancelled.load(Ordering::Relaxed)
                || match l.deadline {
                    Some(Deadline::Steps(n)) => now_steps - l.admitted_step >= n,
                    Some(Deadline::At(t)) => now >= t,
                    None => false,
                }
        })
        .map(|(&id, _)| id)
        .collect();
    for id in retire {
        let l = live.remove(&id).expect("id collected from live");
        // Retire the whole sample group: the leader first (which also
        // reclaims any not-yet-dispersed forks), then dispersed
        // followers, which are ordinary session requests by now.
        for s in &l.outstanding {
            session.cancel(*s);
            sample_of.remove(s);
        }
        if l.cancelled.load(Ordering::Relaxed) {
            shared.metrics.cancelled.inc();
            if let Some(t) = shared.trace.as_deref() {
                t.instant("cancelled", request_tid(id), t.ts(now), vec![]);
            }
        } else {
            shared.metrics.expired.inc();
            if let Some(t) = shared.trace.as_deref() {
                t.instant("deadline_expired", request_tid(id), t.ts(now), vec![]);
            }
            let _ = l
                .events
                .send(StreamEvent::Error(ServeError::DeadlineExceeded));
        }
    }
}
