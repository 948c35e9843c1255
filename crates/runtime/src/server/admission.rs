//! Admission-side types: server configuration, backpressure policy,
//! per-request options, and the submit-time error surface.

use super::stream::StreamEvent;
use crate::prefix::PrefixCacheConfig;
use crate::session::{GenRequest, QosClass, QosShares};
use microscopiq_fm::KvMode;
use std::sync::atomic::AtomicBool;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// What [`ServerHandle::submit`](super::ServerHandle::submit) does when
/// the admission queue is full.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Block the submitting thread until a queue slot frees (classic
    /// backpressure: producers run at the server's pace).
    #[default]
    Block,
    /// Fail fast with [`SubmitError::QueueFull`], leaving the caller to
    /// shed or retry.
    Reject,
}

/// Configuration for [`Server::spawn`](super::Server::spawn).
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Requests packed into one decode step (forwarded to
    /// [`Session`](crate::Session)).
    pub max_batch: usize,
    /// Most prompt tokens one request advances per step while prefilling
    /// (forwarded to
    /// [`SchedulerConfig::prefill_chunk`](crate::SchedulerConfig)).
    /// The default ([`usize::MAX`]) runs each prompt as one segment;
    /// set a chunk size to stop long prompts from stalling live decode
    /// streams — exact-KV outputs are bitwise identical either way.
    pub prefill_chunk: usize,
    /// Most new tokens (prefill + decode) packed into one step
    /// (forwarded to
    /// [`SchedulerConfig::token_budget`](crate::SchedulerConfig)).
    pub token_budget: usize,
    /// Bounded admission-queue depth: submissions the worker has not yet
    /// pulled in. Once full, [`AdmissionPolicy`] decides what `submit`
    /// does.
    pub queue_capacity: usize,
    /// Cap on requests live inside the session at once (admitted but
    /// unfinished). The worker stops draining the admission queue at
    /// this level, which is what makes `queue_capacity` bite.
    pub max_in_flight: usize,
    /// Backpressure policy at the admission queue.
    pub admission: AdmissionPolicy,
    /// KV storage mode for every request's decode state.
    pub kv_mode: KvMode,
    /// Artificial delay between decode steps (default zero). Used by
    /// tests to widen race windows deterministically and by demos to
    /// make streaming visible; leave at zero to serve at full speed.
    pub pace: Duration,
    /// Capacity of the opt-in trace ring buffer; 0 (the default)
    /// disables tracing entirely — no sink is allocated and the worker
    /// pays nothing. When positive, the worker records per-request span
    /// events and per-step scheduler events into a bounded ring
    /// (oldest dropped first), exported via
    /// [`ServerHandle::export_trace`](super::ServerHandle::export_trace)
    /// as Chrome trace-event JSON.
    pub trace_events: usize,
    /// Weighted guaranteed shares of batch slots / token budget per
    /// [`QosClass`] when classes compete (forwarded to
    /// [`SchedulerConfig::qos`](crate::SchedulerConfig)).
    pub qos: QosShares,
    /// Optional overload shedding. When set, the worker continuously
    /// grades its own per-class TTFT histograms and queue backlog
    /// against the policy and rejects lower QoS classes first; `None`
    /// (the default) never sheds.
    pub shed: Option<ShedPolicy>,
    /// Optional KV memory-pressure ceiling in storage bytes (see
    /// [`Session::set_kv_byte_budget`](crate::Session::set_kv_byte_budget)).
    /// When a step's worst-case KV growth would push occupancy past the
    /// budget, the worker preempts victims in QoS order — best-effort
    /// first, then batch, never interactive — releasing their KV and
    /// re-advancing them later as chunked recompute segments. Resumed
    /// streams are bitwise identical to unpreempted ones. Size it at
    /// least `max_batch × prefill_chunk × n_layers × 2 × d_model × 8`
    /// bytes above the working set you want to retain, or every step's
    /// projection will thrash the sheddable classes. `None` (the
    /// default) never preempts.
    pub kv_byte_budget: Option<usize>,
    /// Optional shared-prompt KV reuse (see
    /// [`Session::enable_prefix_cache`](crate::Session::enable_prefix_cache)):
    /// completed prompts are retained in a byte-budgeted prefix trie and
    /// later admissions attach the longest cached prefix copy-on-write,
    /// prefilling only the suffix. `None` (the default) serves every
    /// prompt cold.
    pub prefix_cache: Option<PrefixCacheConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            prefill_chunk: usize::MAX,
            token_budget: usize::MAX,
            queue_capacity: 64,
            max_in_flight: 64,
            admission: AdmissionPolicy::Block,
            kv_mode: KvMode::Exact,
            pace: Duration::ZERO,
            trace_events: 0,
            qos: QosShares::default(),
            shed: None,
            kv_byte_budget: None,
            prefix_cache: None,
        }
    }
}

/// Load-shedding policy, evaluated by the worker between decode steps
/// from the server's *own* per-class latency histograms (the same ones
/// `/metrics` exposes) rather than blind queue length. The worker
/// publishes a shed level; submissions of sheddable classes are then
/// refused at the handle with [`SubmitError::Shed`] (and any already
/// queued are retired at admission with
/// [`ServeError::Shed`](super::ServeError::Shed)):
///
/// * level 1 — interactive p99 TTFT above `interactive_ttft_p99`, or
///   backlog above `queue_high`: shed [`QosClass::BestEffort`].
/// * level 2 — p99 above twice the target, or backlog above twice
///   `queue_high`: also shed [`QosClass::Batch`].
///
/// [`QosClass::Interactive`] is never shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedPolicy {
    /// Target p99 enqueue-to-first-token latency for interactive
    /// traffic.
    pub interactive_ttft_p99: Duration,
    /// Interactive TTFT samples required before the latency trigger
    /// engages (the histogram is unreliable before that).
    pub min_samples: u64,
    /// Backlog high-water mark (admission queue + requests waiting or
    /// in flight in the session) for the queue-pressure trigger;
    /// [`usize::MAX`] (the default) disables it.
    pub queue_high: usize,
}

impl Default for ShedPolicy {
    fn default() -> Self {
        Self {
            interactive_ttft_p99: Duration::from_millis(500),
            min_samples: 32,
            queue_high: usize::MAX,
        }
    }
}

impl ShedPolicy {
    /// The lowest shed level at which `class` is refused;
    /// `u8::MAX` for classes that are never shed.
    pub(crate) fn shed_at(class: QosClass) -> u8 {
        match class {
            QosClass::Interactive => u8::MAX,
            QosClass::Batch => 2,
            QosClass::BestEffort => 1,
        }
    }
}

/// A per-request completion deadline, checked by the worker between
/// decode steps. An expired request is retired immediately — even before
/// its prefill has run — with
/// [`ServeError::DeadlineExceeded`](super::ServeError::DeadlineExceeded)
/// on its stream, and its KV cache is reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deadline {
    /// Finish within this many scheduler steps of admission.
    /// `Steps(0)` expires before the request's first step (it is never
    /// prefilled) — deterministic, so tests use this form.
    Steps(usize),
    /// Finish before this wall-clock instant.
    At(Instant),
}

/// Options riding alongside a [`GenRequest`] through
/// [`ServerHandle::submit_with`](super::ServerHandle::submit_with).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestOptions {
    /// Optional completion deadline; `None` means the request may run to
    /// its token budget.
    pub deadline: Option<Deadline>,
    /// Opt-in deterministic failover, honored by
    /// [`FleetHandle::submit_with`](crate::net::FleetHandle::submit_with):
    /// if the serving worker dies mid-stream, the fleet resubmits the
    /// request to a survivor and the router-side stream splices the
    /// replayed continuation after skipping the already-delivered prefix
    /// — bitwise seamless, because any worker generates the identical
    /// token sequence for the same request. `false` (the default) keeps
    /// today's behavior: a dead worker faults the stream. Ignored on
    /// direct [`ServerHandle`](crate::ServerHandle) submissions — a
    /// single server has nowhere to fail over to.
    pub failover: bool,
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is full and the policy is
    /// [`AdmissionPolicy::Reject`].
    QueueFull,
    /// The request's QoS class is being shed under the server's
    /// [`ShedPolicy`] (overload). Interactive requests never see this.
    Shed,
    /// The server has shut down.
    ServerClosed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::QueueFull => write!(f, "admission queue full"),
            Self::Shed => write!(f, "shed under overload"),
            Self::ServerClosed => write!(f, "server closed"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// One submission in flight from a client thread to the worker.
pub(crate) struct Incoming {
    pub(crate) req: GenRequest,
    pub(crate) opts: RequestOptions,
    pub(crate) events: mpsc::Sender<StreamEvent>,
    pub(crate) cancelled: Arc<AtomicBool>,
    /// Client-side enqueue instant, stamped in `submit` — the zero
    /// point for queue-wait and TTFT measurements.
    pub(crate) submitted: Instant,
}

/// What flows over the admission channel to the worker.
pub(crate) enum WorkerMsg {
    /// A client submission.
    Submit(Incoming),
    /// Failure-injection hook: the worker panics *outside* its per-step
    /// panic guard, killing the worker thread as an unexpected crash
    /// would. Used by the fleet chaos tests.
    InjectPanic,
    /// Replaces the prefix-cache byte budget (evicting down to it
    /// immediately); no-op when the cache is disabled. Shrinking to 0
    /// drains every unreferenced trie node — the bench and tests use
    /// this to prove nothing leaked after traffic retires.
    SetPrefixCapacity(usize),
}
