//! Batched TinyFM serving: a [`Session`] accepts concurrent generation
//! requests, and its internal [`BatchScheduler`] packs the active ones
//! into a single segment-packed forward pass per decode step, driving the
//! packed model end-to-end through the engine.
//!
//! Decode is **incremental**: every request owns a
//! [`DecodeState`] (per-block appendable KV caches). A newly scheduled
//! request advances its prompt as prefill segments — the whole prompt in
//! one step by default, or in fixed-size chunks under
//! [`SchedulerConfig::prefill_chunk`] — and every step after prefill
//! feeds exactly one token, the previously sampled one, so per-step work
//! is O(prefix) instead of the O(prefix²) of full-prefix recompute.
//! Prefill chunks and single-token decode segments ride in the *same*
//! segment-packed forward, so a step is always one engine pass.
//!
//! **Chunked prefill** is what kills head-of-line blocking: without it,
//! one long prompt stalls every live decode stream for a full
//! quadratic-attention forward on its first step. With a chunk size (and
//! optionally a per-step [`SchedulerConfig::token_budget`] capping total
//! new tokens per forward), a long prompt is spread across many steps
//! while established streams keep emitting one token per step. Because
//! the attention math is causal and KV rows are appended token by token
//! either way, exact-KV chunked prefill is **bitwise identical** to
//! whole-prompt prefill for any chunk size — logits are only sampled on
//! the step that completes the prompt, with the request's own RNG, so
//! the draw sequence is unchanged. Chunking is a pure scheduling choice.
//! (This holds on any engine whose per-column results are independent of
//! batch composition — every bit-exact engine in this workspace. The f32
//! fast tier's lane GEMV accumulates in a different order than its
//! one-column GEMM, so there chunking can change logit *bits* when it
//! changes which path a step takes; that tier's contract is the bounded
//! logit-delta / argmax-parity conformance tier instead.)
//!
//! Scheduling is continuous ("in-flight") batching: every step takes up to
//! `max_batch` live requests in arrival order (bounded by the token
//! budget), runs one batched forward, samples one token per request whose
//! prefill is complete, and retires requests as they hit their token
//! budget — freeing batch slots for queued requests mid-flight, exactly
//! like a serving system draining a request queue. [`Session::step`]
//! returns the requests that finished on that step, so callers can stream
//! completions without polling.
//!
//! Determinism contract: a request's output depends only on the model, its
//! prompt, its sampling seed and its temperature — never on what it was
//! batched with. KV caches are exact, so incremental decode is
//! bit-identical to a solo full-prefix forward.

use crate::prefix::{PrefixCache, PrefixCacheConfig, PrefixCacheStats, PrefixMatch, PrefixMetrics};
use crate::telemetry::{Counter, Gauge, Histogram, MetricsRegistry};
use microscopiq_core::error::QuantError;
use microscopiq_fm::{sample_logits, DecodeJob, DecodeState, KvMode, PackedGemm, PackedTinyFm};
use microscopiq_linalg::SeededRng;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Priority class of a request — the unit of QoS isolation. Classes are
/// a pure *scheduling* signal: they decide when a request's tokens are
/// computed, never which tokens (the determinism contract is
/// class-blind). [`BatchScheduler`] plans classes in priority order with
/// guaranteed weighted shares ([`QosShares`]), and the serving
/// front-end's load shedding rejects lower classes first.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum QosClass {
    /// Latency-sensitive traffic; planned first, never shed.
    #[default]
    Interactive,
    /// Throughput traffic; shed only under severe overload.
    Batch,
    /// Scavenger traffic; first to be shed, smallest guaranteed share.
    BestEffort,
}

impl QosClass {
    /// Every class, in scheduling priority order.
    pub const ALL: [QosClass; 3] = [QosClass::Interactive, QosClass::Batch, QosClass::BestEffort];

    /// Stable index (priority order) for per-class tables.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            QosClass::Interactive => 0,
            QosClass::Batch => 1,
            QosClass::BestEffort => 2,
        }
    }

    /// The metric-label / wire spelling of the class.
    pub fn label(self) -> &'static str {
        match self {
            QosClass::Interactive => "interactive",
            QosClass::Batch => "batch",
            QosClass::BestEffort => "best_effort",
        }
    }

    /// Parses the wire spelling (`best-effort` is accepted alongside
    /// `best_effort`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "interactive" => Some(QosClass::Interactive),
            "batch" => Some(QosClass::Batch),
            "best_effort" | "best-effort" => Some(QosClass::BestEffort),
            _ => None,
        }
    }
}

/// Relative token-budget weights per [`QosClass`] under contention.
/// When more than one class has pending work, each present class is
/// guaranteed `max(1, budget · weight / Σ present weights)` of the
/// per-step token budget (and the analogous share of batch slots)
/// before leftovers spill in priority order — so interactive traffic
/// dominates without ever starving batch or best-effort completely.
/// With a single class present the weights are irrelevant and planning
/// is exactly the historical FCFS behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QosShares {
    /// Weight of [`QosClass::Interactive`].
    pub interactive: u32,
    /// Weight of [`QosClass::Batch`].
    pub batch: u32,
    /// Weight of [`QosClass::BestEffort`].
    pub best_effort: u32,
}

impl Default for QosShares {
    fn default() -> Self {
        Self {
            interactive: 8,
            batch: 3,
            best_effort: 1,
        }
    }
}

/// One generation request.
#[derive(Debug, Clone, Default)]
pub struct GenRequest {
    /// Prompt tokens (must be non-empty and in-vocabulary).
    pub prompt: Vec<usize>,
    /// Number of tokens to generate after the prompt.
    pub max_new_tokens: usize,
    /// Softmax temperature for sampling.
    pub temperature: f64,
    /// Sampling seed; identical (model, prompt, seed, temperature) yield
    /// identical outputs regardless of batching.
    pub seed: u64,
    /// QoS class — scheduling priority and shed order only; never
    /// affects which tokens are generated.
    pub class: QosClass,
    /// Sampled continuations to generate from this one prompt (`0` and
    /// `1` both mean a single sample). With `n > 1` the request occupies
    /// `n` consecutive ids — [`Session::submit`] returns the first (the
    /// *leader*), samples `i = 1..n` get `leader + i`. All samples share
    /// one prefill: at prompt completion the leader's KV prefix is
    /// frozen into shared segments ([`DecodeState::share_prefix`]) and
    /// each fork diverges copy-on-write, drawing with seed `seed + i` —
    /// so in exact-KV mode on a bit-exact engine, sample `i`'s tokens
    /// are bitwise what a solo request with seed `seed + i` would have
    /// generated.
    pub n_samples: usize,
}

/// Identifier assigned by [`Session::submit`], in submission order.
pub type RequestId = usize;

/// A finished request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenResult {
    /// The request's id.
    pub id: RequestId,
    /// Prompt plus generated tokens.
    pub tokens: Vec<usize>,
    /// How many tokens were generated.
    pub new_tokens: usize,
}

/// Scheduler counters, read from the session's metrics registry by
/// [`Session::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Batched decode steps executed.
    pub steps: usize,
    /// Tokens generated across all requests.
    pub tokens_generated: usize,
    /// Largest batch actually executed.
    pub max_batch_used: usize,
    /// Prompt tokens processed as prefill segments. Each prompt token is
    /// counted exactly once, on the step whose chunk advanced it —
    /// resuming a partially prefilled request never re-counts tokens.
    pub prefill_tokens: usize,
    /// Prefill segments executed: a whole-prompt prefill counts 1, a
    /// prompt split into n chunks counts n.
    pub prefill_chunks: usize,
    /// Requests removed via [`Session::cancel`] before finishing.
    pub cancelled: usize,
    /// Prefix-cache lookups that attached a non-empty cached prefix: at
    /// admission, and at the re-match a preempted request makes before
    /// its recompute (always 0 unless [`Session::enable_prefix_cache`]
    /// was called). Equal to [`PrefixCacheStats::hits`].
    pub prefix_hits: usize,
    /// Tokens those hits served from the prefix cache instead of
    /// prefilling or recomputing them.
    pub prefix_tokens_reused: usize,
    /// Requests preempted under the KV byte budget (or via
    /// [`Session::preempt`]), per [`QosClass::index`]. The budget policy
    /// never preempts interactive traffic, so index 0 stays 0 unless
    /// `preempt` was called directly.
    pub preemptions: [usize; 3],
    /// Tokens re-prefilled after preemption (prompt and generated tokens
    /// recomputed back into the KV cache). Disjoint from
    /// `prefill_tokens`: a token a preempted request re-advances counts
    /// here, never there.
    pub recompute_tokens: usize,
    /// Largest KV byte occupancy ever observed inside a step (measured
    /// after the forward, before finished requests release) — what
    /// [`Session::kv_byte_budget`] actually bounds.
    pub peak_kv_bytes: usize,
}

impl SessionStats {
    /// Total preemptions across all QoS classes.
    pub fn preempted(&self) -> usize {
        self.preemptions.iter().sum()
    }
}

/// Scheduling knobs for a [`Session`]'s [`BatchScheduler`].
///
/// The defaults reproduce classic whole-prompt continuous batching: every
/// newly scheduled request runs its entire prompt as one prefill segment.
/// Setting [`SchedulerConfig::prefill_chunk`] caps how many prompt tokens
/// one request may advance per step, and
/// [`SchedulerConfig::token_budget`] caps the total new tokens (prefill +
/// decode) packed into one forward — together they bound per-step latency
/// under long-prompt arrival. On a bit-exact engine (one whose GEMV entry
/// matches a one-column GEMM bit for bit — the default, scalar, and
/// reference engines), every configuration produces bitwise-identical
/// outputs; only step timing changes. On the f32 fast
/// tier the guarantee is the serving conformance tier's instead (bounded
/// logit deltas, argmax parity — see `tests/fast_serving.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Requests packed into one decode step.
    pub max_batch: usize,
    /// Most prompt tokens a single request advances per step while
    /// prefilling ([`usize::MAX`] = the whole remaining prompt at once).
    pub prefill_chunk: usize,
    /// Most new tokens (prefill chunks plus single decode tokens, summed
    /// over the batch) one step may advance ([`usize::MAX`] = unbounded).
    /// Budget is consumed in queue order, so established decode streams
    /// at the queue front are served before prefill chunks behind them.
    pub token_budget: usize,
    /// Weighted guaranteed shares of slots and token budget per
    /// [`QosClass`] when classes compete (see [`QosShares`]). Irrelevant
    /// while only one class has pending work.
    pub qos: QosShares,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            prefill_chunk: usize::MAX,
            token_budget: usize::MAX,
            qos: QosShares::default(),
        }
    }
}

impl SchedulerConfig {
    /// Whole-prompt prefill with the given batch cap (the historical
    /// scheduler behavior).
    pub fn new(max_batch: usize) -> Self {
        Self {
            max_batch,
            ..Self::default()
        }
    }

    /// Sets the per-request prefill chunk size.
    pub fn prefill_chunk(mut self, tokens: usize) -> Self {
        self.prefill_chunk = tokens;
        self
    }

    /// Sets the per-step total new-token budget.
    pub fn token_budget(mut self, tokens: usize) -> Self {
        self.token_budget = tokens;
        self
    }

    /// Sets the per-class QoS share weights.
    pub fn qos(mut self, shares: QosShares) -> Self {
        self.qos = shares;
        self
    }

    fn validate(&self) {
        assert!(self.max_batch > 0, "batch size must be positive");
        assert!(self.prefill_chunk > 0, "prefill chunk must be positive");
        assert!(self.token_budget > 0, "token budget must be positive");
        assert!(
            self.qos.interactive > 0 && self.qos.batch > 0 && self.qos.best_effort > 0,
            "QoS share weights must be positive"
        );
    }
}

/// Everything one decode step did: the token sampled for every scheduled
/// request (batch order) plus the requests that finished. A serving
/// front-end streams `emitted` to per-request clients as the step
/// completes; [`Session::step`] is the finished-only view.
#[derive(Debug, Clone, Default)]
pub struct StepReport {
    /// `(request, sampled token)` for every request that rode this step.
    pub emitted: Vec<(RequestId, usize)>,
    /// Requests that finished on this step (plus zero-budget submissions
    /// completed since the last step), sorted by id.
    pub finished: Vec<GenResult>,
    /// Composition of the batch that ran, `None` when no forward pass
    /// executed (idle step, or only zero-budget completions drained).
    pub batch: Option<StepBatch>,
}

/// Composition of one executed decode step — what the scheduler packed
/// into the forward pass and the occupancy it left behind. This is the
/// per-step record behind the scheduler metrics and the `step` trace
/// events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepBatch {
    /// Requests that rode the step (prefill segments + decode segments).
    pub requests: usize,
    /// Requests that advanced a prefill chunk this step.
    pub prefill_chunks: usize,
    /// Prompt tokens advanced across those chunks.
    pub prefill_tokens: usize,
    /// Single-token decode segments in the batch.
    pub decode_segments: usize,
    /// Total new tokens the forward consumed (`prefill_tokens +
    /// recompute_tokens + decode_segments`) — compare against
    /// [`SchedulerConfig::token_budget`] for utilization.
    pub new_tokens: usize,
    /// Requests still waiting or in flight after the step.
    pub queue_depth: usize,
    /// KV rows resident after the step (finished requests released).
    pub kv_rows: usize,
    /// KV bytes resident after the step.
    pub kv_bytes: usize,
    /// Recompute segments in the batch: preempted requests re-advancing
    /// their prompt + generated history back into the KV cache.
    pub recompute_chunks: usize,
    /// Tokens advanced across those recompute segments.
    pub recompute_tokens: usize,
    /// `(request, tokens advanced)` for each prefill chunk in the batch,
    /// so a tracing front-end can emit per-request chunk spans.
    pub prefilled: Vec<(RequestId, usize)>,
    /// Requests per [`QosClass`] in the batch, indexed by
    /// [`QosClass::index`] — how the weighted shares actually landed.
    pub class_requests: [usize; 3],
}

#[derive(Debug)]
struct InFlight {
    id: RequestId,
    tokens: Vec<usize>,
    prompt_len: usize,
    remaining: usize,
    temperature: f64,
    class: QosClass,
    rng: SeededRng,
    /// Incremental decode state; created the first step this request is
    /// scheduled and advanced chunk by chunk until the prompt is done.
    state: Option<DecodeState>,
    /// Cached prompt prefix matched at admission (or re-matched at
    /// preemption), attached copy-on-write when the state is created
    /// (holding it keeps the segments alive across evictions). `None`
    /// once consumed or on a cache miss.
    attach: Option<PrefixMatch>,
    /// Set by [`Session::preempt`]: the request's KV cache was released
    /// and it is re-advancing its full history (prompt + generated
    /// tokens) as chunked recompute segments. Cleared on the step whose
    /// chunk catches the cache back up; while set, advanced tokens count
    /// as `recompute_tokens`, never `prefill_tokens`.
    recomputing: bool,
}

impl InFlight {
    /// Tokens already in the KV cache: the decode state's length once it
    /// exists, else the admission-time prefix match about to be attached
    /// — so the scheduler plans (and counts) only the suffix.
    fn prefilled(&self) -> usize {
        match &self.state {
            Some(s) => s.len(),
            None => self.attach.as_ref().map_or(0, |m| m.tokens),
        }
    }

    /// Whether the prompt is fully in the KV cache.
    fn prefill_done(&self) -> bool {
        self.prefilled() >= self.prompt_len
    }

    /// New tokens this request wants on its next step: the gap between
    /// its known tokens and its KV cache, chunk-capped. While prefilling
    /// (or recomputing after preemption) that is the next history chunk;
    /// in steady-state decode the gap is exactly one — the previously
    /// sampled token.
    fn step_tokens(&self, prefill_chunk: usize) -> usize {
        (self.tokens.len() - self.prefilled()).min(prefill_chunk)
    }
}

/// Packs pending requests into decode batches: arrival order within each
/// [`QosClass`], bounded by [`SchedulerConfig::max_batch`] requests and
/// [`SchedulerConfig::token_budget`] new tokens per step, advancing
/// prefills at most [`SchedulerConfig::prefill_chunk`] tokens at a time.
/// When more than one class has pending work, each present class is first
/// granted its weighted guaranteed share of slots and budget
/// ([`QosShares`], priority order), then leftovers spill in priority
/// order; with a single class present the plan is exactly the historical
/// FCFS plan.
#[derive(Debug)]
pub struct BatchScheduler {
    /// One FIFO per class, indexed by [`QosClass::index`].
    queues: [VecDeque<InFlight>; 3],
    cfg: SchedulerConfig,
}

impl BatchScheduler {
    /// Creates a whole-prompt scheduler batching at most `max_batch`
    /// requests per step — `Self::with_config(SchedulerConfig::new(..))`.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch == 0`.
    pub fn new(max_batch: usize) -> Self {
        Self::with_config(SchedulerConfig::new(max_batch))
    }

    /// Creates a scheduler with explicit chunking/budget knobs.
    ///
    /// # Panics
    ///
    /// Panics if any knob is zero.
    pub fn with_config(cfg: SchedulerConfig) -> Self {
        cfg.validate();
        Self {
            queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            cfg,
        }
    }

    fn push(&mut self, req: InFlight) {
        self.queues[req.class.index()].push_back(req);
    }

    /// Returns a mid-step request to the front of its class queue,
    /// preserving arrival order within the class.
    fn requeue_front(&mut self, req: InFlight) {
        self.queues[req.class.index()].push_front(req);
    }

    /// All pending requests, priority order across classes, arrival order
    /// within each class.
    fn iter(&self) -> impl Iterator<Item = &InFlight> {
        self.queues.iter().flat_map(|q| q.iter())
    }

    /// Mutable view of all pending requests, in the same order as
    /// [`BatchScheduler::iter`]. Queue membership and order are fixed;
    /// only request-internal state (e.g. a preemption releasing its
    /// [`DecodeState`]) may change.
    fn iter_mut(&mut self) -> impl Iterator<Item = &mut InFlight> {
        self.queues.iter_mut().flat_map(|q| q.iter_mut())
    }

    /// Removes and returns the pending request with the given id.
    fn remove(&mut self, id: RequestId) -> Option<InFlight> {
        for q in &mut self.queues {
            if let Some(pos) = q.iter().position(|r| r.id == id) {
                return q.remove(pos);
            }
        }
        None
    }

    /// Plans from one class queue: pops requests from its front while the
    /// global and per-class slot/token allowances all have room, deciding
    /// how many new tokens each rides with. Every planned request
    /// advances at least one token, so prefills always make progress; a
    /// request whose chunk would not fit the remaining allowance rides
    /// with the clipped chunk (any split is exact-KV-bitwise-safe).
    fn plan_from(
        &mut self,
        class: usize,
        mut class_slots: usize,
        mut class_tokens: usize,
        slots: &mut usize,
        budget: &mut usize,
        planned: &mut Vec<(InFlight, usize)>,
    ) {
        while *slots > 0 && *budget > 0 && class_slots > 0 && class_tokens > 0 {
            let Some(front) = self.queues[class].front() else {
                break;
            };
            let take = front
                .step_tokens(self.cfg.prefill_chunk)
                .min(*budget)
                .min(class_tokens);
            let req = self.queues[class].pop_front().expect("front exists");
            *slots -= 1;
            *budget -= take;
            class_slots -= 1;
            class_tokens = class_tokens.saturating_sub(take);
            planned.push((req, take));
        }
    }

    /// Plans one step. Pass 1 (only when classes compete) grants each
    /// present class `max(1, allowance · weight / Σ present weights)` of
    /// the batch slots and token budget, priority order; pass 2 spills
    /// whatever remains, priority order. Class never affects *which*
    /// tokens a request generates — only when they are computed.
    fn take_planned(&mut self) -> Vec<(InFlight, usize)> {
        let mut slots = self.cfg.max_batch;
        let mut budget = self.cfg.token_budget;
        let mut planned = Vec::new();
        let present: Vec<usize> = (0..3).filter(|&c| !self.queues[c].is_empty()).collect();
        if present.len() > 1 {
            let weights = [
                u64::from(self.cfg.qos.interactive),
                u64::from(self.cfg.qos.batch),
                u64::from(self.cfg.qos.best_effort),
            ];
            let total: u64 = present.iter().map(|&c| weights[c]).sum();
            // Shares come from the *initial* allowances so a lower
            // class's guarantee is not eroded by what higher classes
            // consumed first.
            let share = |allowance: usize, c: usize| -> usize {
                if allowance == usize::MAX {
                    // Unbounded allowances are shared by slots alone.
                    usize::MAX
                } else {
                    ((allowance as u64 * weights[c] / total).max(1)) as usize
                }
            };
            let shares: Vec<(usize, usize, usize)> = present
                .iter()
                .map(|&c| (c, share(slots, c), share(budget, c)))
                .collect();
            for (c, slot_share, token_share) in shares {
                self.plan_from(
                    c,
                    slot_share,
                    token_share,
                    &mut slots,
                    &mut budget,
                    &mut planned,
                );
            }
        }
        for &c in &present {
            self.plan_from(
                c,
                usize::MAX,
                usize::MAX,
                &mut slots,
                &mut budget,
                &mut planned,
            );
        }
        planned
    }

    /// Requests waiting or in flight.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Requests waiting or in flight in one class.
    pub fn pending_class(&self, class: QosClass) -> usize {
        self.queues[class.index()].len()
    }

    /// The scheduling knobs.
    pub fn config(&self) -> SchedulerConfig {
        self.cfg
    }
}

/// The session's always-on scheduler instruments, registered into its
/// [`MetricsRegistry`] at construction. Recording is a few relaxed
/// atomic ops per step — never a lock.
#[derive(Debug, Clone)]
struct SchedMetrics {
    steps: Arc<Counter>,
    prefill_chunks: Arc<Counter>,
    prefill_tokens: Arc<Counter>,
    tokens_generated: Arc<Counter>,
    cancelled: Arc<Counter>,
    batch_requests: Arc<Histogram>,
    step_new_tokens: Arc<Histogram>,
    queue_depth: Arc<Gauge>,
    kv_rows: Arc<Gauge>,
    kv_bytes: Arc<Gauge>,
    kv_peak_bytes: Arc<Gauge>,
    /// Per-[`QosClass`] series of `microscopiq_preemptions_total`.
    preemptions: [Arc<Counter>; 3],
    recompute_tokens: Arc<Counter>,
}

impl SchedMetrics {
    fn register(reg: &MetricsRegistry) -> Self {
        Self {
            steps: reg.counter(
                "microscopiq_scheduler_steps_total",
                "Batched decode steps executed (forward passes).",
            ),
            prefill_chunks: reg.counter(
                "microscopiq_prefill_chunks_total",
                "Prefill segments executed (whole-prompt counts 1, n chunks count n).",
            ),
            prefill_tokens: reg.counter(
                "microscopiq_prefill_tokens_total",
                "Prompt tokens processed as prefill, each counted once.",
            ),
            tokens_generated: reg.counter(
                "microscopiq_tokens_generated_total",
                "Tokens sampled across all requests.",
            ),
            cancelled: reg.counter(
                "microscopiq_scheduler_cancelled_total",
                "Requests removed from the scheduler before finishing.",
            ),
            batch_requests: reg.histogram(
                "microscopiq_step_batch_requests",
                "Requests packed into each executed step (prefill + decode segments).",
            ),
            step_new_tokens: reg.histogram(
                "microscopiq_step_new_tokens",
                "New tokens consumed per executed step (token-budget utilization).",
            ),
            queue_depth: reg.gauge(
                "microscopiq_scheduler_queue_depth",
                "Requests waiting or in flight in the batch scheduler.",
            ),
            kv_rows: reg.gauge(
                "microscopiq_kv_rows",
                "KV cache rows resident across live requests and layers.",
            ),
            kv_bytes: reg.gauge(
                "microscopiq_kv_bytes",
                "KV cache bytes resident across live requests.",
            ),
            kv_peak_bytes: reg.gauge(
                "microscopiq_kv_peak_bytes",
                "Largest KV byte occupancy ever observed inside a step (after the \
                 forward, before finished requests release).",
            ),
            preemptions: QosClass::ALL.map(|c| {
                reg.counter_labeled(
                    "microscopiq_preemptions_total",
                    "Requests preempted under the KV byte budget (KV released, \
                     re-enqueued for chunked recompute), by QoS class.",
                    vec![("class", c.label().to_string())],
                )
            }),
            recompute_tokens: reg.counter(
                "microscopiq_recompute_tokens_total",
                "Tokens re-prefilled after preemption (prompt + generated history \
                 recomputed back into the KV cache).",
            ),
        }
    }
}

/// A serving session over one packed model and one engine.
#[derive(Debug)]
pub struct Session<E: PackedGemm> {
    model: PackedTinyFm,
    engine: E,
    scheduler: BatchScheduler,
    next_id: RequestId,
    finished: Vec<GenResult>,
    /// Largest batch executed — the one [`SessionStats`] figure with no
    /// registry instrument behind it.
    max_batch_used: usize,
    telemetry: MetricsRegistry,
    metrics: SchedMetrics,
    /// Shared-prompt KV reuse, opt-in via
    /// [`Session::enable_prefix_cache`].
    prefix: Option<PrefixCache>,
    /// N-way fork groups awaiting their leader's prompt completion:
    /// leader id → `(sample id, sampling seed)` per pending follower.
    pending_forks: HashMap<RequestId, Vec<(RequestId, u64)>>,
    /// Memory-pressure ceiling, opt-in via
    /// [`Session::set_kv_byte_budget`]: before planning a step whose
    /// worst-case KV growth would push occupancy past this, victims are
    /// preempted in QoS order (best-effort → batch, interactive never).
    kv_byte_budget: Option<usize>,
}

impl<E: PackedGemm> Session<E> {
    /// Creates a session serving `model` through `engine`, batching up to
    /// `max_batch` concurrent requests per decode step. KV caches stay at
    /// full precision: outputs are bit-identical to solo full-prefix
    /// generation.
    pub fn new(model: PackedTinyFm, engine: E, max_batch: usize) -> Self {
        Self::with_kv_mode(model, engine, max_batch, KvMode::Exact)
            .expect("exact KV mode is always valid")
    }

    /// [`Session::new`] with the KV storage mode spelled out.
    ///
    /// # Errors
    ///
    /// Never: [`KvMode::Exact`] has no configuration to reject.
    pub fn with_kv_mode(
        model: PackedTinyFm,
        engine: E,
        max_batch: usize,
        kv_mode: KvMode,
    ) -> Result<Self, QuantError> {
        Self::with_config(model, engine, SchedulerConfig::new(max_batch), kv_mode)
    }

    /// Creates a session with explicit scheduling knobs — chunked prefill
    /// ([`SchedulerConfig::prefill_chunk`]) and a per-step token budget
    /// ([`SchedulerConfig::token_budget`]) on top of the batch cap. On a
    /// bit-exact engine every configuration yields bitwise-identical
    /// outputs; chunking only changes how prompt work is spread across
    /// steps (see [`SchedulerConfig`] for the f32 fast-tier caveat).
    ///
    /// # Errors
    ///
    /// Never: [`KvMode::Exact`] has no configuration to reject.
    ///
    /// # Panics
    ///
    /// Panics if any [`SchedulerConfig`] knob is zero.
    pub fn with_config(
        model: PackedTinyFm,
        engine: E,
        cfg: SchedulerConfig,
        kv_mode: KvMode,
    ) -> Result<Self, QuantError> {
        let KvMode::Exact = kv_mode;
        let telemetry = MetricsRegistry::new();
        let metrics = SchedMetrics::register(&telemetry);
        Ok(Self {
            model,
            engine,
            scheduler: BatchScheduler::with_config(cfg),
            next_id: 0,
            finished: Vec::new(),
            max_batch_used: 0,
            telemetry,
            metrics,
            prefix: None,
            pending_forks: HashMap::new(),
            kv_byte_budget: None,
        })
    }

    /// Sets (or clears) the KV memory-pressure ceiling. Before each
    /// planned step, if current occupancy plus the step's worst-case KV
    /// growth would exceed the budget, the session preempts victims —
    /// [`QosClass::BestEffort`] first, then [`QosClass::Batch`], never
    /// [`QosClass::Interactive`] — releasing their [`DecodeState`] and
    /// re-advancing them later as chunked recompute segments through the
    /// prefix cache. Preemption is invisible in the token streams:
    /// the victim's RNG and sampled history are retained, so its
    /// resumed output is bitwise identical to an unpreempted run (the
    /// same argument as chunked prefill). When every sheddable victim
    /// is already released and interactive demand alone exceeds the
    /// budget, the step runs anyway — the budget bounds reclaimable
    /// pressure, it never starves interactive traffic.
    pub fn set_kv_byte_budget(&mut self, budget: Option<usize>) {
        self.kv_byte_budget = budget;
    }

    /// The KV memory-pressure ceiling, if set.
    pub fn kv_byte_budget(&self) -> Option<usize> {
        self.kv_byte_budget
    }

    /// Enables shared-prompt KV reuse: completed prompts are frozen into
    /// a byte-budgeted prefix trie ([`PrefixCache`]) and later
    /// admissions attach the longest cached prefix copy-on-write,
    /// prefilling only the suffix. Metrics register as the
    /// `microscopiq_prefix_cache_*` family in the session registry.
    /// Reuse is bitwise invisible. Call before submitting traffic;
    /// re-enabling replaces the cache.
    pub fn enable_prefix_cache(&mut self, cfg: PrefixCacheConfig) {
        self.prefix = Some(PrefixCache::with_metrics(
            cfg,
            self.model.config().n_layers,
            &self.telemetry,
        ));
    }

    /// Prefix-cache counters and residency, `None` unless
    /// [`Session::enable_prefix_cache`] was called.
    pub fn prefix_cache_stats(&self) -> Option<PrefixCacheStats> {
        self.prefix.as_ref().map(|c| c.stats())
    }

    /// Replaces the prefix-cache byte budget, evicting down to it
    /// immediately (shrinking to 0 drains every unreferenced node).
    /// No-op when the cache is disabled.
    pub fn set_prefix_cache_capacity(&mut self, capacity_bytes: usize) {
        if let Some(cache) = self.prefix.as_mut() {
            cache.set_capacity(capacity_bytes);
        }
    }

    /// The prefix cache's shared metric handles, for front-ends that
    /// read stats without crossing into the worker thread.
    pub(crate) fn prefix_metrics(&self) -> Option<PrefixMetrics> {
        self.prefix.as_ref().map(|c| c.metrics().clone())
    }

    /// The session's metrics registry: scheduler instruments are already
    /// registered; a serving front-end (and the engine, through
    /// [`EngineTelemetry`](crate::telemetry::EngineTelemetry)) add
    /// theirs so one snapshot covers the whole stack.
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.telemetry
    }

    /// The KV occupancy gauges (rows, bytes, in-step peak bytes), shared
    /// with the serving front-end so `ServerHandle` accessors read them
    /// without a snapshot.
    pub(crate) fn kv_gauges(&self) -> (Arc<Gauge>, Arc<Gauge>, Arc<Gauge>) {
        (
            self.metrics.kv_rows.clone(),
            self.metrics.kv_bytes.clone(),
            self.metrics.kv_peak_bytes.clone(),
        )
    }

    /// The scheduling knobs in effect.
    pub fn scheduler_config(&self) -> SchedulerConfig {
        self.scheduler.config()
    }

    /// The engine (for cache statistics etc.).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The packed model being served.
    pub fn model(&self) -> &PackedTinyFm {
        &self.model
    }

    /// Scheduler counters so far, assembled from the registry's
    /// scheduler instruments and the prefix cache's counters.
    pub fn stats(&self) -> SessionStats {
        let m = &self.metrics;
        let count = |c: &Counter| c.get() as usize;
        let prefix = self.prefix_cache_stats().unwrap_or_default();
        SessionStats {
            steps: count(&m.steps),
            tokens_generated: count(&m.tokens_generated),
            max_batch_used: self.max_batch_used,
            prefill_tokens: count(&m.prefill_tokens),
            prefill_chunks: count(&m.prefill_chunks),
            cancelled: count(&m.cancelled),
            prefix_hits: prefix.hits as usize,
            prefix_tokens_reused: prefix.tokens_reused as usize,
            preemptions: m.preemptions.each_ref().map(|c| count(c)),
            recompute_tokens: count(&m.recompute_tokens),
            peak_kv_bytes: m.kv_peak_bytes.get().max(0) as usize,
        }
    }

    /// Requests admitted and not yet finished (waiting or in flight).
    pub fn pending(&self) -> usize {
        self.scheduler.pending()
    }

    /// Whether request `id` is still live: waiting in the scheduler
    /// queue, or finished-but-undrained (zero-budget submissions before
    /// the next [`Session::step`]).
    pub fn is_live(&self, id: RequestId) -> bool {
        self.scheduler.iter().any(|r| r.id == id)
            || self.finished.iter().any(|r| r.id == id)
            || self
                .pending_forks
                .values()
                .any(|fs| fs.iter().any(|&(f, _)| f == id))
    }

    /// Enqueues a request, returning its id — the *leader* id when
    /// [`GenRequest::n_samples`] `> 1`, with samples `i = 1..n` assigned
    /// the consecutive ids `leader + i`. Requests with a zero token
    /// budget finish immediately (every sample returns the bare prompt).
    /// With a prefix cache enabled, admission matches the longest cached
    /// prompt prefix and the request prefills only the suffix.
    ///
    /// # Panics
    ///
    /// Panics if the prompt is empty or contains out-of-vocabulary tokens.
    pub fn submit(&mut self, req: GenRequest) -> RequestId {
        assert!(!req.prompt.is_empty(), "prompt must be non-empty");
        let vocab = self.model.config().vocab;
        assert!(
            req.prompt.iter().all(|&t| t < vocab),
            "prompt token out of vocabulary"
        );
        let n_samples = req.n_samples.max(1);
        let id = self.next_id;
        self.next_id += n_samples;
        if req.max_new_tokens == 0 {
            for i in 0..n_samples {
                self.finished.push(GenResult {
                    id: id + i,
                    tokens: req.prompt.clone(),
                    new_tokens: 0,
                });
            }
            return id;
        }
        let attach = self.prefix.as_mut().and_then(|c| c.lookup(&req.prompt));
        if n_samples > 1 {
            self.pending_forks.insert(
                id,
                (1..n_samples)
                    .map(|i| (id + i, req.seed.wrapping_add(i as u64)))
                    .collect(),
            );
        }
        self.scheduler.push(InFlight {
            id,
            prompt_len: req.prompt.len(),
            tokens: req.prompt,
            remaining: req.max_new_tokens,
            temperature: req.temperature,
            class: req.class,
            rng: SeededRng::new(req.seed),
            state: None,
            attach,
            recomputing: false,
        });
        self.metrics
            .queue_depth
            .set(self.scheduler.pending() as i64);
        id
    }

    /// Removes a live request before it finishes, releasing its batch
    /// slot and KV cache immediately. Returns `false` if `id` is not
    /// live (unknown, already finished, or already cancelled). A
    /// zero-budget request whose result is still waiting to drain
    /// through [`Session::step`] is also cancellable — its result is
    /// discarded.
    pub fn cancel(&mut self, id: RequestId) -> bool {
        // A fork sample whose leader has not completed its prompt yet:
        // drop it from the pending group (it never entered the queue).
        for followers in self.pending_forks.values_mut() {
            if let Some(pos) = followers.iter().position(|&(f, _)| f == id) {
                followers.remove(pos);
                self.metrics.cancelled.inc();
                return true;
            }
        }
        if let Some(req) = self.scheduler.remove(id) {
            // Cancelling a fork leader before its prompt completes takes
            // its undispersed samples with it — they cannot exist
            // without the leader's prefill.
            if let Some(followers) = self.pending_forks.remove(&id) {
                self.metrics.cancelled.add(followers.len() as u64);
            }
            // Dropping the InFlight drops its DecodeState: the KV cache
            // is reclaimed now, not at some later step.
            drop(req);
            self.metrics.cancelled.inc();
            self.record_occupancy();
            return true;
        }
        if let Some(pos) = self.finished.iter().position(|r| r.id == id) {
            self.finished.remove(pos);
            self.metrics.cancelled.inc();
            return true;
        }
        false
    }

    /// Refreshes the queue-depth and KV gauges from current state.
    fn record_occupancy(&self) {
        self.metrics
            .queue_depth
            .set(self.scheduler.pending() as i64);
        self.metrics.kv_rows.set(self.kv_occupancy() as i64);
        self.metrics.kv_bytes.set(self.kv_occupancy_bytes() as i64);
    }

    /// Total K/V rows held by live requests across all layers — the KV
    /// occupancy a serving front-end budgets against. Finished and
    /// cancelled requests release their rows eagerly (within the same
    /// [`Session::step`] call that retires them), so an idle session
    /// always reports 0.
    pub fn kv_occupancy(&self) -> usize {
        self.scheduler
            .iter()
            .map(|r| r.state.as_ref().map_or(0, |s| s.kv_rows()))
            .sum()
    }

    /// KV storage bytes held by live requests (see
    /// [`microscopiq_fm::DecodeState::kv_bytes`]).
    pub fn kv_occupancy_bytes(&self) -> usize {
        self.scheduler
            .iter()
            .map(|r| r.state.as_ref().map_or(0, |s| s.kv_bytes()))
            .sum()
    }

    /// KV bytes one new token adds across all layers: one fp64 K and one
    /// fp64 V row per layer, `n_layers × 2 × d_model × 8`. Used to
    /// project a step's growth against [`Session::kv_byte_budget`].
    fn kv_bytes_per_token(&self) -> usize {
        let cfg = self.model.config();
        cfg.n_layers * 2 * cfg.d_model * 8
    }

    /// Preempts a live request: releases its [`DecodeState`] (KV rows
    /// and bytes reclaimed immediately) while keeping its sampled
    /// tokens, its RNG — already fast-forwarded by every draw it has
    /// made — and its queue position. The request later re-advances its
    /// full history (prompt + generated tokens) as chunked recompute
    /// segments, attaching the longest cached prefix when a prefix cache
    /// is enabled, and resumes sampling bitwise exactly where it left
    /// off: logits are only drawn once the cache has caught back up, so
    /// the RNG stream is untouched by the recompute (the same argument
    /// that makes chunked prefill bitwise-invisible).
    ///
    /// Returns `false` (and does nothing) if `id` is not live or holds
    /// no KV yet — preempting a request that never prefilled is a no-op.
    pub fn preempt(&mut self, id: RequestId) -> bool {
        let cached = self.prefix.is_some();
        let Some(req) = self.scheduler.iter_mut().find(|r| r.id == id) else {
            return false;
        };
        let holds_kv = req.state.as_ref().is_some_and(|s| s.kv_bytes() > 0);
        if !holds_kv {
            return false;
        }
        req.state = None;
        req.recomputing = true;
        let class = req.class;
        // Re-match the prefix cache over the full history so the
        // recompute reuses whatever is cached (at minimum the request's
        // own prompt, if it completed prompt prefill and was inserted).
        if cached {
            let tokens = std::mem::take(&mut req.tokens);
            let attach = self.prefix.as_mut().and_then(|c| c.lookup(&tokens));
            let req = self
                .scheduler
                .iter_mut()
                .find(|r| r.id == id)
                .expect("request found above");
            req.tokens = tokens;
            req.attach = attach;
        }
        self.metrics.preemptions[class.index()].inc();
        self.record_occupancy();
        true
    }

    /// The preemption half of [`Session::kv_byte_budget`] enforcement,
    /// run ahead of planning: while current occupancy plus the
    /// *interactive* requests' next-step growth (their largest
    /// `max_batch` chunk gaps, token-budget-capped, times the per-token
    /// byte bound) projects past the budget, preempt a sheddable victim
    /// — best-effort before batch, newest (highest id) first,
    /// interactive never. Only interactive growth triggers preemption:
    /// sheddable growth is held back for free by [`Session::gate_planned`],
    /// so reclaiming KV for it would waste recompute work. The victim
    /// key `(class, id)` is a fixed total order over live requests, so
    /// repeated enforcement keeps sacrificing the same newest requests
    /// while older ones run to completion — two sheddable requests can
    /// never ping-pong preempting each other. Deterministic: depends
    /// only on queue state.
    fn enforce_kv_budget(&mut self) {
        let Some(budget) = self.kv_byte_budget else {
            return;
        };
        let per_token = self.kv_bytes_per_token();
        let cfg = self.scheduler.config();
        loop {
            let occupancy = self.kv_occupancy_bytes();
            let mut gaps: Vec<usize> = self
                .scheduler
                .iter()
                .filter(|r| r.class == QosClass::Interactive)
                .map(|r| r.step_tokens(cfg.prefill_chunk))
                .collect();
            gaps.sort_unstable_by(|a, b| b.cmp(a));
            let growth: usize = gaps
                .iter()
                .take(cfg.max_batch)
                .sum::<usize>()
                .min(cfg.token_budget);
            if occupancy.saturating_add(growth.saturating_mul(per_token)) <= budget {
                return;
            }
            let victim = self
                .scheduler
                .iter()
                .filter(|r| r.class != QosClass::Interactive)
                .filter(|r| r.state.as_ref().is_some_and(|s| s.kv_bytes() > 0))
                .max_by_key(|r| (r.class.index(), r.id))
                .map(|r| r.id);
            let Some(id) = victim else {
                // Nothing left to reclaim: the remaining demand is
                // interactive (or stateless). Serve it anyway — the
                // budget sheds sheddable memory; capping interactive
                // admission is `max_in_flight`'s job.
                return;
            };
            self.preempt(id);
        }
    }

    /// The planning half of [`Session::kv_byte_budget`] enforcement:
    /// clips or defers *sheddable* planned work whose worst-case KV
    /// growth would project past the budget. Walks the plan in its QoS
    /// priority order, accumulating projected bytes (the live KV of
    /// every request — planned entries included — plus each approved
    /// take times the per-token bound). Interactive entries always pass
    /// (irreducible demand, see [`Session::enforce_kv_budget`]); a
    /// sheddable entry is clipped to the tokens that still fit
    /// (chunk splits are bitwise-invisible) and returned to the front
    /// of its class queue when none do. Deferral is free — unlike
    /// preemption the request keeps its KV and simply waits for
    /// occupancy to retire — so budget backpressure never wastes
    /// recompute work. Liveness guard: when nothing else was kept, the
    /// first plannable request proceeds with its full chunk even past
    /// the budget — a lone request whose own working set exceeds the
    /// budget must run (stalling it forever serves nobody), so the
    /// budget is strict except for that irreducible single-request
    /// overshoot.
    fn gate_planned(&mut self, planned: Vec<(InFlight, usize)>) -> Vec<(InFlight, usize)> {
        let Some(budget) = self.kv_byte_budget else {
            return planned;
        };
        let per_token = self.kv_bytes_per_token();
        let mut projected: usize = self.kv_occupancy_bytes()
            + planned
                .iter()
                .map(|(r, _)| r.state.as_ref().map_or(0, |s| s.kv_bytes()))
                .sum::<usize>();
        let mut kept = Vec::with_capacity(planned.len());
        let mut deferred: Vec<InFlight> = Vec::new();
        for (req, take) in planned {
            let headroom = budget.saturating_sub(projected) / per_token;
            let clipped = if req.class == QosClass::Interactive {
                take
            } else {
                take.min(headroom)
            };
            if clipped == 0 {
                if kept.is_empty() && deferred.is_empty() {
                    projected = projected.saturating_add(take.saturating_mul(per_token));
                    kept.push((req, take));
                } else {
                    deferred.push(req);
                }
            } else {
                projected = projected.saturating_add(clipped.saturating_mul(per_token));
                kept.push((req, clipped));
            }
        }
        // Reverse order restores arrival order within each class queue.
        for req in deferred.into_iter().rev() {
            self.scheduler.requeue_front(req);
        }
        kept
    }

    /// Runs one batched decode step over live requests (bounded by the
    /// batch cap and token budget): one segment-packed forward — prefill
    /// chunks for requests whose prompt is incomplete, single-token
    /// segments for the rest — then one sampled token per request whose
    /// prefill completed. Returns the requests that **finished** on this
    /// step (plus any zero-budget submissions that completed instantly
    /// since the last step), sorted by id — empty when nothing finished
    /// or the session is idle.
    pub fn step(&mut self) -> Vec<GenResult> {
        self.step_report().finished
    }

    /// Like [`Session::step`], but also reports the token sampled for
    /// every request that completed a position on this step — the hook a
    /// streaming server uses to push tokens to clients as they are
    /// generated. Requests parked mid-prefill emit nothing until the
    /// step that finishes their prompt.
    pub fn step_report(&mut self) -> StepReport {
        // Instantly-finished (zero-budget) requests drain through the
        // next step so streaming callers see every completion.
        let mut done = std::mem::take(&mut self.finished);
        let mut emitted = Vec::new();
        let mut step_batch = None;
        // Memory pressure is resolved around planning: preemption first
        // reclaims sheddable KV that interactive growth needs, then the
        // gate clips/defers sheddable planned work so the step's actual
        // growth fits the budget (or is irreducible demand).
        self.enforce_kv_budget();
        let planned = self.scheduler.take_planned();
        let mut batch = self.gate_planned(planned);
        if !batch.is_empty() {
            let mut sb = StepBatch {
                requests: batch.len(),
                ..StepBatch::default()
            };
            for (req, take) in batch.iter_mut() {
                sb.class_requests[req.class.index()] += 1;
                if req.state.is_none() {
                    req.state = Some(match req.attach.take() {
                        // Admission matched a cached prefix: attach its
                        // segments copy-on-write and prefill the suffix.
                        Some(m) => DecodeState::with_prefix(
                            self.model.config(),
                            &req.tokens[..m.tokens],
                            &m.bundles,
                        ),
                        None => DecodeState::exact(self.model.config()),
                    });
                }
                if req.recomputing {
                    // A preempted request re-advancing history: counted
                    // apart from first-time prefill so `prefill_tokens`
                    // keeps meaning "each prompt token at most once".
                    sb.recompute_chunks += 1;
                    sb.recompute_tokens += *take;
                    sb.prefilled.push((req.id, *take));
                } else if !req.prefill_done() {
                    // Prompt tokens are counted on the step whose chunk
                    // advances them — never re-counted on resume.
                    sb.prefill_chunks += 1;
                    sb.prefill_tokens += *take;
                    sb.prefilled.push((req.id, *take));
                } else {
                    sb.decode_segments += 1;
                }
            }
            sb.new_tokens = sb.prefill_tokens + sb.recompute_tokens + sb.decode_segments;
            step_batch = Some(sb);
            let mut jobs: Vec<DecodeJob<'_>> = batch
                .iter_mut()
                .map(|(req, take)| {
                    let InFlight { state, tokens, .. } = req;
                    let state = state.as_mut().expect("state created above");
                    // New tokens = the next slice the cache hasn't seen:
                    // up to a chunk of prompt while prefilling, exactly
                    // the one sampled token after.
                    let tokens = &state.remaining_prompt(tokens)[..*take];
                    DecodeJob { state, tokens }
                })
                .collect();
            let logits = self.model.advance_batch(&mut jobs, &self.engine);
            drop(jobs);
            self.max_batch_used = self.max_batch_used.max(batch.len());
            // True in-step peak: caches only grow during the forward and
            // finished requests release only at retirement below, so the
            // high-water mark is right here. (Planned requests were
            // popped from the queues, so sum both views.)
            let peak = self.kv_occupancy_bytes()
                + batch
                    .iter()
                    .map(|(r, _)| r.state.as_ref().map_or(0, |s| s.kv_bytes()))
                    .sum::<usize>();
            self.metrics.kv_peak_bytes.set_max(peak as i64);
            let mut generated = 0;
            for ((req, _), logit) in batch.iter_mut().zip(logits.iter()) {
                // Sample only when every known token is in the cache —
                // i.e. the prompt just completed (final prefill chunk)
                // or this was a decode step. A request parked mid-prompt
                // draws nothing, so its RNG stream is untouched and
                // chunked outputs stay bitwise equal to whole-prompt —
                // and a preempted request recomputing history draws
                // nothing until the cache catches back up, so resumed
                // streams stay bitwise equal to unpreempted ones.
                let state = req.state.as_ref().expect("state created above");
                if state.len() < req.tokens.len() {
                    continue;
                }
                // The cache caught up: recompute (if any) is complete
                // and this request is back in steady-state decode.
                req.recomputing = false;
                // True exactly once per request: the step whose chunk
                // completed the prompt (no continuation pushed yet).
                let prompt_complete = req.tokens.len() == req.prompt_len;
                if prompt_complete {
                    if let Some(cache) = self.prefix.as_mut() {
                        cache.insert(
                            req.state.as_ref().expect("state created above"),
                            req.prompt_len,
                        );
                    }
                }
                let last = logit.col(logit.cols() - 1);
                let tok = sample_logits(&last, req.temperature, &mut req.rng);
                emitted.push((req.id, tok));
                generated += 1;
                if prompt_complete {
                    if let Some(followers) = self.pending_forks.remove(&req.id) {
                        // Disperse the fork group: freeze the leader's
                        // prompt rows into shared segments, then give
                        // each sample a copy-on-write clone plus its
                        // first token, drawn from the same final-chunk
                        // logits with its own seed — bitwise the draw a
                        // solo request with that seed would make.
                        let state = req.state.as_mut().expect("state created above");
                        let seal = state.len();
                        if seal > 0 {
                            state.share_prefix(seal);
                        }
                        for (fid, seed) in followers {
                            let mut rng = SeededRng::new(seed);
                            let fork_tok = sample_logits(&last, req.temperature, &mut rng);
                            emitted.push((fid, fork_tok));
                            generated += 1;
                            let mut tokens = req.tokens.clone();
                            tokens.push(fork_tok);
                            if req.remaining == 1 {
                                done.push(GenResult {
                                    id: fid,
                                    new_tokens: 1,
                                    tokens,
                                });
                            } else {
                                self.scheduler.push(InFlight {
                                    id: fid,
                                    prompt_len: req.prompt_len,
                                    tokens,
                                    remaining: req.remaining - 1,
                                    temperature: req.temperature,
                                    class: req.class,
                                    rng,
                                    state: Some(
                                        req.state.as_ref().expect("state created above").clone(),
                                    ),
                                    attach: None,
                                    recomputing: false,
                                });
                            }
                        }
                    }
                }
                req.tokens.push(tok);
                req.remaining -= 1;
            }
            // Retire finished requests; the rest return to their class
            // queue's front in order, keeping arrival-order fairness
            // within the class (a request parked mid-prefill keeps its
            // place in line).
            for (req, _) in batch.into_iter().rev() {
                if req.remaining == 0 {
                    let InFlight {
                        id,
                        tokens,
                        prompt_len,
                        state,
                        ..
                    } = req;
                    // Release the KV cache *before* reporting: finished
                    // requests must never count against occupancy once
                    // their result is visible to the caller.
                    drop(state);
                    done.push(GenResult {
                        id,
                        new_tokens: tokens.len() - prompt_len,
                        tokens,
                    });
                } else {
                    self.scheduler.requeue_front(req);
                }
            }
            let sb = step_batch.as_mut().expect("set when batch non-empty");
            sb.queue_depth = self.scheduler.pending();
            sb.kv_rows = self.kv_occupancy();
            sb.kv_bytes = self.kv_occupancy_bytes();
            self.metrics.steps.inc();
            self.metrics.prefill_chunks.add(sb.prefill_chunks as u64);
            self.metrics.prefill_tokens.add(sb.prefill_tokens as u64);
            self.metrics
                .recompute_tokens
                .add(sb.recompute_tokens as u64);
            self.metrics.tokens_generated.add(generated as u64);
            self.metrics.batch_requests.record(sb.requests as u64);
            self.metrics.step_new_tokens.record(sb.new_tokens as u64);
            self.metrics.queue_depth.set(sb.queue_depth as i64);
            self.metrics.kv_rows.set(sb.kv_rows as i64);
            self.metrics.kv_bytes.set(sb.kv_bytes as i64);
        }
        done.sort_by_key(|r| r.id);
        StepReport {
            emitted,
            finished: done,
            batch: step_batch,
        }
    }

    /// Drives decode steps until every submitted request has finished,
    /// returning all results sorted by request id. Built on
    /// [`Session::step`] — callers that want completions as they happen
    /// can drive `step` themselves.
    pub fn run_to_completion(&mut self) -> Vec<GenResult> {
        let mut out = Vec::new();
        loop {
            out.extend(self.step());
            if self.scheduler.pending() == 0 && self.finished.is_empty() {
                break;
            }
        }
        out.sort_by_key(|r| r.id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microscopiq_core::{MicroScopiQ, QuantConfig};
    use microscopiq_fm::{DequantGemm, TinyFm, TinyFmConfig};

    fn packed_model(seed: u64) -> (TinyFm, PackedTinyFm) {
        let cfg = TinyFmConfig {
            d_model: 32,
            n_heads: 2,
            d_ff: 64,
            n_layers: 2,
            vocab: 64,
        };
        let fm = TinyFm::teacher(cfg, seed);
        let mut rng = SeededRng::new(11);
        let calib: Vec<Vec<usize>> = (0..3).map(|_| fm.generate(8, 0.8, &mut rng)).collect();
        let q = MicroScopiQ::new(
            QuantConfig::w4()
                .macro_block(32)
                .row_block(32)
                .build()
                .unwrap(),
        );
        let packed = PackedTinyFm::quantize_from(&fm, &q, &calib).unwrap();
        (fm, packed)
    }

    /// Reference: generate one request alone through the same engine type,
    /// re-running the full prefix every step (the pre-incremental path).
    fn solo_generate(model: &PackedTinyFm, req: &GenRequest) -> Vec<usize> {
        let mut tokens = req.prompt.clone();
        let mut rng = SeededRng::new(req.seed);
        for _ in 0..req.max_new_tokens {
            let logits = model.forward(&tokens, &DequantGemm);
            let t = tokens.len() - 1;
            tokens.push(microscopiq_fm::sample_token(
                &logits,
                t,
                req.temperature,
                &mut rng,
            ));
        }
        tokens
    }

    #[test]
    fn batched_serving_matches_solo_generation() {
        let (_, packed) = packed_model(31);
        let reqs: Vec<GenRequest> = (0..5)
            .map(|i| GenRequest {
                prompt: vec![1 + i, 2 + i, 3],
                max_new_tokens: 4 + i,
                temperature: 0.8,
                seed: 100 + i as u64,
                ..Default::default()
            })
            .collect();
        let expected: Vec<Vec<usize>> = reqs.iter().map(|r| solo_generate(&packed, r)).collect();

        let mut session = Session::new(packed, DequantGemm, 3);
        for r in &reqs {
            session.submit(r.clone());
        }
        let results = session.run_to_completion();
        assert_eq!(results.len(), reqs.len());
        for (res, expect) in results.iter().zip(expected.iter()) {
            assert_eq!(&res.tokens, expect, "request {} diverged in batch", res.id);
        }
        let stats = session.stats();
        assert!(stats.max_batch_used > 1, "scheduler must actually batch");
        assert_eq!(
            stats.tokens_generated,
            reqs.iter().map(|r| r.max_new_tokens).sum::<usize>()
        );
    }

    #[test]
    fn continuous_batching_backfills_queue_slots() {
        let (_, packed) = packed_model(32);
        let mut session = Session::new(packed, DequantGemm, 2);
        // Three requests, batch cap 2: the third rides once a slot frees.
        for i in 0..3 {
            session.submit(GenRequest {
                prompt: vec![i + 1],
                max_new_tokens: 2,
                temperature: 0.7,
                seed: i as u64,
                ..Default::default()
            });
        }
        let results = session.run_to_completion();
        assert_eq!(results.len(), 3);
        assert_eq!(session.stats().max_batch_used, 2);
        for r in results {
            assert_eq!(r.tokens.len(), 3, "prompt 1 + generated 2");
        }
    }

    #[test]
    fn zero_budget_requests_finish_immediately() {
        let (_, packed) = packed_model(33);
        let mut session = Session::new(packed, DequantGemm, 2);
        let id = session.submit(GenRequest {
            prompt: vec![5, 6],
            max_new_tokens: 0,
            temperature: 1.0,
            seed: 1,
            ..Default::default()
        });
        let results = session.run_to_completion();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].id, id);
        assert_eq!(results[0].tokens, vec![5, 6]);
        assert_eq!(session.stats().steps, 0);
    }

    #[test]
    fn step_streams_completions_as_they_finish() {
        let (_, packed) = packed_model(35);
        let mut session = Session::new(packed, DequantGemm, 4);
        // Budgets 1 and 3: the first request must surface from step() two
        // steps before the second.
        let ids: Vec<RequestId> = [1usize, 3]
            .iter()
            .map(|&budget| {
                session.submit(GenRequest {
                    prompt: vec![7, 8],
                    max_new_tokens: budget,
                    temperature: 0.8,
                    seed: budget as u64,
                    ..Default::default()
                })
            })
            .collect();
        let first = session.step();
        assert_eq!(first.len(), 1, "budget-1 request finishes on step 1");
        assert_eq!(first[0].id, ids[0]);
        assert_eq!(first[0].new_tokens, 1);
        assert!(session.step().is_empty(), "nothing finishes on step 2");
        let third = session.step();
        assert_eq!(third.len(), 1, "budget-3 request finishes on step 3");
        assert_eq!(third[0].id, ids[1]);
        assert!(session.step().is_empty(), "idle session streams nothing");
        assert_eq!(session.stats().steps, 3);
    }

    #[test]
    fn zero_budget_completions_drain_through_step() {
        let (_, packed) = packed_model(36);
        let mut session = Session::new(packed, DequantGemm, 2);
        let id = session.submit(GenRequest {
            prompt: vec![3],
            max_new_tokens: 0,
            temperature: 1.0,
            seed: 9,
            ..Default::default()
        });
        let done = session.step();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        assert_eq!(session.stats().steps, 0, "no forward ran");
    }

    #[test]
    fn incremental_decode_prefills_once_per_request() {
        let (_, packed) = packed_model(37);
        let mut session = Session::new(packed, DequantGemm, 2);
        for i in 0..2 {
            session.submit(GenRequest {
                prompt: vec![1, 2, 3, 4],
                max_new_tokens: 5,
                temperature: 0.8,
                seed: i,
                ..Default::default()
            });
        }
        session.run_to_completion();
        let stats = session.stats();
        assert_eq!(
            stats.prefill_tokens, 8,
            "each prompt prefilled exactly once"
        );
        assert_eq!(stats.tokens_generated, 10);
        // 5 steps: one prefill+sample step, then 4 single-token steps.
        assert_eq!(stats.steps, 5);
    }

    /// Without a prefix cache every KV row a step appends is owned by its
    /// request, so occupancy grows by exactly the step's new tokens times
    /// the per-token figure the budget gate plans with.
    #[test]
    fn step_grows_kv_occupancy_by_new_tokens_times_bytes_per_token() {
        let (_, packed) = packed_model(39);
        let cfg = packed.config();
        let sched = SchedulerConfig::new(4).prefill_chunk(5).token_budget(9);
        let mut session = Session::with_config(packed, DequantGemm, sched, KvMode::Exact).unwrap();
        let per_token = session.kv_bytes_per_token();
        assert_eq!(per_token, cfg.n_layers * 2 * cfg.d_model * 8);
        for i in 0..3 {
            session.submit(GenRequest {
                prompt: (0..7 + 3 * i).map(|t| (5 * t + i) % cfg.vocab).collect(),
                max_new_tokens: 12,
                seed: i as u64,
                ..Default::default()
            });
        }
        let mut steps = 0;
        loop {
            let before = session.kv_occupancy_bytes();
            let report = session.step_report();
            if !report.finished.is_empty() {
                break;
            }
            let batch = report.batch.expect("unfinished requests advance");
            assert_eq!(
                session.kv_occupancy_bytes() - before,
                batch.new_tokens * per_token,
                "step {steps}"
            );
            steps += 1;
        }
        assert!(steps >= 5, "only {steps} growth steps measured");
    }

    #[test]
    fn step_report_emits_every_sampled_token() {
        let (_, packed) = packed_model(40);
        let mut session = Session::new(packed, DequantGemm, 4);
        let ids: Vec<RequestId> = (0..3)
            .map(|i| {
                session.submit(GenRequest {
                    prompt: vec![1 + i, 2],
                    max_new_tokens: 3,
                    temperature: 0.8,
                    seed: 70 + i as u64,
                    ..Default::default()
                })
            })
            .collect();
        let mut streamed: std::collections::HashMap<RequestId, Vec<usize>> =
            ids.iter().map(|&id| (id, Vec::new())).collect();
        let mut results = Vec::new();
        loop {
            let report = session.step_report();
            for (id, tok) in report.emitted {
                streamed.get_mut(&id).unwrap().push(tok);
            }
            results.extend(report.finished);
            if results.len() == ids.len() {
                break;
            }
        }
        for res in results {
            assert_eq!(
                streamed[&res.id],
                res.tokens[res.tokens.len() - res.new_tokens..],
                "per-step emission must reconstruct the generated suffix"
            );
        }
    }

    #[test]
    fn cancel_frees_slot_and_kv_cache() {
        let (_, packed) = packed_model(41);
        let layers = packed.config().n_layers;
        let mut session = Session::new(packed, DequantGemm, 2);
        let keep = session.submit(GenRequest {
            prompt: vec![1, 2],
            max_new_tokens: 4,
            temperature: 0.8,
            seed: 1,
            ..Default::default()
        });
        let drop_id = session.submit(GenRequest {
            prompt: vec![3, 4, 5],
            max_new_tokens: 4,
            temperature: 0.8,
            seed: 2,
            ..Default::default()
        });
        session.step();
        // Both prompts prefilled; each step's sampled token reaches the
        // cache on the *next* step it rides.
        assert_eq!(session.kv_occupancy(), (2 + 3) * layers);
        assert!(session.kv_occupancy_bytes() > 0);
        assert!(session.cancel(drop_id), "live request cancels");
        assert!(!session.cancel(drop_id), "second cancel is a no-op");
        assert_eq!(
            session.kv_occupancy(),
            2 * layers,
            "cancelled request's KV rows reclaimed immediately"
        );
        let results = session.run_to_completion();
        assert_eq!(results.len(), 1, "only the kept request finishes");
        assert_eq!(results[0].id, keep);
        assert_eq!(session.stats().cancelled, 1);
        assert_eq!(session.kv_occupancy(), 0);
    }

    #[test]
    fn finished_requests_release_kv_rows_eagerly() {
        let (_, packed) = packed_model(42);
        let layers = packed.config().n_layers;
        let mut session = Session::new(packed, DequantGemm, 2);
        session.submit(GenRequest {
            prompt: vec![1, 2, 3],
            max_new_tokens: 2,
            temperature: 0.8,
            seed: 3,
            ..Default::default()
        });
        assert_eq!(session.kv_occupancy(), 0, "nothing prefilled yet");
        assert!(session.step().is_empty());
        assert_eq!(session.kv_occupancy(), 3 * layers);
        let done = session.step();
        assert_eq!(done.len(), 1);
        assert_eq!(
            session.kv_occupancy(),
            0,
            "KV rows must be released within the step that finishes the request"
        );
    }

    #[test]
    fn cancel_discards_pending_zero_budget_result() {
        let (_, packed) = packed_model(43);
        let mut session = Session::new(packed, DequantGemm, 2);
        let id = session.submit(GenRequest {
            prompt: vec![1],
            max_new_tokens: 0,
            temperature: 1.0,
            seed: 4,
            ..Default::default()
        });
        assert!(session.cancel(id));
        assert!(session.step().is_empty(), "cancelled result never drains");
    }

    #[test]
    fn chunked_prefill_is_bitwise_identical_for_every_chunk_size() {
        let (_, packed) = packed_model(44);
        let reqs: Vec<GenRequest> = (0..4)
            .map(|i| GenRequest {
                prompt: (0..5 + 7 * i).map(|t| (t * 3 + i) % 60).collect(),
                max_new_tokens: 3 + i,
                temperature: 0.8,
                seed: 500 + i as u64,
                ..Default::default()
            })
            .collect();
        let mut whole = Session::new(packed.clone(), DequantGemm, 3);
        for r in &reqs {
            whole.submit(r.clone());
        }
        let expected = whole.run_to_completion();

        for chunk in [1usize, 2, 3, 5, 8, 64] {
            for budget in [usize::MAX, 1, 4, 9] {
                let cfg = SchedulerConfig::new(3)
                    .prefill_chunk(chunk)
                    .token_budget(budget);
                let mut session =
                    Session::with_config(packed.clone(), DequantGemm, cfg, KvMode::Exact).unwrap();
                for r in &reqs {
                    session.submit(r.clone());
                }
                let got = session.run_to_completion();
                assert_eq!(
                    got, expected,
                    "chunk={chunk} budget={budget} must not change outputs"
                );
                assert_eq!(session.kv_occupancy(), 0);
            }
        }
    }

    #[test]
    fn chunked_prefill_counts_tokens_once_and_chunks_per_segment() {
        let (_, packed) = packed_model(45);
        let cfg = SchedulerConfig::new(2).prefill_chunk(3);
        let mut session = Session::with_config(packed, DequantGemm, cfg, KvMode::Exact).unwrap();
        session.submit(GenRequest {
            prompt: (0..10).map(|t| t % 50).collect(),
            max_new_tokens: 2,
            temperature: 0.8,
            seed: 7,
            ..Default::default()
        });
        // Chunks of 3/3/3/1, no token sampled until the prompt completes.
        for expect_prefilled in [3usize, 6, 9] {
            let report = session.step_report();
            assert!(report.emitted.is_empty(), "mid-prefill steps emit nothing");
            assert_eq!(session.stats().prefill_tokens, expect_prefilled);
        }
        let report = session.step_report();
        assert_eq!(
            report.emitted.len(),
            1,
            "final chunk samples the first token"
        );
        let stats = session.stats();
        assert_eq!(stats.prefill_tokens, 10, "each prompt token counted once");
        assert_eq!(stats.prefill_chunks, 4, "10 tokens at chunk 3 = 4 segments");
        session.run_to_completion();
        let stats = session.stats();
        assert_eq!(stats.prefill_tokens, 10, "resume never double-counts");
        assert_eq!(stats.prefill_chunks, 4);
        assert_eq!(stats.tokens_generated, 2);
        // 4 prefill steps (last one samples) + 1 decode step.
        assert_eq!(stats.steps, 5);
    }

    #[test]
    fn token_budget_caps_new_tokens_per_step() {
        let (_, packed) = packed_model(46);
        // Budget 2 with three live decode streams: only two ride per step.
        let cfg = SchedulerConfig::new(4).token_budget(2);
        let mut session = Session::with_config(packed, DequantGemm, cfg, KvMode::Exact).unwrap();
        for i in 0..3 {
            session.submit(GenRequest {
                prompt: vec![1 + i],
                max_new_tokens: 2,
                temperature: 0.8,
                seed: i as u64,
                ..Default::default()
            });
        }
        let results = session.run_to_completion();
        assert_eq!(results.len(), 3);
        assert_eq!(
            session.stats().max_batch_used,
            2,
            "budget 2 = 2 requests/step"
        );
    }

    #[test]
    fn cancel_mid_prefill_reclaims_partial_kv() {
        let (_, packed) = packed_model(47);
        let layers = packed.config().n_layers;
        let cfg = SchedulerConfig::new(2).prefill_chunk(4);
        let mut session = Session::with_config(packed, DequantGemm, cfg, KvMode::Exact).unwrap();
        let keep = session.submit(GenRequest {
            prompt: vec![1, 2],
            max_new_tokens: 2,
            temperature: 0.8,
            seed: 1,
            ..Default::default()
        });
        let victim = session.submit(GenRequest {
            prompt: (0..20).map(|t| t % 50).collect(),
            max_new_tokens: 4,
            temperature: 0.8,
            seed: 2,
            ..Default::default()
        });
        session.step();
        // keep: 2-token prompt fully prefilled; victim: one 4-token chunk.
        assert_eq!(session.kv_occupancy(), (2 + 4) * layers);
        assert!(session.cancel(victim), "mid-prefill request cancels");
        assert_eq!(
            session.kv_occupancy(),
            2 * layers,
            "partial prefill KV reclaimed immediately"
        );
        let results = session.run_to_completion();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].id, keep);
        assert_eq!(session.stats().cancelled, 1);
        assert_eq!(session.kv_occupancy(), 0);
        assert!(
            session.stats().prefill_tokens < 2 + 20,
            "the cancelled prompt must not have been fully prefilled"
        );
    }

    #[test]
    #[should_panic(expected = "prefill chunk must be positive")]
    fn zero_prefill_chunk_is_rejected() {
        let (_, packed) = packed_model(48);
        let cfg = SchedulerConfig::new(2).prefill_chunk(0);
        let _ = Session::with_config(packed, DequantGemm, cfg, KvMode::Exact);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn oov_prompt_is_rejected() {
        let (_, packed) = packed_model(34);
        let mut session = Session::new(packed, DequantGemm, 2);
        session.submit(GenRequest {
            prompt: vec![1_000_000],
            max_new_tokens: 1,
            temperature: 1.0,
            seed: 0,
            ..Default::default()
        });
    }

    #[test]
    fn qos_class_never_changes_outputs() {
        // Class is a pure scheduling signal: a mixed-class fleet must
        // produce bitwise the same tokens as the same fleet all-default.
        let (_, packed) = packed_model(61);
        let mk = |classed: bool| {
            let mut session = Session::with_config(
                packed.clone(),
                DequantGemm,
                SchedulerConfig::new(3).token_budget(4),
                KvMode::Exact,
            )
            .unwrap();
            for i in 0..6usize {
                session.submit(GenRequest {
                    prompt: vec![1 + i, 2],
                    max_new_tokens: 3 + i % 3,
                    temperature: 0.8,
                    seed: 40 + i as u64,
                    class: if classed {
                        QosClass::ALL[i % 3]
                    } else {
                        QosClass::default()
                    },
                    ..Default::default()
                });
            }
            session.run_to_completion()
        };
        let classed = mk(true);
        let plain = mk(false);
        assert_eq!(classed.len(), plain.len());
        for (a, b) in classed.iter().zip(plain.iter()) {
            assert_eq!(a.tokens, b.tokens, "request {} diverged by class", a.id);
        }
    }

    #[test]
    fn qos_interactive_preempts_batch_backlog() {
        // One slot per step: a batch-class backlog must not delay an
        // interactive arrival once classes compete.
        let (_, packed) = packed_model(62);
        let mut session =
            Session::with_config(packed, DequantGemm, SchedulerConfig::new(1), KvMode::Exact)
                .unwrap();
        for i in 0..4usize {
            session.submit(GenRequest {
                prompt: vec![1 + i],
                max_new_tokens: 4,
                temperature: 0.8,
                seed: i as u64,
                class: QosClass::Batch,
                ..Default::default()
            });
        }
        let interactive = session.submit(GenRequest {
            prompt: vec![9],
            max_new_tokens: 2,
            temperature: 0.8,
            seed: 99,
            class: QosClass::Interactive,
            ..Default::default()
        });
        // The very next step must ride the interactive request even
        // though four batch requests arrived first.
        let report = session.step_report();
        let batch = report.batch.expect("a step ran");
        assert_eq!(batch.class_requests, [1, 0, 0]);
        assert!(report.emitted.iter().any(|&(id, _)| id == interactive));
    }

    #[test]
    fn qos_shares_split_token_budget_under_contention() {
        // 4 interactive + 4 batch decode streams, budget 6, default
        // shares 8:3 → pass 1 grants interactive 4 (all it has) and
        // batch 1; the spill grants batch 1 more.
        let (_, packed) = packed_model(63);
        let mut session = Session::with_config(
            packed,
            DequantGemm,
            SchedulerConfig::new(8).token_budget(6),
            KvMode::Exact,
        )
        .unwrap();
        for i in 0..4usize {
            session.submit(GenRequest {
                prompt: vec![1 + i],
                max_new_tokens: 8,
                temperature: 0.8,
                seed: i as u64,
                class: QosClass::Interactive,
                ..Default::default()
            });
            session.submit(GenRequest {
                prompt: vec![2 + i],
                max_new_tokens: 8,
                temperature: 0.8,
                seed: 10 + i as u64,
                class: QosClass::Batch,
                ..Default::default()
            });
        }
        // First step prefills; from the second step on, all 8 are
        // single-token decode streams competing for the budget of 6.
        session.step_report();
        let report = session.step_report();
        let batch = report.batch.expect("a step ran");
        assert_eq!(batch.new_tokens, 6, "token budget fully used");
        assert_eq!(
            batch.class_requests,
            [4, 2, 0],
            "weighted shares: interactive 4, batch 1 + 1 spilled"
        );
    }

    #[test]
    fn qos_best_effort_is_not_starved() {
        // An interactive flood competes with one best-effort request;
        // the guaranteed max(1, ..) share must keep it progressing.
        let (_, packed) = packed_model(64);
        let mut session = Session::with_config(
            packed,
            DequantGemm,
            SchedulerConfig::new(8).token_budget(4),
            KvMode::Exact,
        )
        .unwrap();
        for i in 0..8usize {
            session.submit(GenRequest {
                prompt: vec![1 + i],
                max_new_tokens: 16,
                temperature: 0.8,
                seed: i as u64,
                class: QosClass::Interactive,
                ..Default::default()
            });
        }
        let be = session.submit(GenRequest {
            prompt: vec![11],
            max_new_tokens: 3,
            temperature: 0.8,
            seed: 77,
            class: QosClass::BestEffort,
            ..Default::default()
        });
        let mut finished_at = None;
        for step in 0..64 {
            let done = session.step();
            if done.iter().any(|r| r.id == be) {
                finished_at = Some(step);
                break;
            }
        }
        // 1 prefill + 3 decode steps of guaranteed share, plus slack.
        let at = finished_at.expect("best-effort request finished");
        assert!(at <= 8, "best-effort starved: finished at step {at}");
    }

    #[test]
    fn single_class_plan_is_fcfs_regardless_of_class() {
        // With only one class present the weighted pass is skipped:
        // a batch-only queue plans exactly like an interactive-only one.
        let (_, packed) = packed_model(65);
        let run = |class: QosClass| {
            let mut session = Session::with_config(
                packed.clone(),
                DequantGemm,
                SchedulerConfig::new(2).token_budget(3),
                KvMode::Exact,
            )
            .unwrap();
            for i in 0..4usize {
                session.submit(GenRequest {
                    prompt: vec![1 + i, 2],
                    max_new_tokens: 3,
                    temperature: 0.8,
                    seed: i as u64,
                    class,
                    ..Default::default()
                });
            }
            let results = session.run_to_completion();
            (results, session.stats())
        };
        let (r_int, s_int) = run(QosClass::Interactive);
        let (r_be, s_be) = run(QosClass::BestEffort);
        assert_eq!(s_int, s_be, "identical step/batch accounting");
        for (a, b) in r_int.iter().zip(r_be.iter()) {
            assert_eq!(a.tokens, b.tokens);
        }
    }

    #[test]
    #[should_panic(expected = "QoS share weights must be positive")]
    fn zero_qos_weight_is_rejected() {
        let (_, packed) = packed_model(66);
        let cfg = SchedulerConfig::new(2).qos(QosShares {
            interactive: 8,
            batch: 0,
            best_effort: 1,
        });
        let _ = Session::with_config(packed, DequantGemm, cfg, KvMode::Exact);
    }

    #[test]
    fn preempt_mid_decode_resumes_bitwise() {
        let (_, packed) = packed_model(70);
        let req = GenRequest {
            prompt: vec![3, 1, 4, 1, 5, 9, 2, 6],
            max_new_tokens: 10,
            temperature: 0.8,
            seed: 41,
            class: QosClass::Batch,
            ..Default::default()
        };
        let expected = solo_generate(&packed, &req);

        let mut session = Session::with_config(
            packed,
            DequantGemm,
            SchedulerConfig::new(2).prefill_chunk(4),
            KvMode::Exact,
        )
        .unwrap();
        session.enable_prefix_cache(PrefixCacheConfig::default());
        let id = session.submit(req);
        // Past prefill and a few sampled tokens.
        for _ in 0..5 {
            session.step();
        }
        assert!(session.kv_occupancy() > 0, "request holds KV mid-decode");
        assert!(session.preempt(id), "live request with KV preempts");
        assert_eq!(session.kv_occupancy(), 0, "preemption releases the KV");
        let results = session.run_to_completion();
        assert_eq!(results.len(), 1);
        assert_eq!(
            results[0].tokens, expected,
            "preempted stream must resume bitwise"
        );
        let stats = session.stats();
        assert_eq!(stats.preemptions, [0, 1, 0]);
        assert!(
            stats.recompute_tokens > 0,
            "recompute segments were executed"
        );
        assert_eq!(
            session.kv_occupancy(),
            0,
            "KV drains after the stream finishes"
        );
    }

    #[test]
    fn preempt_is_noop_without_kv_or_for_unknown_id() {
        let (_, packed) = packed_model(71);
        let mut session = Session::new(packed, DequantGemm, 2);
        let id = session.submit(GenRequest {
            prompt: vec![1, 2],
            max_new_tokens: 2,
            temperature: 0.8,
            seed: 1,
            ..Default::default()
        });
        // Never stepped: no KV held yet.
        assert!(!session.preempt(id));
        assert!(!session.preempt(id + 99));
        assert_eq!(session.stats().preempted(), 0);
        let results = session.run_to_completion();
        assert_eq!(results.len(), 1, "no-op preempt leaves the request live");
    }

    #[test]
    fn kv_budget_preempts_sheddable_only_and_stays_bitwise() {
        let (_, packed) = packed_model(72);
        let mk = |i: usize, class: QosClass| GenRequest {
            prompt: vec![1 + i, 2, 3 + i, 4, 5 + i, 6, 7, 8 + i],
            max_new_tokens: 6,
            temperature: 0.8,
            seed: 200 + i as u64,
            class,
            ..Default::default()
        };
        let reqs: Vec<GenRequest> = vec![
            mk(0, QosClass::BestEffort),
            mk(1, QosClass::BestEffort),
            mk(2, QosClass::Interactive),
        ];
        let expected: Vec<Vec<usize>> = reqs.iter().map(|r| solo_generate(&packed, r)).collect();

        let mut session = Session::with_config(
            packed,
            DequantGemm,
            SchedulerConfig::new(2).prefill_chunk(4),
            KvMode::Exact,
        )
        .unwrap();
        session.enable_prefix_cache(PrefixCacheConfig::default());
        // d_model 32, 2 layers → 1 KiB per token (exact mode). ~14
        // tokens per finished request, two-deep batch: a 24 KiB ceiling
        // forces best-effort out when interactive pressure arrives, with
        // room for victims to recompute once pressure clears.
        let budget = 24 * 1024;
        session.set_kv_byte_budget(Some(budget));
        // Stagger: the best-effort pair acquires KV first (two chunk
        // steps → 16 KiB held), *then* the interactive request arrives —
        // its growth is what forces a sheddable victim out. (Submitted
        // all at once, the gate alone would defer best-effort from the
        // start and nothing would ever need preempting.)
        session.submit(reqs[0].clone());
        session.submit(reqs[1].clone());
        let mut results = Vec::new();
        for _ in 0..2 {
            results.extend(session.step());
        }
        assert!(session.kv_occupancy() > 0, "best-effort holds KV");
        session.submit(reqs[2].clone());
        for _ in 0..400 {
            results.extend(session.step());
            if results.len() == reqs.len() {
                break;
            }
        }
        assert_eq!(results.len(), reqs.len(), "budget squeeze must not stall");
        results.sort_by_key(|r| r.id);
        for (res, expect) in results.iter().zip(expected.iter()) {
            assert_eq!(
                &res.tokens, expect,
                "request {} diverged under preemption",
                res.id
            );
        }
        let stats = session.stats();
        assert!(stats.preempted() > 0, "the squeeze actually preempted");
        assert_eq!(stats.preemptions[0], 0, "interactive is never preempted");
        assert!(
            stats.peak_kv_bytes <= budget,
            "peak {} exceeded budget {budget}",
            stats.peak_kv_bytes
        );
        assert_eq!(session.kv_occupancy(), 0, "KV drains after churn");
    }
}
