//! The shared decode-state forward path: one implementation of the
//! TinyFM transformer math (RMSNorm → attention → RMSNorm → FFN) used by
//! both the dense [`TinyFm`] and the packed [`PackedTinyFm`], abstracted
//! over how linear layers execute through [`ModelOps`].
//!
//! The central object is [`DecodeState`]: per-block appendable KV caches
//! ([`LayerKvCache`]) plus the tokens processed so far. Everything —
//! full-prefix `forward`/`forward_batch`, `prefill`, and single-token
//! `decode_step` — is one function, [`advance_batch`], which advances a
//! batch of states by their new tokens in a single segment-packed pass:
//! every linear layer runs one GEMM over the concatenated new columns,
//! and attention runs per segment over that segment's cache (history +
//! the new tokens).
//!
//! # Bit-compatibility
//!
//! The cache stores K/V columns verbatim (exact fp64 KV), and every
//! per-column operation (GEMM columns, RMSNorm, softmax, weighted sums)
//! accumulates in the same order regardless of how many columns ride in
//! the pass. Incremental decode is therefore **bit-identical** to
//! full-prefix recompute: `prefill` + n × `decode_step` produces exactly
//! the logits of one `forward` over the whole sequence, token for token,
//! on any engine whose GEMM is column-independent (all engines in this
//! workspace are).
//!
//! # Attention accumulation order
//!
//! Attention is blocked, not reordered. Per (job, head) the kernel takes
//! `B ∈ {8, 4, 2, 1}` consecutive queries (largest width that still fits
//! the segment, so nothing is padded and a decode step is the `B = 1`
//! instantiation) and walks the job's [`KvView`] span by span. What is
//! vectorised is always an axis along which the results are independent
//! of each other; every reduction keeps one fixed sequential order:
//!
//! * **Q·K** — the `B` queries of a block run in lock-step (the vector
//!   axis is the query lane `b`); each lane's dot product adds its
//!   `q[i] · k[i]` terms with the head dimension `i` ascending, from the
//!   same `-0.0` identity `Iterator::sum` starts from.
//! * **softmax** — per query, the running max, the exponentials and
//!   their sum all take cache rows `s` ascending over exactly the rows
//!   that query may see (`hist + t + 1`); a later query of the block
//!   never contributes to an earlier one.
//! * **P·V** — each query accumulates `(p[s] / sum) · v[s][i]` into a
//!   contiguous `dh`-wide local with `s` ascending (the vector axis is
//!   the output dimension `i`), starting from `+0.0`.
//!
//! So every output element sees the rounding sequence the scalar
//! per-(head, token) loop produced, whatever `B` its query landed in.
//! Chunk and batch boundaries only move a query between block widths and
//! lanes — they change neither the rows it attends to nor the order it
//! visits them in — which is why chunking and batching still cannot
//! change a bit. A `#[cfg(test)]` copy of the scalar loop is the oracle
//! (`blocked_attention_is_bitwise_naive`).
//!
//! # Heads are parts
//!
//! One layer's attention is one [`PackedGemm::run_parts`] job with one
//! part per head. `attn` is row-major `d × total`, so head `h` owns the
//! contiguous panel of rows `h·dh..(h+1)·dh`; its part walks every
//! segment of the batch into that panel, with a scratch of its own. No
//! element is written by two heads and no head reads another's output,
//! so the loop order is (head, segment) whether the engine runs the parts
//! in order on the calling thread or spreads them over its compute pool,
//! and the per-element order above is the same either way: the split is
//! bitwise. The runtime engine splits once the pass's multiply-adds (Q·K
//! plus P·V, Σ over segments of `len × (hist + len) × d × 2`) reach its
//! `parallel_threshold`, the gate its GEMM calls use; the oracle test
//! also runs every head on a thread of its own.

use crate::packed::{run_parts_serially, PackedGemm, PackedTinyFm, PartFn};
use crate::tinyfm::{rmsnorm_col, silu, LinearId, TinyFm, TinyFmConfig};
use microscopiq_core::error::QuantError;
use microscopiq_core::kv_cache::{KvMode, KvSegment, KvView, LayerKvCache};
use microscopiq_linalg::Matrix;
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// How a model executes the shared forward math: configuration access
/// plus one `linear` hook per packed/dense weight representation.
pub(crate) trait ModelOps {
    fn cfg(&self) -> TinyFmConfig;
    fn embed(&self) -> &Matrix;
    fn ln1(&self, layer: usize) -> &[f64];
    fn ln2(&self, layer: usize) -> &[f64];
    fn ln_f(&self) -> &[f64];
    /// Computes `W[id] · acts`.
    fn linear(&self, id: LinearId, acts: &Matrix) -> Matrix;
    /// Runs an attention pass's per-head parts (see
    /// [`PackedGemm::run_parts`]); the dense model runs them in order.
    fn run_parts(&self, work: usize, parts: Vec<&mut [f64]>, part: &PartFn<'_>) {
        let _ = work;
        run_parts_serially(parts, part);
    }
}

impl ModelOps for TinyFm {
    fn cfg(&self) -> TinyFmConfig {
        self.cfg
    }
    fn embed(&self) -> &Matrix {
        &self.embed
    }
    fn ln1(&self, layer: usize) -> &[f64] {
        &self.blocks[layer].ln1
    }
    fn ln2(&self, layer: usize) -> &[f64] {
        &self.blocks[layer].ln2
    }
    fn ln_f(&self) -> &[f64] {
        &self.ln_f
    }
    fn linear(&self, id: LinearId, acts: &Matrix) -> Matrix {
        self.weights(id).matmul(acts)
    }
}

/// A packed model bound to a GEMM engine for the duration of one pass.
pub(crate) struct PackedOps<'a> {
    pub(crate) model: &'a PackedTinyFm,
    pub(crate) engine: &'a dyn PackedGemm,
}

impl ModelOps for PackedOps<'_> {
    fn cfg(&self) -> TinyFmConfig {
        self.model.cfg
    }
    fn embed(&self) -> &Matrix {
        &self.model.embed
    }
    fn ln1(&self, layer: usize) -> &[f64] {
        &self.model.blocks[layer].ln1
    }
    fn ln2(&self, layer: usize) -> &[f64] {
        &self.model.blocks[layer].ln2
    }
    fn ln_f(&self) -> &[f64] {
        &self.model.ln_f
    }
    fn linear(&self, id: LinearId, acts: &Matrix) -> Matrix {
        let layer = self.model.layer(id);
        if acts.cols() == 1 {
            // Single-token decode: route through the engine's GEMV entry
            // so a dispatching engine can pick a shape-specialized
            // kernel. A row-major one-column matrix is its own column
            // vector, and the default gemv round-trips through matmul,
            // so results are bit-identical either way.
            return Matrix::from_vec(layer.d_row(), 1, self.engine.gemv(layer, acts.as_slice()));
        }
        self.engine.matmul(layer, acts)
    }
    fn run_parts(&self, work: usize, parts: Vec<&mut [f64]>, part: &PartFn<'_>) {
        self.engine.run_parts(work, parts, part);
    }
}

/// Incremental decode state for one sequence: per-block KV caches plus
/// the tokens already processed. Create one with [`TinyFm::prefill`] /
/// [`PackedTinyFm::prefill`] (or [`DecodeState::exact`] +
/// [`PackedTinyFm::advance_batch`]) and feed it single tokens with
/// `decode_step` — each step costs O(prefix) attention work instead of
/// the O(prefix²) of re-running the whole prefix.
#[derive(Debug, Clone)]
pub struct DecodeState {
    d_model: usize,
    pub(crate) tokens: Vec<usize>,
    pub(crate) caches: Vec<LayerKvCache>,
}

impl DecodeState {
    /// Creates an empty state for a model of the given architecture —
    /// [`Self::exact`] behind the `Result` its callers already handle.
    ///
    /// # Errors
    ///
    /// Never: [`KvMode::Exact`] has no configuration to reject.
    pub fn new(cfg: TinyFmConfig, mode: KvMode) -> Result<Self, QuantError> {
        let KvMode::Exact = mode;
        Ok(Self::exact(cfg))
    }

    /// Creates an empty state; decode through it is bit-identical to
    /// full-prefix recompute.
    pub fn exact(cfg: TinyFmConfig) -> Self {
        Self {
            d_model: cfg.d_model,
            tokens: Vec::new(),
            caches: (0..cfg.n_layers)
                .map(|_| LayerKvCache::exact(cfg.d_model))
                .collect(),
        }
    }

    /// Creates a state that starts from a cached prompt prefix: every
    /// layer cache attaches the corresponding shared segments
    /// copy-on-write and the state's token cursor is set to `prefix`, so
    /// [`Self::remaining_prompt`] resumes at the first uncached token.
    /// `bundles` is ordered outer-by-run, inner-by-layer: each entry
    /// holds one [`KvSegment`] per transformer block and the entries'
    /// token lengths must sum to `prefix.len()`.
    ///
    /// The attached rows are bitwise the rows a cold prefill of `prefix`
    /// would have produced, so everything downstream (suffix prefill,
    /// sampling) is bit-identical to a cold request.
    ///
    /// # Panics
    ///
    /// Panics if a bundle's layer count disagrees with the model or the
    /// segment lengths do not sum to `prefix.len()` (width mismatches
    /// panic inside [`LayerKvCache::attach`]).
    pub fn with_prefix(
        cfg: TinyFmConfig,
        prefix: &[usize],
        bundles: &[Vec<Arc<KvSegment>>],
    ) -> Self {
        let mut state = Self::exact(cfg);
        let mut covered = 0;
        for bundle in bundles {
            assert_eq!(
                bundle.len(),
                cfg.n_layers,
                "prefix bundle must hold one segment per layer"
            );
            covered += bundle[0].len();
            for (layer, seg) in bundle.iter().enumerate() {
                assert_eq!(seg.len(), bundle[0].len(), "ragged prefix bundle");
                state.caches[layer].attach(Arc::clone(seg));
            }
        }
        assert_eq!(
            covered,
            prefix.len(),
            "attached segments must cover exactly the matched prefix"
        );
        state.tokens = prefix.to_vec();
        state
    }

    /// Freezes rows `[0, upto)` of every layer cache into refcounted
    /// shared segments (see [`LayerKvCache::share_prefix`]); afterwards
    /// cloning the state copies only the private tails, so N-way
    /// generation forks share one prefill. Returns one segment per layer
    /// covering the newly frozen rows, or `None` when the range was
    /// already shared.
    ///
    /// # Panics
    ///
    /// Panics if `upto` exceeds [`Self::len`].
    pub fn share_prefix(&mut self, upto: usize) -> Option<Vec<Arc<KvSegment>>> {
        let segs: Vec<_> = self
            .caches
            .iter_mut()
            .filter_map(|c| c.share_prefix(upto))
            .collect();
        if segs.is_empty() {
            return None;
        }
        assert_eq!(segs.len(), self.caches.len(), "ragged share across layers");
        Some(segs)
    }

    /// Tokens processed so far (prompt plus decoded continuations).
    pub fn tokens(&self) -> &[usize] {
        &self.tokens
    }

    /// Number of tokens processed so far.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether no tokens have been processed yet.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// The residual width the state was built for.
    pub fn d_model(&self) -> usize {
        self.d_model
    }

    /// Borrows block `layer`'s KV cache (for inspection/tests).
    pub fn cache(&self, layer: usize) -> &LayerKvCache {
        &self.caches[layer]
    }

    /// K/V rows this request *owns* across all layer caches — the
    /// per-request occupancy figure a serving scheduler charges against
    /// its KV budget. Attached shared segments are excluded: a shared
    /// prefix is accounted once by whoever retains its segments (a
    /// prefix cache, or nobody for ad-hoc forks), so retiring every
    /// request drains this figure to zero even when prefixes were
    /// reused. Without sharing this equals `tokens × n_layers` once a
    /// pass has run.
    pub fn kv_rows(&self) -> usize {
        self.caches.iter().map(|c| c.owned_len()).sum()
    }

    /// Storage bytes of this request's *owned* KV footprint across all
    /// layers (see [`LayerKvCache::owned_storage_bytes`]) — what
    /// retiring the request reclaims immediately. Shared segments are
    /// freed when their last holder drops.
    pub fn kv_bytes(&self) -> usize {
        self.caches.iter().map(|c| c.owned_storage_bytes()).sum()
    }

    /// Resumable partial-prefill cursor: the suffix of `tokens` this
    /// state has not processed yet. A scheduler advancing a prompt in
    /// chunks calls this with everything it knows about the request
    /// (prompt plus any already-sampled continuations) and feeds a
    /// prefix of the returned slice to the next
    /// [`advance_batch`](crate::PackedTinyFm::advance_batch) pass —
    /// mid-prefill the slice is the unprocessed prompt remainder, after
    /// prefill it is the (at most one) sampled token awaiting its decode
    /// step. Chunk-by-chunk advancement is bit-identical to one
    /// whole-prompt pass for any chunk sizes: KV rows are appended token
    /// by token either way, and attention is causal within each segment.
    /// (As everywhere in this module, the bitwise form of the claim needs
    /// an engine whose per-column results are independent of batch
    /// composition — true of every bit-exact engine here; the f32 fast
    /// tier's GEMV entry rounds differently from its GEMM, so there
    /// chunking is tolerance-stable, not bit-stable.)
    ///
    /// # Panics
    ///
    /// Panics if the tokens already processed are not a prefix of
    /// `tokens` — the state is not a partial prefill of this sequence,
    /// and resuming would silently corrupt the KV cache.
    pub fn remaining_prompt<'a>(&self, tokens: &'a [usize]) -> &'a [usize] {
        let done = self.tokens.len();
        assert!(
            done <= tokens.len() && self.tokens == tokens[..done],
            "decode state is not a partial prefill of this sequence \
             (processed {done} tokens that are not a prefix of the {} given)",
            tokens.len()
        );
        &tokens[done..]
    }
}

/// Chunked prefill: advances a fresh state over `tokens` in segments of
/// at most `chunk` tokens, reassembling the per-chunk logits into the
/// same `vocab × T` matrix one whole-prompt pass returns. On a bit-exact
/// engine the state *and* every logit column are bit-identical to
/// single-pass prefill for any `chunk`.
pub(crate) fn prefill_chunked(
    ops: &dyn ModelOps,
    tokens: &[usize],
    chunk: usize,
) -> (DecodeState, Matrix) {
    assert!(chunk > 0, "prefill chunk must be positive");
    assert!(!tokens.is_empty(), "cannot prefill an empty sequence");
    let cfg = ops.cfg();
    let mut state = DecodeState::exact(cfg);
    let mut logits = Matrix::zeros(cfg.vocab, tokens.len());
    while state.len() < tokens.len() {
        let start = state.len();
        let take = chunk.min(tokens.len() - start);
        let part = advance_batch(
            ops,
            &mut [DecodeJob {
                state: &mut state,
                tokens: &tokens[start..start + take],
            }],
            None,
        )
        .pop()
        .expect("one job in, one logit matrix out");
        for t in 0..take {
            for v in 0..cfg.vocab {
                logits[(v, start + t)] = part[(v, t)];
            }
        }
    }
    (state, logits)
}

/// One unit of work for [`advance_batch`]: a decode state plus the new
/// tokens to push through it (a whole prompt for prefill, one token for a
/// decode step).
#[derive(Debug)]
pub struct DecodeJob<'a> {
    /// The state to advance.
    pub state: &'a mut DecodeState,
    /// New tokens to process (must be non-empty and in-vocabulary).
    pub tokens: &'a [usize],
}

/// Where one job's new tokens sit in a segment-packed pass: columns
/// `[start, start + len)`, on top of `hist` rows already cached — token
/// `t` of the segment attends to `hist + t + 1` rows once its own K/V
/// row is appended.
#[derive(Debug, Clone, Copy)]
struct Segment {
    start: usize,
    len: usize,
    hist: usize,
}

/// Widest query block of the attention kernel.
const MAX_BLOCK: usize = 8;

/// Buffers of the blocked attention kernel, one per head, allocated once
/// per [`advance_batch`] call and reused by that head in every (layer,
/// job, block): `O(MAX_BLOCK × context)`, never `O(segment × context)`.
struct AttnScratch {
    /// Transposed Q head panel, `dh × B`: row `i` holds dimension `i` of
    /// the block's `B` queries.
    qt: Vec<f64>,
    /// Scaled scores, then softmax numerators, `rows × B`.
    scores: Vec<f64>,
    /// P·V accumulators, `B × dh`.
    out: Vec<f64>,
}

impl AttnScratch {
    /// Scratch for heads `dh` wide attending to at most `max_ctx` rows.
    fn new(dh: usize, max_ctx: usize) -> Self {
        Self {
            qt: vec![0.0; dh * MAX_BLOCK],
            scores: vec![0.0; max_ctx * MAX_BLOCK],
            out: vec![0.0; MAX_BLOCK * dh],
        }
    }
}

/// How [`advance_batch_with`] runs one head of one segment's causal
/// attention: reads rows `dims` of the segment's `q` columns, writes the
/// same columns of the head's panel (`dims.len() × q.cols()`, row-major).
type AttendFn = fn(&KvView<'_>, &Matrix, Range<usize>, &mut [f64], Segment, &mut AttnScratch);

/// Blocked causal attention for one head of one segment (see the module
/// docs for the accumulation-order contract).
fn attend_segment(
    view: &KvView<'_>,
    q: &Matrix,
    dims: Range<usize>,
    panel: &mut [f64],
    seg: Segment,
    scratch: &mut AttnScratch,
) {
    let mut t = 0;
    while t < seg.len {
        let (col, ctx) = (seg.start + t, seg.hist + t + 1);
        t += match seg.len - t {
            8.. => attend_block::<8>(view, q, dims.clone(), panel, col, ctx, scratch),
            4.. => attend_block::<4>(view, q, dims.clone(), panel, col, ctx, scratch),
            2.. => attend_block::<2>(view, q, dims.clone(), panel, col, ctx, scratch),
            _ => attend_block::<1>(view, q, dims.clone(), panel, col, ctx, scratch),
        };
    }
}

/// One head's attention for the `B` consecutive queries in columns
/// `[col, col + B)`; query `b` sees cache rows `[0, ctx + b)`. Returns
/// `B`.
fn attend_block<const B: usize>(
    view: &KvView<'_>,
    q: &Matrix,
    dims: Range<usize>,
    panel: &mut [f64],
    col: usize,
    ctx: usize,
    scratch: &mut AttnScratch,
) -> usize {
    let d = view.channels();
    let dh = dims.len();
    let scale = 1.0 / (dh as f64).sqrt();
    // Rows the block touches; row `s` is visible to queries `first(s)..B`.
    let rows = ctx + B - 1;
    debug_assert!(rows <= view.len(), "block's K/V rows are appended first");
    let first = |s: usize| (s + 1).saturating_sub(ctx);
    let (qt, _) = scratch.qt[..dh * B].as_chunks_mut::<B>();
    let (scores, _) = scratch.scores[..rows * B].as_chunks_mut::<B>();
    let out = &mut scratch.out[..B * dh];

    for (i, lanes) in qt.iter_mut().enumerate() {
        for (b, lane) in lanes.iter_mut().enumerate() {
            *lane = q[(dims.start + i, col + b)];
        }
    }

    // Scores: one pass over the key rows, B dot products in lock-step.
    // The last B − 1 rows also fill lanes that may not see them; the
    // softmax below never reads those.
    for span in view.spans().take_while(|sp| sp.start() < rows) {
        let keys = span.keys().chunks_exact(d);
        for (key, sc) in keys.zip(&mut scores[span.start()..]) {
            let mut acc = [-0.0_f64; B];
            for (lanes, &k) in qt.iter().zip(&key[dims.clone()]) {
                for (a, &l) in acc.iter_mut().zip(lanes) {
                    *a += l * k;
                }
            }
            for (s, a) in sc.iter_mut().zip(acc) {
                *s = a * scale;
            }
        }
    }

    let mut max = [f64::NEG_INFINITY; B];
    for (s, sc) in scores.iter().enumerate() {
        for b in first(s)..B {
            max[b] = max[b].max(sc[b]);
        }
    }
    let mut sum = [0.0_f64; B];
    for (s, sc) in scores.iter_mut().enumerate() {
        for b in first(s)..B {
            sc[b] = (sc[b] - max[b]).exp();
            sum[b] += sc[b];
        }
    }

    out.fill(0.0);
    for span in view.spans().take_while(|sp| sp.start() < rows) {
        let values = span.values().chunks_exact(d);
        for ((s, val), sc) in (span.start()..).zip(values).zip(&scores[span.start()..]) {
            let val = &val[dims.clone()];
            for (b, acc) in out.chunks_exact_mut(dh).enumerate().skip(first(s)) {
                let alpha = sc[b] / sum[b];
                for (o, &v) in acc.iter_mut().zip(val) {
                    *o += alpha * v;
                }
            }
        }
    }
    let total = q.cols();
    for (b, acc) in out.chunks_exact(dh).enumerate() {
        for (i, &o) in acc.iter().enumerate() {
            panel[i * total + col + b] = o;
        }
    }
    B
}

/// Advances every job's state by its new tokens in one segment-packed
/// pass, returning per-job logits (`vocab × new_len`).
///
/// Each linear layer runs a single GEMM over the concatenated new
/// columns; attention stays within each job's segment, reading keys and
/// values through that job's cache view (history + the new tokens, which
/// are appended before attention so each token attends to itself).
/// Per-job results are independent of what the job was batched with.
///
/// # Panics
///
/// Panics if `jobs` is empty, any job has no new tokens, any token is
/// outside the vocabulary, or a state's width disagrees with the model.
pub(crate) fn advance_batch(
    ops: &dyn ModelOps,
    jobs: &mut [DecodeJob<'_>],
    trace: Option<&mut Vec<Matrix>>,
) -> Vec<Matrix> {
    advance_batch_with(ops, jobs, trace, attend_segment)
}

/// [`advance_batch`] over a given attention routine — the seam the
/// oracle test swaps the scalar reference loop in through.
fn advance_batch_with(
    ops: &dyn ModelOps,
    jobs: &mut [DecodeJob<'_>],
    mut trace: Option<&mut Vec<Matrix>>,
    attend: AttendFn,
) -> Vec<Matrix> {
    assert!(!jobs.is_empty(), "advance_batch needs at least one job");
    let cfg = ops.cfg();
    let d = cfg.d_model;
    let nh = cfg.n_heads;

    let mut segments = Vec::with_capacity(jobs.len());
    let mut start = 0usize;
    for job in jobs.iter() {
        assert!(!job.tokens.is_empty(), "cannot run an empty sequence");
        assert_eq!(job.state.d_model, d, "decode state width mismatch");
        segments.push(Segment {
            start,
            len: job.tokens.len(),
            hist: job.state.caches.first().map_or(0, |c| c.len()),
        });
        start += job.tokens.len();
    }
    let total = start;
    let dh = d / nh;
    let max_ctx = segments.iter().map(|s| s.hist + s.len).max().unwrap_or(0);
    let scratch: Vec<Mutex<AttnScratch>> = (0..nh)
        .map(|_| Mutex::new(AttnScratch::new(dh, max_ctx)))
        .collect();
    // Multiply-adds of one layer's attention (Q·K plus P·V), the unit
    // the engine's split gate is set in.
    let attn_work: usize = segments
        .iter()
        .map(|s| s.len * (s.hist + s.len) * d * 2)
        .sum();

    let mut h = Matrix::zeros(d, total);
    for (seg, job) in segments.iter().zip(jobs.iter()) {
        for (t, &tok) in job.tokens.iter().enumerate() {
            assert!(tok < cfg.vocab, "token out of vocabulary");
            for i in 0..d {
                h[(i, seg.start + t)] = ops.embed()[(tok, i)];
            }
        }
    }

    for layer in 0..cfg.n_layers {
        // Attention sub-block.
        let mut a = h.clone();
        for t in 0..total {
            let mut col: Vec<f64> = (0..d).map(|i| a[(i, t)]).collect();
            rmsnorm_col(&mut col, ops.ln1(layer));
            for i in 0..d {
                a[(i, t)] = col[i];
            }
        }
        if let Some(tr) = trace.as_deref_mut() {
            tr.push(a.clone()); // wq input
            tr.push(a.clone()); // wk input
            tr.push(a.clone()); // wv input
        }
        let q = ops.linear(LinearId::Wq(layer), &a);
        let k = ops.linear(LinearId::Wk(layer), &a);
        let v = ops.linear(LinearId::Wv(layer), &a);

        // Append the new K/V columns to each job's cache first, so a new
        // token attends to itself through the same cache view as to its
        // history.
        let mut krow = vec![0.0_f64; d];
        let mut vrow = vec![0.0_f64; d];
        for (seg, job) in segments.iter().zip(jobs.iter_mut()) {
            for t in 0..seg.len {
                for i in 0..d {
                    krow[i] = k[(i, seg.start + t)];
                    vrow[i] = v[(i, seg.start + t)];
                }
                job.state.caches[layer].append(&krow, &vrow);
            }
        }

        // One part per head: head `h` owns rows `h·dh..(h+1)·dh` of the
        // row-major `attn`, a contiguous panel, and walks every segment.
        let mut attn = Matrix::zeros(d, total);
        let views: Vec<KvView<'_>> = jobs
            .iter()
            .map(|job| job.state.caches[layer].view())
            .collect();
        let panels = attn.as_mut_slice().chunks_exact_mut(dh * total).collect();
        ops.run_parts(attn_work, panels, &|head, panel| {
            let mut scratch = scratch[head].lock().expect("a head is claimed once");
            for (view, &seg) in views.iter().zip(&segments) {
                attend(
                    view,
                    &q,
                    head * dh..(head + 1) * dh,
                    panel,
                    seg,
                    &mut scratch,
                );
            }
        });
        if let Some(tr) = trace.as_deref_mut() {
            tr.push(attn.clone()); // wo input
        }
        let o = ops.linear(LinearId::Wo(layer), &attn);
        for t in 0..total {
            for i in 0..d {
                h[(i, t)] += o[(i, t)];
            }
        }

        // FFN sub-block.
        let mut b = h.clone();
        for t in 0..total {
            let mut col: Vec<f64> = (0..d).map(|i| b[(i, t)]).collect();
            rmsnorm_col(&mut col, ops.ln2(layer));
            for i in 0..d {
                b[(i, t)] = col[i];
            }
        }
        if let Some(tr) = trace.as_deref_mut() {
            tr.push(b.clone()); // w_up input
        }
        let mut u = ops.linear(LinearId::WUp(layer), &b);
        for val in u.as_mut_slice() {
            *val = silu(*val);
        }
        if let Some(tr) = trace.as_deref_mut() {
            tr.push(u.clone()); // w_down input
        }
        let dn = ops.linear(LinearId::WDown(layer), &u);
        for t in 0..total {
            for i in 0..d {
                h[(i, t)] += dn[(i, t)];
            }
        }
    }

    for t in 0..total {
        let mut col: Vec<f64> = (0..d).map(|i| h[(i, t)]).collect();
        rmsnorm_col(&mut col, ops.ln_f());
        for i in 0..d {
            h[(i, t)] = col[i];
        }
    }
    let logits = ops.embed().matmul(&h);
    for job in jobs.iter_mut() {
        job.state.tokens.extend_from_slice(job.tokens);
    }
    segments
        .iter()
        .map(|seg| Matrix::from_fn(cfg.vocab, seg.len, |v, t| logits[(v, seg.start + t)]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use microscopiq_linalg::SeededRng;
    use proptest::prelude::*;

    /// The scalar per-(head, token) attention loop `advance_batch` ran
    /// before the blocked kernel, kept as the bitwise oracle (one head
    /// per call, writing into the head's panel).
    fn attend_naive(
        view: &KvView<'_>,
        q: &Matrix,
        dims: Range<usize>,
        panel: &mut [f64],
        seg: Segment,
        _scratch: &mut AttnScratch,
    ) {
        let (dh, off, total) = (dims.len(), dims.start, q.cols());
        let scale = 1.0 / (dh as f64).sqrt();
        for t in 0..seg.len {
            let tc = seg.start + t;
            let ctx = seg.hist + t + 1;
            let mut scores = Vec::with_capacity(ctx);
            for s in 0..ctx {
                let key = view.key_row(s);
                let dot: f64 = (0..dh).map(|i| q[(off + i, tc)] * key[off + i]).sum();
                scores.push(dot * scale);
            }
            let max = scores.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
            let mut sum = 0.0;
            for s in scores.iter_mut() {
                *s = (*s - max).exp();
                sum += *s;
            }
            for (s, &score) in scores.iter().enumerate() {
                let alpha = score / sum;
                let val = view.value_row(s);
                for i in 0..dh {
                    panel[i * total + tc] += alpha * val[off + i];
                }
            }
        }
    }

    /// The dense model behind an engine whose `run_parts` always fans
    /// out: one scoped thread per part, whatever the work.
    struct FanOut<'a>(&'a TinyFm);

    impl ModelOps for FanOut<'_> {
        fn cfg(&self) -> TinyFmConfig {
            ModelOps::cfg(self.0)
        }
        fn embed(&self) -> &Matrix {
            ModelOps::embed(self.0)
        }
        fn ln1(&self, layer: usize) -> &[f64] {
            self.0.ln1(layer)
        }
        fn ln2(&self, layer: usize) -> &[f64] {
            self.0.ln2(layer)
        }
        fn ln_f(&self) -> &[f64] {
            self.0.ln_f()
        }
        fn linear(&self, id: LinearId, acts: &Matrix) -> Matrix {
            self.0.linear(id, acts)
        }
        fn run_parts(&self, _work: usize, parts: Vec<&mut [f64]>, part: &PartFn<'_>) {
            std::thread::scope(|s| {
                for (i, p) in parts.into_iter().enumerate() {
                    s.spawn(move || part(i, p));
                }
            });
        }
    }

    fn advance_one(model: &TinyFm, state: &mut DecodeState, tokens: &[usize], attend: AttendFn) {
        if !tokens.is_empty() {
            advance_batch_with(model, &mut [DecodeJob { state, tokens }], None, attend);
        }
    }

    /// A state holding `hist` tokens whose view is up to `shared` attached
    /// segments (cut at random legal boundaries) plus a private tail,
    /// built entirely through the naive loop.
    fn state_with_history(
        model: &TinyFm,
        hist: usize,
        shared: usize,
        rng: &mut SeededRng,
    ) -> DecodeState {
        let cfg = model.config();
        let tokens: Vec<usize> = (0..hist).map(|_| rng.below(cfg.vocab)).collect();
        let mut donor = DecodeState::exact(cfg);
        advance_one(model, &mut donor, &tokens, attend_naive);
        let mut cuts: Vec<usize> = (0..shared)
            .map(|_| rng.below(hist + 1))
            .filter(|&c| c > 0)
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let bundles: Vec<_> = cuts
            .iter()
            .map(|&c| donor.share_prefix(c).expect("fresh cut"))
            .collect();
        let covered = cuts.last().copied().unwrap_or(0);
        let mut state = DecodeState::with_prefix(cfg, &tokens[..covered], &bundles);
        advance_one(model, &mut state, &tokens[covered..], attend_naive);
        assert_eq!(state.len(), hist);
        state
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `advance_batch` through the blocked kernel equals the naive
        /// loop bit for bit, with its heads run in order and with every
        /// head on a thread of its own: every block-width remainder
        /// (segment lengths 1..=19), histories around the chunk size,
        /// multi-span views, mixed prefill + decode batches, an odd and a
        /// power-of-two head width.
        #[test]
        fn blocked_attention_is_bitwise_naive(
            seed in any::<u64>(),
            len in 1usize..=19,
            hist_idx in 0usize..5,
            wide_heads in any::<bool>(),
        ) {
            const HISTORIES: [usize; 5] = [0, 1, 63, 64, 200];
            let (d_model, n_heads) = if wide_heads { (32, 2) } else { (20, 4) };
            let cfg = TinyFmConfig { d_model, n_heads, d_ff: 24, n_layers: 2, vocab: 24 };
            let model = TinyFm::teacher(cfg, seed);
            let mut rng = SeededRng::new(seed ^ 0xa77e);
            // The drawn job first, then 0..=2 riders: single-token decode
            // steps or further prefill chunks over their own histories.
            let mut shapes = vec![(HISTORIES[hist_idx], len)];
            for _ in 0..rng.below(3) {
                let rider_len = if rng.below(2) == 0 { 1 } else { 1 + rng.below(19) };
                shapes.push((HISTORIES[rng.below(5)], rider_len));
            }
            let mut blocked: Vec<DecodeState> = shapes
                .iter()
                .map(|&(hist, _)| {
                    let shared = rng.below(4);
                    state_with_history(&model, hist, shared, &mut rng)
                })
                .collect();
            let mut naive = blocked.clone();
            let mut fanned = blocked.clone();
            let tokens: Vec<Vec<usize>> = shapes
                .iter()
                .map(|&(_, n)| (0..n).map(|_| rng.below(cfg.vocab)).collect())
                .collect();
            let run = |states: &mut [DecodeState], ops: &dyn ModelOps, attend: AttendFn| {
                let mut jobs: Vec<DecodeJob<'_>> = states
                    .iter_mut()
                    .zip(&tokens)
                    .map(|(state, tokens)| DecodeJob { state, tokens })
                    .collect();
                advance_batch_with(ops, &mut jobs, None, attend)
            };
            let want = run(&mut naive, &model, attend_naive);
            let serial = run(&mut blocked, &model, attend_segment);
            let split = run(&mut fanned, &FanOut(&model), attend_segment);
            for (path, got) in [("serial", serial), ("split", split)] {
                for (job, (g, w)) in got.iter().zip(&want).enumerate() {
                    let same = g
                        .as_slice()
                        .iter()
                        .zip(w.as_slice())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    prop_assert!(same, "{path}: job {job} of {shapes:?} diverged from the naive loop");
                }
            }
        }
    }
}
