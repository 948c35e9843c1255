//! KV-cache quantization (Table 7's final row), following the KIVI-style
//! scheme the paper adopts: keys quantized per channel, values per token,
//! 2-bit with group size 128, and a full-precision residual window of the
//! most recent tokens.
//!
//! Two entry points:
//!
//! * [`quantize_kv_cache`] — one-shot quantization of a finished cache,
//!   used for error analysis ([`attention_output_error`]);
//! * [`LayerKvCache`] — an *appendable* per-layer cache for incremental
//!   decode: tokens are appended one at a time, served exactly while they
//!   sit inside the residual window, and quantized in group-aligned chunks
//!   as they age out of it. This is what `microscopiq-fm`'s decode states
//!   hold per transformer block.

use crate::error::QuantError;
use microscopiq_linalg::Matrix;
use microscopiq_mx::mxint::MxIntBlock;
use std::sync::Arc;

/// Configuration for KV-cache quantization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvCacheConfig {
    /// Element bits (paper: 2).
    pub bits: u32,
    /// Group size for shared scales (paper: 128).
    pub group: usize,
    /// Number of most-recent tokens kept at full precision (paper: 128).
    pub residual: usize,
}

impl Default for KvCacheConfig {
    fn default() -> Self {
        Self {
            bits: 2,
            group: 128,
            residual: 128,
        }
    }
}

/// A quantized KV cache: keys and values in `tokens × channels` layout.
#[derive(Debug, Clone)]
pub struct QuantizedKvCache {
    /// Dequantized keys.
    pub keys: Matrix,
    /// Dequantized values.
    pub values: Matrix,
}

/// Quantizes a KV cache. `keys`/`values` are `tokens × channels`; the most
/// recent `residual` tokens (highest row indices) stay full precision.
///
/// Keys are grouped **per channel** (scales shared along the token axis)
/// and values **per token** (scales shared along the channel axis),
/// following KIVI: key outliers are channel-structured, value outliers are
/// token-structured.
///
/// # Errors
///
/// Returns [`QuantError::ShapeMismatch`] if keys and values disagree in
/// shape, or [`QuantError::InvalidConfig`] for a zero group size.
pub fn quantize_kv_cache(
    keys: &Matrix,
    values: &Matrix,
    cfg: KvCacheConfig,
) -> Result<QuantizedKvCache, QuantError> {
    if keys.rows() != values.rows() || keys.cols() != values.cols() {
        return Err(QuantError::ShapeMismatch {
            weight_cols: keys.cols(),
            calib_rows: values.cols(),
        });
    }
    if cfg.group == 0 {
        return Err(QuantError::InvalidConfig {
            reason: "kv group size must be positive".to_string(),
        });
    }
    let tokens = keys.rows();
    let quant_tokens = tokens.saturating_sub(cfg.residual);

    let mut qk = keys.clone();
    let mut qv = values.clone();

    // Keys per channel: walk each column over the quantized token span.
    for c in 0..keys.cols() {
        let col: Vec<f64> = (0..quant_tokens).map(|t| keys[(t, c)]).collect();
        for (g, chunk) in col.chunks(cfg.group).enumerate() {
            let block = MxIntBlock::quantize(chunk, cfg.bits);
            for (i, v) in block.dequantize().into_iter().enumerate() {
                qk[(g * cfg.group + i, c)] = v;
            }
        }
    }
    // Values per token: walk each quantized row.
    for t in 0..quant_tokens {
        let row = values.row(t).to_vec();
        for (g, chunk) in row.chunks(cfg.group).enumerate() {
            let block = MxIntBlock::quantize(chunk, cfg.bits);
            for (i, v) in block.dequantize().into_iter().enumerate() {
                qv[(t, g * cfg.group + i)] = v;
            }
        }
    }
    Ok(QuantizedKvCache {
        keys: qk,
        values: qv,
    })
}

/// Relative attention-output error introduced by KV quantization for a
/// query matrix `q` (`queries × channels`): compares
/// `softmax(qKᵀ)·V` with full-precision vs quantized caches.
pub fn attention_output_error(
    q: &Matrix,
    keys: &Matrix,
    values: &Matrix,
    quantized: &QuantizedKvCache,
) -> f64 {
    let reference = attention(q, keys, values);
    let got = attention(q, &quantized.keys, &quantized.values);
    let denom = reference.frobenius_norm();
    if denom == 0.0 {
        0.0
    } else {
        reference.frobenius_distance(&got) / denom
    }
}

/// Storage mode for an appendable [`LayerKvCache`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KvMode {
    /// Every token stays at full fp64 precision. Incremental decode over
    /// an exact cache is bit-identical to full-prefix recompute.
    Exact,
    /// KIVI-style quantized storage: tokens inside the residual window
    /// stay exact; older tokens are quantized in group-aligned chunks
    /// (keys per channel, values per token) as they age out.
    Quantized(KvCacheConfig),
}

/// One contiguous run of serving rows inside a [`KvView`]: a shared
/// prefix segment or the cache's private tail.
#[derive(Debug, Clone, Copy)]
pub struct KvSpan<'a> {
    /// Global token index of the span's first row.
    start: usize,
    keys: &'a [f64],
    values: &'a [f64],
}

impl<'a> KvSpan<'a> {
    /// Global token index of the span's first row.
    pub fn start(&self) -> usize {
        self.start
    }

    /// The span's key rows, `rows × channels` row-major by token.
    pub fn keys(&self) -> &'a [f64] {
        self.keys
    }

    /// The span's value rows, same layout.
    pub fn values(&self) -> &'a [f64] {
        self.values
    }
}

/// A read-only view of a cache's serving values (`tokens × channels`).
///
/// The view may stitch together several storage runs — shared prefix
/// segments attached copy-on-write plus the cache's private tail — so
/// row lookups resolve the owning span first. A cache with no shared
/// segments produces a single-span view, which is the common decode
/// fast path.
#[derive(Debug, Clone)]
pub struct KvView<'a> {
    spans: Vec<KvSpan<'a>>,
    tokens: usize,
    channels: usize,
}

impl<'a> KvView<'a> {
    /// Tokens in the view.
    pub fn len(&self) -> usize {
        self.tokens
    }

    /// Whether the view holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.tokens == 0
    }

    /// Channels per token.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Key row for token `t` (serving values: exact inside the residual
    /// window, dequantized outside it).
    pub fn key_row(&self, t: usize) -> &'a [f64] {
        let span = self.span_for(t);
        let o = (t - span.start) * self.channels;
        &span.keys[o..o + self.channels]
    }

    /// Value row for token `t`.
    pub fn value_row(&self, t: usize) -> &'a [f64] {
        let span = self.span_for(t);
        let o = (t - span.start) * self.channels;
        &span.values[o..o + self.channels]
    }

    /// The view's storage runs in token order. A reader that walks many
    /// rows (attention) iterates spans and slices rows out of each one
    /// directly, instead of paying [`Self::key_row`]'s span search per
    /// row.
    pub fn spans(&self) -> impl Iterator<Item = KvSpan<'a>> + '_ {
        self.spans.iter().copied()
    }

    fn span_for(&self, t: usize) -> &KvSpan<'a> {
        // Spans are ordered by start; scan from the back so decode-time
        // lookups into the private tail resolve on the first probe.
        self.spans
            .iter()
            .rev()
            .find(|s| t >= s.start)
            .unwrap_or_else(|| panic!("token {t} outside view of {} tokens", self.tokens))
    }

    /// Materializes the view as `(keys, values)` matrices
    /// (`tokens × channels`), the shape [`attention_output_error`] takes.
    pub fn to_matrices(&self) -> (Matrix, Matrix) {
        let mut keys = Vec::with_capacity(self.tokens * self.channels);
        let mut values = Vec::with_capacity(self.tokens * self.channels);
        for span in &self.spans {
            keys.extend_from_slice(span.keys);
            values.extend_from_slice(span.values);
        }
        let k = Matrix::from_vec(self.tokens, self.channels, keys);
        let v = Matrix::from_vec(self.tokens, self.channels, values);
        (k, v)
    }
}

/// An immutable run of KV rows shared between caches by refcount.
///
/// Segments are produced by [`LayerKvCache::share_prefix`] (freezing a
/// cache's own rows) or [`KvSegment::from_cache`] (copying a row range
/// out of a live cache), and consumed by [`LayerKvCache::attach`]. Once
/// built, a segment's rows never change: attachees append into their own
/// private tails and the segment is dropped when its last holder goes
/// away. In quantized mode every row of a segment is already quantized
/// (its serving values are frozen by the quantize-at-most-once
/// invariant) and its length is a whole number of groups, so attaching
/// it preserves the group-aligned boundary invariant of the aging
/// machinery.
#[derive(Debug, Clone)]
pub struct KvSegment {
    channels: usize,
    mode: KvMode,
    /// Serving keys, `tokens × channels` row-major by token.
    keys: Vec<f64>,
    /// Serving values, same layout.
    values: Vec<f64>,
}

impl KvSegment {
    /// Copies serving rows `[lo, hi)` out of `cache` into a new
    /// immutable segment. Rows are copied bitwise — for an exact cache
    /// the segment reproduces a cold prefill exactly; for a quantized
    /// cache the rows carry their frozen post-quantization serving
    /// values.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `hi > cache.len()`; in quantized mode,
    /// panics unless `lo` and `hi` are group-aligned and the range lies
    /// entirely inside the cache's quantized prefix (unquantized rows
    /// are still mutable and cannot be shared).
    pub fn from_cache(cache: &LayerKvCache, lo: usize, hi: usize) -> Self {
        assert!(
            lo < hi && hi <= cache.len(),
            "bad segment range [{lo}, {hi})"
        );
        if let KvMode::Quantized(cfg) = cache.mode {
            assert!(
                lo.is_multiple_of(cfg.group) && hi.is_multiple_of(cfg.group),
                "quantized KV segment boundaries must be group-aligned: \
                 [{lo}, {hi}), group = {}",
                cfg.group
            );
            assert!(
                hi <= cache.quantized_len(),
                "quantized KV segment must lie inside the quantized prefix: \
                 hi = {hi}, quantized = {}",
                cache.quantized_len()
            );
        }
        let ch = cache.channels;
        let mut keys = Vec::with_capacity((hi - lo) * ch);
        let mut values = Vec::with_capacity((hi - lo) * ch);
        for t in lo..hi {
            keys.extend_from_slice(cache.key_row(t));
            values.extend_from_slice(cache.value_row(t));
        }
        Self {
            channels: ch,
            mode: cache.mode,
            keys,
            values,
        }
    }

    /// Copies rows `[lo, hi)` of this segment into a new segment —
    /// the split primitive for prefix-trie nodes.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds; in quantized mode,
    /// panics on a misaligned split (`lo` or `hi` off a group boundary).
    pub fn slice(&self, lo: usize, hi: usize) -> Self {
        assert!(
            lo < hi && hi <= self.len(),
            "bad segment range [{lo}, {hi})"
        );
        if let KvMode::Quantized(cfg) = self.mode {
            assert!(
                lo.is_multiple_of(cfg.group) && hi.is_multiple_of(cfg.group),
                "quantized KV segment split must be group-aligned: \
                 [{lo}, {hi}), group = {}",
                cfg.group
            );
        }
        let ch = self.channels;
        Self {
            channels: ch,
            mode: self.mode,
            keys: self.keys[lo * ch..hi * ch].to_vec(),
            values: self.values[lo * ch..hi * ch].to_vec(),
        }
    }

    /// Tokens in the segment.
    pub fn len(&self) -> usize {
        self.keys.len() / self.channels.max(1)
    }

    /// Whether the segment holds no tokens (never true for segments
    /// built through the public constructors).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Channels per token.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The storage mode the segment's rows were produced under.
    pub fn mode(&self) -> KvMode {
        self.mode
    }

    /// Serving key row for token `t` (segment-relative).
    pub fn key_row(&self, t: usize) -> &[f64] {
        &self.keys[t * self.channels..(t + 1) * self.channels]
    }

    /// Serving value row for token `t` (segment-relative).
    pub fn value_row(&self, t: usize) -> &[f64] {
        &self.values[t * self.channels..(t + 1) * self.channels]
    }

    /// Storage-format bytes for the segment's rows, with the same
    /// accounting as [`LayerKvCache::storage_bytes`]. In quantized mode
    /// every row is quantized, so this is the quantized payload plus
    /// exponent bytes; in exact mode it is plain fp64 rows.
    pub fn storage_bytes(&self) -> usize {
        let n = self.len();
        match self.mode {
            KvMode::Exact => 2 * n * self.channels * 8,
            KvMode::Quantized(cfg) if cfg.group > 0 => {
                let payload = 2 * n * self.channels * cfg.bits as usize / 8;
                let key_blocks = n.div_ceil(cfg.group) * self.channels;
                let value_blocks = n * self.channels.div_ceil(cfg.group);
                payload + key_blocks + value_blocks
            }
            KvMode::Quantized(_) => 0,
        }
    }
}

/// An appendable per-layer KV cache for incremental decode.
///
/// Rows are `channels`-wide key/value vectors in token order. In
/// [`KvMode::Exact`] the cache is a plain growable fp64 store. In
/// [`KvMode::Quantized`] the most recent `residual` tokens are served
/// exactly; once a full `group` of tokens has aged past the residual
/// window it is quantized **in place** (keys per channel over the token
/// chunk, values per token over channel chunks — the same chunking
/// [`quantize_kv_cache`] uses, so an incremental cache whose quantized
/// span is group-aligned matches the one-shot path exactly) and served
/// dequantized from then on. A token is quantized at most once; its
/// serving value never changes again afterwards.
///
/// # Copy-on-write prefix sharing
///
/// A cache is a run of refcounted immutable *shared segments*
/// ([`KvSegment`], attached via [`LayerKvCache::attach`] while the cache
/// is still empty of private rows) followed by a *private tail* that
/// appends normally. Shared segments are never mutated — every holder
/// serves the same frozen rows — and [`LayerKvCache::share_prefix`]
/// moves a cache's own completed rows into a new shared segment so
/// clones of the cache (generation forks) reference them instead of
/// copying. Token indices are always global: accessors and `len()` span
/// shared and private rows alike, so attention code is oblivious to
/// where a row is stored.
#[derive(Debug, Clone)]
pub struct LayerKvCache {
    channels: usize,
    mode: KvMode,
    /// Immutable shared prefix segments, in token order.
    shared: Vec<Arc<KvSegment>>,
    /// Total tokens covered by `shared`.
    base: usize,
    /// Private-tail serving keys, `tokens × channels` row-major; row 0
    /// is global token `base`.
    keys: Vec<f64>,
    /// Private-tail serving values, same layout.
    values: Vec<f64>,
    /// Tokens `[0, quantized_tokens)` (global) have quantized storage.
    /// Always `>= base` in quantized mode (shared segments are fully
    /// quantized); always 0 in exact mode.
    quantized_tokens: usize,
}

impl LayerKvCache {
    /// Creates an empty exact (fp64) cache.
    pub fn exact(channels: usize) -> Self {
        Self {
            channels,
            mode: KvMode::Exact,
            shared: Vec::new(),
            base: 0,
            keys: Vec::new(),
            values: Vec::new(),
            quantized_tokens: 0,
        }
    }

    /// Creates an empty quantized cache.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidConfig`] for a zero group size.
    pub fn quantized(channels: usize, cfg: KvCacheConfig) -> Result<Self, QuantError> {
        if cfg.group == 0 {
            return Err(QuantError::InvalidConfig {
                reason: "kv group size must be positive".to_string(),
            });
        }
        Ok(Self {
            channels,
            mode: KvMode::Quantized(cfg),
            shared: Vec::new(),
            base: 0,
            keys: Vec::new(),
            values: Vec::new(),
            quantized_tokens: 0,
        })
    }

    /// Creates an empty cache in the given mode.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidConfig`] for a zero group size in
    /// quantized mode.
    pub fn with_mode(channels: usize, mode: KvMode) -> Result<Self, QuantError> {
        match mode {
            KvMode::Exact => Ok(Self::exact(channels)),
            KvMode::Quantized(cfg) => Self::quantized(channels, cfg),
        }
    }

    /// Channels per token.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Total tokens the cache serves: attached shared rows plus the
    /// private tail.
    pub fn len(&self) -> usize {
        self.base + self.keys.len() / self.channels.max(1)
    }

    /// Whether the cache holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tokens the cache owns privately (excludes attached shared
    /// segments). This is what per-request occupancy gauges charge: a
    /// shared prefix is accounted once by whoever retains its segments
    /// (e.g. a prefix cache), not per attachee.
    pub fn owned_len(&self) -> usize {
        self.keys.len() / self.channels.max(1)
    }

    /// Tokens covered by attached shared segments.
    pub fn shared_len(&self) -> usize {
        self.base
    }

    /// The attached shared segments, in token order.
    pub fn shared_segments(&self) -> &[Arc<KvSegment>] {
        &self.shared
    }

    /// The storage mode.
    pub fn mode(&self) -> KvMode {
        self.mode
    }

    /// Tokens whose storage has been quantized (always 0 in exact mode).
    pub fn quantized_len(&self) -> usize {
        self.quantized_tokens
    }

    /// Bytes this cache's tokens would occupy in their *storage* format:
    /// exact tokens at `2 × channels × 8` bytes (fp64 K + V rows),
    /// quantized tokens at `2 × channels × bits / 8` plus one shared
    /// exponent byte per quantization block — keys carry one block per
    /// (channel, token group), values one block per token per
    /// `group`-wide channel chunk, mirroring [`Self::append`]'s
    /// chunking. Serving buffers hold dequantized fp64 regardless; this
    /// is the accounting figure eviction policies and occupancy gauges
    /// budget against.
    pub fn storage_bytes(&self) -> usize {
        self.shared.iter().map(|s| s.storage_bytes()).sum::<usize>() + self.owned_storage_bytes()
    }

    /// Storage-format bytes of the private tail only — the per-request
    /// share of [`Self::storage_bytes`] once attached segments are
    /// accounted by their retaining owner instead.
    pub fn owned_storage_bytes(&self) -> usize {
        let owned_quantized = self.quantized_tokens.saturating_sub(self.base);
        let exact_tokens = self.owned_len() - owned_quantized;
        let exact = 2 * exact_tokens * self.channels * 8;
        let quantized = match self.mode {
            KvMode::Quantized(cfg) if cfg.group > 0 => {
                let payload = 2 * owned_quantized * self.channels * cfg.bits as usize / 8;
                let key_blocks = owned_quantized.div_ceil(cfg.group) * self.channels;
                let value_blocks = owned_quantized * self.channels.div_ceil(cfg.group);
                payload + key_blocks + value_blocks
            }
            _ => 0,
        };
        exact + quantized
    }

    /// Attaches an immutable shared segment to the end of the shared
    /// prefix, copy-on-write: the segment's rows are served in place and
    /// never mutated; subsequent [`Self::append`]s go to the private
    /// tail. In quantized mode the cache's quantized prefix extends over
    /// the attached rows (they are fully quantized by construction), so
    /// aging resumes group-aligned from the new base.
    ///
    /// # Panics
    ///
    /// Panics if the cache already has private rows (attach is an
    /// admission-time operation, before any suffix prefill), if the
    /// segment's channels or mode disagree with the cache's, or — in
    /// quantized mode — if the segment's length is not group-aligned.
    pub fn attach(&mut self, seg: Arc<KvSegment>) {
        assert!(
            self.keys.is_empty(),
            "attach requires an empty private tail (cache has {} private rows)",
            self.owned_len()
        );
        assert_eq!(seg.channels(), self.channels, "segment channel width");
        assert_eq!(seg.mode(), self.mode, "segment storage mode");
        if let KvMode::Quantized(cfg) = self.mode {
            assert!(
                seg.len().is_multiple_of(cfg.group),
                "quantized KV segment must be group-aligned: len = {}, group = {}",
                seg.len(),
                cfg.group
            );
        }
        self.base += seg.len();
        if matches!(self.mode, KvMode::Quantized(_)) {
            self.quantized_tokens = self.base;
        }
        self.shared.push(seg);
    }

    /// Freezes the cache's own rows `[base, upto)` into a new refcounted
    /// shared segment, leaving the cache serving them through the
    /// segment instead. Returns the segment so callers can hand it to
    /// other caches ([`Self::attach`]) or retain it in a prefix cache;
    /// returns `None` when `upto` is already covered by shared segments
    /// (nothing new to share). After sharing, cloning the cache is cheap
    /// for the shared prefix — only the remaining private tail is
    /// copied.
    ///
    /// # Panics
    ///
    /// Panics if `upto > len()`; in quantized mode, panics unless `upto`
    /// is group-aligned and within the quantized prefix (mutable rows
    /// cannot be frozen).
    pub fn share_prefix(&mut self, upto: usize) -> Option<Arc<KvSegment>> {
        if upto <= self.base {
            return None;
        }
        assert!(
            upto <= self.len(),
            "share_prefix past end: {upto} > {}",
            self.len()
        );
        if let KvMode::Quantized(cfg) = self.mode {
            assert!(
                upto.is_multiple_of(cfg.group),
                "quantized KV share boundary must be group-aligned: \
                 upto = {upto}, group = {}",
                cfg.group
            );
            assert!(
                upto <= self.quantized_tokens,
                "cannot share unquantized rows: upto = {upto}, quantized = {}",
                self.quantized_tokens
            );
        }
        let ch = self.channels;
        let cut = (upto - self.base) * ch;
        let seg = Arc::new(KvSegment {
            channels: ch,
            mode: self.mode,
            keys: self.keys[..cut].to_vec(),
            values: self.values[..cut].to_vec(),
        });
        self.keys.drain(..cut);
        self.values.drain(..cut);
        self.base = upto;
        self.shared.push(Arc::clone(&seg));
        Some(seg)
    }

    /// Appends one token's key/value rows, then (in quantized mode)
    /// quantizes any full group of tokens that has aged out of the
    /// residual window.
    ///
    /// # Panics
    ///
    /// Panics if either row's length differs from `channels`.
    pub fn append(&mut self, key_row: &[f64], value_row: &[f64]) {
        assert_eq!(key_row.len(), self.channels, "key row width");
        assert_eq!(value_row.len(), self.channels, "value row width");
        self.keys.extend_from_slice(key_row);
        self.values.extend_from_slice(value_row);
        if let KvMode::Quantized(cfg) = self.mode {
            // Quantize whole groups once every token in the group is
            // older than the residual window. Group boundaries align to
            // multiples of `cfg.group` from token 0, matching the
            // one-shot chunking.
            while self.len() - self.quantized_tokens >= cfg.group + cfg.residual {
                self.quantize_group(cfg);
            }
        }
    }

    /// Quantizes tokens `[quantized_tokens, quantized_tokens + group)` in
    /// place: keys per channel along the token chunk, values per token in
    /// channel chunks.
    fn quantize_group(&mut self, cfg: KvCacheConfig) {
        // Global token range; rows live in the private tail (attached
        // shared segments are already quantized, so
        // `quantized_tokens >= base` always holds here).
        let lo = self.quantized_tokens;
        let hi = lo + cfg.group;
        debug_assert!(lo >= self.base, "quantizing into shared rows");
        let ch = self.channels;
        let base = self.base;
        for c in 0..ch {
            let col: Vec<f64> = (lo..hi).map(|t| self.keys[(t - base) * ch + c]).collect();
            let block = MxIntBlock::quantize(&col, cfg.bits);
            for (i, v) in block.dequantize().into_iter().enumerate() {
                self.keys[(lo + i - base) * ch + c] = v;
            }
        }
        for t in lo..hi {
            let p = t - base;
            let row = self.values[p * ch..(p + 1) * ch].to_vec();
            for (g, chunk) in row.chunks(cfg.group).enumerate() {
                let block = MxIntBlock::quantize(chunk, cfg.bits);
                for (i, v) in block.dequantize().into_iter().enumerate() {
                    self.values[p * ch + g * cfg.group + i] = v;
                }
            }
        }
        self.quantized_tokens = hi;
    }

    /// Serving key row for (global) token `t`, resolved to the shared
    /// segment or private tail that stores it.
    pub fn key_row(&self, t: usize) -> &[f64] {
        if t >= self.base {
            let o = (t - self.base) * self.channels;
            return &self.keys[o..o + self.channels];
        }
        let (seg, rel) = self.resolve_shared(t);
        seg.key_row(rel)
    }

    /// Serving value row for (global) token `t`.
    pub fn value_row(&self, t: usize) -> &[f64] {
        if t >= self.base {
            let o = (t - self.base) * self.channels;
            return &self.values[o..o + self.channels];
        }
        let (seg, rel) = self.resolve_shared(t);
        seg.value_row(rel)
    }

    fn resolve_shared(&self, t: usize) -> (&KvSegment, usize) {
        let mut rem = t;
        for seg in &self.shared {
            if rem < seg.len() {
                return (seg, rem);
            }
            rem -= seg.len();
        }
        panic!("token {t} outside cache of {} tokens", self.len())
    }

    /// A read-only view over every token's serving values — shared
    /// segments and private tail stitched into one token-indexed view.
    pub fn view(&self) -> KvView<'_> {
        let mut spans = Vec::with_capacity(self.shared.len() + 1);
        let mut start = 0;
        for seg in &self.shared {
            spans.push(KvSpan {
                start,
                keys: &seg.keys,
                values: &seg.values,
            });
            start += seg.len();
        }
        if !self.keys.is_empty() {
            spans.push(KvSpan {
                start,
                keys: &self.keys,
                values: &self.values,
            });
        }
        KvView {
            spans,
            tokens: self.len(),
            channels: self.channels,
        }
    }

    /// Drops every token at position `n` and beyond — speculative-decode
    /// rollback and prefix rewind. A no-op when `n >= len()`.
    ///
    /// Truncating within the exact residual tail is always legal and the
    /// surviving prefix is bitwise untouched, so re-appending the same
    /// rows reproduces the original cache exactly. Cutting into the
    /// quantized prefix is only legal on a group boundary: quantization
    /// blocks span `group` tokens, so a mid-group cut would strand a
    /// partial block whose exponent was fit to tokens that no longer
    /// exist.
    ///
    /// With attached shared segments, truncation below the shared base
    /// is legal only on whole-segment boundaries: trailing segments are
    /// detached (their refcount drops; the rows themselves are immutable
    /// and other holders are unaffected), but a cut strictly inside a
    /// shared segment panics — shared rows cannot be partially disowned.
    ///
    /// # Panics
    ///
    /// Panics in quantized mode when `n` lands strictly inside the
    /// quantized prefix off a group boundary, or in any mode when `n`
    /// lands strictly inside an attached shared segment.
    pub fn truncate(&mut self, n: usize) {
        if n >= self.len() {
            return;
        }
        if n < self.base {
            self.keys.clear();
            self.values.clear();
            while self.base > n {
                let start = self.base - self.shared.last().expect("base covered").len();
                assert!(
                    start >= n,
                    "truncation inside a shared KV segment: n = {n}, \
                     segment covers [{start}, {})",
                    self.base
                );
                self.shared.pop();
                self.base = start;
            }
            self.quantized_tokens = self.quantized_tokens.min(n);
            return;
        }
        if let KvMode::Quantized(cfg) = self.mode {
            if n < self.quantized_tokens {
                assert!(
                    n.is_multiple_of(cfg.group),
                    "quantized KV truncation must be group-aligned: \
                     n = {n}, group = {}, quantized prefix = {}",
                    cfg.group,
                    self.quantized_tokens
                );
                self.quantized_tokens = n;
            }
        }
        self.keys.truncate((n - self.base) * self.channels);
        self.values.truncate((n - self.base) * self.channels);
    }
}

/// Scaled-dot-product attention with a numerically stable softmax.
fn attention(q: &Matrix, k: &Matrix, v: &Matrix) -> Matrix {
    let scale = 1.0 / (k.cols() as f64).sqrt();
    let mut scores = q.matmul(&k.transpose());
    scores.scale(scale);
    for r in 0..scores.rows() {
        let row = scores.row_mut(r);
        let max = row.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
        let mut sum = 0.0;
        for s in row.iter_mut() {
            *s = (*s - max).exp();
            sum += *s;
        }
        for s in row.iter_mut() {
            *s /= sum;
        }
    }
    scores.matmul(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use microscopiq_linalg::SeededRng;

    #[test]
    fn storage_bytes_accounts_exact_and_quantized_tokens() {
        let ch = 32;
        let mut exact = LayerKvCache::exact(ch);
        let cfg = KvCacheConfig {
            bits: 4,
            group: 8,
            residual: 8,
        };
        let mut quant = LayerKvCache::quantized(ch, cfg).unwrap();
        let row = vec![0.5; ch];
        for _ in 0..24 {
            exact.append(&row, &row);
            quant.append(&row, &row);
        }
        // Exact: 24 tokens × 2 rows × 32 channels × 8 bytes.
        assert_eq!(exact.storage_bytes(), 24 * 2 * ch * 8);
        // Quantized: two full groups (16 tokens) have aged out of the
        // 8-token residual window; 8 tokens remain exact. Payload
        // 2·16·32·4/8 bytes; exponents: one per (channel, token-group)
        // key block = 2 × 32, plus one per token per 8-wide value
        // chunk = 16 × 4.
        assert_eq!(quant.quantized_len(), 16);
        let payload = 2 * 16 * ch * 4 / 8;
        let exponents = 2 * ch + 16 * ch.div_ceil(8);
        assert_eq!(quant.storage_bytes(), 8 * 2 * ch * 8 + payload + exponents);
        assert!(quant.storage_bytes() < exact.storage_bytes());
    }

    #[test]
    fn exact_truncate_and_reappend_is_bitwise_identical() {
        let ch = 16;
        let mut rng = SeededRng::new(5);
        let rows: Vec<(Vec<f64>, Vec<f64>)> = (0..20)
            .map(|_| {
                let k: Vec<f64> = (0..ch).map(|_| rng.normal(0.0, 1.0)).collect();
                let v: Vec<f64> = (0..ch).map(|_| rng.normal(0.0, 1.0)).collect();
                (k, v)
            })
            .collect();
        let mut full = LayerKvCache::exact(ch);
        let mut cut = LayerKvCache::exact(ch);
        for (k, v) in &rows {
            full.append(k, v);
            cut.append(k, v);
        }
        cut.truncate(12);
        assert_eq!(cut.len(), 12);
        for (k, v) in &rows[12..] {
            cut.append(k, v);
        }
        assert_eq!(cut.len(), full.len());
        for t in 0..full.len() {
            assert_eq!(cut.key_row(t), full.key_row(t), "key row {t}");
            assert_eq!(cut.value_row(t), full.value_row(t), "value row {t}");
        }
        // Truncating past the end is a no-op.
        cut.truncate(100);
        assert_eq!(cut.len(), 20);
    }

    #[test]
    fn quantized_truncate_within_exact_tail_keeps_prefix() {
        let ch = 16;
        let cfg = KvCacheConfig {
            bits: 4,
            group: 8,
            residual: 8,
        };
        let mut cache = LayerKvCache::quantized(ch, cfg).unwrap();
        let mut rng = SeededRng::new(6);
        for _ in 0..20 {
            let k: Vec<f64> = (0..ch).map(|_| rng.normal(0.0, 1.0)).collect();
            let v: Vec<f64> = (0..ch).map(|_| rng.normal(0.0, 1.0)).collect();
            cache.append(&k, &v);
        }
        // 8 tokens quantized, 12 exact; cut inside the exact tail at any
        // alignment.
        assert_eq!(cache.quantized_len(), 8);
        let before: Vec<f64> = (0..11).flat_map(|t| cache.key_row(t).to_vec()).collect();
        cache.truncate(11);
        assert_eq!(cache.len(), 11);
        assert_eq!(cache.quantized_len(), 8, "quantized prefix untouched");
        let after: Vec<f64> = (0..11).flat_map(|t| cache.key_row(t).to_vec()).collect();
        assert_eq!(after, before);
    }

    #[test]
    fn quantized_truncate_on_group_boundary_shrinks_prefix() {
        let ch = 16;
        let cfg = KvCacheConfig {
            bits: 4,
            group: 8,
            residual: 0,
        };
        let mut cache = LayerKvCache::quantized(ch, cfg).unwrap();
        let row = vec![0.25; ch];
        for _ in 0..24 {
            cache.append(&row, &row);
        }
        assert_eq!(cache.quantized_len(), 24);
        cache.truncate(8);
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.quantized_len(), 8);
        // The cache keeps working: appends re-quantize from the new end.
        for _ in 0..8 {
            cache.append(&row, &row);
        }
        assert_eq!(cache.len(), 16);
        assert_eq!(cache.quantized_len(), 16);
    }

    #[test]
    #[should_panic(expected = "group-aligned")]
    fn quantized_truncate_off_group_boundary_panics() {
        let ch = 16;
        let cfg = KvCacheConfig {
            bits: 4,
            group: 8,
            residual: 0,
        };
        let mut cache = LayerKvCache::quantized(ch, cfg).unwrap();
        let row = vec![0.25; ch];
        for _ in 0..16 {
            cache.append(&row, &row);
        }
        cache.truncate(5);
    }

    fn kv(seed: u64, tokens: usize, channels: usize) -> (Matrix, Matrix, Matrix) {
        let mut rng = SeededRng::new(seed);
        let k = Matrix::from_fn(tokens, channels, |_, c| {
            // Channel-structured key magnitudes (KIVI's motivation).
            rng.normal(0.0, if c % 7 == 0 { 2.0 } else { 0.5 })
        });
        let v = Matrix::from_fn(tokens, channels, |_, _| rng.normal(0.0, 0.8));
        let q = Matrix::from_fn(4, channels, |_, _| rng.normal(0.0, 0.5));
        (q, k, v)
    }

    #[test]
    fn residual_tokens_stay_exact() {
        let (_, k, v) = kv(1, 64, 16);
        let cfg = KvCacheConfig {
            bits: 2,
            group: 16,
            residual: 16,
        };
        let qkv = quantize_kv_cache(&k, &v, cfg).unwrap();
        for t in 48..64 {
            for c in 0..16 {
                assert_eq!(qkv.keys[(t, c)], k[(t, c)]);
                assert_eq!(qkv.values[(t, c)], v[(t, c)]);
            }
        }
    }

    #[test]
    fn older_tokens_are_quantized() {
        let (_, k, v) = kv(2, 64, 16);
        let cfg = KvCacheConfig {
            bits: 2,
            group: 16,
            residual: 16,
        };
        let qkv = quantize_kv_cache(&k, &v, cfg).unwrap();
        let changed = (0..48)
            .flat_map(|t| (0..16).map(move |c| (t, c)))
            .filter(|&(t, c)| qkv.keys[(t, c)] != k[(t, c)])
            .count();
        assert!(changed > 100, "only {changed} key entries changed");
    }

    #[test]
    fn attention_error_nonzero_and_bounded() {
        // 2-bit KV on unstructured Gaussian caches is the hard case (the
        // paper's Table 7 shows a visible +0.50 PPL cost); 4-bit should be
        // comfortably accurate.
        let (q, k, v) = kv(3, 128, 32);
        let err_at = |bits| {
            let cfg = KvCacheConfig {
                bits,
                group: 32,
                residual: 32,
            };
            let qkv = quantize_kv_cache(&k, &v, cfg).unwrap();
            attention_output_error(&q, &k, &v, &qkv)
        };
        let e2 = err_at(2);
        assert!(e2 > 0.0 && e2 < 1.5, "2-bit attention error {e2}");
        assert!(err_at(4) < 0.4, "4-bit attention error {}", err_at(4));
    }

    #[test]
    fn more_bits_reduce_attention_error() {
        let (q, k, v) = kv(4, 128, 32);
        let err_at = |bits| {
            let cfg = KvCacheConfig {
                bits,
                group: 32,
                residual: 32,
            };
            let qkv = quantize_kv_cache(&k, &v, cfg).unwrap();
            attention_output_error(&q, &k, &v, &qkv)
        };
        assert!(err_at(4) < err_at(2));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let k = Matrix::zeros(8, 4);
        let v = Matrix::zeros(8, 6);
        assert!(quantize_kv_cache(&k, &v, KvCacheConfig::default()).is_err());
    }

    #[test]
    fn exact_cache_round_trips_appends() {
        let mut rng = SeededRng::new(7);
        let mut cache = LayerKvCache::exact(8);
        let rows: Vec<(Vec<f64>, Vec<f64>)> = (0..20)
            .map(|_| {
                let k: Vec<f64> = (0..8).map(|_| rng.normal(0.0, 1.0)).collect();
                let v: Vec<f64> = (0..8).map(|_| rng.normal(0.0, 1.0)).collect();
                (k, v)
            })
            .collect();
        for (k, v) in &rows {
            cache.append(k, v);
        }
        assert_eq!(cache.len(), 20);
        assert_eq!(cache.quantized_len(), 0);
        let view = cache.view();
        for (t, (k, v)) in rows.iter().enumerate() {
            assert_eq!(view.key_row(t), k.as_slice());
            assert_eq!(view.value_row(t), v.as_slice());
        }
    }

    #[test]
    fn incremental_matches_one_shot_when_group_aligned() {
        // 48 tokens, residual 16, group 16: the one-shot path quantizes
        // tokens [0, 32) in two full groups — exactly what the appendable
        // cache does as those groups age out of the residual window.
        let (_, k, v) = kv(8, 48, 16);
        let cfg = KvCacheConfig {
            bits: 2,
            group: 16,
            residual: 16,
        };
        let one_shot = quantize_kv_cache(&k, &v, cfg).unwrap();
        let mut cache = LayerKvCache::quantized(16, cfg).unwrap();
        for t in 0..48 {
            cache.append(k.row(t), v.row(t));
        }
        assert_eq!(cache.quantized_len(), 32);
        let (ck, cv) = cache.view().to_matrices();
        assert_eq!(ck, one_shot.keys, "incremental keys diverged");
        assert_eq!(cv, one_shot.values, "incremental values diverged");
    }

    #[test]
    fn residual_window_tokens_served_exactly() {
        let (_, k, v) = kv(9, 40, 8);
        let cfg = KvCacheConfig {
            bits: 2,
            group: 8,
            residual: 8,
        };
        let mut cache = LayerKvCache::quantized(8, cfg).unwrap();
        for t in 0..40 {
            cache.append(k.row(t), v.row(t));
        }
        // Everything not yet quantized — the residual window and any
        // partial trailing group — is served bit-exactly.
        for t in cache.quantized_len()..40 {
            assert_eq!(cache.key_row(t), k.row(t));
            assert_eq!(cache.value_row(t), v.row(t));
        }
        // And the quantized prefix really was quantized.
        let changed = (0..cache.quantized_len())
            .flat_map(|t| (0..8).map(move |c| (t, c)))
            .filter(|&(t, c)| cache.key_row(t)[c] != k[(t, c)])
            .count();
        assert!(changed > 20, "only {changed} quantized key entries changed");
    }

    #[test]
    fn quantized_tokens_never_requantize() {
        let (_, k, v) = kv(10, 64, 8);
        let cfg = KvCacheConfig {
            bits: 2,
            group: 8,
            residual: 8,
        };
        let mut cache = LayerKvCache::quantized(8, cfg).unwrap();
        for t in 0..32 {
            cache.append(k.row(t), v.row(t));
        }
        let frozen: Vec<f64> = (0..cache.quantized_len())
            .flat_map(|t| cache.key_row(t).to_vec())
            .collect();
        let frozen_len = cache.quantized_len();
        for t in 32..64 {
            cache.append(k.row(t), v.row(t));
        }
        let now: Vec<f64> = (0..frozen_len)
            .flat_map(|t| cache.key_row(t).to_vec())
            .collect();
        assert_eq!(frozen, now, "previously quantized tokens changed");
    }

    #[test]
    fn appendable_cache_attention_error_bounded() {
        // The serving view of a quantized appendable cache must stay
        // within the documented attention-error bound (same regime as the
        // one-shot 2-bit test above: < 1.5 relative Frobenius error, with
        // 4-bit comfortably tighter than 2-bit).
        let (q, k, v) = kv(11, 128, 32);
        let err_at = |bits| {
            let cfg = KvCacheConfig {
                bits,
                group: 32,
                residual: 32,
            };
            let mut cache = LayerKvCache::quantized(32, cfg).unwrap();
            for t in 0..128 {
                cache.append(k.row(t), v.row(t));
            }
            let (ck, cv) = cache.view().to_matrices();
            attention_output_error(
                &q,
                &k,
                &v,
                &QuantizedKvCache {
                    keys: ck,
                    values: cv,
                },
            )
        };
        let e2 = err_at(2);
        assert!(e2 > 0.0 && e2 < 1.5, "2-bit appendable cache error {e2}");
        assert!(err_at(4) < err_at(2), "more bits must reduce error");
    }

    #[test]
    fn zero_group_quantized_cache_rejected() {
        let cfg = KvCacheConfig {
            bits: 2,
            group: 0,
            residual: 4,
        };
        assert!(LayerKvCache::quantized(8, cfg).is_err());
        assert!(LayerKvCache::with_mode(8, KvMode::Quantized(cfg)).is_err());
        assert!(LayerKvCache::with_mode(8, KvMode::Exact).is_ok());
    }

    fn random_rows(seed: u64, n: usize, ch: usize) -> Vec<(Vec<f64>, Vec<f64>)> {
        let mut rng = SeededRng::new(seed);
        (0..n)
            .map(|_| {
                let k: Vec<f64> = (0..ch).map(|_| rng.normal(0.0, 1.0)).collect();
                let v: Vec<f64> = (0..ch).map(|_| rng.normal(0.0, 1.0)).collect();
                (k, v)
            })
            .collect()
    }

    #[test]
    fn shared_prefix_attach_serves_bitwise_identical_rows() {
        let ch = 8;
        let rows = random_rows(20, 24, ch);
        // Donor appends 16 rows and freezes them into a shared segment.
        let mut donor = LayerKvCache::exact(ch);
        for (k, v) in &rows[..16] {
            donor.append(k, v);
        }
        let seg = donor.share_prefix(16).expect("fresh rows to share");
        assert_eq!(donor.len(), 16);
        assert_eq!(donor.owned_len(), 0);
        assert_eq!(donor.shared_len(), 16);

        // Attachee reuses the segment and appends its own suffix.
        let mut attachee = LayerKvCache::exact(ch);
        attachee.attach(Arc::clone(&seg));
        for (k, v) in &rows[16..] {
            attachee.append(k, v);
        }
        // A cold cache over the same rows must match bitwise.
        let mut cold = LayerKvCache::exact(ch);
        for (k, v) in &rows {
            cold.append(k, v);
        }
        assert_eq!(attachee.len(), cold.len());
        assert_eq!(attachee.owned_len(), 8);
        let view = attachee.view();
        for t in 0..cold.len() {
            assert_eq!(attachee.key_row(t), cold.key_row(t), "key row {t}");
            assert_eq!(attachee.value_row(t), cold.value_row(t), "value row {t}");
            assert_eq!(view.key_row(t), cold.key_row(t), "view key row {t}");
            assert_eq!(view.value_row(t), cold.value_row(t), "view value row {t}");
        }
        // Three holders: donor, attachee, and the returned handle.
        assert_eq!(Arc::strong_count(&seg), 3);
        drop(donor);
        drop(attachee);
        assert_eq!(Arc::strong_count(&seg), 1, "holders release on drop");
    }

    #[test]
    fn forked_clones_share_prefix_and_diverge_independently() {
        let ch = 4;
        let rows = random_rows(21, 12, ch);
        let mut leader = LayerKvCache::exact(ch);
        for (k, v) in &rows[..10] {
            leader.append(k, v);
        }
        let seg = leader.share_prefix(10).unwrap();
        let mut fork = leader.clone();
        // Divergent tails: each appends different rows past the fork.
        leader.append(&rows[10].0, &rows[10].1);
        fork.append(&rows[11].0, &rows[11].1);
        assert_eq!(leader.key_row(10), rows[10].0.as_slice());
        assert_eq!(fork.key_row(10), rows[11].0.as_slice());
        for t in 0..10 {
            assert_eq!(leader.key_row(t), fork.key_row(t), "shared row {t}");
        }
        // Both clones plus the returned handle hold the segment.
        assert_eq!(Arc::strong_count(&seg), 3);
        // truncate back into the shared prefix detaches on the segment
        // boundary without disturbing the other fork.
        fork.truncate(0);
        assert_eq!(fork.len(), 0);
        assert_eq!(Arc::strong_count(&seg), 2);
        assert_eq!(leader.len(), 11);
        assert_eq!(leader.key_row(3), rows[3].0.as_slice());
    }

    #[test]
    #[should_panic(expected = "empty private tail")]
    fn attach_after_private_rows_panics() {
        let ch = 4;
        let mut donor = LayerKvCache::exact(ch);
        let row = vec![1.0; ch];
        donor.append(&row, &row);
        let seg = donor.share_prefix(1).unwrap();
        let mut cache = LayerKvCache::exact(ch);
        cache.append(&row, &row);
        cache.attach(seg);
    }

    #[test]
    #[should_panic(expected = "inside a shared KV segment")]
    fn truncate_inside_shared_segment_panics() {
        let ch = 4;
        let rows = random_rows(22, 8, ch);
        let mut cache = LayerKvCache::exact(ch);
        for (k, v) in &rows {
            cache.append(k, v);
        }
        cache.share_prefix(8).unwrap();
        cache.truncate(3);
    }

    #[test]
    fn quantized_share_and_attach_keep_group_invariants() {
        let ch = 8;
        let cfg = KvCacheConfig {
            bits: 4,
            group: 8,
            residual: 8,
        };
        let rows = random_rows(23, 40, ch);
        let mut donor = LayerKvCache::quantized(ch, cfg).unwrap();
        for (k, v) in &rows[..32] {
            donor.append(k, v);
        }
        // 32 appended, residual 8 → tokens [0, 24) quantized; the share
        // boundary must sit inside that prefix on a group boundary.
        assert_eq!(donor.quantized_len(), 24);
        let donor_rows: Vec<Vec<f64>> = (0..24).map(|t| donor.key_row(t).to_vec()).collect();
        let seg = donor.share_prefix(16).unwrap();
        assert_eq!(seg.len(), 16);

        let mut attachee = LayerKvCache::quantized(ch, cfg).unwrap();
        attachee.attach(seg);
        assert_eq!(attachee.len(), 16);
        assert_eq!(attachee.quantized_len(), 16, "attached rows are quantized");
        for (k, v) in &rows[16..40] {
            attachee.append(k, v);
        }
        // Aging resumed group-aligned past the attached base; the shared
        // rows serve the donor's frozen post-quantization values.
        assert_eq!(attachee.len(), 40);
        assert_eq!(attachee.quantized_len(), 32);
        for (t, row) in donor_rows.iter().take(16).enumerate() {
            assert_eq!(attachee.key_row(t), row.as_slice(), "frozen row {t}");
        }
    }

    #[test]
    #[should_panic(expected = "group-aligned")]
    fn quantized_share_off_group_boundary_panics() {
        let ch = 8;
        let cfg = KvCacheConfig {
            bits: 4,
            group: 8,
            residual: 0,
        };
        let rows = random_rows(24, 16, ch);
        let mut cache = LayerKvCache::quantized(ch, cfg).unwrap();
        for (k, v) in &rows {
            cache.append(k, v);
        }
        cache.share_prefix(5);
    }

    #[test]
    #[should_panic(expected = "group-aligned")]
    fn quantized_segment_misaligned_split_panics() {
        let ch = 8;
        let cfg = KvCacheConfig {
            bits: 4,
            group: 8,
            residual: 0,
        };
        let rows = random_rows(25, 16, ch);
        let mut cache = LayerKvCache::quantized(ch, cfg).unwrap();
        for (k, v) in &rows {
            cache.append(k, v);
        }
        let seg = cache.share_prefix(16).unwrap();
        let _ = seg.slice(0, 3);
    }

    #[test]
    fn segment_slice_splits_exact_rows_bitwise() {
        let ch = 4;
        let rows = random_rows(26, 10, ch);
        let mut cache = LayerKvCache::exact(ch);
        for (k, v) in &rows {
            cache.append(k, v);
        }
        let seg = cache.share_prefix(10).unwrap();
        let left = seg.slice(0, 6);
        let right = seg.slice(6, 10);
        assert_eq!(left.len(), 6);
        assert_eq!(right.len(), 4);
        for t in 0..6 {
            assert_eq!(left.key_row(t), seg.key_row(t));
            assert_eq!(left.value_row(t), seg.value_row(t));
        }
        for t in 0..4 {
            assert_eq!(right.key_row(t), seg.key_row(6 + t));
        }
        assert_eq!(
            left.storage_bytes() + right.storage_bytes(),
            seg.storage_bytes()
        );
    }

    #[test]
    fn owned_accounting_excludes_shared_segments() {
        let ch = 16;
        let rows = random_rows(27, 24, ch);
        let mut cache = LayerKvCache::exact(ch);
        for (k, v) in &rows {
            cache.append(k, v);
        }
        let total = cache.storage_bytes();
        assert_eq!(cache.owned_storage_bytes(), total);
        let seg = cache.share_prefix(16).unwrap();
        // Total footprint unchanged; the owned share shrank to the tail.
        assert_eq!(cache.storage_bytes(), total);
        assert_eq!(cache.owned_storage_bytes(), 8 * 2 * ch * 8);
        assert_eq!(seg.storage_bytes(), 16 * 2 * ch * 8);
    }

    #[test]
    fn all_residual_cache_is_identity() {
        let (_, k, v) = kv(5, 32, 8);
        let cfg = KvCacheConfig {
            bits: 2,
            group: 8,
            residual: 64, // more than the cache holds
        };
        let qkv = quantize_kv_cache(&k, &v, cfg).unwrap();
        assert_eq!(qkv.keys, k);
        assert_eq!(qkv.values, v);
    }
}
