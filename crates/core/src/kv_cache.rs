//! KV-cache quantization (Table 7's final row), following the KIVI-style
//! scheme the paper adopts: keys quantized per channel, values per token,
//! 2-bit with group size 128, and a full-precision residual window of the
//! most recent tokens.
//!
//! Two entry points:
//!
//! * [`quantize_kv_cache`] — one-shot quantization of a finished cache,
//!   used for error analysis ([`attention_output_error`]). This offline
//!   measurement is the only place KV rows are quantized;
//! * [`LayerKvCache`] — an *appendable* exact (fp64) per-layer cache for
//!   incremental decode, shareable copy-on-write through [`KvSegment`]s.
//!   This is what `microscopiq-fm`'s decode states hold per transformer
//!   block.

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

/// Storage mode for an appendable [`LayerKvCache`]. Serving stores KV
/// exactly; quantized KV exists only as the offline
/// [`quantize_kv_cache`] measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KvMode {
    /// Every token stays at full fp64 precision. Incremental decode over
    /// an exact cache is bit-identical to full-prefix recompute.
    Exact,
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

    /// Key row for token `t`.
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
}

/// An immutable run of KV rows shared between caches by refcount.
///
/// Segments are produced by [`LayerKvCache::share_prefix`] (freezing a
/// cache's own rows) or [`KvSegment::from_cache`] (copying a row range
/// out of a live cache), and consumed by [`LayerKvCache::attach`]. Once
/// built, a segment's rows never change: attachees append into their own
/// private tails and the segment is dropped when its last holder goes
/// away.
#[derive(Debug, Clone)]
pub struct KvSegment {
    channels: usize,
    /// Serving keys, `tokens × channels` row-major by token.
    keys: Vec<f64>,
    /// Serving values, same layout.
    values: Vec<f64>,
}

impl KvSegment {
    /// Copies serving rows `[lo, hi)` out of `cache` into a new
    /// immutable segment. Rows are copied bitwise, so the segment
    /// reproduces a cold prefill exactly.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `hi > cache.len()`.
    pub fn from_cache(cache: &LayerKvCache, lo: usize, hi: usize) -> Self {
        assert!(
            lo < hi && hi <= cache.len(),
            "bad segment range [{lo}, {hi})"
        );
        let ch = cache.channels;
        let mut keys = Vec::with_capacity((hi - lo) * ch);
        let mut values = Vec::with_capacity((hi - lo) * ch);
        for t in lo..hi {
            keys.extend_from_slice(cache.key_row(t));
            values.extend_from_slice(cache.value_row(t));
        }
        Self {
            channels: ch,
            keys,
            values,
        }
    }

    /// Copies rows `[lo, hi)` of this segment into a new segment —
    /// the split primitive for prefix-trie nodes.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn slice(&self, lo: usize, hi: usize) -> Self {
        assert!(
            lo < hi && hi <= self.len(),
            "bad segment range [{lo}, {hi})"
        );
        let ch = self.channels;
        Self {
            channels: ch,
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

    /// Serving key row for token `t` (segment-relative).
    pub fn key_row(&self, t: usize) -> &[f64] {
        &self.keys[t * self.channels..(t + 1) * self.channels]
    }

    /// Serving value row for token `t` (segment-relative).
    pub fn value_row(&self, t: usize) -> &[f64] {
        &self.values[t * self.channels..(t + 1) * self.channels]
    }

    /// Bytes of the segment's fp64 K + V rows, with the same accounting
    /// as [`LayerKvCache::storage_bytes`].
    pub fn storage_bytes(&self) -> usize {
        2 * self.len() * self.channels * 8
    }
}

/// An appendable per-layer KV cache for incremental decode.
///
/// Rows are `channels`-wide fp64 key/value vectors in token order,
/// stored and served exactly as appended.
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
    /// Immutable shared prefix segments, in token order.
    shared: Vec<Arc<KvSegment>>,
    /// Total tokens covered by `shared`.
    base: usize,
    /// Private-tail serving keys, `tokens × channels` row-major; row 0
    /// is global token `base`.
    keys: Vec<f64>,
    /// Private-tail serving values, same layout.
    values: Vec<f64>,
}

impl LayerKvCache {
    /// Creates an empty exact (fp64) cache.
    pub fn exact(channels: usize) -> Self {
        Self {
            channels,
            shared: Vec::new(),
            base: 0,
            keys: Vec::new(),
            values: Vec::new(),
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

    /// Bytes of this cache's rows, `2 × channels × 8` per token (fp64
    /// K + V rows), shared segments included — the accounting figure
    /// eviction policies and occupancy gauges budget against.
    pub fn storage_bytes(&self) -> usize {
        self.shared.iter().map(|s| s.storage_bytes()).sum::<usize>() + self.owned_storage_bytes()
    }

    /// Storage-format bytes of the private tail only — the per-request
    /// share of [`Self::storage_bytes`] once attached segments are
    /// accounted by their retaining owner instead.
    pub fn owned_storage_bytes(&self) -> usize {
        2 * self.owned_len() * self.channels * 8
    }

    /// Attaches an immutable shared segment to the end of the shared
    /// prefix, copy-on-write: the segment's rows are served in place and
    /// never mutated; subsequent [`Self::append`]s go to the private
    /// tail.
    ///
    /// # Panics
    ///
    /// Panics if the cache already has private rows (attach is an
    /// admission-time operation, before any suffix prefill) or if the
    /// segment's channels disagree with the cache's.
    pub fn attach(&mut self, seg: Arc<KvSegment>) {
        assert!(
            self.keys.is_empty(),
            "attach requires an empty private tail (cache has {} private rows)",
            self.owned_len()
        );
        assert_eq!(seg.channels(), self.channels, "segment channel width");
        self.base += seg.len();
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
    /// Panics if `upto > len()`.
    pub fn share_prefix(&mut self, upto: usize) -> Option<Arc<KvSegment>> {
        if upto <= self.base {
            return None;
        }
        assert!(
            upto <= self.len(),
            "share_prefix past end: {upto} > {}",
            self.len()
        );
        let ch = self.channels;
        let cut = (upto - self.base) * ch;
        let seg = Arc::new(KvSegment {
            channels: ch,
            keys: self.keys[..cut].to_vec(),
            values: self.values[..cut].to_vec(),
        });
        self.keys.drain(..cut);
        self.values.drain(..cut);
        self.base = upto;
        self.shared.push(Arc::clone(&seg));
        Some(seg)
    }

    /// Appends one token's key/value rows.
    ///
    /// # Panics
    ///
    /// Panics if either row's length differs from `channels`.
    pub fn append(&mut self, key_row: &[f64], value_row: &[f64]) {
        assert_eq!(key_row.len(), self.channels, "key row width");
        assert_eq!(value_row.len(), self.channels, "value row width");
        self.keys.extend_from_slice(key_row);
        self.values.extend_from_slice(value_row);
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
    /// Truncating the private tail is always legal and the surviving
    /// prefix is bitwise untouched, so re-appending the same rows
    /// reproduces the original cache exactly.
    ///
    /// With attached shared segments, truncation below the shared base
    /// is legal only on whole-segment boundaries: trailing segments are
    /// detached (their refcount drops; the rows themselves are immutable
    /// and other holders are unaffected), but a cut strictly inside a
    /// shared segment panics — shared rows cannot be partially disowned.
    ///
    /// # Panics
    ///
    /// Panics when `n` lands strictly inside an attached shared segment.
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
            return;
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
    fn storage_bytes_accounts_exact_tokens() {
        let ch = 32;
        let mut exact = LayerKvCache::exact(ch);
        let row = vec![0.5; ch];
        for _ in 0..24 {
            exact.append(&row, &row);
        }
        // Exact: 24 tokens × 2 rows × 32 channels × 8 bytes.
        assert_eq!(exact.storage_bytes(), 24 * 2 * ch * 8);
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
        let view = cache.view();
        for (t, (k, v)) in rows.iter().enumerate() {
            assert_eq!(view.key_row(t), k.as_slice());
            assert_eq!(view.value_row(t), v.as_slice());
        }
    }

    #[test]
    fn zero_group_quantized_cache_rejected() {
        let cfg = KvCacheConfig {
            bits: 2,
            group: 0,
            residual: 4,
        };
        let k = Matrix::zeros(8, 4);
        assert!(quantize_kv_cache(&k, &k, cfg).is_err());
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
