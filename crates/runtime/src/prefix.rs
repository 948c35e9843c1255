//! Prefix caching: shared-prompt KV reuse across requests.
//!
//! Production traffic is dominated by shared prefixes — system prompts,
//! few-shot templates — yet a cold serving stack prefills every request
//! from token 0. [`PrefixCache`] is a radix trie keyed on prompt tokens
//! whose nodes hold immutable, refcounted [`KvSegment`] bundles (one
//! segment per transformer block, frozen at prompt completion). On
//! admission the session matches the longest cached prefix, attaches its
//! segments copy-on-write ([`DecodeState::with_prefix`]) and
//! chunk-prefills only the suffix through the normal budget machinery.
//!
//! # Guarantee
//!
//! Attached rows are bitwise the rows a cold prefill would have
//! produced, so reuse is bit-identical to cold prefill on any bit-exact
//! engine (pinned by the `prefix_cache` test suite).
//!
//! # Capacity
//!
//! Resident bytes are budgeted: inserts beyond
//! [`PrefixCacheConfig::capacity_bytes`] evict least-recently-used
//! *unreferenced* trie leaves (no live request holds their segments and
//! no longer prefix extends them) and release their segments eagerly.
//! Referenced segments are never evicted out from under a request —
//! eviction drops the trie's refcount and the rows are freed when the
//! last attached request retires.

use crate::telemetry::{Counter, Gauge, Histogram, MetricsRegistry};
use microscopiq_core::kv_cache::{KvMode, KvSegment};
use microscopiq_fm::DecodeState;
use std::sync::Arc;

/// Knobs for a session's [`PrefixCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixCacheConfig {
    /// Byte budget for resident (trie-retained) KV segments, in the
    /// storage-format accounting of
    /// [`LayerKvCache::storage_bytes`](microscopiq_core::LayerKvCache::storage_bytes).
    /// Inserts beyond the budget evict unreferenced LRU leaves.
    pub capacity_bytes: usize,
}

impl Default for PrefixCacheConfig {
    fn default() -> Self {
        Self {
            // Generous for the TinyFM scale this workspace serves; a
            // 256-token, 4-layer, d64 exact prefix is ~1 MiB.
            capacity_bytes: 64 << 20,
        }
    }
}

/// Counters and gauges describing a [`PrefixCache`]'s lifetime activity
/// and current residency — a snapshot of its [`PrefixMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixCacheStats {
    /// Lookups that attached a non-empty cached prefix: admissions and
    /// the re-match a preempted request makes before its recompute.
    pub hits: u64,
    /// Lookups that matched nothing (including unmatchable one-token
    /// prompts).
    pub misses: u64,
    /// Trie nodes evicted under capacity pressure.
    pub evictions: u64,
    /// Total prompt tokens served from cache instead of prefilled.
    pub tokens_reused: u64,
    /// Storage-format bytes currently retained by the trie.
    pub resident_bytes: usize,
    /// Trie nodes currently resident.
    pub resident_nodes: usize,
}

/// A [`PrefixCache`]'s counters and gauges — the only tally it keeps.
/// Registered into a [`MetricsRegistry`] by [`PrefixCache::with_metrics`]
/// and shared with the server handle so `prefix_cache_stats()` reads
/// without crossing into the worker thread.
#[derive(Debug, Clone)]
pub struct PrefixMetrics {
    pub(crate) hits: Arc<Counter>,
    pub(crate) misses: Arc<Counter>,
    pub(crate) evictions: Arc<Counter>,
    pub(crate) tokens_reused: Arc<Counter>,
    pub(crate) resident_bytes: Arc<Gauge>,
    pub(crate) resident_nodes: Arc<Gauge>,
    /// Distribution of reused-token counts per hit.
    pub(crate) reused_tokens: Arc<Histogram>,
}

impl PrefixMetrics {
    /// Registers the prefix-cache metric family into `reg`.
    pub fn register(reg: &MetricsRegistry) -> Self {
        Self {
            hits: reg.counter(
                "microscopiq_prefix_cache_hits",
                "Lookups that attached a cached prompt prefix (admissions and \
                 preemption re-matches)",
            ),
            misses: reg.counter(
                "microscopiq_prefix_cache_misses",
                "Lookups that matched no cached prefix",
            ),
            evictions: reg.counter(
                "microscopiq_prefix_cache_evictions",
                "Prefix-trie nodes evicted under capacity pressure",
            ),
            tokens_reused: reg.counter(
                "microscopiq_prefix_cache_tokens_reused",
                "Prompt tokens served from the prefix cache instead of prefilled",
            ),
            resident_bytes: reg.gauge(
                "microscopiq_prefix_cache_resident_bytes",
                "Storage-format bytes retained by the prefix trie",
            ),
            resident_nodes: reg.gauge(
                "microscopiq_prefix_cache_resident_nodes",
                "Prefix-trie nodes currently resident",
            ),
            reused_tokens: reg.histogram(
                "microscopiq_prefix_cache_reused_tokens",
                "Reused prompt tokens per cache hit",
            ),
        }
    }

    /// Assembles a stats snapshot from the shared handles.
    pub(crate) fn snapshot(&self) -> PrefixCacheStats {
        PrefixCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            tokens_reused: self.tokens_reused.get(),
            resident_bytes: self.resident_bytes.get().max(0) as usize,
            resident_nodes: self.resident_nodes.get().max(0) as usize,
        }
    }
}

/// A successful [`PrefixCache::lookup`]: the number of prompt tokens
/// covered and the per-node segment bundles (outer by trie node in token
/// order, inner one segment per layer) to feed
/// [`DecodeState::with_prefix`]. Holding the match keeps the segments
/// alive independently of later evictions.
#[derive(Debug, Clone)]
pub struct PrefixMatch {
    /// Prompt tokens covered by the attached segments.
    pub tokens: usize,
    /// Segment bundles, outer-by-node, inner-by-layer.
    pub bundles: Vec<Vec<Arc<KvSegment>>>,
}

#[derive(Debug)]
struct PrefixNode {
    /// Tokens on the edge from the parent (non-empty).
    edge: Vec<usize>,
    /// One segment per layer, each `edge.len()` tokens long.
    segs: Vec<Arc<KvSegment>>,
    children: Vec<PrefixNode>,
    /// Monotonic LRU stamp (the cache's logical clock, not wall time).
    last_used: u64,
}

impl PrefixNode {
    fn bytes(&self) -> usize {
        self.segs.iter().map(|s| s.storage_bytes()).sum()
    }

    fn evictable(&self) -> bool {
        self.children.is_empty() && self.segs.iter().all(|s| Arc::strong_count(s) == 1)
    }
}

/// A byte-budgeted radix trie over prompt tokens mapping to immutable
/// per-layer KV segments. See the module docs for the sharing contract.
#[derive(Debug)]
pub struct PrefixCache {
    children: Vec<PrefixNode>,
    cfg: PrefixCacheConfig,
    n_layers: usize,
    clock: u64,
    metrics: PrefixMetrics,
}

impl PrefixCache {
    /// Creates an empty cache for models of `n_layers` blocks. Its metric
    /// handles count as usual but sit in a throwaway registry, so nothing
    /// publishes them.
    pub fn new(cfg: PrefixCacheConfig, n_layers: usize, mode: KvMode) -> Self {
        let KvMode::Exact = mode;
        Self::with_metrics(cfg, n_layers, &MetricsRegistry::new())
    }

    /// Like [`PrefixCache::new`], additionally publishing the
    /// `microscopiq_prefix_cache_*` metric family into `reg`.
    pub fn with_metrics(cfg: PrefixCacheConfig, n_layers: usize, reg: &MetricsRegistry) -> Self {
        Self {
            children: Vec::new(),
            cfg,
            n_layers,
            clock: 0,
            metrics: PrefixMetrics::register(reg),
        }
    }

    /// The metric handles.
    pub fn metrics(&self) -> &PrefixMetrics {
        &self.metrics
    }

    /// Current counters and residency.
    pub fn stats(&self) -> PrefixCacheStats {
        self.metrics.snapshot()
    }

    /// Replaces the byte budget and immediately evicts down to it.
    /// Shrinking to 0 drains every unreferenced node — a clean way to
    /// assert nothing leaked once traffic has retired.
    pub fn set_capacity(&mut self, capacity_bytes: usize) {
        self.cfg.capacity_bytes = capacity_bytes;
        self.evict_to_budget();
    }

    /// Matches the longest cached prefix of `prompt`, capped so at
    /// least one prompt token is always left to prefill (sampling needs
    /// a live forward pass over the final token). A mid-edge match
    /// splits the node (copy-on-split) so the matched part becomes a
    /// whole node. Returns `None` — and counts a miss — when nothing
    /// usable is cached.
    pub fn lookup(&mut self, prompt: &[usize]) -> Option<PrefixMatch> {
        let cap = prompt.len().saturating_sub(1);
        self.clock += 1;
        let clock = self.clock;
        let mut bundles = Vec::new();
        let mut pos = 0usize;
        let mut bytes_delta = 0isize;
        let mut nodes_delta = 0isize;
        let mut cur = &mut self.children;
        while pos < cap {
            let Some(idx) = cur.iter().position(|c| c.edge[0] == prompt[pos]) else {
                break;
            };
            let node = &mut cur[idx];
            let take = lcp(&node.edge, &prompt[pos..]).min(cap - pos);
            if take < node.edge.len() {
                split_node(node, take, &mut bytes_delta, &mut nodes_delta);
            }
            node.last_used = clock;
            bundles.push(node.segs.clone());
            pos += take;
            cur = &mut node.children;
        }
        self.apply_deltas(bytes_delta, nodes_delta);
        let m = &self.metrics;
        if pos == 0 {
            m.misses.inc();
            return None;
        }
        m.hits.inc();
        m.tokens_reused.add(pos as u64);
        m.reused_tokens.record(pos as u64);
        Some(PrefixMatch {
            tokens: pos,
            bundles,
        })
    }

    /// Inserts the prefix of a completed prompt: rows
    /// `[0, min(prompt_len, state.len()))` of `state`'s caches are copied
    /// bitwise into trie segments (splitting existing nodes at the
    /// divergence point). Walks the live trie, so
    /// it is robust to evictions or competing inserts between this
    /// request's admission and its prompt completion. May evict LRU
    /// unreferenced leaves to stay within budget.
    pub fn insert(&mut self, state: &DecodeState, prompt_len: usize) {
        let seal = prompt_len.min(state.len());
        if seal == 0 {
            return;
        }
        let prompt = &state.tokens()[..seal];
        self.clock += 1;
        let clock = self.clock;
        let n_layers = self.n_layers;
        let mut bytes_delta = 0isize;
        let mut nodes_delta = 0isize;
        let mut pos = 0usize;
        let mut cur = &mut self.children;
        while pos < prompt.len() {
            let Some(idx) = cur.iter().position(|c| c.edge[0] == prompt[pos]) else {
                let segs: Vec<Arc<KvSegment>> = (0..n_layers)
                    .map(|l| Arc::new(KvSegment::from_cache(state.cache(l), pos, prompt.len())))
                    .collect();
                let node = PrefixNode {
                    edge: prompt[pos..].to_vec(),
                    segs,
                    children: Vec::new(),
                    last_used: clock,
                };
                bytes_delta += node.bytes() as isize;
                nodes_delta += 1;
                cur.push(node);
                break;
            };
            let node = &mut cur[idx];
            let take = lcp(&node.edge, &prompt[pos..]);
            if take < node.edge.len() {
                split_node(node, take, &mut bytes_delta, &mut nodes_delta);
            }
            node.last_used = clock;
            pos += take;
            cur = &mut node.children;
        }
        self.apply_deltas(bytes_delta, nodes_delta);
        self.evict_to_budget();
    }

    fn apply_deltas(&self, bytes: isize, nodes: isize) {
        self.metrics.resident_bytes.add(bytes as i64);
        self.metrics.resident_nodes.add(nodes as i64);
    }

    /// Evicts least-recently-used unreferenced leaves until resident
    /// bytes fit the budget (or nothing evictable remains). Eviction
    /// releases the trie's segment refcounts eagerly; rows still
    /// attached to live requests are freed when those requests retire.
    fn evict_to_budget(&mut self) {
        while self.metrics.resident_bytes.get().max(0) as usize > self.cfg.capacity_bytes {
            let Some(stamp) = min_evictable(&self.children) else {
                break;
            };
            let Some(freed) = remove_leaf(&mut self.children, stamp) else {
                break;
            };
            self.metrics.evictions.inc();
            self.apply_deltas(-(freed as isize), -1);
        }
    }
}

/// Longest common prefix length of `edge` and `rest`.
fn lcp(edge: &[usize], rest: &[usize]) -> usize {
    edge.iter().zip(rest).take_while(|(a, b)| a == b).count()
}

/// Splits `node` at edge offset `at`:
/// the node keeps `edge[..at]` with sliced segments, and a new child
/// inherits the remainder plus the original children. Copy-on-split —
/// existing holders of the old segments are unaffected; the trie's
/// references move to the slices.
fn split_node(node: &mut PrefixNode, at: usize, bytes_delta: &mut isize, nodes_delta: &mut isize) {
    let rest_edge = node.edge.split_off(at);
    let old_segs = std::mem::take(&mut node.segs);
    let old_bytes: usize = old_segs.iter().map(|s| s.storage_bytes()).sum();
    let left: Vec<Arc<KvSegment>> = old_segs.iter().map(|s| Arc::new(s.slice(0, at))).collect();
    let right: Vec<Arc<KvSegment>> = old_segs
        .iter()
        .map(|s| Arc::new(s.slice(at, s.len())))
        .collect();
    node.segs = left;
    let child = PrefixNode {
        edge: rest_edge,
        segs: right,
        children: std::mem::take(&mut node.children),
        last_used: node.last_used,
    };
    node.children = vec![child];
    let new_bytes: usize = node.bytes() + node.children[0].bytes();
    *bytes_delta += new_bytes as isize - old_bytes as isize;
    *nodes_delta += 1;
}

fn min_evictable(children: &[PrefixNode]) -> Option<u64> {
    let mut best: Option<u64> = None;
    for c in children {
        let candidate = if c.children.is_empty() {
            c.evictable().then_some(c.last_used)
        } else {
            min_evictable(&c.children)
        };
        best = match (best, candidate) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }
    best
}

/// Removes the first evictable leaf stamped `stamp`, returning its
/// byte footprint.
fn remove_leaf(children: &mut Vec<PrefixNode>, stamp: u64) -> Option<usize> {
    for i in 0..children.len() {
        if children[i].children.is_empty() {
            if children[i].last_used == stamp && children[i].evictable() {
                let node = children.remove(i);
                return Some(node.bytes());
            }
        } else if let Some(b) = remove_leaf(&mut children[i].children, stamp) {
            return Some(b);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use microscopiq_fm::{DecodeState, TinyFm, TinyFmConfig};

    fn model() -> TinyFm {
        TinyFm::teacher(
            TinyFmConfig {
                vocab: 32,
                d_model: 8,
                d_ff: 16,
                n_layers: 2,
                n_heads: 2,
            },
            9,
        )
    }

    fn prefilled(m: &TinyFm, prompt: &[usize]) -> DecodeState {
        let (state, _) = m.prefill(prompt, KvMode::Exact).expect("prefill");
        state
    }

    #[test]
    fn lookup_misses_until_insert_then_hits_with_split() {
        let m = model();
        let mut cache = PrefixCache::new(PrefixCacheConfig::default(), 2, KvMode::Exact);
        let prompt_a: Vec<usize> = (0..12).map(|i| i % 32).collect();
        assert!(cache.lookup(&prompt_a).is_none());
        assert_eq!(cache.stats().misses, 1);

        let state = prefilled(&m, &prompt_a);
        cache.insert(&state, prompt_a.len());
        assert_eq!(cache.stats().resident_nodes, 1);
        assert!(cache.stats().resident_bytes > 0);

        // Same prompt: capped one short of the full prompt, splitting
        // the 12-token node into 11 + 1.
        let hit = cache.lookup(&prompt_a).expect("hit");
        assert_eq!(hit.tokens, 11);
        assert_eq!(hit.bundles.len(), 1);
        assert_eq!(hit.bundles[0].len(), 2);
        assert_eq!(cache.stats().resident_nodes, 2);

        // Diverging prompt: shares 8 tokens then branches.
        let mut prompt_b = prompt_a[..8].to_vec();
        prompt_b.extend([30, 31, 30, 31]);
        let hit = cache.lookup(&prompt_b).expect("shared prefix hit");
        assert_eq!(hit.tokens, 8);
        let total: usize = hit.bundles.iter().map(|b| b[0].len()).sum();
        assert_eq!(total, 8);
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().tokens_reused, 19);
    }

    #[test]
    fn insert_is_idempotent_and_byte_accounting_is_stable() {
        let m = model();
        let mut cache = PrefixCache::new(PrefixCacheConfig::default(), 2, KvMode::Exact);
        let prompt: Vec<usize> = (0..10).collect();
        let state = prefilled(&m, &prompt);
        cache.insert(&state, prompt.len());
        let bytes = cache.stats().resident_bytes;
        let nodes = cache.stats().resident_nodes;
        cache.insert(&state, prompt.len());
        assert_eq!(cache.stats().resident_bytes, bytes);
        assert_eq!(cache.stats().resident_nodes, nodes);
        // Splitting conserves bytes (copy-on-split slices sum to the
        // original).
        cache.lookup(&prompt).expect("hit");
        assert_eq!(cache.stats().resident_bytes, bytes);
    }

    #[test]
    fn eviction_respects_refcounts_and_lru_order() {
        let m = model();
        let mut cache = PrefixCache::new(
            PrefixCacheConfig {
                capacity_bytes: usize::MAX,
            },
            2,
            KvMode::Exact,
        );
        let prompt_a: Vec<usize> = (0..8).collect();
        let prompt_b: Vec<usize> = (8..16).collect();
        cache.insert(&prefilled(&m, &prompt_a), 8);
        cache.insert(&prefilled(&m, &prompt_b), 8);
        assert_eq!(cache.stats().resident_nodes, 2);

        // Hold A's segments like a live request would, then shrink to 0:
        // B and the unreferenced 1-token remainder of A's capped-lookup
        // split can go, but the held 7-token node cannot.
        let held = cache.lookup(&prompt_a).expect("hit");
        cache.set_capacity(0);
        assert_eq!(cache.stats().evictions, 2);
        assert!(cache.stats().resident_bytes > 0);
        assert_eq!(cache.stats().resident_nodes, 1);
        drop(held);
        // …and drains once released.
        cache.set_capacity(0);
        assert_eq!(cache.stats().resident_bytes, 0);
        assert_eq!(cache.stats().resident_nodes, 0);
    }

    #[test]
    fn one_token_prompts_are_unmatchable() {
        let m = model();
        let mut cache = PrefixCache::new(PrefixCacheConfig::default(), 2, KvMode::Exact);
        let state = prefilled(&m, &[5]);
        cache.insert(&state, 1);
        // The single token is cached, but lookup must leave at least one
        // token to prefill.
        assert!(cache.lookup(&[5]).is_none());
        assert!(cache.lookup(&[5, 6]).is_some(), "longer prompt reuses it");
    }
}
