//! Cache-friendly decoded-block storage: per-macro-block tiles decoded
//! lazily on first touch and kept under an LRU residency cap, so repeated
//! forward passes amortize unpacking instead of re-decoding every block.
//!
//! A resident tile is an **execution-ready decoded form** chosen per bit
//! budget ([`DecodedTile`]). 2-bit layers use [`BucketTile`]: slot
//! indices grouped by inlier code (CSR layout) plus exact decoded outlier
//! values — since an inlier decodes to `code × 2^Isf` and 2-bit codes
//! take only 3 nonzero values, a whole bucket contributes
//! `code × 2^Isf × Σ activation-rows`, so the hot GEMM loop becomes
//! branch-free adds with one multiply per bucket, and zero weights vanish
//! from the index lists entirely (≈2 bytes per nonzero inlier, 4–5×
//! faster to execute than a value array). 4-bit layers use [`FlatTile`]
//! (`f32` values walked once at full width): 15 distinct codes split
//! 64-slot groups too thinly for bucketing to pay. Both keep values the
//! `f64` decode would produce — `f32` entries are exact castbacks, and
//! anything that does not round-trip stays `f64`.
//!
//! Layers are identified by [`PackedLayer::content_fingerprint`] (a
//! memoized content hash), not by address: two identical layers share
//! entries, and entries can never go stale because a key change follows
//! any content change. Shards keyed by group index keep lock contention
//! low under the parallel executor.

use microscopiq_core::packed::PackedLayer;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const SHARDS: usize = 16;

/// Multiply-rotate hasher for the (layer, group) keys — the default
/// SipHash costs more than the lookup it guards on the per-group hot
/// path; keys here are already high-entropy fingerprints.
#[derive(Default)]
pub struct FastKeyHasher(u64);

impl Hasher for FastKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(23);
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 31;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^ (h >> 29)
    }
}

type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastKeyHasher>>;

/// A decoded macro-block tile in execution-ready form.
///
/// `Bucketed` (bb = 2) groups slots by inlier code so the GEMM runs
/// multiply-free adds; `Flat` (bb = 4) stores plain `f32` values — 15
/// distinct codes split 64-slot groups too thinly for bucketing to pay,
/// and a branch-free multiply-add over a flat tile walks the group once
/// at full output width.
#[derive(Debug)]
pub enum DecodedTile {
    /// Code-bucketed form for 2-bit layers.
    Bucketed(BucketTile),
    /// Flat `f32` values for 4-bit layers.
    Flat(FlatTile),
}

impl DecodedTile {
    /// Decodes group `g` of a layer into the representation suited to its
    /// bit budget.
    pub fn build(layer: &PackedLayer, g: usize) -> Self {
        if layer.inlier_bits() == 2 {
            DecodedTile::Bucketed(BucketTile::build(layer, g))
        } else {
            DecodedTile::Flat(FlatTile::build(layer, g))
        }
    }

    /// Resident size in bytes.
    pub fn bytes(&self) -> usize {
        match self {
            DecodedTile::Bucketed(t) => t.bytes(),
            DecodedTile::Flat(t) => t.bytes(),
        }
    }

    /// Expands back to a dense value vector of length `len` (test /
    /// debugging aid; the executor never calls this).
    pub fn to_dense(&self, len: usize) -> Vec<f64> {
        match self {
            DecodedTile::Bucketed(t) => t.to_dense(len),
            DecodedTile::Flat(t) => t.to_dense(len),
        }
    }
}

/// A decoded macro-block as flat `f32` values plus exact `f64` escapes.
#[derive(Debug)]
pub struct FlatTile {
    /// Decoded values; exactly representable in `f32` (others are zeroed
    /// here and carried in `wide`).
    values: Vec<f32>,
    /// Slots whose decoded value does not round-trip through `f32`
    /// (pathological exponent ranges): (index, exact value).
    wide: Vec<(u16, f64)>,
}

impl FlatTile {
    /// Decodes group `g` of a layer into flat form.
    pub fn build(layer: &PackedLayer, g: usize) -> Self {
        let span = layer.group_span(g);
        let mut buf = vec![0.0_f64; span.len];
        layer.decode_group_into(g, &mut buf);
        let mut wide = Vec::new();
        let values = buf
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                if (v as f32) as f64 == v {
                    v as f32
                } else {
                    wide.push((i as u16, v));
                    0.0
                }
            })
            .collect();
        Self { values, wide }
    }

    /// The `f32` values (one per slot; wide-escaped slots read 0.0).
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Slots carried at full `f64` precision.
    pub fn wide(&self) -> &[(u16, f64)] {
        &self.wide
    }

    /// Resident size in bytes.
    pub fn bytes(&self) -> usize {
        self.values.len() * 4 + self.wide.len() * 10 + std::mem::size_of::<Self>()
    }

    /// Expands back to a dense value vector of length `len`.
    pub fn to_dense(&self, len: usize) -> Vec<f64> {
        let mut out = vec![0.0; len];
        for (o, &v) in out.iter_mut().zip(self.values.iter()) {
            *o = v as f64;
        }
        for &(i, v) in &self.wide {
            out[i as usize] = v;
        }
        out
    }
}

/// A decoded macro-block in bucketed execution form.
#[derive(Debug)]
pub struct BucketTile {
    /// The group's inlier scale `2^Isf`.
    scale: f64,
    /// Distinct nonzero inlier codes present, as signed integers.
    codes: Vec<i16>,
    /// CSR offsets into `idx`, one span per entry of `codes`
    /// (`len == codes.len() + 1`).
    offsets: Vec<u32>,
    /// Slot indices (group-relative), grouped by code.
    idx: Vec<u16>,
    /// Outlier slots: (group-relative index, exact decoded value).
    outliers: Vec<(u16, f64)>,
}

impl BucketTile {
    /// Decodes group `g` of a layer into bucketed form.
    pub fn build(layer: &PackedLayer, g: usize) -> Self {
        let view = layer.group(g);
        let scale = view.isf().value();
        let bb = layer.inlier_bits();
        // Exact decoded values (for outliers) via the core decode path.
        let mut values = vec![0.0_f64; view.span().len];
        view.decode_into(&mut values);

        let n_codes = 1usize << bb;
        // buckets[c] collects slot indices whose inlier code is `c`
        // (two's-complement value c − 2^bb for the upper half).
        let mut buckets: Vec<Vec<u16>> = vec![Vec::new(); n_codes];
        let mut outliers = Vec::new();
        let mut base = 0usize;
        for (codes, meta) in view.micro_blocks() {
            let mut special = vec![false; codes.len()];
            if let Some((_, entries)) = meta {
                for e in entries {
                    let up = base + e.upper_loc as usize;
                    special[e.upper_loc as usize] = true;
                    special[e.lower_loc as usize] = true; // pruned ⇒ zero
                    outliers.push((up as u16, values[up]));
                }
            }
            for (k, &c) in codes.iter().enumerate() {
                if special[k] {
                    continue;
                }
                let shift = 8 - bb;
                let signed = ((c << shift) as i8 >> shift) as i32;
                if signed != 0 {
                    buckets[(signed + (n_codes as i32 / 2)) as usize].push((base + k) as u16);
                }
            }
            base += codes.len();
        }

        let mut codes = Vec::new();
        let mut offsets = vec![0u32];
        let mut idx = Vec::new();
        for (b, slots) in buckets.into_iter().enumerate() {
            if slots.is_empty() {
                continue;
            }
            codes.push((b as i32 - n_codes as i32 / 2) as i16);
            idx.extend_from_slice(&slots);
            offsets.push(idx.len() as u32);
        }
        Self {
            scale,
            codes,
            offsets,
            idx,
            outliers,
        }
    }

    /// The group's inlier scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Iterates `(multiplier, slot-indices)` per bucket; the multiplier is
    /// the decoded inlier value `code × 2^Isf` shared by the bucket.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, &[u16])> {
        self.codes.iter().enumerate().map(move |(b, &c)| {
            let lo = self.offsets[b] as usize;
            let hi = self.offsets[b + 1] as usize;
            (c as f64 * self.scale, &self.idx[lo..hi])
        })
    }

    /// The outlier slots (index, exact value).
    pub fn outliers(&self) -> &[(u16, f64)] {
        &self.outliers
    }

    /// Resident size in bytes.
    pub fn bytes(&self) -> usize {
        self.codes.len() * 2
            + self.offsets.len() * 4
            + self.idx.len() * 2
            + self.outliers.len() * 10
            + std::mem::size_of::<Self>()
    }

    /// Expands back to a dense value vector of length `len` (test /
    /// debugging aid; the executor never calls this).
    pub fn to_dense(&self, len: usize) -> Vec<f64> {
        let mut out = vec![0.0; len];
        for (m, slots) in self.buckets() {
            for &i in slots {
                out[i as usize] = m;
            }
        }
        for &(i, v) in &self.outliers {
            out[i as usize] = v;
        }
        out
    }
}

#[derive(Debug)]
struct Entry {
    tile: Arc<DecodedTile>,
    stamp: u64,
}

#[derive(Debug, Default)]
struct Shard {
    entries: FastMap<(u64, u32), Entry>,
    bytes: usize,
}

impl Shard {
    /// Evicts least-recently-used entries until `bytes <= cap`.
    fn enforce_cap(&mut self, cap: usize) -> usize {
        let mut evicted = 0;
        while self.bytes > cap && !self.entries.is_empty() {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(&k, _)| k)
                .expect("non-empty");
            if let Some(e) = self.entries.remove(&oldest) {
                self.bytes -= e.tile.bytes();
                evicted += 1;
            }
        }
        evicted
    }
}

/// Cache statistics snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Tile lookups served from residency.
    pub hits: u64,
    /// Tile lookups that decoded fresh.
    pub misses: u64,
    /// Tiles evicted under the residency cap.
    pub evictions: u64,
    /// Bytes currently resident.
    pub resident_bytes: usize,
}

/// Sharded, LRU-capped store of lazily decoded macro-block tiles.
#[derive(Debug)]
pub struct DecodedCache {
    shards: Vec<Mutex<Shard>>,
    cap_per_shard: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl DecodedCache {
    /// Creates a cache with the given total residency cap in bytes.
    pub fn new(max_bytes: usize) -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            cap_per_shard: (max_bytes / SHARDS).max(1),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Returns the decoded tile for group `g` of the layer, decoding and
    /// inserting it on first touch.
    pub fn get_or_decode(&self, layer_id: u64, layer: &PackedLayer, g: usize) -> Arc<DecodedTile> {
        let key = (layer_id, g as u32);
        let shard = &self.shards[g % SHARDS];
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        {
            let mut guard = shard.lock().expect("cache shard poisoned");
            if let Some(e) = guard.entries.get_mut(&key) {
                e.stamp = stamp;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return e.tile.clone();
            }
        }
        // Decode outside the lock: concurrent misses on one tile waste a
        // little work but never block each other.
        let tile = Arc::new(DecodedTile::build(layer, g));
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut guard = shard.lock().expect("cache shard poisoned");
        guard.bytes += tile.bytes();
        if let Some(prev) = guard.entries.insert(
            key,
            Entry {
                tile: tile.clone(),
                stamp,
            },
        ) {
            // A racing thread inserted first; ours replaced it.
            guard.bytes -= prev.tile.bytes();
        }
        let evicted = guard.enforce_cap(self.cap_per_shard);
        drop(guard);
        if evicted > 0 {
            self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
        }
        tile
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: self
                .shards
                .iter()
                .map(|s| s.lock().expect("cache shard poisoned").bytes)
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microscopiq_core::config::{GroupAxis, QuantConfig};
    use microscopiq_core::solver::solve;
    use microscopiq_core::traits::LayerTensors;
    use microscopiq_linalg::{Matrix, SeededRng};

    fn packed_layer(seed: u64, bits: u32) -> PackedLayer {
        let mut rng = SeededRng::new(seed);
        let mut w = Matrix::from_fn(16, 64, |_, _| rng.normal(0.0, 0.02));
        for _ in 0..20 {
            let r = rng.below(16);
            let c = rng.below(64);
            w[(r, c)] = rng.sign() * rng.uniform_range(0.15, 0.5);
        }
        let x = Matrix::from_fn(64, 8, |_, _| rng.normal(0.0, 1.0));
        let layer = LayerTensors::new(w, x).unwrap();
        let cfg = QuantConfig::builder(bits)
            .macro_block(16)
            .row_block(16)
            .build()
            .unwrap();
        solve(&layer, &cfg).unwrap().packed.unwrap()
    }

    #[test]
    fn decoded_tiles_expand_to_exact_decode() {
        for bits in [2, 4] {
            let layer = packed_layer(1, bits);
            let mut reference = vec![0.0; layer.macro_block()];
            for g in 0..layer.num_groups() {
                let span = layer.group_span(g);
                layer.decode_group_into(g, &mut reference);
                let tile = DecodedTile::build(&layer, g);
                match (&tile, bits) {
                    (DecodedTile::Bucketed(_), 2) | (DecodedTile::Flat(_), 4) => {}
                    other => panic!("wrong representation for bits={bits}: {other:?}"),
                }
                assert_eq!(
                    tile.to_dense(span.len),
                    &reference[..span.len],
                    "bits={bits} group {g}"
                );
            }
        }
    }

    #[test]
    fn buckets_partition_nonzero_inliers() {
        let layer = packed_layer(2, 2);
        for g in 0..layer.num_groups() {
            let span = layer.group_span(g);
            let tile = BucketTile::build(&layer, g);
            let mut seen = vec![false; span.len];
            for (m, slots) in tile.buckets() {
                assert!(m != 0.0, "zero bucket must not exist");
                for &i in slots {
                    assert!(!seen[i as usize], "slot {i} in two buckets");
                    seen[i as usize] = true;
                }
            }
            for &(i, _) in tile.outliers() {
                assert!(!seen[i as usize], "outlier slot {i} also bucketed");
                seen[i as usize] = true;
            }
        }
    }

    #[test]
    fn tiles_hit_on_reuse() {
        let layer = packed_layer(3, 2);
        let cache = DecodedCache::new(1 << 20);
        let id = layer.content_fingerprint();
        for g in 0..layer.num_groups() {
            let _ = cache.get_or_decode(id, &layer, g);
        }
        let s1 = cache.stats();
        assert_eq!(s1.misses, layer.num_groups() as u64);
        assert_eq!(s1.hits, 0);
        for g in 0..layer.num_groups() {
            let _ = cache.get_or_decode(id, &layer, g);
        }
        let s2 = cache.stats();
        assert_eq!(s2.hits, layer.num_groups() as u64);
        assert_eq!(s2.misses, s1.misses, "second pass must be all hits");
        assert!(s2.resident_bytes > 0);
    }

    #[test]
    fn residency_cap_evicts_lru() {
        let layer = packed_layer(4, 2);
        // Cap far below the full decoded size forces eviction.
        let cap = SHARDS * 96;
        let cache = DecodedCache::new(cap);
        let id = layer.content_fingerprint();
        for _ in 0..3 {
            for g in 0..layer.num_groups() {
                let _ = cache.get_or_decode(id, &layer, g);
            }
        }
        let s = cache.stats();
        assert!(s.evictions > 0, "tiny cap must evict");
        assert!(
            s.resident_bytes <= cap,
            "residency {} exceeds cap",
            s.resident_bytes
        );
    }

    #[test]
    fn layer_ids_are_content_addressed() {
        assert_ne!(
            packed_layer(5, 2).content_fingerprint(),
            packed_layer(6, 2).content_fingerprint()
        );
        assert_eq!(
            packed_layer(7, 2).content_fingerprint(),
            packed_layer(7, 2).content_fingerprint()
        );
    }

    #[test]
    fn layer_id_sees_code_changes() {
        // Two layers identical except one slot code must not collide.
        use microscopiq_core::packed::PackedLayerBuilder;
        use microscopiq_mx::scale::Pow2Scale;
        let mk = |c: u8| {
            let mut b = PackedLayerBuilder::new(GroupAxis::DotProduct, 1, 8, 2, 8, 8);
            b.set_group(
                0,
                Pow2Scale::new(-3),
                [(&[c, 1, 0, 1, 0, 0, 1, 0][..], None)],
            );
            b.finish()
        };
        assert_ne!(mk(0).content_fingerprint(), mk(1).content_fingerprint());
    }
}
