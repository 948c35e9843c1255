//! Decoded-layer storage: every macro-block tile of a layer decoded on
//! the layer's first touch and kept for the cache's life, so repeated
//! forward passes skip unpacking instead of re-decoding every block.
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
//! one entry, and an entry can never go stale because a key change
//! follows any content change. There is no residency cap: a served model
//! is a fixed set of layers scanned cyclically, so the working set is the
//! whole model and any cap below it would miss on every lookup. The
//! engine looks a layer up once per call ([`DecodedCache::layer_tiles`])
//! and hands the kernel the slice, so the per-group work is an index.

use microscopiq_core::packed::PackedLayer;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

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

/// Cache statistics snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Layer lookups served from residency.
    pub hits: u64,
    /// Layer lookups that decoded the layer fresh.
    pub misses: u64,
    /// Always 0: a decoded layer stays resident for the cache's life.
    /// Kept for the `benchmark/` package's `cache.evictions` row until
    /// ROADMAP 1(g).
    pub evictions: u64,
    /// Bytes currently resident.
    pub resident_bytes: usize,
}

/// Every group of one layer decoded, in group order: `tiles[g]` is group
/// `g`.
pub type LayerTiles = Arc<[DecodedTile]>;

#[derive(Debug, Default)]
struct Resident {
    layers: HashMap<u64, LayerTiles>,
    stats: CacheStats,
}

/// The decoded tiles of every layer the engine has run, keyed by the
/// layer's content fingerprint. A layer is decoded whole on first touch
/// and stays resident; an exact-tier call looks its layer up once.
#[derive(Debug, Default)]
pub struct DecodedCache {
    resident: Mutex<Resident>,
}

impl DecodedCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every decoded tile of `layer`, decoding the layer on first touch.
    pub fn layer_tiles(&self, layer: &PackedLayer) -> LayerTiles {
        let id = layer.content_fingerprint();
        {
            let mut resident = self.lock();
            if let Some(tiles) = resident.layers.get(&id).cloned() {
                resident.stats.hits += 1;
                return tiles;
            }
        }
        // Decode outside the lock: two racing first touches each decode,
        // and the first to insert is the one copy kept.
        let tiles: LayerTiles = (0..layer.num_groups())
            .map(|g| DecodedTile::build(layer, g))
            .collect();
        let mut resident = self.lock();
        let Resident { layers, stats } = &mut *resident;
        stats.misses += 1;
        layers
            .entry(id)
            .or_insert_with(|| {
                stats.resident_bytes += tiles.iter().map(DecodedTile::bytes).sum::<usize>();
                tiles
            })
            .clone()
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Resident> {
        self.resident.lock().expect("decoded cache poisoned")
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
        let cache = DecodedCache::new();
        let cold = cache.layer_tiles(&layer);
        assert_eq!(cold.len(), layer.num_groups());
        let s1 = cache.stats();
        assert_eq!(s1.misses, 1);
        assert_eq!(s1.hits, 0);
        let warm = cache.layer_tiles(&layer);
        let s2 = cache.stats();
        assert_eq!(s2.hits, 1);
        assert_eq!(s2.misses, s1.misses, "second lookup must hit");
        assert!(Arc::ptr_eq(&cold, &warm), "a hit returns the resident copy");
        assert_eq!(
            s2.resident_bytes,
            cold.iter().map(DecodedTile::bytes).sum::<usize>()
        );
        assert!(s2.resident_bytes > 0);
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
