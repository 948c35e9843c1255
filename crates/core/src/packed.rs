//! The packed MicroScopiQ tensor: fixed-budget weight slots plus per-block
//! metadata, matching the off-chip layout of Fig. 5, with the effective
//! bit width of Eq. 4.
//!
//! Layout (per macro-block): an 8-bit `Isf` scale, then per micro-block a
//! 1-bit outlier identifier and — only for outlier-bearing blocks — the
//! 8-bit MXScale and the permutation list. Weight slots always hold exactly
//! `bb` bits: inlier codes in two's complement, outlier Upper/Lower halves
//! in sign-magnitude.
//!
//! In memory a layer holds the same fields as flat arrays, one per kind,
//! so it costs no allocation per group or micro-block: one code byte per
//! slot in group order, one E8M0 byte per group, one outlier bit per
//! micro-block, and a side table for the outlier-bearing micro-blocks
//! only. A layer is built in that form directly: [`PackedLayerBuilder`]
//! sizes the arrays once from the geometry and writes each group in
//! place, in whatever order the groups come.

use crate::config::GroupAxis;
use crate::error::QuantError;
use crate::microblock::{perm_word, PermEntry, PermutationList};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use microscopiq_linalg::Matrix;
use microscopiq_mx::fp::TinyFloat;
use microscopiq_mx::halves::unpack_sign_mag;
use microscopiq_mx::mxfp::MxScale;
use microscopiq_mx::scale::Pow2Scale;
use std::sync::OnceLock;

const MAGIC: &[u8; 4] = b"MSPQ";
const VERSION: u8 = 1;

/// Placement of one macro-block group within the weight matrix (see
/// [`PackedLayer::group_span`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupSpan {
    /// Line index: row for [`GroupAxis::DotProduct`], column for
    /// [`GroupAxis::OutputChannel`].
    pub line: usize,
    /// Starting element offset within the line.
    pub offset: usize,
    /// Number of elements the group covers.
    pub len: usize,
}

/// A layer's contents as flat arrays. Micro-blocks are numbered in layout
/// order; since macro-blocks are whole multiples of the micro-block, the
/// micro-block holding slot `offset` of line `l` is number
/// `l · ⌈line_len / B_μ⌉ + offset / B_μ`, and its codes start at
/// `l · line_len + offset` rounded down to the micro-block.
#[derive(Debug, Clone, PartialEq, Default)]
struct Store {
    /// One code byte per slot, in group (line-major) order.
    codes: Vec<u8>,
    /// One E8M0 `Isf` byte per group.
    scales: Vec<u8>,
    /// One bit per micro-block, set iff it carries outlier metadata.
    outlier_bits: Vec<u64>,
    /// Per word of `outlier_bits`: set bits in all earlier words, so the
    /// side-table row of an outlier micro-block is one lookup and a
    /// popcount.
    outlier_rank: Vec<u32>,
    /// Side table, one row per outlier micro-block in layout order: the
    /// MXScale byte…
    mxscales: Vec<u8>,
    /// …and the row's entries in `perm_entries` (`perm_start[r] ..
    /// perm_start[r + 1]`).
    perm_start: Vec<u32>,
    /// Every permutation entry, side-table row after row.
    perm_entries: Vec<PermEntry>,
}

impl Store {
    /// A store of `slots` zero codes, `groups` zero scales and
    /// `micro_blocks` clear outlier bits, with an empty side table.
    fn zeroed(slots: usize, groups: usize, micro_blocks: usize) -> Self {
        Self {
            codes: vec![0; slots],
            scales: vec![0; groups],
            outlier_bits: vec![0; micro_blocks.div_ceil(64)],
            perm_start: vec![0],
            ..Self::default()
        }
    }

    /// Writes micro-block number `index` (layout order), whose codes start
    /// at slot `start`: its codes and, if it carries outliers, its
    /// MXScale byte and permutation entries as the side table's next row.
    fn put_micro_block(
        &mut self,
        index: usize,
        start: usize,
        codes: &[u8],
        outliers: Option<(u8, &[PermEntry])>,
    ) {
        self.codes[start..start + codes.len()].copy_from_slice(codes);
        if let Some((mxscale, entries)) = outliers {
            self.outlier_bits[index / 64] |= 1 << (index % 64);
            self.mxscales.push(mxscale);
            self.perm_entries.extend_from_slice(entries);
            self.perm_start.push(self.perm_entries.len() as u32);
        }
    }

    /// Reorders the side table into layout order, given the micro-block
    /// number of each row as written.
    fn sort_side_table(&mut self, row_micro_blocks: &[u32]) {
        let mut order: Vec<usize> = (0..row_micro_blocks.len()).collect();
        order.sort_unstable_by_key(|&r| row_micro_blocks[r]);
        let mut mxscales = Vec::with_capacity(order.len());
        let mut perm_start = Vec::with_capacity(order.len() + 1);
        let mut perm_entries = Vec::with_capacity(self.perm_entries.len());
        perm_start.push(0);
        for r in order {
            mxscales.push(self.mxscales[r]);
            let (lo, hi) = (self.perm_start[r] as usize, self.perm_start[r + 1] as usize);
            perm_entries.extend_from_slice(&self.perm_entries[lo..hi]);
            perm_start.push(perm_entries.len() as u32);
        }
        self.mxscales = mxscales;
        self.perm_start = perm_start;
        self.perm_entries = perm_entries;
    }

    /// Trims the side table, which must be in layout order, to its length
    /// and fills the rank index.
    fn finish(mut self) -> Self {
        self.mxscales.shrink_to_fit();
        self.perm_start.shrink_to_fit();
        self.perm_entries.shrink_to_fit();
        let mut seen = 0u32;
        self.outlier_rank = self
            .outlier_bits
            .iter()
            .map(|w| {
                let before = seen;
                seen += w.count_ones();
                before
            })
            .collect();
        self
    }

    /// Whether micro-block `index` carries outlier metadata.
    #[inline(always)]
    fn has_outliers(&self, index: usize) -> bool {
        self.outlier_bits[index / 64] >> (index % 64) & 1 == 1
    }

    /// Outlier bits of micro-blocks `index .. index + count`, at most the
    /// first 64 of them: bit `i` is micro-block `index + i`.
    #[inline]
    fn outlier_window(&self, index: usize, count: usize) -> u64 {
        let (word, shift) = (index / 64, index % 64);
        let mut bits = self.outlier_bits.get(word).map_or(0, |&w| w >> shift);
        if shift > 0 {
            bits |= self
                .outlier_bits
                .get(word + 1)
                .map_or(0, |&w| w << (64 - shift));
        }
        if count < 64 {
            bits & ((1 << count) - 1)
        } else {
            bits
        }
    }

    /// Side-table row of outlier micro-block `index`.
    #[inline(always)]
    fn outlier_row(&self, index: usize) -> usize {
        let word = self.outlier_bits[index / 64] & ((1u64 << (index % 64)) - 1);
        (self.outlier_rank[index / 64] + word.count_ones()) as usize
    }

    /// MXScale byte and permutation entries of micro-block `index`, which
    /// must carry outliers.
    #[inline(always)]
    fn outlier_meta(&self, index: usize) -> (u8, &[PermEntry]) {
        debug_assert!(
            self.has_outliers(index),
            "micro-block {index} has no outliers"
        );
        let r = self.outlier_row(index);
        let entries =
            &self.perm_entries[self.perm_start[r] as usize..self.perm_start[r + 1] as usize];
        (self.mxscales[r], entries)
    }

    /// Number of outlier-bearing micro-blocks.
    fn outlier_count(&self) -> usize {
        self.mxscales.len()
    }
}

/// A complete packed layer.
#[derive(Debug, Clone)]
pub struct PackedLayer {
    axis: GroupAxis,
    d_row: usize,
    d_col: usize,
    inlier_bits: u32,
    micro_block: usize,
    macro_block: usize,
    /// Geometry derived from the fields above, kept so that finding a
    /// group's codes and outlier bits costs no division on the kernel
    /// path; excluded from equality.
    line_len: usize,
    groups_per_line: usize,
    micro_blocks_per_line: usize,
    micro_blocks_per_group: usize,
    store: Store,
    /// Lazily computed content fingerprint (see
    /// [`PackedLayer::content_fingerprint`]); excluded from equality.
    fingerprint: OnceLock<u64>,
}

impl PartialEq for PackedLayer {
    fn eq(&self, other: &Self) -> bool {
        self.axis == other.axis
            && self.d_row == other.d_row
            && self.d_col == other.d_col
            && self.inlier_bits == other.inlier_bits
            && self.micro_block == other.micro_block
            && self.macro_block == other.macro_block
            && self.store == other.store
    }
}

impl PackedLayer {
    /// A layer with the given geometry and no contents yet. The
    /// macro-block must be a positive multiple of the micro-block.
    fn empty(
        axis: GroupAxis,
        d_row: usize,
        d_col: usize,
        inlier_bits: u32,
        micro_block: usize,
        macro_block: usize,
    ) -> Self {
        let line_len = match axis {
            GroupAxis::DotProduct => d_col,
            GroupAxis::OutputChannel => d_row,
        };
        Self {
            axis,
            d_row,
            d_col,
            inlier_bits,
            micro_block,
            macro_block,
            line_len,
            groups_per_line: line_len.div_ceil(macro_block),
            micro_blocks_per_line: line_len.div_ceil(micro_block),
            micro_blocks_per_group: macro_block / micro_block,
            store: Store::default(),
            fingerprint: OnceLock::new(),
        }
    }

    /// Grouping axis.
    pub fn axis(&self) -> GroupAxis {
        self.axis
    }

    /// Output-channel count.
    pub fn d_row(&self) -> usize {
        self.d_row
    }

    /// Input-feature count.
    pub fn d_col(&self) -> usize {
        self.d_col
    }

    /// Per-element bit budget `bb`.
    pub fn inlier_bits(&self) -> u32 {
        self.inlier_bits
    }

    /// Micro-block size.
    pub fn micro_block(&self) -> usize {
        self.micro_block
    }

    /// Macro-block size.
    pub fn macro_block(&self) -> usize {
        self.macro_block
    }

    /// The outlier element format implied by `bb` (e1m2 at 2-bit budget,
    /// e3m4 at 4-bit).
    pub fn outlier_format(&self) -> TinyFloat {
        TinyFloat::for_outlier_bits(self.inlier_bits * 2)
    }

    /// Micro-blocks in the layer. Macro-blocks are whole multiples of the
    /// micro-block, so only a line's last micro-block can be short.
    fn micro_block_total(&self) -> usize {
        self.lines() * self.micro_blocks_per_line
    }

    /// Fraction of micro-blocks carrying outlier metadata (kernel dispatch
    /// keys on it per GEMM call; the count is kept, not re-walked).
    pub fn outlier_micro_block_fraction(&self) -> f64 {
        let total = self.micro_block_total();
        if total == 0 {
            0.0
        } else {
            self.store.outlier_count() as f64 / total as f64
        }
    }

    /// Permutation-list plus MXScale bits an outlier-bearing micro-block
    /// adds (Eq. 4).
    fn outlier_overhead_bits(&self) -> f64 {
        let loc_bits = (self.micro_block as u32).ilog2() as f64;
        (self.micro_block as f64 / 2.0) * 2.0 * loc_bits + 8.0
    }

    /// Effective bit width per Eq. 4: micro-blocks without outliers cost
    /// `bb` bits/element; outlier-bearing blocks add the permutation list
    /// and the 8-bit MXScale. The shared `Isf` and the 1-bit identifier
    /// are excluded, as in the paper.
    pub fn effective_bit_width(&self) -> f64 {
        // Every term is a small integer, so the sums are exact in f64 and
        // equal the per-micro-block running sum.
        let bb = self.inlier_bits as f64;
        let elems = self.store.codes.len();
        if elems == 0 {
            return bb;
        }
        let bits =
            bb * elems as f64 + self.store.outlier_count() as f64 * self.outlier_overhead_bits();
        bits / elems as f64
    }

    /// Effective bit width including every stored bit (Isf amortized over
    /// the macro-block and the 1-bit identifier) — the "honest" variant the
    /// paper argues contributes only 0.05–0.09 extra bits.
    pub fn effective_bit_width_exact(&self) -> f64 {
        let elems = self.store.codes.len();
        if elems == 0 {
            return self.inlier_bits as f64;
        }
        let bits = 8.0 * self.num_groups() as f64
            + self.micro_block_total() as f64
            + self.inlier_bits as f64 * elems as f64
            + self.store.outlier_count() as f64 * self.outlier_overhead_bits();
        bits / elems as f64
    }

    /// Number of lines the grouping axis walks: rows for
    /// [`GroupAxis::DotProduct`], columns for [`GroupAxis::OutputChannel`].
    pub fn lines(&self) -> usize {
        match self.axis {
            GroupAxis::DotProduct => self.d_row,
            GroupAxis::OutputChannel => self.d_col,
        }
    }

    /// Elements per line along the grouping axis.
    pub fn line_len(&self) -> usize {
        self.line_len
    }

    /// Macro-block groups per line.
    pub fn groups_per_line(&self) -> usize {
        self.groups_per_line
    }

    /// Number of macro-block groups.
    pub fn num_groups(&self) -> usize {
        self.lines() * self.groups_per_line()
    }

    /// Placement of group `g` within the weight matrix: the line it lives
    /// on, its starting element offset within that line, and its element
    /// count. Runtimes use this to walk packed blocks without materializing
    /// the dense matrix.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn group_span(&self, g: usize) -> GroupSpan {
        assert!(g < self.num_groups(), "group index out of range");
        self.span_at(g / self.groups_per_line, g % self.groups_per_line)
    }

    /// Placement of the group at macro-block position `mab` of `line`.
    #[inline]
    fn span_at(&self, line: usize, mab: usize) -> GroupSpan {
        let offset = mab * self.macro_block;
        let len = (self.line_len - offset).min(self.macro_block);
        GroupSpan { line, offset, len }
    }

    /// Content fingerprint: a 64-bit hash of the geometry, every group's
    /// scale bytes and permutation words, and every slot code — any
    /// content change changes the fingerprint, and equal content hashes
    /// equally, so it is a sound content-addressed cache key (runtimes key
    /// decoded-block caches on it). Computed once and memoized; the memo
    /// is ignored by `PartialEq`/serialization.
    pub fn content_fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            let mut mix64 = |w: u64| {
                h = (h ^ w).wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(27);
            };
            for v in [
                self.d_row as u64,
                self.d_col as u64,
                self.inlier_bits as u64,
                ((self.micro_block as u64) << 32) | self.macro_block as u64,
                self.num_groups() as u64,
            ] {
                mix64(v);
            }
            for view in self.iter_groups() {
                mix64(self.store.scales[view.index] as u64);
                for i in 0..view.micro_block_count() {
                    if let Some((mxscale, entries)) = view.outliers(i) {
                        mix64(((mxscale as u64) << 56) ^ perm_word(entries, self.micro_block));
                    }
                    let mut chunks = view.micro_block_codes(i).chunks_exact(8);
                    for c in &mut chunks {
                        mix64(u64::from_le_bytes(c.try_into().expect("chunk of 8")));
                    }
                    // Remainder bytes fold at 9-bit stride: the 0x100
                    // marker per byte keeps [2,5] and [3,5] (and any
                    // length/value confusion) distinct.
                    let mut tail = 0u64;
                    for &b in chunks.remainder() {
                        tail = (tail << 9) | (0x100 | b as u64);
                    }
                    if tail != 0 {
                        mix64(tail);
                    }
                }
            }
            // Final avalanche so nearby inputs spread across the key space.
            h ^= h >> 31;
            h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h ^ (h >> 29)
        })
    }

    /// Reassembles one outlier's exact value from its Upper/Lower
    /// sign-magnitude halves: the merged mantissa under the block's
    /// MXScale (stored byte), with the shared `Isf` divided back out
    /// (§4.2). Shared by every decode path so outliers always reconstruct
    /// identically.
    #[inline(always)]
    fn outlier_value(&self, mxscale: u8, isf: Pow2Scale, up: u8, lo: u8) -> f64 {
        let bb = self.inlier_bits;
        let fmt = self.outlier_format();
        let mb_bits = fmt.mantissa_bits();
        // Dequantized outlier exponent: MXScale total − Isf (§4.2).
        let exp = MxScale::from_byte(mxscale, fmt).total_exponent() - isf.exponent();
        let upper = unpack_sign_mag(up, bb);
        let lower = unpack_sign_mag(lo, bb);
        // The sign is duplicated into both halves; read it from the
        // Upper slot's raw sign bit.
        let sign = (up >> (bb - 1)) & 1 == 1;
        let mantissa = (upper.unsigned_abs() << (mb_bits / 2)) | lower.unsigned_abs();
        // (1 + m / 2^mb) · 2^exp, as the integer 2^mb + m times 2^(exp − mb):
        // both forms are exact, so they are the same f64, and this one needs
        // neither a division nor `exp2`. |exp| ≤ 127 + 64 (the Isf and
        // MXScale field ranges), so the power of two is a normal f64 built
        // from its exponent field.
        let e = exp - mb_bits as i32;
        debug_assert!(e.abs() < 1000, "outlier exponent {e}");
        let mag =
            (fmt.mantissa_levels() + mantissa) as f64 * f64::from_bits(((e + 1023) as u64) << 52);
        if sign {
            -mag
        } else {
            mag
        }
    }

    /// Decodes every slot of group `g` into `out` (at least
    /// [`GroupSpan::len`] elements), in line order. Inlier slots decode as
    /// two's complement × `2^Isf`; outlier-bearing micro-blocks reassemble
    /// the Upper/Lower sign-magnitude halves through the permutation list
    /// and zero the pruned host slots.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range or `out` is too short.
    pub fn decode_group_into(&self, g: usize, out: &mut [f64]) {
        let view = self.group(g);
        let isf = view.isf();
        let shift = 8 - self.inlier_bits;
        assert!(out.len() >= view.codes.len(), "decode buffer too small");
        for (o, &c) in out.iter_mut().zip(view.codes) {
            // Default: inlier two's-complement decode.
            let signed = ((c << shift) as i8 >> shift) as i32;
            *o = isf.unapply(signed as f64);
        }
        if !view.has_outliers() {
            return;
        }
        for i in 0..view.micro_block_count() {
            if let Some((mxscale, entries)) = view.outliers(i) {
                let base = i * self.micro_block;
                let codes = view.micro_block_codes(i);
                for e in entries {
                    let (up, lo) = (e.upper_loc as usize, e.lower_loc as usize);
                    out[base + up] = self.outlier_value(mxscale, isf, codes[up], codes[lo]);
                    out[base + lo] = 0.0; // pruned slot
                }
            }
        }
    }

    /// Borrowed view of group `g`: placement, scale, its slice of the
    /// code array, and allocation-free decode entry points for kernels
    /// that walk packed blocks directly.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    #[inline]
    pub fn group(&self, g: usize) -> GroupView<'_> {
        assert!(g < self.num_groups(), "group index out of range");
        self.group_at(g / self.groups_per_line, g % self.groups_per_line)
    }

    /// Borrowed view of the group at macro-block position `mab` of line
    /// `line` — group `line · groups_per_line() + mab`, without the
    /// division [`Self::group`] needs to split that index.
    ///
    /// # Panics
    ///
    /// Panics if `line` or `mab` is out of range.
    #[inline]
    pub fn group_at(&self, line: usize, mab: usize) -> GroupView<'_> {
        assert!(
            line < self.lines() && mab < self.groups_per_line,
            "group index out of range"
        );
        let span = self.span_at(line, mab);
        let (offset, len) = (span.offset, span.len);
        let start = line * self.line_len + offset;
        let first_mb = line * self.micro_blocks_per_line + mab * self.micro_blocks_per_group;
        let micro_blocks = if len == self.macro_block {
            self.micro_blocks_per_group
        } else {
            len.div_ceil(self.micro_block)
        };
        GroupView {
            layer: self,
            index: line * self.groups_per_line + mab,
            span,
            codes: &self.store.codes[start..start + len],
            first_mb,
            micro_blocks,
            outlier_mask: self.store.outlier_window(first_mb, micro_blocks),
        }
    }

    /// Iterates borrowed views over every group in layout order.
    pub fn iter_groups(&self) -> impl ExactSizeIterator<Item = GroupView<'_>> + '_ {
        (0..self.num_groups()).map(move |g| self.group(g))
    }

    /// Reconstructs the full dequantized weight matrix.
    pub fn dequantize(&self) -> Matrix {
        let mut w = Matrix::zeros(self.d_row, self.d_col);
        let mut buf = vec![0.0; self.macro_block];
        for (g, span) in (0..self.num_groups()).map(|g| (g, self.group_span(g))) {
            self.decode_group_into(g, &mut buf);
            for (i, &v) in buf[..span.len].iter().enumerate() {
                match self.axis {
                    GroupAxis::DotProduct => w[(span.line, span.offset + i)] = v,
                    GroupAxis::OutputChannel => w[(span.offset + i, span.line)] = v,
                }
            }
        }
        w
    }

    /// Bytes of the byte-padded permutation payload (3 at `B_μ = 8`).
    fn perm_payload_bytes(micro_block: usize) -> usize {
        let loc_bits = (micro_block as u32).ilog2();
        ((micro_block as u32 / 2) * 2 * loc_bits).div_ceil(8) as usize
    }

    /// Serializes to the byte layout of Fig. 5 (weights + hardware-managed
    /// metadata).
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u8(match self.axis {
            GroupAxis::DotProduct => 0,
            GroupAxis::OutputChannel => 1,
        });
        buf.put_u8(self.inlier_bits as u8);
        buf.put_u16(self.micro_block as u16);
        buf.put_u16(self.macro_block as u16);
        buf.put_u32(self.d_row as u32);
        buf.put_u32(self.d_col as u32);
        buf.put_u32(self.num_groups() as u32);
        let payload_bytes = Self::perm_payload_bytes(self.micro_block);
        for view in self.iter_groups() {
            buf.put_u8(self.store.scales[view.index]);
            buf.put_u16(view.micro_block_count() as u16);
            for i in 0..view.micro_block_count() {
                let codes = view.micro_block_codes(i);
                buf.put_u8(codes.len() as u8);
                match view.outliers(i) {
                    None => buf.put_u8(0),
                    Some((mxscale, entries)) => {
                        buf.put_u8(1 | ((entries.len() as u8) << 4));
                        buf.put_u8(mxscale);
                        // Permutation payload: Bμ/2 entries × 2·log2(Bμ)
                        // bits, byte-padded (3 bytes at Bμ = 8).
                        let payload = perm_word(entries, self.micro_block) & ((1 << 56) - 1);
                        for b in 0..payload_bytes {
                            buf.put_u8((payload >> (8 * b)) as u8);
                        }
                    }
                }
                // Slot codes, bb bits each, packed little-endian into bytes.
                let mut acc = 0u32;
                let mut nbits = 0u32;
                for &c in codes {
                    acc |= ((c as u32) & ((1 << self.inlier_bits) - 1)) << nbits;
                    nbits += self.inlier_bits;
                    while nbits >= 8 {
                        buf.put_u8(acc as u8);
                        acc >>= 8;
                        nbits -= 8;
                    }
                }
                if nbits > 0 {
                    buf.put_u8(acc as u8);
                }
            }
        }
        buf.freeze()
    }

    /// Deserializes from [`PackedLayer::to_bytes`] output, validating all
    /// structural metadata.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::CorruptMetadata`] on truncation, bad magic,
    /// or out-of-range fields.
    pub fn from_bytes(data: &[u8]) -> Result<Self, QuantError> {
        let corrupt = |offset: usize, reason: &str| QuantError::CorruptMetadata {
            offset,
            reason: reason.to_string(),
        };
        let mut buf = data;
        let total = data.len();
        let off = |buf: &[u8]| total - buf.len();
        if buf.remaining() < 23 {
            return Err(corrupt(0, "truncated header"));
        }
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(corrupt(0, "bad magic"));
        }
        if buf.get_u8() != VERSION {
            return Err(corrupt(4, "unsupported version"));
        }
        let axis = match buf.get_u8() {
            0 => GroupAxis::DotProduct,
            1 => GroupAxis::OutputChannel,
            _ => return Err(corrupt(5, "bad axis")),
        };
        let inlier_bits = buf.get_u8() as u32;
        if inlier_bits != 2 && inlier_bits != 4 {
            return Err(corrupt(6, "bad inlier bits"));
        }
        let micro_block = buf.get_u16() as usize;
        let macro_block = buf.get_u16() as usize;
        if micro_block < 2
            || !micro_block.is_power_of_two()
            || !macro_block.is_multiple_of(micro_block)
        {
            return Err(corrupt(7, "bad block geometry"));
        }
        let d_row = buf.get_u32() as usize;
        let d_col = buf.get_u32() as usize;
        let n_groups = buf.get_u32() as usize;
        let mut layer = Self::empty(axis, d_row, d_col, inlier_bits, micro_block, macro_block);
        // The geometry fixes every group's and micro-block's length, so a
        // count that disagrees is corrupt — and the arrays are sized from
        // the geometry only once the payload could hold it.
        if n_groups != layer.num_groups() {
            return Err(corrupt(total, "group count does not tile tensor"));
        }
        let slots = d_row * d_col;
        if slots.saturating_mul(inlier_bits as usize) / 8 > buf.remaining() {
            return Err(corrupt(off(buf), "truncated slot codes"));
        }
        let payload_bytes = Self::perm_payload_bytes(micro_block);
        let mut store = Store::zeroed(slots, n_groups, layer.micro_block_total());
        let mut codes = Vec::with_capacity(micro_block);
        // Groups arrive in layout order, so micro-blocks and their codes
        // do too.
        let (mut index, mut start) = (0, 0);
        for g in 0..n_groups {
            if buf.remaining() < 3 {
                return Err(corrupt(off(buf), "truncated group header"));
            }
            let mab_len = layer.group_span(g).len;
            store.scales[g] = buf.get_u8();
            if buf.get_u16() as usize != mab_len.div_ceil(micro_block) {
                return Err(corrupt(off(buf), "micro-block count does not tile group"));
            }
            let mut remaining = mab_len;
            while remaining > 0 {
                if buf.remaining() < 2 {
                    return Err(corrupt(off(buf), "truncated micro-block header"));
                }
                let n_codes = buf.get_u8() as usize;
                if n_codes != remaining.min(micro_block) {
                    return Err(corrupt(off(buf), "bad slot count"));
                }
                remaining -= n_codes;
                let flag = buf.get_u8();
                let meta = if flag & 1 == 1 {
                    let count = (flag >> 4) as usize;
                    if count > micro_block / 2 {
                        return Err(corrupt(off(buf), "permutation count exceeds Bμ/2"));
                    }
                    if buf.remaining() < 1 {
                        return Err(corrupt(off(buf), "truncated mxscale"));
                    }
                    let mxscale = buf.get_u8();
                    if buf.remaining() < payload_bytes {
                        return Err(corrupt(off(buf), "truncated permutation list"));
                    }
                    let mut payload = 0u64;
                    for b in 0..payload_bytes {
                        payload |= (buf.get_u8() as u64) << (8 * b);
                    }
                    let perm =
                        PermutationList::from_bits(payload | ((count as u64) << 56), micro_block)?;
                    for e in perm.entries() {
                        if e.upper_loc as usize >= n_codes || e.lower_loc as usize >= n_codes {
                            return Err(corrupt(off(buf), "permutation location out of range"));
                        }
                    }
                    Some((mxscale, perm))
                } else {
                    None
                };
                let code_bytes = (n_codes * inlier_bits as usize).div_ceil(8);
                if buf.remaining() < code_bytes {
                    return Err(corrupt(off(buf), "truncated slot codes"));
                }
                codes.clear();
                let mut acc = 0u32;
                let mut nbits = 0u32;
                for _ in 0..n_codes {
                    if nbits < inlier_bits {
                        acc |= (buf.get_u8() as u32) << nbits;
                        nbits += 8;
                    }
                    codes.push((acc & ((1 << inlier_bits) - 1)) as u8);
                    acc >>= inlier_bits;
                    nbits -= inlier_bits;
                }
                let outliers = meta.as_ref().map(|(b, perm)| (*b, perm.entries()));
                store.put_micro_block(index, start, &codes, outliers);
                index += 1;
                start += n_codes;
            }
        }
        layer.store = store.finish();
        Ok(layer)
    }
}

/// Builds a [`PackedLayer`] in its in-memory layout: the flat arrays are
/// sized once from the geometry, and each group's scale, codes and outlier
/// metadata are written in place. Groups may be set in any order (the
/// `DotProduct` solver sets one macro-block position across every line
/// before the next), each exactly once; the outlier side table is put in
/// layout order by [`Self::finish`].
///
/// ```
/// use microscopiq_core::config::GroupAxis;
/// use microscopiq_core::packed::PackedLayerBuilder;
/// use microscopiq_mx::scale::Pow2Scale;
///
/// // One row of 8 two-bit slots: one group of one micro-block.
/// let mut builder = PackedLayerBuilder::new(GroupAxis::DotProduct, 1, 8, 2, 8, 8);
/// let codes = [1, 3, 0, 1, 0, 0, 1, 0];
/// builder.set_group(0, Pow2Scale::new(-3), [(&codes[..], None)]);
/// let layer = builder.finish();
/// assert_eq!(layer.dequantize()[(0, 1)], -0.125);
/// ```
#[derive(Debug)]
pub struct PackedLayerBuilder {
    layer: PackedLayer,
    /// Whether each group has been set.
    set: Vec<bool>,
    /// Micro-block number of each side-table row, in the order written.
    row_micro_blocks: Vec<u32>,
}

impl PackedLayerBuilder {
    /// A builder for a layer of the given geometry, with every group
    /// unset.
    ///
    /// # Panics
    ///
    /// Panics unless the macro-block is a positive multiple of the
    /// micro-block.
    pub fn new(
        axis: GroupAxis,
        d_row: usize,
        d_col: usize,
        inlier_bits: u32,
        micro_block: usize,
        macro_block: usize,
    ) -> Self {
        assert!(
            micro_block > 0 && macro_block > 0 && macro_block.is_multiple_of(micro_block),
            "macro-block must be a whole number of micro-blocks"
        );
        let mut layer =
            PackedLayer::empty(axis, d_row, d_col, inlier_bits, micro_block, macro_block);
        let groups = layer.num_groups();
        layer.store = Store::zeroed(d_row * d_col, groups, layer.micro_block_total());
        Self {
            layer,
            set: vec![false; groups],
            row_micro_blocks: Vec::new(),
        }
    }

    /// Sets group `g` (numbered as in [`PackedLayer::group`]): its shared
    /// inlier scale, and its micro-blocks in slot order, each as its codes
    /// plus, if it carries outliers, its MXScale and permutation entries —
    /// the items [`GroupView::micro_blocks`] yields.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range or already set, if the micro-blocks
    /// do not tile the group (their count or a slot count is wrong), if a
    /// micro-block has more than `B_μ / 2` permutation entries or one that
    /// addresses a slot past its end, or if an MXScale is not in the
    /// layer's outlier format.
    pub fn set_group<'a>(
        &mut self,
        g: usize,
        isf: Pow2Scale,
        micro_blocks: impl IntoIterator<Item = (&'a [u8], Option<(MxScale, &'a [PermEntry])>)>,
    ) {
        let layer = &mut self.layer;
        assert!(g < layer.num_groups(), "group index out of range");
        assert!(!self.set[g], "group {g} set twice");
        self.set[g] = true;
        let (line, mab) = (g / layer.groups_per_line, g % layer.groups_per_line);
        let span = layer.span_at(line, mab);
        let mut start = line * layer.line_len + span.offset;
        let end = start + span.len;
        let first_mb = line * layer.micro_blocks_per_line + mab * layer.micro_blocks_per_group;
        let (micro_block, fmt) = (layer.micro_block, layer.outlier_format());
        layer.store.scales[g] = isf.to_e8m0_byte();
        for (index, (codes, outliers)) in (first_mb..).zip(micro_blocks) {
            let expect = (end - start).min(micro_block);
            assert!(expect > 0, "micro-block count mismatch in group {g}");
            assert_eq!(codes.len(), expect, "slot count mismatch in group {g}");
            let outliers = match outliers {
                None => None,
                Some((mxscale, entries)) => {
                    let byte = mxscale.to_byte();
                    assert_eq!(
                        MxScale::from_byte(byte, fmt),
                        mxscale,
                        "MXScale not in the layer's outlier format in group {g}"
                    );
                    assert!(
                        entries.len() <= micro_block / 2,
                        "more than Bμ/2 permutation entries in group {g}"
                    );
                    for e in entries {
                        assert!(
                            (e.upper_loc.max(e.lower_loc) as usize) < expect,
                            "permutation location out of range in group {g}"
                        );
                    }
                    self.row_micro_blocks.push(index as u32);
                    Some((byte, entries))
                }
            };
            layer.store.put_micro_block(index, start, codes, outliers);
            start += expect;
        }
        assert_eq!(start, end, "micro-block count mismatch in group {g}");
    }

    /// The built layer.
    ///
    /// # Panics
    ///
    /// Panics if a group was never set.
    pub fn finish(self) -> PackedLayer {
        let Self {
            mut layer,
            set,
            row_micro_blocks,
        } = self;
        if let Some(g) = set.iter().position(|&s| !s) {
            panic!("group {g} never set");
        }
        let mut store = std::mem::take(&mut layer.store);
        if !row_micro_blocks.is_sorted() {
            store.sort_side_table(&row_micro_blocks);
        }
        layer.store = store.finish();
        layer
    }
}

/// A borrowed view of one macro-block group: placement, the group's slice
/// of the layer's code array, and decode entry points that write into
/// caller-owned buffers, so kernels walking packed blocks never allocate
/// per group. Micro-block `i` of the group is `codes[i·B_μ ..]` (the
/// group's last one may be short), and its outlier identifier is one bit
/// of the layer's outlier bitmap.
///
/// Obtained from [`PackedLayer::group`] / [`PackedLayer::iter_groups`].
#[derive(Debug, Clone, Copy)]
pub struct GroupView<'a> {
    layer: &'a PackedLayer,
    index: usize,
    span: GroupSpan,
    codes: &'a [u8],
    /// Layout-order number of the group's first micro-block.
    first_mb: usize,
    /// Micro-blocks in the group.
    micro_blocks: usize,
    /// Outlier bits of the group's first 64 micro-blocks (bit `i` is
    /// micro-block `i`), copied out of the layer's bitmap so that the
    /// kernels' per-micro-block test is a shift of a register.
    outlier_mask: u64,
}

impl<'a> GroupView<'a> {
    /// The group's index in layout order.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Placement of the group within the weight matrix.
    #[inline]
    pub fn span(&self) -> GroupSpan {
        self.span
    }

    /// The group's shared inlier scale `2^Isf`.
    #[inline]
    pub fn isf(&self) -> Pow2Scale {
        Pow2Scale::from_e8m0_byte(self.layer.store.scales[self.index])
    }

    /// The raw code bytes of every slot in the group (one byte per slot,
    /// line order).
    #[inline]
    pub fn codes(&self) -> &'a [u8] {
        self.codes
    }

    /// Outlier bits of the group's first 64 micro-blocks: bit `i` is set
    /// iff micro-block `i` carries outlier metadata. Covers the whole group
    /// when [`Self::micro_block_count`] is at most 64.
    #[inline]
    pub fn outlier_mask(&self) -> u64 {
        self.outlier_mask
    }

    /// Whether any micro-block in the group carries outlier metadata.
    #[inline]
    pub fn has_outliers(&self) -> bool {
        self.outlier_mask != 0 || (64..self.micro_blocks).any(|i| self.bit(i))
    }

    /// MXScale byte and permutation entries of micro-block `i` (in
    /// range), if it carries outliers.
    #[inline(always)]
    fn outliers(&self, i: usize) -> Option<(u8, &'a [PermEntry])> {
        let store = &self.layer.store;
        self.bit(i).then(|| store.outlier_meta(self.first_mb + i))
    }

    /// Outlier bit of micro-block `i` (in range).
    #[inline(always)]
    fn bit(&self, i: usize) -> bool {
        if i < 64 {
            self.outlier_mask >> i & 1 == 1
        } else {
            self.layer.store.has_outliers(self.first_mb + i)
        }
    }

    /// Decodes every slot into `out` (at least [`GroupSpan::len`]
    /// elements), exactly like [`PackedLayer::decode_group_into`].
    ///
    /// # Panics
    ///
    /// Panics if `out` is too short.
    pub fn decode_into(&self, out: &mut [f64]) {
        self.layer.decode_group_into(self.index, out);
    }

    /// Decodes the group's **unscaled** inlier codes as `f32` into `out`
    /// (two's-complement integer values; exact in `f32`), writing `0.0`
    /// into outlier host slots and pruned slots, and reports each
    /// outlier's exact `f64` decoded value through `on_outlier(slot,
    /// value)` (slot is group-relative). Multiplying an inlier entry by
    /// `isf().value()` recovers the decoded weight, so a kernel can hoist
    /// the per-group scale out of its inner loop and fix outliers up in
    /// full precision afterwards. Writes every slot, allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than [`GroupSpan::len`].
    pub fn decode_codes_f32(&self, out: &mut [f32], mut on_outlier: impl FnMut(usize, f64)) {
        assert!(out.len() >= self.codes.len(), "decode buffer too small");
        let shift = 8 - self.layer.inlier_bits;
        for (o, &c) in out.iter_mut().zip(self.codes) {
            *o = ((c << shift) as i8 >> shift) as f32;
        }
        if !self.has_outliers() {
            return;
        }
        for i in 0..self.micro_block_count() {
            let base = i * self.layer.micro_block;
            self.fix_outliers(i, &mut out[base..], |slot, v| on_outlier(base + slot, v));
        }
    }

    /// Number of micro-blocks in the group.
    #[inline]
    pub fn micro_block_count(&self) -> usize {
        self.micro_blocks
    }

    /// Iterates `(codes, has_outliers)` over the group's micro-blocks in
    /// slot order: a chunk of the group's code slice and one bit each.
    #[inline]
    pub fn micro_blocks_raw(&self) -> impl Iterator<Item = (&'a [u8], bool)> + '_ {
        self.codes
            .chunks(self.layer.micro_block)
            .enumerate()
            .map(|(i, codes)| (codes, self.bit(i)))
    }

    /// The raw code bytes of micro-block `i` (one byte per slot).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn micro_block_codes(&self, i: usize) -> &'a [u8] {
        let mb = self.layer.micro_block;
        assert!(i * mb < self.codes.len(), "micro-block index out of range");
        &self.codes[i * mb..((i + 1) * mb).min(self.codes.len())]
    }

    /// Whether micro-block `i` carries outlier metadata. When `false`,
    /// every code in [`Self::micro_block_codes`] is a plain two's-complement
    /// inlier — a kernel may decode the bytes directly without consulting
    /// the permutation list.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn micro_block_has_outliers(&self, i: usize) -> bool {
        assert!(i < self.micro_blocks, "micro-block index out of range");
        self.bit(i)
    }

    /// Iterates `(codes, outliers)` over the group's micro-blocks in slot
    /// order, `outliers` being the MXScale and permutation entries of an
    /// outlier-bearing micro-block, borrowed from the layer.
    pub fn micro_blocks(
        &self,
    ) -> impl Iterator<Item = (&'a [u8], Option<(MxScale, &'a [PermEntry])>)> + '_ {
        let fmt = self.layer.outlier_format();
        self.codes
            .chunks(self.layer.micro_block)
            .enumerate()
            .map(move |(i, codes)| {
                let outliers = self.outliers(i);
                (
                    codes,
                    outliers.map(|(b, e)| (MxScale::from_byte(b, fmt), e)),
                )
            })
    }

    /// Zeroes micro-block `i`'s outlier host and pruned slots in `out`
    /// (micro-block-relative) and reports each outlier's exact value.
    #[inline(always)]
    fn fix_outliers(&self, i: usize, out: &mut [f32], mut on_outlier: impl FnMut(usize, f64)) {
        if let Some((mxscale, entries)) = self.outliers(i) {
            let codes = self.micro_block_codes(i);
            let isf = self.isf();
            for e in entries {
                let (up, lo) = (e.upper_loc as usize, e.lower_loc as usize);
                out[up] = 0.0;
                out[lo] = 0.0;
                on_outlier(
                    up,
                    self.layer.outlier_value(mxscale, isf, codes[up], codes[lo]),
                );
            }
        }
    }

    /// Decodes micro-block `i`'s **unscaled** inlier codes as `f32` into
    /// `out`, zeroing outlier host and pruned slots and reporting each
    /// outlier's exact `f64` value through `on_outlier(slot, value)` —
    /// slots are **micro-block-relative**. Walking every micro-block with
    /// this composes to exactly [`Self::decode_codes_f32`] over the group.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `out` is shorter than the
    /// micro-block.
    #[inline(always)]
    pub fn decode_micro_block_codes_f32(
        &self,
        i: usize,
        out: &mut [f32],
        on_outlier: impl FnMut(usize, f64),
    ) {
        let codes = self.micro_block_codes(i);
        assert!(out.len() >= codes.len(), "decode buffer too small");
        let shift = 8 - self.layer.inlier_bits;
        for (o, &c) in out.iter_mut().zip(codes) {
            *o = ((c << shift) as i8 >> shift) as f32;
        }
        self.fix_outliers(i, out, on_outlier);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-bit inlier codes of a micro-block without outliers.
    const PLAIN: [u8; 8] = [0b01, 0b11, 0b00, 0b01, 0b11, 0b00, 0b01, 0b00];
    /// Slot 2 = Upper {s=0, m1=1} → 0b01; slot 5 = Lower {s=0, m0=0} → 0b00.
    const OUTLIER: [u8; 8] = [0b01, 0b11, 0b01, 0b01, 0b11, 0b00, 0b01, 0b00];
    const PAIR: [PermEntry; 1] = [PermEntry {
        upper_loc: 2,
        lower_loc: 5,
    }];

    fn outlier_meta() -> Option<(MxScale, &'static [PermEntry])> {
        Some((MxScale::new(2, 0, TinyFloat::E1M2), &PAIR))
    }

    /// A builder for `lines` rows × 16 cols, macro=16, micro=8, bb=2.
    fn sample_builder(lines: usize) -> PackedLayerBuilder {
        PackedLayerBuilder::new(GroupAxis::DotProduct, lines, 16, 2, 8, 16)
    }

    fn sample_layer() -> PackedLayer {
        let mut b = sample_builder(2);
        let isf = Pow2Scale::new(-3);
        b.set_group(0, isf, [(&OUTLIER[..], outlier_meta()), (&PLAIN, None)]);
        b.set_group(1, isf, [(&PLAIN[..], None), (&PLAIN, None)]);
        b.finish()
    }

    #[test]
    fn ebw_matches_eq4_by_hand() {
        let layer = sample_layer();
        // 4 μBs, 1 with outliers: EBW = (3·2 + 1·6)/4 = 3.0
        // (EBW_O = (24 + 16 + 8)/8 = 6 at bb=2, Bμ=8 — the paper's number).
        assert!((layer.effective_bit_width() - 3.0).abs() < 1e-12);
        assert!((layer.outlier_micro_block_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn exact_ebw_adds_small_overhead() {
        let layer = sample_layer();
        let eq4 = layer.effective_bit_width();
        let exact = layer.effective_bit_width_exact();
        assert!(exact > eq4);
        // Paper: identifier + Isf ≈ 0.05–0.7 extra bits depending on Bμ/BM.
        assert!(exact - eq4 < 1.0, "overhead {}", exact - eq4);
    }

    #[test]
    fn inlier_decode_is_twos_complement_times_scale() {
        let layer = sample_layer();
        let w = layer.dequantize();
        // Group 1 (row 0, cols 8..16) first μB: codes 01,11,00,… at 2^-3:
        // +1→0.125, −1→−0.125, 0→0.
        assert_eq!(w[(0, 8)], 0.125);
        assert_eq!(w[(0, 9)], -0.125);
        assert_eq!(w[(0, 10)], 0.0);
    }

    #[test]
    fn outlier_decode_reconstructs_merged_value() {
        let layer = sample_layer();
        let w = layer.dequantize();
        // μB 0 of row 0: upper at slot 2 {s0,m1=1}, lower at slot 5 {s0,m0=0}
        // → mantissa 10₂, value 1.5 × 2^(total −Isf) = 1.5 × 2^(2−(−3)) = 48.
        assert_eq!(w[(0, 2)], 48.0);
        assert_eq!(w[(0, 5)], 0.0, "pruned slot decodes to zero");
    }

    /// One 256-slot group of 2-slot micro-blocks: 128 micro-blocks, more
    /// than a view's 64-bit outlier mask holds, with outliers on both
    /// sides of that boundary.
    fn wide_group_layer() -> PackedLayer {
        let codes: Vec<[u8; 2]> = (0..128).map(|i| [(i % 4) as u8, 1]).collect();
        let pair = [PermEntry {
            upper_loc: 0,
            lower_loc: 1,
        }];
        let meta = (MxScale::new(1, 0, TinyFloat::E1M2), &pair[..]);
        let mut b = PackedLayerBuilder::new(GroupAxis::DotProduct, 1, 256, 2, 2, 256);
        b.set_group(
            0,
            Pow2Scale::new(-2),
            codes
                .iter()
                .enumerate()
                .map(|(i, c)| (&c[..], [3, 100].contains(&i).then_some(meta))),
        );
        b.finish()
    }

    #[test]
    fn wide_group_outlier_bits_past_the_mask() {
        let layer = wide_group_layer();
        let view = layer.group(0);
        let flagged: Vec<usize> = (0..view.micro_block_count())
            .filter(|&i| view.micro_block_has_outliers(i))
            .collect();
        assert_eq!(flagged, vec![3, 100]);
        assert_eq!(view.outlier_mask(), 1 << 3);
        assert!(view.has_outliers());
        let back = PackedLayer::from_bytes(&layer.to_bytes()).unwrap();
        assert_eq!(back, layer);
        assert_eq!(back.dequantize(), layer.dequantize());
    }

    #[test]
    fn per_micro_block_decode_composes_to_group_decode() {
        let (narrow, wide) = (sample_layer(), wide_group_layer());
        for view in narrow.iter_groups().chain(wide.iter_groups()) {
            let len = view.span().len;
            let mut whole = vec![f32::NAN; len];
            let mut whole_outliers = Vec::new();
            view.decode_codes_f32(&mut whole, |slot, v| whole_outliers.push((slot, v)));

            let mut stitched = vec![f32::NAN; len];
            let mut stitched_outliers = Vec::new();
            let mut base = 0usize;
            for i in 0..view.micro_block_count() {
                let codes = view.micro_block_codes(i);
                let mut buf = vec![f32::NAN; codes.len()];
                view.decode_micro_block_codes_f32(i, &mut buf, |slot, v| {
                    stitched_outliers.push((base + slot, v));
                });
                stitched[base..base + codes.len()].copy_from_slice(&buf);
                if !view.micro_block_has_outliers(i) {
                    // Meta-less blocks must decode byte-for-byte as plain
                    // two's-complement inliers.
                    let bb = 2u32;
                    for (&c, &v) in codes.iter().zip(buf.iter()) {
                        let shift = 8 - bb;
                        assert_eq!(((c << shift) as i8 >> shift) as f32, v);
                    }
                }
                base += codes.len();
            }
            assert_eq!(base, len);
            assert_eq!(whole, stitched);
            assert_eq!(whole_outliers, stitched_outliers);
        }
    }

    #[test]
    fn bytes_roundtrip_preserves_layer() {
        let layer = sample_layer();
        let bytes = layer.to_bytes();
        let back = PackedLayer::from_bytes(&bytes).unwrap();
        assert_eq!(back, layer);
        assert_eq!(back.dequantize(), layer.dequantize());
    }

    #[test]
    fn truncated_bytes_are_rejected() {
        let bytes = sample_layer().to_bytes();
        for cut in [0, 4, 10, bytes.len() / 2, bytes.len() - 1] {
            let err = PackedLayer::from_bytes(&bytes[..cut]);
            assert!(err.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample_layer().to_bytes().to_vec();
        bytes[0] = b'X';
        let err = PackedLayer::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn corrupt_perm_count_is_rejected() {
        let bytes = sample_layer().to_bytes().to_vec();
        // Find the flagged micro-block byte (flag = 1 | count<<4) and bump
        // its count beyond Bμ/2.
        let mut mutated = bytes.clone();
        for i in 23..bytes.len() {
            if bytes[i] == 0x11 {
                mutated[i] = 0x71; // count 7 > 4
                break;
            }
        }
        assert!(PackedLayer::from_bytes(&mutated).is_err());
    }

    #[test]
    fn serialized_size_tracks_ebw() {
        let layer = sample_layer();
        let bytes = layer.to_bytes();
        // 32 weights at ~3 bits ≈ 12 bytes payload + headers; the container
        // must stay within a small constant of the information content.
        assert!(bytes.len() < 80, "serialized {} bytes", bytes.len());
    }

    #[test]
    fn fingerprint_distinguishes_remainder_code_low_bits() {
        // Regression: micro-blocks shorter than 8 slots fold their codes
        // into a tail word; codes [2,5,0,1] and [3,5,0,1] (differing only
        // in the low bit of a non-final byte) must not collide.
        let mk = |c0: u8| {
            let mut b = PackedLayerBuilder::new(GroupAxis::DotProduct, 1, 4, 2, 4, 4);
            b.set_group(0, Pow2Scale::new(-3), [(&[c0, 1, 0, 1][..], None)]);
            b.finish()
        };
        assert_ne!(mk(2).content_fingerprint(), mk(3).content_fingerprint());
        assert_eq!(mk(2).content_fingerprint(), mk(2).content_fingerprint());
    }

    #[test]
    fn fingerprint_survives_byte_roundtrip_and_ignores_memo() {
        let layer = sample_layer();
        let back = PackedLayer::from_bytes(&layer.to_bytes()).unwrap();
        // Equality ignores the memo cell; fingerprints agree on content.
        assert_eq!(back, layer);
        assert_eq!(back.content_fingerprint(), layer.content_fingerprint());
    }

    #[test]
    fn group_view_codes_plus_scale_reconstruct_decode() {
        // plane × isf + exact outlier fixups == decode_group_into, slot
        // for slot — the contract the lane-blocked kernels build on.
        let layer = sample_layer();
        let mut reference = vec![0.0_f64; layer.macro_block()];
        let mut plane = vec![0.0_f32; layer.macro_block()];
        for view in layer.iter_groups() {
            let span = view.span();
            view.decode_into(&mut reference);
            let mut outliers: Vec<(usize, f64)> = Vec::new();
            view.decode_codes_f32(&mut plane, |slot, v| outliers.push((slot, v)));
            let scale = view.isf().value();
            let mut rebuilt: Vec<f64> = plane[..span.len]
                .iter()
                .map(|&c| c as f64 * scale)
                .collect();
            for &(slot, v) in &outliers {
                rebuilt[slot] = v;
            }
            assert_eq!(rebuilt, &reference[..span.len], "group {}", view.index());
            assert_eq!(view.has_outliers(), !outliers.is_empty());
            assert_eq!(view.span(), layer.group_span(view.index()));
        }
    }

    #[test]
    fn outlier_fraction_is_memoized_and_correct() {
        let layer = sample_layer();
        // 4 micro-blocks, 1 with outliers.
        assert!((layer.outlier_micro_block_fraction() - 0.25).abs() < 1e-12);
        // Second call hits the memo (same value; exercises the OnceLock path).
        assert!((layer.outlier_micro_block_fraction() - 0.25).abs() < 1e-12);
        let back = PackedLayer::from_bytes(&layer.to_bytes()).unwrap();
        assert!((back.outlier_micro_block_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn output_channel_axis_roundtrip() {
        // 16 rows × 1 col, grouped along output channels.
        let mut b = PackedLayerBuilder::new(GroupAxis::OutputChannel, 16, 1, 2, 8, 16);
        b.set_group(
            0,
            Pow2Scale::new(-2),
            [
                (&[1, 0, 3, 1, 0, 0, 1, 3][..], None),
                (&[0, 1, 0, 0, 1, 0, 0, 0], None),
            ],
        );
        let layer = b.finish();
        let w = layer.dequantize();
        assert_eq!(w.rows(), 16);
        assert_eq!(w.cols(), 1);
        assert_eq!(w[(0, 0)], 0.25); // code 1 × 2^-2
        assert_eq!(w[(2, 0)], -0.25); // code 3 = −1 in 2-bit two's complement
        let back = PackedLayer::from_bytes(&layer.to_bytes()).unwrap();
        assert_eq!(back, layer);
    }

    #[test]
    fn builder_accepts_groups_in_any_order() {
        // Three rows of two groups, outliers in four of them: every order
        // of setting the groups builds the same layer, with the side table
        // in layout order (as `from_bytes` reads it back).
        let isf = |g: usize| Pow2Scale::new(-(g as i32) - 1);
        let first = |g: usize| if g == 3 { None } else { outlier_meta() };
        let second = |g: usize| {
            if g.is_multiple_of(2) {
                outlier_meta()
            } else {
                None
            }
        };
        let build = |order: &[usize]| {
            let mut b = PackedLayerBuilder::new(GroupAxis::DotProduct, 3, 32, 2, 8, 16);
            for &g in order {
                b.set_group(g, isf(g), [(&OUTLIER[..], first(g)), (&OUTLIER, second(g))]);
            }
            b.finish()
        };
        let in_order = build(&[0, 1, 2, 3, 4, 5]);
        assert_eq!(
            PackedLayer::from_bytes(&in_order.to_bytes()).unwrap(),
            in_order
        );
        // Macro-block-outer, as the DotProduct solver sets them, and reversed.
        for order in [[0, 2, 4, 1, 3, 5], [5, 4, 3, 2, 1, 0]] {
            let layer = build(&order);
            assert_eq!(layer, in_order, "order {order:?}");
            assert_eq!(layer.to_bytes(), in_order.to_bytes());
            assert_eq!(layer.content_fingerprint(), in_order.content_fingerprint());
        }
    }

    #[test]
    #[should_panic(expected = "group 1 set twice")]
    fn builder_rejects_a_group_set_twice() {
        let mut b = sample_builder(2);
        for g in [0, 1, 1] {
            b.set_group(g, Pow2Scale::one(), [(&PLAIN[..], None), (&PLAIN, None)]);
        }
    }

    #[test]
    #[should_panic(expected = "group 1 never set")]
    fn builder_rejects_a_group_never_set() {
        let mut b = sample_builder(2);
        b.set_group(0, Pow2Scale::one(), [(&PLAIN[..], None), (&PLAIN, None)]);
        b.finish();
    }

    #[test]
    #[should_panic(expected = "slot count mismatch in group 0")]
    fn builder_rejects_a_wrong_slot_count() {
        let mut b = sample_builder(1);
        b.set_group(
            0,
            Pow2Scale::one(),
            [(&PLAIN[..], None), (&PLAIN[..7], None)],
        );
    }

    #[test]
    #[should_panic(expected = "micro-block count mismatch in group 0")]
    fn builder_rejects_a_missing_micro_block() {
        let mut b = sample_builder(1);
        b.set_group(0, Pow2Scale::one(), [(&PLAIN[..], None)]);
    }

    #[test]
    #[should_panic(expected = "permutation location out of range in group 0")]
    fn builder_rejects_a_permutation_entry_out_of_range() {
        let past_end = [PermEntry {
            upper_loc: 2,
            lower_loc: 8,
        }];
        let meta = Some((MxScale::new(2, 0, TinyFloat::E1M2), &past_end[..]));
        let mut b = sample_builder(1);
        b.set_group(0, Pow2Scale::one(), [(&OUTLIER[..], meta), (&PLAIN, None)]);
    }
}
