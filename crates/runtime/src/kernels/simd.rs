//! The explicit `std::arch` SIMD kernel: AVX2+FMA on `x86_64`, selected
//! by **runtime feature detection** so one binary runs everywhere and
//! only fast hosts run the fast path. Other architectures have no body:
//! there [`SimdKernel::try_new`] returns `None` and the fast tier serves
//! the portable `lane-f32` kernel.
//!
//! Strategy — the same shape as the lane kernel (stack-resident planes,
//! hoisted per-group scale, exact `f64` outlier fixups), but with the
//! decode *fused into the SIMD registers*: 8 code bytes load with one
//! `movq`, widen to 32-bit lanes, sign-extend by a left/right shift pair
//! (`8 − bb` bits — the same trick the scalar decode uses, vectorized),
//! convert to `f32`, and feed an FMA against the activation lanes. On the
//! GEMV path no decoded plane is ever materialized for meta-less
//! micro-blocks: codes go from packed bytes to partial sums in registers,
//! which is what closes the gap to the paper's PE datapath.
//!
//! The AVX2 GEMM decodes the groups of up to four consecutive output lines
//! at one macro-block position into stack planes, then streams each
//! activation row past all of them: one 8-wide activation load feeds four
//! independent FMA chains, as the paper's weight-stationary array streams
//! one activation past many resident weights. The `n % 8` trailing
//! columns run as one masked 8-wide block (`vmaskmovps`) instead of a
//! scalar strided loop, with separate mul and add so they round exactly
//! as the scalar loop did — the output is bit-for-bit the one-line,
//! scalar-tail body's, which a test keeps as the oracle.
//!
//! Construction is fallible: [`SimdKernel::try_new`] returns `None` when
//! the host lacks the features (or when `MICROSCOPIQ_SIMD=off` force-
//! disables it), so an instance *proves* detection passed and the
//! `unsafe` `#[target_feature]` calls are sound.
//!
//! Supported layout, as for the lane kernel: `DotProduct` groups of at
//! most [`MAX_GROUP`](super::MAX_GROUP) slots, asserted on entry. The
//! AVX2 module is one GEMM and one GEMV body over that layout.
//!
//! Numerics match the lane kernel: `f32` inlier accumulation under
//! [`Tolerance::Rel`], exact `f64` outliers.

use super::{assert_f32_layout, KernelCtx, MicroKernel, Tolerance};
use microscopiq_core::packed::PackedLayer;
use microscopiq_linalg::Matrix;

/// Name of the explicit SIMD kernel.
pub const SIMD_KERNEL: &str = "simd-f32";

/// Which instruction set the kernel was validated for at construction.
/// Uninhabited on architectures with no SIMD path, so the kernel cannot
/// be built there.
#[derive(Debug, Clone, Copy)]
enum Isa {
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
}

/// Whether the value of `MICROSCOPIQ_SIMD` disables the SIMD kernel.
/// Pure so tests can exercise the parsing without mutating the process
/// environment.
pub(crate) fn env_disables(value: Option<&str>) -> bool {
    matches!(
        value.map(str::trim).map(str::to_ascii_lowercase).as_deref(),
        Some("off" | "0" | "false" | "no")
    )
}

/// The CPU features bench reports and the `microscopiq_cpu_feature`
/// metric track, with whether this host has each: AVX2 and FMA, which the
/// SIMD kernel needs, and NEON, which no kernel uses but which stays in
/// the list so reports from every machine carry the same flags.
pub fn detected_cpu_features() -> Vec<(&'static str, bool)> {
    #[cfg(target_arch = "x86_64")]
    {
        vec![
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("neon", false),
        ]
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON is baseline on aarch64.
        vec![("avx2", false), ("fma", false), ("neon", true)]
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        vec![("avx2", false), ("fma", false), ("neon", false)]
    }
}

/// The explicit SIMD kernel. Any instance proves runtime feature
/// detection passed — there is no public constructor that skips it.
#[derive(Debug, Clone, Copy)]
pub struct SimdKernel {
    isa: Isa,
}

impl SimdKernel {
    /// The kernel, iff the host supports a SIMD path and
    /// `MICROSCOPIQ_SIMD` does not force-disable it.
    pub fn try_new() -> Option<&'static Self> {
        if env_disables(std::env::var("MICROSCOPIQ_SIMD").ok().as_deref()) {
            return None;
        }
        Self::detect()
    }

    fn detect() -> Option<&'static Self> {
        #[cfg(target_arch = "x86_64")]
        {
            static AVX2_FMA: SimdKernel = SimdKernel { isa: Isa::Avx2Fma };
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return Some(&AVX2_FMA);
            }
        }
        None
    }

    /// Human-readable name of the instruction set in use.
    pub fn isa_name(&self) -> &'static str {
        match self.isa {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2Fma => "avx2+fma",
        }
    }
}

// Without an AVX2 body the kernel is uninhabited and its entry points
// match on nothing, leaving their arguments unread.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
impl MicroKernel for SimdKernel {
    fn index(&self) -> usize {
        3
    }

    fn tolerance(&self) -> Tolerance {
        // Same numerics class as the lane kernel: f32 inlier accumulation,
        // exact f64 outliers.
        Tolerance::Rel(1e-3)
    }

    fn wants_f32_acts(&self) -> bool {
        true
    }

    fn gemm_rows(
        &self,
        ctx: &KernelCtx<'_>,
        layer: &PackedLayer,
        acts: &Matrix,
        row_lo: usize,
        row_hi: usize,
        out: &mut [f64],
    ) {
        assert_f32_layout(layer, SIMD_KERNEL);
        let local32: Vec<f32>;
        let acts32: &[f32] = match ctx.acts32 {
            Some(shared) => {
                debug_assert_eq!(shared.len(), acts.as_slice().len(), "acts32 shape");
                shared
            }
            None => {
                local32 = acts.as_slice().iter().map(|&v| v as f32).collect();
                &local32
            }
        };
        match self.isa {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `self` exists only if AVX2+FMA detection passed.
            Isa::Avx2Fma => unsafe { avx2::gemm_rows(layer, acts, acts32, row_lo, row_hi, out) },
        }
    }

    fn gemv_rows(
        &self,
        ctx: &KernelCtx<'_>,
        layer: &PackedLayer,
        x: &[f64],
        row_lo: usize,
        row_hi: usize,
        out: &mut [f64],
    ) {
        assert_f32_layout(layer, SIMD_KERNEL);
        let local32: Vec<f32>;
        let x32: &[f32] = match ctx.acts32 {
            Some(shared) => {
                debug_assert_eq!(shared.len(), x.len(), "acts32 shape");
                shared
            }
            None => {
                local32 = x.iter().map(|&v| v as f32).collect();
                &local32
            }
        };
        match self.isa {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `self` exists only if AVX2+FMA detection passed.
            Isa::Avx2Fma => unsafe { avx2::gemv_rows(layer, x, x32, row_lo, row_hi, out) },
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    #[cfg(test)]
    use super::super::groups_for_rows;
    use super::super::MAX_GROUP;
    use microscopiq_core::packed::{GroupView, PackedLayer};
    use microscopiq_linalg::Matrix;
    use std::arch::x86_64::*;

    /// Decodes one inlier code byte as its two's-complement integer value
    /// at bit width `bb` — the scalar decode of the remainder loops.
    #[inline]
    fn decode_code(c: u8, bb: u32) -> f32 {
        let shift = 8 - bb;
        ((c << shift) as i8 >> shift) as f32
    }

    /// Horizontal sum of the 8 `f32` lanes.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum256(v: __m256) -> f32 {
        let hi = _mm256_extractf128_ps::<1>(v);
        let lo = _mm256_castps256_ps128(v);
        let s = _mm_add_ps(lo, hi);
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps::<1>(s, s));
        _mm_cvtss_f32(s)
    }

    /// Decodes 8 packed code bytes to `f32` lanes: widen `u8 → i32`, then
    /// sign-extend by a `<< (32−bb) >> (32−bb)` shift pair.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn decode8(codes: *const u8, shift: __m128i) -> __m256 {
        let raw = _mm_loadl_epi64(codes as *const __m128i);
        let wide = _mm256_cvtepu8_epi32(raw);
        let ext = _mm256_sra_epi32(_mm256_sll_epi32(wide, shift), shift);
        _mm256_cvtepi32_ps(ext)
    }

    /// Decodes `codes` (plain inliers) into `plane` with SIMD, 8 bytes per
    /// step, and the remainder one at a time.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn decode_inliers(codes: &[u8], bb: u32, shift: __m128i, plane: &mut [f32]) {
        assert!(plane.len() >= codes.len(), "plane too short");
        let mut j = 0usize;
        while j + 8 <= codes.len() {
            let w = decode8(codes.as_ptr().add(j), shift);
            _mm256_storeu_ps(plane.as_mut_ptr().add(j), w);
            j += 8;
        }
        for (k, &c) in codes.iter().enumerate().skip(j) {
            plane[k] = decode_code(c, bb);
        }
    }

    /// Decodes one whole group's unscaled codes into `plane` with SIMD,
    /// routing outlier-bearing micro-blocks through the exact scalar
    /// decode and reporting each outlier's exact value (group-relative
    /// slot) through `on_outlier`. A group without outliers is one run of
    /// the layer's code array and decodes in one pass.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn decode_group_plane(
        view: &GroupView<'_>,
        bb: u32,
        shift: __m128i,
        plane: &mut [f32],
        mut on_outlier: impl FnMut(usize, f64),
    ) {
        if !view.has_outliers() {
            decode_inliers(view.codes(), bb, shift, plane);
            return;
        }
        let mut base = 0usize;
        for (i, (codes, has_outliers)) in view.micro_blocks_raw().enumerate() {
            if has_outliers {
                view.decode_micro_block_codes_f32(i, &mut plane[base..], |slot, v| {
                    on_outlier(base + slot, v);
                });
            } else {
                decode_inliers(codes, bb, shift, &mut plane[base..]);
            }
            base += codes.len();
        }
    }

    /// Accumulates plain inlier `codes` against `x32` (same offset): 16
    /// codes per step over `acc0`/`acc1`, a spare 8-wide block into `acc1`
    /// if `spare_odd` else `acc0`, and the remainder into `tail`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn fma_inliers(
        codes: &[u8],
        x32: &[f32],
        bb: u32,
        shift: __m128i,
        spare_odd: bool,
        acc: &mut [__m256; 2],
        tail: &mut f32,
    ) {
        assert!(x32.len() >= codes.len(), "activation slice too short");
        let mut j = 0usize;
        while j + 16 <= codes.len() {
            let w0 = decode8(codes.as_ptr().add(j), shift);
            let a0 = _mm256_loadu_ps(x32.as_ptr().add(j));
            acc[0] = _mm256_fmadd_ps(w0, a0, acc[0]);
            let w1 = decode8(codes.as_ptr().add(j + 8), shift);
            let a1 = _mm256_loadu_ps(x32.as_ptr().add(j + 8));
            acc[1] = _mm256_fmadd_ps(w1, a1, acc[1]);
            j += 16;
        }
        if j + 8 <= codes.len() {
            let w = decode8(codes.as_ptr().add(j), shift);
            let a = _mm256_loadu_ps(x32.as_ptr().add(j));
            // Constant indices (not `acc[spare_odd as usize]`) keep both
            // accumulators in registers.
            if spare_odd {
                acc[1] = _mm256_fmadd_ps(w, a, acc[1]);
            } else {
                acc[0] = _mm256_fmadd_ps(w, a, acc[0]);
            }
            j += 8;
        }
        for (k, &c) in codes.iter().enumerate().skip(j) {
            *tail += decode_code(c, bb) * x32[k];
        }
    }

    /// [`fma_inliers`] over a whole group of 8-slot micro-blocks, leaving
    /// out micro-block `i` wherever bit `i` of `skip` is set: a left-out
    /// block's FMA result is discarded by a blend, so every accumulator
    /// sees exactly the operations of the per-micro-block walk.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn fma_inliers_skipping(
        codes: &[u8],
        x32: &[f32],
        bb: u32,
        shift: __m128i,
        skip: u64,
        acc: &mut [__m256; 2],
        tail: &mut f32,
    ) {
        assert!(x32.len() >= codes.len(), "activation slice too short");
        // All ones (take the FMA) for a kept micro-block, zero to skip it.
        let keep = |i: usize| _mm256_castsi256_ps(_mm256_set1_epi32((skip >> i & 1) as i32 - 1));
        let mut j = 0usize;
        while j + 16 <= codes.len() {
            let w0 = decode8(codes.as_ptr().add(j), shift);
            let a0 = _mm256_loadu_ps(x32.as_ptr().add(j));
            acc[0] = _mm256_blendv_ps(acc[0], _mm256_fmadd_ps(w0, a0, acc[0]), keep(j / 8));
            let w1 = decode8(codes.as_ptr().add(j + 8), shift);
            let a1 = _mm256_loadu_ps(x32.as_ptr().add(j + 8));
            acc[1] = _mm256_blendv_ps(acc[1], _mm256_fmadd_ps(w1, a1, acc[1]), keep(j / 8 + 1));
            j += 16;
        }
        if j + 8 <= codes.len() {
            let w = decode8(codes.as_ptr().add(j), shift);
            let a = _mm256_loadu_ps(x32.as_ptr().add(j));
            acc[0] = _mm256_blendv_ps(acc[0], _mm256_fmadd_ps(w, a, acc[0]), keep(j / 8));
            j += 8;
        }
        // A short last micro-block (at most the 64th) runs scalar, unless
        // it is left out.
        if j < codes.len() && skip >> (j / 8) & 1 == 0 {
            for (k, &c) in codes.iter().enumerate().skip(j) {
                *tail += decode_code(c, bb) * x32[k];
            }
        }
    }

    /// The GEMV kernel body: for meta-less micro-blocks the codes decode
    /// and FMA entirely in registers — no plane store.
    ///
    /// It iterates line-outer / mab-inner with incrementally computed
    /// spans. Each output element's contributions still arrive in
    /// ascending-mab order — exactly the order [`groups_for_rows`]
    /// produces for that element — so results are
    /// bitwise identical to the generic walk, but the code bytes stream
    /// sequentially, there is no per-group `div`/`mod` span math, and the
    /// FMA stream splits over two accumulators to break the loop-carried
    /// dependency chain.
    ///
    /// Per micro-block, the spare 8-wide block left after the 16-wide
    /// steps alternates between the accumulators by micro-block parity,
    /// so back-to-back micro-blocks don't stall on one FMA chain. With
    /// 8-slot micro-blocks that is exactly the 16-wide walk of the whole
    /// group, so an outlier-free group runs as one pass over its codes.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gemv_rows(
        layer: &PackedLayer,
        x: &[f64],
        x32: &[f32],
        row_lo: usize,
        row_hi: usize,
        out: &mut [f64],
    ) {
        let bb = layer.inlier_bits();
        let shift = _mm_cvtsi32_si128(32 - bb as i32);
        let mut lane_acc = vec![0.0_f32; row_hi - row_lo];
        let mut mb_buf = [0.0_f32; MAX_GROUP];
        let per_line = layer.groups_per_line();
        let line_len = layer.line_len();
        let macro_block = layer.macro_block();
        let whole_groups = layer.micro_block() == 8;
        for line in row_lo..row_hi {
            let r = line - row_lo;
            for mab in 0..per_line {
                let offset = mab * macro_block;
                let view = layer.group_at(line, mab);
                let scale = view.isf().value() as f32;
                let mut acc = [_mm256_setzero_ps(); 2];
                let mut tail = 0.0_f32;
                if whole_groups && view.micro_block_count() <= 64 {
                    // Outlier micro-blocks first, in order: their slots go
                    // to `tail` and their outliers to `out`, as in the walk
                    // below; then one pass over the group's codes that
                    // leaves those micro-blocks out.
                    let skip = view.outlier_mask();
                    let mut rest = skip;
                    while rest != 0 {
                        let i = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        let base = offset + i * 8;
                        let buf = &mut mb_buf[..view.micro_block_codes(i).len()];
                        view.decode_micro_block_codes_f32(i, buf, |slot, v| {
                            out[r] += v * x[base + slot];
                        });
                        for (k, &w) in buf.iter().enumerate() {
                            tail += w * x32[base + k];
                        }
                    }
                    let (codes, x) = (view.codes(), &x32[offset..]);
                    if skip == 0 {
                        fma_inliers(codes, x, bb, shift, false, &mut acc, &mut tail);
                    } else {
                        fma_inliers_skipping(codes, x, bb, shift, skip, &mut acc, &mut tail);
                    }
                } else {
                    let mut base = offset;
                    for (i, (codes, has_outliers)) in view.micro_blocks_raw().enumerate() {
                        if has_outliers {
                            let buf = &mut mb_buf[..codes.len()];
                            view.decode_micro_block_codes_f32(i, buf, |slot, v| {
                                out[r] += v * x[base + slot];
                            });
                            for (k, &w) in buf.iter().enumerate() {
                                tail += w * x32[base + k];
                            }
                        } else {
                            let x = &x32[base..];
                            fma_inliers(codes, x, bb, shift, i & 1 == 1, &mut acc, &mut tail);
                        }
                        base += codes.len();
                    }
                    debug_assert_eq!(base - offset, (line_len - offset).min(macro_block));
                }
                lane_acc[r] += scale * (hsum256(_mm256_add_ps(acc[0], acc[1])) + tail);
            }
        }
        for (o, &l) in out.iter_mut().zip(lane_acc.iter()) {
            *o += l as f64;
        }
    }

    /// Lines decoded per activation pass of the GEMM body: each activation
    /// load feeds this many independent FMA chains.
    const LINES: usize = 4;

    /// The GEMM kernel body. Per macro-block position, the groups of up to
    /// [`LINES`] consecutive output lines decode into stack planes (outlier
    /// fix-ups go straight to `out` in `f64`), then one pass over the
    /// activation rows feeds all of them — see [`lines_pass`].
    ///
    /// Bitwise identical to the one line per pass body with a scalar column
    /// tail (kept as the test oracle `gemm_rows_one_line`): every output
    /// element sees its line's groups in ascending macro-block order, each
    /// through the same operations in the same order.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gemm_rows(
        layer: &PackedLayer,
        acts: &Matrix,
        acts32: &[f32],
        row_lo: usize,
        row_hi: usize,
        out: &mut [f64],
    ) {
        let bb = layer.inlier_bits();
        let shift = _mm_cvtsi32_si128(32 - bb as i32);
        let n = acts.cols();
        let mut lane_acc = vec![0.0_f32; (row_hi - row_lo) * n];
        let mut planes = [[0.0_f32; MAX_GROUP]; LINES];
        let per_line = layer.groups_per_line();
        let line_len = layer.line_len();
        let macro_block = layer.macro_block();
        for mab in 0..per_line {
            let offset = mab * macro_block;
            let len = (line_len - offset).min(macro_block);
            let mut line = row_lo;
            while line < row_hi {
                let lines = (row_hi - line).min(LINES);
                let r0 = line - row_lo;
                let mut scales = [0.0_f32; LINES];
                for (j, (plane, scale)) in
                    planes.iter_mut().zip(&mut scales).take(lines).enumerate()
                {
                    let view = layer.group_at(line + j, mab);
                    debug_assert_eq!((view.span().offset, view.span().len), (offset, len));
                    *scale = view.isf().value() as f32;
                    let orow64 = &mut out[(r0 + j) * n..(r0 + j + 1) * n];
                    decode_group_plane(&view, bb, shift, &mut plane[..len], |slot, v| {
                        let arow = acts.row(offset + slot);
                        for (o, a) in orow64.iter_mut().zip(arow.iter()) {
                            *o += v * a;
                        }
                    });
                }
                let rows = &mut lane_acc[r0 * n..(r0 + lines) * n];
                let (p, s) = (&planes, &scales);
                match lines {
                    4 => lines_pass::<4>(p, s, offset, len, acts32, n, rows),
                    3 => lines_pass::<3>(p, s, offset, len, acts32, n, rows),
                    2 => lines_pass::<2>(p, s, offset, len, acts32, n, rows),
                    _ => lines_pass::<1>(p, s, offset, len, acts32, n, rows),
                }
                line += lines;
            }
        }
        for (o, &l) in out.iter_mut().zip(lane_acc.iter()) {
            *o += l as f64;
        }
    }

    /// One macro-block position's contribution to `R` consecutive output
    /// lines: `rows[j·n + c] += scales[j] × Σ_i planes[j][i] · acts32[(k0 +
    /// i)·n + c]` for `j < R`, `i < len`. Each activation load feeds `R`
    /// accumulators.
    ///
    /// Full 8-column blocks run `acc = fma(w, a, acc)` over ascending `i`
    /// and fold with `fma(scale, acc, o)`. The `n % 8` trailing columns run
    /// as one masked block with separate mul and add — `acc + w·a` and
    /// `o + scale·acc`, each rounded — so they round exactly as the scalar
    /// `acc += w * a; o += scale * acc` of the oracle body.
    ///
    /// # Safety
    ///
    /// The host has AVX2+FMA. (Every address formed is bounded by the
    /// entry assert.)
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn lines_pass<const R: usize>(
        planes: &[[f32; MAX_GROUP]; LINES],
        scales: &[f32; LINES],
        k0: usize,
        len: usize,
        acts32: &[f32],
        n: usize,
        rows: &mut [f32],
    ) {
        // Bounds every raw address below, and lets the compiler drop the
        // plane bounds checks from the loops.
        assert!(
            len <= MAX_GROUP && (k0 + len) * n <= acts32.len() && rows.len() == R * n,
            "lines_pass shape"
        );
        let a0 = acts32.as_ptr().add(k0 * n);
        let o0 = rows.as_mut_ptr();
        let mut c0 = 0usize;
        while c0 + 8 <= n {
            let mut acc = [_mm256_setzero_ps(); R];
            for i in 0..len {
                // SAFETY: row `k0 + i` of the activations, columns
                // `c0..c0 + 8 ≤ n`.
                let a = _mm256_loadu_ps(a0.add(i * n + c0));
                for (acc, plane) in acc.iter_mut().zip(planes) {
                    *acc = _mm256_fmadd_ps(_mm256_set1_ps(plane[i]), a, *acc);
                }
            }
            for (j, &acc) in acc.iter().enumerate() {
                // SAFETY: row `j < R` of `rows`, columns `c0..c0 + 8 ≤ n`.
                let p = o0.add(j * n + c0);
                let sv = _mm256_set1_ps(scales[j]);
                _mm256_storeu_ps(p, _mm256_fmadd_ps(sv, acc, _mm256_loadu_ps(p)));
            }
            c0 += 8;
        }
        if c0 < n {
            // Lane `l` is live iff `l < n − c0` (1..=7 lanes).
            let live = _mm256_set1_epi32((n - c0) as i32);
            let mask = _mm256_cmpgt_epi32(live, _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
            let mut acc = [_mm256_setzero_ps(); R];
            for i in 0..len {
                // SAFETY: the base address is element `c0 < n` of
                // activation row `k0 + i`; the live lanes stop at column
                // `n − 1`. Masked-off lanes are neither read nor able to
                // fault (a masked load touches only the memory its set
                // mask bits select), and they load as 0.
                let a = _mm256_maskload_ps(a0.add(i * n + c0), mask);
                for (acc, plane) in acc.iter_mut().zip(planes) {
                    *acc = _mm256_add_ps(*acc, _mm256_mul_ps(_mm256_set1_ps(plane[i]), a));
                }
            }
            for (j, &acc) in acc.iter().enumerate() {
                // SAFETY: as above, within row `j < R` of `rows`; the
                // masked store writes the live lanes only.
                let p = o0.add(j * n + c0);
                let sa = _mm256_mul_ps(_mm256_set1_ps(scales[j]), acc);
                _mm256_maskstore_ps(p, mask, _mm256_add_ps(_mm256_maskload_ps(p, mask), sa));
            }
        }
    }

    /// One line per activation pass and a scalar column tail: the bitwise
    /// oracle for [`gemm_rows`].
    #[cfg(test)]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gemm_rows_one_line(
        layer: &PackedLayer,
        acts: &Matrix,
        acts32: &[f32],
        row_lo: usize,
        row_hi: usize,
        out: &mut [f64],
    ) {
        let bb = layer.inlier_bits();
        let shift = _mm_cvtsi32_si128(32 - bb as i32);
        let n = acts.cols();
        let mut lane_acc = vec![0.0_f32; (row_hi - row_lo) * n];
        let mut plane = [0.0_f32; MAX_GROUP];
        for g in groups_for_rows(layer, row_lo, row_hi) {
            let view = layer.group(g);
            let span = view.span();
            let scale = view.isf().value() as f32;
            let r = span.line - row_lo;
            {
                let orow64 = &mut out[r * n..(r + 1) * n];
                decode_group_plane(&view, bb, shift, &mut plane[..span.len], |slot, v| {
                    let arow = acts.row(span.offset + slot);
                    for (o, a) in orow64.iter_mut().zip(arow.iter()) {
                        *o += v * a;
                    }
                });
            }
            let sv = _mm256_set1_ps(scale);
            let orow32 = &mut lane_acc[r * n..(r + 1) * n];
            let mut c0 = 0usize;
            while c0 + 8 <= n {
                let mut acc = _mm256_setzero_ps();
                for (i, &w) in plane[..span.len].iter().enumerate() {
                    let a = _mm256_loadu_ps(acts32.as_ptr().add((span.offset + i) * n + c0));
                    acc = _mm256_fmadd_ps(_mm256_set1_ps(w), a, acc);
                }
                let o = _mm256_loadu_ps(orow32.as_ptr().add(c0));
                _mm256_storeu_ps(orow32.as_mut_ptr().add(c0), _mm256_fmadd_ps(sv, acc, o));
                c0 += 8;
            }
            for c in c0..n {
                let mut acc = 0.0_f32;
                for (i, &w) in plane[..span.len].iter().enumerate() {
                    acc += w * acts32[(span.offset + i) * n + c];
                }
                orow32[c] += scale * acc;
            }
        }
        for (o, &l) in out.iter_mut().zip(lane_acc.iter()) {
            *o += l as f64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::synth::{synth_packed, SynthSpec};
    use super::super::{fused_gemm_serial, fused_gemv_serial};
    use super::*;
    use microscopiq_core::config::GroupAxis;
    use microscopiq_linalg::SeededRng;

    #[test]
    fn env_knob_parsing() {
        for v in ["off", "0", "false", "no", " OFF ", "False"] {
            assert!(env_disables(Some(v)), "{v:?} must disable");
        }
        for v in [None, Some(""), Some("on"), Some("1"), Some("auto")] {
            assert!(!env_disables(v), "{v:?} must not disable");
        }
    }

    #[test]
    fn detected_features_report_all_known_flags() {
        let feats = detected_cpu_features();
        let names: Vec<&str> = feats.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, ["avx2", "fma", "neon"]);
    }

    #[test]
    fn simd_matches_oracle_within_pin_when_available() {
        let Some(kernel) = SimdKernel::try_new() else {
            return; // host without a SIMD path: nothing to validate
        };
        assert!(!kernel.isa_name().is_empty());
        for bits in [2u32, 4] {
            for rate in [0.0, 0.1, 0.9] {
                let layer = synth_packed(&SynthSpec {
                    d_row: 48,
                    d_col: 64,
                    bits,
                    outlier_rate: rate,
                    seed: 13,
                    ..SynthSpec::default()
                });
                let mut rng = SeededRng::new(8);
                let acts = Matrix::from_fn(64, 13, |_, _| rng.normal(0.0, 1.0));
                let oracle = fused_gemm_serial(&layer, &acts);
                let mut got = vec![0.0_f64; 48 * 13];
                kernel.gemm_rows(&KernelCtx::uncached(), &layer, &acts, 0, 48, &mut got);
                let tol = kernel.tolerance();
                for (&a, &b) in got.iter().zip(oracle.as_slice().iter()) {
                    assert!(tol.accepts(a, b), "bits={bits} rate={rate}: {a} vs {b}");
                }

                let x: Vec<f64> = (0..64).map(|_| rng.normal(0.0, 1.0)).collect();
                let goracle = fused_gemv_serial(&layer, &x);
                let mut gv = vec![0.0_f64; 48];
                kernel.gemv(&KernelCtx::uncached(), &layer, &x, &mut gv);
                for (&a, &b) in gv.iter().zip(goracle.iter()) {
                    assert!(
                        tol.accepts(a, b),
                        "gemv bits={bits} rate={rate}: {a} vs {b}"
                    );
                }
            }
        }
    }

    /// The four-lines-per-pass GEMM body is bit-for-bit the one-line,
    /// scalar-tail oracle body on every column-tail width, line remainder,
    /// partial tail group and row sub-range.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_gemm_is_bitwise_the_one_line_body() {
        if SimdKernel::try_new().is_none() {
            return; // host without AVX2+FMA: nothing to validate
        }
        // (d_row, d_col, macro_block): d_row not a multiple of 4, partial
        // tail groups (100 = 3·32 + 4, 130 = 2·64 + 2).
        let shapes = [(37, 100, 32), (38, 130, 64), (21, 100, 64), (13, 130, 32)];
        for bits in [2u32, 4] {
            for rate in [0.0, 0.1, 0.9] {
                for (d_row, d_col, macro_block) in shapes {
                    let layer = synth_packed(&SynthSpec {
                        d_row,
                        d_col,
                        bits,
                        macro_block,
                        outlier_rate: rate,
                        seed: 29,
                        ..SynthSpec::default()
                    });
                    let mut rng = SeededRng::new(31);
                    for n in 1..=33 {
                        let acts = Matrix::from_fn(d_col, n, |_, _| rng.normal(0.0, 1.0));
                        let acts32: Vec<f32> = acts.as_slice().iter().map(|&v| v as f32).collect();
                        for (lo, hi) in [(0, d_row), (1, d_row - 2), (3, 10), (5, 6)] {
                            let mut want = vec![0.0_f64; (hi - lo) * n];
                            let mut got = want.clone();
                            // SAFETY: `try_new` succeeding proves AVX2+FMA.
                            unsafe {
                                avx2::gemm_rows_one_line(&layer, &acts, &acts32, lo, hi, &mut want);
                                avx2::gemm_rows(&layer, &acts, &acts32, lo, hi, &mut got);
                            }
                            let bits_of =
                                |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                            assert_eq!(
                                bits_of(&got),
                                bits_of(&want),
                                "bits={bits} rate={rate} shape={d_row}x{d_col}/{macro_block} n={n} rows={lo}..{hi}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn output_channel_calls_panic_when_available() {
        let Some(kernel) = SimdKernel::try_new() else {
            return; // host without a SIMD path: nothing to call
        };
        let layer = synth_packed(&SynthSpec {
            axis: GroupAxis::OutputChannel,
            ..SynthSpec::default()
        });
        let refused = |call: &dyn Fn()| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(call))
                .expect_err("an OutputChannel call must panic");
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(msg.contains("runs DotProduct layers only"), "{msg}");
        };
        let acts = Matrix::zeros(layer.d_col(), 2);
        refused(&|| {
            let mut out = vec![0.0; layer.d_row() * 2];
            kernel.gemm_rows(
                &KernelCtx::uncached(),
                &layer,
                &acts,
                0,
                layer.d_row(),
                &mut out,
            );
        });
        refused(&|| {
            let mut out = vec![0.0; layer.d_row()];
            kernel.gemv(
                &KernelCtx::uncached(),
                &layer,
                &vec![0.0; layer.d_col()],
                &mut out,
            );
        });
    }
}
