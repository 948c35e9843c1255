//! Kernel conformance suite: every registered kernel must match the
//! scalar `f64` oracle within its **pinned** tolerance across a sweep of
//! shapes × bit widths × outlier regimes × batch sizes — and the oracle
//! itself must match the dense `dequantize().matmul(..)` reference bit
//! for bit. A kernel whose pin loosens is an API change; this suite is
//! what holds the pin.
//!
//! The sweeps cover both group axes. `OutputChannel` layers run on the
//! oracle alone — the only kernel that accepts them — so there they
//! check the oracle against dense and its tiles against the full range.
//!
//! Also carries the GEMV edge-case battery: m = 1 with odd reduction
//! lengths (partial tail macro- and micro-blocks), tiles that straddle
//! group boundaries, and outlier-heavy rows — through both the old
//! (scalar) and new (lane-blocked) kernels.

use microscopiq_core::config::GroupAxis;
use microscopiq_linalg::{Matrix, SeededRng};
use microscopiq_runtime::kernels::synth::{synth_packed, SynthSpec};
use microscopiq_runtime::kernels::{
    fused_gemm_serial, fused_gemv_serial, DispatchKey, KernelCtx, KernelRegistry, MicroKernel,
    Tolerance, LANE_KERNEL, SCALAR_KERNEL, SIMD_KERNEL,
};
use microscopiq_runtime::{DecodedCache, EngineConfig, KernelPolicy, RuntimeEngine};

/// The sweep's outlier regimes: none, the paper's ~3% operating point,
/// and outlier-heavy (most micro-blocks carry a pair).
const OUTLIER_REGIMES: [f64; 3] = [0.0, 0.03, 0.6];

fn assert_within(tol: Tolerance, got: &[f64], oracle: &[f64], what: &str) {
    assert_eq!(got.len(), oracle.len(), "{what}: length");
    for (i, (&a, &b)) in got.iter().zip(oracle.iter()).enumerate() {
        assert!(
            tol.accepts(a, b),
            "{what}: element {i} off by {:.3e} (allowed {:.3e})",
            (a - b).abs(),
            tol.allowed(b)
        );
    }
}

/// The kernels a sweep runs on a layer of `axis`: every registered
/// kernel on `DotProduct`, only the oracle on `OutputChannel`.
fn kernels_for(registry: &KernelRegistry, axis: GroupAxis) -> Vec<&dyn MicroKernel> {
    registry
        .kernels()
        .iter()
        .map(|k| k.as_ref())
        .filter(|k| axis == GroupAxis::DotProduct || k.name() == SCALAR_KERNEL)
        .collect()
}

/// Runs one kernel over the full row range (GEMM) or through its GEMV
/// entry (m = 1), with a decoded cache in the context so cache-requiring
/// kernels participate.
fn run_kernel(
    registry: &KernelRegistry,
    name: &str,
    layer: &microscopiq_core::packed::PackedLayer,
    acts: &Matrix,
    cache: &DecodedCache,
    use_gemv: bool,
) -> Vec<f64> {
    let kernel = registry.get(name).expect("registered");
    let ctx = KernelCtx::cached(cache, layer.content_fingerprint());
    if use_gemv {
        let mut out = vec![0.0_f64; layer.d_row()];
        kernel.gemv(&ctx, layer, acts.as_slice(), &mut out);
        out
    } else {
        let mut out = vec![0.0_f64; layer.d_row() * acts.cols()];
        kernel.gemm_rows(&ctx, layer, acts, 0, layer.d_row(), &mut out);
        out
    }
}

#[test]
fn every_registered_kernel_meets_its_pin_across_the_sweep() {
    let registry = KernelRegistry::with_defaults();
    let mut cases = 0usize;
    for axis in [GroupAxis::DotProduct, GroupAxis::OutputChannel] {
        for bits in [2u32, 4] {
            for rate in OUTLIER_REGIMES {
                // (d_row, d_col, macro): aligned, odd-k tail macro-block,
                // and tail micro-block shapes.
                for (d_row, d_col, macro_block) in [(24, 48, 16), (32, 52, 16), (16, 44, 8)] {
                    let layer = synth_packed(&SynthSpec {
                        axis,
                        d_row,
                        d_col,
                        bits,
                        micro: 8,
                        macro_block,
                        outlier_rate: rate,
                        seed: 1000 + cases as u64,
                    });
                    let mut rng = SeededRng::new(2000 + cases as u64);
                    for m in [1usize, 3, 7, 9, 15, 16] {
                        let acts = Matrix::from_fn(d_col, m, |_, _| rng.normal(0.0, 1.0));
                        let oracle = fused_gemm_serial(&layer, &acts);
                        // The oracle's own pin: bitwise against dense.
                        assert_eq!(
                            oracle,
                            layer.dequantize().matmul(&acts),
                            "oracle must stay bit-identical to dense \
                             ({axis:?} bits={bits} rate={rate} m={m})"
                        );
                        let cache = DecodedCache::new(8 << 20);
                        for kernel in kernels_for(&registry, axis) {
                            let what = format!(
                                "{} {axis:?} bits={bits} rate={rate} \
                                 {d_row}x{d_col}/{macro_block} m={m}",
                                kernel.name()
                            );
                            let got =
                                run_kernel(&registry, kernel.name(), &layer, &acts, &cache, m == 1);
                            assert_within(kernel.tolerance(), &got, oracle.as_slice(), &what);
                        }
                        cases += 1;
                    }
                }
            }
        }
    }
    assert!(cases >= 100, "sweep shrank: only {cases} cases ran");
}

#[test]
fn gemv_odd_k_with_tail_blocks_through_old_and_new_kernels() {
    // m = 1 with k = 52 over macro 16 / micro 8: the last group holds 4
    // slots (one partial micro-block) — the historical off-by-one trap
    // for group-walking kernels.
    let registry = KernelRegistry::with_defaults();
    for axis in [GroupAxis::DotProduct, GroupAxis::OutputChannel] {
        for bits in [2u32, 4] {
            for k in [52usize, 41, 17] {
                let layer = synth_packed(&SynthSpec {
                    axis,
                    d_row: 24,
                    d_col: k,
                    bits,
                    micro: 8,
                    macro_block: 16,
                    outlier_rate: 0.2,
                    seed: 7 + k as u64,
                });
                let mut rng = SeededRng::new(99 + k as u64);
                let x: Vec<f64> = (0..k).map(|_| rng.normal(0.0, 1.0)).collect();
                let oracle = fused_gemv_serial(&layer, &x);
                // Old kernel (scalar): bitwise against its GEMM shape.
                let acts = Matrix::from_vec(k, 1, x.clone());
                assert_eq!(
                    oracle,
                    fused_gemm_serial(&layer, &acts).as_slice().to_vec(),
                    "scalar gemv/gemm parity {axis:?} bits={bits} k={k}"
                );
                // Every kernel that runs the layout (lane, simd,
                // cached, … on DotProduct): within its pin.
                let cache = DecodedCache::new(1 << 20);
                for kernel in kernels_for(&registry, axis) {
                    let name = kernel.name();
                    let got = run_kernel(&registry, name, &layer, &acts, &cache, true);
                    assert_within(
                        kernel.tolerance(),
                        &got,
                        &oracle,
                        &format!("{name} {axis:?} k={k}"),
                    );
                }
            }
        }
    }
}

#[test]
fn group_boundary_straddling_tiles_agree_with_full_row_range() {
    // Row tiles that cut through the middle of a line's groups
    // (DotProduct) or straddle a macro-block (engine-level, where
    // OutputChannel quantizes tile edges): tiled execution must equal the
    // one-shot full-range call for every kernel, because each output
    // element's accumulation never crosses a tile.
    let registry = KernelRegistry::with_defaults();
    let layer = synth_packed(&SynthSpec {
        axis: GroupAxis::DotProduct,
        d_row: 29, // odd row count → ragged last tile
        d_col: 48,
        bits: 2,
        micro: 8,
        macro_block: 16,
        outlier_rate: 0.15,
        seed: 55,
    });
    let mut rng = SeededRng::new(56);
    let acts = Matrix::from_fn(48, 5, |_, _| rng.normal(0.0, 1.0));
    let cache = DecodedCache::new(1 << 20);
    for kernel in registry.kernels() {
        let ctx = KernelCtx::cached(&cache, layer.content_fingerprint());
        let mut full = vec![0.0_f64; 29 * 5];
        kernel.gemm_rows(&ctx, &layer, &acts, 0, 29, &mut full);
        let mut stitched = vec![0.0_f64; 29 * 5];
        for (lo, hi) in [(0usize, 3usize), (3, 10), (10, 17), (17, 29)] {
            let mut tile = vec![0.0_f64; (hi - lo) * 5];
            kernel.gemm_rows(&ctx, &layer, &acts, lo, hi, &mut tile);
            stitched[lo * 5..hi * 5].copy_from_slice(&tile);
        }
        assert_eq!(full, stitched, "{} tiling changed results", kernel.name());
    }
    // Engine level: three threads on a 40-row OutputChannel layer ask
    // for 3-row tiles, which round up to the 16-row macro-block quantum;
    // results must match the untiled engine bitwise (scalar dispatch)
    // for m = 1 and m > 1.
    let oc = synth_packed(&SynthSpec {
        axis: GroupAxis::OutputChannel,
        d_row: 40,
        d_col: 32,
        bits: 2,
        micro: 8,
        macro_block: 16,
        outlier_rate: 0.3,
        seed: 57,
    });
    let mut rng = SeededRng::new(58);
    for m in [1usize, 7] {
        let acts = Matrix::from_fn(32, m, |_, _| rng.normal(0.0, 1.0));
        let tiled = RuntimeEngine::new(EngineConfig {
            threads: 3,
            cache_bytes: 0,
            parallel_threshold: 0,
            ..EngineConfig::default()
        });
        assert_eq!(
            tiled.gemm(&oc, &acts),
            RuntimeEngine::scalar().gemm(&oc, &acts),
            "straddling tiles m={m}"
        );
    }
}

#[test]
fn outlier_heavy_rows_through_old_and_new_kernels() {
    // Nearly every micro-block carries an outlier pair: the scalar path
    // must stay bitwise, the lane kernel must hold its pin on DotProduct
    // layers even though dispatch would route this regime to scalar
    // (outlier density is advice, not a correctness gate).
    let registry = KernelRegistry::with_defaults();
    for axis in [GroupAxis::DotProduct, GroupAxis::OutputChannel] {
        for bits in [2u32, 4] {
            let layer = synth_packed(&SynthSpec {
                axis,
                d_row: 32,
                d_col: 48,
                bits,
                micro: 8,
                macro_block: 16,
                outlier_rate: 0.95,
                seed: 77,
            });
            assert!(
                layer.outlier_micro_block_fraction() > 0.5,
                "regime must actually be outlier-heavy"
            );
            // Dispatch advice: Fast policy refuses lane here.
            let key = DispatchKey::for_call(&layer, 8);
            assert_eq!(
                registry
                    .select(KernelPolicy::Fast, &key, &KernelCtx::uncached())
                    .name(),
                SCALAR_KERNEL,
                "outlier-heavy dispatch must fall back to scalar"
            );
            let mut rng = SeededRng::new(78);
            let cache = DecodedCache::new(1 << 20);
            for m in [1usize, 8] {
                let acts = Matrix::from_fn(48, m, |_, _| rng.normal(0.0, 1.0));
                let oracle = fused_gemm_serial(&layer, &acts);
                assert_eq!(oracle, layer.dequantize().matmul(&acts), "oracle bitwise");
                for kernel in kernels_for(&registry, axis) {
                    let name = kernel.name();
                    let got = run_kernel(&registry, name, &layer, &acts, &cache, m == 1);
                    assert_within(
                        kernel.tolerance(),
                        &got,
                        oracle.as_slice(),
                        &format!("{name} heavy {axis:?} bits={bits} m={m}"),
                    );
                }
            }
        }
    }
}

#[test]
fn gemv_row_tiles_stitch_bitwise_for_every_kernel() {
    // The parallel-GEMV determinism contract: restricted-row-range GEMV
    // calls must accumulate each output element in the same order as the
    // full-range call, so disjoint tiles stitched in row order equal the
    // one-shot gemv bit for bit — for every registered kernel on
    // DotProduct, and for the oracle on OutputChannel. DotProduct
    // tolerates ragged tile edges; OutputChannel tiles align to the
    // macro-block quantum like the engine's splitter.
    let registry = KernelRegistry::with_defaults();
    let tilings: [(&[(usize, usize)], GroupAxis); 2] = [
        (
            &[(0, 5), (5, 16), (16, 23), (23, 48)],
            GroupAxis::DotProduct,
        ),
        (&[(0, 16), (16, 32), (32, 48)], GroupAxis::OutputChannel),
    ];
    for (tiles, axis) in tilings {
        let layer = synth_packed(&SynthSpec {
            axis,
            d_row: 48,
            d_col: 64,
            bits: 2,
            micro: 8,
            macro_block: 16,
            outlier_rate: 0.15,
            seed: 91,
        });
        let mut rng = SeededRng::new(92);
        let x: Vec<f64> = (0..64).map(|_| rng.normal(0.0, 1.0)).collect();
        let cache = DecodedCache::new(1 << 20);
        for kernel in kernels_for(&registry, axis) {
            let ctx = KernelCtx::cached(&cache, layer.content_fingerprint());
            let mut full = vec![0.0_f64; 48];
            kernel.gemv(&ctx, &layer, &x, &mut full);
            let mut stitched = vec![0.0_f64; 48];
            for &(lo, hi) in tiles {
                let mut tile = vec![0.0_f64; hi - lo];
                kernel.gemv_rows(&ctx, &layer, &x, lo, hi, &mut tile);
                stitched[lo..hi].copy_from_slice(&tile);
            }
            assert_eq!(
                full,
                stitched,
                "{} gemv tiling changed results on {axis:?}",
                kernel.name()
            );
        }
    }
}

#[test]
fn without_simd_registry_falls_back_gracefully() {
    // The CI leg with SIMD force-disabled (and any host without AVX2 +
    // FMA) must resolve Fast dispatch deterministically through the
    // portable kernels — no simd-f32 in the registry, no behavior cliff.
    let registry = KernelRegistry::without_simd();
    assert!(
        !registry.names().contains(&SIMD_KERNEL),
        "without_simd must not register the SIMD kernel"
    );
    let ctx = KernelCtx::uncached();
    // m = 1 at 2 bits, the decode GEMV shape: the lane kernel.
    let gemv_key = DispatchKey {
        m: 1,
        bits: 2,
        outlier_frac: 0.03,
        group: 64,
        axis: GroupAxis::DotProduct,
    };
    assert_eq!(
        registry.select(KernelPolicy::Fast, &gemv_key, &ctx).name(),
        LANE_KERNEL
    );
    // And so do GEMM shapes.
    let gemm_key = DispatchKey {
        m: 8,
        bits: 2,
        outlier_frac: 0.03,
        group: 64,
        axis: GroupAxis::DotProduct,
    };
    assert_eq!(
        registry.select(KernelPolicy::Fast, &gemm_key, &ctx).name(),
        LANE_KERNEL
    );
    // And the fallback serving path is bitwise stable run-to-run: two
    // independent Fast engines over the portable registry agree exactly.
    let layer = synth_packed(&SynthSpec {
        axis: GroupAxis::DotProduct,
        d_row: 48,
        d_col: 64,
        bits: 2,
        micro: 8,
        macro_block: 16,
        outlier_rate: 0.03,
        seed: 93,
    });
    let mut rng = SeededRng::new(94);
    let x: Vec<f64> = (0..64).map(|_| rng.normal(0.0, 1.0)).collect();
    let acts = Matrix::from_fn(64, 6, |_, _| rng.normal(0.0, 1.0));
    let engine = |threads: usize| {
        RuntimeEngine::with_registry(
            EngineConfig {
                threads,
                cache_bytes: 0,
                policy: KernelPolicy::Fast,
                ..EngineConfig::default()
            },
            KernelRegistry::without_simd(),
        )
    };
    let (a, b) = (engine(1), engine(3));
    assert_eq!(a.gemv(&layer, &x), b.gemv(&layer, &x));
    assert_eq!(a.gemm(&layer, &acts), b.gemm(&layer, &acts));
    assert_eq!(a.gemv(&layer, &x), a.gemv(&layer, &x), "run-to-run");
}

#[test]
fn default_dispatch_serving_stays_bitwise_stable() {
    // The end-to-end guarantee the refactor must not move: a
    // default-policy engine without a cache equals the scalar oracle bit
    // for bit, and the m = 1 GEMV entry equals the m = 1 GEMM column.
    let layer = synth_packed(&SynthSpec {
        axis: GroupAxis::DotProduct,
        d_row: 64,
        d_col: 64,
        bits: 2,
        micro: 8,
        macro_block: 64,
        outlier_rate: 0.05,
        seed: 31,
    });
    let mut rng = SeededRng::new(32);
    let acts = Matrix::from_fn(64, 8, |_, _| rng.normal(0.0, 1.0));
    let default_uncached = RuntimeEngine::new(EngineConfig {
        threads: 1,
        cache_bytes: 0,
        ..EngineConfig::default()
    });
    assert_eq!(
        default_uncached.gemm(&layer, &acts),
        fused_gemm_serial(&layer, &acts)
    );
    let x: Vec<f64> = (0..64).map(|_| rng.normal(0.0, 1.0)).collect();
    assert_eq!(
        default_uncached.gemv(&layer, &x),
        fused_gemv_serial(&layer, &x)
    );
}

#[test]
fn output_channel_layers_run_on_the_oracle_in_every_engine() {
    // The fast kernels run DotProduct only: whatever the engine, an
    // OutputChannel layer dispatches to the oracle and equals it bitwise.
    let fast_cached = RuntimeEngine::new(EngineConfig {
        policy: KernelPolicy::Fast,
        ..EngineConfig::default()
    });
    let engines = [
        ("parallel", RuntimeEngine::parallel()),
        ("fast", RuntimeEngine::fast()),
        ("fast+cache", fast_cached),
    ];
    for (label, engine) in &engines {
        for bits in [2u32, 4] {
            let layer = synth_packed(&SynthSpec {
                axis: GroupAxis::OutputChannel,
                d_row: 48,
                d_col: 64,
                bits,
                micro: 8,
                macro_block: 16,
                outlier_rate: 0.03,
                seed: 101 + u64::from(bits),
            });
            let mut rng = SeededRng::new(102 + u64::from(bits));
            for m in [1usize, 8] {
                let what = format!("{label} bits={bits} m={m}");
                assert_eq!(engine.kernel_for(&layer, m), SCALAR_KERNEL, "{what}");
                let acts = Matrix::from_fn(64, m, |_, _| rng.normal(0.0, 1.0));
                assert_eq!(
                    engine.gemm(&layer, &acts),
                    fused_gemm_serial(&layer, &acts),
                    "{what} gemm"
                );
                let x = acts.col(0);
                assert_eq!(
                    engine.gemv(&layer, &x),
                    fused_gemv_serial(&layer, &x),
                    "{what} gemv"
                );
            }
        }
    }
}
