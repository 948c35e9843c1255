//! Kernel conformance suite: every available kernel must match the
//! scalar `f64` oracle within its **pinned** tolerance across a sweep of
//! shapes × bit widths × outlier regimes × batch sizes — and the oracle
//! itself must match the dense `dequantize().matmul(..)` reference bit
//! for bit. A kernel whose pin loosens is an API change; this suite is
//! what holds the pin.
//!
//! Also carries the GEMV edge-case battery: m = 1 with odd reduction
//! lengths (partial tail macro- and micro-blocks), tiles that straddle
//! group boundaries, and outlier-heavy rows — through both the old
//! (scalar) and new (lane-blocked) kernels — the pick table (each engine
//! tier runs one kernel whatever the call's shape), and every kernel's
//! refusal of a layout outside the served one.

use microscopiq_core::config::GroupAxis;
use microscopiq_linalg::{Matrix, SeededRng};
use microscopiq_runtime::kernels::synth::{synth_packed, SynthSpec};
use microscopiq_runtime::kernels::{
    available, fused_gemm_serial, fused_gemv_serial, KernelCtx, MicroKernel, SimdKernel, Tolerance,
    BUCKETED_KERNEL, LANE_KERNEL, MAX_GROUP, SCALAR_KERNEL, SIMD_KERNEL,
};
use microscopiq_runtime::telemetry::SampleValue;
use microscopiq_runtime::{
    DecodedCache, EngineConfig, EngineTelemetry, MetricsRegistry, RuntimeEngine, Tier,
};

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

/// Runs one kernel over the full row range (GEMM) or through its GEMV
/// entry (m = 1), with a decoded cache in the context so cache-requiring
/// kernels participate.
fn run_kernel(
    kernel: &dyn MicroKernel,
    layer: &microscopiq_core::packed::PackedLayer,
    acts: &Matrix,
    cache: &DecodedCache,
    use_gemv: bool,
) -> Vec<f64> {
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
    let mut cases = 0usize;
    for bits in [2u32, 4] {
        for rate in OUTLIER_REGIMES {
            // (d_row, d_col, macro): aligned, odd-k tail macro-block, and
            // tail micro-block shapes.
            for (d_row, d_col, macro_block) in [(24, 48, 16), (32, 52, 16), (16, 44, 8)] {
                let layer = synth_packed(&SynthSpec {
                    d_row,
                    d_col,
                    bits,
                    micro: 8,
                    macro_block,
                    outlier_rate: rate,
                    seed: 1000 + cases as u64,
                    ..SynthSpec::default()
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
                         (bits={bits} rate={rate} m={m})"
                    );
                    let cache = DecodedCache::new(8 << 20);
                    for kernel in available() {
                        let what = format!(
                            "{} bits={bits} rate={rate} {d_row}x{d_col}/{macro_block} m={m}",
                            kernel.name()
                        );
                        let got = run_kernel(kernel, &layer, &acts, &cache, m == 1);
                        assert_within(kernel.tolerance(), &got, oracle.as_slice(), &what);
                    }
                    cases += 1;
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
    for bits in [2u32, 4] {
        for k in [52usize, 41, 17] {
            let layer = synth_packed(&SynthSpec {
                d_row: 24,
                d_col: k,
                bits,
                micro: 8,
                macro_block: 16,
                outlier_rate: 0.2,
                seed: 7 + k as u64,
                ..SynthSpec::default()
            });
            let mut rng = SeededRng::new(99 + k as u64);
            let x: Vec<f64> = (0..k).map(|_| rng.normal(0.0, 1.0)).collect();
            let oracle = fused_gemv_serial(&layer, &x);
            // Old kernel (scalar): bitwise against its GEMM shape.
            let acts = Matrix::from_vec(k, 1, x.clone());
            assert_eq!(
                oracle,
                fused_gemm_serial(&layer, &acts).as_slice().to_vec(),
                "scalar gemv/gemm parity bits={bits} k={k}"
            );
            // Every kernel (lane, simd, cached, …): within its pin.
            let cache = DecodedCache::new(1 << 20);
            for kernel in available() {
                let name = kernel.name();
                let got = run_kernel(kernel, &layer, &acts, &cache, true);
                assert_within(
                    kernel.tolerance(),
                    &got,
                    &oracle,
                    &format!("{name} bits={bits} k={k}"),
                );
            }
        }
    }
}

#[test]
fn group_boundary_straddling_tiles_agree_with_full_row_range() {
    // Row tiles that cut through the middle of a line's groups: tiled
    // execution must equal the one-shot full-range call for every kernel,
    // because each output element's accumulation never crosses a tile.
    let layer = synth_packed(&SynthSpec {
        d_row: 29, // odd row count → ragged last tile
        d_col: 48,
        bits: 2,
        micro: 8,
        macro_block: 16,
        outlier_rate: 0.15,
        seed: 55,
        ..SynthSpec::default()
    });
    let mut rng = SeededRng::new(56);
    let acts = Matrix::from_fn(48, 5, |_, _| rng.normal(0.0, 1.0));
    let cache = DecodedCache::new(1 << 20);
    for kernel in available() {
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
}

#[test]
fn outlier_heavy_rows_through_old_and_new_kernels() {
    // Nearly every micro-block carries an outlier pair: the scalar path
    // must stay bitwise, and every other kernel must hold its pin on
    // (outlier density is no correctness gate).
    for bits in [2u32, 4] {
        let layer = synth_packed(&SynthSpec {
            d_row: 32,
            d_col: 48,
            bits,
            micro: 8,
            macro_block: 16,
            outlier_rate: 0.95,
            seed: 77,
            ..SynthSpec::default()
        });
        assert!(
            layer.outlier_micro_block_fraction() > 0.5,
            "regime must actually be outlier-heavy"
        );
        let mut rng = SeededRng::new(78);
        let cache = DecodedCache::new(1 << 20);
        for m in [1usize, 8] {
            let acts = Matrix::from_fn(48, m, |_, _| rng.normal(0.0, 1.0));
            let oracle = fused_gemm_serial(&layer, &acts);
            assert_eq!(oracle, layer.dequantize().matmul(&acts), "oracle bitwise");
            for kernel in available() {
                let name = kernel.name();
                let got = run_kernel(kernel, &layer, &acts, &cache, m == 1);
                assert_within(
                    kernel.tolerance(),
                    &got,
                    oracle.as_slice(),
                    &format!("{name} heavy bits={bits} m={m}"),
                );
            }
        }
    }
}

#[test]
fn gemv_row_tiles_stitch_bitwise_for_every_kernel() {
    // The parallel-GEMV determinism contract: restricted-row-range GEMV
    // calls must accumulate each output element in the same order as the
    // full-range call, so disjoint tiles stitched in row order equal the
    // one-shot gemv bit for bit — for every available kernel, at ragged
    // tile edges.
    let layer = synth_packed(&SynthSpec {
        d_row: 48,
        d_col: 64,
        bits: 2,
        micro: 8,
        macro_block: 16,
        outlier_rate: 0.15,
        seed: 91,
        ..SynthSpec::default()
    });
    let mut rng = SeededRng::new(92);
    let x: Vec<f64> = (0..64).map(|_| rng.normal(0.0, 1.0)).collect();
    let cache = DecodedCache::new(1 << 20);
    for kernel in available() {
        let ctx = KernelCtx::cached(&cache, layer.content_fingerprint());
        let mut full = vec![0.0_f64; 48];
        kernel.gemv(&ctx, &layer, &x, &mut full);
        let mut stitched = vec![0.0_f64; 48];
        for (lo, hi) in [(0, 5), (5, 16), (16, 23), (23, 48)] {
            let mut tile = vec![0.0_f64; hi - lo];
            kernel.gemv_rows(&ctx, &layer, &x, lo, hi, &mut tile);
            stitched[lo..hi].copy_from_slice(&tile);
        }
        assert_eq!(
            full,
            stitched,
            "{} gemv tiling changed results",
            kernel.name()
        );
    }
}

/// Calls per kernel name in the engine's `microscopiq_kernel_calls_total`.
fn kernel_calls(registry: &MetricsRegistry) -> Vec<(String, u64)> {
    let mut calls: Vec<(String, u64)> = Vec::new();
    for sample in registry.snapshot().samples {
        if sample.name != "microscopiq_kernel_calls_total" {
            continue;
        }
        let SampleValue::Counter(n) = sample.value else {
            panic!("kernel calls are counters");
        };
        let (_, kernel) = sample.labels.iter().find(|(k, _)| *k == "kernel").unwrap();
        match calls.iter_mut().find(|(name, _)| name == kernel) {
            Some((_, total)) => *total += n,
            None => calls.push((kernel.clone(), n)),
        }
    }
    calls
}

#[test]
fn each_tier_runs_one_kernel_whatever_the_shape() {
    // The pick reads the tier only: not the bit width, the outlier
    // density or the activation columns.
    let f32_kernel = SimdKernel::try_new().map_or(LANE_KERNEL, |_| SIMD_KERNEL);
    let engines = [
        ("scalar", RuntimeEngine::scalar(), SCALAR_KERNEL),
        ("parallel", RuntimeEngine::parallel(), BUCKETED_KERNEL),
        ("fast", RuntimeEngine::fast(), f32_kernel),
    ];
    for (label, engine, want) in &engines {
        assert_eq!(engine.kernel().name(), *want, "{label}");
        let metrics = MetricsRegistry::new();
        engine.register_telemetry(&metrics);
        let mut calls = 0u64;
        for bits in [2u32, 4] {
            for rate in [0.0, 0.03, 0.95] {
                let layer = synth_packed(&SynthSpec {
                    d_row: 24,
                    d_col: 48,
                    bits,
                    macro_block: 16,
                    outlier_rate: rate,
                    seed: 120 + u64::from(bits),
                    ..SynthSpec::default()
                });
                let mut rng = SeededRng::new(121);
                for m in [1usize, 2, 8, 17] {
                    let acts = Matrix::from_fn(48, m, |_, _| rng.normal(0.0, 1.0));
                    engine.gemm(&layer, &acts);
                    engine.gemv(&layer, &acts.col(0));
                    calls += 2;
                }
            }
        }
        assert_eq!(
            kernel_calls(&metrics),
            [(want.to_string(), calls)],
            "{label}: every call on one kernel"
        );
    }
}

#[test]
fn fast_tier_picks_by_simd_detection_and_is_thread_count_stable() {
    // The pick follows `SimdKernel::try_new`: simd-f32 on the main CI
    // leg, lane-f32 on the leg with `MICROSCOPIQ_SIMD=off` and on hosts
    // without AVX2+FMA. Either way the tier is bitwise stable across
    // thread counts and run to run.
    let want = SimdKernel::try_new().map_or(LANE_KERNEL, |_| SIMD_KERNEL);
    let layer = synth_packed(&SynthSpec {
        d_row: 48,
        d_col: 64,
        bits: 2,
        micro: 8,
        macro_block: 16,
        outlier_rate: 0.03,
        seed: 93,
        ..SynthSpec::default()
    });
    let mut rng = SeededRng::new(94);
    let x: Vec<f64> = (0..64).map(|_| rng.normal(0.0, 1.0)).collect();
    let acts = Matrix::from_fn(64, 6, |_, _| rng.normal(0.0, 1.0));
    let engine = |threads: usize| {
        RuntimeEngine::new(EngineConfig {
            threads,
            tier: Tier::Fast,
            parallel_threshold: 0,
        })
    };
    let (a, b) = (engine(1), engine(3));
    assert_eq!(RuntimeEngine::fast().kernel().name(), want);
    assert_eq!(b.kernel().name(), want);
    assert_eq!(a.gemv(&layer, &x), b.gemv(&layer, &x));
    assert_eq!(a.gemm(&layer, &acts), b.gemm(&layer, &acts));
    assert_eq!(b.gemv(&layer, &x), b.gemv(&layer, &x), "run-to-run");
}

#[test]
fn default_dispatch_serving_stays_bitwise_stable() {
    // The end-to-end guarantee the refactor must not move: an
    // exact-tier engine without a cache equals the scalar oracle bit
    // for bit, and the m = 1 GEMV entry equals the m = 1 GEMM column.
    let layer = synth_packed(&SynthSpec {
        d_row: 64,
        d_col: 64,
        bits: 2,
        micro: 8,
        macro_block: 64,
        outlier_rate: 0.05,
        seed: 31,
        ..SynthSpec::default()
    });
    let mut rng = SeededRng::new(32);
    let acts = Matrix::from_fn(64, 8, |_, _| rng.normal(0.0, 1.0));
    let default_uncached = RuntimeEngine::new(EngineConfig {
        threads: 1,
        tier: Tier::Exact { cache_bytes: 0 },
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
fn every_kernel_refuses_a_layout_outside_the_served_one() {
    // Each kernel asserts its layout on entry — the `unsafe` AVX2 loads
    // rely on it: every kernel refuses an OutputChannel layer, and the two
    // f32 kernels, whose group planes hold MAX_GROUP slots, a larger
    // group.
    let output_channel = synth_packed(&SynthSpec {
        axis: GroupAxis::OutputChannel,
        ..SynthSpec::default()
    });
    let oversize = synth_packed(&SynthSpec {
        d_col: 2 * MAX_GROUP,
        macro_block: 2 * MAX_GROUP,
        ..SynthSpec::default()
    });
    let cache = DecodedCache::new(1 << 20);
    for kernel in available() {
        let mut cases = vec![(&output_channel, "runs DotProduct layers only")];
        if [LANE_KERNEL, SIMD_KERNEL].contains(&kernel.name()) {
            cases.push((&oversize, "group plane holds at most"));
        }
        for (layer, refusal) in cases {
            let ctx = KernelCtx::cached(&cache, layer.content_fingerprint());
            let acts = Matrix::zeros(layer.d_col(), 2);
            let gemm = || {
                let mut out = vec![0.0; layer.d_row() * 2];
                kernel.gemm_rows(&ctx, layer, &acts, 0, layer.d_row(), &mut out);
            };
            let gemv = || {
                let mut out = vec![0.0; layer.d_row()];
                kernel.gemv(&ctx, layer, &acts.col(0), &mut out);
            };
            for (entry, call) in [("gemm_rows", &gemm as &dyn Fn()), ("gemv", &gemv)] {
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(call))
                    .expect_err("the call must panic");
                let msg = err
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .unwrap_or_default();
                assert!(msg.contains(refusal), "{} {entry}: {msg}", kernel.name());
            }
        }
    }
}
