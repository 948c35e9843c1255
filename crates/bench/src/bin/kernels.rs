//! Kernel-level microbench: every kernel this host runs
//! ([`kernels::available`]), timed head-to-head on the same packed
//! layer, plus the dense dequantize+matmul reference for context.
//!
//! Two sections:
//!
//! 1. **GEMM 512×2048 @ batch 8** (bb = 2, Bμ = 8, BM = 64, ~3% outlier
//!    micro-blocks, synthesized directly in packed form) — the shape the
//!    runtime acceptance gauge has always used. The acceptance bar here:
//!    the lane-blocked `f32` kernel ≥ 1.5× over the scalar `f64` oracle.
//! 2. **GEMV 512×2048** (m = 1) — the per-step decode shape, comparing
//!    the shape-specialized GEMV entries.
//!
//! 3. **Serial vs split** — the wide (256-wide) and deep (64-wide) model
//!    layer shapes at m ∈ {1, 4, 7, 8, 16, 96} (4 and 7 leave a column
//!    tail short of one 8-wide block) through `RuntimeEngine` on both
//!    serving tiers, once with the split over the engine's persistent
//!    pool forced off and once forced on (the pool is already running:
//!    the warm-up call creates it), one serial and one split call per
//!    sample so both sides share each moment of the host's load, and
//!    the break-even MAC count that follows — the measurement
//!    `EngineConfig::default().parallel_threshold` is read off.
//!
//! The acceptance gates (lane-f32 ≥ 1.5× scalar-f64 on GEMM and GEMV,
//! simd-f32 ≥ 2.0× lane-f32 on GEMV) time their two sides alternately
//! with [`paired_medians`], so a slow stretch of a shared host lands on
//! both; the JSON's `gemm_speedup_lane_vs_scalar`,
//! `gemv_speedup_lane_vs_scalar` and `gemv_speedup_simd_vs_lane` are
//! those paired ratios, while the tables time each kernel on its own.
//!
//! Every timed kernel is conformance-gated against the scalar oracle at
//! its pinned tolerance — on the GEMM shape *and* the GEMV entry —
//! before any clock starts, and the parallel GEMV splitter is checked
//! for run-to-run bitwise determinism on both tiers. Emits
//! `results/BENCH_kernels.json` in the shared report shape, including
//! detected CPU features and per-kernel availability so CI legs with
//! SIMD force-disabled stay distinguishable from hosts without SIMD.

use microscopiq_bench::{f2, median, Table};
use microscopiq_core::config::GroupAxis;
use microscopiq_linalg::{Matrix, SeededRng};
use microscopiq_runtime::kernels::synth::{synth_packed, SynthSpec};
use microscopiq_runtime::kernels::{
    self, detected_cpu_features, fused_gemv_serial, KernelCtx, MicroKernel, BUCKETED_KERNEL,
    LANE_KERNEL, SCALAR_KERNEL, SIMD_KERNEL,
};
use microscopiq_runtime::{DecodedCache, EngineConfig, RuntimeEngine, Tier};
use std::time::Instant;

/// Median wall time of `iters` runs of `f` (after one warmup), in seconds.
fn time_median<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    f(); // warmup
    let samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Median wall times of `iters` runs each of `a` and `b` (after one
/// warm-up each), in seconds, alternating one `a` with one `b`: whatever
/// the host does to one window (the second vCPU busy or free) lands on
/// both sides alike.
fn paired_medians(iters: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    a();
    b();
    let time = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64()
    };
    let (ta, tb): (Vec<f64>, Vec<f64>) = (0..iters).map(|_| (time(&mut a), time(&mut b))).unzip();
    (median(&ta), median(&tb))
}

/// One acceptance gate: times `base` and `kernel` alternately, `iters`
/// runs each ([`paired_medians`]), prints the speedup against `bar` and
/// panics below it. Returns the speedup.
fn gate(what: &str, bar: f64, iters: usize, base: impl FnMut(), kernel: impl FnMut()) -> f64 {
    let (t_base, t_kernel) = paired_medians(iters, base, kernel);
    let speedup = t_base / t_kernel;
    let verdict = if speedup >= bar { "PASS >=" } else { "FAIL <" };
    println!("acceptance: {what} = {speedup:.2}x ({verdict} {bar:.1}x)");
    assert!(
        speedup >= bar,
        "{what} must be >= {bar:.1}x (got {speedup:.2}x)"
    );
    speedup
}

/// Section 3: times every (tier, layer shape, m) call serially and split
/// over the pool, prints the table, and returns the headline metrics:
/// per tier, the largest problem (log2 MACs) the serial path still wins
/// and the smallest from which the split wins on every larger one.
fn split_break_even() -> Vec<(String, f64)> {
    let default_threshold = EngineConfig::default().parallel_threshold;
    let tiers = [
        ("default", EngineConfig::default()),
        ("fast", RuntimeEngine::fast().config()),
    ];
    // d_row × d_col of the benchmark models' linears: attention
    // projections and the FFN up-projection, wide then deep.
    let shapes = [(256usize, 256usize), (512, 256), (64, 64), (128, 64)];
    let ms = [1usize, 4, 7, 8, 16, 96];
    let threads = RuntimeEngine::parallel().threads();
    let mut table = Table::new(
        &format!("Serial vs split GEMM/GEMV ({threads} threads)"),
        &[
            "tier",
            "shape",
            "m",
            "log2 MACs",
            "serial µs",
            "split µs",
            "faster",
        ],
    );
    let mut metrics = vec![(
        "parallel_threshold_log2_default".to_string(),
        (default_threshold as f64).log2(),
    )];
    let mut break_even = Vec::new();
    let mut rng = SeededRng::new(23);
    for (tier, cfg) in tiers {
        let engine = |parallel_threshold| {
            RuntimeEngine::new(EngineConfig {
                parallel_threshold,
                ..cfg
            })
        };
        let (serial, split) = (engine(usize::MAX), engine(0));
        // (MACs, split wins) per measured call.
        let mut points: Vec<(usize, bool)> = Vec::new();
        for (d_row, d_col) in shapes {
            let layer = synth_packed(&SynthSpec {
                d_row,
                d_col,
                bits: 4,
                ..SynthSpec::default()
            });
            for m in ms {
                let acts = Matrix::from_fn(d_col, m, |_, _| rng.normal(0.0, 1.0));
                // m = 1 goes through the GEMV entry, as the decode loop does.
                let run = |engine: &RuntimeEngine| {
                    if m == 1 {
                        std::hint::black_box(engine.gemv(&layer, acts.as_slice()));
                    } else {
                        std::hint::black_box(engine.gemm(&layer, &acts));
                    }
                };
                let (t_serial, t_split) = paired_medians(51, || run(&serial), || run(&split));
                let macs = d_row * d_col * m;
                let split_wins = t_split < t_serial;
                points.push((macs, split_wins));
                table.row(vec![
                    tier.to_string(),
                    format!("{d_row}x{d_col}"),
                    m.to_string(),
                    format!("{:.1}", (macs as f64).log2()),
                    format!("{:.0}", t_serial * 1e6),
                    format!("{:.0}", t_split * 1e6),
                    if split_wins { "split" } else { "serial" }.to_string(),
                ]);
                metrics.push((
                    format!("serial_us_{tier}_{d_row}x{d_col}_m{m}"),
                    t_serial * 1e6,
                ));
                metrics.push((
                    format!("split_us_{tier}_{d_row}x{d_col}_m{m}"),
                    t_split * 1e6,
                ));
            }
        }
        points.sort_unstable();
        let serial_up_to = points.iter().rev().find(|p| !p.1).map_or(0, |p| p.0);
        let split_from = points
            .iter()
            .find(|p| p.0 > serial_up_to)
            .map_or(usize::MAX, |p| p.0);
        break_even.push(format!(
            "break-even ({tier} tier): serial wins up to 2^{:.1} MACs, split wins from 2^{:.1}; \
             default parallel_threshold = 2^{:.0}",
            (serial_up_to as f64).log2(),
            (split_from as f64).log2(),
            (default_threshold as f64).log2(),
        ));
        metrics.push((
            format!("serial_wins_up_to_log2_macs_{tier}"),
            (serial_up_to as f64).log2(),
        ));
        metrics.push((
            format!("split_wins_from_log2_macs_{tier}"),
            (split_from as f64).log2(),
        ));
    }
    table.print();
    println!("{}", break_even.join("\n"));
    metrics
}

fn main() {
    let (d_row, d_col, batch) = (512usize, 2048usize, 8usize);
    let layer = synth_packed(&SynthSpec {
        axis: GroupAxis::DotProduct,
        d_row,
        d_col,
        bits: 2,
        micro: 8,
        macro_block: 64,
        outlier_rate: 0.03,
        seed: 7,
    });
    let mut rng = SeededRng::new(11);
    let acts = Matrix::from_fn(d_col, batch, |_, _| rng.normal(0.0, 1.0));
    let x: Vec<f64> = (0..d_col).map(|_| rng.normal(0.0, 1.0)).collect();

    let available = kernels::available();
    let find = |name: &str| available.iter().copied().find(|k| k.name() == name);
    let cache = DecodedCache::new(256 << 20);
    let ctx = KernelCtx::cached(&cache, layer.content_fingerprint());

    // Conformance gate before timing anything: every kernel at its pin.
    let oracle = {
        let mut out = Matrix::zeros(d_row, batch);
        find(SCALAR_KERNEL).expect("oracle available").gemm_rows(
            &ctx,
            &layer,
            &acts,
            0,
            d_row,
            out.as_mut_slice(),
        );
        out
    };
    assert_eq!(
        oracle,
        layer.dequantize().matmul(&acts),
        "oracle must be bit-identical to dense"
    );
    let gemv_oracle = fused_gemv_serial(&layer, &x);
    for kernel in &available {
        let mut out = vec![0.0_f64; d_row * batch];
        kernel.gemm_rows(&ctx, &layer, &acts, 0, d_row, &mut out);
        let tol = kernel.tolerance();
        for (&a, &b) in out.iter().zip(oracle.as_slice().iter()) {
            assert!(
                tol.accepts(a, b),
                "{} violates its pinned tolerance: {a} vs {b}",
                kernel.name()
            );
        }
        // The GEMV entry is a separate code path per kernel — gate it too.
        let mut gv = vec![0.0_f64; d_row];
        kernel.gemv(&ctx, &layer, &x, &mut gv);
        for (&a, &b) in gv.iter().zip(gemv_oracle.iter()) {
            assert!(
                tol.accepts(a, b),
                "{} GEMV violates its pinned tolerance: {a} vs {b}",
                kernel.name()
            );
        }
    }

    // Parallel-GEMV determinism gate: the threaded splitter must equal
    // the serial path bitwise, twice in a row, on both uncached tiers —
    // the contract the runtime's reproducibility rests on.
    for tier in [Tier::Exact { cache_bytes: 0 }, Tier::Fast] {
        let serial = RuntimeEngine::new(EngineConfig {
            threads: 1,
            tier,
            parallel_threshold: usize::MAX,
        });
        let parallel = RuntimeEngine::new(EngineConfig {
            threads: 4,
            tier,
            parallel_threshold: 0,
        });
        let want = serial.gemv(&layer, &x);
        let got1 = parallel.gemv(&layer, &x);
        let got2 = parallel.gemv(&layer, &x);
        assert_eq!(got1, want, "parallel GEMV diverged from serial ({tier:?})");
        assert_eq!(got1, got2, "parallel GEMV not run-to-run stable ({tier:?})");
    }
    println!("parallel GEMV determinism: PASS (exact and fast tiers, bitwise vs serial)\n");

    // Host capability report — the SIMD gate below only arms when the
    // kernel is available (CI runs a leg with MICROSCOPIQ_SIMD=off where
    // it must not be).
    let features = detected_cpu_features();
    let names: Vec<&str> = available.iter().map(|k| k.name()).collect();
    let simd_available = names.contains(&SIMD_KERNEL);
    println!(
        "cpu features: {}",
        features
            .iter()
            .map(|(n, on)| format!("{n}={}", u8::from(*on)))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "kernels available: {} (simd-f32 {})\n",
        names.join(", "),
        if simd_available {
            "available"
        } else {
            "unavailable: no SIMD support detected or force-disabled"
        }
    );

    // Section 1: GEMM. Dense reference first for the context column.
    let t_dense = time_median(5, || {
        std::hint::black_box(layer.dequantize().matmul(&acts));
    });
    let mut gemm_table = Table::new(
        &format!("Kernel GEMM {d_row}x{d_col} @ batch {batch} (bb=2, ~3% outlier blocks)"),
        &["Kernel", "tolerance", "ms/pass", "speedup vs scalar"],
    );
    let mut gemm_times: Vec<(&'static str, f64)> = Vec::new();
    for kernel in &available {
        let t = time_median(9, || {
            let mut out = vec![0.0_f64; d_row * batch];
            kernel.gemm_rows(&ctx, &layer, &acts, 0, d_row, &mut out);
            std::hint::black_box(out);
        });
        gemm_times.push((kernel.name(), t));
    }
    let t_scalar = gemm_times
        .iter()
        .find(|(n, _)| *n == SCALAR_KERNEL)
        .expect("oracle timed")
        .1;
    gemm_table.row(vec![
        "dense dequantize+matmul".into(),
        "-".into(),
        format!("{:.3}", t_dense * 1e3),
        f2(t_scalar / t_dense),
    ]);
    for &(name, t) in &gemm_times {
        let tol = find(name).expect("available").tolerance();
        gemm_table.row(vec![
            name.to_string(),
            format!("{tol:?}"),
            format!("{:.3}", t * 1e3),
            f2(t_scalar / t),
        ]);
    }
    gemm_table.print();

    // Section 2: GEMV (m = 1), the per-step decode shape.
    let mut gemv_table = Table::new(
        &format!("Kernel GEMV {d_row}x{d_col} (m=1 decode shape)"),
        &["Kernel", "µs/pass", "speedup vs scalar"],
    );
    let mut gemv_times: Vec<(&'static str, f64)> = Vec::new();
    for kernel in &available {
        let t = time_median(15, || {
            let mut out = vec![0.0_f64; d_row];
            kernel.gemv(&ctx, &layer, &x, &mut out);
            std::hint::black_box(out);
        });
        gemv_times.push((kernel.name(), t));
    }
    let t_scalar_gemv = gemv_times
        .iter()
        .find(|(n, _)| *n == SCALAR_KERNEL)
        .expect("oracle timed")
        .1;
    for &(name, t) in &gemv_times {
        gemv_table.row(vec![
            name.to_string(),
            format!("{:.1}", t * 1e6),
            f2(t_scalar_gemv / t),
        ]);
    }
    gemv_table.print();

    let gemm_time = |name: &str| gemm_times.iter().find(|(n, _)| *n == name).map(|&(_, t)| t);
    let t_lane = gemm_time(LANE_KERNEL).expect("lane timed");
    let bucketed_speedup = t_scalar / gemm_time(BUCKETED_KERNEL).expect("bucketed timed");
    let gemv_time = |name: &str| gemv_times.iter().find(|(n, _)| *n == name).map(|&(_, t)| t);
    let t_lane_gemv = gemv_time(LANE_KERNEL).expect("lane gemv timed");

    // Acceptance gates. Each times its two sides alternately
    // (`paired_medians`), so a slow stretch of the host lands on both.
    let kernel = |name| find(name).expect("available");
    let (scalar, lane) = (kernel(SCALAR_KERNEL), kernel(LANE_KERNEL));
    let gemm_pass = |k: &dyn MicroKernel| {
        let mut out = vec![0.0_f64; d_row * batch];
        k.gemm_rows(&ctx, &layer, &acts, 0, d_row, &mut out);
        std::hint::black_box(out);
    };
    let gemv_pass = |k: &dyn MicroKernel| {
        let mut out = vec![0.0_f64; d_row];
        k.gemv(&ctx, &layer, &x, &mut out);
        std::hint::black_box(out);
    };
    // Gate 1: the lane-blocked f32 kernel against the scalar oracle on
    // the 512×2048 GEMM.
    let lane_speedup = gate(
        &format!("lane-f32 vs scalar-f64 on {d_row}x{d_col}@b{batch}"),
        1.5,
        9,
        || gemm_pass(scalar),
        || gemm_pass(lane),
    );
    // Gate 2: the same bar on the m=1 GEMV path — the shape every
    // per-step decode collapses to, and the one the Fast serving tier
    // runs on hosts without SIMD, so it must not silently regress.
    let lane_gemv_speedup = gate(
        &format!("lane-f32 vs scalar-f64 on {d_row}x{d_col} GEMV (m=1)"),
        1.5,
        15,
        || gemv_pass(scalar),
        || gemv_pass(lane),
    );
    // Gate 3 (conditional): when the SIMD kernel is available, it must beat
    // the lane kernel by ≥ 2× on the decode GEMV. On SIMD-less hosts (or
    // the CI leg with MICROSCOPIQ_SIMD=off) the gate reports n/a and does
    // not fail.
    let simd_gemv_speedup = find(SIMD_KERNEL).map(|simd| {
        gate(
            &format!("simd-f32 vs lane-f32 on {d_row}x{d_col} GEMV (m=1)"),
            2.0,
            15,
            || gemv_pass(lane),
            || gemv_pass(simd),
        )
    });
    if simd_gemv_speedup.is_none() {
        println!("acceptance: simd-f32 vs lane-f32 — n/a (kernel not available)");
    }

    let mut metrics: Vec<(&str, f64)> = vec![
        ("gemm_ms_dense", t_dense * 1e3),
        ("gemm_ms_scalar", t_scalar * 1e3),
        ("gemm_ms_lane", t_lane * 1e3),
        ("gemm_speedup_lane_vs_scalar", lane_speedup),
        ("gemm_speedup_bucketed_vs_scalar", bucketed_speedup),
        ("gemv_us_scalar", t_scalar_gemv * 1e6),
        ("gemv_us_lane", t_lane_gemv * 1e6),
        ("gemv_speedup_lane_vs_scalar", lane_gemv_speedup),
    ];
    if let Some(t) = gemv_time(SIMD_KERNEL) {
        metrics.push(("gemv_us_simd", t * 1e6));
        metrics.push(("gemv_speedup_simd_vs_scalar", t_scalar_gemv / t));
    }
    if let Some(s) = simd_gemv_speedup {
        metrics.push(("gemv_speedup_simd_vs_lane", s));
    }
    // Host capability + availability block: which features the host has
    // and which kernels are available, so a JSON artifact from the
    // SIMD-off CI leg is self-describing.
    for (name, on) in &features {
        metrics.push(match *name {
            "avx2" => ("feature_avx2", f64::from(u8::from(*on))),
            "fma" => ("feature_fma", f64::from(u8::from(*on))),
            _ => ("feature_neon", f64::from(u8::from(*on))),
        });
    }
    for (key, kernel) in [
        ("kernel_available_scalar", SCALAR_KERNEL),
        ("kernel_available_lane", LANE_KERNEL),
        ("kernel_available_simd", SIMD_KERNEL),
    ] {
        metrics.push((key, f64::from(u8::from(names.contains(&kernel)))));
    }
    let split_metrics = split_break_even();
    metrics.extend(split_metrics.iter().map(|(k, v)| (k.as_str(), *v)));
    gemm_table.write_json("kernels", &metrics);
}
