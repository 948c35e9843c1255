//! Property tests: the fused runtime must match the dequantize-then-matmul
//! dense reference over random layer geometries, bit budgets and outlier
//! densities — bitwise for the uncached paths, within
//! the 1e-9 contract for the bucketed cached path.

use microscopiq_core::config::QuantConfig;
use microscopiq_core::solver::solve;
use microscopiq_core::traits::LayerTensors;
use microscopiq_linalg::{Matrix, SeededRng};
use microscopiq_runtime::{fused_gemm_serial, EngineConfig, RuntimeEngine, Tier};
use proptest::prelude::*;

fn build_packed(
    rows: usize,
    cols: usize,
    bits: u32,
    outlier_rate: f64,
    seed: u64,
) -> microscopiq_core::packed::PackedLayer {
    let mut rng = SeededRng::new(seed);
    let mut w = Matrix::from_fn(rows, cols, |_, _| rng.normal(0.0, 0.02));
    let n_out = ((rows * cols) as f64 * outlier_rate).round() as usize;
    for _ in 0..n_out {
        let r = rng.below(rows);
        let c = rng.below(cols);
        w[(r, c)] = rng.sign() * rng.uniform_range(0.15, 0.5);
    }
    let x = Matrix::from_fn(cols, 8, |_, _| rng.normal(0.0, 1.0));
    let layer = LayerTensors::new(w, x).unwrap();
    let cfg = QuantConfig::builder(bits)
        .macro_block(16)
        .row_block(16)
        .build()
        .unwrap();
    solve(&layer, &cfg).unwrap().packed.unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Runtime-vs-dense GEMM parity: max abs diff < 1e-9 (in fact 0) for
    /// every engine flavour, across bit budgets and outlier rates.
    #[test]
    fn fused_engines_match_dense_reference(
        seed in 0u64..1000,
        rows_blocks in 1usize..4,
        cols_blocks in 1usize..4,
        batch in 1usize..12,
        bits in prop_oneof![Just(2u32), Just(4u32)],
        rate in prop_oneof![Just(0.0), 0.005f64..0.08],
    ) {
        let rows = rows_blocks * 16;
        let cols = cols_blocks * 16;
        let packed = build_packed(rows, cols, bits, rate, seed);
        let mut rng = SeededRng::new(seed ^ 0xABCD);
        let acts = Matrix::from_fn(cols, batch, |_, _| rng.normal(0.0, 1.0));
        let dense = packed.dequantize().matmul(&acts);

        let serial = fused_gemm_serial(&packed, &acts);
        let mut max_diff = 0.0_f64;
        for (a, b) in serial.as_slice().iter().zip(dense.as_slice().iter()) {
            max_diff = max_diff.max((a - b).abs());
        }
        prop_assert!(max_diff < 1e-9, "serial diff {}", max_diff);
        prop_assert_eq!(&serial, &dense);

        let parallel = RuntimeEngine::new(EngineConfig {
            threads: 4,
            tier: Tier::Exact { cache_bytes: 0 },
            parallel_threshold: 0,
        })
        .gemm(&packed, &acts);
        prop_assert_eq!(&parallel, &dense);

        // The cached engine reassociates per-bucket partial sums, so it
        // matches to the runtime's 1e-9 contract rather than bitwise; a
        // warm second pass must repeat the cold pass exactly.
        let cached = RuntimeEngine::new(EngineConfig {
            threads: 2,
            tier: Tier::Exact { cache_bytes: 1 << 20 },
            parallel_threshold: 0,
        });
        let cold = cached.gemm(&packed, &acts);
        let mut cached_diff = 0.0_f64;
        for (a, b) in cold.as_slice().iter().zip(dense.as_slice().iter()) {
            cached_diff = cached_diff.max((a - b).abs());
        }
        prop_assert!(cached_diff < 1e-9, "cached diff {}", cached_diff);
        prop_assert_eq!(&cached.gemm(&packed, &acts), &cold);

        // The fast tier (simd-f32, or lane-f32 without SIMD) must hold
        // whichever kernel it picks to that kernel's pinned tolerance.
        let fast = RuntimeEngine::new(EngineConfig {
            threads: 1,
            tier: Tier::Fast,
            parallel_threshold: usize::MAX,
        });
        let picked = fast.kernel();
        let tol = picked.tolerance();
        let lane = fast.gemm(&packed, &acts);
        for (a, b) in lane.as_slice().iter().zip(dense.as_slice().iter()) {
            prop_assert!(
                tol.accepts(*a, *b),
                "fast-tier kernel {} off by {} (allowed {})",
                picked.name(),
                (a - b).abs(),
                tol.allowed(*b)
            );
        }
    }

    /// A cache too small to hold the working set still computes exact
    /// results (evictions must never corrupt tiles).
    #[test]
    fn thrashing_cache_stays_exact(seed in 0u64..500) {
        let packed = build_packed(32, 48, 2, 0.03, seed);
        let mut rng = SeededRng::new(seed);
        let acts = Matrix::from_fn(48, 5, |_, _| rng.normal(0.0, 1.0));
        let engine = RuntimeEngine::new(EngineConfig {
            threads: 2,
            tier: Tier::Exact { cache_bytes: 1024 }, // far below the decoded working set
            parallel_threshold: 0,
        });
        let dense = packed.dequantize().matmul(&acts);
        for _pass in 0..2 {
            let got = engine.gemm(&packed, &acts);
            let mut diff = 0.0_f64;
            for (a, b) in got.as_slice().iter().zip(dense.as_slice().iter()) {
                diff = diff.max((a - b).abs());
            }
            prop_assert!(diff < 1e-9, "thrashing diff {}", diff);
        }
        let stats = engine.cache_stats().expect("cache enabled");
        prop_assert!(stats.evictions > 0, "cap must force eviction");
    }
}
