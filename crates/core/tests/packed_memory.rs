//! Heap bytes a packed layer holds, counted by a global allocator that
//! tallies what each thread has requested and not yet freed.
//!
//! The packed format's point is to move fewer weight bytes; a layer held
//! in memory must therefore stay near its serialized size (≈ 0.85 B per
//! weight at w4), not pay an allocation per macro- or micro-block. The
//! budget asserted here, 1.5 B per weight, leaves room for one code byte
//! per slot plus the per-group scale, the outlier bits and the outlier
//! side table.
//!
//! This file holds one test, so no other test's allocations share the
//! process while it counts (the tally is per thread regardless).

use microscopiq_core::config::QuantConfig;
use microscopiq_core::solver::solve;
use microscopiq_core::traits::LayerTensors;
use microscopiq_linalg::{Matrix, SeededRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

/// Forwards to the system allocator and tallies requested bytes per thread.
struct Counting;

// SAFETY: every call forwards unchanged to `System`; the tally touches
// only a const-initialized thread-local without a destructor, which
// neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

/// A 256 × 256 layer with a normal body and ≈ 1% large weights, packed by
/// the solver at block 64 (the served models' geometry).
fn held_bytes_per_weight(bits: u32, seed: u64) -> (f64, f64) {
    let (d_row, d_col) = (256, 256);
    let mut rng = SeededRng::new(seed);
    let mut w = Matrix::from_fn(d_row, d_col, |_, _| rng.normal(0.0, 0.02));
    for _ in 0..d_row * d_col / 100 {
        let (r, c) = (rng.below(d_row), rng.below(d_col));
        w[(r, c)] = rng.sign() * rng.uniform_range(0.15, 0.4);
    }
    let x = Matrix::from_fn(d_col, 32, |_, _| rng.normal(0.0, 1.0));
    let tensors = LayerTensors::new(w, x).unwrap();
    let cfg = QuantConfig::builder(bits)
        .macro_block(64)
        .row_block(64)
        .build()
        .unwrap();
    let before = live_bytes();
    let packed = solve(&tensors, &cfg).unwrap().packed.unwrap();
    let held = live_bytes() - before;
    let fraction = packed.outlier_micro_block_fraction();
    drop(packed);
    (held as f64 / (d_row * d_col) as f64, fraction)
}

#[test]
fn packed_layer_holds_at_most_one_and_a_half_bytes_per_weight() {
    for bits in [4, 2] {
        let (per_weight, fraction) = held_bytes_per_weight(bits, 17);
        println!("w{bits}: {per_weight:.3} heap B/weight, outlier micro-blocks {fraction:.3}");
        assert!(
            fraction > 0.02,
            "w{bits}: the layer should carry outliers ({fraction})"
        );
        assert!(
            per_weight <= 1.5,
            "w{bits}: {per_weight:.2} heap bytes per weight (outlier micro-blocks {fraction:.3})"
        );
    }
}
