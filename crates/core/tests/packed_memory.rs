//! Heap bytes a packed layer holds, and the heap's high-water mark while
//! the solver builds one, counted by a global allocator that tallies what
//! each thread has requested and not yet freed.
//!
//! The packed format's point is to move fewer weight bytes; a layer held
//! in memory must therefore stay near its serialized size (≈ 0.85 B per
//! weight at w4), not pay an allocation per macro- or micro-block. The
//! budget asserted here, 1.5 B per weight, leaves room for one code byte
//! per slot plus the per-group scale, the outlier bits and the outlier
//! side table.
//!
//! Building the layer must not need a second, larger form of it either:
//! the solver writes codes, scales and outlier metadata straight into the
//! layer's flat arrays, so its peak heap is the working matrices, the
//! Hessian state and about one byte per weight of packed layer.
//!
//! The tally is per thread, so tests running side by side in this
//! process do not see each other's allocations.

use microscopiq_core::config::QuantConfig;
use microscopiq_core::solver::solve;
use microscopiq_core::traits::LayerTensors;
use microscopiq_linalg::{Matrix, SeededRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

/// Forwards to the system allocator and tallies requested bytes per thread.
struct Counting;

// SAFETY: every call forwards unchanged to `System`; the tally touches
// only const-initialized thread-locals without a destructor, which
// neither allocate nor re-enter the allocator.
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

/// Restarts this thread's high-water mark at the bytes live now.
fn reset_peak() {
    PEAK.with(|peak| peak.set(live_bytes()));
}

fn peak_bytes() -> isize {
    PEAK.with(Cell::get)
}

/// Heap bytes per weight of one solver run.
struct Measured {
    /// Held by the packed layer `solve` returns.
    held: f64,
    /// The high-water mark above the heap in use before `solve`.
    peak: f64,
    /// The layer's outlier micro-block fraction.
    fraction: f64,
}

/// A 256 × 256 layer with a normal body and ≈ 1% large weights, packed by
/// the solver at block 64 (the served models' geometry).
fn measure_solve(bits: u32, seed: u64) -> Measured {
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
    reset_peak();
    let packed = solve(&tensors, &cfg).unwrap().packed.unwrap();
    let held = live_bytes() - before;
    let peak = peak_bytes() - before;
    let fraction = packed.outlier_micro_block_fraction();
    drop(packed);
    let weights = (d_row * d_col) as f64;
    Measured {
        held: held as f64 / weights,
        peak: peak as f64 / weights,
        fraction,
    }
}

#[test]
fn packed_layer_holds_at_most_one_and_a_half_bytes_per_weight() {
    for bits in [4, 2] {
        let m = measure_solve(bits, 17);
        println!(
            "w{bits}: {:.3} heap B/weight held, outlier micro-blocks {:.3}",
            m.held, m.fraction
        );
        assert!(
            m.fraction > 0.02,
            "w{bits}: the layer should carry outliers ({})",
            m.fraction
        );
        assert!(
            m.held <= 1.5,
            "w{bits}: {:.2} heap bytes per weight (outlier micro-blocks {:.3})",
            m.held,
            m.fraction
        );
    }
}

#[test]
fn solve_peak_heap_has_no_second_copy_of_the_layer() {
    for bits in [4, 2] {
        let m = measure_solve(bits, 17);
        println!("w{bits}: {:.2} heap B/weight at solve's peak", m.peak);
        assert!(
            m.peak <= 41.0,
            "w{bits}: solve's heap peaked at {:.2} bytes per weight",
            m.peak
        );
    }
}
