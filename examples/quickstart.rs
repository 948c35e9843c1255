//! Quickstart: quantize one linear layer with MicroScopiQ and inspect the
//! result — outlier preservation, effective bit width, packed layout.
//!
//! Run with: `cargo run --release --example quickstart`

use microscopiq::core::traits::{LayerTensors, WeightQuantizer};
use microscopiq::core::{MicroScopiQ, QuantConfig};
use microscopiq_linalg::{Matrix, SeededRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A synthetic layer: Gaussian body (σ = 0.02) plus a few large
    // outliers, the weight structure that breaks plain low-bit formats.
    let mut rng = SeededRng::new(42);
    let mut weights = Matrix::from_fn(64, 256, |_, _| rng.normal(0.0, 0.02));
    let outliers = [(3usize, 17usize, 0.35), (10, 140, -0.28), (40, 200, 0.22)];
    for &(r, c, v) in &outliers {
        weights[(r, c)] = v;
    }
    // Calibration must cover the input space: with fewer samples than
    // input dims the GPTQ Hessian is rank-deficient and compensation can
    // push errors into unobserved directions, which an error measured on
    // the calibration inputs themselves would not show.
    let calibration = Matrix::from_fn(256, 384, |_, _| rng.normal(0.0, 1.0));
    let layer = LayerTensors::new(weights, calibration)?;

    // The paper's W2 configuration: MX-INT-2_128 inliers, MX-FP-4_{8,8}
    // outliers, Hessian pruning + redistribution, GPTQ compensation.
    let quantizer = MicroScopiQ::new(QuantConfig::w2().build()?);
    let result = quantizer.quantize_layer(&layer)?;

    println!("== MicroScopiQ W2 quantization ==");
    println!("output error : {:.4}", result.output_error(&layer));
    println!("weight error : {:.4}", result.weight_error(&layer));
    println!(
        "EBW          : {:.2} bits/element (paper reports ≈2.36)",
        result.stats.effective_bit_width
    );
    println!(
        "outliers     : {:.2}% of weights, {:.2}% of μBs carry metadata",
        result.stats.outlier_fraction * 100.0,
        result.stats.outlier_micro_block_fraction * 100.0
    );

    println!("\noutlier reconstruction at 2-bit budget:");
    for &(r, c, v) in &outliers {
        let dq = result.dequantized[(r, c)];
        println!(
            "  w[{r:>2},{c:>3}] = {v:+.3} → {dq:+.3} ({:+.1}% error)",
            (dq - v) / v * 100.0
        );
    }

    // The packed layout round-trips through bytes (off-chip format, Fig. 5).
    let packed = result.packed.as_ref().expect("default mode packs");
    let bytes = packed.to_bytes();
    println!(
        "\npacked size  : {} bytes for {} weights ({:.2} bits/element incl. container)",
        bytes.len(),
        64 * 256,
        bytes.len() as f64 * 8.0 / (64.0 * 256.0)
    );
    let restored = microscopiq::core::packed::PackedLayer::from_bytes(&bytes)?;
    assert_eq!(restored.dequantize(), packed.dequantize());
    println!("byte round-trip: OK (bit-exact)");
    Ok(())
}
