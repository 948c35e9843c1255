//! Cross-crate integration tests: synthesize → quantize → pack → execute
//! on the accelerator → verify, plus method-ordering invariants across the
//! full stack.

use microscopiq::accel::array::{execute_gemm, QuantizedActs};
use microscopiq::baselines::{Gobo, Gptq, Olive, Rtn};
use microscopiq::core::config::{GroupAxis, QuantConfig};
use microscopiq::core::packed::PackedLayer;
use microscopiq::core::solver::solve;
use microscopiq::core::traits::LayerTensors;
use microscopiq::core::MicroScopiQ;
use microscopiq::fm::synth::synthesize_layer;
use microscopiq::fm::{evaluate_weight_only, model};
use microscopiq::linalg::{Matrix, SeededRng};

/// A small zoo layer for fast integration runs.
fn small_spec() -> microscopiq::fm::ModelSpec {
    let mut spec = model("LLaMA-3-8B");
    for l in &mut spec.layers {
        l.d_row = (l.d_row / 4).max(32);
        l.d_col = (l.d_col / 4).max(64);
    }
    spec
}

#[test]
fn synthetic_model_quantizes_end_to_end() {
    let spec = small_spec();
    let ms = MicroScopiQ::w2();
    let eval = evaluate_weight_only(&spec, &ms, 32).expect("evaluation");
    assert!(eval.mean_output_error() > 0.0 && eval.mean_output_error() < 1.0);
    assert!(eval.mean_ebw() >= 2.0 && eval.mean_ebw() < 4.0);
    assert!(eval.mean_outlier_fraction() > 0.0);
}

#[test]
fn microscopiq_beats_samewidth_baselines_on_outlier_tensors() {
    // The paper's core accuracy claim at 2 bits.
    let spec = small_spec();
    let ms = evaluate_weight_only(&spec, &MicroScopiQ::w2(), 32)
        .unwrap()
        .mean_output_error();
    let rtn = evaluate_weight_only(&spec, &Rtn::group(2, 128), 32)
        .unwrap()
        .mean_output_error();
    let olive2 = evaluate_weight_only(&spec, &Olive::new(2), 32)
        .unwrap()
        .mean_output_error();
    assert!(ms < rtn, "MicroScopiQ {ms} must beat RTN {rtn}");
    assert!(ms < olive2, "MicroScopiQ {ms} must beat OliVe {olive2}");
}

#[test]
fn microscopiq_w2_competes_with_gptq_w4_ebw() {
    // W2 MicroScopiQ's EBW (≈2.4) is far below GPTQ-W4's 4 bits while its
    // error stays in the same decade — the compression story of Table 1.
    let spec = small_spec();
    let ms = evaluate_weight_only(&spec, &MicroScopiQ::w2(), 32).unwrap();
    let gptq = evaluate_weight_only(&spec, &Gptq::new(4, 128), 32).unwrap();
    assert!(ms.mean_ebw() < gptq.mean_ebw() * 0.75);
    assert!(ms.mean_output_error() < gptq.mean_output_error() * 6.0);
}

#[test]
fn gobo_accuracy_high_but_ebw_high() {
    // Group-A tradeoff: GOBO must be accurate and expensive.
    let spec = small_spec();
    let gobo = evaluate_weight_only(&spec, &Gobo::new(4), 32).unwrap();
    let ms = evaluate_weight_only(&spec, &MicroScopiQ::w4(), 32).unwrap();
    assert!(gobo.mean_ebw() > ms.mean_ebw(), "GOBO pays side-band EBW");
}

#[test]
fn quantize_pack_serialize_execute_is_exact() {
    // The full hardware path: quantize (hardware axis) → pack → bytes →
    // unpack → functional array GEMM == dequantized reference.
    let spec = small_spec();
    let layer_spec = &spec.layers[0];
    let w = synthesize_layer(&spec, layer_spec);
    let mut rng = SeededRng::new(5);
    let x = Matrix::from_fn(w.cols(), 32, |_, _| rng.normal(0.0, 1.0));
    let layer = LayerTensors::new(w, x).unwrap();
    let cfg = QuantConfig::w2()
        .group_axis(GroupAxis::OutputChannel)
        .build()
        .unwrap();
    let packed = solve(&layer, &cfg).unwrap().packed.unwrap();
    let restored = PackedLayer::from_bytes(&packed.to_bytes()).unwrap();
    let acts = QuantizedActs::from_f64(&Matrix::from_fn(layer.d_col(), 4, |_, _| {
        rng.normal(0.0, 1.0)
    }));
    let exec = execute_gemm(&restored, &acts);
    let reference = restored.dequantize().matmul(&acts.dequantize());
    assert!(
        exec.outputs.frobenius_distance(&reference) < 1e-9,
        "array execution must be bit-exact after serialization round-trip"
    );
    assert!(exec.counters.merges > 0, "workload must exercise ReCoN");
}

#[test]
fn both_axes_agree_on_error_magnitude() {
    // The grouping-axis choice (dot-product for accuracy runs, output
    // channel for the accelerator) shifts errors slightly but not
    // qualitatively.
    let spec = small_spec();
    let layer_spec = &spec.layers[0];
    let w = synthesize_layer(&spec, layer_spec);
    let mut rng = SeededRng::new(9);
    let x = Matrix::from_fn(w.cols(), 48, |_, _| rng.normal(0.0, 1.0));
    let layer = LayerTensors::new(w, x).unwrap();
    let err = |axis| {
        let cfg = QuantConfig::w2().group_axis(axis).build().unwrap();
        let out = solve(&layer, &cfg).unwrap();
        layer.weights.frobenius_distance(&out.dequantized) / layer.weights.frobenius_norm()
    };
    let dot = err(GroupAxis::DotProduct);
    let oc = err(GroupAxis::OutputChannel);
    // The synthesized outlier layout makes OutputChannel grouping pay a
    // consistent 2–3× penalty at 2 bits (block maxima absorb row outliers),
    // so "same magnitude" here means within one decade, not within 2×.
    assert!(
        (dot / oc) > 0.1 && (dot / oc) < 10.0,
        "axes diverge: dot={dot} oc={oc}"
    );
    assert!(dot.is_finite() && oc.is_finite());
}
