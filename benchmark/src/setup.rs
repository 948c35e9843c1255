//! Set-up: build the teacher, calibrate, quantize and pack. The
//! quantizer is handed to the program through a timing wrapper, so the
//! split between the paper's algorithm (`core`) and calibration (`fm`)
//! is measured from outside on every build.

use crate::workloads::ModelSpec;
use microscopiq_core::{
    LayerTensors, MicroScopiQ, QuantConfig, QuantError, QuantizedLayer, WeightQuantizer,
};
use microscopiq_fm::{PackedTinyFm, TinyFm};
use microscopiq_linalg::SeededRng;
use std::cell::RefCell;
use std::time::Instant;

/// `MicroScopiQ` with each `quantize_layer` call timed.
struct TimedQuantizer {
    inner: MicroScopiQ,
    layer_s: RefCell<Vec<f64>>,
}

impl WeightQuantizer for TimedQuantizer {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn quantize_layer(&self, layer: &LayerTensors) -> Result<QuantizedLayer, QuantError> {
        let start = Instant::now();
        let out = self.inner.quantize_layer(layer);
        self.layer_s
            .borrow_mut()
            .push(start.elapsed().as_secs_f64());
        out
    }
}

pub struct Built {
    pub teacher: TinyFm,
    pub model: PackedTinyFm,
    /// Seconds inside `MicroScopiQ::quantize_layer`, one entry per linear.
    pub layer_s: Vec<f64>,
    /// `quantize_from` total minus the above: calibration forward passes
    /// and tensor plumbing.
    pub calibrate_s: f64,
}

pub fn build(spec: &ModelSpec) -> Built {
    let teacher = TinyFm::teacher(spec.cfg, spec.teacher_seed);
    let mut rng = SeededRng::new(spec.teacher_seed + 1);
    let calib: Vec<Vec<usize>> = (0..spec.calib.0)
        .map(|_| teacher.generate(spec.calib.1, 0.9, &mut rng))
        .collect();
    let config = QuantConfig::builder(spec.bits)
        .macro_block(spec.block)
        .row_block(spec.block)
        .build()
        .expect("workload quantizer configuration is valid");
    let quantizer = TimedQuantizer {
        inner: MicroScopiQ::new(config),
        layer_s: RefCell::new(Vec::new()),
    };
    let start = Instant::now();
    let model = PackedTinyFm::quantize_from(&teacher, &quantizer, &calib)
        .expect("workload model quantizes and packs");
    let total_s = start.elapsed().as_secs_f64();
    let layer_s = quantizer.layer_s.into_inner();
    let calibrate_s = total_s - layer_s.iter().sum::<f64>();
    Built {
        teacher,
        model,
        layer_s,
        calibrate_s,
    }
}
