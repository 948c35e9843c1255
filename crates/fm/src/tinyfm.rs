//! TinyFM: a small, fully functional pure-Rust transformer LM used for
//! honest end-to-end perplexity measurements (DESIGN.md §2).
//!
//! A randomly initialized *teacher* (with FM-style weight outliers
//! injected) generates token sequences; a quantized *student* is evaluated
//! by cross-entropy on that data. Since the teacher is the data's true
//! distribution, `CE(student) = H(teacher) + KL(teacher‖student)` in
//! expectation, so the perplexity ratio `exp(CE_s − CE_t)` isolates pure
//! quantization damage — no proxy mapping involved.

use crate::decode::{self, DecodeJob, DecodeState};
use microscopiq_core::error::QuantError;
use microscopiq_core::kv_cache::KvMode;
use microscopiq_core::traits::{LayerTensors, WeightQuantizer};
use microscopiq_linalg::{Matrix, SeededRng};

/// Architecture of a TinyFM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TinyFmConfig {
    /// Residual width.
    pub d_model: usize,
    /// Attention heads (must divide `d_model`).
    pub n_heads: usize,
    /// FFN width.
    pub d_ff: usize,
    /// Transformer blocks.
    pub n_layers: usize,
    /// Vocabulary size.
    pub vocab: usize,
}

impl Default for TinyFmConfig {
    fn default() -> Self {
        Self {
            d_model: 64,
            n_heads: 4,
            d_ff: 128,
            n_layers: 2,
            vocab: 128,
        }
    }
}

/// One transformer block's weights.
#[derive(Debug, Clone)]
pub(crate) struct Block {
    pub(crate) ln1: Vec<f64>,
    pub(crate) wq: Matrix,
    pub(crate) wk: Matrix,
    pub(crate) wv: Matrix,
    pub(crate) wo: Matrix,
    pub(crate) ln2: Vec<f64>,
    pub(crate) w_up: Matrix,
    pub(crate) w_down: Matrix,
}

/// The linear layers of a TinyFM, addressable for quantization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinearId {
    /// Query projection of block `n`.
    Wq(usize),
    /// Key projection of block `n`.
    Wk(usize),
    /// Value projection of block `n`.
    Wv(usize),
    /// Output projection of block `n`.
    Wo(usize),
    /// FFN up projection of block `n`.
    WUp(usize),
    /// FFN down projection of block `n`.
    WDown(usize),
}

/// A functional tiny transformer LM.
#[derive(Debug, Clone)]
pub struct TinyFm {
    pub(crate) cfg: TinyFmConfig,
    pub(crate) embed: Matrix, // vocab × d_model (tied with the LM head)
    pub(crate) blocks: Vec<Block>,
    pub(crate) ln_f: Vec<f64>,
}

pub(crate) fn rmsnorm_col(h: &mut [f64], gains: &[f64]) {
    let ms = h.iter().map(|v| v * v).sum::<f64>() / h.len() as f64;
    let inv = 1.0 / (ms + 1e-6).sqrt();
    for (v, g) in h.iter_mut().zip(gains.iter()) {
        *v *= inv * g;
    }
}

pub(crate) fn silu(x: f64) -> f64 {
    x / (1.0 + (-x).exp())
}

impl TinyFm {
    /// Creates a randomly initialized teacher with FM-style outliers
    /// (≈1.2% of weights, matching FM statistics).
    pub fn teacher(cfg: TinyFmConfig, seed: u64) -> Self {
        let d = cfg.d_model;
        Self::teacher_with_outliers(cfg, seed, (d * d) / 80)
    }

    /// Creates a randomly initialized teacher with an explicit outlier
    /// count per attention projection (FFN projections get twice as
    /// many, scaling with their size). `attn_outliers == 0` yields a
    /// purely Gaussian, outlier-free model — useful for isolating
    /// outlier effects in quantization/decode tests.
    pub fn teacher_with_outliers(cfg: TinyFmConfig, seed: u64, attn_outliers: usize) -> Self {
        assert!(
            cfg.d_model.is_multiple_of(cfg.n_heads),
            "heads must divide d_model"
        );
        let mut rng = SeededRng::new(seed);
        let sigma = 1.0 / (cfg.d_model as f64).sqrt();
        let mk = |rows: usize, cols: usize, outliers: usize, rng: &mut SeededRng| {
            let mut w = Matrix::from_fn(rows, cols, |_, _| rng.normal(0.0, sigma));
            for _ in 0..outliers {
                let r = rng.below(rows);
                let c = rng.below(cols);
                w[(r, c)] = rng.sign() * rng.uniform_range(5.0, 12.0) * sigma;
            }
            w
        };
        let d = cfg.d_model;
        let n_out = attn_outliers;
        let blocks = (0..cfg.n_layers)
            .map(|_| Block {
                ln1: vec![1.0; d],
                wq: mk(d, d, n_out, &mut rng),
                wk: mk(d, d, n_out, &mut rng),
                wv: mk(d, d, n_out, &mut rng),
                wo: mk(d, d, n_out, &mut rng),
                ln2: vec![1.0; d],
                w_up: mk(cfg.d_ff, d, n_out * 2, &mut rng),
                w_down: mk(d, cfg.d_ff, n_out * 2, &mut rng),
            })
            .collect();
        let embed = Matrix::from_fn(cfg.vocab, d, |_, _| rng.normal(0.0, 1.0));
        Self {
            cfg,
            embed,
            blocks,
            ln_f: vec![1.0; d],
        }
    }

    /// The architecture.
    pub fn config(&self) -> TinyFmConfig {
        self.cfg
    }

    /// Borrows a linear layer's weights.
    pub fn weights(&self, id: LinearId) -> &Matrix {
        match id {
            LinearId::Wq(n) => &self.blocks[n].wq,
            LinearId::Wk(n) => &self.blocks[n].wk,
            LinearId::Wv(n) => &self.blocks[n].wv,
            LinearId::Wo(n) => &self.blocks[n].wo,
            LinearId::WUp(n) => &self.blocks[n].w_up,
            LinearId::WDown(n) => &self.blocks[n].w_down,
        }
    }

    /// Every linear layer in forward order.
    pub fn linear_ids(&self) -> Vec<LinearId> {
        (0..self.cfg.n_layers)
            .flat_map(|n| {
                [
                    LinearId::Wq(n),
                    LinearId::Wk(n),
                    LinearId::Wv(n),
                    LinearId::Wo(n),
                    LinearId::WUp(n),
                    LinearId::WDown(n),
                ]
            })
            .collect()
    }

    /// Runs the model over a token sequence, returning logits
    /// (`vocab × T`) and, when `trace` is set, the input activations of
    /// every linear layer (`d_in × T` each, in [`TinyFm::linear_ids`]
    /// order). One pass through the shared decode path with a fresh
    /// exact-KV state.
    fn forward_inner(&self, tokens: &[usize], trace: bool) -> (Matrix, Vec<Matrix>) {
        let mut traces = Vec::new();
        let mut state = DecodeState::exact(self.cfg);
        let logits = decode::advance_batch(
            self,
            &mut [DecodeJob {
                state: &mut state,
                tokens,
            }],
            trace.then_some(&mut traces),
        )
        .pop()
        .expect("one job in, one logit matrix out");
        (logits, traces)
    }

    /// Logits (`vocab × T`) for a token sequence.
    ///
    /// # Panics
    ///
    /// Panics if any token is outside the vocabulary.
    pub fn forward(&self, tokens: &[usize]) -> Matrix {
        self.forward_inner(tokens, false).0
    }

    /// Processes a whole prompt in one pass, returning the decode state
    /// (per-block KV caches) and the prompt logits (`vocab × T`).
    /// Follow with [`TinyFm::decode_step`] for O(prefix) per-token decode;
    /// in [`KvMode::Exact`] the results are bit-identical to re-running
    /// [`TinyFm::forward`] over the growing sequence.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidConfig`] for an invalid quantized KV
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or any token is out of vocabulary.
    pub fn prefill(
        &self,
        tokens: &[usize],
        mode: KvMode,
    ) -> Result<(DecodeState, Matrix), QuantError> {
        let mut state = DecodeState::new(self.cfg, mode)?;
        let logits = decode::advance_batch(
            self,
            &mut [DecodeJob {
                state: &mut state,
                tokens,
            }],
            None,
        )
        .pop()
        .expect("one job in, one logit matrix out");
        Ok((state, logits))
    }

    /// Chunked prefill: processes the prompt in segments of at most
    /// `chunk` tokens, resuming the KV caches between segments. In
    /// [`KvMode::Exact`] the state and logits are bit-identical to
    /// [`TinyFm::prefill`] for any `chunk` (see
    /// [`PackedTinyFm::prefill_chunked`](crate::PackedTinyFm::prefill_chunked)
    /// for the full contract).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidConfig`] for an invalid quantized KV
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty, any token is out of vocabulary, or
    /// `chunk` is zero.
    pub fn prefill_chunked(
        &self,
        tokens: &[usize],
        mode: KvMode,
        chunk: usize,
    ) -> Result<(DecodeState, Matrix), QuantError> {
        decode::prefill_chunked(self, tokens, mode, chunk)
    }

    /// Advances an incremental decode state by one token, returning the
    /// logits (`vocab` values) at the new position.
    ///
    /// # Panics
    ///
    /// Panics if the token is out of vocabulary or the state was built
    /// for a different architecture.
    pub fn decode_step(&self, state: &mut DecodeState, token: usize) -> Vec<f64> {
        decode::advance_batch(
            self,
            &mut [DecodeJob {
                state,
                tokens: &[token],
            }],
            None,
        )
        .pop()
        .expect("one job in, one logit matrix out")
        .col(0)
    }

    /// Samples a sequence of the given length from the model, decoding
    /// incrementally (one prefill, then one KV-cached step per token —
    /// bit-identical to full-prefix recompute in exact mode).
    pub fn generate(&self, len: usize, temperature: f64, rng: &mut SeededRng) -> Vec<usize> {
        let mut tokens = vec![rng.below(self.cfg.vocab)];
        if tokens.len() >= len {
            return tokens;
        }
        let (mut state, logits) = self
            .prefill(&tokens, KvMode::Exact)
            .expect("exact KV mode is always valid");
        let mut last = logits.col(logits.cols() - 1);
        while tokens.len() < len {
            let tok = crate::packed::sample_logits(&last, temperature, rng);
            tokens.push(tok);
            if tokens.len() < len {
                last = self.decode_step(&mut state, tok);
            }
        }
        tokens
    }

    /// Mean next-token cross-entropy (nats) over a set of sequences.
    pub fn cross_entropy(&self, sequences: &[Vec<usize>]) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for seq in sequences {
            if seq.len() < 2 {
                continue;
            }
            let logits = self.forward(seq);
            for t in 0..seq.len() - 1 {
                let target = seq[t + 1];
                let col: Vec<f64> = (0..self.cfg.vocab).map(|v| logits[(v, t)]).collect();
                let max = col.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
                let log_z = col.iter().map(|&v| (v - max).exp()).sum::<f64>().ln() + max;
                total += log_z - col[target];
                count += 1;
            }
        }
        total / count.max(1) as f64
    }

    /// Perplexity `exp(CE)` over sequences.
    pub fn perplexity(&self, sequences: &[Vec<usize>]) -> f64 {
        self.cross_entropy(sequences).exp()
    }

    /// Collects calibration activations for every linear layer by running
    /// the model over the given sequences (inputs concatenated along the
    /// token axis).
    pub fn collect_calibration(&self, sequences: &[Vec<usize>]) -> Vec<Matrix> {
        let ids = self.linear_ids();
        let mut per_linear: Vec<Vec<Matrix>> = vec![Vec::new(); ids.len()];
        for seq in sequences {
            let (_, traces) = self.forward_inner(seq, true);
            for (i, tr) in traces.into_iter().enumerate() {
                per_linear[i].push(tr);
            }
        }
        per_linear
            .into_iter()
            .map(|mats| {
                let rows = mats[0].rows();
                let cols: usize = mats.iter().map(|m| m.cols()).sum();
                let mut x = Matrix::zeros(rows, cols);
                let mut off = 0;
                for m in mats {
                    for c in 0..m.cols() {
                        for r in 0..rows {
                            x[(r, off + c)] = m[(r, c)];
                        }
                    }
                    off += m.cols();
                }
                x
            })
            .collect()
    }

    /// Produces a quantized copy of the model: every linear layer is
    /// quantized with the given quantizer against calibration activations
    /// collected from `calib_sequences`. The (tied) embedding stays full
    /// precision, as is standard PTQ practice.
    ///
    /// # Errors
    ///
    /// Propagates quantizer errors.
    pub fn quantize_with(
        &self,
        quantizer: &dyn WeightQuantizer,
        calib_sequences: &[Vec<usize>],
    ) -> Result<TinyFm, QuantError> {
        let calib = self.collect_calibration(calib_sequences);
        let mut out = self.clone();
        for (id, x) in self.linear_ids().into_iter().zip(calib) {
            let layer = LayerTensors::new(self.weights(id).clone(), x)?;
            let q = quantizer.quantize_layer(&layer)?;
            let target = match id {
                LinearId::Wq(n) => &mut out.blocks[n].wq,
                LinearId::Wk(n) => &mut out.blocks[n].wk,
                LinearId::Wv(n) => &mut out.blocks[n].wv,
                LinearId::Wo(n) => &mut out.blocks[n].wo,
                LinearId::WUp(n) => &mut out.blocks[n].w_up,
                LinearId::WDown(n) => &mut out.blocks[n].w_down,
            };
            *target = q.dequantized;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microscopiq_core::{MicroScopiQ, QuantConfig};

    fn small() -> TinyFmConfig {
        TinyFmConfig {
            d_model: 32,
            n_heads: 2,
            d_ff: 64,
            n_layers: 2,
            vocab: 64,
        }
    }

    #[test]
    fn forward_shapes() {
        let fm = TinyFm::teacher(small(), 1);
        let logits = fm.forward(&[1, 2, 3, 4]);
        assert_eq!(logits.rows(), 64);
        assert_eq!(logits.cols(), 4);
        assert!(logits.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let fm = TinyFm::teacher(small(), 2);
        let mut r1 = SeededRng::new(7);
        let mut r2 = SeededRng::new(7);
        assert_eq!(fm.generate(12, 0.8, &mut r1), fm.generate(12, 0.8, &mut r2));
    }

    #[test]
    fn teacher_beats_uniform_on_own_data() {
        let fm = TinyFm::teacher(small(), 3);
        let mut rng = SeededRng::new(11);
        let data: Vec<Vec<usize>> = (0..8).map(|_| fm.generate(16, 0.8, &mut rng)).collect();
        let ce = fm.cross_entropy(&data);
        let uniform = (64f64).ln();
        assert!(ce < uniform, "teacher CE {ce} vs uniform {uniform}");
    }

    #[test]
    fn causality_holds() {
        // Changing a future token must not affect earlier logits.
        let fm = TinyFm::teacher(small(), 4);
        let a = fm.forward(&[5, 6, 7, 8]);
        let b = fm.forward(&[5, 6, 7, 9]);
        for v in 0..64 {
            for t in 0..3 {
                assert_eq!(a[(v, t)], b[(v, t)], "logit ({v},{t}) leaked future");
            }
        }
    }

    #[test]
    fn calibration_traces_have_linear_input_shapes() {
        let fm = TinyFm::teacher(small(), 5);
        let calib = fm.collect_calibration(&[vec![1, 2, 3], vec![4, 5, 6, 7]]);
        let ids = fm.linear_ids();
        assert_eq!(calib.len(), ids.len());
        for (id, x) in ids.iter().zip(calib.iter()) {
            assert_eq!(x.rows(), fm.weights(*id).cols(), "{id:?}");
            assert_eq!(x.cols(), 7);
        }
    }

    #[test]
    fn quantized_student_tracks_teacher() {
        let fm = TinyFm::teacher(small(), 6);
        let mut rng = SeededRng::new(13);
        let calib: Vec<Vec<usize>> = (0..4).map(|_| fm.generate(12, 0.8, &mut rng)).collect();
        let eval: Vec<Vec<usize>> = (0..6).map(|_| fm.generate(16, 0.8, &mut rng)).collect();
        let q = MicroScopiQ::new(
            QuantConfig::w4()
                .macro_block(32)
                .row_block(32)
                .build()
                .unwrap(),
        );
        let student = fm.quantize_with(&q, &calib).unwrap();
        let ce_t = fm.cross_entropy(&eval);
        let ce_s = student.cross_entropy(&eval);
        // W4 quantization should cost little; the ratio isolates KL damage.
        assert!(
            ce_s >= ce_t - 0.05,
            "student can't beat its teacher meaningfully"
        );
        assert!(
            ce_s - ce_t < 1.0,
            "W4 damage too large: {} vs {}",
            ce_s,
            ce_t
        );
    }
}
