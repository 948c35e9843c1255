//! Packed-weight TinyFM: a quantized model whose linear layers are stored
//! as [`PackedLayer`]s and executed through a pluggable [`PackedGemm`]
//! engine, never materializing dense weights inside the forward pass.
//!
//! This is the model half of the packed execution story: the engine half
//! (fused dequant-GEMM, block caching, parallel tiling) lives in
//! `microscopiq-runtime`, which implements [`PackedGemm`]. The
//! [`DequantGemm`] reference engine here dequantizes and calls the dense
//! matmul — it exists to define correctness: any engine must match it to
//! well under 1e-9 per logit.
//!
//! Batched execution packs sequences along the token axis (segment
//! packing): every linear layer runs one GEMM over the concatenated
//! activations while attention stays causal *within* each segment. Because
//! each output column of a GEMM depends only on its own input column, the
//! packed-batch forward is bit-identical to running each sequence alone.

use crate::decode::{self, DecodeJob, DecodeState, PackedOps};
use crate::tinyfm::{LinearId, TinyFm, TinyFmConfig};
use microscopiq_core::config::GroupAxis;
use microscopiq_core::error::QuantError;
use microscopiq_core::kv_cache::KvMode;
use microscopiq_core::packed::PackedLayer;
use microscopiq_core::traits::{LayerTensors, WeightQuantizer};
use microscopiq_linalg::{Matrix, SeededRng};
use std::sync::Arc;

/// Largest group (macro-block) a served layer may have, in slots. With
/// the `DotProduct` axis it makes up the served layout: the only one
/// [`PackedTinyFm::quantize_from`] accepts, and so the only one a
/// [`PackedGemm`] engine is handed by a model.
pub const MAX_GROUP: usize = 256;

/// A GEMM engine over packed weights: computes `W · acts` where `W` is the
/// packed `d_row × d_col` layer and `acts` is `d_col × n`.
pub trait PackedGemm {
    /// Engine name for reports.
    fn name(&self) -> &str {
        "packed-gemm"
    }

    /// Computes `W · acts`.
    fn matmul(&self, layer: &PackedLayer, acts: &Matrix) -> Matrix;

    /// Computes `W · x` for a single activation column — the shape every
    /// per-step decode pass collapses to. The default routes through
    /// [`PackedGemm::matmul`] on a one-column matrix (bit-identical by
    /// GEMM column independence); engines with a kernel dispatcher
    /// override it so GEMV-specialized kernels see the call.
    fn gemv(&self, layer: &PackedLayer, x: &[f64]) -> Vec<f64> {
        let acts = Matrix::from_vec(x.len(), 1, x.to_vec());
        self.matmul(layer, &acts).as_slice().to_vec()
    }

    /// Calls `part(i, parts[i])` once for every part: the per-head
    /// panels of one attention pass (see [`crate::decode`]). `work` is
    /// the job's multiply-adds, the unit `matmul` calls are sized in, so
    /// an engine with a thread pool can decide whether spreading the
    /// parts over it pays. The parts are disjoint and each one's result
    /// must not depend on the others, so any order or placement gives
    /// the same bits. The default runs them in order on the calling
    /// thread.
    fn run_parts(&self, work: usize, parts: Vec<&mut [f64]>, part: &PartFn<'_>) {
        let _ = work;
        run_parts_serially(parts, part);
    }

    /// Never called; kept for the frozen `benchmark/` package until ROADMAP 2(iv)'s benchmark PR.
    fn prefetch(&self, layer: &Arc<PackedLayer>) {
        let _ = layer;
    }
}

/// One part of a [`PackedGemm::run_parts`] job: `(index, the part's slice)`.
pub type PartFn<'a> = dyn Fn(usize, &mut [f64]) + Sync + 'a;

/// [`PackedGemm::run_parts`] on the calling thread, parts in order.
pub(crate) fn run_parts_serially(parts: Vec<&mut [f64]>, part: &PartFn<'_>) {
    for (i, p) in parts.into_iter().enumerate() {
        part(i, p);
    }
}

/// Reference engine: materialize the dense weights, then dense matmul.
/// Defines the correctness target for fused engines.
#[derive(Debug, Clone, Copy, Default)]
pub struct DequantGemm;

impl PackedGemm for DequantGemm {
    fn name(&self) -> &str {
        "dequantize-then-matmul"
    }

    fn matmul(&self, layer: &PackedLayer, acts: &Matrix) -> Matrix {
        layer.dequantize().matmul(acts)
    }
}

/// One transformer block with packed linear weights.
#[derive(Debug, Clone)]
pub(crate) struct PackedBlock {
    pub(crate) ln1: Vec<f64>,
    // Arc'd so model clones (one per fleet worker) share the packed bytes.
    wq: Arc<PackedLayer>,
    wk: Arc<PackedLayer>,
    wv: Arc<PackedLayer>,
    wo: Arc<PackedLayer>,
    pub(crate) ln2: Vec<f64>,
    w_up: Arc<PackedLayer>,
    w_down: Arc<PackedLayer>,
}

/// A TinyFM whose linear layers live in the packed MicroScopiQ format.
#[derive(Debug, Clone)]
pub struct PackedTinyFm {
    pub(crate) cfg: TinyFmConfig,
    pub(crate) embed: Matrix,
    pub(crate) blocks: Vec<PackedBlock>,
    pub(crate) ln_f: Vec<f64>,
}

impl PackedTinyFm {
    /// Quantizes a TinyFM into packed form: every linear layer is
    /// quantized against calibration activations collected from
    /// `calib_sequences`; the (tied) embedding stays full precision.
    ///
    /// # Errors
    ///
    /// Propagates quantizer errors, and returns
    /// [`QuantError::InvalidConfig`] if the quantizer does not produce a
    /// packed representation (only packable methods can feed the runtime)
    /// or packs a layer outside the served layout: `DotProduct` groups of
    /// at most [`MAX_GROUP`] slots.
    pub fn quantize_from(
        fm: &TinyFm,
        quantizer: &dyn WeightQuantizer,
        calib_sequences: &[Vec<usize>],
    ) -> Result<Self, QuantError> {
        let calib = fm.collect_calibration(calib_sequences);
        let mut packed: Vec<PackedLayer> = Vec::with_capacity(calib.len());
        for (id, x) in fm.linear_ids().into_iter().zip(calib) {
            let layer = LayerTensors::new(fm.weights(id).clone(), x)?;
            let q = quantizer.quantize_layer(&layer)?;
            let p = q.packed.ok_or_else(|| QuantError::InvalidConfig {
                reason: format!(
                    "quantizer {} produced no packed layer for {id:?}",
                    quantizer.name()
                ),
            })?;
            if p.axis() != GroupAxis::DotProduct || p.macro_block() > MAX_GROUP {
                return Err(QuantError::InvalidConfig {
                    reason: format!(
                        "{id:?} packs {:?} groups of {} slots; the runtime serves \
                         DotProduct groups of at most {MAX_GROUP}",
                        p.axis(),
                        p.macro_block()
                    ),
                });
            }
            packed.push(p);
        }
        let mut packed = packed.into_iter();
        let blocks = fm
            .blocks
            .iter()
            .map(|b| PackedBlock {
                ln1: b.ln1.clone(),
                wq: Arc::new(packed.next().expect("layer count")),
                wk: Arc::new(packed.next().expect("layer count")),
                wv: Arc::new(packed.next().expect("layer count")),
                wo: Arc::new(packed.next().expect("layer count")),
                ln2: b.ln2.clone(),
                w_up: Arc::new(packed.next().expect("layer count")),
                w_down: Arc::new(packed.next().expect("layer count")),
            })
            .collect();
        Ok(Self {
            cfg: fm.config(),
            embed: fm.embed.clone(),
            blocks,
            ln_f: fm.ln_f.clone(),
        })
    }

    /// The architecture.
    pub fn config(&self) -> TinyFmConfig {
        self.cfg
    }

    /// Borrows a packed linear layer.
    pub fn layer(&self, id: LinearId) -> &PackedLayer {
        match id {
            LinearId::Wq(n) => &self.blocks[n].wq,
            LinearId::Wk(n) => &self.blocks[n].wk,
            LinearId::Wv(n) => &self.blocks[n].wv,
            LinearId::Wo(n) => &self.blocks[n].wo,
            LinearId::WUp(n) => &self.blocks[n].w_up,
            LinearId::WDown(n) => &self.blocks[n].w_down,
        }
    }

    /// Every packed linear layer in forward order.
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

    /// Total serialized size of all packed linear layers, in bytes (the
    /// traffic a runtime actually reads per full forward pass).
    pub fn packed_bytes(&self) -> usize {
        self.linear_ids()
            .into_iter()
            .map(|id| self.layer(id).to_bytes().len())
            .sum()
    }

    /// Logits (`vocab × T`) for one token sequence, executed through the
    /// given engine.
    ///
    /// # Panics
    ///
    /// Panics if any token is outside the vocabulary.
    pub fn forward(&self, tokens: &[usize], engine: &dyn PackedGemm) -> Matrix {
        self.forward_batch(&[tokens], engine)
            .pop()
            .expect("one output")
    }

    /// Batched logits: packs the sequences along the token axis, runs every
    /// linear layer as one GEMM over the concatenated activations (causal
    /// attention stays within each segment), and splits the results back
    /// into one `vocab × T_i` matrix per sequence.
    ///
    /// Per-sequence outputs are bit-identical to [`PackedTinyFm::forward`]
    /// on the same engine: GEMM output columns depend only on their own
    /// input column, and every other op is column-local or segment-local.
    ///
    /// # Panics
    ///
    /// Panics if `seqs` is empty, any sequence is empty, or any token is
    /// outside the vocabulary.
    pub fn forward_batch(&self, seqs: &[&[usize]], engine: &dyn PackedGemm) -> Vec<Matrix> {
        assert!(
            !seqs.is_empty(),
            "forward_batch needs at least one sequence"
        );
        let mut states: Vec<DecodeState> =
            seqs.iter().map(|_| DecodeState::exact(self.cfg)).collect();
        let mut jobs: Vec<DecodeJob<'_>> = states
            .iter_mut()
            .zip(seqs.iter())
            .map(|(state, &tokens)| DecodeJob { state, tokens })
            .collect();
        decode::advance_batch(
            &PackedOps {
                model: self,
                engine,
            },
            &mut jobs,
            None,
        )
    }

    /// Processes a whole prompt in one pass through the engine, returning
    /// the decode state (per-block KV caches) and the prompt logits
    /// (`vocab × T`). Follow with [`PackedTinyFm::decode_step`] for
    /// O(prefix) per-token decode; the results are bit-identical to
    /// re-running [`PackedTinyFm::forward`] over the growing sequence on
    /// the same engine.
    ///
    /// # Errors
    ///
    /// Never: [`KvMode::Exact`] has no configuration to reject.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or any token is out of vocabulary.
    pub fn prefill(
        &self,
        tokens: &[usize],
        mode: KvMode,
        engine: &dyn PackedGemm,
    ) -> Result<(DecodeState, Matrix), QuantError> {
        let mut state = DecodeState::new(self.cfg, mode)?;
        let logits = decode::advance_batch(
            &PackedOps {
                model: self,
                engine,
            },
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
    /// `chunk` tokens through the engine, resuming the KV caches between
    /// segments, and reassembles the per-chunk logits into the same
    /// `vocab × T` matrix [`PackedTinyFm::prefill`] returns. On a
    /// bit-exact engine (one whose GEMV entry matches a one-column GEMM
    /// bit for bit — [`DequantGemm`] and the runtime's default/scalar
    /// tiers), the decode state and every logit
    /// column are **bit-identical** to single-pass prefill for any
    /// `chunk` — KV rows are appended token by token either way and
    /// attention is causal within each segment — which is what lets a
    /// serving scheduler split long prompts across decode steps without
    /// changing outputs. On the f32 fast tier results are
    /// tolerance-stable rather than bit-stable (a chunk of 1 routes
    /// through the differently-rounded lane GEMV).
    ///
    /// # Errors
    ///
    /// Never: [`KvMode::Exact`] has no configuration to reject.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty, any token is out of vocabulary, or
    /// `chunk` is zero.
    pub fn prefill_chunked(
        &self,
        tokens: &[usize],
        mode: KvMode,
        engine: &dyn PackedGemm,
        chunk: usize,
    ) -> Result<(DecodeState, Matrix), QuantError> {
        let KvMode::Exact = mode;
        Ok(decode::prefill_chunked(
            &PackedOps {
                model: self,
                engine,
            },
            tokens,
            chunk,
        ))
    }

    /// Advances an incremental decode state by one token, returning the
    /// logits (`vocab` values) at the new position.
    ///
    /// # Panics
    ///
    /// Panics if the token is out of vocabulary or the state was built
    /// for a different architecture.
    pub fn decode_step(
        &self,
        state: &mut DecodeState,
        token: usize,
        engine: &dyn PackedGemm,
    ) -> Vec<f64> {
        decode::advance_batch(
            &PackedOps {
                model: self,
                engine,
            },
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

    /// Advances a batch of decode jobs in one segment-packed pass: every
    /// linear layer runs a single GEMM over the concatenated new columns
    /// (prefill segments and single-token decode segments can ride
    /// together), and each job's attention reads its own KV cache.
    /// Returns per-job logits (`vocab × new_len`). Per-job results are
    /// independent of what the job was batched with.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is empty, any job has no new tokens, any token is
    /// out of vocabulary, or a state was built for a different
    /// architecture.
    pub fn advance_batch(
        &self,
        jobs: &mut [DecodeJob<'_>],
        engine: &dyn PackedGemm,
    ) -> Vec<Matrix> {
        decode::advance_batch(
            &PackedOps {
                model: self,
                engine,
            },
            jobs,
            None,
        )
    }
}

/// Samples the next token from column `t` of a `vocab × T` logit matrix,
/// reproducing [`TinyFm::generate`]'s draw semantics exactly (softmax at
/// `temperature`, one uniform draw). Shared by the dense and packed
/// generation paths so equal logits yield equal tokens.
pub fn sample_token(logits: &Matrix, t: usize, temperature: f64, rng: &mut SeededRng) -> usize {
    let col: Vec<f64> = (0..logits.rows()).map(|v| logits[(v, t)]).collect();
    sample_logits(&col, temperature, rng)
}

/// Samples a token from one position's logit vector (the shape
/// `decode_step` returns) with the same draw semantics as
/// [`sample_token`]: softmax at `temperature`, one uniform draw.
pub fn sample_logits(logits: &[f64], temperature: f64, rng: &mut SeededRng) -> usize {
    let vocab = logits.len();
    let col: Vec<f64> = logits.iter().map(|&v| v / temperature).collect();
    let max = col.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
    let weights: Vec<f64> = col.iter().map(|&v| (v - max).exp()).collect();
    let sum: f64 = weights.iter().sum();
    let mut draw = rng.uniform() * sum;
    let mut choice = vocab - 1;
    for (v, &w) in weights.iter().enumerate() {
        if draw < w {
            choice = v;
            break;
        }
        draw -= w;
    }
    choice
}

#[cfg(test)]
mod tests {
    use super::*;
    use microscopiq_core::{MicroScopiQ, QuantConfig, QuantConfigBuilder};

    fn small() -> TinyFmConfig {
        TinyFmConfig {
            d_model: 32,
            n_heads: 2,
            d_ff: 64,
            n_layers: 2,
            vocab: 64,
        }
    }

    fn quantized_pair() -> (TinyFm, PackedTinyFm) {
        let fm = TinyFm::teacher(small(), 17);
        let mut rng = SeededRng::new(3);
        let calib: Vec<Vec<usize>> = (0..3).map(|_| fm.generate(10, 0.8, &mut rng)).collect();
        let q = MicroScopiQ::new(
            QuantConfig::w4()
                .macro_block(32)
                .row_block(32)
                .build()
                .unwrap(),
        );
        let packed = PackedTinyFm::quantize_from(&fm, &q, &calib).unwrap();
        (fm, packed)
    }

    #[test]
    fn quantize_from_refuses_layouts_the_runtime_does_not_serve() {
        let fm = TinyFm::teacher(small(), 17);
        let mut rng = SeededRng::new(3);
        let calib: Vec<Vec<usize>> = (0..2).map(|_| fm.generate(6, 0.8, &mut rng)).collect();
        let quantize = |cfg: QuantConfigBuilder| {
            let q = MicroScopiQ::new(cfg.build().unwrap());
            PackedTinyFm::quantize_from(&fm, &q, &calib)
        };
        assert!(quantize(QuantConfig::w4()).is_ok(), "the default layout");
        for (what, cfg) in [
            (
                "OutputChannel",
                QuantConfig::w4().group_axis(GroupAxis::OutputChannel),
            ),
            (
                "oversize groups",
                QuantConfig::w4()
                    .macro_block(2 * MAX_GROUP)
                    .row_block(2 * MAX_GROUP),
            ),
        ] {
            assert!(
                matches!(quantize(cfg), Err(QuantError::InvalidConfig { .. })),
                "{what} must be refused"
            );
        }
    }

    #[test]
    fn packed_forward_matches_dense_student() {
        // The packed model with the reference engine must equal the dense
        // quantized student exactly: both are "dequantized weights times
        // activations" with identical weight values.
        let (fm, packed) = quantized_pair();
        let mut rng = SeededRng::new(5);
        let calib: Vec<Vec<usize>> = (0..3).map(|_| fm.generate(10, 0.8, &mut rng)).collect();
        // Rebuild the dense student from the same quantizer output.
        let q = MicroScopiQ::new(
            QuantConfig::w4()
                .macro_block(32)
                .row_block(32)
                .build()
                .unwrap(),
        );
        let mut rng2 = SeededRng::new(3);
        let calib_same: Vec<Vec<usize>> = (0..3).map(|_| fm.generate(10, 0.8, &mut rng2)).collect();
        let student = fm.quantize_with(&q, &calib_same).unwrap();
        let tokens = &calib[0];
        let dense = student.forward(tokens);
        let packed_logits = packed.forward(tokens, &DequantGemm);
        let mut max_diff = 0.0_f64;
        for v in 0..dense.rows() {
            for t in 0..dense.cols() {
                max_diff = max_diff.max((dense[(v, t)] - packed_logits[(v, t)]).abs());
            }
        }
        assert!(max_diff < 1e-9, "packed vs dense diverged by {max_diff}");
    }

    #[test]
    fn forward_batch_is_bit_identical_to_single() {
        let (fm, packed) = quantized_pair();
        let mut rng = SeededRng::new(9);
        let seqs: Vec<Vec<usize>> = (0..3)
            .map(|i| fm.generate(6 + 3 * i, 0.8, &mut rng))
            .collect();
        let refs: Vec<&[usize]> = seqs.iter().map(|s| s.as_slice()).collect();
        let batched = packed.forward_batch(&refs, &DequantGemm);
        for (seq, out) in seqs.iter().zip(batched.iter()) {
            let single = packed.forward(seq, &DequantGemm);
            assert_eq!(&single, out, "segment packing changed results");
        }
    }

    #[test]
    fn sample_token_matches_generate() {
        // Generating through (forward → sample_token) must reproduce
        // TinyFm::generate exactly.
        let fm = TinyFm::teacher(small(), 23);
        let mut r1 = SeededRng::new(77);
        let expect = fm.generate(10, 0.8, &mut r1);
        let mut r2 = SeededRng::new(77);
        let mut tokens = vec![r2.below(fm.config().vocab)];
        while tokens.len() < 10 {
            let logits = fm.forward(&tokens);
            let t = tokens.len() - 1;
            tokens.push(sample_token(&logits, t, 0.8, &mut r2));
        }
        assert_eq!(tokens, expect);
    }

    #[test]
    fn prefill_chunked_is_bitwise_identical_to_prefill() {
        let (fm, packed) = quantized_pair();
        let mut rng = SeededRng::new(41);
        let prompt = fm.generate(13, 0.8, &mut rng);
        let (whole_state, whole_logits) = packed
            .prefill(&prompt, KvMode::Exact, &DequantGemm)
            .unwrap();
        for chunk in [1usize, 3, 5, 13, 64] {
            let (state, logits) = packed
                .prefill_chunked(&prompt, KvMode::Exact, &DequantGemm, chunk)
                .unwrap();
            assert_eq!(logits, whole_logits, "chunk={chunk} changed prefill logits");
            assert_eq!(state.tokens(), whole_state.tokens());
            assert_eq!(state.kv_rows(), whole_state.kv_rows());
            // The resumed caches must decode identically: one step each.
            let mut a = state;
            let mut b = whole_state.clone();
            assert_eq!(
                packed.decode_step(&mut a, prompt[0], &DequantGemm),
                packed.decode_step(&mut b, prompt[0], &DequantGemm),
                "chunk={chunk} diverged on the first decode step"
            );
        }
    }

    #[test]
    fn remaining_prompt_is_a_resumable_cursor() {
        let (fm, packed) = quantized_pair();
        let mut rng = SeededRng::new(43);
        let prompt = fm.generate(9, 0.8, &mut rng);
        let mut state = DecodeState::exact(packed.config());
        assert_eq!(state.remaining_prompt(&prompt), &prompt[..]);
        // Advance 4 tokens, then check the cursor points at the rest.
        let _ = packed.advance_batch(
            &mut [DecodeJob {
                state: &mut state,
                tokens: &prompt[..4],
            }],
            &DequantGemm,
        );
        assert_eq!(state.remaining_prompt(&prompt), &prompt[4..]);
    }

    #[test]
    #[should_panic(expected = "not a partial prefill")]
    fn remaining_prompt_rejects_a_mismatched_sequence() {
        let (_, packed) = quantized_pair();
        let mut state = DecodeState::exact(packed.config());
        let _ = packed.advance_batch(
            &mut [DecodeJob {
                state: &mut state,
                tokens: &[1, 2, 3],
            }],
            &DequantGemm,
        );
        let _ = state.remaining_prompt(&[1, 9, 3, 4]);
    }

    #[test]
    fn packed_bytes_is_positive_and_compressed() {
        let (fm, packed) = quantized_pair();
        let dense_bytes: usize = fm
            .linear_ids()
            .iter()
            .map(|&id| fm.weights(id).rows() * fm.weights(id).cols() * 8)
            .sum();
        let pb = packed.packed_bytes();
        assert!(pb > 0);
        assert!(
            pb < dense_bytes / 8,
            "4-bit packing should be ≥8× smaller than f64: {pb} vs {dense_bytes}"
        );
    }

    #[test]
    fn unpackable_quantizer_is_rejected() {
        use microscopiq_core::traits::{QuantStats, QuantizedLayer};

        struct NoPack;
        impl WeightQuantizer for NoPack {
            fn name(&self) -> &str {
                "nopack"
            }
            fn quantize_layer(&self, layer: &LayerTensors) -> Result<QuantizedLayer, QuantError> {
                Ok(QuantizedLayer {
                    dequantized: layer.weights.clone(),
                    packed: None,
                    stats: QuantStats::default(),
                })
            }
        }

        let fm = TinyFm::teacher(small(), 2);
        let mut rng = SeededRng::new(1);
        let calib: Vec<Vec<usize>> = vec![fm.generate(8, 0.8, &mut rng)];
        let err = PackedTinyFm::quantize_from(&fm, &NoPack, &calib).unwrap_err();
        assert!(err.to_string().contains("no packed layer"));
    }
}
