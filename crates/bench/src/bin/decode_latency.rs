//! Decode latency: full-prefix recompute vs incremental KV-cached decode,
//! at several prefix lengths with a batch of concurrent requests.
//!
//! Each path advances the same 8 sequences token by token through the
//! packed runtime engine:
//!
//! * **full recompute** — every step re-runs `forward_batch` over the
//!   entire prefix (the pre-incremental serving path): O(prefix²) work
//!   per generated token;
//! * **incremental (exact KV)** — one prefill, then a single-token
//!   segment-packed `advance_batch` per step: O(prefix) work, logits
//!   **bit-identical** to full recompute (asserted here, per step).
//!
//! A second section times what a pass spends *outside* the engine — the
//! blocked attention kernel, plus KV append and norms — on the deep
//! serving shape (d 64, 4 heads, 4 layers) at context 64 and 512, for a
//! 64-token prefill chunk (8-wide query blocks) and a single-token decode
//! step (the 1-wide instantiation), as ns per attention score, so a
//! regression of either path is visible on its own row.
//!
//! Emits `results/BENCH_decode_latency.json`. Acceptance: incremental
//! beats full recompute by ≥3× per-step at prefix ≥256, batch 8.

use microscopiq_bench::{f2, median, Table};
use microscopiq_core::packed::PackedLayer;
use microscopiq_core::{MicroScopiQ, QuantConfig};
use microscopiq_fm::{
    DecodeJob, DecodeState, PackedGemm, PackedTinyFm, PartFn, TinyFm, TinyFmConfig,
};
use microscopiq_linalg::{Matrix, SeededRng};
use microscopiq_runtime::RuntimeEngine;
use std::cell::Cell;
use std::time::{Duration, Instant};

const BATCH: usize = 8;
/// Timed steps per path and round.
const STEPS: usize = 8;
/// Rounds, each one full-recompute run then one incremental run from the
/// same prompts at every prefix: paths and prefixes alternate, so a slow
/// stretch of a shared host lands on every row, and each row is the
/// median of `STEPS × ROUNDS` steps spread over the whole measurement.
const ROUNDS: usize = 6;

/// Argmax token choice: deterministic, so every path that produces the
/// same logits walks the same token sequence.
fn argmax(logits: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in logits.iter().enumerate() {
        if v > logits[best] {
            best = i;
        }
    }
    best
}

struct StepRecord {
    /// Wall time of each decode step, seconds.
    times: Vec<f64>,
    /// Last-position logits after each step, per request (for parity).
    logits: Vec<Vec<Vec<f64>>>,
    /// Token appended at each step, per request.
    tokens: Vec<Vec<usize>>,
}

/// Full-prefix recompute: every step runs `forward_batch` over the whole
/// prefixes, exactly what `Session::step` did before incremental decode.
fn run_full_recompute(
    model: &PackedTinyFm,
    engine: &RuntimeEngine,
    prompts: &[Vec<usize>],
) -> StepRecord {
    let mut seqs: Vec<Vec<usize>> = prompts.to_vec();
    let mut rec = StepRecord {
        times: Vec::new(),
        logits: Vec::new(),
        tokens: Vec::new(),
    };
    for _ in 0..STEPS {
        let refs: Vec<&[usize]> = seqs.iter().map(|s| s.as_slice()).collect();
        let t0 = Instant::now();
        let outs = model.forward_batch(&refs, engine);
        rec.times.push(t0.elapsed().as_secs_f64());
        let last: Vec<Vec<f64>> = outs.iter().map(|m| m.col(m.cols() - 1)).collect();
        let toks: Vec<usize> = last.iter().map(|l| argmax(l)).collect();
        for (seq, &tok) in seqs.iter_mut().zip(toks.iter()) {
            seq.push(tok);
        }
        rec.logits.push(last);
        rec.tokens.push(toks);
    }
    rec
}

/// Incremental decode: one batched prefill (timed separately), then one
/// single-token segment-packed pass per step. Returns the prefill time
/// alongside the per-step record.
fn run_incremental(
    model: &PackedTinyFm,
    engine: &RuntimeEngine,
    prompts: &[Vec<usize>],
) -> (f64, StepRecord) {
    let mut states: Vec<DecodeState> = prompts
        .iter()
        .map(|_| DecodeState::exact(model.config()))
        .collect();
    let t0 = Instant::now();
    let prefill_logits = {
        let mut jobs: Vec<DecodeJob<'_>> = states
            .iter_mut()
            .zip(prompts.iter())
            .map(|(state, tokens)| DecodeJob { state, tokens })
            .collect();
        model.advance_batch(&mut jobs, engine)
    };
    let prefill_time = t0.elapsed().as_secs_f64();
    // `last` holds the logits at the newest position; step i records them
    // (position prefix−1+i, matching the full-recompute record), picks
    // the token they imply, and feeds it through one single-token pass.
    let mut last: Vec<Vec<f64>> = prefill_logits.iter().map(|m| m.col(m.cols() - 1)).collect();
    let mut rec = StepRecord {
        times: Vec::new(),
        logits: Vec::new(),
        tokens: Vec::new(),
    };
    for _ in 0..STEPS {
        let next: Vec<usize> = last.iter().map(|l| argmax(l)).collect();
        rec.logits.push(last);
        rec.tokens.push(next.clone());
        let t0 = Instant::now();
        let outs = {
            let mut jobs: Vec<DecodeJob<'_>> = states
                .iter_mut()
                .zip(next.iter())
                .map(|(state, tok)| DecodeJob {
                    state,
                    tokens: std::slice::from_ref(tok),
                })
                .collect();
            model.advance_batch(&mut jobs, engine)
        };
        rec.times.push(t0.elapsed().as_secs_f64());
        last = outs.iter().map(|m| m.col(0)).collect();
    }
    (prefill_time, rec)
}

/// A w4 packed model of the given shape: teacher from `seed`, calibrated
/// on two short samples the teacher draws from `rng`.
fn packed_model(cfg: TinyFmConfig, seed: u64, rng: &mut SeededRng) -> PackedTinyFm {
    let teacher = TinyFm::teacher(cfg, seed);
    let calib: Vec<Vec<usize>> = (0..2).map(|_| teacher.generate(10, 1.0, rng)).collect();
    let q = MicroScopiQ::new(
        QuantConfig::w4()
            .macro_block(64)
            .row_block(64)
            .percdamp(5.0)
            .build()
            .expect("valid"),
    );
    PackedTinyFm::quantize_from(&teacher, &q, &calib).expect("quantizes")
}

/// An engine that clocks the time spent inside its GEMM/GEMV calls, so a
/// pass's self time (attention, KV append, norms) is its wall time minus
/// this. Attention goes through the engine's `run_parts` unclocked, so
/// the self time measures the attention that serves, split over the
/// engine's pool where the engine splits it.
struct TimedGemm<'a> {
    engine: &'a RuntimeEngine,
    busy: Cell<Duration>,
}

impl PackedGemm for TimedGemm<'_> {
    fn matmul(&self, layer: &PackedLayer, acts: &Matrix) -> Matrix {
        let t0 = Instant::now();
        let out = self.engine.matmul(layer, acts);
        self.busy.set(self.busy.get() + t0.elapsed());
        out
    }

    fn gemv(&self, layer: &PackedLayer, x: &[f64]) -> Vec<f64> {
        let t0 = Instant::now();
        let out = PackedGemm::gemv(self.engine, layer, x);
        self.busy.set(self.busy.get() + t0.elapsed());
        out
    }

    fn run_parts(&self, work: usize, parts: Vec<&mut [f64]>, part: &PartFn<'_>) {
        self.engine.run_parts(work, parts, part);
    }
}

/// Attention cost on the deep serving shape: ns of pass self time per
/// attention score, for a 64-token prefill chunk and a single-token
/// decode step ending at context 64 and 512. The four passes are timed
/// in `ROUNDS` interleaved rounds, so each row's median spans the whole
/// measurement. Returns the table rows' metrics.
fn attention_ns_per_score(engine: &RuntimeEngine) -> Vec<(String, f64)> {
    const REPS: usize = 12;
    let cfg = TinyFmConfig {
        d_model: 64,
        n_heads: 4,
        d_ff: 128,
        n_layers: 4,
        vocab: 64,
    };
    let mut rng = SeededRng::new(29);
    let model = packed_model(cfg, 2027, &mut rng);
    let timed = TimedGemm {
        engine,
        busy: Cell::new(Duration::ZERO),
    };
    // (ctx, pass, new tokens, prompt, state after the first ctx − new).
    let mut passes = Vec::new();
    for ctx in [64usize, 512] {
        let prompt: Vec<usize> = (0..ctx).map(|_| rng.below(cfg.vocab)).collect();
        for (pass, new) in [("prefill", 64usize), ("decode", 1)] {
            let hist = ctx - new;
            let mut base = DecodeState::exact(cfg);
            if hist > 0 {
                model.advance_batch(
                    &mut [DecodeJob {
                        state: &mut base,
                        tokens: &prompt[..hist],
                    }],
                    engine,
                );
            }
            passes.push((ctx, pass, new, prompt.clone(), base));
        }
    }
    let self_time = |prompt: &[usize], hist: usize, base: &DecodeState| {
        let mut state = base.clone();
        timed.busy.set(Duration::ZERO);
        let t0 = Instant::now();
        let out = model.advance_batch(
            &mut [DecodeJob {
                state: &mut state,
                tokens: &prompt[hist..],
            }],
            &timed,
        );
        let wall = t0.elapsed();
        std::hint::black_box(out);
        wall.saturating_sub(timed.busy.get()).as_secs_f64()
    };
    let mut self_s = vec![Vec::new(); passes.len()];
    for round in 0..ROUNDS {
        for ((ctx, _, new, prompt, base), samples) in passes.iter().zip(&mut self_s) {
            let hist = ctx - new;
            if round == 0 {
                self_time(prompt, hist, base); // warm-up
            }
            samples.extend((0..REPS).map(|_| self_time(prompt, hist, base)));
        }
    }
    let mut table = Table::new(
        "Attention self time, deep shape (d=64, 4 heads, 4 layers, exact KV)",
        &["ctx", "pass", "new tokens", "self µs/pass", "ns/score"],
    );
    let mut metrics = Vec::new();
    for ((ctx, pass, new, _, _), samples) in passes.iter().zip(&self_s) {
        let hist = ctx - new;
        // Token t of the pass scores hist + t + 1 rows per head and layer.
        let scores = cfg.n_layers * cfg.n_heads * (new * hist + new * (new + 1) / 2);
        let t_self = median(samples);
        let ns_per_score = t_self * 1e9 / scores as f64;
        table.row(vec![
            ctx.to_string(),
            pass.to_string(),
            new.to_string(),
            format!("{:.1}", t_self * 1e6),
            f2(ns_per_score),
        ]);
        metrics.push((format!("attn_ns_per_score_{pass}_ctx{ctx}"), ns_per_score));
    }
    table.print();
    metrics
}

fn main() {
    let cfg = TinyFmConfig {
        d_model: 128,
        n_heads: 4,
        d_ff: 256,
        n_layers: 2,
        vocab: 128,
    };
    let mut rng = SeededRng::new(17);
    let model = packed_model(cfg, 2026, &mut rng);
    let engine = RuntimeEngine::parallel();

    let mut table = Table::new(
        &format!(
            "TinyFM decode latency (d={}, {} layers, batch {BATCH}, {} timed steps)",
            cfg.d_model,
            cfg.n_layers,
            STEPS * ROUNDS
        ),
        &["Prefix", "Path", "ms/step", "tokens/s", "speedup vs full"],
    );
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let speedup_at = |prefix: usize| format!("decode_speedup_p{prefix}_b{BATCH}");

    let prefixes = [64usize, 256];
    let prompts: Vec<Vec<Vec<usize>>> = prefixes
        .iter()
        .map(|&prefix| {
            (0..BATCH)
                .map(|_| (0..prefix).map(|_| rng.below(cfg.vocab)).collect())
                .collect()
        })
        .collect();
    // Warm the decoded-tile cache so every path measures steady state.
    for prompts in &prompts {
        let warm: Vec<&[usize]> = prompts.iter().map(|p| &p[..4]).collect();
        model.forward_batch(&warm, &engine);
    }

    // Per prefix: (full-recompute step times, incremental step times,
    // prefill times). Each round visits every prefix, so every row
    // samples the whole measurement window.
    let mut times = vec![(Vec::new(), Vec::new(), Vec::new()); prefixes.len()];
    for _ in 0..ROUNDS {
        for ((&prefix, prompts), (full_times, inc_times, prefill_times)) in
            prefixes.iter().zip(&prompts).zip(&mut times)
        {
            let full = run_full_recompute(&model, &engine, prompts);
            let (prefill_s, inc) = run_incremental(&model, &engine, prompts);

            // Parity gate: exact-KV incremental must be bit-identical to
            // full recompute — same tokens, same logits, every step, every
            // request.
            for step in 0..STEPS {
                assert_eq!(
                    full.tokens[step], inc.tokens[step],
                    "token stream diverged at prefix {prefix} step {step}"
                );
                for (b, (fl, il)) in full.logits[step]
                    .iter()
                    .zip(inc.logits[step].iter())
                    .enumerate()
                {
                    assert_eq!(
                        fl, il,
                        "logits diverged at prefix {prefix} step {step} request {b}"
                    );
                }
            }
            full_times.extend(full.times);
            inc_times.extend(inc.times);
            prefill_times.push(prefill_s);
        }
    }

    let mut acceptance = Vec::new();
    for (&prefix, (full_times, inc_times, prefill_times)) in prefixes.iter().zip(&times) {
        let t_full = median(full_times);
        let t_inc = median(inc_times);
        let prefill_s = median(prefill_times);
        let speedup = t_full / t_inc;
        let mut row = |path: &str, t: f64| {
            table.row(vec![
                prefix.to_string(),
                path.to_string(),
                format!("{:.3}", t * 1e3),
                format!("{:.0}", BATCH as f64 / t),
                f2(t_full / t),
            ]);
        };
        row("full recompute", t_full);
        row("incremental exact-KV", t_inc);
        println!(
            "prefix {prefix}: prefill {:.3} ms, full {:.3} ms/step, incremental {:.3} ms/step ({speedup:.2}x)",
            prefill_s * 1e3,
            t_full * 1e3,
            t_inc * 1e3,
        );
        metrics.push((format!("decode_ms_full_p{prefix}_b{BATCH}"), t_full * 1e3));
        metrics.push((
            format!("decode_ms_incremental_p{prefix}_b{BATCH}"),
            t_inc * 1e3,
        ));
        metrics.push((
            format!("decode_tokens_per_s_incremental_p{prefix}_b{BATCH}"),
            BATCH as f64 / t_inc,
        ));
        metrics.push((speedup_at(prefix), speedup));
        if prefix >= 256 {
            acceptance.push((prefix, speedup));
        }
    }
    table.print();

    // Acceptance gauge: ≥3× per-step at prefix ≥256, batch 8, with the
    // bitwise parity already asserted above.
    for (prefix, speedup) in &acceptance {
        println!(
            "\nacceptance: incremental vs full recompute at prefix {prefix}, batch {BATCH} = {:.2}x ({})",
            speedup,
            if *speedup >= 3.0 {
                "PASS >= 3x"
            } else {
                "FAIL < 3x"
            }
        );
    }
    metrics.push(("exact_kv_bit_identical".to_string(), 1.0));
    metrics.extend(attention_ns_per_score(&engine));

    let metric_refs: Vec<(&str, f64)> = metrics.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    table.write_json("decode_latency", &metric_refs);
}
