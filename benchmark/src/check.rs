//! Output checks that run inside the one command: a sample of served
//! streams is re-generated offline and compared token for token, and the
//! packed model's perplexity is put next to the teacher's so speed and
//! quality come from the same run.

use crate::loadgen::{Outcome, Sent};
use crate::setup::Built;
use crate::workloads::{Workload, MATCH_SAMPLE};
use microscopiq_fm::PackedGemm;
use microscopiq_linalg::{Matrix, SeededRng};
use microscopiq_runtime::{RuntimeEngine, Session};

/// Picks every `sample_every`-th finished request of `records` (by send
/// order), up to [`MATCH_SAMPLE`].
pub fn sample<'a>(w: &Workload, records: &'a [Sent]) -> Vec<&'a Sent> {
    let mut finished: Vec<&Sent> = records
        .iter()
        .filter(|r| r.outcome == Outcome::Finished)
        .collect();
    finished.sort_by_key(|r| r.index);
    finished
        .into_iter()
        .step_by(w.sample_every)
        .take(MATCH_SAMPLE)
        .collect()
}

/// Share of the sampled streams that equal what a fresh offline
/// `Session` on the scalar oracle engine (exact KV) generates for the
/// same prompt, seed and temperature. The repo's core invariant says a
/// stream depends on nothing else, so on the bit-exact tier this is 1.
pub fn stream_match_share(w: &Workload, seed: u64, built: &Built, picked: &[&Sent]) -> f64 {
    if picked.is_empty() {
        return 0.0;
    }
    let mut offline = Session::new(built.model.clone(), RuntimeEngine::scalar(), picked.len());
    let ids: Vec<usize> = picked
        .iter()
        .map(|r| offline.submit(w.request(seed, r.index)))
        .collect();
    let results = offline.run_to_completion();
    let same = picked
        .iter()
        .zip(&ids)
        .filter(|(r, id)| {
            results
                .iter()
                .find(|res| res.id == **id)
                .is_some_and(|res| res.tokens[r.prompt_len..] == r.tokens[..])
        })
        .count();
    same as f64 / picked.len() as f64
}

fn cross_entropy(logits: &Matrix, seq: &[usize]) -> (f64, usize) {
    let mut total = 0.0;
    for t in 0..seq.len() - 1 {
        let col = logits.col(t);
        let max = col.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
        let log_z = col.iter().map(|&v| (v - max).exp()).sum::<f64>().ln() + max;
        total += log_z - col[seq[t + 1]];
    }
    (total, seq.len() - 1)
}

/// Perplexity of the packed model, run through `engine`, on 16 x 32
/// held-out teacher sequences, over the teacher's own perplexity on
/// them (`exp(KL)`: pure quantization damage). Nothing here depends on
/// `--seed`, so the value repeats exactly.
pub fn ppl_ratio(built: &Built, engine: &dyn PackedGemm) -> f64 {
    let mut rng = SeededRng::new(0x5EED_E7A1);
    let eval: Vec<Vec<usize>> = (0..16)
        .map(|_| built.teacher.generate(32, 2.0, &mut rng))
        .collect();
    let (mut nats, mut count) = (0.0, 0);
    for seq in &eval {
        let (n, c) = cross_entropy(&built.model.forward(seq, engine), seq);
        nats += n;
        count += c;
    }
    (nats / count as f64).exp() / built.teacher.perplexity(&eval)
}
