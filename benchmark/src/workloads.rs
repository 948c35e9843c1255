//! The six workloads: which model, which engine tier, which serving
//! configuration, and the traffic a `--seed` turns into requests. The
//! program under test only ever sees the generated [`GenRequest`]s (or,
//! on the wire, the request bodies rendered from them).

use microscopiq_fm::TinyFmConfig;
use microscopiq_linalg::SeededRng;
use microscopiq_runtime::net::Json;
use microscopiq_runtime::{GenRequest, PrefixCacheConfig, QosClass, RuntimeEngine, ServerConfig};
use std::collections::BTreeMap;

/// A TinyFM shape plus how it is calibrated and packed. The model is
/// part of the workload's definition, not of its traffic: it does not
/// depend on `--seed`, so `ppl_ratio` is the same number on every run.
#[derive(Debug, Clone, Copy)]
pub struct ModelSpec {
    pub cfg: TinyFmConfig,
    pub teacher_seed: u64,
    /// Calibration sequences: how many, how long.
    pub calib: (usize, usize),
    /// Inlier bit width (2 or 4).
    pub bits: u32,
    /// Macro-block and row-block size.
    pub block: usize,
}

/// d_model 256 — per-step time is GEMM/GEMV over the packed linears.
const WIDE: ModelSpec = ModelSpec {
    cfg: TinyFmConfig {
        d_model: 256,
        n_heads: 4,
        d_ff: 512,
        n_layers: 2,
        vocab: 96,
    },
    teacher_seed: 33,
    calib: (3, 10),
    bits: 4,
    block: 64,
};

/// Four narrow layers — attention over long KV views outweighs the linears.
const DEEP: ModelSpec = ModelSpec {
    cfg: TinyFmConfig {
        d_model: 64,
        n_heads: 4,
        d_ff: 128,
        n_layers: 4,
        vocab: 64,
    },
    teacher_seed: 23,
    calib: (4, 12),
    bits: 4,
    block: 64,
};

/// ~0.06 ms of compute per token — fixed per-step overhead is the work.
const TINY: ModelSpec = ModelSpec {
    cfg: TinyFmConfig {
        d_model: 32,
        n_heads: 2,
        d_ff: 64,
        n_layers: 2,
        vocab: 64,
    },
    teacher_seed: 21,
    calib: (4, 12),
    bits: 4,
    block: 32,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// `RuntimeEngine::parallel()`: bit-exact, decoded-tile cache.
    Exact,
    /// `RuntimeEngine::fast()`: f32 kernels, no cache.
    Fast,
}

impl Tier {
    pub fn engine(self) -> RuntimeEngine {
        match self {
            Tier::Exact => RuntimeEngine::parallel(),
            Tier::Fast => RuntimeEngine::fast(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Each of `clients` sends its next request when the last completes.
    Closed { clients: usize },
    /// Requests are due on a seeded schedule at this mean rate whether or
    /// not earlier ones have been answered.
    Open { per_s: f64 },
}

#[derive(Debug, Clone, Copy)]
enum Traffic {
    /// Unique random prompts of one length; output length uniform in a range.
    Uniform { prompt: usize, out: (usize, usize) },
    /// Unique prompts of 384/448/512 tokens, 16 outputs.
    LongUnique,
    /// Three in four requests open with one of 16 fixed 256-token
    /// prefixes and add a unique 16-token suffix; the fourth is a unique
    /// 272-token prompt. 16 outputs.
    SharedPrefix,
    /// Four in five are chat (16-token prompt, 48 outputs, interactive),
    /// the fifth a document (256-token prompt, 8 outputs, batch).
    ChatAndDocuments,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub model: ModelSpec,
    pub tier: Tier,
    pub server: ServerConfig,
    pub arrival: Arrival,
    /// Through `HttpClient` → `HttpServer` → `Fleet` instead of a
    /// `ServerHandle`.
    pub wire: bool,
    traffic: Traffic,
    /// Requests completed before the clock starts — a fixed amount of
    /// work, so caches fill and lazy decode finishes the same way on
    /// every run.
    pub warmup: usize,
    /// Latency limits of `slo_attainment`: 2x the A/A median
    /// `ttft_p90_ms` / `itl_p90_ms` of the reference run (README.md).
    /// Only a benchmark change re-tunes them.
    pub slo_ttft_ms: f64,
    pub slo_gap_ms: f64,
    /// Every k-th request of the window is re-generated offline and
    /// compared token for token, up to [`MATCH_SAMPLE`] of them.
    pub sample_every: usize,
    /// Requests per `--seconds` second in each fixed-work traced pass.
    pub traced_per_s: f64,
}

/// Streams checked against offline regeneration per run.
pub const MATCH_SAMPLE: usize = 16;

const TEMPERATURE: f64 = 0.8;

/// Requests per stratum of the open-loop schedule: one period of the
/// chat/document pattern.
const ARRIVAL_STRATUM: usize = 5;

fn mix(seed: u64, salt: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z ^= z >> 31;
    z.wrapping_mul(0x94D0_49BB_1331_11EB)
}

fn tokens(rng: &mut SeededRng, n: usize, vocab: usize) -> Vec<usize> {
    (0..n).map(|_| rng.below(vocab)).collect()
}

impl Workload {
    /// The `i`-th request of the run, a pure function of `(seed, i)`.
    pub fn request(&self, seed: u64, i: usize) -> GenRequest {
        let vocab = self.model.cfg.vocab;
        let mut rng = SeededRng::new(mix(seed, 1, i as u64));
        // The seed shifts the phase of the periodic class patterns, so
        // the mix is exact on every seed and ordered differently.
        let phase = i + (seed % 60) as usize;
        let (prompt, max_new_tokens, class) = match self.traffic {
            Traffic::Uniform { prompt, out } => {
                let n = out.0 + rng.below(out.1 - out.0 + 1);
                (tokens(&mut rng, prompt, vocab), n, QosClass::Interactive)
            }
            Traffic::LongUnique => {
                let len = [384, 448, 512][phase % 3];
                (tokens(&mut rng, len, vocab), 16, QosClass::Interactive)
            }
            Traffic::SharedPrefix => {
                let prompt = if phase % 4 == 3 {
                    tokens(&mut rng, 272, vocab)
                } else {
                    let which = rng.below(16) as u64;
                    let mut p = tokens(&mut SeededRng::new(mix(seed, 2, which)), 256, vocab);
                    p.extend(tokens(&mut rng, 16, vocab));
                    p
                };
                (prompt, 16, QosClass::Interactive)
            }
            Traffic::ChatAndDocuments => {
                if phase % 5 == 4 {
                    (tokens(&mut rng, 256, vocab), 8, QosClass::Batch)
                } else {
                    (tokens(&mut rng, 16, vocab), 48, QosClass::Interactive)
                }
            }
        };
        GenRequest {
            prompt,
            max_new_tokens,
            temperature: TEMPERATURE,
            // Stays below 2^53: the wire carries seeds as JSON numbers.
            seed: (seed % 1_000_000) * 1_000_000 + i as u64,
            class,
            n_samples: 1,
        }
    }

    /// Due times in seconds from the start of the window, ascending.
    /// Arrivals are Poisson *within strata*: each run of
    /// [`ARRIVAL_STRATUM`] consecutive requests falls uniformly at random
    /// into its own equal slice of the window. Every seed therefore
    /// offers the same load, second by second as well as in total, and
    /// only the spacing inside a slice differs — an unstratified Poisson
    /// schedule moved `ttft_p50_ms` by 2x between seeds through nothing
    /// but how its bursts happened to fall. Empty for closed loops.
    pub fn schedule(&self, seed: u64, seconds: f64) -> Vec<f64> {
        let Arrival::Open { per_s } = self.arrival else {
            return Vec::new();
        };
        let n = (per_s * seconds).round() as usize;
        let slice = ARRIVAL_STRATUM as f64 / per_s;
        let mut rng = SeededRng::new(mix(seed, 3, 0));
        let mut due: Vec<f64> = (0..n)
            .map(|k| ((k / ARRIVAL_STRATUM) as f64 + rng.uniform()) * slice)
            .map(|t| t.min(seconds * (1.0 - f64::EPSILON)))
            .collect();
        due.sort_by(|a, b| a.total_cmp(b));
        due
    }

    /// Lowest acceptable share of sampled streams equal to their offline
    /// regeneration. The fast tier computes in f32 and its rounding
    /// depends on batch composition, so a sampled draw that lands within
    /// rounding distance of a bucket edge flips a token now and then.
    pub fn match_floor(&self) -> f64 {
        match self.tier {
            Tier::Exact => 1.0,
            Tier::Fast => 0.75,
        }
    }

    /// Requests in one fixed-work traced pass.
    pub fn traced_requests(&self, seconds: f64) -> usize {
        ((self.traced_per_s * seconds).round() as usize).max(2)
    }
}

/// The `/v1/generate` body for a request, as a wire client sends it.
pub fn wire_body(req: &GenRequest) -> String {
    let prompt = req.prompt.iter().map(|&t| Json::Num(t as f64)).collect();
    Json::Obj(BTreeMap::from([
        ("prompt".to_string(), Json::Arr(prompt)),
        (
            "max_new_tokens".to_string(),
            Json::Num(req.max_new_tokens as f64),
        ),
        ("temperature".to_string(), Json::Num(req.temperature)),
        ("seed".to_string(), Json::Num(req.seed as f64)),
        ("class".to_string(), Json::Str(req.class.label().into())),
    ]))
    .render()
}

pub fn all() -> Vec<Workload> {
    let long_prompts = ServerConfig {
        prefill_chunk: 64,
        token_budget: 96,
        prefix_cache: Some(PrefixCacheConfig {
            capacity_bytes: 32 << 20,
        }),
        ..ServerConfig::default()
    };
    vec![
        Workload {
            name: "decode_wide",
            why: "batched decode on the wide model: kernels, executor and decoded-tile cache own the step; attention, prefix cache and wire are idle",
            model: WIDE,
            tier: Tier::Exact,
            server: ServerConfig::default(),
            arrival: Arrival::Closed { clients: 8 },
            wire: false,
            traffic: Traffic::Uniform { prompt: 8, out: (32, 96) },
            warmup: 8,
            slo_ttft_ms: 40.0,
            slo_gap_ms: 20.0,
            sample_every: 5,
            traced_per_s: 3.2,
        },
        Workload {
            name: "decode_wide_fast",
            why: "same model and traffic on the f32 fast tier (no cache): a change that helps one kernel path at the other's expense moves this row the other way",
            model: WIDE,
            tier: Tier::Fast,
            server: ServerConfig::default(),
            arrival: Arrival::Closed { clients: 8 },
            wire: false,
            traffic: Traffic::Uniform { prompt: 8, out: (32, 96) },
            warmup: 8,
            slo_ttft_ms: 42.0,
            slo_gap_ms: 18.0,
            sample_every: 8,
            traced_per_s: 4.8,
        },
        Workload {
            name: "long_context",
            why: "unique 384-512 token prompts on the deep model: attention over long KV, KV append and chunk planning do the work; the prefix cache only inserts and evicts",
            model: DEEP,
            tier: Tier::Exact,
            server: long_prompts,
            arrival: Arrival::Closed { clients: 4 },
            wire: false,
            traffic: Traffic::LongUnique,
            warmup: 4,
            slo_ttft_ms: 600.0,
            slo_gap_ms: 70.0,
            sample_every: 3,
            traced_per_s: 1.6,
        },
        Workload {
            name: "shared_prefix",
            why: "three in four prompts reuse one of 16 cached 256-token prefixes: prefix lookup, copy-on-write attach and suffix-only prefill set TTFT",
            model: DEEP,
            tier: Tier::Exact,
            server: long_prompts,
            arrival: Arrival::Closed { clients: 4 },
            wire: false,
            traffic: Traffic::SharedPrefix,
            warmup: 24,
            slo_ttft_ms: 230.0,
            slo_gap_ms: 32.0,
            sample_every: 8,
            // Long enough for the 16 cold first uses not to dominate.
            traced_per_s: 12.0,
        },
        Workload {
            name: "mix_open",
            why: "open loop at 12 req/s, chat plus long documents on the 2-bit wide model: queue wait, chunked-prefill interference, QoS shares and m=1 GEMV steps",
            model: ModelSpec { bits: 2, ..WIDE },
            tier: Tier::Exact,
            server: ServerConfig {
                max_batch: 16,
                prefill_chunk: 32,
                token_budget: 64,
                queue_capacity: 1024,
                ..ServerConfig::default()
            },
            arrival: Arrival::Open { per_s: 12.0 },
            wire: false,
            traffic: Traffic::ChatAndDocuments,
            warmup: 10,
            slo_ttft_ms: 420.0,
            slo_gap_ms: 30.0,
            sample_every: 5,
            traced_per_s: 4.0,
        },
        Workload {
            name: "wire_tiny",
            why: "tiny model behind HTTP/SSE and a one-worker fleet: fixed cost per step, per engine call and per token (plan, dispatch, sampling, channel sends, JSON, chunk writes) is the work, not arithmetic",
            model: TINY,
            tier: Tier::Exact,
            server: ServerConfig::default(),
            arrival: Arrival::Closed { clients: 2 },
            wire: true,
            traffic: Traffic::Uniform { prompt: 8, out: (32, 32) },
            warmup: 64,
            slo_ttft_ms: 1.0,
            slo_gap_ms: 0.4,
            sample_every: 128,
            traced_per_s: 60.0,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(w: &Workload, seed: u64) -> String {
        let reqs: Vec<String> = (0..40).map(|i| wire_body(&w.request(seed, i))).collect();
        format!("{}|{:?}", reqs.join("\n"), w.schedule(seed, 10.0))
    }

    #[test]
    fn same_seed_gives_the_same_bytes_and_another_seed_does_not() {
        for w in all() {
            assert_eq!(fingerprint(&w, 7), fingerprint(&w, 7), "{}", w.name);
            assert_ne!(fingerprint(&w, 7), fingerprint(&w, 8), "{}", w.name);
        }
    }

    #[test]
    fn every_request_is_servable() {
        for w in all() {
            for i in 0..60 {
                let r = w.request(3, i);
                assert!(!r.prompt.is_empty() && r.max_new_tokens >= 1);
                assert!(r.prompt.iter().all(|&t| t < w.model.cfg.vocab));
                assert!(r.seed < (1u64 << 53));
                let body = Json::parse(&wire_body(&r)).expect("body is JSON");
                assert_eq!(
                    body.get("prompt").and_then(Json::as_arr).map(<[Json]>::len),
                    Some(r.prompt.len())
                );
            }
        }
    }

    #[test]
    fn class_mixes_are_exact_on_every_seed() {
        let open = by_name("mix_open").unwrap();
        let shared = by_name("shared_prefix").unwrap();
        for seed in [1, 2, 59, 60, 1234] {
            let docs = (0..100)
                .filter(|&i| open.request(seed, i).class == QosClass::Batch)
                .count();
            assert_eq!(docs, 20);
            let vocab = shared.model.cfg.vocab;
            let prefixes: Vec<Vec<usize>> = (0..16)
                .map(|p| tokens(&mut SeededRng::new(mix(seed, 2, p)), 256, vocab))
                .collect();
            let reuse = (0..100)
                .filter(|&i| prefixes.contains(&shared.request(seed, i).prompt[..256].to_vec()))
                .count();
            assert_eq!(reuse, 75);
        }
    }

    #[test]
    fn open_schedule_offers_the_same_load_on_every_seed() {
        let w = by_name("mix_open").unwrap();
        for seed in 1..6 {
            let due = w.schedule(seed, 9.0);
            assert_eq!(due.len(), 108);
            assert!(due.windows(2).all(|p| p[0] <= p[1]));
            assert!(due[0] >= 0.0 && due[107] < 9.0);
        }
        assert!(by_name("decode_wide").unwrap().schedule(1, 9.0).is_empty());
    }
}
