//! Prefix-cache and N-way-fork conformance.
//!
//! Contracts under test:
//!
//! * **Exact-KV reuse is invisible** — serving a prompt whose prefix is
//!   resident in the cache (copy-on-write attach + suffix-only prefill)
//!   yields token streams **bitwise identical** to a cold session with
//!   no cache at all, for arbitrary prompt lengths, chunk sizes, and
//!   token budgets.
//! * **Quantized-KV reuse is group-aligned** — only whole quantized
//!   groups are ever attached, and reuse is deterministic (two warm
//!   sessions agree bitwise), though not required to match a cold run
//!   (the residual window sits elsewhere).
//! * **N-way forks are pure fan-out** — sample `i` of an N-way request
//!   is bitwise identical to a solo request with seed `seed + i`.
//! * **Failure isolation** — cancelling a request mid-suffix-prefill
//!   releases its copy-on-write tail, leaves shared trie segments
//!   intact, and perturbs no bystander stream.
//! * **No leaks** — after any amount of churn, shrinking the capacity to
//!   zero drains every resident byte; live KV occupancy returns to zero
//!   at idle.

use microscopiq_core::{MicroScopiQ, QuantConfig};
use microscopiq_fm::{DequantGemm, KvCacheConfig, KvMode, PackedTinyFm, TinyFm, TinyFmConfig};
use microscopiq_linalg::SeededRng;
use microscopiq_runtime::{
    GenRequest, GenResult, PrefixCacheConfig, SchedulerConfig, Server, ServerConfig, Session,
    StreamEvent,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A tiny 1-layer model so 512-token prefills stay cheap, shared across
/// proptest cases.
fn tiny_model() -> &'static PackedTinyFm {
    static MODEL: OnceLock<PackedTinyFm> = OnceLock::new();
    MODEL.get_or_init(|| {
        let cfg = TinyFmConfig {
            d_model: 16,
            n_heads: 2,
            d_ff: 32,
            n_layers: 1,
            vocab: 32,
        };
        let fm = TinyFm::teacher(cfg, 19);
        let mut rng = SeededRng::new(190);
        let calib: Vec<Vec<usize>> = (0..3).map(|_| fm.generate(8, 0.9, &mut rng)).collect();
        let q = MicroScopiQ::new(
            QuantConfig::w4()
                .macro_block(16)
                .row_block(16)
                .build()
                .unwrap(),
        );
        PackedTinyFm::quantize_from(&fm, &q, &calib).unwrap()
    })
}

/// A 2-layer model matching the serving conformance fixtures.
fn serving_model() -> PackedTinyFm {
    let cfg = TinyFmConfig {
        d_model: 32,
        n_heads: 2,
        d_ff: 64,
        n_layers: 2,
        vocab: 48,
    };
    let fm = TinyFm::teacher(cfg, 57);
    let mut rng = SeededRng::new(570);
    let calib: Vec<Vec<usize>> = (0..3).map(|_| fm.generate(10, 0.9, &mut rng)).collect();
    let q = MicroScopiQ::new(
        QuantConfig::w4()
            .macro_block(32)
            .row_block(32)
            .build()
            .unwrap(),
    );
    PackedTinyFm::quantize_from(&fm, &q, &calib).unwrap()
}

fn prompt(rng: &mut SeededRng, len: usize, vocab: usize) -> Vec<usize> {
    (0..len).map(|_| rng.below(vocab)).collect()
}

/// Cold reference: the request served by a session with no prefix cache.
fn cold_reference(
    model: &PackedTinyFm,
    sched: SchedulerConfig,
    kv: KvMode,
    req: &GenRequest,
) -> GenResult {
    let mut session = Session::with_config(model.clone(), DequantGemm, sched, kv).unwrap();
    session.submit(req.clone());
    session.run_to_completion().pop().expect("request finished")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For arbitrary shared-prefix lengths, suffix lengths, chunk sizes,
    /// and budgets: a warm admission (longest cached prefix attached
    /// copy-on-write, only the suffix prefilled) streams tokens bitwise
    /// identical to a cold no-cache session, reuse is actually counted,
    /// and shrinking the capacity to zero afterwards drains the trie
    /// completely.
    #[test]
    fn exact_kv_warm_reuse_is_bitwise_equal_to_cold(
        seed in 0u64..1_000,
        shared_len in 2usize..513,
        suffix_len in 1usize..17,
        chunk in 1usize..65,
        budget in 1usize..49,
    ) {
        let model = tiny_model();
        let vocab = model.config().vocab;
        let mut rng = SeededRng::new(seed);
        let shared = prompt(&mut rng, shared_len, vocab);
        let warmer = GenRequest {
            prompt: shared.clone(),
            max_new_tokens: 2,
            temperature: 0.8,
            seed: 7_100 + seed,
            ..Default::default()
        };
        let mut probe_prompt = shared;
        probe_prompt.extend(prompt(&mut rng, suffix_len, vocab));
        let probe = GenRequest {
            prompt: probe_prompt,
            max_new_tokens: 3,
            temperature: 0.8,
            seed: 7_200 + seed,
            ..Default::default()
        };

        let sched = SchedulerConfig::new(4).prefill_chunk(chunk).token_budget(budget);
        let want = cold_reference(model, sched, KvMode::Exact, &probe);

        let mut warm =
            Session::with_config(model.clone(), DequantGemm, sched, KvMode::Exact).unwrap();
        warm.enable_prefix_cache(PrefixCacheConfig::default());
        warm.submit(warmer);
        warm.run_to_completion();
        let probe_id = warm.submit(probe);
        let got = warm.run_to_completion().pop().expect("probe finished");
        prop_assert_eq!(got.id, probe_id);
        prop_assert_eq!(
            &got.tokens,
            &want.tokens,
            "warm reuse diverged from cold prefill (shared={} suffix={} chunk={} budget={})",
            shared_len,
            suffix_len,
            chunk,
            budget
        );
        prop_assert_eq!(got.new_tokens, want.new_tokens);

        let stats = warm.prefix_cache_stats().expect("cache enabled");
        prop_assert!(stats.hits >= 1, "probe admission must hit the cache");
        prop_assert!(stats.tokens_reused >= 1, "a non-empty prefix must be reused");
        let s = warm.stats();
        prop_assert_eq!(s.prefix_hits as u64, stats.hits);
        prop_assert_eq!(s.prefix_tokens_reused as u64, stats.tokens_reused);
        prop_assert_eq!(warm.kv_occupancy(), 0, "all live KV reclaimed at idle");

        // Nothing is referenced at idle, so a zero budget drains every
        // resident byte — the no-leak proof after churn.
        warm.set_prefix_cache_capacity(0);
        let drained = warm.prefix_cache_stats().unwrap();
        prop_assert_eq!(drained.resident_bytes, 0);
        prop_assert_eq!(drained.resident_nodes, 0);
    }
}

/// A preempted request re-matches the prefix cache before its
/// recompute. That lookup is a hit like an admission's, so the session's
/// counters and the cache's agree after it, and the resumed stream still
/// matches a cold run.
#[test]
fn preemption_rematch_counts_as_a_prefix_hit() {
    let model = serving_model();
    let sched = SchedulerConfig::new(2);
    let req = GenRequest {
        prompt: (0..12).collect(),
        max_new_tokens: 4,
        temperature: 0.8,
        seed: 41,
        ..Default::default()
    };
    let want = cold_reference(&model, sched, KvMode::Exact, &req);
    let mut session = Session::with_config(model, DequantGemm, sched, KvMode::Exact).unwrap();
    session.enable_prefix_cache(PrefixCacheConfig::default());
    let id = session.submit(req);
    // One whole-prompt step completes the prompt, which inserts it.
    session.step();
    assert!(session.preempt(id));
    let cache = session.prefix_cache_stats().expect("cache enabled");
    assert_eq!(cache.hits, 1, "the re-match attached the cached prompt");
    let s = session.stats();
    assert_eq!(s.prefix_hits as u64, cache.hits);
    assert_eq!(s.prefix_tokens_reused as u64, cache.tokens_reused);
    let got = session.run_to_completion().pop().expect("request finished");
    assert_eq!(got.tokens, want.tokens, "resumed stream diverged");
}

/// Quantized-KV reuse attaches only whole quantized groups
/// (`tokens_reused` is group-aligned) and is deterministic: two warm
/// sessions fed the same traffic agree bitwise on every stream.
#[test]
fn quantized_reuse_is_group_aligned_and_deterministic() {
    let model = serving_model();
    let group = 8;
    let kv = KvMode::Quantized(KvCacheConfig {
        bits: 4,
        group,
        residual: 8,
    });
    let vocab = model.config().vocab;
    let mut rng = SeededRng::new(41);
    let shared = prompt(&mut rng, 64, vocab);
    let mut probe_prompt = shared.clone();
    probe_prompt.extend(prompt(&mut rng, 9, vocab));
    let reqs = [
        GenRequest {
            prompt: shared,
            max_new_tokens: 3,
            temperature: 0.9,
            seed: 4_100,
            ..Default::default()
        },
        GenRequest {
            prompt: probe_prompt,
            max_new_tokens: 4,
            temperature: 0.9,
            seed: 4_200,
            ..Default::default()
        },
    ];

    let run = || {
        let sched = SchedulerConfig::new(4).prefill_chunk(6).token_budget(10);
        let mut session = Session::with_config(model.clone(), DequantGemm, sched, kv).unwrap();
        session.enable_prefix_cache(PrefixCacheConfig::default());
        let mut out = Vec::new();
        for r in &reqs {
            session.submit(r.clone());
            out.extend(session.run_to_completion());
        }
        let stats = session.prefix_cache_stats().unwrap();
        assert_eq!(session.kv_occupancy(), 0);
        (out, stats)
    };
    let (a, sa) = run();
    let (b, sb) = run();
    assert_eq!(a, b, "warm quantized serving must be deterministic");
    assert_eq!(sa, sb);
    assert!(sa.hits >= 1, "probe must hit the quantized cache");
    assert!(sa.tokens_reused > 0);
    assert_eq!(
        sa.tokens_reused % group as u64,
        0,
        "quantized reuse must be group-aligned"
    );
}

/// Sample `i` of an N-way request is bitwise identical to a solo request
/// with seed `seed + i`: one shared prefill, N continuations, no
/// numerical side effects from the copy-on-write fan-out.
#[test]
fn n_way_forks_match_solo_requests_bitwise() {
    let model = serving_model();
    let vocab = model.config().vocab;
    let mut rng = SeededRng::new(83);
    let base = GenRequest {
        prompt: prompt(&mut rng, 37, vocab),
        max_new_tokens: 6,
        temperature: 0.9,
        seed: 5_000,
        n_samples: 4,
        ..Default::default()
    };

    let sched = SchedulerConfig::new(4).prefill_chunk(5).token_budget(9);
    let mut session =
        Session::with_config(model.clone(), DequantGemm, sched, KvMode::Exact).unwrap();
    session.enable_prefix_cache(PrefixCacheConfig::default());
    let leader = session.submit(base.clone());
    let results = session.run_to_completion();
    assert_eq!(results.len(), 4, "one result per sample");
    let by_id: HashMap<usize, GenResult> = results.into_iter().map(|r| (r.id, r)).collect();

    for i in 0..4usize {
        let solo = GenRequest {
            seed: base.seed + i as u64,
            n_samples: 1,
            ..base.clone()
        };
        let want = cold_reference(&model, sched, KvMode::Exact, &solo);
        let got = by_id.get(&(leader + i)).expect("sample finished");
        assert_eq!(
            got.tokens, want.tokens,
            "sample {i} diverged from the solo request with its derived seed"
        );
        assert_eq!(got.new_tokens, want.new_tokens);
    }
    assert_eq!(session.kv_occupancy(), 0);
}

/// Zero-budget N-way requests finish instantly with one prompt-only
/// result per sample, on consecutive ids.
#[test]
fn zero_budget_n_way_yields_prompt_only_samples() {
    let model = serving_model();
    let mut session = Session::new(model, DequantGemm, 4);
    let req = GenRequest {
        prompt: vec![1, 2, 3],
        max_new_tokens: 0,
        temperature: 0.8,
        seed: 11,
        n_samples: 3,
        ..Default::default()
    };
    let leader = session.submit(req);
    let results = session.run_to_completion();
    assert_eq!(results.len(), 3);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.id, leader + i);
        assert_eq!(r.tokens, vec![1, 2, 3]);
        assert_eq!(r.new_tokens, 0);
    }
}

/// Failure injection: a request cancelled midway through its
/// suffix-only prefill releases its copy-on-write tail, leaves the
/// shared trie segments intact, and perturbs no bystander — after the
/// dust settles the cache drains to zero, proving every reference was
/// returned.
#[test]
fn cancel_mid_suffix_prefill_releases_cow_and_leaves_trie_intact() {
    let model = tiny_model();
    let vocab = model.config().vocab;
    let mut rng = SeededRng::new(67);
    let shared = prompt(&mut rng, 64, vocab);
    let sched = SchedulerConfig::new(4).prefill_chunk(8).token_budget(8);

    let bystander = GenRequest {
        prompt: prompt(&mut rng, 20, vocab),
        max_new_tokens: 5,
        temperature: 0.8,
        seed: 6_100,
        ..Default::default()
    };
    let bystander_want = cold_reference(model, sched, KvMode::Exact, &bystander);

    let mut session =
        Session::with_config(model.clone(), DequantGemm, sched, KvMode::Exact).unwrap();
    session.enable_prefix_cache(PrefixCacheConfig::default());
    session.submit(GenRequest {
        prompt: shared.clone(),
        max_new_tokens: 2,
        temperature: 0.8,
        seed: 6_200,
        ..Default::default()
    });
    session.run_to_completion();
    let resident = session.prefix_cache_stats().unwrap();
    assert!(resident.resident_bytes > 0, "warmer populated the trie");

    // The victim attaches the 64-token shared prefix and then has a
    // 200-token suffix to prefill in chunks of 8 — two steps in it is
    // unquestionably mid-suffix-prefill.
    let mut victim_prompt = shared;
    victim_prompt.extend(prompt(&mut rng, 200, vocab));
    let victim = session.submit(GenRequest {
        prompt: victim_prompt,
        max_new_tokens: 4,
        temperature: 0.8,
        seed: 6_300,
        ..Default::default()
    });
    let bystander_id = session.submit(bystander);
    let mut results = session.step();
    results.extend(session.step());
    assert!(session.is_live(victim), "victim still mid-prefill");
    let occ_with_victim = session.kv_occupancy();
    assert!(session.cancel(victim), "victim is live two steps in");
    assert!(
        session.kv_occupancy() < occ_with_victim,
        "cancel must release the victim's CoW tail"
    );

    // The shared trie segments survived the cancel untouched.
    let after = session.prefix_cache_stats().unwrap();
    assert_eq!(after.resident_bytes, resident.resident_bytes);
    assert_eq!(after.resident_nodes, resident.resident_nodes);
    assert_eq!(after.evictions, 0);

    results.extend(session.run_to_completion());
    let by_id: HashMap<usize, GenResult> = results.into_iter().map(|r| (r.id, r)).collect();
    assert!(!by_id.contains_key(&victim), "victim never finishes");
    let got = by_id.get(&bystander_id).expect("bystander finished");
    assert_eq!(
        got.tokens, bystander_want.tokens,
        "bystander stream must be bitwise unchanged by the cancel"
    );
    assert_eq!(session.kv_occupancy(), 0, "no live KV at idle");
    assert_eq!(session.stats().cancelled, 1);

    // Every CoW reference was returned: a zero budget drains the trie
    // to nothing (a leaked Arc would pin its node resident).
    session.set_prefix_cache_capacity(0);
    let drained = session.prefix_cache_stats().unwrap();
    assert_eq!(drained.resident_bytes, 0, "leaked cache bytes after churn");
    assert_eq!(drained.resident_nodes, 0);
}

/// The byte budget is enforced at idle (eviction strikes unreferenced
/// LRU leaves) and recently warmed prefixes still hit.
#[test]
fn capacity_budget_evicts_lru_at_idle() {
    let model = tiny_model();
    let vocab = model.config().vocab;
    // One 32-token resident prompt costs 32 rows * 16 lanes * 2 (K and
    // V) * 8 bytes = 8 KiB in exact mode, so a 20 KiB budget holds two.
    let capacity = 20 << 10;
    let mut session = Session::new(model.clone(), DequantGemm, 4);
    session.enable_prefix_cache(PrefixCacheConfig {
        capacity_bytes: capacity,
    });
    let mut rng = SeededRng::new(29);
    for i in 0..6u64 {
        session.submit(GenRequest {
            prompt: prompt(&mut rng, 32, vocab),
            max_new_tokens: 2,
            temperature: 0.8,
            seed: 8_000 + i,
            ..Default::default()
        });
        session.run_to_completion();
        let stats = session.prefix_cache_stats().unwrap();
        assert!(
            stats.resident_bytes <= capacity,
            "budget exceeded at idle: {} > {capacity}",
            stats.resident_bytes
        );
    }
    let stats = session.prefix_cache_stats().unwrap();
    assert!(
        stats.evictions > 0,
        "six 8 KiB prompts must evict under 20 KiB"
    );
    assert!(stats.resident_bytes > 0, "the newest prompts stay resident");
}

/// Server integration: warm streams are bitwise equal to the cold
/// offline reference, `prefix_cache_stats` counts the reuse,
/// `/metrics` exposes the prefix family, N-way requests fan out through
/// one stream, and the cache drains on demand through the handle.
#[test]
fn server_prefix_cache_and_n_way_end_to_end() {
    let model = serving_model();
    let vocab = model.config().vocab;
    let mut rng = SeededRng::new(59);
    let shared = prompt(&mut rng, 48, vocab);
    let mut probe_prompt = shared.clone();
    probe_prompt.extend(prompt(&mut rng, 6, vocab));

    let sched = SchedulerConfig::new(4).prefill_chunk(6).token_budget(12);
    let probe = GenRequest {
        prompt: probe_prompt,
        max_new_tokens: 5,
        temperature: 0.9,
        seed: 9_200,
        ..Default::default()
    };
    let probe_want = cold_reference(&model, sched, KvMode::Exact, &probe);
    let fork = GenRequest {
        prompt: shared.clone(),
        max_new_tokens: 4,
        temperature: 0.9,
        seed: 9_300,
        n_samples: 3,
        ..Default::default()
    };
    let fork_want: Vec<GenResult> = (0..3)
        .map(|i| {
            let solo = GenRequest {
                seed: fork.seed + i,
                n_samples: 1,
                ..fork.clone()
            };
            cold_reference(&model, sched, KvMode::Exact, &solo)
        })
        .collect();

    let server = Server::spawn(
        model,
        DequantGemm,
        ServerConfig {
            max_batch: 4,
            prefill_chunk: 6,
            token_budget: 12,
            prefix_cache: Some(PrefixCacheConfig::default()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handle = server.handle();

    // Warm the trie, then probe it.
    let warmer = GenRequest {
        prompt: shared.clone(),
        max_new_tokens: 2,
        temperature: 0.9,
        seed: 9_100,
        ..Default::default()
    };
    handle.submit(warmer).unwrap().collect().unwrap();
    let got = handle.submit(probe).unwrap().collect().unwrap();
    assert_eq!(got.tokens, probe_want.tokens, "warm serving diverged");

    // A wave of shared-prefix requests submitted back to back, the last
    // (with a budget it cannot reach meanwhile) hanging up after its
    // first token: every admission — the probe's and the wave's — hits
    // and reuses the whole shared prefix.
    let wave: Vec<_> = (0..4u64)
        .map(|i| {
            let mut p = shared.clone();
            p.extend(prompt(&mut rng, 6, vocab));
            let req = GenRequest {
                prompt: p,
                max_new_tokens: if i == 3 { 1_000 } else { 4 },
                temperature: 0.9,
                seed: 9_400 + i,
                ..Default::default()
            };
            handle.submit(req).unwrap()
        })
        .collect();
    for (i, mut s) in wave.into_iter().enumerate() {
        if i == 3 {
            assert!(matches!(s.next_event(), Some(StreamEvent::Token(_))));
        } else {
            s.collect().expect("wave stream completes");
        }
    }
    let stats = handle.prefix_cache_stats().expect("cache enabled");
    assert_eq!(stats.hits, 5, "every shared-prefix admission hits");
    assert!(
        stats.tokens_reused >= 5 * shared.len() as u64,
        "each hit reuses the full shared prefix (reused {})",
        stats.tokens_reused
    );
    let text = handle.render_metrics();
    for family in [
        "microscopiq_prefix_cache_hits",
        "microscopiq_prefix_cache_misses",
        "microscopiq_prefix_cache_evictions",
        "microscopiq_prefix_cache_resident_bytes",
    ] {
        assert!(text.contains(family), "metrics exposition missing {family}");
    }

    // One stream, three samples — each bitwise equal to its solo twin.
    let samples = handle.submit(fork).unwrap().collect_samples().unwrap();
    assert_eq!(samples.len(), 3);
    for (i, (got, want)) in samples.iter().zip(fork_want.iter()).enumerate() {
        assert_eq!(got.tokens, want.tokens, "server sample {i} diverged");
        assert_eq!(got.new_tokens, want.new_tokens);
    }

    // Drain through the handle: the worker applies the new budget
    // between steps.
    handle.set_prefix_cache_capacity(0);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let s = handle.prefix_cache_stats().unwrap();
        if s.resident_bytes == 0 && s.resident_nodes == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "cache never drained: {s:?}");
        std::thread::sleep(Duration::from_millis(10));
    }

    drop(handle);
    let report = server.shutdown();
    assert_eq!(report.served, 6, "six streams (the fork is one)");
    assert_eq!(report.cancelled, 1, "the hung-up wave stream");
    assert_eq!(report.final_kv_rows, 0);
}
