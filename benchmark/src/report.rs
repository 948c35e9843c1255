//! Metric names, units and directions — the table `BENCHMARK.json` and
//! the README are written from — and the one-line JSON result a run
//! prints last.

use microscopiq_runtime::net::Json;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end: share of the parent's median by which the metric may
    /// worsen. Per-layer metrics have no bound (0).
    pub bound: f64,
    /// Per-layer: `(end-to-end metric, workload)` the layer metric is
    /// expected to move, written down before measuring. Empty for
    /// end-to-end metrics.
    pub moves: (&'static str, &'static str),
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        moves: ("", ""),
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: (&'static str, &'static str),
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        moves,
    }
}

use Better::{Higher, Lower};

/// What a user of the serving stack sees. Printed by `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("tokens_per_s", "tok/s", Higher, 0.25),
    e2e("ttft_p50_ms", "ms", Lower, 0.25),
    e2e("itl_p50_ms", "ms", Lower, 0.25),
    e2e("slo_attainment", "share", Higher, 0.10),
    e2e("delivered_share", "share", Higher, 0.001),
    e2e("cpu_ms_per_token", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
    e2e("stream_match_share", "share", Higher, 0.10),
    e2e("ppl_ratio", "ratio", Lower, 0.01),
];

/// One layer each, named `<layer>.<what>`. Printed by `--trace 1`.
pub const PER_LAYER: &[MetricDef] = &[
    layer("core.quantize_s", "s", Lower, ("setup_s", "decode_wide")),
    layer(
        "core.quantize_layer_ms_p50",
        "ms",
        Lower,
        ("setup_s", "decode_wide"),
    ),
    layer(
        "core.outlier_microblock_fraction",
        "share",
        Lower,
        ("tokens_per_s", "decode_wide_fast"),
    ),
    layer(
        "core.effective_bits",
        "bits",
        Lower,
        ("peak_rss_mb", "decode_wide"),
    ),
    layer(
        "core.packed_bytes",
        "bytes",
        Lower,
        ("peak_rss_mb", "decode_wide"),
    ),
    layer(
        "core.kv_append_ns_per_row",
        "ns",
        Lower,
        ("ttft_p50_ms", "long_context"),
    ),
    layer("fm.calibrate_s", "s", Lower, ("setup_s", "decode_wide")),
    layer(
        "fm.prefill_us_per_token_ctx512",
        "us",
        Lower,
        ("ttft_p50_ms", "long_context"),
    ),
    layer(
        "fm.prefill_self_share_ctx512",
        "share",
        Lower,
        ("ttft_p50_ms", "long_context"),
    ),
    layer(
        "fm.decode_step_us_ctx64",
        "us",
        Lower,
        ("itl_p50_ms", "shared_prefix"),
    ),
    layer(
        "fm.decode_step_us_ctx512",
        "us",
        Lower,
        ("itl_p50_ms", "long_context"),
    ),
    layer(
        "fm.decode_self_share_ctx512",
        "share",
        Lower,
        ("itl_p50_ms", "long_context"),
    ),
    layer(
        "executor.matmul_calls",
        "count",
        Lower,
        ("cpu_ms_per_token", "decode_wide"),
    ),
    layer(
        "executor.gemv_calls",
        "count",
        Lower,
        ("itl_p50_ms", "mix_open"),
    ),
    layer(
        "executor.m_mean",
        "count",
        Higher,
        ("tokens_per_s", "decode_wide"),
    ),
    layer(
        "executor.matmul_us_p50",
        "us",
        Lower,
        ("itl_p50_ms", "decode_wide"),
    ),
    layer(
        "executor.gemv_us_p50",
        "us",
        Lower,
        ("itl_p50_ms", "mix_open"),
    ),
    layer(
        "executor.busy_share",
        "share",
        Lower,
        ("tokens_per_s", "decode_wide"),
    ),
    layer(
        "executor.gmacs_per_s",
        "GMAC/s",
        Higher,
        ("tokens_per_s", "decode_wide"),
    ),
    layer(
        "executor.weight_gb_per_s",
        "GB/s",
        Higher,
        ("tokens_per_s", "decode_wide_fast"),
    ),
    layer(
        "kernels.share_bucketed_cache",
        "share",
        Higher,
        ("tokens_per_s", "decode_wide"),
    ),
    layer(
        "kernels.share_simd_f32",
        "share",
        Higher,
        ("tokens_per_s", "decode_wide_fast"),
    ),
    layer(
        "kernels.share_lane_f32",
        "share",
        Higher,
        ("tokens_per_s", "decode_wide_fast"),
    ),
    layer(
        "kernels.share_bucketed_lane",
        "share",
        Higher,
        ("tokens_per_s", "decode_wide"),
    ),
    layer(
        "kernels.share_scalar_f64",
        "share",
        Lower,
        ("tokens_per_s", "decode_wide"),
    ),
    layer(
        "cache.hit_ratio",
        "share",
        Higher,
        ("tokens_per_s", "decode_wide"),
    ),
    layer(
        "cache.resident_bytes",
        "bytes",
        Lower,
        ("peak_rss_mb", "decode_wide"),
    ),
    layer(
        "cache.evictions",
        "count",
        Lower,
        ("tokens_per_s", "decode_wide"),
    ),
    layer(
        "session.steps",
        "count",
        Lower,
        ("tokens_per_s", "wire_tiny"),
    ),
    layer(
        "session.step_us_p50",
        "us",
        Lower,
        ("itl_p50_ms", "wire_tiny"),
    ),
    layer(
        "session.step_us_p90",
        "us",
        Lower,
        ("itl_p50_ms", "mix_open"),
    ),
    layer(
        "session.step_self_us_p50",
        "us",
        Lower,
        ("itl_p50_ms", "wire_tiny"),
    ),
    layer(
        "session.submit_us_p50",
        "us",
        Lower,
        ("ttft_p50_ms", "shared_prefix"),
    ),
    layer(
        "session.batch_requests_mean",
        "count",
        Higher,
        ("tokens_per_s", "decode_wide"),
    ),
    layer(
        "session.new_tokens_per_step_mean",
        "count",
        Higher,
        ("tokens_per_s", "long_context"),
    ),
    layer(
        "session.prefill_token_share",
        "share",
        Lower,
        ("itl_p50_ms", "mix_open"),
    ),
    layer(
        "session.prefill_chunks",
        "count",
        Lower,
        ("ttft_p50_ms", "long_context"),
    ),
    layer(
        "session.preemptions",
        "count",
        Lower,
        ("tokens_per_s", "long_context"),
    ),
    layer(
        "session.kv_peak_bytes",
        "bytes",
        Lower,
        ("peak_rss_mb", "long_context"),
    ),
    layer(
        "prefix.hit_ratio",
        "share",
        Higher,
        ("ttft_p50_ms", "shared_prefix"),
    ),
    layer(
        "prefix.tokens_reused_share",
        "share",
        Higher,
        ("tokens_per_s", "shared_prefix"),
    ),
    layer(
        "prefix.evictions",
        "count",
        Lower,
        ("ttft_p50_ms", "long_context"),
    ),
    layer(
        "prefix.resident_bytes",
        "bytes",
        Lower,
        ("peak_rss_mb", "long_context"),
    ),
    layer(
        "prefix.lookup_us_p50",
        "us",
        Lower,
        ("ttft_p50_ms", "shared_prefix"),
    ),
    layer(
        "prefix.insert_us_p50",
        "us",
        Lower,
        ("ttft_p50_ms", "long_context"),
    ),
    layer(
        "server.queue_wait_us_p50",
        "us",
        Lower,
        ("ttft_p50_ms", "mix_open"),
    ),
    layer(
        "server.queue_wait_us_p90",
        "us",
        Lower,
        ("slo_attainment", "mix_open"),
    ),
    layer(
        "server.admit_to_first_token_us_p50",
        "us",
        Lower,
        ("ttft_p50_ms", "mix_open"),
    ),
    layer(
        "server.peak_live_streams",
        "count",
        Lower,
        ("slo_attainment", "mix_open"),
    ),
    layer(
        "server.refused",
        "count",
        Lower,
        ("delivered_share", "mix_open"),
    ),
    layer(
        "server.ttft_p90_ms",
        "ms",
        Lower,
        ("slo_attainment", "mix_open"),
    ),
    layer(
        "server.ttft_p99_ms",
        "ms",
        Lower,
        ("slo_attainment", "mix_open"),
    ),
    layer(
        "server.itl_p90_ms",
        "ms",
        Lower,
        ("slo_attainment", "mix_open"),
    ),
    layer(
        "server.itl_p99_ms",
        "ms",
        Lower,
        ("slo_attainment", "mix_open"),
    ),
    layer(
        "net.wire_ttft_overhead_us_p50",
        "us",
        Lower,
        ("ttft_p50_ms", "wire_tiny"),
    ),
    layer(
        "net.wire_itl_overhead_us_p50",
        "us",
        Lower,
        ("itl_p50_ms", "wire_tiny"),
    ),
    layer(
        "net.http_parse_ns_per_request",
        "ns",
        Lower,
        ("cpu_ms_per_token", "wire_tiny"),
    ),
    layer(
        "net.json_parse_ns_per_request",
        "ns",
        Lower,
        ("cpu_ms_per_token", "wire_tiny"),
    ),
    layer(
        "net.json_render_ns_per_event",
        "ns",
        Lower,
        ("cpu_ms_per_token", "wire_tiny"),
    ),
    layer(
        "net.wire_bytes_per_token",
        "bytes",
        Lower,
        ("cpu_ms_per_token", "wire_tiny"),
    ),
    layer(
        "net.connect_us_p50",
        "us",
        Lower,
        ("ttft_p50_ms", "wire_tiny"),
    ),
    layer(
        "net.fleet_submit_us_p50",
        "us",
        Lower,
        ("ttft_p50_ms", "wire_tiny"),
    ),
    layer(
        "proc.cpu_sys_share",
        "share",
        Lower,
        ("cpu_ms_per_token", "decode_wide"),
    ),
    layer(
        "proc.ctx_switches_per_token",
        "count",
        Lower,
        ("cpu_ms_per_token", "decode_wide"),
    ),
    layer(
        "proc.threads_peak",
        "count",
        Lower,
        ("itl_p50_ms", "decode_wide"),
    ),
    layer("gen.sent", "count", Higher, ("tokens_per_s", "decode_wide")),
    layer("gen.late_ms_max", "ms", Lower, ("ttft_p50_ms", "mix_open")),
    layer(
        "gen.segment_iqr_tokens_per_s",
        "share",
        Lower,
        ("tokens_per_s", "decode_wide"),
    ),
    layer(
        "telemetry.trace_overhead_ratio",
        "ratio",
        Higher,
        ("tokens_per_s", "wire_tiny"),
    ),
];

/// The requests a run sent and what went wrong, if anything.
#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: usize,
    pub failed: usize,
    /// Violated checks, in words. Empty means the outputs are correct.
    pub problems: Vec<String>,
}

/// Collects `name -> value` against one of the tables above and renders
/// the result line.
pub struct Metrics {
    defs: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Self {
            defs,
            values: BTreeMap::new(),
        }
    }

    /// # Panics
    ///
    /// Panics on a name the table does not list: that is a bug in the
    /// benchmark, not a measurement.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.defs.iter().any(|d| d.name == name),
            "metric {name} is not in the table"
        );
        self.values.insert(name, value);
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The final stdout line. A metric that was never set, or is not a
    /// finite number, is a failed check: it is reported as 0 and named.
    pub fn result_line(&self, verdict: &mut Verdict) -> String {
        let mut metrics = BTreeMap::new();
        for d in self.defs {
            let value = match self.values.get(d.name) {
                Some(v) if v.is_finite() => *v,
                other => {
                    verdict
                        .problems
                        .push(format!("metric {} has no finite value ({other:?})", d.name));
                    0.0
                }
            };
            metrics.insert(
                d.name.to_string(),
                Json::Obj(BTreeMap::from([
                    ("value".to_string(), Json::Num(value)),
                    ("unit".to_string(), Json::Str(d.unit.into())),
                ])),
            );
        }
        Json::Obj(BTreeMap::from([
            (
                "correct".to_string(),
                Json::Bool(verdict.problems.is_empty()),
            ),
            (
                "attempted".to_string(),
                Json::Num(verdict.attempted.max(1) as f64),
            ),
            ("failed".to_string(), Json::Num(verdict.failed as f64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ]))
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn names_are_unique_and_moves_point_at_real_rows() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
        }
        for d in PER_LAYER {
            assert!(
                END_TO_END.iter().any(|e| e.name == d.moves.0),
                "{} moves unknown metric {}",
                d.name,
                d.moves.0
            );
            assert!(workloads::by_name(d.moves.1).is_some(), "{}", d.name);
        }
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the binary prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_string();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = json.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (j, d) in listed.iter().zip(defs) {
                assert_eq!(field(j, "name"), d.name);
                assert_eq!(field(j, "unit"), d.unit);
                assert_eq!(field(j, "better"), d.better.as_str());
                if key == "end_to_end" {
                    assert_eq!(j.get("bound").and_then(Json::as_f64), Some(d.bound));
                }
            }
        }
        let listed = json.get("workloads").and_then(Json::as_arr).unwrap();
        let ours = workloads::all();
        assert_eq!(listed.len(), ours.len());
        for (j, w) in listed.iter().zip(&ours) {
            assert_eq!(field(j, "name"), w.name);
            assert_eq!(field(j, "why"), w.why);
            assert!(w.why.len() <= 200);
        }
    }

    #[test]
    fn result_line_has_the_contract_keys_and_flags_missing_values() {
        let mut m = Metrics::new(END_TO_END);
        for d in END_TO_END {
            m.set(d.name, 1.25);
        }
        let mut v = Verdict {
            attempted: 10,
            ..Verdict::default()
        };
        let json = Json::parse(&m.result_line(&mut v)).unwrap();
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(json.get("attempted").and_then(Json::as_usize), Some(10));
        let one = json.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(one.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(one.get("unit").and_then(Json::as_str), Some("s"));

        let mut v = Verdict::default();
        let json = Json::parse(&Metrics::new(END_TO_END).result_line(&mut v)).unwrap();
        assert_eq!(json.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(v.problems.len(), END_TO_END.len());
    }
}
