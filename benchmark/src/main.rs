//! The repo's serving benchmark, from quantizer to wire.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run, result as the last stdout line
//! benchmark [--seed N] [--seconds S] [--trace 0|1]         every workload, untraced then traced (or one of the two)
//! benchmark aa [--seeds K] [--seconds S]                   two sets of untraced runs, compared
//! benchmark manifest                                       BENCHMARK.json, from the tables in report.rs
//! benchmark tables                                         the README's workload and metric tables
//! ```
//!
//! One OS process runs one workload, so CPU time, context switches and
//! peak memory are that workload's alone; the all-workloads and `aa`
//! modes re-execute this binary once per run. See `README.md`.

mod check;
mod layers;
mod loadgen;
mod measure;
mod proc;
mod report;
mod run;
mod setup;
mod stats;
mod trace;
mod workloads;

use microscopiq_runtime::net::Json;
use report::{Better, MetricDef, Metrics, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Measured seconds per run when `--seconds` is not given; the same
/// number `BENCHMARK.json` carries as `run_seconds`.
const DEFAULT_SECONDS: f64 = 10.0;

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

struct Args {
    mode: Option<String>,
    flags: BTreeMap<String, String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1).peekable();
    let mode = args.next_if(|a| !a.starts_with("--"));
    let mut flags = BTreeMap::new();
    while let Some(flag) = args.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = args
            .next()
            .ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value);
    }
    Ok(Args { mode, flags })
}

impl Args {
    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} {v:?} is not a valid number")),
        }
    }
}

/// One workload in this process; the result is the last stdout line.
fn single(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    started: Instant,
) -> Result<bool, String> {
    let w = workloads::by_name(name).ok_or_else(|| {
        let known: Vec<_> = workloads::all().iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let (metrics, mut verdict) = if traced {
        layers::traced_run(&w, seed, seconds, &results_dir())
    } else {
        let (r, verdict) = run::measured_run(&w, seed, seconds, started);
        let mut m = Metrics::new(END_TO_END);
        m.set("setup_s", r.setup_s);
        m.set("tokens_per_s", r.e2e.tokens_per_s);
        m.set("ttft_p50_ms", r.e2e.ttft_p50_ms);
        m.set("itl_p50_ms", r.e2e.itl_p50_ms);
        m.set("slo_attainment", r.e2e.slo_attainment);
        m.set("delivered_share", r.e2e.delivered_share);
        m.set("cpu_ms_per_token", r.e2e.cpu_ms_per_token);
        m.set("peak_rss_mb", r.peak_rss_mb);
        m.set("stream_match_share", r.stream_match_share);
        m.set("ppl_ratio", r.ppl_ratio);
        eprintln!(
            "{name}: sent {} in the window, {} failed; ttft p90 {:.3} ms, itl p90 {:.3} ms, \
             generator late by at most {:.3} ms, segment spread {:.3}",
            r.e2e.sent,
            r.e2e.failed,
            r.e2e.ttft_p90_ms,
            r.e2e.itl_p90_ms,
            r.late_max.as_secs_f64() * 1e3,
            stats::quartile_spread(&r.e2e.segment_rates),
        );
        (m, verdict)
    };
    let line = metrics.result_line(&mut verdict);
    for problem in &verdict.problems {
        eprintln!("{name}: CHECK FAILED: {problem}");
    }
    println!("{line}");
    // The verdict travels in the line's `correct` field; the exit code
    // only says whether a result was produced.
    Ok(true)
}

/// The parsed result line of a child run.
struct ChildResult {
    correct: bool,
    values: BTreeMap<String, f64>,
}

/// Re-executes this binary for one run and parses its last stdout line.
fn child(name: &str, seed: u64, seconds: f64, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {name} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let json = Json::parse(last).map_err(|e| format!("{name}: no result line ({e})"))?;
    let mut values = BTreeMap::new();
    if let Some(Json::Obj(metrics)) = json.get("metrics") {
        for (k, v) in metrics {
            values.insert(
                k.clone(),
                v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
            );
        }
    }
    Ok(ChildResult {
        correct: out.status.success() && json.get("correct") == Some(&Json::Bool(true)),
        values,
    })
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn machine() -> Json {
    let features = microscopiq_runtime::detected_cpu_features()
        .into_iter()
        .map(|(name, on)| (name.to_string(), Json::Bool(on)))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::Obj(BTreeMap::from([
        ("nproc".to_string(), Json::Num(nproc as f64)),
        ("cpu_model".to_string(), Json::Str(proc::cpu_model())),
        ("cpu_features".to_string(), Json::Obj(features)),
        (
            "MICROSCOPIQ_SIMD".to_string(),
            Json::Str(std::env::var("MICROSCOPIQ_SIMD").unwrap_or_default()),
        ),
    ]))
}

/// Every workload, untraced then traced; prints `workload metric value
/// unit`, writes `results/latest.json`, appends `results/history.jsonl`.
fn all(seed: u64, seconds: f64, only: Option<bool>) -> Result<bool, String> {
    let mut ok = true;
    let mut by_workload = BTreeMap::new();
    for w in workloads::all() {
        let mut row = BTreeMap::new();
        for (traced, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
            if only.is_some_and(|t| t != traced) {
                continue;
            }
            let r = child(w.name, seed, seconds, traced)?;
            ok &= r.correct;
            for d in defs {
                let value = r.values.get(d.name).copied().unwrap_or(f64::NAN);
                println!("{} {} {} {}", w.name, d.name, value, d.unit);
                row.insert(d.name.to_string(), Json::Num(value));
            }
        }
        by_workload.insert(w.name.to_string(), Json::Obj(row));
    }
    let record = Json::Obj(BTreeMap::from([
        ("commit".to_string(), Json::Str(git_commit())),
        ("seed".to_string(), Json::Num(seed as f64)),
        ("seconds".to_string(), Json::Num(seconds)),
        ("correct".to_string(), Json::Bool(ok)),
        ("machine".to_string(), machine()),
        ("metrics".to_string(), Json::Obj(by_workload)),
    ]))
    .render();
    let dir = results_dir();
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        std::fs::write(dir.join("latest.json"), &record)?;
        let mut history = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("history.jsonl"))?;
        writeln!(history, "{record}")
    };
    write().map_err(|e| format!("cannot write results under {}: {e}", dir.display()))?;
    eprintln!(
        "{}: wrote {}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        },
        dir.join("latest.json").display()
    );
    Ok(ok)
}

/// Worse-by share of `b` against `a` in the metric's own direction.
fn worse_by(d: &MetricDef, a: f64, b: f64) -> f64 {
    match d.better {
        Better::Lower => (b - a) / a.abs().max(1e-12),
        Better::Higher => (a - b) / a.abs().max(1e-12),
    }
}

/// Two sets of untraced runs of the same build, `seeds` seeds each, and
/// for every metric x workload: both medians, how much worse the second
/// reads, each set's quartile spread, and pass/fail against the
/// metric's bound — the acceptance rule the benchmark is held to.
fn aa(seeds: u64, seconds: f64) -> Result<bool, String> {
    let mut ok = true;
    println!("workload metric median_a median_b worse_by spread_a spread_b bound verdict");
    for w in workloads::all() {
        let mut sets: [BTreeMap<&str, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
        for set in &mut sets {
            for seed in 1..=seeds {
                let r = child(w.name, seed, seconds, false)?;
                ok &= r.correct;
                for d in END_TO_END {
                    let v = r.values.get(d.name).copied().unwrap_or(f64::NAN);
                    set.entry(d.name).or_default().push(v);
                }
            }
        }
        for d in END_TO_END {
            let (a, b) = (&sets[0][d.name], &sets[1][d.name]);
            let (ma, mb) = (stats::median(a), stats::median(b));
            let (sa, sb) = (stats::quartile_spread(a), stats::quartile_spread(b));
            let drift = worse_by(d, ma, mb);
            // Set-up time is exempt from the spread rule, not from drift.
            let steady = d.name == "setup_s" || seeds < 2 || (sa <= d.bound && sb <= d.bound);
            let pass = steady && drift <= d.bound;
            ok &= pass;
            println!(
                "{} {} {ma:.6} {mb:.6} {drift:+.4} {sa:.4} {sb:.4} {} {}",
                w.name,
                d.name,
                d.bound,
                if pass { "pass" } else { "FAIL" }
            );
        }
    }
    Ok(ok)
}

/// `BENCHMARK.json` as the driver's contract shapes it. Generated, so
/// the file and the tables the binary prints from cannot drift apart
/// (a unit test compares them).
fn manifest() -> String {
    let text = |s: &str| Json::Str(s.into());
    let metric = |d: &MetricDef, bounded: bool| {
        let mut o = BTreeMap::from([
            ("name".to_string(), text(d.name)),
            ("unit".to_string(), text(d.unit)),
            ("better".to_string(), text(d.better.as_str())),
        ]);
        if bounded {
            o.insert("bound".to_string(), Json::Num(d.bound));
        }
        Json::Obj(o)
    };
    let workloads = workloads::all()
        .iter()
        .map(|w| {
            Json::Obj(BTreeMap::from([
                ("name".to_string(), text(w.name)),
                ("why".to_string(), text(w.why)),
            ]))
        })
        .collect();
    Json::Obj(BTreeMap::from([
        (
            "command".to_string(),
            Json::Arr(vec![text("bash"), text("benchmark/run.sh")]),
        ),
        ("paths".to_string(), Json::Arr(vec![text("benchmark")])),
        ("run_seconds".to_string(), Json::Num(DEFAULT_SECONDS)),
        ("workloads".to_string(), Json::Arr(workloads)),
        (
            "end_to_end".to_string(),
            Json::Arr(END_TO_END.iter().map(|d| metric(d, true)).collect()),
        ),
        (
            "per_layer".to_string(),
            Json::Arr(PER_LAYER.iter().map(|d| metric(d, false)).collect()),
        ),
    ]))
    .render()
}

/// The README's tables, in Markdown.
fn tables() {
    println!("| workload | why |\n|---|---|");
    for w in workloads::all() {
        println!("| `{}` | {} |", w.name, w.why);
    }
    println!("\n| end-to-end metric | unit | better | bound |\n|---|---|---|---|");
    for d in END_TO_END {
        println!(
            "| `{}` | {} | {} | {} |",
            d.name,
            d.unit,
            d.better.as_str(),
            d.bound
        );
    }
    println!("\n| per-layer metric | unit | better | should move | on |\n|---|---|---|---|---|");
    for d in PER_LAYER {
        println!(
            "| `{}` | {} | {} | `{}` | `{}` |",
            d.name,
            d.unit,
            d.better.as_str(),
            d.moves.0,
            d.moves.1
        );
    }
}

fn dispatch(started: Instant) -> Result<bool, String> {
    let args = parse_args()?;
    let seconds: f64 = args.number("seconds", DEFAULT_SECONDS)?;
    if !(1.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=60"));
    }
    let traced = match args.flags.get("trace").map(String::as_str) {
        None => None,
        Some("0") => Some(false),
        Some("1") => Some(true),
        Some(other) => return Err(format!("--trace {other:?} is neither 0 nor 1")),
    };
    match (args.mode.as_deref(), args.flags.get("workload")) {
        (None, Some(name)) => single(
            name,
            args.number("seed", 1)?,
            seconds,
            traced.unwrap_or(false),
            started,
        ),
        (None, None) => all(args.number("seed", 1)?, seconds, traced),
        (Some("aa"), None) => aa(args.number("seeds", 1)?, seconds),
        (Some("manifest"), None) => {
            println!("{}", manifest());
            Ok(true)
        }
        (Some("tables"), None) => {
            tables();
            Ok(true)
        }
        (Some(other), _) => Err(format!("unknown mode {other:?}")),
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    match dispatch(started) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(usage) => {
            eprintln!("benchmark: {usage}");
            ExitCode::from(2)
        }
    }
}
