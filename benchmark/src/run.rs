//! The untraced run of one workload: set up three times, measure one
//! window, check the outputs, and name every end-to-end metric.

use crate::check;
use crate::loadgen::{self, Driver, Outcome, Sent};
use crate::measure::{analyze, EndToEnd, Window};
use crate::proc;
use crate::report::Verdict;
use crate::setup::{build, Built};
use crate::stats::median;
use crate::workloads::{Arrival, Workload};
use microscopiq_fm::PackedGemm;
use microscopiq_runtime::net::{FleetConfig, HttpConfig, HttpServer};
use microscopiq_runtime::{EngineTelemetry, Server, ServerHandle};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Fresh set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Connections (and client threads) of the wire workload: `nproc` here.
pub const WIRE_CONNECTIONS: usize = 2;

/// The HTTP/SSE front-end over a one-worker fleet with the workload's
/// serving configuration, on an ephemeral loopback port.
pub fn bind_http<E, F>(w: &Workload, built: &Built, mk_engine: F) -> HttpServer
where
    E: PackedGemm + EngineTelemetry + Send + 'static,
    F: Fn(usize) -> E + Send + Sync + 'static,
{
    let cfg = HttpConfig {
        fleet: FleetConfig {
            workers: 1,
            server: w.server,
            supervision: None,
        },
        ..HttpConfig::default()
    };
    HttpServer::bind("127.0.0.1:0", built.model.clone(), mk_engine, cfg)
        .expect("bind the wire front-end on loopback")
}

/// The program under test, started for one workload.
pub enum Service {
    InProcess(Server),
    Wire(HttpServer),
}

/// What the program itself reports when it stops.
pub struct Stopped {
    pub served: usize,
    pub final_kv_rows: usize,
}

impl Service {
    pub fn start<E, F>(w: &Workload, built: &Built, mk_engine: F) -> Self
    where
        E: PackedGemm + EngineTelemetry + Send + 'static,
        F: Fn(usize) -> E + Send + Sync + 'static,
    {
        if w.wire {
            Service::Wire(bind_http(w, built, mk_engine))
        } else {
            let server = Server::spawn(built.model.clone(), mk_engine(0), w.server)
                .expect("workload server configuration is valid");
            Service::InProcess(server)
        }
    }

    /// The one serving worker's handle (metrics, prefix-cache control).
    pub fn worker(&self) -> ServerHandle {
        match self {
            Service::InProcess(s) => s.handle(),
            Service::Wire(h) => h.fleet().worker(0),
        }
    }

    pub fn stop(self) -> Stopped {
        match self {
            Service::InProcess(s) => {
                let r = s.shutdown();
                Stopped {
                    served: r.served,
                    final_kv_rows: r.final_kv_rows,
                }
            }
            Service::Wire(h) => {
                let r = h.shutdown();
                Stopped {
                    served: r.total(|w| w.served),
                    final_kv_rows: r.total(|w| w.final_kv_rows),
                }
            }
        }
    }
}

/// A driver for the in-process service, owning its own handle.
pub fn driver<'a>(w: &'a Workload, seed: u64, service: &Service) -> Driver<'a> {
    let handle = service.worker();
    Driver::new(w, seed, Box::new(move |req| handle.submit(req)))
}

/// Everything one traffic phase produced.
pub struct Phase {
    pub records: Vec<Sent>,
    pub late_max: Duration,
}

impl Phase {
    pub fn of(records: Vec<Sent>) -> Self {
        Self {
            late_max: loadgen::late_max(&records),
            records,
        }
    }
}

/// The traffic source after warm-up, ready for the window.
enum Warm<'a> {
    /// The driver, with its requests still in flight on a closed loop so
    /// the window opens on clients that are already out of step.
    InProcess(Driver<'a>),
    /// The wire clients drained; the window continues their numbering.
    Wire {
        next: AtomicUsize,
        records: Vec<Sent>,
    },
}

/// Sends the fixed warm-up work.
fn warm_up<'a>(w: &'a Workload, seed: u64, service: &Service) -> Warm<'a> {
    if let Service::Wire(http) = service {
        let records = loadgen::wire(
            w,
            seed,
            http.addr(),
            WIRE_CONNECTIONS,
            &AtomicUsize::new(0),
            &|i| i < w.warmup,
            || {},
        );
        return Warm::Wire {
            next: AtomicUsize::new(w.warmup),
            records,
        };
    }
    let mut d = driver(w, seed, service);
    match w.arrival {
        Arrival::Closed { clients } => {
            d.closed(clients, |d, _| d.done.len() < w.warmup, false, |_| {})
        }
        // The schedule starts on an idle server.
        Arrival::Open { .. } => d.closed(4, |d, _| d.sent() < w.warmup, true, |_| {}),
    }
    Warm::InProcess(d)
}

/// Runs the measured window on a warmed service.
fn measure(
    w: &Workload,
    seed: u64,
    seconds: f64,
    service: &Service,
    warm: Warm,
) -> (Phase, Window) {
    let mut win = Window::start(seconds);
    let end = win.end();
    let phase = match (warm, service) {
        (Warm::Wire { next, mut records }, Service::Wire(http)) => {
            let stop = AtomicBool::new(false);
            records.extend(loadgen::wire(
                w,
                seed,
                http.addr(),
                WIRE_CONNECTIONS,
                &next,
                &|_| !stop.load(Ordering::Relaxed),
                || {
                    for k in 1..=win.segments {
                        let boundary = win.boundary(k);
                        std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
                        win.tick(Instant::now());
                    }
                    stop.store(true, Ordering::Relaxed);
                },
            ));
            Phase::of(records)
        }
        (Warm::InProcess(mut d), _) => {
            match w.arrival {
                Arrival::Closed { clients } => {
                    d.closed(clients, |_, now| now < end, true, |now| win.tick(now))
                }
                Arrival::Open { .. } => {
                    d.open(win.t0, &w.schedule(seed, seconds), |now| win.tick(now))
                }
            }
            // An open loop can answer its last request before the window
            // closes; the last segment still ends at the boundary.
            std::thread::sleep(end.saturating_duration_since(Instant::now()));
            win.tick(Instant::now());
            Phase::of(std::mem::take(&mut d.done))
        }
        (Warm::Wire { .. }, Service::InProcess(_)) => {
            unreachable!("warm_up returns wire traffic only for the wire service")
        }
    };
    (phase, win)
}

/// After traffic has drained: nothing may be left behind. Returns the
/// violations found.
pub fn check_drained(w: &Workload, service: Service, client_finished: usize) -> Vec<String> {
    let mut problems = Vec::new();
    if w.server.prefix_cache.is_some() {
        let handle = service.worker();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            // Re-sent while polling: the worker applies it between steps.
            handle.set_prefix_cache_capacity(0);
            std::thread::sleep(Duration::from_millis(2));
            let s = handle.prefix_cache_stats().expect("prefix cache is on");
            if s.resident_bytes == 0 && s.resident_nodes == 0 {
                break;
            }
            if Instant::now() > deadline {
                problems.push(format!(
                    "prefix cache kept {} unreferenced bytes in {} nodes after drain",
                    s.resident_bytes, s.resident_nodes
                ));
                break;
            }
        }
    }
    let stopped = service.stop();
    if stopped.final_kv_rows != 0 {
        problems.push(format!(
            "{} KV rows left after drain",
            stopped.final_kv_rows
        ));
    }
    if stopped.served != client_finished {
        problems.push(format!(
            "clients saw {client_finished} requests finish, the server reports {} served",
            stopped.served
        ));
    }
    problems
}

pub struct Measured {
    pub e2e: EndToEnd,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub stream_match_share: f64,
    pub ppl_ratio: f64,
    pub late_max: Duration,
}

/// Set-up (x3), window, drain checks, output checks.
pub fn measured_run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    started: Instant,
) -> (Measured, Verdict) {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for rep in 0..SETUPS {
        // The first set-up is clocked from process start, as a user
        // launching the server would see it.
        let t = if rep == 0 { started } else { Instant::now() };
        let built = build(&w.model);
        let tier = w.tier;
        let service = Service::start(w, &built, move |_| tier.engine());
        let warm = warm_up(w, seed, &service);
        setups.push(t.elapsed().as_secs_f64());
        if rep + 1 < SETUPS {
            drop(warm);
            service.stop();
        } else {
            ready = Some((built, service, warm));
        }
    }
    let (built, service, warm) = ready.expect("the last set-up is kept");

    let (phase, win) = measure(w, seed, seconds, &service, warm);
    let e2e = analyze(w, &phase.records, &win);
    let peak_rss_mb = proc::peak_rss_mib();

    let (finished, failed): (Vec<&Sent>, Vec<&Sent>) = phase
        .records
        .iter()
        .partition(|r| r.outcome == Outcome::Finished);
    let mut outcome = Verdict {
        attempted: phase.records.len(),
        failed: failed.len(),
        problems: Vec::new(),
    };
    for r in failed.iter().take(5) {
        outcome
            .problems
            .push(format!("request {} failed: {:?}", r.index, r.outcome));
    }
    outcome
        .problems
        .extend(check_drained(w, service, finished.len()));

    let picked = check::sample(w, &phase.records);
    let stream_match_share = check::stream_match_share(w, seed, &built, &picked);
    if stream_match_share < w.match_floor() {
        outcome.problems.push(format!(
            "{} of {} sampled streams match offline regeneration (floor {})",
            stream_match_share,
            picked.len(),
            w.match_floor()
        ));
    }
    let ppl_ratio = check::ppl_ratio(&built, &w.tier.engine());

    let measured = Measured {
        e2e,
        setup_s: median(&setups),
        peak_rss_mb,
        stream_match_share,
        ppl_ratio,
        late_max: phase.late_max,
    };
    (measured, outcome)
}
