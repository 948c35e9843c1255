//! Spans recorded from outside the program: a [`Recorder`] the harness
//! wraps around its calls into each layer, and [`TimedEngine`], a
//! [`PackedGemm`] that wraps the real engine so every executor call
//! becomes a span under whichever step is running. Spans stay in memory
//! until the run ends and are then written as Chrome trace events.

use microscopiq_core::packed::PackedLayer;
use microscopiq_fm::PackedGemm;
use microscopiq_linalg::Matrix;
use microscopiq_runtime::net::Json;
use microscopiq_runtime::{EngineTelemetry, MetricsRegistry, RuntimeEngine};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed interval of work in one layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// 1-based and unique within a recorder; 0 is "no span".
    pub id: u64,
    /// The span that caused this one, 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    /// Index of the generated request this work belongs to, when one does.
    pub request: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
    pub args: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    /// The open span new engine spans hang under (0 = none). Set by the
    /// harness thread around each step; read by the engine wrapper on
    /// the same thread, so `Relaxed` is enough — it publishes no data.
    current: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            current: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    pub fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        request: Option<usize>,
        start: Instant,
        end: Instant,
        args: Vec<(&'static str, f64)>,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            name,
            request,
            start_us: self.us(start),
            end_us: self.us(end),
            args,
        });
        id
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span buffer: a recording thread panicked")
            .push(span);
    }

    /// Runs `work` as a span that engine calls made inside it become
    /// children of; `args` is computed from the result.
    pub fn scope<T>(
        &self,
        name: &'static str,
        request: Option<usize>,
        work: impl FnOnce() -> T,
        args: impl FnOnce(&T) -> Vec<(&'static str, f64)>,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current.swap(id, Ordering::Relaxed);
        let start = Instant::now();
        let out = work();
        let end = Instant::now();
        self.current.store(parent, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            name,
            request,
            start_us: self.us(start),
            end_us: self.us(end),
            args: args(&out),
        });
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// The real engine, with every call timed as an `executor.*` span whose
/// parent is the recorder's open span. A span carries the call's shape;
/// MACs and weight bytes are later computed from shapes and the model's
/// effective bit width — tensor sizes, not measured memory traffic.
#[derive(Debug)]
pub struct TimedEngine {
    pub inner: RuntimeEngine,
    pub rec: Arc<Recorder>,
}

impl TimedEngine {
    fn span(&self, name: &'static str, layer: &PackedLayer, m: usize, start: Instant) {
        let end = Instant::now();
        self.rec.record(
            name,
            self.rec.current.load(Ordering::Relaxed),
            None,
            start,
            end,
            vec![
                ("d_row", layer.d_row() as f64),
                ("d_col", layer.d_col() as f64),
                ("m", m as f64),
            ],
        );
    }
}

impl PackedGemm for TimedEngine {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn matmul(&self, layer: &PackedLayer, acts: &Matrix) -> Matrix {
        let start = Instant::now();
        let out = self.inner.matmul(layer, acts);
        self.span("executor.matmul", layer, acts.cols(), start);
        out
    }

    fn gemv(&self, layer: &PackedLayer, x: &[f64]) -> Vec<f64> {
        let start = Instant::now();
        let out = PackedGemm::gemv(&self.inner, layer, x);
        self.span("executor.gemv", layer, 1, start);
        out
    }

    fn prefetch(&self, layer: &Arc<PackedLayer>) {
        // The forward pass hints before every linear; without a prefetch
        // worker the hint does nothing and a span would only be noise.
        if self.inner.prefetch_stats().is_none() {
            return;
        }
        let start = Instant::now();
        self.inner.prefetch(layer);
        self.span("executor.prefetch", layer, 0, start);
    }
}

impl EngineTelemetry for TimedEngine {
    fn register_telemetry(&self, registry: &MetricsRegistry) {
        self.inner.register_telemetry(registry);
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once).
pub fn self_times_us(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_us, s.end_us));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0.0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut reach = s.start_us;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    let hi = hi.min(s.end_us);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
            }
            (s.id, s.dur_us() - covered)
        })
        .collect()
}

/// Every span has a unique non-zero id, ends no earlier than it starts,
/// and names a parent that exists and encloses it.
pub fn check_tree(spans: &[Span]) -> Result<(), String> {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    if by_id.len() != spans.len() || by_id.contains_key(&0) {
        return Err("span ids are not unique and non-zero".into());
    }
    for s in spans {
        if s.end_us < s.start_us {
            return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
        }
        if s.parent != 0 {
            let Some(p) = by_id.get(&s.parent) else {
                return Err(format!("span {} names a missing parent {}", s.id, s.parent));
            };
            if s.start_us < p.start_us || s.end_us > p.end_us {
                return Err(format!(
                    "span {} ({}) is not enclosed by its parent {} ({})",
                    s.id, s.name, p.id, p.name
                ));
            }
        }
    }
    Ok(())
}

/// Chrome trace-event JSON (loads in Perfetto / `chrome://tracing`).
/// `id`, `parent` and `request` ride in each event's `args`; the lane
/// (`tid`) is the layer, the part of the name before the first dot.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut lanes: Vec<&str> = Vec::new();
    let events = spans
        .iter()
        .map(|s| {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let lane = lanes.iter().position(|l| *l == layer).unwrap_or_else(|| {
                lanes.push(layer);
                lanes.len() - 1
            });
            let mut args: BTreeMap<String, Json> = s
                .args
                .iter()
                .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                .collect();
            args.insert("id".into(), Json::Num(s.id as f64));
            args.insert("parent".into(), Json::Num(s.parent as f64));
            if let Some(r) = s.request {
                args.insert("request".into(), Json::Num(r as f64));
            }
            Json::Obj(BTreeMap::from([
                ("name".to_string(), Json::Str(s.name.into())),
                ("cat".to_string(), Json::Str(layer.into())),
                ("ph".to_string(), Json::Str("X".into())),
                ("ts".to_string(), Json::Num(s.start_us)),
                ("dur".to_string(), Json::Num(s.dur_us())),
                ("pid".to_string(), Json::Num(1.0)),
                ("tid".to_string(), Json::Num(lane as f64)),
                ("args".to_string(), Json::Obj(args)),
            ]))
        })
        .collect();
    Json::Obj(BTreeMap::from([
        ("displayTimeUnit".to_string(), Json::Str("ms".into())),
        ("traceEvents".to_string(), Json::Arr(events)),
    ]))
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_us: f64, end_us: f64) -> Span {
        Span {
            id,
            parent,
            name: "session.step",
            request: None,
            start_us,
            end_us,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = [
            span(1, 0, 0.0, 100.0),
            span(2, 1, 10.0, 30.0),
            // Overlaps the previous child: 25..50 adds only 30..50.
            span(3, 1, 25.0, 50.0),
            span(4, 1, 90.0, 100.0),
            // A grandchild covers part of 2, not of 1.
            span(5, 2, 12.0, 20.0),
        ];
        let own = self_times_us(&spans);
        assert_eq!(own[&1], 100.0 - (20.0 + 20.0 + 10.0));
        assert_eq!(own[&2], 20.0 - 8.0);
        assert_eq!(own[&3], 25.0);
        assert_eq!(own[&5], 8.0);
        assert!(check_tree(&spans).is_ok());
    }

    #[test]
    fn malformed_trees_are_rejected() {
        assert!(check_tree(&[span(1, 0, 0.0, 1.0), span(1, 0, 2.0, 3.0)]).is_err());
        assert!(check_tree(&[span(1, 7, 0.0, 1.0)]).is_err());
        assert!(check_tree(&[span(1, 0, 0.0, 10.0), span(2, 1, 5.0, 11.0)]).is_err());
        assert!(check_tree(&[span(1, 0, 3.0, 2.0)]).is_err());
    }

    #[test]
    fn scopes_nest_and_engine_spans_hang_under_the_open_scope() {
        let rec = Recorder::default();
        let out = rec.scope(
            "session.step",
            None,
            || {
                let now = Instant::now();
                rec.record(
                    "executor.gemv",
                    rec.current.load(Ordering::Relaxed),
                    None,
                    now,
                    now,
                    vec![],
                );
                7
            },
            |v| vec![("value", f64::from(*v))],
        );
        assert_eq!(out, 7);
        let spans = rec.take();
        let step = spans.iter().find(|s| s.name == "session.step").unwrap();
        let gemv = spans.iter().find(|s| s.name == "executor.gemv").unwrap();
        assert_eq!(gemv.parent, step.id);
        assert_eq!(step.parent, 0);
        assert_eq!(step.args, vec![("value", 7.0)]);
        assert!(check_tree(&spans).is_ok());
    }

    #[test]
    fn emitted_trace_parses_as_json_and_keeps_the_links() {
        let mut s = span(2, 1, 5.0, 9.5);
        s.request = Some(3);
        s.args.push(("m", 8.0));
        let text = chrome_trace(&[span(1, 0, 0.0, 10.0), s]);
        let json = Json::parse(&text).expect("trace is valid JSON");
        let events = json.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_usize), Some(1));
        assert_eq!(args.get("request").and_then(Json::as_usize), Some(3));
        assert_eq!(events[1].get("dur").and_then(Json::as_f64), Some(4.5));
    }
}
