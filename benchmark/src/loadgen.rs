//! The load generator. In-process workloads are driven by **one**
//! thread that owns the arrival schedule and every `ResponseStream`
//! (submit what is due, wait briefly on one live stream, sweep them
//! all, timestamp) — never a thread per stream, which on a two-core box
//! would measure the harness. The wire workload uses one blocking
//! `HttpClient` thread per connection, at most `nproc` of them.

use crate::workloads::{wire_body, Workload};
use microscopiq_runtime::net::{HttpClient, Json};
use microscopiq_runtime::{GenRequest, QosClass, ResponseStream, StreamEvent, SubmitError};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Longest the driver blocks on one stream before sweeping the rest.
const PUMP_WAIT: Duration = Duration::from_micros(200);
/// A wire connection is closed and reopened after this many requests,
/// so accept and the per-connection thread spawn stay in the picture.
const REQUESTS_PER_CONNECTION: usize = 32;

#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Pending,
    Finished,
    Failed(String),
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
pub struct Sent {
    pub index: usize,
    /// When the schedule wanted it sent; equals `submitted` in a closed loop.
    pub due: Instant,
    pub submitted: Instant,
    /// How long the submit call itself took.
    pub submit_took: Duration,
    pub class: QosClass,
    pub prompt_len: usize,
    pub expected: usize,
    pub token_at: Vec<Instant>,
    pub tokens: Vec<usize>,
    pub outcome: Outcome,
}

impl Sent {
    fn new(index: usize, req: &GenRequest, due: Instant, submitted: Instant) -> Self {
        Self {
            index,
            due,
            submitted,
            submit_took: Duration::ZERO,
            class: req.class,
            prompt_len: req.prompt.len(),
            expected: req.max_new_tokens,
            token_at: Vec::with_capacity(req.max_new_tokens),
            tokens: Vec::with_capacity(req.max_new_tokens),
            outcome: Outcome::Pending,
        }
    }

    /// Closes the record against the final sequence the server reported.
    fn finish(&mut self, full: &[usize]) {
        let streamed_ok = full.len() == self.prompt_len + self.expected
            && full[self.prompt_len..] == self.tokens[..];
        self.outcome = if streamed_ok {
            Outcome::Finished
        } else {
            Outcome::Failed(format!(
                "streamed {} tokens, final result carries {} of {} expected",
                self.tokens.len(),
                full.len().saturating_sub(self.prompt_len),
                self.expected
            ))
        };
    }
}

/// Furthest the generator fell behind: the longest time between when a
/// request was due (by the schedule, or by its client becoming free) and
/// when it was handed to the program.
pub fn late_max(records: &[Sent]) -> Duration {
    records
        .iter()
        .map(|r| r.submitted.saturating_duration_since(r.due))
        .max()
        .unwrap_or_default()
}

pub type Submit = Box<dyn Fn(GenRequest) -> Result<ResponseStream, SubmitError>>;

/// The single-threaded in-process driver.
pub struct Driver<'a> {
    w: &'a Workload,
    seed: u64,
    submit: Submit,
    next: usize,
    live: Vec<(Sent, ResponseStream)>,
    cursor: usize,
    pub done: Vec<Sent>,
}

impl<'a> Driver<'a> {
    pub fn new(w: &'a Workload, seed: u64, submit: Submit) -> Self {
        Self {
            w,
            seed,
            submit,
            next: 0,
            live: Vec::new(),
            cursor: 0,
            done: Vec::new(),
        }
    }

    pub fn sent(&self) -> usize {
        self.next
    }

    fn send(&mut self, due: Instant) {
        let req = self.w.request(self.seed, self.next);
        let submitted = Instant::now();
        let mut sent = Sent::new(self.next, &req, due, submitted);
        self.next += 1;
        let outcome = (self.submit)(req);
        sent.submit_took = submitted.elapsed();
        match outcome {
            Ok(stream) => self.live.push((sent, stream)),
            Err(e) => {
                sent.outcome = Outcome::Failed(format!("refused: {e}"));
                self.done.push(sent);
            }
        }
    }

    fn on_event(sent: &mut Sent, ev: StreamEvent) {
        match ev {
            StreamEvent::Token(t) => {
                sent.token_at.push(Instant::now());
                sent.tokens.push(t);
            }
            StreamEvent::Sample { .. } => {}
            StreamEvent::Finished(res) => sent.finish(&res.tokens),
            StreamEvent::Error(e) => sent.outcome = Outcome::Failed(e.to_string()),
        }
    }

    /// Waits up to `wait` on one live stream (round robin), then takes
    /// whatever every stream has ready, and retires the finished ones.
    fn pump(&mut self, wait: Duration) {
        if self.live.is_empty() {
            std::thread::sleep(wait);
            return;
        }
        self.cursor %= self.live.len();
        let (sent, stream) = &mut self.live[self.cursor];
        if let Some(ev) = stream.recv_timeout(wait) {
            Self::on_event(sent, ev);
        }
        self.cursor += 1;
        for (sent, stream) in &mut self.live {
            while let Some(ev) = stream.try_next() {
                Self::on_event(sent, ev);
            }
        }
        let mut i = 0;
        while i < self.live.len() {
            if self.live[i].0.outcome == Outcome::Pending {
                i += 1;
            } else {
                self.done.push(self.live.swap_remove(i).0);
            }
        }
    }

    /// Closed loop: keeps `clients` requests in flight while
    /// `keep_sending` holds. With `drain`, returns once nothing is in
    /// flight; without, returns as soon as sending stops, leaving the
    /// in-flight requests to the next call (warm-up hands over a loop
    /// that is already desynchronised). `tick` sees the clock once per
    /// pass.
    pub fn closed(
        &mut self,
        clients: usize,
        mut keep_sending: impl FnMut(&Self, Instant) -> bool,
        drain: bool,
        mut tick: impl FnMut(Instant),
    ) {
        loop {
            let now = Instant::now();
            tick(now);
            while self.live.len() < clients && keep_sending(self, now) {
                self.send(Instant::now());
            }
            if !keep_sending(self, now) && (!drain || self.live.is_empty()) {
                return;
            }
            self.pump(PUMP_WAIT);
        }
    }

    /// Open loop: sends each request when `t0 + due[k]` arrives, however
    /// many are still unanswered, then drains.
    pub fn open(&mut self, t0: Instant, due: &[f64], mut tick: impl FnMut(Instant)) {
        let mut k = 0;
        loop {
            let now = Instant::now();
            tick(now);
            while k < due.len() && t0 + Duration::from_secs_f64(due[k]) <= now {
                self.send(t0 + Duration::from_secs_f64(due[k]));
                k += 1;
            }
            if k == due.len() && self.live.is_empty() {
                return;
            }
            let until_next = due
                .get(k)
                .map(|d| (t0 + Duration::from_secs_f64(*d)).saturating_duration_since(now));
            self.pump(until_next.map_or(PUMP_WAIT, |d| d.min(PUMP_WAIT)));
        }
    }
}

/// One wire client: claims request indices from `next` while
/// `keep_sending` allows, and speaks HTTP/SSE for each.
fn wire_client(
    w: &Workload,
    seed: u64,
    addr: SocketAddr,
    next: &AtomicUsize,
    keep_sending: &(dyn Fn(usize) -> bool + Sync),
) -> Vec<Sent> {
    let mut out = Vec::new();
    let mut client: Option<HttpClient> = None;
    let mut on_connection = 0;
    loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if !keep_sending(index) {
            return out;
        }
        let due = Instant::now();
        let req = w.request(seed, index);
        let body = wire_body(&req);
        let mut sent = Sent::new(index, &req, due, Instant::now());
        if on_connection == REQUESTS_PER_CONNECTION {
            client = None;
            on_connection = 0;
        }
        let conn = match client.as_mut() {
            Some(c) => c,
            None => match HttpClient::connect(addr) {
                Ok(c) => client.insert(c),
                Err(e) => {
                    sent.outcome = Outcome::Failed(format!("connect: {e}"));
                    out.push(sent);
                    continue;
                }
            },
        };
        on_connection += 1;
        if let Err(e) = stream_one(conn, &body, &mut sent) {
            sent.outcome = Outcome::Failed(format!("wire: {e}"));
            client = None;
            on_connection = 0;
        }
        out.push(sent);
    }
}

fn stream_one(conn: &mut HttpClient, body: &str, sent: &mut Sent) -> std::io::Result<()> {
    let mut stream = conn.generate(body)?;
    sent.submit_took = sent.submitted.elapsed();
    if stream.status != 200 {
        let why = String::from_utf8_lossy(stream.error_body()).into_owned();
        sent.outcome = Outcome::Failed(format!("status {}: {why}", stream.status));
        return Ok(());
    }
    while let Some(ev) = stream.next_event()? {
        if let Some(t) = ev.get("token").and_then(Json::as_usize) {
            sent.token_at.push(Instant::now());
            sent.tokens.push(t);
        } else if ev.get("done").is_some() {
            let full: Vec<usize> = ev
                .get("tokens")
                .and_then(Json::as_arr)
                .map(|a| a.iter().filter_map(Json::as_usize).collect())
                .unwrap_or_default();
            sent.finish(&full);
        } else if let Some(e) = ev.get("error") {
            sent.outcome = Outcome::Failed(e.render());
        }
    }
    if sent.outcome == Outcome::Pending {
        sent.outcome = Outcome::Failed("stream ended without a terminal event".into());
    }
    Ok(())
}

/// Runs `connections` wire clients until `keep_sending` stops them;
/// `while_running` runs on the calling thread meanwhile (the segment
/// sampler), and the clients are joined before this returns.
pub fn wire(
    w: &Workload,
    seed: u64,
    addr: SocketAddr,
    connections: usize,
    next: &AtomicUsize,
    keep_sending: &(dyn Fn(usize) -> bool + Sync),
    while_running: impl FnOnce(),
) -> Vec<Sent> {
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..connections)
            .map(|_| scope.spawn(|| wire_client(w, seed, addr, next, keep_sending)))
            .collect();
        while_running();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("wire client thread panicked"))
            .collect()
    })
}
