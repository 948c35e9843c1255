//! The HTTP/1.1 wire front-end over a [`Fleet`]: a `TcpListener`
//! accept loop plus one std thread per connection — no async runtime,
//! matching the rest of the serving stack.
//!
//! Routes:
//!
//! * `POST /v1/generate` — body is a JSON object: `prompt` (required,
//!   array of token ids), `max_new_tokens` (default 16), `temperature`
//!   (default 1.0), `seed` (default 0), `class` (`"interactive"` |
//!   `"batch"` | `"best_effort"`, default interactive), `n_samples`
//!   (default 1 — N-way generation sharing one prefill), `failover`
//!   (default false — deterministic resubmission to a surviving worker
//!   if the serving worker dies mid-stream). Answers with
//!   an SSE stream over chunked transfer-encoding: one
//!   `data: {"token":N}\n\n` event per generated token of sample 0 as
//!   its decode step completes, one
//!   `data: {"sample":I,"tokens":[..],"new_tokens":K}\n\n` event per
//!   extra sample as it finishes, then a terminal
//!   `data: {"done":true,"tokens":[..],"worker":W}\n\n` event carrying
//!   sample 0's full sequence and the worker that served it. Invalid
//!   requests get 400 before any tokens; overload gets 503
//!   (`Retry-After`).
//! * `GET /metrics` — the fleet's concatenated Prometheus exposition.
//! * `GET /healthz` — fleet liveness as JSON
//!   (`status`/`workers_total`/`workers_alive`/`respawns`): 200 only
//!   with every worker alive, 503 `degraded` on partial capacity, 503
//!   `down` with none.
//!
//! Connections are keep-alive by default; the per-connection parser
//! retains leftover bytes so pipelined requests work. A client that
//! disconnects mid-stream surfaces as a write error, which drops the
//! [`ResponseStream`](crate::server::ResponseStream) — the existing
//! drop-to-cancel path — so a TCP reset reclaims the request's batch
//! slot and KV cache without touching other streams.

use super::fleet::{Fleet, FleetConfig, FleetHandle, FleetReport};
use super::http::{HttpParseError, HttpRequest, ParserLimits, RequestParser};
use super::json::{obj, Json};
use crate::server::{RequestOptions, StreamEvent, SubmitError};
use crate::session::{GenRequest, QosClass};
use crate::telemetry::EngineTelemetry;
use microscopiq_core::error::QuantError;
use microscopiq_fm::{PackedGemm, PackedTinyFm};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Wire front-end configuration.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Fleet shape and per-worker serving configuration.
    pub fleet: FleetConfig,
    /// Request-parser size caps.
    pub limits: ParserLimits,
    /// Idle read timeout per keep-alive connection; a connection that
    /// sends nothing for this long is closed.
    pub keepalive: Duration,
}

impl Default for HttpConfig {
    fn default() -> Self {
        Self {
            fleet: FleetConfig::default(),
            limits: ParserLimits::default(),
            keepalive: Duration::from_secs(5),
        }
    }
}

/// Errors starting the wire front-end.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure binding or configuring the listener.
    Io(io::Error),
    /// Invalid serving configuration for a fleet worker.
    Quant(QuantError),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "socket error: {e}"),
            Self::Quant(e) => write!(f, "serving config error: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<QuantError> for NetError {
    fn from(e: QuantError) -> Self {
        Self::Quant(e)
    }
}

struct Inner {
    /// Dropped (set to `None`) during shutdown *before* the fleet is
    /// drained: a [`FleetHandle`] keeps every worker's admission
    /// channel open, and workers only exit once all senders are gone.
    fleet: Mutex<Option<FleetHandle>>,
    limits: ParserLimits,
    keepalive: Duration,
    vocab: usize,
    stop: AtomicBool,
    conns: Mutex<Vec<JoinHandle<()>>>,
}

impl Inner {
    fn fleet(&self) -> Option<FleetHandle> {
        self.fleet.lock().expect("fleet handle").clone()
    }
}

/// The running wire front-end: a bound listener, its accept thread, and
/// the fleet behind it.
pub struct HttpServer {
    addr: SocketAddr,
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
    /// Supervisor sweep thread; present only with
    /// [`FleetConfig::supervision`] set. Joined before the fleet drains
    /// so a respawn can never race shutdown.
    supervisor: Option<JoinHandle<()>>,
    fleet: Option<Fleet>,
}

impl HttpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving a fleet of `cfg.fleet.workers` workers over
    /// clones of `model`, one engine from `mk_engine(worker)` each.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the bind fails; [`NetError::Quant`] if the
    /// per-worker serving configuration is invalid.
    pub fn bind<E, F>(
        addr: &str,
        model: PackedTinyFm,
        mk_engine: F,
        cfg: HttpConfig,
    ) -> Result<Self, NetError>
    where
        E: PackedGemm + EngineTelemetry + Send + 'static,
        F: Fn(usize) -> E + Send + Sync + 'static,
    {
        let vocab = model.config().vocab;
        let supervision = cfg.fleet.supervision;
        let fleet = Fleet::spawn(model, mk_engine, cfg.fleet)?;
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let inner = Arc::new(Inner {
            fleet: Mutex::new(Some(fleet.handle())),
            limits: cfg.limits,
            keepalive: cfg.keepalive,
            vocab,
            stop: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });
        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::Builder::new()
            .name("microscopiq-http-accept".into())
            .spawn(move || accept_loop(listener, accept_inner))
            .expect("spawn accept thread");
        // Periodic supervisor sweep: respawns dead workers even while no
        // traffic is flowing (the routing path also sweeps per submit).
        let supervisor = supervision.map(|sup| {
            let handle = fleet.handle();
            let sup_inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("microscopiq-http-supervisor".into())
                .spawn(move || {
                    while !sup_inner.stop.load(Ordering::SeqCst) {
                        // Sleep in short slices so shutdown is prompt
                        // whatever the sweep interval.
                        let mut slept = Duration::ZERO;
                        while slept < sup.interval && !sup_inner.stop.load(Ordering::SeqCst) {
                            let slice = Duration::from_millis(10).min(sup.interval - slept);
                            std::thread::sleep(slice);
                            slept += slice;
                        }
                        if sup_inner.stop.load(Ordering::SeqCst) {
                            return;
                        }
                        handle.supervise();
                    }
                })
                .expect("spawn supervisor thread")
        });
        Ok(Self {
            addr: local,
            inner,
            accept: Some(accept),
            supervisor,
            fleet: Some(fleet),
        })
    }

    /// The bound address (with the resolved port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The fleet's routing handle (for in-process submission or
    /// failure injection in tests). Note a handle kept across
    /// [`HttpServer::shutdown`] keeps worker admission channels open,
    /// which blocks the fleet drain — drop it first.
    ///
    /// # Panics
    ///
    /// Panics after shutdown has begun.
    pub fn fleet(&self) -> FleetHandle {
        self.inner.fleet().expect("server is running")
    }

    /// Stops accepting, joins every connection thread, drains the
    /// fleet, and returns its report.
    pub fn shutdown(mut self) -> FleetReport {
        self.stop_threads();
        self.fleet.take().map(Fleet::shutdown).unwrap_or_default()
    }

    fn stop_threads(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        let conns = std::mem::take(&mut *self.inner.conns.lock().expect("conn registry"));
        for conn in conns {
            let _ = conn.join();
        }
        // Release the server's own routing handle so the fleet drain
        // below can observe worker channels closing.
        self.inner.fleet.lock().expect("fleet handle").take();
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        if self.fleet.is_some() {
            self.stop_threads();
            if let Some(fleet) = self.fleet.take() {
                fleet.shutdown();
            }
        }
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if inner.stop.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        let conn_inner = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("microscopiq-http-conn".into())
            .spawn(move || {
                let _ = serve_connection(stream, &conn_inner);
            })
            .expect("spawn connection thread");
        let mut conns = inner.conns.lock().expect("conn registry");
        // Reap connections that have ended, so the registry tracks live
        // connections rather than every connection ever accepted (an
        // exited thread keeps its stack resident until it is joined).
        for done in conns.extract_if(.., |conn| conn.is_finished()) {
            let _ = done.join();
        }
        conns.push(handle);
    }
}

/// Drives one keep-alive connection until the client closes, asks to
/// close, errors, times out idle, or the server stops.
fn serve_connection(mut stream: TcpStream, inner: &Inner) -> io::Result<()> {
    // Short read timeout so the loop can observe the stop flag; the
    // idle budget is tracked across timeouts.
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    stream.set_nodelay(true)?;
    let mut parser = RequestParser::with_limits(inner.limits);
    let mut idle = Duration::ZERO;
    let mut buf = [0u8; 4096];
    loop {
        if inner.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        // Feed newly-read bytes (or just re-examine leftovers, for a
        // pipelined request already buffered) until one request parses.
        let fed = match stream.read(&mut buf) {
            Ok(0) => return Ok(()), // client closed
            Ok(n) => {
                idle = Duration::ZERO;
                parser.feed(&buf[..n])
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                idle += Duration::from_millis(50);
                if idle >= inner.keepalive {
                    return Ok(());
                }
                parser.feed(&[])
            }
            Err(e) => return Err(e),
        };
        let req = match fed {
            Ok(Some(req)) => req,
            Ok(None) => continue,
            Err(err) => {
                respond_error(&mut stream, &err)?;
                return Ok(());
            }
        };
        let close = req.wants_close();
        route(&mut stream, &req, inner)?;
        if close {
            return Ok(());
        }
    }
}

fn route(stream: &mut TcpStream, req: &HttpRequest, inner: &Inner) -> io::Result<()> {
    let Some(fleet) = inner.fleet() else {
        return respond_status(stream, 503, "server shutting down");
    };
    match (req.method.as_str(), req.target.as_str()) {
        ("POST", "/v1/generate") => generate(stream, req, &fleet, inner),
        ("GET", "/metrics") => {
            let body = fleet.render_metrics();
            respond(stream, 200, "text/plain; version=0.0.4", body.as_bytes())
        }
        ("GET", "/healthz") => {
            // Degradation-aware health: 200 only at full strength, so a
            // load balancer can drain a fleet running on survivors.
            let total = fleet.worker_count();
            let alive = fleet.alive_workers();
            let (status, state) = match alive {
                a if a == total => (200, "ok"),
                0 => (503, "down"),
                _ => (503, "degraded"),
            };
            let body = obj([
                ("status", Json::Str(state.into())),
                ("workers_total", Json::Num(total as f64)),
                ("workers_alive", Json::Num(alive as f64)),
                ("respawns", Json::Num(fleet.respawns() as f64)),
            ])
            .render();
            respond(stream, status, "application/json", body.as_bytes())
        }
        ("GET" | "POST", _) => respond_status(stream, 404, "not found"),
        _ => respond_status(stream, 405, "method not allowed"),
    }
}

/// Parses the generate body into a [`GenRequest`] plus per-request
/// options; `Err` is the 400 message sent back.
fn parse_gen_request(body: &[u8], vocab: usize) -> Result<(GenRequest, RequestOptions), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let json = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let prompt_json = json
        .get("prompt")
        .ok_or_else(|| "missing required field \"prompt\"".to_string())?;
    let items = prompt_json
        .as_arr()
        .ok_or_else(|| "\"prompt\" must be an array of token ids".to_string())?;
    if items.is_empty() {
        return Err("\"prompt\" must be non-empty".into());
    }
    let mut prompt = Vec::with_capacity(items.len());
    for item in items {
        let tok = item
            .as_usize()
            .ok_or_else(|| "\"prompt\" entries must be non-negative integers".to_string())?;
        if tok >= vocab {
            return Err(format!("token {tok} out of vocabulary (vocab {vocab})"));
        }
        prompt.push(tok);
    }
    let max_new_tokens = match json.get("max_new_tokens") {
        None => 16,
        Some(v) => v
            .as_usize()
            .filter(|&n| n >= 1)
            .ok_or_else(|| "\"max_new_tokens\" must be a positive integer".to_string())?,
    };
    let temperature = match json.get("temperature") {
        None => 1.0,
        Some(v) => v
            .as_f64()
            .filter(|t| *t > 0.0)
            .ok_or_else(|| "\"temperature\" must be a positive number".to_string())?,
    };
    let seed = match json.get("seed") {
        None => 0,
        Some(v) => v
            .as_usize()
            .ok_or_else(|| "\"seed\" must be a non-negative integer".to_string())?
            as u64,
    };
    let class = match json.get("class") {
        None => QosClass::default(),
        Some(v) => {
            let name = v
                .as_str()
                .ok_or_else(|| "\"class\" must be a string".to_string())?;
            QosClass::parse(name).ok_or_else(|| {
                format!("unknown class {name:?} (interactive | batch | best_effort)")
            })?
        }
    };
    let n_samples = match json.get("n_samples") {
        None => 1,
        Some(v) => v
            .as_usize()
            .filter(|&n| n >= 1)
            .ok_or_else(|| "\"n_samples\" must be a positive integer".to_string())?,
    };
    let failover = match json.get("failover") {
        None => false,
        Some(Json::Bool(b)) => *b,
        Some(_) => return Err("\"failover\" must be a boolean".into()),
    };
    Ok((
        GenRequest {
            prompt,
            max_new_tokens,
            temperature,
            seed,
            class,
            n_samples,
        },
        RequestOptions {
            failover,
            ..RequestOptions::default()
        },
    ))
}

fn generate(
    stream: &mut TcpStream,
    req: &HttpRequest,
    fleet: &FleetHandle,
    inner: &Inner,
) -> io::Result<()> {
    let (gen, opts) = match parse_gen_request(&req.body, inner.vocab) {
        Ok(parsed) => parsed,
        Err(msg) => return respond_status(stream, 400, &msg),
    };
    let (worker, mut events) = match fleet.submit_with(gen, opts) {
        Ok(accepted) => accepted,
        Err(SubmitError::Shed) => return respond_overloaded(stream, "shed under overload"),
        Err(SubmitError::QueueFull) => return respond_overloaded(stream, "admission queue full"),
        Err(SubmitError::ServerClosed) => {
            return respond_status(stream, 503, "no serving workers alive")
        }
    };
    // SSE over chunked transfer-encoding: one chunk per event, flushed
    // as the worker emits it. Any write failure (client went away)
    // drops `events`, which cancels the request server-side.
    stream.write_all(
        b"HTTP/1.1 200 OK\r\n\
          Content-Type: text/event-stream\r\n\
          Cache-Control: no-store\r\n\
          Transfer-Encoding: chunked\r\n\r\n",
    )?;
    loop {
        // Bounded waits so a server shutdown can cut the stream loose.
        let Some(event) = events.recv_timeout(Duration::from_millis(100)) else {
            if inner.stop.load(Ordering::SeqCst) {
                return write_chunk_end(stream); // drops `events` → cancel
            }
            continue;
        };
        match event {
            StreamEvent::Token(tok) => {
                write_sse_chunk(stream, &obj([("token", Json::Num(tok as f64))]).render())?;
            }
            StreamEvent::Sample { index, result } => {
                let tokens =
                    Json::Arr(result.tokens.iter().map(|&t| Json::Num(t as f64)).collect());
                write_sse_chunk(
                    stream,
                    &obj([
                        ("sample", Json::Num(index as f64)),
                        ("tokens", tokens),
                        ("new_tokens", Json::Num(result.new_tokens as f64)),
                    ])
                    .render(),
                )?;
            }
            StreamEvent::Finished(result) => {
                let tokens =
                    Json::Arr(result.tokens.iter().map(|&t| Json::Num(t as f64)).collect());
                write_sse_chunk(
                    stream,
                    &obj([
                        ("done", Json::Bool(true)),
                        ("tokens", tokens),
                        ("new_tokens", Json::Num(result.new_tokens as f64)),
                        ("worker", Json::Num(worker as f64)),
                    ])
                    .render(),
                )?;
                return write_chunk_end(stream);
            }
            StreamEvent::Error(err) => {
                write_sse_chunk(
                    stream,
                    &obj([("error", Json::Str(err.to_string()))]).render(),
                )?;
                return write_chunk_end(stream);
            }
        }
    }
}

fn write_sse_chunk(stream: &mut TcpStream, payload: &str) -> io::Result<()> {
    let event = format!("data: {payload}\n\n");
    let chunk = format!("{:x}\r\n{event}\r\n", event.len());
    stream.write_all(chunk.as_bytes())?;
    stream.flush()
}

fn write_chunk_end(stream: &mut TcpStream) -> io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &[u8]) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n",
        status_text(status),
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

fn respond_status(stream: &mut TcpStream, status: u16, message: &str) -> io::Result<()> {
    let body = obj([("error", Json::Str(message.into()))]).render();
    respond(stream, status, "application/json", body.as_bytes())
}

fn respond_overloaded(stream: &mut TcpStream, message: &str) -> io::Result<()> {
    let body = obj([("error", Json::Str(message.into()))]).render();
    let head = format!(
        "HTTP/1.1 503 {}\r\nContent-Type: application/json\r\nRetry-After: 1\r\nContent-Length: {}\r\n\r\n",
        status_text(503),
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn respond_error(stream: &mut TcpStream, err: &HttpParseError) -> io::Result<()> {
    respond_status(stream, err.status(), &err.to_string())
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microscopiq_core::{MicroScopiQ, QuantConfig};
    use microscopiq_fm::{DequantGemm, TinyFm, TinyFmConfig};

    #[test]
    fn closed_connections_are_reaped_from_the_registry() {
        let cfg = TinyFmConfig {
            d_model: 32,
            n_heads: 2,
            d_ff: 64,
            n_layers: 1,
            vocab: 32,
        };
        let fm = TinyFm::teacher(cfg, 5);
        let q = MicroScopiQ::new(
            QuantConfig::w4()
                .macro_block(32)
                .row_block(32)
                .build()
                .unwrap(),
        );
        let model = PackedTinyFm::quantize_from(&fm, &q, &[vec![1, 2, 3, 4]]).unwrap();
        let server =
            HttpServer::bind("127.0.0.1:0", model, |_| DequantGemm, HttpConfig::default()).unwrap();
        for _ in 0..200 {
            let mut conn = TcpStream::connect(server.addr()).unwrap();
            conn.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap();
            // The server closes its end when the connection thread
            // returns, so EOF here means that thread is on its way out.
            let mut reply = Vec::new();
            conn.read_to_end(&mut reply).unwrap();
            assert!(reply.starts_with(b"HTTP/1.1 200"));
        }
        // A handle is reaped by the first accept after its thread ends; a
        // few may still be between closing the socket and finishing.
        let tracked = server.inner.conns.lock().unwrap().len();
        assert!(tracked <= 16, "{tracked} of 200 closed connections kept");
        server.shutdown();
    }
}
