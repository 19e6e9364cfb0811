//! `dftp serve`: the [`Engine`] behind a persistent sweep service.
//!
//! A long-lived process accepts [`ExperimentPlan`]s over hand-rolled
//! HTTP/1.1 on `std::net` (this workspace is offline — no HTTP framework,
//! no JSON parser; plans arrive as the same `key=value` options the
//! `dftp sweep` flags use), runs them one at a time on the resident
//! engine's worker pool, and streams results back as JSONL — each line
//! byte-identical to the record `dftp sweep --format jsonl` would write
//! for the same plan (bar the non-deterministic `wall_time_s` field,
//! which differs run to run everywhere).
//!
//! # Endpoints
//!
//! | method & path            | body / reply                                         |
//! |--------------------------|------------------------------------------------------|
//! | `POST /plans`            | plan options → `202 {"id":N,"total":J}`, `400` on a bad plan, `429` when the queue is full |
//! | `GET /plans/<id>`        | status JSON: phase, emitted/total, cache counters     |
//! | `GET /plans/<id>/stream` | chunked JSONL — replays every emitted record, then follows until the plan ends |
//! | `POST /plans/<id>/cancel`| cooperative cancel → `200 {"id":N,"cancelling":true}` |
//! | `GET /health`            | liveness + queue depth + lifetime cache counters      |
//!
//! Plan options (`&`- or newline-separated, `%XX`/`+` decoding applied):
//! `scenarios` (required, the `dftp sweep --scenarios` grammar), `algs`,
//! `seeds`, `plan-seed`, `profile`, `sim-threads`, `name`, and
//! `deadline-s` — a wall-clock budget armed when execution starts; a plan
//! past it cancels itself.
//!
//! # Determinism and the cache
//!
//! Every record is a pure function of `(plan_seed, scenario, algorithm,
//! repetition, profile)`, so the serving engine runs with its result
//! cache enabled: resubmitting a plan is answered from memory (observable
//! in the status counters) with byte-identical records. One scheduler
//! thread drains a bounded queue — submissions beyond
//! [`ServeConfig::queue_depth`] are rejected with `429` instead of
//! accumulating unboundedly.

use crate::emit;
use crate::engine::{Engine, EngineConfig, SubmitOptions};
use crate::plan::{check_option_keys, option_seconds, ExperimentPlan};
use crate::ExpError;
use freezetag_sim::CancelToken;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Largest accepted request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest accepted request body.
const MAX_BODY_BYTES: usize = 64 * 1024;

/// Configuration of [`Server::spawn`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind; port `0` picks a free port (the in-process test
    /// path). Defaults to `127.0.0.1:0`.
    pub addr: SocketAddr,
    /// The resident engine's configuration. The default enables the
    /// result cache (1024 entries) — the point of a resident server.
    pub engine: EngineConfig,
    /// Accepted-but-unstarted plans allowed before `POST /plans` answers
    /// `429`.
    pub queue_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            engine: EngineConfig {
                cache_capacity: 1024,
                ..EngineConfig::default()
            },
            queue_depth: 16,
        }
    }
}

/// Lifecycle of one submitted plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Queued,
    Running,
    Done,
    Cancelled,
    Failed,
}

impl Phase {
    fn as_str(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Done => "done",
            Phase::Cancelled => "cancelled",
            Phase::Failed => "failed",
        }
    }

    fn is_terminal(self) -> bool {
        matches!(self, Phase::Done | Phase::Cancelled | Phase::Failed)
    }
}

/// Everything observable about one plan, under one lock so the stream
/// long-poll can wait on a single condvar.
struct PlanState {
    phase: Phase,
    /// JSONL lines emitted so far, kept for replayable streaming.
    lines: Vec<String>,
    cache_hits: u64,
    cache_misses: u64,
    error: Option<String>,
    /// The running stream's token, present only while executing.
    cancel: Option<CancelToken>,
    cancel_requested: bool,
}

struct PlanEntry {
    id: u64,
    total: usize,
    plan: ExperimentPlan,
    deadline: Option<Duration>,
    state: Mutex<PlanState>,
    progress: Condvar,
}

impl PlanEntry {
    fn new(id: u64, plan: ExperimentPlan, deadline: Option<Duration>) -> Self {
        PlanEntry {
            id,
            total: plan.job_count(),
            plan,
            deadline,
            state: Mutex::new(PlanState {
                phase: Phase::Queued,
                lines: Vec::new(),
                cache_hits: 0,
                cache_misses: 0,
                error: None,
                cancel: None,
                cancel_requested: false,
            }),
            progress: Condvar::new(),
        }
    }

    fn status_json(&self) -> String {
        let st = self.state.lock().expect("plan state poisoned");
        let error = match &st.error {
            Some(e) => format!("\"{}\"", emit::escape(e)),
            None => "null".to_string(),
        };
        format!(
            "{{\"id\":{},\"phase\":\"{}\",\"emitted\":{},\"total\":{},\"cache_hits\":{},\"cache_misses\":{},\"error\":{}}}",
            self.id,
            st.phase.as_str(),
            st.lines.len(),
            self.total,
            st.cache_hits,
            st.cache_misses,
            error
        )
    }

    /// Marks the plan cancelled-on-request and pokes the running stream's
    /// token if there is one; terminal phases are left as they are.
    fn request_cancel(&self) {
        let mut st = self.state.lock().expect("plan state poisoned");
        st.cancel_requested = true;
        if let Some(token) = &st.cancel {
            token.cancel();
        }
        if st.phase == Phase::Queued {
            st.phase = Phase::Cancelled;
        }
        self.progress.notify_all();
    }
}

struct ServerState {
    engine: Engine,
    queue_depth: usize,
    plans: Mutex<HashMap<u64, Arc<PlanEntry>>>,
    queue: Mutex<VecDeque<Arc<PlanEntry>>>,
    queue_ready: Condvar,
    next_id: AtomicU64,
    shutdown: AtomicBool,
}

/// A running `dftp serve` instance. [`Server::spawn`] binds, starts the
/// accept loop and the scheduler, and returns immediately — the in-process
/// path the serve tests use. Dropping the server shuts it down (current
/// plan cancelled, queued plans marked cancelled, threads joined).
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
    scheduler: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr`, spawns the accept loop and the scheduler
    /// thread, and returns. Jobs run on the scheduler thread's engine
    /// stream (itself a worker pool of `config.engine.threads`).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(config.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState {
            engine: Engine::new(config.engine),
            queue_depth: config.queue_depth.max(1),
            plans: Mutex::new(HashMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_ready: Condvar::new(),
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
        });
        let accept_state = Arc::clone(&state);
        let accept = std::thread::spawn(move || accept_loop(&listener, &accept_state));
        let sched_state = Arc::clone(&state);
        let scheduler = std::thread::spawn(move || scheduler_loop(&sched_state));
        Ok(Server {
            addr,
            state,
            accept: Some(accept),
            scheduler: Some(scheduler),
        })
    }

    /// The bound address (the chosen port when spawned with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, cancels the running plan, marks queued plans
    /// cancelled, and joins the service threads. Called by `Drop`;
    /// explicit calls are idempotent through the shutdown flag.
    pub fn shutdown(&mut self) {
        if self.state.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Cancel everything queued or running so streaming connections
        // and the scheduler wind down.
        let entries: Vec<Arc<PlanEntry>> = {
            let plans = self.state.plans.lock().expect("plan map poisoned");
            plans.values().cloned().collect()
        };
        for entry in entries {
            entry.request_cancel();
        }
        self.state.queue_ready.notify_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    for stream in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_state = Arc::clone(state);
        std::thread::spawn(move || {
            let _ = handle_connection(stream, &conn_state);
        });
    }
}

fn scheduler_loop(state: &Arc<ServerState>) {
    loop {
        let entry = {
            let mut queue = state.queue.lock().expect("plan queue poisoned");
            loop {
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(entry) = queue.pop_front() {
                    break entry;
                }
                queue = state.queue_ready.wait(queue).expect("plan queue poisoned");
            }
        };
        run_entry(state, &entry);
    }
}

/// Executes one queued plan on the resident engine, pushing each record's
/// JSONL line as it is emitted and settling the terminal phase.
fn run_entry(state: &ServerState, entry: &PlanEntry) {
    {
        let mut st = entry.state.lock().expect("plan state poisoned");
        if st.phase != Phase::Queued {
            return; // cancelled while waiting in the queue
        }
        st.phase = Phase::Running;
        entry.progress.notify_all();
    }
    let opts = SubmitOptions {
        deadline: entry.deadline,
        first_job: 0,
    };
    let mut stream = match state.engine.submit_with(&entry.plan, opts) {
        Ok(stream) => stream,
        Err(e) => {
            let mut st = entry.state.lock().expect("plan state poisoned");
            st.phase = Phase::Failed;
            st.error = Some(e.to_string());
            entry.progress.notify_all();
            return;
        }
    };
    {
        // Publish the token; honor a cancel that raced the queue.
        let mut st = entry.state.lock().expect("plan state poisoned");
        let token = stream.cancel_token();
        if st.cancel_requested {
            token.cancel();
        }
        st.cancel = Some(token);
    }
    let mut outcome = Ok(());
    while let Some(item) = stream.next() {
        match item {
            Ok(r) => {
                let line = emit::job_to_jsonl_line(&r);
                let mut st = entry.state.lock().expect("plan state poisoned");
                st.lines.push(line);
                st.cache_hits = stream.cache_hits();
                st.cache_misses = stream.cache_misses();
                entry.progress.notify_all();
            }
            Err(e) => {
                outcome = Err(e);
                break;
            }
        }
    }
    let mut st = entry.state.lock().expect("plan state poisoned");
    st.cache_hits = stream.cache_hits();
    st.cache_misses = stream.cache_misses();
    st.cancel = None;
    st.phase = match outcome {
        Ok(()) => Phase::Done,
        Err(ExpError::Cancelled) => Phase::Cancelled,
        Err(e) => {
            st.error = Some(e.to_string());
            Phase::Failed
        }
    };
    entry.progress.notify_all();
}

/// A parsed HTTP/1.1 request head: the request line plus the one header
/// this service needs. Public so the property tests can hammer the parser
/// directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestHead {
    /// Request method, verbatim (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the target, before any `?`.
    pub path: String,
    /// Query component after `?`, empty when absent.
    pub query: String,
    /// Declared `Content-Length`, `0` when absent.
    pub content_length: usize,
}

/// Parses an HTTP/1.1 request head — the request line and headers, up to
/// (not including) the blank line. Tolerates `\r\n` or bare `\n` line
/// endings and any header case; rejects malformed request lines, non-HTTP
/// versions, bodies over `MAX_BODY_BYTES` and unparsable
/// `Content-Length` values. Never panics on any input (property-tested).
///
/// # Errors
///
/// A human-readable description of the first problem found.
pub fn parse_request_head(head: &str) -> Result<RequestHead, String> {
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let method = parts.next().ok_or("empty request line")?.to_string();
    let target = parts.next().ok_or("request line lacks a target")?;
    let version = parts.next().ok_or("request line lacks a version")?;
    if parts.next().is_some() {
        return Err(format!("malformed request line {request_line:?}"));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(format!("unsupported version {version:?}"));
    }
    if !target.starts_with('/') {
        return Err(format!("target {target:?} is not origin-form"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let mut content_length = 0usize;
    for line in lines {
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("malformed header line {line:?}"));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse::<usize>()
                .map_err(|_| format!("unparsable Content-Length {:?}", value.trim()))?;
            if content_length > MAX_BODY_BYTES {
                return Err(format!(
                    "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
                ));
            }
        }
    }
    Ok(RequestHead {
        method,
        path,
        query,
        content_length,
    })
}

/// Decodes `%XX` escapes and `+`-for-space, as `curl --data-urlencode`
/// produces. Invalid escapes pass through verbatim rather than erroring —
/// the plan parser downstream rejects anything that doesn't parse.
fn percent_decode(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                match (
                    bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16)),
                    bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16)),
                ) {
                    (Some(hi), Some(lo)) => {
                        out.push((hi * 16 + lo) as u8);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits a plan-options body (`&`- or newline-separated `key=value`
/// pairs) into decoded pairs. Empty segments are skipped.
fn parse_params(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut pairs = Vec::new();
    for segment in body.split(['&', '\n']) {
        let segment = segment.trim();
        if segment.is_empty() {
            continue;
        }
        let Some((key, value)) = segment.split_once('=') else {
            return Err(format!("option {segment:?} is not key=value"));
        };
        pairs.push((percent_decode(key.trim()), percent_decode(value)));
    }
    Ok(pairs)
}

/// Builds an [`ExperimentPlan`] (plus the optional execution deadline)
/// from submitted options — the same grammar as the `dftp sweep` flags.
fn plan_from_params(
    pairs: &[(String, String)],
) -> Result<(ExperimentPlan, Option<Duration>), String> {
    let mut opts: HashMap<String, String> = HashMap::new();
    for (key, value) in pairs {
        let key = key.replace('_', "-");
        if opts.insert(key.clone(), value.clone()).is_some() {
            return Err(format!("duplicate option '{key}'"));
        }
    }
    let mut allowed = ExperimentPlan::OPTION_KEYS.to_vec();
    allowed.push("deadline-s");
    check_option_keys(&opts, &allowed, "")?;
    let plan = ExperimentPlan::from_options(&opts, "serve", "").map_err(|e| e.to_string())?;
    let deadline = option_seconds(&opts, "deadline-s", "")?;
    plan.validate().map_err(|e| e.to_string())?;
    Ok((plan, deadline))
}

/// Reads a request (head + declared body) off one connection.
fn read_request(stream: &mut TcpStream) -> Result<(RequestHead, String), String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_blank_line(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err("request head exceeds 16 KiB".to_string());
        }
        let n = stream.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed mid-request".to_string());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head_text = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| "request head is not UTF-8".to_string())?;
    let head = parse_request_head(head_text)?;
    let mut body = buf[head_end..].to_vec();
    // find_blank_line's offset points at the start of the body already.
    while body.len() < head.content_length {
        let n = stream.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed mid-body".to_string());
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(head.content_length);
    let body = String::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    Ok((head, body))
}

/// Byte offset just past the first blank line (`\r\n\r\n` or `\n\n`), or
/// `None` while the head is still incomplete.
fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
        .or_else(|| buf.windows(2).position(|w| w == b"\n\n").map(|p| p + 2))
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

fn write_json(stream: &mut TcpStream, status: u16, reason: &str, body: &str) -> io::Result<()> {
    write_response(stream, status, reason, "application/json", body)
}

fn write_error(stream: &mut TcpStream, status: u16, reason: &str, message: &str) -> io::Result<()> {
    write_json(
        stream,
        status,
        reason,
        &format!("{{\"error\":\"{}\"}}", emit::escape(message)),
    )
}

fn handle_connection(mut stream: TcpStream, state: &Arc<ServerState>) -> io::Result<()> {
    // A stalled client must not pin a connection thread forever; streaming
    // writes below clear the limit once the request is accepted.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let (head, body) = match read_request(&mut stream) {
        Ok(parsed) => parsed,
        Err(message) => return write_error(&mut stream, 400, "Bad Request", &message),
    };
    let segments: Vec<&str> = head.path.split('/').filter(|s| !s.is_empty()).collect();
    match (head.method.as_str(), segments.as_slice()) {
        ("GET", ["health"]) => {
            let cache = state.engine.cache_stats();
            let queued = state.queue.lock().expect("plan queue poisoned").len();
            write_json(
                &mut stream,
                200,
                "OK",
                &format!(
                    "{{\"status\":\"ok\",\"queued\":{queued},\"cache_hits\":{},\"cache_misses\":{},\"cache_entries\":{}}}",
                    cache.hits, cache.misses, cache.entries
                ),
            )
        }
        ("POST", ["plans"]) => {
            // Options may ride in the body or the query string.
            let text = if body.trim().is_empty() {
                &head.query
            } else {
                &body
            };
            let (plan, deadline) = match parse_params(text).and_then(|p| plan_from_params(&p)) {
                Ok(built) => built,
                Err(message) => return write_error(&mut stream, 400, "Bad Request", &message),
            };
            let entry = {
                let mut queue = state.queue.lock().expect("plan queue poisoned");
                if queue.len() >= state.queue_depth {
                    return write_error(
                        &mut stream,
                        429,
                        "Too Many Requests",
                        &format!("plan queue is full ({} pending)", queue.len()),
                    );
                }
                let id = state.next_id.fetch_add(1, Ordering::Relaxed);
                let entry = Arc::new(PlanEntry::new(id, plan, deadline));
                queue.push_back(Arc::clone(&entry));
                state
                    .plans
                    .lock()
                    .expect("plan map poisoned")
                    .insert(id, Arc::clone(&entry));
                state.queue_ready.notify_all();
                entry
            };
            write_json(
                &mut stream,
                202,
                "Accepted",
                &format!("{{\"id\":{},\"total\":{}}}", entry.id, entry.total),
            )
        }
        ("GET", ["plans", id]) => match lookup(state, id) {
            Some(entry) => write_json(&mut stream, 200, "OK", &entry.status_json()),
            None => write_error(&mut stream, 404, "Not Found", "no such plan"),
        },
        ("GET", ["plans", id, "stream"]) => match lookup(state, id) {
            Some(entry) => stream_plan(&mut stream, &entry),
            None => write_error(&mut stream, 404, "Not Found", "no such plan"),
        },
        ("POST", ["plans", id, "cancel"]) => match lookup(state, id) {
            Some(entry) => {
                entry.request_cancel();
                write_json(
                    &mut stream,
                    200,
                    "OK",
                    &format!("{{\"id\":{},\"cancelling\":true}}", entry.id),
                )
            }
            None => write_error(&mut stream, 404, "Not Found", "no such plan"),
        },
        _ => write_error(
            &mut stream,
            404,
            "Not Found",
            &format!("no route for {} {}", head.method, head.path),
        ),
    }
}

fn lookup(state: &ServerState, id_text: &str) -> Option<Arc<PlanEntry>> {
    let id: u64 = id_text.parse().ok()?;
    state
        .plans
        .lock()
        .expect("plan map poisoned")
        .get(&id)
        .cloned()
}

/// Streams a plan's JSONL records with chunked transfer encoding: every
/// line emitted so far is replayed, then the connection follows the plan
/// until it reaches a terminal phase. The bytes (concatenated chunks) are
/// exactly the file `dftp sweep --format jsonl --out` writes for the same
/// plan, modulo `wall_time_s`.
fn stream_plan(stream: &mut TcpStream, entry: &PlanEntry) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: application/jsonl\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    )?;
    let mut sent = 0usize;
    loop {
        // Take a batch of new lines (and the terminal verdict) under the
        // lock, then write outside it.
        let (batch, finished) = {
            let mut st = entry.state.lock().expect("plan state poisoned");
            loop {
                if st.lines.len() > sent || st.phase.is_terminal() {
                    break;
                }
                st = entry.progress.wait(st).expect("plan state poisoned");
            }
            let batch: Vec<String> = st.lines[sent..].to_vec();
            (batch, st.phase.is_terminal())
        };
        for line in &batch {
            // One JSONL record (newline included) per chunk.
            write!(stream, "{:x}\r\n{line}\n\r\n", line.len() + 1)?;
        }
        sent += batch.len();
        if finished {
            write!(stream, "0\r\n\r\n")?;
            return stream.flush();
        }
        stream.flush()?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Profile;

    #[test]
    fn request_head_parses_the_routes_we_serve() {
        let head = parse_request_head("POST /plans HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\n")
            .unwrap();
        assert_eq!(head.method, "POST");
        assert_eq!(head.path, "/plans");
        assert_eq!(head.query, "");
        assert_eq!(head.content_length, 12);
        let head = parse_request_head("GET /plans/7/stream?x=1 HTTP/1.1").unwrap();
        assert_eq!(head.path, "/plans/7/stream");
        assert_eq!(head.query, "x=1");
        assert_eq!(head.content_length, 0);
    }

    #[test]
    fn request_head_rejects_malformed_lines() {
        for bad in [
            "",
            "GET",
            "GET /x",
            "GET /x HTTP/2",
            "GET x HTTP/1.1",
            "GET /x HTTP/1.1 extra",
            "GET /x HTTP/1.1\r\nbadheader\r\n",
            "GET /x HTTP/1.1\r\nContent-Length: nope\r\n",
            "GET /x HTTP/1.1\r\nContent-Length: 999999999\r\n",
        ] {
            assert!(parse_request_head(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn percent_decoding_handles_escapes_and_passthrough() {
        assert_eq!(percent_decode("a+b%3Dc%2Cd"), "a b=c,d");
        assert_eq!(percent_decode("plain"), "plain");
        assert_eq!(percent_decode("bad%zz%"), "bad%zz%");
    }

    #[test]
    fn plan_params_mirror_the_sweep_grammar() {
        let pairs = parse_params(
            "scenarios=disk:n=12:radius=4&algs=grid,wave&seeds=2&plan-seed=7&profile=stats",
        )
        .unwrap();
        let (plan, deadline) = plan_from_params(&pairs).unwrap();
        assert_eq!(plan.scenarios.len(), 1);
        assert_eq!(plan.algorithms.len(), 2);
        assert_eq!(plan.seeds, 2);
        assert_eq!(plan.plan_seed, 7);
        assert_eq!(plan.profile, Profile::Stats);
        assert_eq!(deadline, None);
        // Underscored spellings are accepted; unknown keys are not.
        let (_, deadline) =
            plan_from_params(&parse_params("scenarios=disk&plan_seed=3&deadline_s=1.5").unwrap())
                .unwrap();
        assert_eq!(deadline, Some(Duration::from_secs_f64(1.5)));
        assert!(plan_from_params(&parse_params("scenarios=disk&bogus=1").unwrap()).is_err());
        assert!(plan_from_params(&parse_params("algs=grid").unwrap()).is_err());
    }

    #[test]
    fn oversized_deadline_is_an_error_not_a_panic() {
        // Positive and finite, but past what a Duration can hold.
        let err =
            plan_from_params(&parse_params("scenarios=disk&deadline-s=1e20").unwrap()).unwrap_err();
        assert!(err.contains("deadline-s"), "{err}");
        let (_, deadline) =
            plan_from_params(&parse_params("scenarios=disk&deadline-s=1e9").unwrap()).unwrap();
        assert_eq!(deadline, Some(Duration::from_secs(1_000_000_000)));
    }

    #[test]
    fn blank_line_finder_handles_both_conventions() {
        assert_eq!(find_blank_line(b"a\r\n\r\nrest"), Some(5));
        assert_eq!(find_blank_line(b"a\n\nrest"), Some(3));
        assert_eq!(find_blank_line(b"partial\r\n"), None);
    }
}
