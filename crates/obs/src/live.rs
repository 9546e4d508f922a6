//! `traffic-live`: zero-dependency live telemetry server.
//!
//! A tiny HTTP server over std [`TcpListener`] (no tokio, no hyper)
//! that attaches to the in-process run — via
//! [`crate::RunBuilder::live_server`] or `TRAFFIC_LIVE=<addr>` — and
//! makes the previously post-hoc observability surfaces reachable
//! while the run is still training:
//!
//! - `GET /metrics` — the entire live metric registry in Prometheus
//!   text exposition format: counters (`_total`), gauges, and
//!   log-bucket histograms with `_bucket`/`_sum`/`_count` series plus
//!   exact `_min`/`_max` gauges.
//! - `GET /health` — run phase, epoch/step progress, last-step age,
//!   and watchdog state ([`crate::watch`]) as JSON.
//! - `GET /runs` and `GET /runs/<id>` — [`crate::RunStore`] summaries
//!   of the manifest directory as JSON.
//! - `GET /events` — live manifest events (epoch, insight, blame,
//!   sched cell start/end, sys samples, alerts) as Server-Sent Events.
//!
//! ## Overhead policy
//!
//! The established invariant: with the server off, the hot path adds
//! **one relaxed atomic load per step and zero allocations**
//! ([`heartbeat`] is the only per-step hook; gated by a counting-
//! allocator test). With the server on, training losses stay
//! bit-identical — the server only *observes* (sink tee + atomic
//! snapshots); it never touches RNG, scheduling, or numerics.
//!
//! ## Broadcast ring / drop policy
//!
//! `/events` is fed by an [`EventTap`] sink teed into the global sink
//! table: events are pre-rendered to JSON once and pushed into a
//! bounded ring (capacity [`RING_CAP`]). Slow consumers that fall more
//! than a ring behind **drop** the missed events — counted in the
//! `live/dropped_events` counter and announced in-stream as a
//! `dropped` SSE event — so a stalled `curl` can never apply
//! backpressure to the trainer.

use std::collections::VecDeque;
use std::io::{Read as IoRead, Write as IoWrite};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::event::{push_json_str, Event};
use crate::sink::Sink;
use crate::store::{MetricValue, RunStore, RunSummary};

/// Broadcast ring capacity (events retained for late/slow consumers).
const RING_CAP: usize = 1024;

/// Back-off after a failed `accept` (say, out of file descriptors), so
/// a persistent error cannot spin the accept thread.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// How long an idle `/events` consumer waits before emitting an SSE
/// keep-alive comment (and re-checking the stop flag).
const SSE_IDLE: Duration = Duration::from_millis(250);

// ---------------------------------------------------------------------
// Run status: phase + step progress shared with /health and the watchdog
// ---------------------------------------------------------------------

/// Coarse run phase reported in `/health` and used by the watchdog's
/// step-stall rule (which only fires while training).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// No instrumented phase active.
    Idle,
    /// Dataset simulation / windowing / model build.
    Prepare,
    /// The training loop.
    Train,
    /// A validation pass inside training.
    Validate,
    /// Inference over a split.
    Predict,
    /// A scheduled Fig-1/Fig-2 sweep.
    Sweep,
}

const PHASE_NAMES: [&str; 6] = ["idle", "prepare", "train", "validate", "predict", "sweep"];

impl Phase {
    /// Stable lower-case name (`/health` vocabulary).
    pub fn name(self) -> &'static str {
        PHASE_NAMES[self as usize]
    }
}

/// Number of live trackers (server instances + armed watchdogs). The
/// per-step [`heartbeat`] early-outs on this single relaxed load.
static TRACKERS: AtomicUsize = AtomicUsize::new(0);
static PHASE: AtomicUsize = AtomicUsize::new(0);
static EPOCH: AtomicU64 = AtomicU64::new(0);
static STEP: AtomicU64 = AtomicU64::new(0);
/// `elapsed_ns` of the last heartbeat; 0 = no step seen yet.
static LAST_STEP_NS: AtomicU64 = AtomicU64::new(0);

/// True when a live server or watchdog is consuming heartbeats.
pub fn tracking() -> bool {
    TRACKERS.load(Ordering::Relaxed) != 0
}

pub(crate) fn track() {
    TRACKERS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn untrack() {
    TRACKERS.fetch_sub(1, Ordering::Relaxed);
}

/// Per-step progress hook for the trainer. With no live server and no
/// watchdog this is **one relaxed atomic load** and returns; otherwise
/// it stores epoch/step/timestamp (still allocation-free).
#[inline]
pub fn heartbeat(epoch: usize, step: usize) {
    if TRACKERS.load(Ordering::Relaxed) == 0 {
        return;
    }
    EPOCH.store(epoch as u64, Ordering::Relaxed);
    STEP.store(step as u64, Ordering::Relaxed);
    LAST_STEP_NS.store(crate::elapsed_ns().max(1), Ordering::Relaxed);
}

/// RAII phase marker: sets the global phase, restores the previous one
/// on drop (phases nest — validation inside training).
pub struct PhaseGuard {
    prev: usize,
}

/// Enters a phase for the lifetime of the returned guard.
pub fn phase(p: Phase) -> PhaseGuard {
    PhaseGuard { prev: PHASE.swap(p as usize, Ordering::Relaxed) }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        PHASE.store(self.prev, Ordering::Relaxed);
    }
}

/// The current phase.
pub fn current_phase() -> Phase {
    match PHASE.load(Ordering::Relaxed) {
        1 => Phase::Prepare,
        2 => Phase::Train,
        3 => Phase::Validate,
        4 => Phase::Predict,
        5 => Phase::Sweep,
        _ => Phase::Idle,
    }
}

/// `(epoch, step)` of the last heartbeat.
pub fn progress() -> (u64, u64) {
    (EPOCH.load(Ordering::Relaxed), STEP.load(Ordering::Relaxed))
}

/// Seconds since the last heartbeat (`None` before the first step).
pub fn last_step_age() -> Option<f64> {
    match LAST_STEP_NS.load(Ordering::Relaxed) {
        0 => None,
        ns => Some((crate::elapsed_ns().saturating_sub(ns)) as f64 * 1e-9),
    }
}

/// Clears progress state (run isolation; used by tests and run start).
pub fn reset_progress() {
    EPOCH.store(0, Ordering::Relaxed);
    STEP.store(0, Ordering::Relaxed);
    LAST_STEP_NS.store(0, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Event tap: bounded broadcast ring teed into the sink layer
// ---------------------------------------------------------------------

/// Is this event kind part of the live `/events` stream? Metric
/// snapshots and spans are high-volume registry detail; everything a
/// human tails stays in.
fn streamed(kind: &str) -> bool {
    matches!(
        kind,
        "run_start"
            | "run_end"
            | "epoch"
            | "insight"
            | "blame"
            | "alert"
            | "sys"
            | "cell_start"
            | "cell_end"
            | "sched_start"
            | "sched_end"
            | "checkpoint"
            | "checkpoint_failed"
            | "resume"
            | "skipped_step"
            | "divergence_rollback"
            | "divergence_giveup"
            | "reload"
            | "breaker"
    )
}

struct TapInner {
    /// Sequence number the *next* pushed event will get.
    next_seq: u64,
    /// `(seq, kind, json)` — newest at the back.
    ring: VecDeque<(u64, String, String)>,
}

/// The broadcast sink: pre-renders each streamed event to JSON and
/// fans it out to every connected `/events` consumer via the ring.
struct EventTap {
    inner: Mutex<TapInner>,
    cv: Condvar,
}

impl EventTap {
    fn new() -> Self {
        EventTap {
            inner: Mutex::new(TapInner { next_seq: 0, ring: VecDeque::with_capacity(RING_CAP) }),
            cv: Condvar::new(),
        }
    }
}

impl Sink for EventTap {
    fn on_event(&self, event: &Event) {
        if !streamed(&event.kind) {
            return;
        }
        // Render outside the lock: consumers share the one string.
        let json = event.to_json();
        let mut g = self.inner.lock().expect("live tap poisoned");
        let seq = g.next_seq;
        g.next_seq += 1;
        if g.ring.len() == RING_CAP {
            g.ring.pop_front();
        }
        g.ring.push_back((seq, event.kind.clone(), json));
        drop(g);
        self.cv.notify_all();
    }
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// The live telemetry server (RAII: dropping it stops the accept loop,
/// joins every connection thread, and removes the event tap).
pub struct LiveServer {
    addr: SocketAddr,
    run: Option<String>,
    stop: Arc<std::sync::atomic::AtomicBool>,
    tap: Arc<EventTap>,
    tap_sink: Arc<dyn Sink>,
    accept: Option<JoinHandle<()>>,
}

impl LiveServer {
    /// Binds `addr` (e.g. `127.0.0.1:9898`; port 0 picks a free port)
    /// and starts serving. The manifest directory for `/runs` defaults
    /// to `reports/runs`.
    pub fn start(addr: &str) -> std::io::Result<LiveServer> {
        Self::start_with(addr, None, None)
    }

    /// [`LiveServer::start`] with an attached run name (shown in
    /// `/health`) and an explicit `/runs` manifest directory.
    pub fn start_with(
        addr: &str,
        run: Option<&str>,
        runs_dir: Option<&Path>,
    ) -> std::io::Result<LiveServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let tap = Arc::new(EventTap::new());
        let tap_sink: Arc<dyn Sink> = tap.clone();
        crate::sink::add_sink(Arc::clone(&tap_sink));
        track();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let ctx = Arc::new(ServeCtx {
            run: run.map(str::to_string),
            runs_dir: runs_dir.map(Path::to_path_buf).unwrap_or_else(|| "reports/runs".into()),
            tap: Arc::clone(&tap),
            stop: Arc::clone(&stop),
            conns: Mutex::new(Vec::new()),
        });
        let accept_ctx = Arc::clone(&ctx);
        let accept = std::thread::Builder::new()
            .name("traffic-live".into())
            .spawn(move || accept_loop(listener, accept_ctx))
            .ok();
        Ok(LiveServer { addr, run: run.map(str::to_string), stop, tap, tap_sink, accept })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The attached run name, when started from a [`crate::Run`].
    pub fn run(&self) -> Option<&str> {
        self.run.as_deref()
    }
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Wake idle SSE consumers so they observe the stop flag now.
        self.tap.cv.notify_all();
        if let Some(h) = self.accept.take() {
            if wake_accept(self.addr) {
                let _ = h.join();
            }
        }
        crate::sink::remove_sink(&self.tap_sink);
        untrack();
    }
}

/// Shared state of one server instance.
struct ServeCtx {
    run: Option<String>,
    runs_dir: PathBuf,
    tap: Arc<EventTap>,
    stop: Arc<std::sync::atomic::AtomicBool>,
    conns: Mutex<Vec<JoinHandle<()>>>,
}

/// Unblocks a thread parked in a blocking `accept` on `addr` by making
/// one connection to it (to loopback when `addr` is unspecified).
/// Servers set their stop flag first, so the accept loop drops this
/// connection and exits. Returns false when no connection could be
/// made: the accept thread is then still parked, and the caller must
/// not join it (it exits on the next connection).
pub fn wake_accept(addr: SocketAddr) -> bool {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    TcpStream::connect_timeout(&target, Duration::from_secs(1)).is_ok()
}

/// Blocking accept: an idle server costs nothing and a request is
/// picked up at once. Drop wakes it with [`wake_accept`].
fn accept_loop(listener: TcpListener, ctx: Arc<ServeCtx>) {
    for conn in listener.incoming() {
        if ctx.stop.load(Ordering::Acquire) {
            break;
        }
        match conn {
            Ok(stream) => {
                crate::metrics::counter("live/requests").inc();
                let conn_ctx = Arc::clone(&ctx);
                let handle = std::thread::Builder::new()
                    .name("traffic-live-conn".into())
                    .spawn(move || handle_conn(stream, &conn_ctx))
                    .ok();
                if let Some(h) = handle {
                    let mut conns = ctx.conns.lock().expect("live conns poisoned");
                    // Reap finished handlers so long-lived servers don't
                    // accumulate joined-but-stored handles.
                    conns.retain(|c| !c.is_finished());
                    conns.push(h);
                }
            }
            Err(_) => std::thread::sleep(ACCEPT_RETRY),
        }
    }
    // Join connection threads: SSE loops poll the stop flag on SSE_IDLE
    // cadence and plain requests finish in one write.
    let handles = std::mem::take(&mut *ctx.conns.lock().expect("live conns poisoned"));
    for h in handles {
        let _ = h.join();
    }
}

fn handle_conn(mut stream: TcpStream, ctx: &ServeCtx) {
    // Bound reads and writes so a dead peer can never pin a thread.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let Some(path) = read_request_path(&mut stream) else {
        return;
    };
    match path.as_str() {
        "/metrics" => respond(&mut stream, 200, "text/plain; version=0.0.4", &prometheus_text()),
        "/health" => respond(&mut stream, 200, "application/json", &health_json(ctx)),
        "/runs" => match runs_json(&ctx.runs_dir) {
            Ok(body) => respond(&mut stream, 200, "application/json", &body),
            Err(e) => respond(&mut stream, 500, "text/plain", &format!("cannot index runs: {e}\n")),
        },
        "/events" => sse_loop(&mut stream, ctx),
        "/" => respond(
            &mut stream,
            200,
            "text/plain",
            "traffic-live endpoints: /metrics /health /runs /runs/<id> /events\n",
        ),
        p => {
            if let Some(id) = p.strip_prefix("/runs/") {
                match run_json(&ctx.runs_dir, id) {
                    Some(body) => respond(&mut stream, 200, "application/json", &body),
                    None => respond(&mut stream, 404, "text/plain", "no such run\n"),
                }
            } else {
                respond(&mut stream, 404, "text/plain", "not found\n");
            }
        }
    }
}

/// Reads the request head and returns the path of a `GET` request
/// (query strings are stripped; anything else is `None`).
fn read_request_path(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.lines().next()?.split_whitespace();
    if parts.next()? != "GET" {
        return None;
    }
    let path = parts.next()?;
    Some(path.split('?').next().unwrap_or(path).to_string())
}

fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        _ => "Internal Server Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

// ---------------------------------------------------------------------
// /events — Server-Sent Events
// ---------------------------------------------------------------------

fn sse_loop(stream: &mut TcpStream, ctx: &ServeCtx) {
    let head = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\
                Cache-Control: no-cache\r\nConnection: close\r\n\r\n";
    if stream.write_all(head.as_bytes()).is_err() {
        return;
    }
    let dropped_counter = crate::metrics::counter("live/dropped_events");
    // Start at the oldest retained event so a late consumer sees recent
    // history immediately, then follows live.
    let mut next = {
        let g = ctx.tap.inner.lock().expect("live tap poisoned");
        g.next_seq - g.ring.len() as u64
    };
    loop {
        let mut batch: Vec<(String, String)> = Vec::new();
        let mut dropped = 0u64;
        {
            let mut g = ctx.tap.inner.lock().expect("live tap poisoned");
            loop {
                if ctx.stop.load(Ordering::Relaxed) {
                    return;
                }
                let oldest = g.next_seq - g.ring.len() as u64;
                if next < oldest {
                    // Slow consumer: the ring lapped us. Drop and jump.
                    dropped = oldest - next;
                    next = oldest;
                }
                if next < g.next_seq {
                    for (seq, kind, json) in g.ring.iter() {
                        if *seq >= next {
                            batch.push((kind.clone(), json.clone()));
                        }
                    }
                    next = g.next_seq;
                    break;
                }
                let (guard, timeout) =
                    ctx.tap.cv.wait_timeout(g, SSE_IDLE).expect("live tap poisoned");
                g = guard;
                if timeout.timed_out() {
                    break; // emit a keep-alive below, re-check stop
                }
            }
        }
        if dropped > 0 {
            dropped_counter.add(dropped);
            if stream
                .write_all(format!("event: dropped\ndata: {{\"count\":{dropped}}}\n\n").as_bytes())
                .is_err()
            {
                return;
            }
        }
        if batch.is_empty() {
            // Keep-alive comment: lets dead peers surface as write errors.
            if stream.write_all(b": keepalive\n\n").is_err() || stream.flush().is_err() {
                return;
            }
            continue;
        }
        for (kind, json) in &batch {
            if stream.write_all(format!("event: {kind}\ndata: {json}\n\n").as_bytes()).is_err() {
                return;
            }
        }
        if stream.flush().is_err() {
            return;
        }
    }
}

// ---------------------------------------------------------------------
// /metrics — Prometheus text exposition
// ---------------------------------------------------------------------

/// Sanitizes a registry metric name into the Prometheus grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`), prefixed with `traffic_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 8);
    out.push_str("traffic_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Prometheus sample-value formatting (`NaN`/`+Inf`/`-Inf` spelled per
/// the exposition grammar).
fn prom_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        v.to_string()
    }
}

/// Renders the whole live metric registry in Prometheus text
/// exposition format. Counters export as `<name>_total`; histograms as
/// the standard `_bucket`/`_sum`/`_count` series over the non-empty
/// log buckets plus exact `_min`/`_max` gauges. A gauge whose family
/// name collides with a histogram's (e.g. `train.grad_norm` is both)
/// exports as `<name>_current`.
pub fn prometheus_text() -> String {
    let (counters, gauges, histograms) = crate::metrics::export_lists();
    let hist_names: Vec<String> = histograms.iter().map(|(n, _)| prom_name(n)).collect();
    let mut out = String::with_capacity(4096);
    for (name, c) in &counters {
        let n = format!("{}_total", prom_name(name));
        out.push_str(&format!("# HELP {n} counter `{name}`\n# TYPE {n} counter\n"));
        out.push_str(&format!("{n} {}\n", c.get()));
    }
    for (name, g) in &gauges {
        let mut n = prom_name(name);
        if hist_names.contains(&n) {
            n.push_str("_current");
        }
        out.push_str(&format!("# HELP {n} gauge `{name}`\n# TYPE {n} gauge\n"));
        out.push_str(&format!("{n} {}\n", prom_value(g.get())));
    }
    for (name, h) in &histograms {
        let n = prom_name(name);
        out.push_str(&format!("# HELP {n} log-bucket histogram `{name}`\n# TYPE {n} histogram\n"));
        let (buckets, total) = h.cumulative_buckets();
        for (upper, cum) in &buckets {
            out.push_str(&format!("{n}_bucket{{le=\"{}\"}} {cum}\n", prom_value(*upper)));
        }
        out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {total}\n"));
        out.push_str(&format!("{n}_sum {}\n", prom_value(h.sum())));
        out.push_str(&format!("{n}_count {total}\n"));
        // Exact extrema ride along as gauges (Prometheus histograms
        // have no native min/max series).
        if h.count() > 0 && h.min().is_finite() {
            for (suffix, v) in [("min", h.min()), ("max", h.max())] {
                out.push_str(&format!(
                    "# HELP {n}_{suffix} exact {suffix} of `{name}`\n\
                     # TYPE {n}_{suffix} gauge\n{n}_{suffix} {}\n",
                    prom_value(v)
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// /health and /runs — JSON rendering
// ---------------------------------------------------------------------

fn push_kv_str(out: &mut String, key: &str, val: &str) {
    push_json_str(out, key);
    out.push(':');
    push_json_str(out, val);
}

fn push_num(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&v.to_string());
    } else {
        out.push_str("null");
    }
}

fn health_json(ctx: &ServeCtx) -> String {
    let mut out = String::with_capacity(256);
    out.push('{');
    push_kv_str(&mut out, "phase", current_phase().name());
    let (epoch, step) = progress();
    out.push_str(&format!(",\"epoch\":{epoch},\"step\":{step},\"last_step_age_s\":"));
    match last_step_age() {
        Some(age) => push_num(&mut out, age),
        None => out.push_str("null"),
    }
    out.push_str(&format!(",\"uptime_s\":{}", crate::elapsed_ms() / 1e3));
    if let Some(run) = &ctx.run {
        out.push(',');
        push_kv_str(&mut out, "run", run);
    }
    // Serving section: only rendered when a serve queue exists in this
    // process (the high-water gauge is set by its constructor).
    let high_water = crate::metrics::gauge("serve/queue_high_water").get();
    if high_water > 0.0 {
        let c = |name: &str| crate::metrics::counter(name).get();
        out.push_str(&format!(
            ",\"serving\":{{\"state\":\"{}\",\"queue_depth\":{},\"high_water\":{},\
             \"requests\":{},\"ok\":{},\"degraded\":{},\"shed\":{},\"timeouts\":{},\
             \"breaker_trips\":{},\"reloads\":{},\"reload_failures\":{}}}",
            if crate::metrics::gauge("serve/breaker_open").get() > 0.0 {
                "DEGRADED"
            } else {
                "HEALTHY"
            },
            crate::metrics::gauge("serve/queue_depth").get(),
            high_water,
            c("serve/requests"),
            c("serve/ok"),
            c("serve/degraded"),
            c("serve/shed"),
            c("serve/timeouts"),
            c("serve/breaker_trips"),
            c("serve/reloads"),
            c("serve/reload_failures"),
        ));
    }
    out.push_str(",\"watchdog\":{");
    out.push_str(&format!("\"armed\":{},\"alerts\":[", crate::watch::armed()));
    for (i, a) in crate::watch::active_alerts().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        push_kv_str(&mut out, "rule", a.rule);
        out.push(',');
        push_kv_str(&mut out, "message", &a.message);
        out.push_str(",\"value\":");
        push_num(&mut out, a.value);
        out.push_str(",\"threshold\":");
        push_num(&mut out, a.threshold);
        out.push_str(&format!(",\"since_ms\":{}", a.since_ms));
        out.push('}');
    }
    out.push_str("]}}");
    out
}

fn summary_json(r: &RunSummary, full: bool) -> String {
    let mut out = String::with_capacity(256);
    out.push('{');
    push_kv_str(&mut out, "name", &r.name);
    out.push(',');
    push_kv_str(&mut out, "git", &r.git);
    out.push_str(&format!(",\"threads\":{},\"events\":{}", r.threads, r.events));
    out.push_str(&format!(",\"epochs\":{},\"malformed\":{}", r.epochs.len(), r.malformed));
    out.push_str(",\"wall_s\":");
    match r.wall_s {
        Some(w) => push_num(&mut out, w),
        None => out.push_str("null"),
    }
    if let Some(e) = r.epochs.last() {
        out.push_str(",\"final_loss\":");
        push_num(&mut out, e.loss);
    }
    out.push_str(&format!(",\"alerts\":{}", r.alerts.len()));
    if full {
        out.push_str(",\"losses\":[");
        for (i, e) in r.epochs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_num(&mut out, e.loss);
        }
        out.push_str("],\"metrics\":{");
        let mut first = true;
        for (name, m) in &r.metrics {
            if !first {
                out.push(',');
            }
            first = false;
            push_json_str(&mut out, name);
            out.push(':');
            match m {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => push_num(&mut out, *v),
                MetricValue::Histogram { count, mean, min, max, p50, p90, p99 } => {
                    out.push_str("{\"count\":");
                    push_num(&mut out, *count);
                    for (k, v) in [
                        ("mean", mean),
                        ("min", min),
                        ("max", max),
                        ("p50", p50),
                        ("p90", p90),
                        ("p99", p99),
                    ] {
                        out.push_str(&format!(",\"{k}\":"));
                        push_num(&mut out, *v);
                    }
                    out.push('}');
                }
            }
        }
        out.push('}');
    }
    out.push('}');
    out
}

fn runs_json(dir: &Path) -> std::io::Result<String> {
    let store = RunStore::index(dir)?;
    let mut out = String::from("[");
    for (i, r) in store.runs().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&summary_json(r, false));
    }
    out.push(']');
    Ok(out)
}

fn run_json(dir: &Path, id: &str) -> Option<String> {
    let store = RunStore::index(dir).ok()?;
    store.get(id).map(|r| summary_json(r, true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_and_phase_roundtrip() {
        reset_progress();
        assert_eq!(current_phase(), Phase::Idle);
        {
            let _p = phase(Phase::Train);
            assert_eq!(current_phase(), Phase::Train);
            {
                let _v = phase(Phase::Validate);
                assert_eq!(current_phase(), Phase::Validate);
            }
            assert_eq!(current_phase(), Phase::Train, "phases nest and restore");
        }
        assert_eq!(current_phase(), Phase::Idle);
        // Untracked heartbeats are dropped (one-atomic fast path).
        heartbeat(3, 41);
        assert_eq!(progress(), (0, 0));
        assert_eq!(last_step_age(), None);
        track();
        heartbeat(3, 42);
        untrack();
        assert_eq!(progress(), (3, 42));
        assert!(last_step_age().unwrap() >= 0.0);
        reset_progress();
    }

    #[test]
    fn prom_names_are_grammar_safe() {
        assert_eq!(prom_name("train.batch_s"), "traffic_train_batch_s");
        assert_eq!(prom_name("mem/pool_hits"), "traffic_mem_pool_hits");
        assert_eq!(prom_value(f64::NAN), "NaN");
        assert_eq!(prom_value(f64::INFINITY), "+Inf");
        assert_eq!(prom_value(0.25), "0.25");
    }

    #[test]
    fn prometheus_text_is_line_well_formed() {
        crate::metrics::counter("livetest/ticks").add(3);
        crate::metrics::gauge("livetest/load").set(0.5);
        let h = crate::metrics::histogram("livetest/lat_s");
        h.record(0.01);
        h.record(0.02);
        let text = prometheus_text();
        assert!(text.contains("traffic_livetest_ticks_total 3"));
        assert!(text.contains("traffic_livetest_load 0.5"));
        assert!(text.contains("traffic_livetest_lat_s_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("traffic_livetest_lat_s_count 2"));
        assert!(text.contains("traffic_livetest_lat_s_min 0.01"));
        assert!(text.contains("traffic_livetest_lat_s_max 0.02"));
        for line in text.lines() {
            let ok = line.starts_with("# HELP ") || line.starts_with("# TYPE ") || {
                let mut it = line.rsplitn(2, ' ');
                let val = it.next().unwrap_or("");
                let name = it.next().unwrap_or("");
                !name.is_empty() && (val.parse::<f64>().is_ok() || val == "+Inf" || val == "NaN")
            };
            assert!(ok, "malformed exposition line: {line}");
        }
    }

    #[test]
    fn streamed_filters_registry_noise() {
        assert!(streamed("epoch"));
        assert!(streamed("alert"));
        assert!(streamed("sys"));
        assert!(!streamed("metric"));
        assert!(!streamed("op_stat"));
    }
}
