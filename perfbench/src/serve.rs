//! `serve-gwn207`: a 207-node Graph-WaveNet snapshot served by
//! `traffic_serve`, driven in phases:
//!
//! - `low`: open-loop `/predict` at [`LOW_RPS`], over HTTP and through
//!   `Engine::submit` (traced run only);
//! - `high`: open-loop `/predict` at [`HIGH_RPS`], where batches form;
//! - `burst`: [`BURST`] requests at once through `Engine::submit`,
//!   below the queue's high-water mark, [`BURSTS`] times;
//! - `reload`: open-loop `/predict` at [`HIGH_RPS`] while `/reload`
//!   alternates between two snapshots.
//!
//! A round is `high`, the bursts and `reload`. The low-rate latencies
//! moved by up to 85% between identical runs on a 2-core host, so they
//! are per-layer figures and the gated ones come from the bursts.
//!
//! The load comes from one generator thread with non-blocking sockets.
//! Each request is timed from when it was due, so a stall also delays
//! the requests behind it, and the generator reports how late it sent.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use traffic_data::{simulate, SimConfig, Task};
use traffic_serve::{
    export_fresh, Engine, EngineConfig, HttpServer, LoadedModel, ServeRequest, ServeResponse,
    ServeSnapshot,
};
use traffic_tensor::{Tape, Tensor};

use crate::checks;
use crate::stats::{median, percentile, rounds, secs};
use crate::{Opts, Outcome};

pub const MODEL: &str = "Graph-WaveNet";
pub const NODES: usize = 207;
const T_IN: usize = 12;
const T_OUT: usize = 12;
/// Requests per timed phase: p95 then has ten samples above it.
pub const PHASE_REQUESTS: usize = 200;
/// The low open-loop rate (requests/s).
pub const LOW_RPS: f64 = 15.0;
/// The high open-loop rate (requests/s).
pub const HIGH_RPS: f64 = 40.0;
/// Requests in an in-process burst (the queue's high-water mark is 256).
pub const BURST: usize = 128;
/// Bursts per round.
pub const BURSTS: usize = 5;
/// Reloads per reload phase; even, so the round ends on the first snapshot.
pub const RELOADS: usize = 4;
/// Relative tolerance between two answers for one window: the same
/// weights, possibly in batches of different sizes.
pub const ANSWER_TOL: f32 = 1e-4;
/// HTTP answers per timed phase compared with `Engine::predict`.
const SAMPLED: usize = 4;
/// A phase that has not finished by then counts its open requests failed.
const PHASE_LIMIT: Duration = Duration::from_secs(60);

/// One prediction input on the raw (km/h) scale.
#[derive(Clone)]
pub struct Window {
    pub values: Vec<f32>,
    pub tod: f32,
}

impl Window {
    pub fn request(&self) -> ServeRequest {
        ServeRequest { window: self.values.clone(), tod: self.tod, deadline_ns: u64::MAX }
    }

    fn body(&self) -> String {
        let vals: Vec<String> = self.values.iter().map(|v| format!("{v}")).collect();
        format!("{{\"window\":[{}],\"tod\":{}}}", vals.join(","), self.tod)
    }
}

/// The running server and the workload's inputs.
pub struct Setup {
    pub dir: PathBuf,
    pub snapshots: [PathBuf; 2],
    pub engine: Arc<Engine>,
    pub http: Option<HttpServer>,
    pub addr: String,
    /// Windows for the low, high and reload phases (one per request).
    pub phase_windows: [Vec<Window>; 3],
    /// Send offsets for the low, high and reload phases.
    pub phase_due: [Vec<Duration>; 3],
    pub burst: Vec<Window>,
    /// The window sent after every reload to see which weights answer.
    pub probe: Window,
}

impl Drop for Setup {
    fn drop(&mut self) {
        // Stop the HTTP server before the engine it fronts, then remove
        // the snapshot files.
        self.http.take();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// `n` windows cut at random points of a simulated 207-sensor speed series.
fn windows(seed: u64, n: usize) -> Vec<Window> {
    let ds = simulate(&SimConfig::new("serve", Task::Speed, NODES, 2).with_seed(seed));
    let steps = ds.num_steps();
    let vals = ds.values.as_slice();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e77e);
    (0..n)
        .map(|_| {
            let s = rng.gen_range(0..steps - T_IN);
            let values = vals[s * NODES..(s + T_IN) * NODES].to_vec();
            let tod =
                (s % traffic_models::STEPS_PER_DAY) as f32 / traffic_models::STEPS_PER_DAY as f32;
            Window { values, tod }
        })
        .collect()
}

/// The two snapshots the reload phase alternates between.
pub fn snapshots(seed: u64) -> [ServeSnapshot; 2] {
    [export_fresh(MODEL, NODES, seed), export_fresh(MODEL, NODES, seed.wrapping_add(1))]
}

pub fn setup(seed: u64) -> Setup {
    let dir = PathBuf::from(format!("perfbench/out/serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the snapshot directory");
    let snaps = snapshots(seed);
    let paths = [dir.join("a.tnn2"), dir.join("b.tnn2")];
    for (s, p) in snaps.iter().zip(&paths) {
        s.save(p).expect("save a snapshot");
    }
    let engine = Arc::new(
        Engine::start_from_path(&paths[0], EngineConfig::default()).expect("start the engine"),
    );
    let http = HttpServer::start("127.0.0.1:0", Arc::clone(&engine)).expect("start HTTP");
    let addr = http.addr().to_string();
    let n = 3 * PHASE_REQUESTS + BURST + 1;
    let mut all = windows(seed, n).into_iter();
    let mut take = |k: usize| all.by_ref().take(k).collect::<Vec<_>>();
    let phase_windows = [take(PHASE_REQUESTS), take(PHASE_REQUESTS), take(PHASE_REQUESTS)];
    let burst = take(BURST);
    let probe = take(1).pop().expect("probe window");
    let phase_due = [
        arrivals(seed ^ 1, PHASE_REQUESTS, LOW_RPS),
        arrivals(seed ^ 2, PHASE_REQUESTS, HIGH_RPS),
        arrivals(seed ^ 3, PHASE_REQUESTS, HIGH_RPS),
    ];
    let s = Setup {
        dir,
        snapshots: paths,
        engine,
        http: Some(http),
        addr,
        phase_windows,
        phase_due,
        burst,
        probe,
    };
    // Warm-up: in process and over HTTP, so the pool, the tape and the
    // connection threads are sized before the first timed request.
    for w in s.burst.iter().take(4) {
        s.engine.predict(w.request());
        http_predict(&s.addr, w);
    }
    s
}

// ---------------------------------------------------------------------
// HTTP client
// ---------------------------------------------------------------------

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// HTTP status code and body of a complete response.
fn parse_response(raw: &[u8]) -> Option<(u16, String)> {
    let text = std::str::from_utf8(raw).ok()?;
    let (head, body) = text.split_once("\r\n\r\n")?;
    let code = head.split_whitespace().nth(1)?.parse().ok()?;
    Some((code, body.to_string()))
}

/// The `prediction` array of a `/predict` answer.
pub fn prediction(body: &str) -> Option<Vec<f32>> {
    let j = traffic_obs::json::parse(body).ok()?;
    match j.get("prediction")? {
        traffic_obs::json::Json::Arr(vals) => {
            vals.iter().map(|v| v.as_f64().map(|x| x as f32)).collect()
        }
        _ => None,
    }
}

/// One blocking `/predict` (warm-up only).
fn http_predict(addr: &str, w: &Window) -> Option<(u16, String)> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.write_all(&post("/predict", &w.body())).ok()?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).ok()?;
    parse_response(&raw)
}

/// What a request was for.
#[derive(Clone, Copy)]
enum Kind {
    /// Open-loop `/predict` number `i` of the phase.
    Predict(usize),
    /// `/reload` number `k`.
    Reload(usize),
    /// The probe `/predict` sent when reload `k` was acknowledged.
    Probe(usize),
}

struct Conn {
    kind: Kind,
    stream: TcpStream,
    out: Vec<u8>,
    written: usize,
    raw: Vec<u8>,
    due: Instant,
}

/// A finished request.
struct Reply {
    kind: Kind,
    /// From when it was due to when its answer was read, in ms.
    latency_ms: f64,
    code: u16,
    body: String,
}

/// One open-loop phase's outcome.
#[derive(Default)]
pub struct PhaseStats {
    /// Latencies of the open-loop predicts, ms.
    pub latency_ms: Vec<f64>,
    /// How late each open-loop request was sent, ms.
    pub late_ms: Vec<f64>,
    /// Reload round trips, ms.
    pub reload_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Sampled open-loop answers: (request index, prediction).
    pub sampled: Vec<(usize, Vec<f32>)>,
    /// Probe answers after each reload: (reload index, prediction).
    pub probes: Vec<(usize, Vec<f32>)>,
}

/// Send offsets of `n` open-loop requests: Poisson arrivals at `rps`
/// (exponential gaps), drawn from `seed`. Random gaps keep the arrivals
/// from locking in step with any periodic loop in the server.
pub fn arrivals(seed: u64, n: usize, rps: f64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let gap = -(1.0 - rng.gen::<f64>()).ln() / rps;
            t += gap;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// Sends `windows` as open-loop `/predict` requests at the offsets `due`, optionally
/// with `RELOADS` reloads alternating between the two snapshot paths.
/// Reload `k` is due at `(k + 1) / (RELOADS + 1)` of the phase; it is
/// sent once the previous reload's probe has been answered, and its
/// probe `/predict` goes out as soon as it is acknowledged.
fn open_loop(
    addr: &str,
    windows: &[Window],
    due: &[Duration],
    reload: Option<(&[PathBuf; 2], &Window)>,
) -> PhaseStats {
    let start = Instant::now() + Duration::from_millis(5);
    let span = *due.last().expect("a non-empty phase");
    let sample_every = windows.len() / SAMPLED;
    let mut st = PhaseStats::default();
    let mut conns: Vec<Conn> = Vec::new();
    let mut next = 0usize;
    let mut next_reload = 0usize;
    let mut reload_busy = false;
    let open = |kind: Kind, out: Vec<u8>, due: Instant, st: &mut PhaseStats| -> Option<Conn> {
        st.attempted += 1;
        let stream = TcpStream::connect(addr).ok()?;
        stream.set_nonblocking(true).ok()?;
        let _ = stream.set_nodelay(true);
        Some(Conn { kind, stream, out, written: 0, raw: Vec::new(), due })
    };
    loop {
        let now = Instant::now();
        let mut progressed = false;
        // Send every open-loop request that is due.
        while next < windows.len() && start + due[next] <= now {
            let due = start + due[next];
            st.late_ms.push(1e3 * (now - due).as_secs_f64());
            match open(Kind::Predict(next), post("/predict", &windows[next].body()), due, &mut st) {
                Some(c) => conns.push(c),
                None => st.failed += 1,
            }
            next += 1;
            progressed = true;
        }
        if let Some((paths, _)) = reload {
            let reload_due = start + span.mul_f64((next_reload + 1) as f64 / (RELOADS + 1) as f64);
            if next_reload < RELOADS && !reload_busy && reload_due <= now {
                let path = paths[(next_reload + 1) % 2].display().to_string();
                let body = format!("{{\"path\":\"{path}\"}}");
                match open(Kind::Reload(next_reload), post("/reload", &body), now, &mut st) {
                    Some(c) => {
                        conns.push(c);
                        reload_busy = true;
                    }
                    None => st.failed += 1,
                }
                next_reload += 1;
                progressed = true;
            }
        }
        // Drive every connection; collect finished ones.
        let mut done: Vec<Reply> = Vec::new();
        conns.retain_mut(|c| match drive(c) {
            Drive::Pending(p) => {
                progressed |= p;
                true
            }
            Drive::Done(Some((code, body))) => {
                progressed = true;
                let latency_ms = 1e3 * c.due.elapsed().as_secs_f64();
                done.push(Reply { kind: c.kind, latency_ms, code, body });
                false
            }
            Drive::Done(None) => {
                progressed = true;
                st.failed += 1;
                false
            }
        });
        for r in done {
            match r.kind {
                Kind::Predict(i) => {
                    st.latency_ms.push(r.latency_ms);
                    let ok = r.code == 200 && r.body.starts_with("{\"status\":\"OK\"");
                    st.failed += u64::from(!ok);
                    if ok && i % sample_every == 0 {
                        st.sampled.push((i, prediction(&r.body).unwrap_or_default()));
                    }
                }
                Kind::Reload(k) => {
                    st.reload_ms.push(r.latency_ms);
                    if r.code != 200 {
                        st.failed += 1;
                        reload_busy = false;
                        continue;
                    }
                    let probe = reload.expect("reload phase").1;
                    match open(
                        Kind::Probe(k),
                        post("/predict", &probe.body()),
                        Instant::now(),
                        &mut st,
                    ) {
                        Some(c) => conns.push(c),
                        None => {
                            st.failed += 1;
                            reload_busy = false;
                        }
                    }
                }
                Kind::Probe(k) => {
                    reload_busy = false;
                    let ok = r.code == 200 && r.body.starts_with("{\"status\":\"OK\"");
                    st.failed += u64::from(!ok);
                    if ok {
                        st.probes.push((k, prediction(&r.body).unwrap_or_default()));
                    }
                }
            }
        }
        let reloads_left = reload.is_some() && (next_reload < RELOADS || reload_busy);
        if next >= windows.len() && conns.is_empty() && !reloads_left {
            break;
        }
        if start.elapsed() > span + PHASE_LIMIT {
            st.failed += conns.len() as u64;
            break;
        }
        if !progressed {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    st
}

enum Drive {
    /// Still open; `true` when bytes moved.
    Pending(bool),
    /// Closed by the server: the parsed response, or `None` on an error.
    Done(Option<(u16, String)>),
}

fn drive(c: &mut Conn) -> Drive {
    let mut moved = false;
    while c.written < c.out.len() {
        match c.stream.write(&c.out[c.written..]) {
            Ok(0) => return Drive::Done(None),
            Ok(n) => {
                c.written += n;
                moved = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Drive::Pending(moved),
            Err(_) => return Drive::Done(None),
        }
    }
    let mut buf = [0u8; 16 * 1024];
    loop {
        match c.stream.read(&mut buf) {
            Ok(0) => return Drive::Done(parse_response(&c.raw)),
            Ok(n) => {
                c.raw.extend_from_slice(&buf[..n]);
                moved = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Drive::Pending(moved),
            Err(_) => return Drive::Done(None),
        }
    }
}

// ---------------------------------------------------------------------
// Rounds
// ---------------------------------------------------------------------

/// Everything one round measured.
#[derive(Default)]
pub struct RoundStats {
    pub high: PhaseStats,
    pub bursts: Vec<Burst>,
    pub reload: PhaseStats,
}

impl RoundStats {
    pub fn attempted(&self) -> u64 {
        self.high.attempted + self.reload.attempted + (BURSTS * BURST) as u64
    }

    pub fn failed(&self) -> u64 {
        self.high.failed + self.reload.failed + self.bursts.iter().map(|b| b.failed).sum::<u64>()
    }
}

/// One in-process burst.
pub struct Burst {
    /// Requests answered per second.
    pub qps: f64,
    /// Median time from submission to answer, ms.
    pub p50_ms: f64,
    pub failed: u64,
}

/// Submits `BURST` requests at once and waits for every answer. The
/// answers come back in submission order, so each is timed as it is
/// received.
fn burst(s: &Setup) -> Burst {
    let t = Instant::now();
    let pending: Vec<_> = s.burst.iter().map(|w| s.engine.submit(w.request())).collect();
    let (mut failed, mut latency_ms) = (0, Vec::with_capacity(BURST));
    for rx in pending {
        failed += u64::from(!matches!(rx.recv(), Ok(ServeResponse::Ok(_))));
        latency_ms.push(1e3 * secs(t));
    }
    Burst { qps: BURST as f64 / secs(t), p50_ms: median(&latency_ms), failed }
}

/// Open-loop requests through `Engine::submit` at the offsets `due`,
/// from this one thread: the serving path without HTTP.
fn engine_open_loop(engine: &Engine, windows: &[Window], due: &[Duration]) -> PhaseStats {
    let start = Instant::now() + Duration::from_millis(5);
    let mut st = PhaseStats::default();
    let mut pending = Vec::new();
    let mut next = 0;
    while next < windows.len() || !pending.is_empty() {
        let now = Instant::now();
        let mut progressed = false;
        while next < windows.len() && start + due[next] <= now {
            st.late_ms.push(1e3 * (now - (start + due[next])).as_secs_f64());
            pending.push((start + due[next], engine.submit(windows[next].request())));
            st.attempted += 1;
            next += 1;
            progressed = true;
        }
        pending.retain(|(due, rx)| match rx.try_recv() {
            Ok(resp) => {
                st.latency_ms.push(1e3 * due.elapsed().as_secs_f64());
                st.failed += u64::from(!matches!(resp, ServeResponse::Ok(_)));
                progressed = true;
                false
            }
            Err(std::sync::mpsc::TryRecvError::Empty) => true,
            Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                st.failed += 1;
                progressed = true;
                false
            }
        });
        if !progressed {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    st
}

/// The low-rate phase over HTTP.
pub fn http_low(s: &Setup) -> PhaseStats {
    open_loop(&s.addr, &s.phase_windows[0], &s.phase_due[0], None)
}

/// The low-rate phase through `Engine::submit`.
pub fn engine_low(s: &Setup) -> PhaseStats {
    engine_open_loop(&s.engine, &s.phase_windows[0], &s.phase_due[0])
}

pub fn round(s: &Setup) -> RoundStats {
    let high = open_loop(&s.addr, &s.phase_windows[1], &s.phase_due[1], None);
    let mut bursts = Vec::new();
    for _ in 0..BURSTS {
        bursts.push(burst(s));
    }
    let reload =
        open_loop(&s.addr, &s.phase_windows[2], &s.phase_due[2], Some((&s.snapshots, &s.probe)));
    RoundStats { high, bursts, reload }
}

/// Normalises windows into a `[B, t_in, n, 2]` input the way a serving
/// engine must: z-scored values plus an advancing time-of-day channel.
pub fn pack(snap: &ServeSnapshot, windows: &[&Window]) -> Tensor {
    let steps = traffic_models::STEPS_PER_DAY as f32;
    let mut x = Vec::with_capacity(windows.len() * T_IN * NODES * 2);
    for w in windows {
        for t in 0..T_IN {
            let tod = (w.tod + t as f32 / steps).fract();
            for i in 0..NODES {
                x.push((w.values[t * NODES + i] - snap.mean) / snap.std);
                x.push(tod);
            }
        }
    }
    Tensor::from_vec(x, &[windows.len(), T_IN, NODES, 2])
}

/// The raw-scale answer of `model` for `w`, computed in this process.
pub fn local_answer(model: &LoadedModel, w: &Window) -> Vec<f32> {
    let out = model.forward_batch(&mut Tape::new(), pack(&model.snap, &[w]));
    assert_eq!(out.shape(), [1, T_OUT, NODES], "forward output shape");
    out.as_slice().iter().map(|z| z * model.snap.std + model.snap.mean).collect()
}

/// Loads a saved snapshot into a model of this process.
pub fn load(path: &Path) -> LoadedModel {
    let bytes = std::fs::read(path).expect("read a snapshot");
    ServeSnapshot::decode(&bytes).and_then(ServeSnapshot::instantiate).expect("load a snapshot")
}

/// Sampled HTTP answers equal `Engine::predict`, and every probe after a
/// reload is answered by the snapshot just loaded.
/// Sampled HTTP answers of a phase equal `Engine::predict` for the same
/// windows.
pub fn check_sampled(out: &mut Outcome, s: &Setup, phase: &str, st: &PhaseStats, wins: &[Window]) {
    if st.sampled.len() != SAMPLED {
        out.check(Err(format!(
            "{phase}: {} sampled answers, expected {SAMPLED}",
            st.sampled.len()
        )));
    }
    for (i, got) in &st.sampled {
        let want = match s.engine.predict(wins[*i].request()) {
            ServeResponse::Ok(p) => p,
            other => {
                out.check(Err(format!("{phase}: Engine::predict answered {}", other.status())));
                continue;
            }
        };
        out.check(checks::close(&format!("{phase} HTTP answer {i}"), got, &want, ANSWER_TOL));
    }
}

/// Sampled HTTP answers equal `Engine::predict`, and every probe after a
/// reload is answered by the snapshot just loaded.
pub fn check_round(out: &mut Outcome, s: &Setup, r: &RoundStats) {
    check_sampled(out, s, "high", &r.high, &s.phase_windows[1]);
    if r.reload.probes.len() != RELOADS {
        out.check(Err(format!(
            "reload: {} probe answers, expected {RELOADS}",
            r.reload.probes.len()
        )));
    }
    let models = [load(&s.snapshots[0]), load(&s.snapshots[1])];
    let answers = [local_answer(&models[0], &s.probe), local_answer(&models[1], &s.probe)];
    for (k, got) in &r.reload.probes {
        let new = (k + 1) % 2;
        let what = checks::answered_by_new(got, &answers[new], &answers[1 - new], ANSWER_TOL);
        out.check(what.map_err(|e| format!("reload {k}: {e}")));
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let s = setup(opts.seed);
    out.metrics.set("setup_s", secs(opts.start), "s");
    eprintln!("serve: setup {:.2}s", secs(opts.start));
    let (mut qps, mut p50_ms) = (Vec::new(), Vec::new());
    let mut last = RoundStats::default();
    let n = rounds(opts.seconds, || {
        let r = round(&s);
        out.attempted += r.attempted();
        out.failed += r.failed();
        qps.extend(r.bursts.iter().map(|b| b.qps));
        p50_ms.extend(r.bursts.iter().map(|b| b.p50_ms));
        last = r;
    });
    eprintln!(
        "serve: {n} round(s); burst {qps:.1?} req/s, high p95 {:.1} ms, reload p95 {:.1} ms, reload {:.0} ms",
        percentile(&last.high.latency_ms, 0.95),
        percentile(&last.reload.latency_ms, 0.95),
        median(&last.reload.reload_ms)
    );
    out.metrics.set("throughput_per_s", median(&qps), "1/s");
    out.metrics.set("latency_ms", median(&p50_ms), "ms");
    check_round(&mut out, &s, &last);
    out
}
