//! Minimal HTTP/1.1 front-end for the serving engine.
//!
//! Same zero-dependency construction as the telemetry server
//! ([`traffic_obs::live`]) — std `TcpListener`, blocking accept loop
//! woken on drop by [`traffic_obs::live::wake_accept`], thread per
//! connection — extended with `POST` + body parsing,
//! which the GET-only telemetry server never needed.
//!
//! | route | method | semantics |
//! |---|---|---|
//! | `/predict` | POST | `{"window":[…], "tod":f, "deadline_ms":n}` → prediction |
//! | `/reload`  | POST | optional `{"path":"…"}` → validate-then-swap |
//! | `/status`  | GET  | engine status JSON (degradation ladder state) |
//! | `/`        | GET  | route index |
//!
//! Status mapping: `OK`/`DEGRADED` → 200 (degradation is a successful
//! answer with provenance), `SHED` → 503 (retry elsewhere/later),
//! `TIMEOUT` → 504, malformed input → 400, `ERROR` → 500 (request
//! admitted under a geometry a hot reload then changed, or the serve
//! worker is down — terminal either way, the body says which). A
//! reload that is rejected answers 409 — the server is still healthy
//! on last-good weights.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use traffic_obs::event::push_json_str;
use traffic_obs::json::{self, Json};
use traffic_obs::{counter, elapsed_ns};

use crate::engine::{Engine, EngineStatus};
use crate::queue::{ServeRequest, ServeResponse};

/// Back-off after a failed `accept`, so a persistent error cannot spin
/// the accept thread.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// RAII HTTP server: dropping it stops the accept loop and joins every
/// connection thread. The engine it fronts is shared, not owned — the
/// same engine can serve HTTP and in-process callers at once.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

struct Ctx {
    engine: Arc<Engine>,
    stop: Arc<AtomicBool>,
    conns: Mutex<Vec<JoinHandle<()>>>,
}

impl HttpServer {
    /// Binds `addr` (port 0 picks a free port) and serves `engine`.
    pub fn start(addr: &str, engine: Arc<Engine>) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let ctx = Arc::new(Ctx { engine, stop: Arc::clone(&stop), conns: Mutex::new(Vec::new()) });
        // A spawn failure must fail start(): an HttpServer whose accept
        // thread never launched would look started but serve nothing.
        let accept = std::thread::Builder::new()
            .name("traffic-serve-http".into())
            .spawn(move || accept_loop(listener, ctx))?;
        Ok(HttpServer { addr, stop, accept: Some(accept) })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            // Not joined when the wake-up connection failed: the thread
            // is still parked in `accept` (see `wake_accept`).
            if traffic_obs::live::wake_accept(self.addr) {
                let _ = h.join();
            }
        }
    }
}

fn accept_loop(listener: TcpListener, ctx: Arc<Ctx>) {
    for conn in listener.incoming() {
        if ctx.stop.load(Ordering::Acquire) {
            break;
        }
        match conn {
            Ok(stream) => {
                counter("serve/http_requests").inc();
                let conn_ctx = Arc::clone(&ctx);
                let handle = std::thread::Builder::new()
                    .name("traffic-serve-conn".into())
                    .spawn(move || handle_conn(stream, &conn_ctx))
                    .ok();
                if let Some(h) = handle {
                    let mut conns = ctx.conns.lock().unwrap_or_else(|e| e.into_inner());
                    conns.retain(|c| !c.is_finished());
                    conns.push(h);
                }
            }
            Err(_) => std::thread::sleep(ACCEPT_RETRY),
        }
    }
    let handles = std::mem::take(&mut *ctx.conns.lock().unwrap_or_else(|e| e.into_inner()));
    for h in handles {
        let _ = h.join();
    }
}

/// One parsed request: method, path, body.
struct Request {
    method: String,
    path: String,
    body: String,
}

/// Reads head + `Content-Length` body. Bounded at 1 MiB so a hostile
/// client can't balloon memory; bounded by socket timeouts so a stalled
/// one can't pin the thread.
fn read_request(stream: &mut TcpStream) -> Option<Request> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if buf.len() > 64 * 1024 {
            return None;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return None,
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let mut first = head.lines().next()?.split_whitespace();
    let method = first.next()?.to_string();
    let path = first.next()?;
    let path = path.split('?').next().unwrap_or(path).to_string();
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length").then(|| v.trim().parse().ok())?
        })
        .unwrap_or(0);
    if content_length > 1024 * 1024 {
        return None;
    }
    let mut body = buf[head_end..].to_vec();
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(_) => return None,
        }
    }
    body.truncate(content_length);
    Some(Request { method, path, body: String::from_utf8_lossy(&body).to_string() })
}

fn respond(stream: &mut TcpStream, status: u16, body: &str) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

fn handle_conn(mut stream: TcpStream, ctx: &Ctx) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let Some(req) = read_request(&mut stream) else {
        return;
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/predict") => match parse_predict(&req.body, &ctx.engine.status()) {
            Ok(serve_req) => {
                let resp = ctx.engine.predict(serve_req);
                let (code, body) = render_response(&resp);
                respond(&mut stream, code, &body);
            }
            Err(msg) => respond(
                &mut stream,
                400,
                &format!("{{\"status\":\"ERROR\",\"error\":{}}}", json_str(&msg)),
            ),
        },
        ("POST", "/reload") => {
            let path: Option<PathBuf> = json::parse(&req.body)
                .ok()
                .and_then(|j| j.get("path").and_then(Json::as_str).map(PathBuf::from));
            match ctx.engine.reload(path.as_deref()) {
                Ok(()) => respond(&mut stream, 200, "{\"status\":\"ok\"}"),
                Err(e) => respond(
                    &mut stream,
                    409,
                    &format!(
                        "{{\"status\":\"REJECTED\",\"error\":{},\"serving\":\"last-good\"}}",
                        json_str(&e.to_string())
                    ),
                ),
            }
        }
        ("GET", "/status") => respond(&mut stream, 200, &status_json(&ctx.engine.status())),
        ("GET", "/") => respond(
            &mut stream,
            200,
            "{\"endpoints\":[\"POST /predict\",\"POST /reload\",\"GET /status\"]}",
        ),
        ("GET", _) | ("POST", _) => respond(&mut stream, 404, "{\"error\":\"not found\"}"),
        _ => respond(&mut stream, 405, "{\"error\":\"method not allowed\"}"),
    }
}

/// Parses + validates a predict body against the live model geometry.
fn parse_predict(body: &str, status: &EngineStatus) -> Result<ServeRequest, String> {
    let j = json::parse(body).map_err(|e| format!("invalid JSON: {e:?}"))?;
    let Some(Json::Arr(win)) = j.get("window") else {
        return Err("missing \"window\" array".into());
    };
    let expected = status.t_in * status.n;
    if win.len() != expected {
        return Err(format!(
            "window has {} values, model wants t_in*n = {}*{} = {expected}",
            win.len(),
            status.t_in,
            status.n
        ));
    }
    let mut window = Vec::with_capacity(expected);
    for v in win {
        match v.as_f64() {
            Some(x) if x.is_finite() => window.push(x as f32),
            _ => return Err("window values must be finite numbers".into()),
        }
    }
    let tod = j.get("tod").and_then(Json::as_f64).unwrap_or(0.0);
    if !(0.0..1.0).contains(&tod) {
        return Err("tod must be in [0, 1)".into());
    }
    let deadline_ns = match j.get("deadline_ms").and_then(Json::as_f64) {
        Some(ms) if ms >= 0.0 => elapsed_ns().saturating_add((ms * 1e6) as u64),
        Some(_) => return Err("deadline_ms must be >= 0".into()),
        None => u64::MAX,
    };
    Ok(ServeRequest { window, tod: tod as f32, deadline_ns })
}

fn render_response(resp: &ServeResponse) -> (u16, String) {
    match resp {
        ServeResponse::Ok(pred) => (200, pred_json("OK", pred)),
        ServeResponse::Degraded(pred) => (200, pred_json("DEGRADED", pred)),
        ServeResponse::Shed => (503, "{\"status\":\"SHED\"}".into()),
        ServeResponse::Timeout => (504, "{\"status\":\"TIMEOUT\"}".into()),
        ServeResponse::Error(msg) => {
            (500, format!("{{\"status\":\"ERROR\",\"error\":{}}}", json_str(msg)))
        }
    }
}

fn pred_json(status: &str, pred: &[f32]) -> String {
    let mut out = String::with_capacity(24 + pred.len() * 8);
    out.push_str("{\"status\":\"");
    out.push_str(status);
    out.push_str("\",\"prediction\":[");
    for (i, v) in pred.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if v.is_finite() {
            out.push_str(&format!("{v}"));
        } else {
            out.push_str("null");
        }
    }
    out.push_str("]}");
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_str(&mut out, s);
    out
}

/// Renders [`EngineStatus`] as the `/status` document.
pub fn status_json(s: &EngineStatus) -> String {
    format!(
        "{{\"state\":\"{}\",\"model\":{},\"params\":{},\"n\":{},\"t_in\":{},\"t_out\":{},\
         \"queue_depth\":{},\"high_water\":{},\"breaker_trips\":{},\"reloads\":{},\
         \"reload_failures\":{}}}",
        s.state,
        json_str(&s.model),
        s.params,
        s.n,
        s.t_in,
        s.t_out,
        s.queue_depth,
        s.high_water,
        s.breaker_trips,
        s.reloads,
        s.reload_failures
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_body_escapes_quote_backslash_and_control_chars() {
        let msg = "bad \"window\" at C:\\tmp\u{1}\n";
        let (code, body) = render_response(&ServeResponse::Error(msg.into()));
        assert_eq!(code, 500);
        assert_eq!(
            body,
            "{\"status\":\"ERROR\",\"error\":\"bad \\\"window\\\" at C:\\\\tmp\\u0001\\n\"}"
        );
        let parsed = json::parse(&body).expect("error body is valid JSON");
        assert_eq!(parsed.get("error").and_then(Json::as_str), Some(msg));
    }
}
