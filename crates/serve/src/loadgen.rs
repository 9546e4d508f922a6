//! Closed-loop HTTP load generator for the serving benchmark and chaos
//! smoke.
//!
//! Deterministic where it matters: request payloads are synthesised
//! from `(seed, client, request)` alone — a diurnal sinusoid plus a
//! per-node offset, the same speed field the simulator produces — so
//! two loadgen runs against the same server issue byte-identical
//! request bodies. Pacing is closed-loop: each client blocks on its
//! reply, then sleeps what is left of its send interval. A server
//! slower than the interval therefore lowers the offered rate instead
//! of building a queue. Latency is timed from the actual send, not from
//! when the request was due, so a stall pushes back the client's later
//! sends without counting that delay in their latencies. For open-loop
//! load (every request timed from its due instant) use the benchmark's
//! own generator in `perfbench/src/serve.rs`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Load shape.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Requests each client sends.
    pub requests_per_client: usize,
    /// Least gap between sends per client (`clients / interval` is the
    /// offered QPS while the server answers within the interval).
    pub interval: Duration,
    /// Per-request deadline to declare, if any.
    pub deadline_ms: Option<u64>,
    /// Sensors (window width is `t_in * n`).
    pub n: usize,
    /// Window length.
    pub t_in: usize,
    /// Payload seed.
    pub seed: u64,
}

/// Tallies + latency reservoir from one loadgen run.
#[derive(Debug, Default, Clone)]
pub struct LoadStats {
    /// Requests sent.
    pub sent: u64,
    /// `OK` responses.
    pub ok: u64,
    /// `DEGRADED` responses (fallback served).
    pub degraded: u64,
    /// `SHED` responses.
    pub shed: u64,
    /// `TIMEOUT` responses.
    pub timeout: u64,
    /// Transport / malformed-response failures.
    pub errors: u64,
    /// Per-request wall latency, nanoseconds (unsorted).
    pub latencies_ns: Vec<u64>,
    /// Wall time of the whole run.
    pub wall: Duration,
}

impl LoadStats {
    fn absorb(&mut self, other: LoadStats) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.degraded += other.degraded;
        self.shed += other.shed;
        self.timeout += other.timeout;
        self.errors += other.errors;
        self.latencies_ns.extend(other.latencies_ns);
    }

    /// Latency percentile in seconds (`p` in `[0, 100]`); 0 when empty.
    pub fn percentile_secs(&self, p: f64) -> f64 {
        if self.latencies_ns.is_empty() {
            return 0.0;
        }
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)] as f64 * 1e-9
    }

    /// Mean latency in seconds.
    pub fn mean_secs(&self) -> f64 {
        if self.latencies_ns.is_empty() {
            return 0.0;
        }
        self.latencies_ns.iter().map(|&ns| ns as f64).sum::<f64>() / self.latencies_ns.len() as f64
            * 1e-9
    }

    /// Completed answers per wall second (all statuses — a `SHED` is a
    /// correct, fast answer, not a lost request).
    pub fn sustained_qps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        (self.sent - self.errors) as f64 / secs
    }
}

/// Deterministic synthetic window: diurnal speed sinusoid + per-node
/// offset + a small seed/client/request-dependent ripple.
pub fn synth_window(n: usize, t_in: usize, seed: u64, client: u64, req: u64) -> (Vec<f32>, f32) {
    let base_step = (seed.wrapping_mul(97).wrapping_add(client.wrapping_mul(13)).wrapping_add(req))
        % traffic_models::STEPS_PER_DAY as u64;
    let steps = traffic_models::STEPS_PER_DAY as f32;
    let mut window = Vec::with_capacity(t_in * n);
    for t in 0..t_in {
        let day_frac = ((base_step + t as u64) as f32 / steps).fract();
        let diurnal = 55.0 + 10.0 * (2.0 * std::f32::consts::PI * day_frac).sin();
        for i in 0..n {
            let node = 2.0 * (i as f32 % 5.0 - 2.0);
            let ripple = 0.3 * (((client + 3 * req) % 7) as f32 - 3.0);
            window.push(diurnal + node + ripple);
        }
    }
    (window, base_step as f32 / steps)
}

/// One HTTP predict round-trip. Returns `(http_status, serve_status)` —
/// e.g. `(200, "OK")`, `(503, "SHED")`.
pub fn predict_once(
    addr: &str,
    window: &[f32],
    tod: f32,
    deadline_ms: Option<u64>,
) -> std::io::Result<(u16, String)> {
    let mut body = String::with_capacity(16 + window.len() * 8);
    body.push_str("{\"window\":[");
    for (i, v) in window.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!("{v}"));
    }
    body.push_str(&format!("],\"tod\":{tod}"));
    if let Some(ms) = deadline_ms {
        body.push_str(&format!(",\"deadline_ms\":{ms}"));
    }
    body.push('}');
    let resp = http_post(addr, "/predict", &body)?;
    let status = parse_status_field(&resp.1)
        .ok_or_else(|| std::io::Error::other(format!("no status in body: {}", resp.1)))?;
    Ok((resp.0, status))
}

/// Plain POST; returns `(http_status, body)`.
pub fn http_post(addr: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    read_response(&mut stream)
}

/// Plain GET; returns `(http_status, body)`.
pub fn http_get(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")?;
    read_response(&mut stream)
}

fn read_response(stream: &mut TcpStream) -> std::io::Result<(u16, String)> {
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("malformed HTTP response"))?;
    let code: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| std::io::Error::other("malformed status line"))?;
    Ok((code, body.to_string()))
}

fn parse_status_field(body: &str) -> Option<String> {
    traffic_obs::json::parse(body)
        .ok()?
        .get("status")
        .and_then(traffic_obs::json::Json::as_str)
        .map(str::to_string)
}

/// Runs the configured load and tallies outcomes. Latency is measured
/// around the whole HTTP round-trip (connect + serve + read), the
/// number a client actually experiences.
pub fn run(cfg: &LoadgenConfig) -> LoadStats {
    let start = Instant::now();
    let workers: Vec<_> = (0..cfg.clients)
        .map(|c| {
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let mut stats = LoadStats::default();
                for r in 0..cfg.requests_per_client {
                    let (window, tod) = synth_window(cfg.n, cfg.t_in, cfg.seed, c as u64, r as u64);
                    let t0 = Instant::now();
                    stats.sent += 1;
                    match predict_once(&cfg.addr, &window, tod, cfg.deadline_ms) {
                        Ok((_, status)) => {
                            stats.latencies_ns.push(t0.elapsed().as_nanos() as u64);
                            match status.as_str() {
                                "OK" => stats.ok += 1,
                                "DEGRADED" => stats.degraded += 1,
                                "SHED" => stats.shed += 1,
                                "TIMEOUT" => stats.timeout += 1,
                                _ => stats.errors += 1,
                            }
                        }
                        Err(_) => stats.errors += 1,
                    }
                    // Closed loop: the reply is in; sleep what is left
                    // of the interval.
                    let spent = t0.elapsed();
                    if spent < cfg.interval {
                        std::thread::sleep(cfg.interval - spent);
                    }
                }
                stats
            })
        })
        .collect();
    let mut total = LoadStats::default();
    for w in workers {
        if let Ok(stats) = w.join() {
            total.absorb(stats);
        }
    }
    total.wall = start.elapsed();
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_windows_are_deterministic_and_bounded() {
        let (a, tod_a) = synth_window(6, 12, 9, 2, 5);
        let (b, tod_b) = synth_window(6, 12, 9, 2, 5);
        assert_eq!(a, b);
        assert_eq!(tod_a, tod_b);
        assert!((0.0..1.0).contains(&tod_a));
        assert!(a.iter().all(|v| (30.0..90.0).contains(v)), "plausible speed range");
        let (c, _) = synth_window(6, 12, 9, 2, 6);
        assert_ne!(a, c, "different requests get different windows");
    }

    #[test]
    fn percentiles_order_correctly() {
        let stats = LoadStats {
            latencies_ns: (1..=100).map(|i| i * 1_000_000).collect(),
            sent: 100,
            ..Default::default()
        };
        assert!(stats.percentile_secs(50.0) <= stats.percentile_secs(99.0));
        assert!(stats.percentile_secs(99.0) <= stats.percentile_secs(99.9));
        assert!((stats.percentile_secs(100.0) - 0.1).abs() < 1e-9);
        assert!(stats.mean_secs() > 0.0);
    }
}
