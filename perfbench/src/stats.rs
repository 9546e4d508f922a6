//! Order statistics, process memory, and the metric table a run prints.

use std::collections::BTreeMap;
use std::time::Instant;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by the nearest-rank rule:
/// the smallest value with at least `q·n` samples at or below it. With
/// 200 samples, `q = 0.95` leaves ten samples above the answer.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// The median (nearest-rank 0.5-quantile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median seconds per call of `f` over `reps` calls, after one untimed
/// call that lets buffers and caches settle.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            secs(t)
        })
        .collect();
    median(&samples)
}

/// Runs `round` until the next one would end more than `seconds` after
/// the first began (at least once), so every run measures whole rounds.
pub fn rounds(seconds: f64, mut round: impl FnMut()) -> usize {
    let from = Instant::now();
    let mut n = 0;
    loop {
        let t = Instant::now();
        round();
        n += 1;
        if secs(from) + secs(t) > seconds {
            return n;
        }
    }
}

/// Named metrics with units, printed in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    /// A non-finite value is printed as `null` so the line stays JSON.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, (v, unit))| {
                let value = if v.is_finite() { format!("{v}") } else { "null".to_string() };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_over_a_known_sample() {
        // 1..=200: p95 by nearest rank is the 190th value, ten above it.
        let xs: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), 190.0);
        assert_eq!(median(&xs), 100.0);
        assert_eq!(percentile(&xs, 1.0), 200.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn result_line_is_json() {
        let mut m = Metrics::default();
        m.set("b", 2.5, "ms");
        m.set("a", f64::NAN, "s");
        let line = m.result_line(true, 3, 0);
        let j = traffic_obs::json::parse(&line).expect("valid JSON");
        assert_eq!(j.get("attempted").and_then(|v| v.as_f64()), Some(3.0));
        let b = j.get("metrics").and_then(|m| m.get("b")).and_then(|b| b.get("value"));
        assert_eq!(b.and_then(|v| v.as_f64()), Some(2.5));
    }
}
