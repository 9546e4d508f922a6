//! Integration tests exercising the public telemetry surface the way
//! the pipeline uses it: spans + metrics + a Run writing a JSONL
//! manifest, then the manifest parsed back with the bundled JSON
//! parser.
//!
//! Sinks and the metrics registry are process-global, so tests that
//! install sinks, reset metrics or finish spans (a span finished while
//! a sink is installed lands in that run's manifest) serialize on
//! `GLOBAL`.

use std::sync::Mutex;
use std::time::Duration;

use traffic_obs as obs;
use traffic_obs::span;

static GLOBAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    // A panicking test must not wedge the others.
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn jsonl_manifest_round_trip() {
    let _g = lock();
    let dir = std::env::temp_dir().join("traffic_obs_itest_manifest");
    let manifest = {
        let run = obs::Run::named("itest").jsonl(&dir).start().expect("start run");
        obs::counter("itest.batches").add(12);
        obs::histogram("itest.epoch_s").record(0.25);
        for epoch in 0..3u64 {
            let guard = span!("train/epoch", model = "STGCN", epoch = epoch);
            obs::emit(
                &obs::Event::new("epoch")
                    .with("model", "STGCN")
                    .with("epoch", epoch)
                    .with("loss", 1.0 / (epoch + 1) as f64)
                    .with("epoch_s", guard.finish()),
            );
        }
        run.manifest_path().expect("jsonl sink requested").to_path_buf()
    }; // <- run drops: summary + run_end + flush

    let content = std::fs::read_to_string(&manifest).expect("manifest readable");
    let lines: Vec<obs::json::Json> =
        content.lines().map(|l| obs::json::parse(l).expect("valid JSON line")).collect();

    let kind = |j: &obs::json::Json| j.get("type").and_then(|v| v.as_str()).unwrap().to_string();
    assert_eq!(kind(&lines[0]), "run_start");
    assert_eq!(kind(lines.last().unwrap()), "run_end");
    assert!(lines.last().unwrap().get("wall_s").and_then(|v| v.as_f64()).unwrap() >= 0.0);

    // one event per epoch, in order, with the loss fields intact
    let epochs: Vec<&obs::json::Json> = lines.iter().filter(|j| kind(j) == "epoch").collect();
    assert_eq!(epochs.len(), 3);
    for (i, e) in epochs.iter().enumerate() {
        assert_eq!(e.get("epoch").and_then(|v| v.as_f64()).unwrap() as usize, i);
        assert_eq!(e.get("model").and_then(|v| v.as_str()).unwrap(), "STGCN");
        assert!(e.get("loss").and_then(|v| v.as_f64()).unwrap() > 0.0);
    }

    // spans are mirrored into the manifest while a sink is installed
    let spans: Vec<&obs::json::Json> = lines.iter().filter(|j| kind(j) == "span").collect();
    assert!(spans.iter().any(|s| {
        s.get("name").and_then(|v| v.as_str()) == Some("train/epoch")
            && s.get("dur_s").and_then(|v| v.as_f64()).is_some()
    }));

    // the run summary carries every registered metric
    let metrics: Vec<&obs::json::Json> = lines.iter().filter(|j| kind(j) == "metric").collect();
    let by_name = |n: &str| {
        metrics
            .iter()
            .find(|m| m.get("metric").and_then(|v| v.as_str()) == Some(n))
            .unwrap_or_else(|| panic!("metric {n} missing from summary"))
    };
    assert_eq!(by_name("itest.batches").get("value").and_then(|v| v.as_f64()).unwrap(), 12.0);
    let hist = by_name("itest.epoch_s");
    assert_eq!(hist.get("count").and_then(|v| v.as_f64()).unwrap(), 1.0);
    assert!(hist.get("p50").and_then(|v| v.as_f64()).is_some());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn histogram_quantiles_on_known_distribution() {
    let _g = lock();
    let h = obs::histogram("itest.quantiles");
    h.reset();
    // 1..=1000 ms, uniformly — exact quantiles are q * 1.0s
    for i in 1..=1000 {
        h.record(i as f64 * 1e-3);
    }
    assert_eq!(h.count(), 1000);
    for (q, expect) in [(0.5, 0.5), (0.9, 0.9), (0.99, 0.99)] {
        let got = h.quantile(q);
        let rel = (got - expect).abs() / expect;
        assert!(rel < 0.10, "p{}: got {got}, expected {expect}", (q * 100.0) as u32);
    }
}

#[test]
fn concurrent_counter_updates() {
    let _g = lock();
    let c = obs::counter("itest.concurrent");
    c.reset();
    let threads: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(|| {
                let c = obs::counter("itest.concurrent");
                for _ in 0..10_000 {
                    c.inc();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(c.get(), 80_000);
}

#[test]
fn span_nesting_is_per_thread() {
    // Spans finished while another test's run has a sink installed are
    // mirrored into that run's manifest, so hold the lock too.
    let _g = lock();
    let marker = obs::span_marker();
    let outer = span!("itest_outer");
    let handle = std::thread::spawn(move || {
        // a fresh thread starts at depth 0 even while this test's outer
        // span is still open on the main test thread
        let g = span!("itest_thread");
        g.finish();
    });
    handle.join().unwrap();
    {
        let inner = span!("itest_inner");
        inner.finish();
    }
    outer.finish();

    let spans = obs::spans_since(marker);
    let find = |n: &str| spans.iter().find(|s| s.name == n).unwrap_or_else(|| panic!("{n}"));
    assert_eq!(find("itest_thread").depth, 0);
    assert_eq!(find("itest_thread").path, "itest_thread");
    assert_eq!(find("itest_inner").depth, 1);
    assert_eq!(find("itest_inner").path, "itest_outer/itest_inner");
    assert_ne!(find("itest_thread").thread, find("itest_inner").thread);
    // finish order: thread span and inner span both precede outer
    assert!(find("itest_inner").seq < find("itest_outer").seq);
}

#[test]
fn disabled_telemetry_is_cheap() {
    let _g = lock(); // sinks down while we probe
                     // With no sink installed, emit_with must not build the event.
    let mut built = false;
    if !obs::enabled() {
        obs::emit_with(|| {
            built = true;
            obs::Event::new("never")
        });
        assert!(!built, "emit_with built an Event with no sink installed");
    }
    // Span timing still works when disabled (Table III depends on it).
    let marker = obs::span_marker();
    let g = span!("itest_disabled");
    std::thread::sleep(Duration::from_millis(2));
    let d = g.finish();
    assert!(d >= Duration::from_millis(2));
    assert_eq!(obs::span_stats("itest_disabled", marker).count, 1);
}
