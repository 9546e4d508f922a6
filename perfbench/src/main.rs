//! End-to-end and per-layer benchmark of the traffic-suite workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table3-metr207|fig1-sweep-small|serve-gwn207> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the workload and prints its end-to-end metrics;
//! `--trace 1` runs the layer probe (see `layers.rs`) and prints the
//! per-layer metrics. Either way the last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`. Progress
//! goes to standard error. See README.md for what each workload does.

mod checks;
mod layers;
mod serve;
mod stats;
mod sweep;
mod table3;

use std::time::Instant;

use stats::Metrics;

/// What a workload or the layer probe hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations attempted (whole rounds only).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks that did not hold.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records a check result.
    pub fn check(&mut self, result: checks::Check) {
        if let Err(e) = result {
            eprintln!("perfbench: CHECK FAILED: {e}");
            self.problems.push(e);
        }
    }
}

/// Command-line options.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Process start, for the cold set-up time.
    pub start: Instant,
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["table3-metr207", "fig1-sweep-small", "serve-gwn207"];

fn parse_args(start: Instant) -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (valid: {WORKLOADS:?})"));
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        start,
    })
}

fn main() {
    let start = Instant::now();
    let opts = match parse_args(start) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = if opts.trace {
        layers::run(&opts)
    } else {
        let mut out = match opts.workload.as_str() {
            "table3-metr207" => table3::run(&opts),
            "fig1-sweep-small" => sweep::run(&opts),
            _ => serve::run(&opts),
        };
        out.metrics.set("peak_rss_mb", stats::peak_rss_mb(), "MB");
        out
    };
    if out.attempted == 0 {
        out.problems.push("no operation was attempted".into());
    }
    let correct = out.problems.is_empty();
    println!("{}", out.metrics.result_line(correct, out.attempted, out.failed));
}
