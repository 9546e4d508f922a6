//! # traffic-serve
//!
//! Robust warm-model inference serving for the traffic predictors:
//! the layer that turns the paper's Table III inference-time findings
//! into production findings with SLO numbers under load and failure.
//!
//! Zero runtime dependencies beyond the workspace: std TCP for HTTP,
//! the `TNN2` container for weights, the tensor worker pool for
//! parallel kernels inside each batched forward.
//!
//! ## Robustness by construction
//!
//! - **Every request gets a deadline** — [`queue::DeadlineQueue`]
//!   answers `TIMEOUT` without compute once it passes, whether at
//!   admission or while queued.
//! - **Every overload sheds predictably** — a high-water mark bounds
//!   the queue; past it, requests get an instant `SHED`, never
//!   unbounded memory.
//! - **A bad checkpoint can never take down a healthy server** —
//!   [`snapshot`] hot reload is validate-then-swap: CRC-checked read,
//!   strict weight application, canary smoke-forward; any failure
//!   keeps the last-good model serving.
//! - **A bad model degrades, it doesn't crash** — [`Breaker`] trips to
//!   `DEGRADED` on consecutive panics/non-finite outputs and serves a
//!   persistence-baseline fallback until a probe forward succeeds.
//!
//! The degradation ladder, end to end:
//!
//! ```text
//! HEALTHY ──(breaker trips)──▶ DEGRADED ──(probe succeeds)──▶ HEALTHY
//!    │                            │
//!    └──(queue > high water)── SHED at admission (either state)
//! ```

#![warn(missing_docs)]

pub mod breaker;
pub mod engine;
pub mod http;
pub mod loadgen;
pub mod queue;
pub mod snapshot;

pub use breaker::Breaker;
pub use engine::{Engine, EngineConfig, EngineStatus, Processor};
pub use http::HttpServer;
pub use queue::{Admission, DeadlineQueue, Job, ServeRequest, ServeResponse};
pub use snapshot::{load_file, load_file_with_retry, LoadedModel, ServeSnapshot};

use rand::rngs::StdRng;
use rand::SeedableRng;
use traffic_graph::freeway_corridor;
use traffic_models::{build_model, GraphContext};

/// Builds a fresh (untrained) serving snapshot for a simulated corridor
/// — the serving analogue of the experiment defaults (`se_dim=8`,
/// `t_in=t_out=12`, z-scale ≈ simulated speeds). Real deployments
/// export from a trained run; smokes and benches start here so they
/// need no dataset on disk.
pub fn export_fresh(model: &str, nodes: usize, seed: u64) -> ServeSnapshot {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = freeway_corridor(nodes, 1.0, &mut rng);
    let ctx = GraphContext::from_network(&net, 8);
    let m = build_model(model, &ctx, &mut rng);
    ServeSnapshot::capture(m.as_ref(), &ctx.adjacency, 8, 12, 12, 55.0, 12.0, seed)
}

/// Shared test helpers.
#[cfg(test)]
pub(crate) mod test_util {
    /// Fault state (`traffic_obs::faults`) is process-global: every unit
    /// test in this crate that arms a fault **or reaches a fault site**
    /// holds this one lock for its whole duration, so no test's calls
    /// advance another test's armed plan.
    pub(crate) fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}
