//! Serving snapshots: the self-contained `TNN2` container a server
//! loads warm weights from.
//!
//! A training checkpoint ([`traffic_core::resume::TrainState`]) carries
//! optimizer moments and RNG state the server never needs; a serving
//! snapshot instead carries everything needed to **rebuild and verify**
//! an inference-ready model with no dataset on disk:
//!
//! - `serve_meta` — schema version, model name, node count, window
//!   sizes, the z-score scaler fitted at training time, the spectral
//!   embedding width, and the builder seed;
//! - `adjacency` — the `[N, N]` weighted adjacency, from which every
//!   derived graph matrix ([`GraphContext`]) is recomputed
//!   deterministically;
//! - `weights` — `(name, tensor)` pairs in parameter-store order.
//!
//! ## Validate-then-swap
//!
//! Loading is split so a hot reload can stage everything before
//! touching the live model: [`load_file`] does I/O + CRC/structure
//! verification (any torn, truncated, or bit-flipped file is rejected
//! by the `TNN2` reader), and [`ServeSnapshot::instantiate`] rebuilds
//! the model, applies the weights with strict name/shape checking, and
//! **smoke-forwards a canary input**, rejecting any snapshot whose
//! model panics or produces non-finite outputs. Only a snapshot that
//! survives all three gates may replace the live model.
//!
//! ## Fault sites
//!
//! - `serve_io` — the snapshot read reports a transient I/O error
//!   (exercised by [`load_file_with_retry`]'s bounded backoff);
//! - `reload` — the decode reports corruption (validate-then-swap must
//!   keep the last-good model).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use traffic_models::{build_model, GraphContext, TrafficModel};
use traffic_nn::tnn2::{self, PayloadReader, PayloadWriter};
use traffic_nn::CheckpointError;
use traffic_obs::{counter, faults};
use traffic_tensor::{Tape, Tensor};

/// Version of the serving-snapshot schema inside the `TNN2` container.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Everything needed to rebuild an inference-ready model.
#[derive(Debug, Clone)]
pub struct ServeSnapshot {
    /// Model name ([`traffic_models::ALL_MODELS`] vocabulary).
    pub model: String,
    /// Number of sensors.
    pub n: usize,
    /// Spectral-embedding width used when the context was built.
    pub se_dim: usize,
    /// Input window length.
    pub t_in: usize,
    /// Output horizon.
    pub t_out: usize,
    /// Z-score mean fitted on the training split.
    pub mean: f32,
    /// Z-score std fitted on the training split.
    pub std: f32,
    /// Seed for the (immediately overwritten) builder init.
    pub seed: u64,
    /// Weighted adjacency `[N, N]`.
    pub adjacency: Tensor,
    /// `(name, value)` pairs in parameter-store order.
    pub weights: Vec<(String, Tensor)>,
}

/// A validated, inference-ready model. **Not `Send`** (parameters are
/// `Rc`-backed): it must be built and used on one thread — the serve
/// engine owns it on a dedicated worker thread.
pub struct LoadedModel {
    /// The snapshot this model was instantiated from.
    pub snap: ServeSnapshot,
    model: Box<dyn TrafficModel>,
}

impl LoadedModel {
    /// The model's parameter count (served in `/status`).
    pub fn num_params(&self) -> usize {
        self.model.num_params()
    }

    /// Batched no-tape-reuse forward: `x` is `[B, t_in, n, 2]`
    /// (normalised), returns `[B, t_out, n]` on the normalised scale.
    /// Runs under an inference guard so models take their eval
    /// shortcuts; the worker pool parallelises the kernels inside.
    pub fn forward_batch(&self, tape: &mut Tape, x: Tensor) -> Tensor {
        let _inf = traffic_tensor::inference::InferenceGuard::enter();
        tape.reset();
        let xv = tape.constant(x);
        self.model.forward(tape, xv, None).value()
    }
}

impl ServeSnapshot {
    /// Captures a snapshot from a live model + its graph material.
    #[allow(clippy::too_many_arguments)] // geometry + normalisation stats are one capture
    pub fn capture(
        model: &dyn TrafficModel,
        adjacency: &Tensor,
        se_dim: usize,
        t_in: usize,
        t_out: usize,
        mean: f32,
        std: f32,
        seed: u64,
    ) -> ServeSnapshot {
        ServeSnapshot {
            model: model.name().to_string(),
            n: adjacency.shape()[0],
            se_dim,
            t_in,
            t_out,
            mean,
            std,
            seed,
            adjacency: adjacency.clone(),
            weights: model
                .store()
                .params()
                .iter()
                .map(|p| (p.name().to_string(), p.value()))
                .collect(),
        }
    }

    /// Serialises into `TNN2` sections.
    pub fn encode(&self) -> Vec<u8> {
        let mut meta = PayloadWriter::new();
        meta.u32(SNAPSHOT_VERSION);
        meta.str(&self.model);
        meta.u64(self.n as u64);
        meta.u64(self.se_dim as u64);
        meta.u64(self.t_in as u64);
        meta.u64(self.t_out as u64);
        meta.f32(self.mean);
        meta.f32(self.std);
        meta.u64(self.seed);

        let mut adj = PayloadWriter::new();
        adj.tensor(&self.adjacency);

        let mut weights = PayloadWriter::new();
        weights.u32(self.weights.len() as u32);
        for (name, value) in &self.weights {
            weights.str(name);
            weights.tensor(value);
        }

        tnn2::encode(&[
            ("serve_meta", meta.into_bytes()),
            ("adjacency", adj.into_bytes()),
            ("weights", weights.into_bytes()),
        ])
    }

    /// Writes the snapshot atomically (temp sibling + fsync + rename).
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        tnn2::atomic_write(path, &self.encode())?;
        Ok(())
    }

    /// Parses a snapshot from verified `TNN2` bytes.
    pub fn decode(bytes: &[u8]) -> Result<ServeSnapshot, CheckpointError> {
        let sections = tnn2::decode(bytes)?;
        let find = |name: &str| -> Result<&[u8], CheckpointError> {
            sections
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, p)| p.as_slice())
                .ok_or_else(|| CheckpointError::Corrupt(format!("missing section {name:?}")))
        };

        let mut meta = PayloadReader::new(find("serve_meta")?);
        let version = meta.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(CheckpointError::Corrupt(format!(
                "unsupported serve-snapshot version {version} (reader supports {SNAPSHOT_VERSION})"
            )));
        }
        let model = meta.str()?;
        let n = meta.u64()? as usize;
        let se_dim = meta.u64()? as usize;
        let t_in = meta.u64()? as usize;
        let t_out = meta.u64()? as usize;
        let mean = meta.f32()?;
        let std = meta.f32()?;
        let seed = meta.u64()?;
        if n == 0 || t_in == 0 || t_out == 0 {
            return Err(CheckpointError::Corrupt("zero-sized serving geometry".into()));
        }
        // The canary forwards a raw synthetic input and never exercises
        // request normalization, so a degenerate scaler would pass every
        // other gate and then turn all real requests non-finite. Gate it
        // here: every served value goes through (x - mean) / std.
        if !mean.is_finite() || !std.is_finite() || std <= 0.0 {
            return Err(CheckpointError::Corrupt(format!(
                "degenerate z-score scaler (mean={mean}, std={std}): \
                 std must be finite and > 0, mean finite"
            )));
        }

        let mut adj = PayloadReader::new(find("adjacency")?);
        let adjacency = adj.tensor()?;
        if adjacency.shape() != [n, n] {
            return Err(CheckpointError::Corrupt(format!(
                "adjacency shape {:?} does not match n={n}",
                adjacency.shape()
            )));
        }

        let mut wsec = PayloadReader::new(find("weights")?);
        let count = wsec.u32()? as usize;
        let mut weights = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            let name = wsec.str()?;
            let value = wsec.tensor()?;
            weights.push((name, value));
        }

        Ok(ServeSnapshot { model, n, se_dim, t_in, t_out, mean, std, seed, adjacency, weights })
    }

    /// Rebuilds the model and verifies it end to end: derived graph
    /// matrices from the stored adjacency, strict name/shape weight
    /// application, and a canary smoke forward whose output must have
    /// the advertised shape and be entirely finite. Any failure —
    /// including a panic inside the model — is an error, never a crash.
    pub fn instantiate(self) -> Result<LoadedModel, CheckpointError> {
        let snap = self;
        let build = catch_unwind(AssertUnwindSafe(|| {
            let ctx = GraphContext::from_adjacency(snap.adjacency.clone(), snap.se_dim);
            let mut rng = StdRng::seed_from_u64(snap.seed);
            build_model(&snap.model, &ctx, &mut rng)
        }));
        let model = build.map_err(|_| {
            CheckpointError::Corrupt(format!("model {:?} panicked while building", snap.model))
        })?;

        // Strict weight application: count, order, and shapes must all
        // match before a single value is written.
        let store = model.store();
        if snap.weights.len() != store.len() {
            return Err(CheckpointError::Mismatch(format!(
                "snapshot has {} params, model {:?} has {}",
                snap.weights.len(),
                snap.model,
                store.len()
            )));
        }
        for ((name, value), p) in snap.weights.iter().zip(store.params()) {
            if name != p.name() {
                return Err(CheckpointError::Mismatch(format!(
                    "parameter order mismatch: snapshot {name} vs model {}",
                    p.name()
                )));
            }
            if value.shape() != p.shape() {
                return Err(CheckpointError::Mismatch(format!(
                    "{name}: snapshot shape {:?} vs model {:?}",
                    value.shape(),
                    p.shape()
                )));
            }
        }
        for ((_, value), p) in snap.weights.iter().zip(store.params()) {
            p.set_value(value.clone());
        }

        let loaded = LoadedModel { snap, model };
        loaded.canary()?;
        Ok(loaded)
    }
}

impl LoadedModel {
    /// Smoke-forwards a deterministic canary window; rejects panics,
    /// wrong output shapes, and non-finite outputs.
    fn canary(&self) -> Result<(), CheckpointError> {
        let (t_in, t_out, n) = (self.snap.t_in, self.snap.t_out, self.snap.n);
        let mut x = Tensor::zeros(&[1, t_in, n, 2]);
        let buf = x.make_mut();
        for t in 0..t_in {
            for i in 0..n {
                // Mid-scale values + advancing time-of-day channel.
                buf[(t * n + i) * 2] = 0.1 * (i as f32 % 7.0 - 3.0);
                buf[(t * n + i) * 2 + 1] = t as f32 / traffic_models::STEPS_PER_DAY as f32;
            }
        }
        let mut tape = Tape::new();
        let out = catch_unwind(AssertUnwindSafe(|| self.forward_batch(&mut tape, x)))
            .map_err(|_| CheckpointError::Corrupt("canary forward panicked".into()))?;
        if out.shape() != [1, t_out, n] {
            return Err(CheckpointError::Corrupt(format!(
                "canary output shape {:?}, expected [1, {t_out}, {n}]",
                out.shape()
            )));
        }
        if out.has_non_finite() {
            return Err(CheckpointError::Corrupt(
                "canary forward produced non-finite values".into(),
            ));
        }
        counter("serve/canary_ok").inc();
        Ok(())
    }
}

/// Reads the raw snapshot bytes. The `serve_io` fault site injects a
/// transient I/O error here.
fn read_bytes(path: &Path) -> Result<Vec<u8>, CheckpointError> {
    if faults::fire("serve_io").is_some() {
        return Err(CheckpointError::Io(std::io::Error::other(
            "injected snapshot I/O fault (serve_io)",
        )));
    }
    Ok(std::fs::read(path)?)
}

/// Reads + verifies + parses a snapshot file. The `reload` fault site
/// injects a corruption verdict after the read, exercising the
/// validate-then-swap path without touching the bytes on disk.
pub fn load_file(path: &Path) -> Result<ServeSnapshot, CheckpointError> {
    let bytes = read_bytes(path)?;
    if faults::fire("reload").is_some() {
        return Err(CheckpointError::Corrupt("injected reload corruption (reload)".into()));
    }
    ServeSnapshot::decode(&bytes)
}

/// [`load_file`] with bounded retry-with-backoff on **I/O** errors
/// (transient: NFS hiccups, the writer mid-rename). Corruption and
/// mismatches fail immediately — a bad file does not become good by
/// waiting. Retries are counted in `serve/reload_retries`.
pub fn load_file_with_retry(
    path: &Path,
    attempts: u32,
    backoff: Duration,
) -> Result<ServeSnapshot, CheckpointError> {
    let mut delay = backoff;
    for attempt in 1.. {
        match load_file(path) {
            Err(CheckpointError::Io(e)) if attempt < attempts => {
                counter("serve/reload_retries").inc();
                eprintln!(
                    "traffic-serve: snapshot read {} failed ({e}); retry {attempt}/{}",
                    path.display(),
                    attempts - 1
                );
                std::thread::sleep(delay);
                delay = delay.saturating_mul(2);
            }
            other => return other,
        }
    }
    unreachable!("retry loop returns on the last attempt")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export_fresh as tiny_snapshot;
    use crate::test_util::fault_lock;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("traffic_serve_{name}_{}", std::process::id()))
    }

    #[test]
    fn roundtrip_and_instantiate() {
        let _g = fault_lock();
        let snap = tiny_snapshot("STGCN", 6, 3);
        let path = tmp("roundtrip");
        snap.save(&path).unwrap();
        let back = load_file(&path).unwrap();
        assert_eq!(back.model, "STGCN");
        assert_eq!(back.n, 6);
        assert_eq!(back.weights.len(), snap.weights.len());
        for ((an, av), (bn, bv)) in snap.weights.iter().zip(&back.weights) {
            assert_eq!(an, bn);
            assert_eq!(av, bv, "{an} weight bits must survive the roundtrip");
        }
        let loaded = back.instantiate().unwrap();
        assert!(loaded.num_params() > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn decoded_adjacency_rebuilds_the_training_context_bytewise() {
        let mut rng = StdRng::seed_from_u64(9);
        let net = traffic_graph::freeway_corridor(7, 1.0, &mut rng);
        let trained = GraphContext::from_network(&net, 4);
        let model = build_model("GMAN", &trained, &mut rng);
        let snap =
            ServeSnapshot::capture(model.as_ref(), &trained.adjacency, 4, 12, 12, 55.0, 12.0, 9);
        let back = ServeSnapshot::decode(&snap.encode()).unwrap();
        let served = GraphContext::from_adjacency(back.adjacency, back.se_dim);
        let bits = |t: &Tensor| -> (Vec<usize>, Vec<u32>) {
            (t.shape().to_vec(), t.as_slice().iter().map(|v| v.to_bits()).collect())
        };
        assert_eq!(served.n, trained.n);
        assert_eq!(bits(&served.adjacency), bits(&trained.adjacency));
        assert_eq!(bits(&served.scaled_laplacian), bits(&trained.scaled_laplacian));
        assert_eq!(served.supports.len(), trained.supports.len());
        for (a, b) in served.supports.iter().zip(&trained.supports) {
            assert_eq!(bits(a), bits(b));
        }
        assert_eq!(bits(&served.row_norm_adj), bits(&trained.row_norm_adj));
        assert_eq!(bits(&served.node_embedding), bits(&trained.node_embedding));
    }

    #[test]
    fn truncated_and_bitflipped_files_are_rejected() {
        let snap = tiny_snapshot("STGCN", 5, 4);
        let bytes = snap.encode();
        for cut in [0, 3, 17, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                ServeSnapshot::decode(&bytes[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
        for flip in [8, bytes.len() / 3, bytes.len() - 5] {
            let mut bad = bytes.clone();
            bad[flip] ^= 0x10;
            assert!(ServeSnapshot::decode(&bad).is_err(), "bit flip at {flip} must be rejected");
        }
    }

    #[test]
    fn degenerate_scalers_are_rejected_at_decode() {
        for (mean, std) in [
            (55.0, 0.0),
            (55.0, -1.0),
            (55.0, f32::NAN),
            (f32::INFINITY, 12.0),
            (55.0, f32::INFINITY),
        ] {
            let mut snap = tiny_snapshot("STGCN", 5, 8);
            snap.mean = mean;
            snap.std = std;
            let bytes = snap.encode();
            match ServeSnapshot::decode(&bytes) {
                Err(CheckpointError::Corrupt(m)) => {
                    assert!(m.contains("scaler"), "mean={mean} std={std}: {m}")
                }
                other => panic!(
                    "mean={mean} std={std} must be rejected at decode, got ok={}",
                    other.is_ok()
                ),
            }
        }
    }

    #[test]
    fn wrong_model_weights_are_a_mismatch() {
        let mut snap = tiny_snapshot("STGCN", 5, 5);
        snap.weights.pop();
        assert!(matches!(snap.instantiate(), Err(CheckpointError::Mismatch(_))));
    }

    #[test]
    fn nan_weights_fail_the_canary() {
        let mut snap = tiny_snapshot("STGCN", 5, 6);
        // Poison everything: a single NaN weight can be absorbed by a
        // max-based ReLU, but a fully-poisoned net cannot come back.
        for (_, w) in &mut snap.weights {
            let shape = w.shape().to_vec();
            *w = Tensor::full(&shape, f32::NAN);
        }
        match snap.instantiate() {
            Err(CheckpointError::Corrupt(m)) => assert!(m.contains("non-finite"), "{m}"),
            other => panic!("NaN weights must fail the canary, got {:?}", other.is_ok()),
        }
    }

    #[test]
    fn io_fault_is_retried_corruption_is_not() {
        let _g = fault_lock();
        let snap = tiny_snapshot("STGCN", 5, 7);
        let path = tmp("retry");
        snap.save(&path).unwrap();

        faults::reset();
        faults::arm("serve_io", 1, faults::FaultMode::Soft);
        let before = counter("serve/reload_retries").get();
        let ok = load_file_with_retry(&path, 3, Duration::from_millis(1));
        assert!(ok.is_ok(), "a one-shot I/O fault must be absorbed by the retry loop");
        assert_eq!(counter("serve/reload_retries").get(), before + 1);

        faults::reset();
        faults::arm("reload", 1, faults::FaultMode::Soft);
        let before = counter("serve/reload_retries").get();
        let err = load_file_with_retry(&path, 3, Duration::from_millis(1));
        assert!(matches!(err, Err(CheckpointError::Corrupt(_))));
        assert_eq!(counter("serve/reload_retries").get(), before, "corruption must not retry");
        faults::reset();
        std::fs::remove_file(&path).ok();
    }
}
