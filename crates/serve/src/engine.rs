//! The serving engine: a synchronous batch [`Processor`] (the testable
//! core) wrapped by a worker-thread [`Engine`] (the deployable form).
//!
//! ## Why a dedicated worker thread
//!
//! Model parameters are `Rc`-backed (`!Send`), so the live model is
//! owned by exactly one thread for its whole life: built there, served
//! there, swapped there. Everything that crosses the thread boundary —
//! requests, responses, staged snapshots — is plain `Send` data.
//! Parallelism still happens *inside* each forward via the tensor
//! worker pool; the single-consumer design is what makes hot reload an
//! atomic pointer swap instead of a lock hierarchy.
//!
//! ## Degradation ladder
//!
//! `HEALTHY` → breaker trips (consecutive panics / non-finite outputs)
//! → `DEGRADED` (persistence-baseline fallback, periodic probes) →
//! probe succeeds → `HEALTHY`. Queue overload answers `SHED` at
//! admission regardless of model health; neither state ever escalates
//! to a crash.
//!
//! Two rarer failure shapes are also answered, never hung or crashed:
//! a hot reload that changes model geometry (`n`/`t_in`) answers
//! `ERROR` to jobs admitted under the old geometry (re-validated
//! against the live model in [`Processor::process_batch`], since the
//! HTTP layer's check races the swap), and if the worker thread itself
//! ever dies, a scope guard closes the queue and answers `ERROR` to
//! every stranded and future request so clients fail fast instead of
//! blocking forever (`FAILED` in `/status`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use traffic_nn::CheckpointError;
use traffic_obs::{counter, elapsed_ns, emit_with, faults, gauge, Event};
use traffic_tensor::{Tape, Tensor};

use crate::queue::{DeadlineQueue, Job, ServeRequest, ServeResponse};
use crate::snapshot::{self, LoadedModel, ServeSnapshot};
use crate::Breaker;

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Queue high-water mark (admission control).
    pub high_water: usize,
    /// Max requests coalesced into one batched forward.
    pub max_batch: usize,
    /// Consecutive bad forwards that trip the breaker.
    pub breaker_threshold: u32,
    /// While open, probe the real model every N-th batch.
    pub probe_every: u64,
    /// Attempts for snapshot-read retry (I/O errors only).
    pub reload_attempts: u32,
    /// Initial reload backoff (doubles per retry).
    pub reload_backoff: Duration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            high_water: 256,
            max_batch: 32,
            breaker_threshold: 3,
            probe_every: 4,
            reload_attempts: 3,
            reload_backoff: Duration::from_millis(10),
        }
    }
}

/// Synchronous batch processor: the model, its breaker, and a reused
/// tape. Single-threaded by construction; the [`Engine`] drives it from
/// the worker, tests drive it directly with a manual clock.
pub struct Processor {
    model: LoadedModel,
    breaker: Breaker,
    tape: Tape,
    batches: u64,
}

impl Processor {
    /// Wraps a validated model.
    pub fn new(model: LoadedModel, cfg: &EngineConfig) -> Self {
        gauge("serve/breaker_open").set(0.0);
        Processor {
            model,
            breaker: Breaker::new(cfg.breaker_threshold, cfg.probe_every),
            tape: Tape::new(),
            batches: 0,
        }
    }

    /// The live model (for `/status`).
    pub fn model(&self) -> &LoadedModel {
        &self.model
    }

    /// Breaker state (for `/status` and tests).
    pub fn breaker(&self) -> &Breaker {
        &self.breaker
    }

    /// Swaps in an already-validated model. The old model drops here,
    /// on the owning thread. The breaker resets — new weights get a
    /// clean bill of health until proven otherwise.
    pub fn swap_model(&mut self, model: LoadedModel, cfg: &EngineConfig) {
        self.model = model;
        self.breaker = Breaker::new(cfg.breaker_threshold, cfg.probe_every);
        gauge("serve/breaker_open").set(0.0);
    }

    /// Persistence fallback: the last observed frame repeated across
    /// the horizon. Raw scale in, raw scale out; never touches the
    /// model.
    fn persistence(&self, req: &ServeRequest) -> Vec<f32> {
        let (n, t_in, t_out) = (self.model.snap.n, self.model.snap.t_in, self.model.snap.t_out);
        let last = &req.window[(t_in - 1) * n..t_in * n];
        let mut out = Vec::with_capacity(t_out * n);
        for _ in 0..t_out {
            out.extend_from_slice(last);
        }
        out
    }

    /// Packs jobs into a normalised `[B, t_in, n, 2]` input (z-scored
    /// value + advancing time-of-day channel).
    fn pack(&self, jobs: &[Job]) -> Tensor {
        let snap = &self.model.snap;
        let (n, t_in) = (snap.n, snap.t_in);
        let steps = traffic_models::STEPS_PER_DAY as f32;
        // A pooled buffer: at batch 32 and 207 nodes the input is 636 KB.
        let mut x = Tensor::zeros(&[jobs.len(), t_in, n, 2]);
        for (job, window) in jobs.iter().zip(x.make_mut().chunks_exact_mut(t_in * n * 2)) {
            for (t, row) in window.chunks_exact_mut(n * 2).enumerate() {
                let tod = (job.req.tod + t as f32 / steps).fract();
                for (cell, &v) in row.chunks_exact_mut(2).zip(&job.req.window[t * n..]) {
                    cell[0] = (v - snap.mean) / snap.std;
                    cell[1] = tod;
                }
            }
        }
        x
    }

    /// Runs one batch to completion: every job gets exactly one
    /// response, whatever the model does. Returns the per-batch verdict
    /// (`true` = real model output served).
    pub fn process_batch(&mut self, jobs: Vec<Job>) -> bool {
        // Re-validate geometry against the *live* model: the HTTP layer
        // checked against a /status snapshot, but a hot reload that
        // changes n/t_in can land between admission and this drain. A
        // stale-geometry window would index out of bounds in pack() and
        // persistence() — answer ERROR instead of letting it panic.
        let expected = self.model.snap.t_in * self.model.snap.n;
        let (jobs, stale): (Vec<Job>, Vec<Job>) =
            jobs.into_iter().partition(|j| j.req.window.len() == expected);
        for job in stale {
            counter("serve/geometry_rejects").inc();
            let got = job.req.window.len();
            job.respond(ServeResponse::Error(format!(
                "window has {got} values but the live model wants t_in*n = {expected} \
                 (model geometry changed after admission; re-read /status and retry)"
            )));
        }
        if jobs.is_empty() {
            return false;
        }
        let batch_idx = self.batches;
        self.batches += 1;

        if !self.breaker.allow_real(batch_idx) {
            self.fallback_all(jobs);
            return false;
        }

        let x = self.pack(&jobs);
        let forward =
            catch_unwind(AssertUnwindSafe(|| self.model.forward_batch(&mut self.tape, x)));
        // The serve_nan fault site poisons an otherwise healthy forward,
        // exercising the breaker path without a genuinely broken model.
        let poisoned = faults::fire("serve_nan").is_some();
        let bad = match &forward {
            Ok(out) => poisoned || out.has_non_finite(),
            Err(_) => true,
        };
        if bad {
            counter("serve/bad_forwards").inc();
            if self.breaker.record_failure() {
                counter("serve/breaker_trips").inc();
                gauge("serve/breaker_open").set(1.0);
                emit_with(|| {
                    Event::new("breaker")
                        .with("state", "open")
                        .with("model", self.model.snap.model.clone())
                        .with("consecutive", self.breaker.trips())
                });
            }
            self.fallback_all(jobs);
            return false;
        }

        if self.breaker.record_success() {
            gauge("serve/breaker_open").set(0.0);
            emit_with(|| {
                Event::new("breaker")
                    .with("state", "closed")
                    .with("model", self.model.snap.model.clone())
            });
        }
        let out = forward.expect("bad==false implies Ok");
        let snap = &self.model.snap;
        let per = snap.t_out * snap.n;
        let data = out.as_slice();
        for (b, job) in jobs.into_iter().enumerate() {
            let pred =
                data[b * per..(b + 1) * per].iter().map(|z| z * snap.std + snap.mean).collect();
            counter("serve/ok").inc();
            job.respond(ServeResponse::Ok(pred));
        }
        true
    }

    fn fallback_all(&self, jobs: Vec<Job>) {
        for job in jobs {
            let pred = self.persistence(&job.req);
            counter("serve/degraded").inc();
            job.respond(ServeResponse::Degraded(pred));
        }
    }
}

/// A point-in-time view of the engine for `/status` and `/health`.
#[derive(Debug, Clone)]
pub struct EngineStatus {
    /// Model name.
    pub model: String,
    /// Scalar parameter count.
    pub params: usize,
    /// Sensors served.
    pub n: usize,
    /// Input window length.
    pub t_in: usize,
    /// Output horizon.
    pub t_out: usize,
    /// `HEALTHY`, `DEGRADED` (breaker open), or `FAILED` (worker
    /// thread dead — requests get terminal `ERROR` answers).
    pub state: &'static str,
    /// Current queue depth.
    pub queue_depth: usize,
    /// Queue shed threshold.
    pub high_water: usize,
    /// Lifetime breaker trips.
    pub breaker_trips: u64,
    /// Completed hot reloads.
    pub reloads: u64,
    /// Rejected hot reloads (last-good kept every time).
    pub reload_failures: u64,
}

#[derive(Default)]
struct Shared {
    model: Mutex<(String, usize, usize, usize, usize)>,
    degraded: AtomicBool,
    /// Worker thread exited (panic or shutdown); `/status` says
    /// `FAILED` and every request is answered `ERROR` at admission.
    worker_dead: AtomicBool,
    breaker_trips: AtomicU64,
    reloads: AtomicU64,
    reload_failures: AtomicU64,
}

enum Control {
    Reload(Box<ServeSnapshot>, mpsc::Sender<Result<(), CheckpointError>>),
    /// Test/chaos hook: the worker sleeps before its next drain,
    /// simulating a stalled consumer so overload paths can be exercised
    /// deterministically.
    Stall(Duration),
    Shutdown,
}

/// The deployable engine: a worker thread owning the model, fed by a
/// [`DeadlineQueue`], controlled via a command channel.
pub struct Engine {
    queue: Arc<DeadlineQueue>,
    ctrl: mpsc::Sender<Control>,
    shared: Arc<Shared>,
    cfg: EngineConfig,
    snapshot_path: Mutex<Option<PathBuf>>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl Engine {
    /// Builds the model from `snap` on a fresh worker thread and starts
    /// serving. Fails (without leaking the thread) if the snapshot does
    /// not survive validation.
    pub fn start(snap: ServeSnapshot, cfg: EngineConfig) -> Result<Engine, CheckpointError> {
        let queue = Arc::new(DeadlineQueue::new(cfg.high_water));
        let (ctrl_tx, ctrl_rx) = mpsc::channel::<Control>();
        let (ready_tx, ready_rx) = mpsc::channel::<Result<(), CheckpointError>>();
        let shared = Arc::new(Shared::default());

        let worker = {
            let queue = Arc::clone(&queue);
            let shared = Arc::clone(&shared);
            let cfg = cfg.clone();
            std::thread::Builder::new()
                .name("traffic-serve".into())
                .spawn(move || worker_loop(snap, cfg, queue, ctrl_rx, ready_tx, shared))
                .expect("spawn serve worker")
        };
        match ready_rx.recv() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                let _ = worker.join();
                return Err(e);
            }
            Err(_) => {
                let _ = worker.join();
                return Err(CheckpointError::Corrupt("serve worker died during startup".into()));
            }
        }
        Ok(Engine {
            queue,
            ctrl: ctrl_tx,
            shared,
            cfg,
            snapshot_path: Mutex::new(None),
            worker: Some(worker),
        })
    }

    /// [`Engine::start`] from a snapshot file, remembering the path so
    /// [`Engine::reload`] can re-read it later.
    pub fn start_from_path(path: &Path, cfg: EngineConfig) -> Result<Engine, CheckpointError> {
        let snap = snapshot::load_file_with_retry(path, cfg.reload_attempts, cfg.reload_backoff)?;
        let engine = Engine::start(snap, cfg)?;
        *engine.snapshot_path.lock().unwrap_or_else(|e| e.into_inner()) = Some(path.to_path_buf());
        Ok(engine)
    }

    /// Submits a request; the response arrives on the returned channel.
    /// Shed/expired requests are answered immediately.
    pub fn submit(&self, req: ServeRequest) -> mpsc::Receiver<ServeResponse> {
        let (tx, rx) = mpsc::channel();
        let now = elapsed_ns();
        self.queue.submit(Job { req, submit_ns: now, reply: tx }, now);
        rx
    }

    /// Submit + block for the response. Always returns: a dead worker
    /// answers `ERROR` (via the queue close + [`WorkerGuard`] drain),
    /// and the `unwrap_or_else` is a final backstop should a job ever
    /// be dropped without a reply.
    pub fn predict(&self, req: ServeRequest) -> ServeResponse {
        self.submit(req)
            .recv()
            .unwrap_or_else(|_| ServeResponse::Error("serve worker dropped the request".into()))
    }

    /// Hot reload with validate-then-swap. The read (with bounded I/O
    /// retry), decode, and CRC checks happen on the *calling* thread;
    /// model rebuild + canary + swap happen on the worker. Any failure
    /// leaves the last-good model serving and emits an `alert` event.
    pub fn reload(&self, path: Option<&Path>) -> Result<(), CheckpointError> {
        let path = match path {
            Some(p) => p.to_path_buf(),
            None => {
                self.snapshot_path.lock().unwrap_or_else(|e| e.into_inner()).clone().ok_or_else(
                    || CheckpointError::Mismatch("no snapshot path configured for reload".into()),
                )?
            }
        };
        let staged = snapshot::load_file_with_retry(
            &path,
            self.cfg.reload_attempts,
            self.cfg.reload_backoff,
        );
        let result = staged.and_then(|snap| {
            let (tx, rx) = mpsc::channel();
            self.ctrl
                .send(Control::Reload(Box::new(snap), tx))
                .map_err(|_| CheckpointError::Corrupt("serve worker is gone".into()))?;
            rx.recv()
                .map_err(|_| CheckpointError::Corrupt("serve worker dropped the reload".into()))?
        });
        match &result {
            Ok(()) => {
                self.shared.reloads.fetch_add(1, Ordering::Relaxed);
                counter("serve/reloads").inc();
                emit_with(|| {
                    Event::new("reload").with("ok", true).with("path", path.display().to_string())
                });
            }
            Err(e) => {
                self.shared.reload_failures.fetch_add(1, Ordering::Relaxed);
                counter("serve/reload_failures").inc();
                let msg = e.to_string();
                emit_with(|| {
                    Event::new("reload")
                        .with("ok", false)
                        .with("path", path.display().to_string())
                        .with("error", msg.clone())
                });
                emit_with(|| {
                    Event::new("alert")
                        .with("rule", "reload_failed")
                        .with("state", "raised")
                        .with("message", format!("hot reload rejected, last-good kept: {msg}"))
                });
            }
        }
        result
    }

    /// Chaos/test hook: stall the worker for `d` before its next drain
    /// so the queue can be driven past its high-water mark on purpose.
    pub fn stall(&self, d: Duration) {
        let _ = self.ctrl.send(Control::Stall(d));
    }

    /// Point-in-time status snapshot.
    pub fn status(&self) -> EngineStatus {
        let (model, params, n, t_in, t_out) =
            self.shared.model.lock().unwrap_or_else(|e| e.into_inner()).clone();
        EngineStatus {
            model,
            params,
            n,
            t_in,
            t_out,
            state: if self.shared.worker_dead.load(Ordering::Relaxed) {
                "FAILED"
            } else if self.shared.degraded.load(Ordering::Relaxed) {
                "DEGRADED"
            } else {
                "HEALTHY"
            },
            queue_depth: self.queue.depth(),
            high_water: self.queue.high_water(),
            breaker_trips: self.shared.breaker_trips.load(Ordering::Relaxed),
            reloads: self.shared.reloads.load(Ordering::Relaxed),
            reload_failures: self.shared.reload_failures.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        let _ = self.ctrl.send(Control::Shutdown);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

fn publish(shared: &Shared, proc_: &Processor) {
    let snap = &proc_.model().snap;
    *shared.model.lock().unwrap_or_else(|e| e.into_inner()) =
        (snap.model.clone(), proc_.model().num_params(), snap.n, snap.t_in, snap.t_out);
    shared.degraded.store(proc_.breaker().is_open(), Ordering::Relaxed);
    shared.breaker_trips.store(proc_.breaker().trips(), Ordering::Relaxed);
}

/// Scope guard armed for the whole worker lifetime: however the worker
/// exits — clean shutdown, a panic that escapes `catch_unwind`, or the
/// injected `serve_panic` fault — it closes the queue and answers every
/// stranded job, so no client ever blocks on a reply channel whose
/// consumer is gone. Runs during unwind too (`Drop`), which is the
/// whole point.
struct WorkerGuard {
    queue: Arc<DeadlineQueue>,
    shared: Arc<Shared>,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        self.shared.worker_dead.store(true, Ordering::SeqCst);
        let stranded = self.queue.close_and_drain();
        let died = std::thread::panicking();
        if died || !stranded.is_empty() {
            counter("serve/worker_deaths").inc();
            let count = stranded.len();
            emit_with(|| {
                Event::new("alert").with("rule", "serve_worker_died").with("state", "raised").with(
                    "message",
                    format!(
                        "serve worker exited{}; {count} queued request(s) answered ERROR",
                        if died { " via panic" } else { "" }
                    ),
                )
            });
        }
        for job in stranded {
            counter("serve/worker_down_rejects").inc();
            job.respond(ServeResponse::Error("serve worker is down".into()));
        }
    }
}

fn worker_loop(
    snap: ServeSnapshot,
    cfg: EngineConfig,
    queue: Arc<DeadlineQueue>,
    ctrl: mpsc::Receiver<Control>,
    ready: mpsc::Sender<Result<(), CheckpointError>>,
    shared: Arc<Shared>,
) {
    let _guard = WorkerGuard { queue: Arc::clone(&queue), shared: Arc::clone(&shared) };
    let mut proc_ = match snap.instantiate() {
        Ok(model) => Processor::new(model, &cfg),
        Err(e) => {
            let _ = ready.send(Err(e));
            return;
        }
    };
    publish(&shared, &proc_);
    let _ = ready.send(Ok(()));

    loop {
        // Chaos hook: kill the worker outside every catch_unwind, so
        // the WorkerGuard's strand-no-client promise stays testable.
        if faults::fire("serve_panic").is_some() {
            panic!("injected serve worker panic (serve_panic)");
        }
        // Drain control first so a reload never waits behind a backlog.
        loop {
            match ctrl.try_recv() {
                Ok(Control::Reload(staged, ack)) => {
                    let verdict = staged.instantiate().map(|model| {
                        proc_.swap_model(model, &cfg);
                    });
                    publish(&shared, &proc_);
                    let _ = ack.send(verdict);
                }
                Ok(Control::Stall(d)) => std::thread::sleep(d),
                Ok(Control::Shutdown) => {
                    // Answer what's left so no client hangs on shutdown.
                    loop {
                        let rest = queue.pop_batch(elapsed_ns(), cfg.max_batch, None);
                        if rest.is_empty() {
                            break;
                        }
                        proc_.process_batch(rest);
                    }
                    return;
                }
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => return,
            }
        }
        let jobs = queue.pop_batch(elapsed_ns(), cfg.max_batch, Some(Duration::from_millis(5)));
        if !jobs.is_empty() {
            proc_.process_batch(jobs);
            publish(&shared, &proc_);
        }
    }
}
