//! Resilience integration tests: kill-and-resume bit-identity, the
//! divergence supervisor's rollback/give-up paths, NaN-gradient step
//! skipping, and panic isolation in the experiment sweeps.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::SeedableRng;
use traffic_suite::core::{
    model_comparison, train, DivergencePolicy, ExperimentScale, TrainConfig, TrainReport,
};
use traffic_suite::data::{prepare, simulate, PreparedData, SimConfig, Task};
use traffic_suite::models::{build_model, GraphContext};
use traffic_suite::obs::counter;
use traffic_suite::obs::faults::{self, FaultMode};

/// Fault state is process-global: every test that arms a fault **or
/// reaches a fault site** holds this lock for its whole duration (same
/// pattern as `knob_lock` in determinism.rs). Training and sweeps reach
/// one on every batch (`abort`, `nan_grad`), so a lock-free training
/// test would advance — and could trigger — another test's armed plan.
fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("traffic_resilience_{tag}_{}.tnn2", std::process::id()))
}

fn tiny_setup() -> (PreparedData, GraphContext) {
    let ds = simulate(&SimConfig::new("resil", Task::Speed, 6, 4));
    let data = prepare(&ds, 12, 12);
    let ctx = GraphContext::from_network(&ds.network, 4);
    (data, ctx)
}

fn loss_bits(r: &TrainReport) -> Vec<u32> {
    r.epoch_losses.iter().map(|l| l.to_bits()).collect()
}

#[test]
fn kill_and_resume_is_bit_identical() {
    let _g = fault_lock();
    faults::reset();
    let (data, ctx) = tiny_setup();
    let ckpt = tmp("kill_resume");
    let _ = std::fs::remove_file(&ckpt);
    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 8,
        max_batches_per_epoch: Some(6),
        seed: 13,
        checkpoint_every: Some(1),
        checkpoint_path: Some(ckpt.clone()),
        resume_from: Some(ckpt.clone()),
        ..Default::default()
    };

    // Uninterrupted reference: no checkpoint knobs at all, so this also
    // proves checkpointing itself does not perturb the trajectory.
    let reference = {
        let mut rng = StdRng::seed_from_u64(21);
        let model = build_model("STGCN", &ctx, &mut rng);
        let plain = TrainConfig {
            checkpoint_every: None,
            checkpoint_path: None,
            resume_from: None,
            ..cfg.clone()
        };
        train(model.as_ref(), &data, &plain)
    };
    assert_eq!(reference.epoch_losses.len(), 3);

    // "Crash" mid-epoch 1 (soft abort = catchable panic standing in for
    // SIGKILL; scripts/resume_smoke.sh exercises the hard variant).
    faults::arm("abort", 8, FaultMode::Soft);
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        let mut rng = StdRng::seed_from_u64(21);
        let model = build_model("STGCN", &ctx, &mut rng);
        train(model.as_ref(), &data, &cfg)
    }));
    faults::reset();
    assert!(crashed.is_err(), "armed abort should have interrupted training");
    assert!(ckpt.exists(), "epoch-0 checkpoint should have survived the crash");

    // "New process": a freshly built model, resumed from the checkpoint.
    let mut rng = StdRng::seed_from_u64(21);
    let model = build_model("STGCN", &ctx, &mut rng);
    let resumed = train(model.as_ref(), &data, &cfg);
    std::fs::remove_file(&ckpt).ok();

    assert_eq!(resumed.resumed_at, Some(1), "should resume after the one completed epoch");
    assert_eq!(
        loss_bits(&resumed),
        loss_bits(&reference),
        "resumed losses must be bit-identical: {:?} vs {:?}",
        resumed.epoch_losses,
        reference.epoch_losses
    );
    assert!(!model.store().has_non_finite());
}

#[test]
fn resume_rejects_checkpoint_from_different_config() {
    let _g = fault_lock();
    faults::reset();
    let (data, ctx) = tiny_setup();
    let ckpt = tmp("fingerprint");
    let _ = std::fs::remove_file(&ckpt);
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 8,
        max_batches_per_epoch: Some(3),
        seed: 5,
        checkpoint_every: Some(1),
        checkpoint_path: Some(ckpt.clone()),
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(3);
    let model = build_model("STGCN", &ctx, &mut rng);
    train(model.as_ref(), &data, &cfg);
    assert!(ckpt.exists());

    // Same checkpoint, different math config (seed): must start fresh,
    // not silently continue under the wrong hyper-parameters.
    let other = TrainConfig { seed: 6, resume_from: Some(ckpt.clone()), ..cfg.clone() };
    let mut rng = StdRng::seed_from_u64(3);
    let model = build_model("STGCN", &ctx, &mut rng);
    let report = train(model.as_ref(), &data, &other);
    std::fs::remove_file(&ckpt).ok();
    assert_eq!(report.resumed_at, None, "fingerprint mismatch must force a fresh start");
    assert_eq!(report.epoch_losses.len(), 1);
}

#[test]
fn divergence_supervisor_gives_up_after_max_retries() {
    let _g = fault_lock();
    let (data, ctx) = tiny_setup();
    let mut rng = StdRng::seed_from_u64(9);
    let model = build_model("STGCN", &ctx, &mut rng);
    let init = model.store().snapshot();
    // explode_factor < 1 flags every healthy batch as an explosion once
    // the window fills: a deterministic worst case that must exhaust the
    // retry budget and give up cleanly.
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 8,
        max_batches_per_epoch: Some(4),
        divergence: Some(DivergencePolicy {
            window: 2,
            explode_factor: 0.5,
            max_retries: 2,
            lr_backoff: 0.5,
        }),
        ..Default::default()
    };
    let report = train(model.as_ref(), &data, &cfg);
    assert!(report.diverged, "pathological policy must end in give-up");
    // retries 0 and 1 roll back and back off; the third rollback trips
    // max_retries = 2 and gives up.
    assert_eq!(report.rollbacks, 3);
    assert!(report.epoch_losses.is_empty(), "no epoch ever completed");
    // The give-up path restores the epoch-start snapshot: weights are
    // exactly the initial ones, not a half-stepped mess.
    for (p, w) in model.store().params().iter().zip(&init) {
        assert_eq!(&p.value(), w, "{} should be rolled back to init", p.name());
    }
}

#[test]
fn divergence_supervisor_recovers_from_unstable_lr() {
    let _g = fault_lock();
    let (data, ctx) = tiny_setup();
    let mut rng = StdRng::seed_from_u64(17);
    let model = build_model("STG2Seq", &ctx, &mut rng);
    // An absurd learning rate blows the loss up; each rollback scales it
    // by 0.1, so within a few retries the run is stable and completes.
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 8,
        max_batches_per_epoch: Some(6),
        lr: 30.0,
        divergence: Some(DivergencePolicy {
            window: 3,
            explode_factor: 4.0,
            max_retries: 8,
            lr_backoff: 0.1,
        }),
        ..Default::default()
    };
    let report = train(model.as_ref(), &data, &cfg);
    assert!(!report.diverged, "backoff should rescue the run: {report:?}");
    assert!(report.rollbacks >= 1, "lr 30.0 should have triggered at least one rollback");
    assert_eq!(report.epoch_losses.len(), 2);
    assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
    assert!(!model.store().has_non_finite());
}

#[test]
fn nan_gradients_skip_the_step_and_keep_weights_finite() {
    let _g = fault_lock();
    faults::reset();
    let (data, ctx) = tiny_setup();
    let mut rng = StdRng::seed_from_u64(23);
    let model = build_model("STGCN", &ctx, &mut rng);
    faults::arm("nan_grad", 2, FaultMode::Soft);
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 8,
        max_batches_per_epoch: Some(4),
        ..Default::default()
    };
    let report = train(model.as_ref(), &data, &cfg);
    faults::reset();
    assert_eq!(report.skipped_steps, 1, "the poisoned batch must be skipped, not stepped");
    assert!(report.epoch_losses[0].is_finite());
    assert!(!model.store().has_non_finite(), "NaN gradients must never reach the weights");
}

#[test]
fn checkpoint_io_failure_does_not_kill_training() {
    let _g = fault_lock();
    faults::reset();
    let (data, ctx) = tiny_setup();
    let ckpt = tmp("ckpt_io");
    let _ = std::fs::remove_file(&ckpt);
    faults::arm("ckpt_io", 1, FaultMode::Soft);
    let mut rng = StdRng::seed_from_u64(31);
    let model = build_model("STGCN", &ctx, &mut rng);
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 8,
        max_batches_per_epoch: Some(3),
        checkpoint_every: Some(1),
        checkpoint_path: Some(ckpt.clone()),
        ..Default::default()
    };
    let retries_before = counter("train/ckpt_retries").get();
    let report = train(model.as_ref(), &data, &cfg);
    faults::reset();
    assert_eq!(report.epoch_losses.len(), 2, "a failed checkpoint save must not stop the run");
    // Epoch 0's save hit the injected one-shot I/O error; the bounded
    // retry absorbed it (counted), so both checkpoints went through.
    assert_eq!(
        counter("train/ckpt_retries").get(),
        retries_before + 1,
        "the transient ckpt_io fault must be retried exactly once"
    );
    assert!(ckpt.exists(), "the checkpoint should exist after the retried save");
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn sweep_isolates_a_crashing_cell() {
    let _g = fault_lock();
    faults::reset();
    // First training batch of the STGCN cell panics. The plan is scoped
    // to that cell: with more than one scheduler job both cells train at
    // once, so "the sweep's first batch" could be STG2Seq's. The crashed
    // cell must come back as an explicit failure while every other cell
    // completes normally.
    faults::set_cell_filter(Some("fig1/METR-LA/STGCN"));
    faults::arm("abort", 1, FaultMode::Soft);
    let mut scale = ExperimentScale::smoke();
    scale.epochs = 1;
    scale.max_train_batches = Some(2);
    let rows = model_comparison(&["METR-LA"], &["STGCN", "STG2Seq"], &scale);
    faults::reset();

    let (failed, ok): (Vec<_>, Vec<_>) = rows.iter().partition(|r| r.error.is_some());
    assert_eq!(failed.len(), 3, "one crashed model = three failed horizon rows");
    assert!(failed.iter().all(|r| r.model == "STGCN"));
    assert!(failed.iter().all(|r| r.mae.0.is_nan()), "failed cells carry NaN metrics");
    assert_eq!(ok.len(), 3, "the surviving model still produced all horizons");
    assert!(ok.iter().all(|r| r.model == "STG2Seq" && r.mae.0.is_finite()));
}
