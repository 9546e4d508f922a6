//! Run-to-run determinism of training:
//! - thread counts: the compute pool splits only output ranges (never
//!   the reduction axis), so `TRAFFIC_THREADS=1` vs `TRAFFIC_THREADS=8`
//!   must produce bit-identical losses (exercised via the equivalent
//!   scoped [`pool::ThreadCapGuard`], which runs both in one process).
//!   STGCN covers the convolution and GEMM paths; GMAN and ST-MetaNet
//!   at 64 sensors cover the parallel softmax and broadcast row
//!   kernels, which the SIMD check below also runs;
//! - buffer recycling: the traffic-mem pool only changes where output
//!   buffers come from, never what is written, so `TRAFFIC_MEM_CAP=0`
//!   (pool off) vs the default (pool on) must also be bit-identical
//!   (exercised via [`mem::set_mem_cap`]);
//! - SIMD dispatch: lane-wise AVX2 kernels are bit-identical
//!   transliterations of their scalar fallbacks, so `TRAFFIC_SIMD=0`
//!   vs default must be bit-identical (exercised via
//!   [`simd::set_force_scalar`]). Horizontal reductions are the one
//!   documented exception: `TRAFFIC_SIMD_REDUCE=1` changes summation
//!   association order (different low-order bits allowed), but each
//!   mode must still be run-to-run deterministic — both are pinned
//!   here;
//! - inference binding: inside `predict`'s inference region parameters
//!   bind as constant leaves, so the forward records no backward state;
//!   every model's predictions must be bit-identical to the
//!   gradient-recording binding (exercised via
//!   [`inference::set_force_off`]), and with the buffer pool on and
//!   off, since DCRNN, STGCN, ST-MetaNet and Graph-WaveNet run each
//!   step or layer on a scoped child tape that recycles its buffers
//!   mid-forward;
//! - the experiment scheduler: `TRAFFIC_JOBS=4` runs sweep cells
//!   concurrently on partitioned core groups, but every cell seeds its
//!   own RNGs and results are collected in submission order, so the
//!   Fig-1/Fig-2 rows must be bit-identical to the `TRAFFIC_JOBS=1`
//!   legacy serial path — including a cell killed by an injected fault
//!   (`abort` site scoped to one cell), which must render the same
//!   FAILED row in both modes.

use traffic_suite::core::{
    difficult_interval_experiment, model_comparison, predict, set_jobs_override, train,
    ExperimentScale, Fig1Row, Fig2Row, TrainConfig,
};
use traffic_suite::data::{prepare, simulate, SimConfig, Task};
use traffic_suite::models::{build_model, GraphContext, ALL_MODELS};
use traffic_suite::tensor::{inference, mem, pool, simd};

/// Both tests flip process-global knobs (thread cap, mem cap); they
/// serialise on one lock so neither observes the other mid-flip.
fn knob_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Epoch losses (as bits) of `model` trained for `epochs` epochs of
/// `batches` batches of 16 on a fresh `nodes`-sensor dataset.
fn model_losses(
    model: &str,
    nodes: usize,
    epochs: usize,
    batches: usize,
    thread_cap: usize,
) -> Vec<u32> {
    let _cap = pool::ThreadCapGuard::new(thread_cap);
    pool::warmup();
    let mut cfg = SimConfig::new("determinism", Task::Speed, nodes, 5);
    cfg.missing_rate = 0.0;
    let ds = simulate(&cfg);
    let data = prepare(&ds, 12, 12);
    let ctx = GraphContext::from_network(&ds.network, 4);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
    let model = build_model(model, &ctx, &mut rng);
    let train_cfg = TrainConfig {
        epochs,
        batch_size: 16,
        max_batches_per_epoch: Some(batches),
        ..Default::default()
    };
    let report = train(model.as_ref(), &data, &train_cfg);
    // Compare exact bit patterns, not approximate values.
    report.epoch_losses.iter().map(|l| l.to_bits()).collect()
}

fn stgcn_losses(thread_cap: usize) -> Vec<u32> {
    model_losses("STGCN", 8, 2, 8, thread_cap)
}

/// The attention models at 64 sensors: GMAN's fused attention node
/// (`[B·T, heads, 64, 64]` scores) and ST-MetaNet's `[B, N, N]`
/// (16·64·64 = 65536) attention scores reach the pool's parallel
/// thresholds, so the fused node's query tiles, softmax, the last-axis
/// max and the broadcasting score ops run their parallel paths.
const ATTENTION_MODELS: [&str; 2] = ["GMAN", "ST-MetaNet"];
const ATTENTION_NODES: usize = 64;

fn attention_losses(model: &str, thread_cap: usize) -> Vec<u32> {
    model_losses(model, ATTENTION_NODES, 1, 2, thread_cap)
}

#[test]
fn stgcn_losses_identical_across_thread_counts() {
    let _guard = knob_lock();
    let serial = stgcn_losses(1);
    let pooled = stgcn_losses(8);
    assert_eq!(serial, pooled, "2-epoch STGCN losses must be bit-identical with 1 vs 8 threads");
}

#[test]
fn attention_losses_identical_across_thread_counts() {
    let _guard = knob_lock();
    for model in ATTENTION_MODELS {
        let serial = attention_losses(model, 1);
        let pooled = attention_losses(model, 8);
        assert_eq!(serial, pooled, "{model} losses must be bit-identical with 1 vs 8 threads");
    }
}

#[test]
fn attention_losses_identical_with_simd_on_and_off() {
    let _guard = knob_lock();
    for model in ATTENTION_MODELS {
        simd::set_force_scalar(true);
        let scalar = attention_losses(model, usize::MAX);
        simd::set_force_scalar(false);
        let vectorized = attention_losses(model, usize::MAX);
        assert_eq!(scalar, vectorized, "{model} losses must be bit-identical with SIMD on vs off");
    }
}

#[test]
fn predictions_identical_with_constant_and_grad_parameter_binding() {
    let _guard = knob_lock();
    let mut cfg = SimConfig::new("determinism", Task::Speed, 16, 5);
    cfg.missing_rate = 0.0;
    let ds = simulate(&cfg);
    let data = prepare(&ds, 12, 12);
    let ctx = GraphContext::from_network(&ds.network, 4);
    let test = data.test.truncate(6);
    for name in ALL_MODELS {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
        let model = build_model(name, &ctx, &mut rng);
        let bits = || -> Vec<u32> {
            let pred = predict(model.as_ref(), &test, &data.scaler, 4);
            pred.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        let constant = bits();
        // The gradient-recording binding, as before inference regions
        // bound constants, with every scoped step on the one tape.
        inference::set_force_off(true);
        let recorded = bits();
        inference::set_force_off(false);
        assert_eq!(constant, recorded, "{name}: constant binding changed the predictions");
        // Scoped steps hand their buffers back mid-forward; with the pool
        // off every buffer is fresh.
        mem::set_mem_cap(0);
        mem::trim();
        let unpooled = bits();
        mem::set_mem_cap(usize::MAX);
        assert_eq!(constant, unpooled, "{name}: the buffer pool changed the predictions");
    }
}

/// Graph-WaveNet inside an inference region computes only the time
/// positions that reach its output; with the inference shortcuts forced
/// off it computes every position. The predictions must agree bit for
/// bit, including configs whose dead positions sit only inside the stack.
#[test]
fn graph_wavenet_pruned_forward_matches_full_forward_bitwise() {
    use traffic_suite::graph::freeway_corridor;
    use traffic_suite::models::{GraphWavenet, GraphWavenetConfig, TrafficModel};
    use traffic_suite::tensor::{init, Tape};

    let _guard = knob_lock();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(19);
    let ctx = GraphContext::from_network(&freeway_corridor(7, 1.0, &mut rng), 4);
    let configs = [
        GraphWavenetConfig::default(),
        GraphWavenetConfig { use_adaptive: false, ..Default::default() },
        GraphWavenetConfig { dilations: vec![1, 2], ..Default::default() },
        GraphWavenetConfig { dilations: vec![2, 2, 1], ..Default::default() },
        // Receptive field 16 = t_in: every input step is live, inner
        // positions are not.
        GraphWavenetConfig { dilations: vec![1, 2, 4, 8], t_in: 16, ..Default::default() },
    ];
    for cfg in configs {
        let model = GraphWavenet::new(&ctx, cfg.clone(), &mut rng);
        // Non-zero biases and weights away from their init.
        for p in model.store().params() {
            p.set_value(init::uniform(&p.shape(), -0.5, 0.5, &mut rng));
        }
        for batch in [1, 5] {
            let x = init::uniform(&[batch, cfg.t_in, ctx.n, cfg.in_features], -2.0, 2.0, &mut rng);
            let bits = || -> Vec<u32> {
                let _inf = inference::InferenceGuard::enter();
                let tape = Tape::new();
                let y = model.forward(&tape, tape.constant(x.clone()), None).value();
                assert_eq!(y.shape(), &[batch, cfg.t_out, ctx.n]);
                y.as_slice().iter().map(|v| v.to_bits()).collect()
            };
            let pruned = bits();
            inference::set_force_off(true);
            let full = bits();
            inference::set_force_off(false);
            assert_eq!(pruned, full, "{cfg:?} batch {batch}: pruned forward changed the bits");
        }
    }
}

#[test]
fn stgcn_losses_identical_with_simd_on_and_off() {
    let _guard = knob_lock();
    // TRAFFIC_SIMD=0 equivalent: every elementwise kernel runs the
    // scalar fallback.
    simd::set_force_scalar(true);
    let scalar = stgcn_losses(usize::MAX);
    // Default: AVX2 lane-wise kernels where the CPU supports them.
    simd::set_force_scalar(false);
    let vectorized = stgcn_losses(usize::MAX);
    assert_eq!(
        scalar, vectorized,
        "2-epoch STGCN losses must be bit-identical with SIMD on vs off (lane-wise path)"
    );
}

#[test]
fn stgcn_losses_deterministic_in_both_reduce_modes() {
    let _guard = knob_lock();
    // Default mode: sequential scalar reductions. Two runs must agree
    // bit-for-bit.
    simd::set_reduce_simd(false);
    let seq_a = stgcn_losses(usize::MAX);
    let seq_b = stgcn_losses(usize::MAX);
    assert_eq!(seq_a, seq_b, "sequential-reduction training must be run-to-run deterministic");
    // Opt-in TRAFFIC_SIMD_REDUCE=1: the 8-accumulator fold may differ
    // from sequential in low-order bits (association order), but must
    // itself be run-to-run deterministic at any thread count — slots
    // are reduced whole, so chunk boundaries never split a sum.
    simd::set_reduce_simd(true);
    let simd_a = stgcn_losses(1);
    let simd_b = stgcn_losses(8);
    simd::set_reduce_simd(false);
    assert_eq!(
        simd_a, simd_b,
        "SIMD-reduction training must be deterministic across runs and thread counts"
    );
}

#[test]
fn stgcn_losses_identical_with_live_server_on_and_scraped() {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let _guard = knob_lock();
    // Baseline: no telemetry server, heartbeat is a single untracked
    // atomic load.
    let off = stgcn_losses(usize::MAX);

    // Same training with a live server attached AND under active load:
    // one thread hammering /metrics + /health, one holding /events
    // open. Observation must never perturb the arithmetic.
    let server =
        traffic_suite::obs::live::LiveServer::start("127.0.0.1:0").expect("bind live server");
    let addr = server.addr().to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let (addr, stop) = (addr.clone(), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for path in ["/metrics", "/health"] {
                    if let Ok(mut s) = TcpStream::connect(&addr) {
                        let _ = s.set_read_timeout(Some(std::time::Duration::from_secs(1)));
                        let _ = write!(s, "GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n");
                        let mut buf = String::new();
                        let _ = s.read_to_string(&mut buf);
                    }
                }
            }
        })
    };
    let streamer = {
        let (addr, stop) = (addr, Arc::clone(&stop));
        std::thread::spawn(move || {
            if let Ok(mut s) = TcpStream::connect(&addr) {
                let _ = s.set_read_timeout(Some(std::time::Duration::from_millis(200)));
                let _ = write!(s, "GET /events HTTP/1.1\r\n\r\n");
                let mut buf = [0u8; 4096];
                while !stop.load(Ordering::Relaxed) {
                    // Anything else is keepalives, events, or timeouts.
                    if let Ok(0) = s.read(&mut buf) {
                        break;
                    }
                }
            }
        })
    };
    let on = stgcn_losses(usize::MAX);
    stop.store(true, Ordering::Relaxed);
    scraper.join().unwrap();
    streamer.join().unwrap();
    drop(server);
    assert_eq!(
        off, on,
        "2-epoch STGCN losses must be bit-identical with the live server off vs scraped"
    );
}

#[test]
fn stgcn_losses_identical_with_mem_pool_on_and_off() {
    let _guard = knob_lock();
    // TRAFFIC_MEM_CAP=0 equivalent: recycling disabled, every buffer
    // comes fresh from the allocator.
    mem::set_mem_cap(0);
    mem::trim();
    let unpooled = stgcn_losses(usize::MAX);
    // Default-cap equivalent: buffers recycle through the size classes.
    mem::set_mem_cap(256 << 20);
    let recycled = stgcn_losses(usize::MAX);
    mem::set_mem_cap(usize::MAX);
    assert_eq!(
        unpooled, recycled,
        "2-epoch STGCN losses must be bit-identical with the buffer pool on vs off"
    );
}

// ---------------- scheduler: parallel vs serial sweeps ----------------

/// (dataset, model, horizon, metric bits, error) per Fig-1 row.
type Fig1Key = (String, String, String, [u32; 6], Option<String>);

/// Every Fig-1 field as exact bits (NaNs from FAILED rows compare as
/// their bit patterns, which are deterministic constants).
fn fig1_fingerprint(rows: &[Fig1Row]) -> Vec<Fig1Key> {
    rows.iter()
        .map(|r| {
            (
                r.dataset.clone(),
                r.model.clone(),
                r.horizon.to_string(),
                [
                    r.mae.0.to_bits(),
                    r.mae.1.to_bits(),
                    r.rmse.0.to_bits(),
                    r.rmse.1.to_bits(),
                    r.mape.0.to_bits(),
                    r.mape.1.to_bits(),
                ],
                r.error.clone(),
            )
        })
        .collect()
}

fn fig2_fingerprint(rows: &[Fig2Row]) -> Vec<(String, [u32; 7], Option<String>)> {
    rows.iter()
        .map(|r| {
            (
                r.model.clone(),
                [
                    r.overall.mae.to_bits(),
                    r.overall.rmse.to_bits(),
                    r.overall.mape.to_bits(),
                    r.difficult.mae.to_bits(),
                    r.difficult.rmse.to_bits(),
                    r.difficult.mape.to_bits(),
                    r.degradation_pct.to_bits(),
                ],
                r.error.clone(),
            )
        })
        .collect()
}

/// One full Fig-1 + Fig-2 sweep at `jobs` scheduler jobs. With
/// `fault_cell` set, the `abort` site is armed Soft and scoped to that
/// cell, so exactly one cell dies identically in either mode.
fn sweep_rows(jobs: usize, fault_cell: Option<&str>) -> (Vec<Fig1Row>, Vec<Fig2Row>) {
    use traffic_suite::obs::faults;
    set_jobs_override(Some(jobs));
    if let Some(cell) = fault_cell {
        faults::arm("abort", 1, faults::FaultMode::Soft);
        faults::set_cell_filter(Some(cell));
    }
    let scale = ExperimentScale::smoke();
    let f1 = model_comparison(&["METR-LA"], &["STGCN", "STSGCN"], &scale);
    let f2 = difficult_interval_experiment("METR-LA", &["STGCN", "STSGCN"], &scale);
    set_jobs_override(None);
    if fault_cell.is_some() {
        faults::reset();
    }
    (f1, f2)
}

#[test]
fn parallel_sweep_rows_identical_to_serial() {
    let _guard = knob_lock();
    let (f1_serial, f2_serial) = sweep_rows(1, None);
    let (f1_par, f2_par) = sweep_rows(4, None);
    assert!(f1_serial.iter().all(|r| r.error.is_none()), "healthy sweep must not fail");
    assert_eq!(
        fig1_fingerprint(&f1_serial),
        fig1_fingerprint(&f1_par),
        "Fig-1 rows must be bit-identical with TRAFFIC_JOBS=1 vs 4"
    );
    assert_eq!(
        fig2_fingerprint(&f2_serial),
        fig2_fingerprint(&f2_par),
        "Fig-2 rows must be bit-identical with TRAFFIC_JOBS=1 vs 4"
    );
}

#[test]
fn injected_fault_cell_fails_identically_in_both_modes() {
    let _guard = knob_lock();
    let cell = "fig1/METR-LA/STGCN";
    let (f1_serial, f2_serial) = sweep_rows(1, Some(cell));
    let (f1_par, f2_par) = sweep_rows(4, Some(cell));
    // The targeted cell dies; its rows carry the injected-panic reason.
    let failed: Vec<&Fig1Row> =
        f1_serial.iter().filter(|r| r.model == "STGCN" && r.dataset == "METR-LA").collect();
    assert!(!failed.is_empty());
    for r in &failed {
        let reason = r.error.as_deref().expect("faulted cell must yield FAILED rows");
        assert!(reason.contains("injected mid-epoch abort"), "unexpected reason: {reason}");
    }
    // Everything outside the scoped cell survives untouched.
    assert!(f1_serial.iter().filter(|r| r.model == "STSGCN").all(|r| r.error.is_none()));
    assert!(f2_serial.iter().all(|r| r.error.is_none()), "fig2 cells are outside the filter");
    // And the parallel run renders the exact same rows, FAILED included.
    assert_eq!(
        fig1_fingerprint(&f1_serial),
        fig1_fingerprint(&f1_par),
        "faulted Fig-1 rows must be bit-identical with TRAFFIC_JOBS=1 vs 4"
    );
    assert_eq!(
        fig2_fingerprint(&f2_serial),
        fig2_fingerprint(&f2_par),
        "Fig-2 rows must be bit-identical with TRAFFIC_JOBS=1 vs 4"
    );
}
