//! Property tests for the traffic-mem buffer pool: recycling must never
//! alias a live tensor, recycled buffers must be fully overwritten
//! before they are read (no stale data leaking into results), and every
//! computation must be bit-identical with the pool on vs off.

use proptest::prelude::*;
use std::sync::Mutex;
use traffic_tensor::{inference, mem, Tape, Tensor};

/// The pool and its cap are process-global; tests in this binary flip
/// the cap, so they serialise on one lock.
fn pool_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A random walk of tensor creations, handle clones, mutations, and
/// drops used by the no-aliasing property.
#[derive(Debug, Clone)]
enum PoolOp {
    /// Create a tensor of `64 << size_class` elements filled with a marker.
    Create(u8),
    /// Clone the handle of live tensor `idx` (shares the buffer).
    CloneHandle(usize),
    /// Overwrite live tensor `idx` in place with a new marker.
    Mutate(usize),
    /// Drop live tensor `idx` (recycles its buffer when last handle).
    Drop(usize),
}

fn pool_op() -> impl Strategy<Value = PoolOp> {
    // (kind, index, size_class) → PoolOp (the vendored proptest has no
    // prop_oneof; a mapped tuple covers the same space).
    (0u8..4, 0usize..64, 0u8..4).prop_map(|(kind, idx, size_class)| match kind {
        0 => PoolOp::Create(size_class),
        1 => PoolOp::CloneHandle(idx),
        2 => PoolOp::Mutate(idx),
        _ => PoolOp::Drop(idx),
    })
}

/// Forward + backward over a mixed-op expression; returns the bit
/// patterns of the loss and both leaf gradients.
fn forward_backward(a: &Tensor, b: &Tensor) -> (u32, Vec<u32>, Vec<u32>) {
    let tape = Tape::new();
    let av = tape.leaf(a.clone(), true);
    let bv = tape.leaf(b.clone(), true);
    // Exercise elementwise, matmul, reduction, and diamond paths.
    let prod = av.matmul(&bv.t()); // [m, m]
    let mixed = av.mul(&bv).add(&av).relu().sum_axes(&[1], true);
    let loss = prod.sum_all().add(&mixed.sum_all()).mul_scalar(0.5);
    let grads = tape.backward(loss);
    let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    (loss.value().item().to_bits(), bits(grads.get(av).unwrap()), bits(grads.get(bv).unwrap()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Recycling never aliases a live buffer: under any interleaving of
    /// creates/clones/mutations/drops, every live tensor still holds
    /// exactly the marker value last written to it.
    #[test]
    fn no_aliasing_of_live_buffers(ops in prop::collection::vec(pool_op(), 1..40)) {
        let _guard = pool_lock();
        mem::set_mem_cap(usize::MAX);
        mem::trim();
        let mut live: Vec<(Tensor, f32)> = Vec::new();
        let mut next_marker = 1.0f32;
        for op in ops {
            match op {
                PoolOp::Create(size_class) => {
                    let n = 64usize << size_class;
                    live.push((Tensor::full(&[n], next_marker), next_marker));
                    next_marker += 1.0;
                }
                PoolOp::CloneHandle(idx) if !live.is_empty() => {
                    let (t, m) = &live[idx % live.len()];
                    let cloned = (t.clone(), *m);
                    live.push(cloned);
                }
                PoolOp::Mutate(idx) if !live.is_empty() => {
                    let idx = idx % live.len();
                    let m = next_marker;
                    next_marker += 1.0;
                    // Copy-on-write: only this handle may observe the write.
                    live[idx].0.map_inplace(move |_| m);
                    live[idx].1 = m;
                }
                PoolOp::Drop(idx) if !live.is_empty() => {
                    live.swap_remove(idx % live.len());
                }
                _ => {}
            }
            for (t, marker) in &live {
                prop_assert!(
                    t.as_slice().iter().all(|v| v == marker),
                    "live tensor corrupted: expected {marker}"
                );
            }
        }
        drop(live);
        mem::trim();
        mem::set_mem_cap(usize::MAX);
    }

    /// Kernels taking recycled buffers overwrite every element: after
    /// seeding the pool with sentinel-filled buffers of matching sizes,
    /// constructor/op outputs match the pool-off results bit for bit.
    #[test]
    fn recycled_buffers_fully_overwritten(
        data in prop::collection::vec(-2.0f32..2.0, 24..=24),
        sentinel in 100.0f32..1000.0,
    ) {
        let _guard = pool_lock();
        let src = Tensor::from_vec(data, &[4, 6]);
        // Pool off: reference results from fresh allocations.
        mem::set_mem_cap(0);
        mem::trim();
        let reference: Vec<Tensor> = vec![
            Tensor::zeros(&[4, 6]),
            Tensor::full(&[4, 6], 3.5),
            src.map(|v| v * 2.0 + 1.0),
            src.zip_map(&src, |a, b| a * b + a),
            src.sum_axes(&[0], false),
            src.narrow(1, 1, 3),
            src.broadcast_to(&[2, 4, 6]),
            src.matmul(&src.t()),
        ];
        // Pool on, seeded with sentinel-filled garbage of every size the
        // ops above will request.
        mem::set_mem_cap(usize::MAX);
        for _ in 0..3 {
            for n in [6usize, 18, 24, 16, 48] {
                drop(Tensor::full(&[n], sentinel));
            }
        }
        let pooled: Vec<Tensor> = vec![
            Tensor::zeros(&[4, 6]),
            Tensor::full(&[4, 6], 3.5),
            src.map(|v| v * 2.0 + 1.0),
            src.zip_map(&src, |a, b| a * b + a),
            src.sum_axes(&[0], false),
            src.narrow(1, 1, 3),
            src.broadcast_to(&[2, 4, 6]),
            src.matmul(&src.t()),
        ];
        for (i, (r, p)) in reference.iter().zip(&pooled).enumerate() {
            prop_assert_eq!(r.shape(), p.shape(), "op {} shape", i);
            let rb: Vec<u32> = r.as_slice().iter().map(|v| v.to_bits()).collect();
            let pb: Vec<u32> = p.as_slice().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(rb, pb, "op {} leaked stale pool data", i);
        }
        mem::trim();
        mem::set_mem_cap(usize::MAX);
    }

    /// Forward + backward are bit-identical with the pool disabled vs
    /// enabled (warm, so the enabled run actually reuses buffers).
    #[test]
    fn pool_on_off_bit_identical(
        a_data in prop::collection::vec(-2.0f32..2.0, 12..=12),
        b_data in prop::collection::vec(-2.0f32..2.0, 12..=12),
    ) {
        let _guard = pool_lock();
        let a = Tensor::from_vec(a_data, &[3, 4]);
        let b = Tensor::from_vec(b_data, &[3, 4]);
        mem::set_mem_cap(0);
        mem::trim();
        let unpooled = forward_backward(&a, &b);
        mem::set_mem_cap(usize::MAX);
        let _warmup = forward_backward(&a, &b); // populate the free lists
        let pooled = forward_backward(&a, &b);  // now served from the pool
        prop_assert_eq!(unpooled, pooled, "pool on/off must not change any bit");
        mem::trim();
        mem::set_mem_cap(usize::MAX);
    }
}

/// Inside an inference region a scoped step's intermediates are back in
/// the pool when `scoped` returns; recorded on the tape itself they stay
/// alive until the tape drops.
#[test]
fn scoped_step_returns_its_intermediates_to_the_pool() {
    let _guard = pool_lock();
    mem::set_mem_cap(usize::MAX);
    let x = Tensor::full(&[4096], 0.25);
    let step = |tape: &Tape| -> usize {
        let xv = tape.constant(x.clone());
        mem::trim();
        // Two 4096-element intermediates (16 KiB each), a scalar output.
        let out = tape.scoped(&[xv], |_, v| vec![v[0].mul_scalar(2.0).add_scalar(1.0).sum_all()]);
        assert_eq!(out[0].value().item(), 4096.0 * 1.5);
        mem::retained_bytes()
    };
    let recorded = step(&Tape::new());
    let scoped = {
        let _inf = inference::InferenceGuard::enter();
        step(&Tape::new())
    };
    assert_eq!(recorded, 0, "outside inference the tape keeps every intermediate");
    assert_eq!(scoped, 2 * 4096 * 4, "both intermediates recycled before scoped returns");
    mem::trim();
}
