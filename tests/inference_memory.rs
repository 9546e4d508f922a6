//! Inference takes every kernel output from the buffer pool and hands it
//! back within the forward: once one `predict` has filled the pool's size
//! classes, a second `predict` of the same windows allocates nothing
//! fresh, misses the pool nowhere, and asks the allocator for no large
//! block at all. The counting global allocator sees buffers built outside
//! the pool, which the pool's own counters cannot.
//!
//! The `mem/*` counters and the allocator count are process-global, so
//! this binary holds this one test only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use traffic_suite::core::predict;
use traffic_suite::data::{prepare, simulate, SimConfig, Task};
use traffic_suite::models::{build_model, GraphContext};
use traffic_suite::obs::counter;
use traffic_suite::tensor::{mem, sparse, Tensor};

/// Counts heap blocks of at least [`LARGE`] bytes, however they were
/// allocated: an op output built outside the pool shows here even when
/// the pool's own counters cannot see it.
struct CountLarge;

const LARGE: usize = 16 << 10;
static LARGE_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountLarge {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountLarge = CountLarge;

#[test]
fn second_predict_takes_every_buffer_from_the_pool() {
    mem::set_mem_cap(256 << 20);
    // 40 sensors: sparse enough that the diffusion supports run as CSR
    // SpMM, the kernel whose output once bypassed the pool.
    let mut cfg = SimConfig::new("inference-memory", Task::Speed, 40, 3);
    cfg.missing_rate = 0.0;
    let ds = simulate(&cfg);
    let data = prepare(&ds, 12, 12);
    let ctx = GraphContext::from_network(&ds.network, 4);
    assert!(
        ctx.supports.iter().all(|s| sparse::Propagator::from_matrix(s.clone()).is_sparse()),
        "the supports must take the SpMM path"
    );
    let test = data.test.truncate(10);
    let (fresh, misses) = (counter("mem/bytes_allocated"), counter("mem/pool_misses"));
    for name in ["DCRNN", "Graph-WaveNet"] {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        let model = build_model(name, &ctx, &mut rng);
        let run = || predict(model.as_ref(), &test, &data.scaler, 4);
        let bits = |t: &Tensor| -> Vec<u32> { t.as_slice().iter().map(|v| v.to_bits()).collect() };
        // Only bits are kept, so the first output's buffer goes back to the pool.
        let warm = bits(&run());
        let (fresh0, misses0) = (fresh.get(), misses.get());
        let large0 = LARGE_BYTES.load(Ordering::Relaxed);
        let pred = run();
        let large = LARGE_BYTES.load(Ordering::Relaxed) - large0;
        let again = bits(&pred);
        assert_eq!(fresh.get() - fresh0, 0, "{name}: fresh bytes in a warm predict");
        assert_eq!(misses.get() - misses0, 0, "{name}: pool misses in a warm predict");
        assert_eq!(large, 0, "{name}: {large} bytes of large blocks outside the pool");
        assert_eq!(warm, again, "{name}: predictions changed between passes");
    }
}
