//! Persistent zero-dependency worker pool shared by every tensor kernel.
//!
//! The seed engine spawned fresh `std::thread::scope` threads on every
//! batched matmul, paying thread start-up (~10 µs each) per call and
//! leaving batch-1 graph-conv products — the dominant cost of the
//! DCRNN/STGCN/Graph-WaveNet forward passes — entirely serial. This
//! module replaces that with a lazy global pool:
//!
//! - sized from `TRAFFIC_THREADS` (env) or `available_parallelism`;
//! - scoped [`parallel_for`] / [`parallel_chunks_mut`] /
//!   [`parallel_ranges_mut`] APIs that block until every task finished,
//!   so closures may safely borrow caller-local data;
//! - deterministic by construction: tasks own disjoint output ranges
//!   and never split a reduction, so results are bit-identical at any
//!   thread count (see the STGCN determinism test in `tests/`);
//! - observable: `compute/pool_tasks` (counter) and
//!   `compute/pool_queue_depth` (gauge) in the `traffic-obs` registry.
//!
//! Nested calls (a parallel kernel invoked from inside a pool task) run
//! inline on the calling task's thread, so composite ops cannot
//! deadlock the pool.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Break work into at most this many tasks per participating thread;
/// a little oversubscription smooths uneven task costs.
const TASKS_PER_THREAD: usize = 2;

// ---------------------------------------------------------------------
// Latch: completion barrier shared by one dispatch
// ---------------------------------------------------------------------

struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn new(tasks: usize) -> Arc<Latch> {
        Arc::new(Latch {
            remaining: Mutex::new(tasks),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        })
    }

    /// Marks one task finished. The counter lives inside the mutex so a
    /// waiter can never observe zero and free the latch while a
    /// completer still touches it.
    fn complete(&self) {
        let mut left = self.remaining.lock().expect("pool latch poisoned");
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.remaining.lock().expect("pool latch poisoned");
        while *left > 0 {
            left = self.done.wait(left).expect("pool latch poisoned");
        }
    }
}

// ---------------------------------------------------------------------
// Jobs and the shared queue
// ---------------------------------------------------------------------

/// One index range of a dispatch. `body` points at the caller's closure;
/// the caller blocks on `latch` before returning, which keeps the
/// borrow alive for as long as any job can run (see SAFETY below).
struct Job {
    body: *const (dyn Fn(Range<usize>) + Sync),
    range: Range<usize>,
    latch: Arc<Latch>,
}

// SAFETY: the closure behind `body` is `Sync` (shared execution from
// many threads is fine) and outlives the job because `parallel_for`
// waits on `latch` — which every job completes, panic or not — before
// the borrow ends.
unsafe impl Send for Job {}

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    work_ready: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    /// Worker threads plus the calling thread.
    threads: usize,
}

fn run_job(job: Job) {
    metrics().tasks.inc();
    let body = job.body;
    // Propagate panics to the dispatching thread instead of aborting a
    // detached worker; the latch must complete regardless.
    let result = catch_unwind(AssertUnwindSafe(|| {
        // SAFETY: see `Job` — the closure outlives the job.
        (unsafe { &*body })(job.range.clone())
    }));
    if result.is_err() {
        job.latch.panicked.store(true, Ordering::Release);
    }
    job.latch.complete();
}

fn worker_loop(shared: Arc<Shared>) {
    IN_TASK.with(|f| f.set(true)); // nested dispatch from a worker runs inline
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = q.pop_front() {
                    metrics().queue_depth.set(q.len() as f64);
                    break job;
                }
                q = shared.work_ready.wait(q).expect("pool queue poisoned");
            }
        };
        // One trace-event per task on a worker lane: gaps between
        // `pool/task` blocks are queue stalls. Tasks the dispatching
        // thread drains itself get no frame of their own, so they count
        // as self time of the op that dispatched them (its wall time on
        // that thread).
        let _prof = traffic_obs::profile::op("pool", "task");
        run_job(job);
    }
}

// ---------------------------------------------------------------------
// Global pool state
// ---------------------------------------------------------------------

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// True while this thread is executing a pool task (worker threads
    /// permanently; dispatching threads while helping). Nested
    /// parallel ops then run inline instead of re-entering the queue.
    static IN_TASK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };

    /// Per-thread cap on threads a dispatch from this thread may use
    /// (`usize::MAX` = uncapped). Scoped via [`ThreadCapGuard`]; being
    /// thread-local is what lets the experiment scheduler give each of
    /// its job threads a private core group without the old
    /// process-global `set_thread_cap` races.
    static LOCAL_CAP: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

struct PoolMetrics {
    tasks: &'static traffic_obs::Counter,
    queue_depth: &'static traffic_obs::Gauge,
}

fn metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PoolMetrics {
        tasks: traffic_obs::counter("compute/pool_tasks"),
        queue_depth: traffic_obs::gauge("compute/pool_queue_depth"),
    })
}

fn configured_threads() -> usize {
    std::env::var("TRAFFIC_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let threads = configured_threads();
        let shared =
            Arc::new(Shared { queue: Mutex::new(VecDeque::new()), work_ready: Condvar::new() });
        for i in 0..threads.saturating_sub(1) {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("traffic-compute-{i}"))
                .spawn(move || worker_loop(shared))
                .expect("failed to spawn pool worker");
        }
        Pool { shared, threads }
    })
}

/// Threads the pool was built with (`TRAFFIC_THREADS` or hardware).
pub fn num_threads() -> usize {
    pool().threads
}

/// Scoped, per-thread cap on the threads a dispatch may use. Replaces
/// the old process-global `set_thread_cap`, whose set/reset pairs raced
/// across concurrent callers and leaked caps on early return.
///
/// While the guard is alive, every [`parallel_for`] issued *from this
/// thread* fans out to at most `cap` threads (`1` forces inline serial
/// execution); drop restores the enclosing cap. Nesting only shrinks:
/// an inner guard is clamped to the enclosing cap, so a scheduler core
/// group created inside a user cap can never exceed the user cap. The
/// pool workers stay alive either way; this only limits task fan-out.
///
/// The guard is `!Send` — it must be dropped on the thread that
/// created it.
#[must_use = "the cap is restored when the guard drops"]
pub struct ThreadCapGuard {
    prev: usize,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl ThreadCapGuard {
    /// Caps dispatch fan-out from the current thread at
    /// `min(cap.max(1), enclosing cap)` until drop.
    pub fn new(cap: usize) -> Self {
        let prev = LOCAL_CAP.with(|c| c.get());
        LOCAL_CAP.with(|c| c.set(cap.max(1).min(prev)));
        ThreadCapGuard { prev, _not_send: std::marker::PhantomData }
    }
}

impl Drop for ThreadCapGuard {
    fn drop(&mut self) {
        LOCAL_CAP.with(|c| c.set(self.prev));
    }
}

/// The cap in effect on the current thread (`usize::MAX` when
/// uncapped). The experiment scheduler reads this to clamp the core
/// groups it hands its job threads under a caller's enclosing cap.
pub fn current_cap() -> usize {
    LOCAL_CAP.with(|c| c.get())
}

/// Current effective parallelism: pool width limited by this thread's
/// scoped cap.
pub fn effective_threads() -> usize {
    num_threads().min(current_cap())
}

/// Spins the pool up (thread creation, first-touch of queue memory) so
/// the cost is not charged to the first span-timed kernel. Used by the
/// Table III harness before any measured region.
pub fn warmup() {
    let threads = num_threads();
    if threads > 1 {
        // Touch every worker with a trivial dispatch.
        parallel_for(threads * TASKS_PER_THREAD, 1, |r| {
            std::hint::black_box(r.len());
        });
    }
}

// ---------------------------------------------------------------------
// Dispatch APIs
// ---------------------------------------------------------------------

/// Runs `body` over `0..n`, split into disjoint sub-ranges executed
/// across the pool. Blocks until every range completed. `grain` is the
/// minimum range length worth a task; when `n <= grain`, the cap is 1,
/// or the caller is already inside a pool task, `body(0..n)` runs
/// inline.
///
/// Determinism: ranges are disjoint, so as long as `body` writes only
/// to locations indexed by its range the result is independent of
/// thread count and scheduling order.
pub fn parallel_for(n: usize, grain: usize, body: impl Fn(Range<usize>) + Sync) {
    if n == 0 {
        return;
    }
    let grain = grain.max(1);
    let threads = effective_threads();
    let max_tasks = n.div_ceil(grain);
    if threads <= 1 || max_tasks <= 1 || IN_TASK.with(|f| f.get()) {
        body(0..n);
        return;
    }
    let tasks = max_tasks.min(threads * TASKS_PER_THREAD);
    let chunk = n.div_ceil(tasks);
    let tasks = n.div_ceil(chunk); // re-derive so the last chunk is non-empty
    let latch = Latch::new(tasks);
    let body_ref: &(dyn Fn(Range<usize>) + Sync) = &body;
    // SAFETY: we erase the borrow's lifetime to enqueue it; `latch.wait()`
    // below does not return until every job (each of which completes the
    // latch even on panic) has finished with the pointer.
    let body_ptr: *const (dyn Fn(Range<usize>) + Sync) = unsafe { std::mem::transmute(body_ref) };
    let shared = &pool().shared;
    {
        let mut q = shared.queue.lock().expect("pool queue poisoned");
        for t in 0..tasks {
            let lo = t * chunk;
            let hi = (lo + chunk).min(n);
            q.push_back(Job { body: body_ptr, range: lo..hi, latch: Arc::clone(&latch) });
        }
        metrics().queue_depth.set(q.len() as f64);
        shared.work_ready.notify_all();
    }
    // Help drain the queue instead of idling; mark the thread as inside
    // a task so anything `body` dispatches runs inline.
    IN_TASK.with(|f| f.set(true));
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("pool queue poisoned");
            let job = q.pop_front();
            if job.is_some() {
                metrics().queue_depth.set(q.len() as f64);
            }
            job
        };
        match job {
            Some(job) => run_job(job),
            None => break,
        }
    }
    IN_TASK.with(|f| f.set(false));
    latch.wait();
    if latch.panicked.load(Ordering::Acquire) {
        panic!("a traffic-compute pool task panicked");
    }
}

/// Splits `data` into consecutive chunks of `chunk_len` elements and
/// runs `body(chunk_index, chunk)` for each across the pool. The final
/// chunk may be shorter. Chunks are disjoint `&mut` borrows, so this is
/// a safe fork-join over an output buffer.
pub fn parallel_chunks_mut<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    body: impl Fn(usize, &mut [T]) + Sync,
) {
    let len = data.len();
    if len == 0 {
        return;
    }
    let chunk_len = chunk_len.max(1);
    let n_chunks = len.div_ceil(chunk_len);
    let base = SendPtr(data.as_mut_ptr());
    parallel_for(n_chunks, 1, move |range| {
        let base = base; // capture the Sync wrapper, not the raw field
        for ci in range {
            let start = ci * chunk_len;
            let end = (start + chunk_len).min(len);
            // SAFETY: chunk indices are disjoint across all tasks and
            // `data` is exclusively borrowed for the whole dispatch.
            let chunk = unsafe { std::slice::from_raw_parts_mut(base.0.add(start), end - start) };
            body(ci, chunk);
        }
    });
}

/// Like [`parallel_chunks_mut`] but over caller-supplied ranges, which
/// must be sorted and non-overlapping (checked). Used by the batched
/// matmul to hand each task a `(batch, row-block)` slice of the output.
pub fn parallel_ranges_mut<T: Send>(
    data: &mut [T],
    ranges: &[Range<usize>],
    body: impl Fn(usize, &mut [T]) + Sync,
) {
    let len = data.len();
    let mut prev_end = 0usize;
    for r in ranges {
        assert!(
            r.start >= prev_end && r.end <= len,
            "parallel_ranges_mut: overlapping or out-of-bounds range {r:?}"
        );
        prev_end = r.end;
    }
    let base = SendPtr(data.as_mut_ptr());
    parallel_for(ranges.len(), 1, move |task_range| {
        let base = base; // capture the Sync wrapper, not the raw field
        for ri in task_range {
            let r = ranges[ri].clone();
            // SAFETY: ranges verified disjoint and in-bounds above;
            // `data` is exclusively borrowed for the whole dispatch.
            let chunk =
                unsafe { std::slice::from_raw_parts_mut(base.0.add(r.start), r.end - r.start) };
            body(ri, chunk);
        }
    });
}

/// Raw pointer wrapper so disjoint sub-slices can cross task
/// boundaries. Soundness is argued at each use site.
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn covers_every_index_exactly_once() {
        let n = 10_007;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for(n, 16, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn chunks_mut_writes_disjoint() {
        let mut data = vec![0u32; 1000];
        parallel_chunks_mut(&mut data, 64, |ci, chunk| {
            for v in chunk.iter_mut() {
                *v = ci as u32 + 1;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, (i / 64) as u32 + 1);
        }
    }

    #[test]
    fn ranges_mut_respects_bounds() {
        let mut data = vec![0u8; 100];
        let ranges = vec![0..10, 10..55, 60..100];
        parallel_ranges_mut(&mut data, &ranges, |ri, chunk| {
            for v in chunk.iter_mut() {
                *v = ri as u8 + 1;
            }
        });
        assert!(data[..10].iter().all(|&v| v == 1));
        assert!(data[10..55].iter().all(|&v| v == 2));
        assert!(data[55..60].iter().all(|&v| v == 0)); // gap untouched
        assert!(data[60..].iter().all(|&v| v == 3));
    }

    #[test]
    fn worker_panic_propagates() {
        if effective_threads() <= 1 {
            return; // degenerate 1-core host: nothing crosses a thread
        }
        let result = std::panic::catch_unwind(|| {
            parallel_for(1024, 1, |r| {
                if r.contains(&500) {
                    panic!("boom");
                }
            });
        });
        assert!(result.is_err(), "panic inside a task must reach the dispatcher");
    }

    #[test]
    fn nested_dispatch_runs_inline() {
        let n = 256;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for(4, 1, |outer| {
            for _ in outer {
                parallel_for(n, 1, |inner| {
                    for i in inner {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 4));
    }

    #[test]
    fn cap_one_is_serial_inline() {
        let _cap = ThreadCapGuard::new(1);
        let tid = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        parallel_for(100, 1, |r| {
            assert_eq!(std::thread::current().id(), tid);
            seen.lock().unwrap().push(r);
        });
        assert_eq!(seen.into_inner().unwrap(), vec![0..100]);
    }

    #[test]
    fn cap_guard_restores_on_drop() {
        let before = current_cap();
        {
            let _cap = ThreadCapGuard::new(3);
            assert_eq!(current_cap(), 3);
        }
        assert_eq!(current_cap(), before);
    }

    #[test]
    fn nested_caps_only_shrink() {
        let _outer = ThreadCapGuard::new(2);
        assert_eq!(current_cap(), 2);
        {
            // A wider inner cap is clamped to the enclosing one…
            let _inner = ThreadCapGuard::new(8);
            assert_eq!(current_cap(), 2);
        }
        {
            // …while a narrower one takes effect and restores on drop.
            let _inner = ThreadCapGuard::new(1);
            assert_eq!(current_cap(), 1);
        }
        assert_eq!(current_cap(), 2);
    }

    #[test]
    fn cap_is_thread_local() {
        let _cap = ThreadCapGuard::new(1);
        assert_eq!(current_cap(), 1);
        std::thread::spawn(|| {
            assert_eq!(current_cap(), usize::MAX, "caps must not leak across threads");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn zero_cap_clamps_to_one() {
        let _cap = ThreadCapGuard::new(0);
        assert_eq!(current_cap(), 1);
    }
}
