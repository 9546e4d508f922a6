//! Thread-local inference mode.
//!
//! The trainer's no-grad paths (`predict`, `validation_loss`) enter
//! this mode via the RAII [`InferenceGuard`]; model code can then skip
//! work that only matters for backprop — parameters bind as constant
//! leaves (`traffic_nn::Parameter::var`), so no backward closure or
//! backward-only buffer is recorded, and Graph-WaveNet serves its
//! adaptive adjacency from a materialized cache instead of rebuilding
//! the `softmax(relu(E₁E₂ᵀ))` subgraph every forward pass.
//!
//! Rules:
//!
//! - **Thread-local.** Concurrent experiment cells on other threads are
//!   unaffected; the guard is `!Send` so it drops where it was created.
//! - **Nestable.** A depth counter, not a flag: nested guards are fine
//!   and the mode ends when the outermost guard drops.
//! - **Value-preserving only.** Inference mode may change *how* a value
//!   is computed (cached vs recomputed), never the value itself — the
//!   parallel-vs-serial determinism tests pin this down.
//!
//! `set_force_off` (the `TRAFFIC_INFER_CACHE=0` equivalent) makes
//! [`active`] report `false` regardless of guards, so benches can
//! measure the uncached, gradient-recording path in-process, and tests
//! can check it gives the same bits — mirroring
//! [`crate::simd::set_force_scalar`].

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

thread_local! {
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

static FORCE_OFF: AtomicBool = AtomicBool::new(false);

/// RAII guard marking the current thread as inside a no-grad inference
/// region. `!Send`: must drop on the creating thread.
#[must_use = "inference mode ends when the guard drops"]
pub struct InferenceGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl InferenceGuard {
    /// Enters inference mode on the current thread (nestable).
    pub fn enter() -> Self {
        DEPTH.with(|d| d.set(d.get() + 1));
        InferenceGuard { _not_send: std::marker::PhantomData }
    }
}

impl Drop for InferenceGuard {
    fn drop(&mut self) {
        DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// True while the current thread is inside an [`InferenceGuard`] and
/// the mode is not force-disabled.
pub fn active() -> bool {
    !FORCE_OFF.load(Ordering::Relaxed) && DEPTH.with(|d| d.get()) > 0
}

/// Force-disables inference-mode shortcuts process-wide (benches and
/// ablations measuring the uncached path). Pass `false` to restore.
pub fn set_force_off(off: bool) {
    FORCE_OFF.store(off, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_nests_and_restores() {
        assert!(!active());
        {
            let _a = InferenceGuard::enter();
            assert!(active());
            {
                let _b = InferenceGuard::enter();
                assert!(active());
            }
            assert!(active());
        }
        assert!(!active());
    }

    #[test]
    fn mode_is_thread_local() {
        let _g = InferenceGuard::enter();
        assert!(active());
        std::thread::spawn(|| assert!(!active(), "inference mode must not leak across threads"))
            .join()
            .unwrap();
    }
}
