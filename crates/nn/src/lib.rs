//! # traffic-nn
//!
//! Neural-network building blocks on top of [`traffic_tensor`]: parameter
//! management, layers (linear / conv / recurrent / attention / graph
//! convolutions), masked regression losses, and optimizers.
//!
//! Every layer follows the same conventions:
//! - construction registers parameters in a caller-supplied [`ParamStore`]
//!   under a dotted name prefix, with an explicit RNG for reproducibility;
//! - `forward` takes the active [`traffic_tensor::Tape`] plus input
//!   [`traffic_tensor::Var`]s and returns a `Var` on the same tape.

pub mod attention;
pub mod checkpoint;
pub mod conv;
pub mod embedding;
pub mod graphconv;
pub mod linear;
pub mod loss;
pub mod norm;
pub mod optim;
pub mod param;
pub mod rnn;
pub mod tnn2;

pub use attention::{scaled_dot_attention, MultiHeadAttention};
pub use checkpoint::{load_weights, save_weights, CheckpointError};
pub use conv::{Conv2d, GatedTemporalConv, TemporalPadding};
pub use embedding::Embedding;
pub use graphconv::{ChebConv, DenseGraphConv, DiffusionConv, GraphAttention};
pub use linear::Linear;
pub use norm::{BatchNorm2d, LayerNorm};
pub use optim::{Adam, AdamState, Sgd, StepDecay};
pub use param::{GroupHealth, Param, ParamStore, Parameter};
pub use rnn::{GruCell, LstmCell};

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
