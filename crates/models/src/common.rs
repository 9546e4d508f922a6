//! Shared model interface: every architecture maps a `[B, T_in, N, C]`
//! window to `[B, T_out, N]` predictions on the normalised scale.

use rand::rngs::StdRng;
use traffic_graph::{
    diffusion_supports, gaussian_adjacency, row_normalize, scaled_laplacian, spectral_embedding,
    symmetrize, RoadNetwork,
};
use traffic_nn::ParamStore;
use traffic_tensor::{Tape, Tensor, Var};

use crate::meta::ModelMeta;

/// Pre-computed graph material shared by all models for one dataset.
#[derive(Clone)]
pub struct GraphContext {
    /// Number of sensors.
    pub n: usize,
    /// Gaussian-kernel weighted adjacency (directed, self-loops).
    pub adjacency: Tensor,
    /// Rescaled Chebyshev Laplacian `L̃` (spectral GCNs).
    pub scaled_laplacian: Tensor,
    /// Forward/backward random-walk transitions (diffusion GCNs).
    pub supports: Vec<Tensor>,
    /// Row-normalised symmetric adjacency (dense GCNs).
    pub row_norm_adj: Tensor,
    /// Spectral node embedding `[N, se_dim]` (GMAN, ST-MetaNet meta
    /// knowledge).
    pub node_embedding: Tensor,
}

impl GraphContext {
    /// Builds every matrix from a road network. `se_dim` sizes the node
    /// embedding.
    pub fn from_network(net: &RoadNetwork, se_dim: usize) -> Self {
        Self::from_adjacency(gaussian_adjacency(net, 0.05), se_dim)
    }

    /// Derives every matrix from a weighted `[N, N]` adjacency (the one
    /// derivation shared by training and snapshot loading).
    pub fn from_adjacency(adjacency: Tensor, se_dim: usize) -> Self {
        GraphContext {
            n: adjacency.shape()[0],
            scaled_laplacian: scaled_laplacian(&adjacency),
            supports: diffusion_supports(&adjacency),
            row_norm_adj: row_normalize(&symmetrize(&adjacency)),
            node_embedding: spectral_embedding(&adjacency, se_dim),
            adjacency,
        }
    }
}

/// Extra context available during training forward passes.
pub struct TrainCtx<'a> {
    /// RNG for dropout masks and scheduled-sampling coin flips.
    pub rng: &'a mut StdRng,
    /// Normalised ground-truth targets `[B, T_out, N]` for scheduled
    /// sampling (seq2seq models).
    pub teacher: Option<&'a Tensor>,
    /// Probability of feeding ground truth instead of the model's own
    /// prediction at each decoder step.
    pub teacher_prob: f32,
}

/// The common model interface.
pub trait TrafficModel {
    /// Model name as printed in the paper's tables.
    fn name(&self) -> &'static str;

    /// Table II taxonomy entry.
    fn meta(&self) -> ModelMeta;

    /// The parameter store (for optimizers and the Table III param count).
    fn store(&self) -> &ParamStore;

    /// Forward pass: `x` is `[B, T_in, N, C]`, returns `[B, T_out, N]`
    /// (z-scored scale). `train` is `None` during evaluation.
    fn forward<'t>(&self, tape: &'t Tape, x: Var<'t>, train: Option<&mut TrainCtx<'_>>) -> Var<'t>;

    /// Total number of scalar parameters.
    fn num_params(&self) -> usize {
        self.store().num_scalars()
    }
}

/// Helper: `[B, T, N, C] -> [B, C, N, T]` (conv layout).
pub fn to_conv_layout<'t>(x: Var<'t>) -> Var<'t> {
    x.permute(&[0, 3, 2, 1])
}

/// Helper: `[B, C, N, T] -> [B, T, N, C]`.
pub fn from_conv_layout<'t>(x: Var<'t>) -> Var<'t> {
    x.permute(&[0, 3, 2, 1])
}

/// Advances a `[B]`-like time-of-day feature by one 5-minute step
/// (used by autoregressive rollouts to extend the input window).
pub fn advance_time_of_day(t: f32) -> f32 {
    let next = t + 1.0 / crate::STEPS_PER_DAY as f32;
    if next >= 1.0 {
        next - 1.0
    } else {
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use traffic_graph::freeway_corridor;

    #[test]
    fn graph_context_builds_consistent_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = freeway_corridor(10, 1.0, &mut rng);
        let ctx = GraphContext::from_network(&net, 4);
        assert_eq!(ctx.n, 10);
        assert_eq!(ctx.adjacency.shape(), &[10, 10]);
        assert_eq!(ctx.scaled_laplacian.shape(), &[10, 10]);
        assert_eq!(ctx.supports.len(), 2);
        assert_eq!(ctx.row_norm_adj.shape(), &[10, 10]);
        assert_eq!(ctx.node_embedding.shape(), &[10, 4]);
        assert!(!ctx.scaled_laplacian.has_non_finite());
        assert!(!ctx.node_embedding.has_non_finite());
    }

    #[test]
    fn layout_roundtrip() {
        let tape = Tape::new();
        let x = tape.constant(Tensor::arange(2 * 3 * 4 * 5).reshape(&[2, 3, 4, 5]));
        let y = from_conv_layout(to_conv_layout(x));
        assert_eq!(y.value(), x.value());
    }

    #[test]
    fn tod_advance_wraps() {
        assert!((advance_time_of_day(0.0) - 1.0 / 288.0).abs() < 1e-6);
        let last = 287.0 / 288.0;
        assert!(advance_time_of_day(last).abs() < 1e-6);
    }
}
