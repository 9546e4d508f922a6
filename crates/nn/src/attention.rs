//! Attention primitives: scaled dot-product and multi-head attention.
//!
//! GMAN applies these over both the node axis (spatial attention) and the
//! time axis (temporal attention); ASTGCN uses learned attention score maps.

use rand::Rng;
use traffic_tensor::{Tape, Var};

use crate::linear::Linear;
use crate::param::ParamStore;

/// Scaled dot-product attention `softmax(q·kᵀ / √D)·v`, one fused tape
/// node ([`Var::attention`]).
///
/// `q: [..., Lq, D]`, `k: [..., Lk, D]`, `v: [..., Lk, Dv]` →
/// `[..., Lq, Dv]`. The leading axes of all three must be equal (they
/// do not broadcast).
pub fn scaled_dot_attention<'t>(q: Var<'t>, k: Var<'t>, v: Var<'t>) -> Var<'t> {
    let d = *q.shape().last().expect("attention operands need rank >= 2") as f32;
    q.attention(&k, &v, 1.0 / d.sqrt())
}

/// Multi-head attention with learned Q/K/V/output projections.
///
/// Heads are materialised by splitting the projected feature axis; all
/// computation stays batched.
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    d_model: usize,
}

impl MultiHeadAttention {
    /// `d_model` must be divisible by `heads`.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        d_model: usize,
        heads: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(d_model.is_multiple_of(heads), "d_model {d_model} not divisible by heads {heads}");
        MultiHeadAttention {
            wq: Linear::new(store, &format!("{prefix}.wq"), d_model, d_model, true, rng),
            wk: Linear::new(store, &format!("{prefix}.wk"), d_model, d_model, true, rng),
            wv: Linear::new(store, &format!("{prefix}.wv"), d_model, d_model, true, rng),
            wo: Linear::new(store, &format!("{prefix}.wo"), d_model, d_model, true, rng),
            heads,
            d_model,
        }
    }

    /// Attention where queries attend over keys/values.
    ///
    /// `query: [B, Lq, D]`, `context: [B, Lk, D]` → `[B, Lq, D]`.
    pub fn forward<'t>(&self, tape: &'t Tape, query: Var<'t>, context: Var<'t>) -> Var<'t> {
        let qs = query.shape();
        let ks = context.shape();
        assert_eq!(qs.len(), 3, "MultiHeadAttention expects [B, L, D] inputs");
        let (b, lq, _) = (qs[0], qs[1], qs[2]);
        let lk = ks[1];
        let dh = self.d_model / self.heads;
        // Project, split into heads: [B, L, D] -> [B, L, H, dh] -> [B, H, L, dh]
        let split =
            |x: Var<'t>, l: usize| x.reshape(&[b, l, self.heads, dh]).permute(&[0, 2, 1, 3]);
        let q = split(self.wq.forward(tape, query), lq);
        let k = split(self.wk.forward(tape, context), lk);
        let v = split(self.wv.forward(tape, context), lk);
        let attended = scaled_dot_attention(q, k, v); // [B, H, Lq, dh]
        let merged = attended.permute(&[0, 2, 1, 3]).reshape(&[b, lq, self.d_model]);
        self.wo.forward(tape, merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use traffic_tensor::{Tape, Tensor};

    #[test]
    fn dot_attention_uniform_when_keys_equal() {
        let tape = Tape::new();
        // identical keys -> uniform weights -> output = mean of values
        let q = tape.constant(Tensor::ones(&[1, 1, 2]));
        let k = tape.constant(Tensor::ones(&[1, 3, 2]));
        let v = tape.constant(Tensor::from_vec(vec![0.0, 3.0, 6.0], &[1, 3, 1]));
        let out = scaled_dot_attention(q, k, v).value();
        assert!((out.item() - 3.0).abs() < 1e-5);
    }

    #[test]
    fn dot_attention_prefers_matching_key() {
        let tape = Tape::new();
        let q = tape.constant(Tensor::from_vec(vec![10.0, 0.0], &[1, 1, 2]));
        let k = tape.constant(Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[1, 2, 2]));
        let v = tape.constant(Tensor::from_vec(vec![1.0, -1.0], &[1, 2, 1]));
        let out = scaled_dot_attention(q, k, v).value();
        assert!(out.item() > 0.99, "expected near v[0], got {}", out.item());
    }

    #[test]
    fn mha_shapes_and_grads() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut store, "mha", 8, 2, &mut rng);
        let tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[3, 5, 8]));
        let ctx = tape.constant(Tensor::ones(&[3, 7, 8]));
        let y = mha.forward(&tape, x, ctx);
        assert_eq!(y.shape(), vec![3, 5, 8]);
        let grads = tape.backward(y.powf(2.0).mean_all());
        store.capture_grads(&tape, &grads);
        assert!(store.params().iter().all(|p| p.grad().is_some()));
    }
}
