//! Trainable parameters and the store that owns them.
//!
//! A [`Parameter`] owns its current value and (after a backward pass) its
//! gradient. During a forward pass, [`Parameter::var`] binds the parameter
//! to the active [`Tape`] exactly once and caches the binding, so layers can
//! freely call it multiple times. Inside an inference region
//! ([`traffic_tensor::inference`]) the binding is a constant leaf, so the
//! forward records no backward closures and keeps no backward-only state.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use traffic_tensor::{inference, Gradients, Tape, Tensor, Var};

/// One trainable tensor.
pub struct Parameter {
    name: String,
    value: RefCell<Tensor>,
    grad: RefCell<Option<Tensor>>,
    /// `(tape_id, var_id)` of the `requires_grad` leaf created for the
    /// current forward pass.
    binding: Cell<(u64, usize)>,
    /// The same for the constant leaf bound inside an inference region.
    /// Kept apart so a guard-made constant is never handed to a forward
    /// that records gradients, and gradient capture never reads it.
    const_binding: Cell<(u64, usize)>,
    /// Bumped on every value mutation; lets derived-tensor caches
    /// (e.g. Graph-WaveNet's materialized adaptive adjacency) detect
    /// staleness without comparing buffers — in-place optimizer steps
    /// reuse the same allocation, so pointer identity is useless.
    version: Cell<u64>,
}

/// Shared handle to a [`Parameter`].
pub type Param = Rc<Parameter>;

impl Parameter {
    fn new(name: String, value: Tensor) -> Param {
        Rc::new(Parameter {
            name,
            value: RefCell::new(value),
            grad: RefCell::new(None),
            binding: Cell::new((0, usize::MAX)),
            const_binding: Cell::new((0, usize::MAX)),
            version: Cell::new(0),
        })
    }

    /// The parameter's registered name (unique within its store).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A copy of the current value.
    pub fn value(&self) -> Tensor {
        self.value.borrow().clone()
    }

    /// Shape of the parameter.
    pub fn shape(&self) -> Vec<usize> {
        self.value.borrow().shape().to_vec()
    }

    /// Number of scalar weights.
    pub fn numel(&self) -> usize {
        self.value.borrow().len()
    }

    /// Replaces the value (used by optimizers and weight loading).
    pub fn set_value(&self, t: Tensor) {
        assert_eq!(
            t.shape(),
            self.value.borrow().shape(),
            "set_value shape mismatch for parameter {}",
            self.name
        );
        *self.value.borrow_mut() = t;
        self.version.set(self.version.get() + 1);
    }

    /// Mutates the value in place (fused optimizer steps). The closure
    /// gets the stored tensor directly; copy-on-write inside the tensor
    /// keeps any outstanding snapshots/tape leaves unchanged.
    pub fn update_value(&self, f: impl FnOnce(&mut Tensor)) {
        f(&mut self.value.borrow_mut());
        self.version.set(self.version.get() + 1);
    }

    /// Monotone mutation counter: changes whenever [`Parameter::set_value`]
    /// or [`Parameter::update_value`] touched the value. Cache keys for
    /// tensors derived from this parameter.
    pub fn version(&self) -> u64 {
        self.version.get()
    }

    /// The gradient captured by the last backward pass, if any.
    pub fn grad(&self) -> Option<Tensor> {
        self.grad.borrow().clone()
    }

    /// Replaces the stored gradient directly (fault-injection tests and
    /// custom training loops; normal training uses
    /// [`ParamStore::capture_grads`]).
    pub fn set_grad(&self, g: Tensor) {
        *self.grad.borrow_mut() = Some(g);
    }

    /// Clears the stored gradient.
    pub fn zero_grad(&self) {
        *self.grad.borrow_mut() = None;
    }

    /// Binds this parameter to `tape`, caching the binding so repeated
    /// calls during one forward pass reuse the same node. The leaf is
    /// `requires_grad` except inside an inference region, where it is a
    /// constant.
    pub fn var<'t>(&self, tape: &'t Tape) -> Var<'t> {
        let requires_grad = !inference::active();
        let slot = if requires_grad { &self.binding } else { &self.const_binding };
        let (tid, vid) = slot.get();
        if tid == tape.id() {
            return tape.var(vid);
        }
        let v = tape.leaf(self.value(), requires_grad);
        slot.set((tape.id(), v.id()));
        v
    }

    /// Accumulates the gradient for this parameter from `grads`, if it was
    /// bound to `tape` during the forward pass.
    fn capture(&self, tape: &Tape, grads: &Gradients) {
        let (tid, vid) = self.binding.get();
        if tid != tape.id() {
            return;
        }
        if let Some(g) = grads.get_by_id(vid) {
            let mut slot = self.grad.borrow_mut();
            match &mut *slot {
                // In-place accumulation: same elementwise add order as
                // the old allocating `acc.add(g)`.
                Some(acc) => acc.add_assign(g),
                none => *none = Some(g.clone()),
            }
        }
    }
}

/// Owns every parameter of a model.
#[derive(Default)]
pub struct ParamStore {
    params: Vec<Param>,
}

/// Health statistics for one parameter group (a dot-separated name
/// prefix, i.e. a layer). Produced by [`ParamStore::group_health`].
#[derive(Debug, Clone, PartialEq)]
pub struct GroupHealth {
    /// Group name (`block0.t1` for params `block0.t1.weight`, `.bias`).
    pub group: String,
    /// Parameter tensors in the group.
    pub params: usize,
    /// Scalar weights in the group.
    pub scalars: usize,
    /// L2 norm of the group's weights.
    pub weight_norm: f32,
    /// L2 norm of the group's stored gradients (`None` when no param in
    /// the group holds a gradient). NaN/∞ when gradients are poisoned.
    pub grad_norm: Option<f32>,
    /// `‖w − w_prev‖ / ‖w_prev‖` against the pre-step snapshot (`None`
    /// when [`ParamStore::group_health`] was called without one).
    pub update_ratio: Option<f32>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter. Names must be unique; a duplicate panics.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> Param {
        let name = name.into();
        assert!(self.params.iter().all(|p| p.name != name), "duplicate parameter name: {name}");
        let p = Parameter::new(name, value);
        self.params.push(Rc::clone(&p));
        p
    }

    /// All parameters in registration order.
    pub fn params(&self) -> &[Param] {
        &self.params
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar weights (the paper's "# of params").
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.numel()).sum()
    }

    /// Copies gradients out of a finished backward pass into each parameter.
    pub fn capture_grads(&self, tape: &Tape, grads: &Gradients) {
        for p in &self.params {
            p.capture(tape, grads);
        }
    }

    /// Clears all stored gradients.
    pub fn zero_grads(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    /// Global L2 norm of all gradients (0 when none stored).
    pub fn grad_norm(&self) -> f32 {
        let mut sq = 0.0f32;
        for p in &self.params {
            if let Some(g) = p.grad() {
                sq += g.as_slice().iter().map(|&v| v * v).sum::<f32>();
            }
        }
        sq.sqrt()
    }

    /// Scales all gradients so the global norm is at most `max_norm`.
    /// Returns the pre-clip norm (useful for gradient telemetry).
    ///
    /// A non-finite pre-clip norm (NaN/∞ gradients) leaves the gradients
    /// untouched and simply reports it: scaling by `max_norm / inf`
    /// would silently zero every gradient, and NaN would poison the
    /// weights on the next optimizer step. Callers are expected to test
    /// the returned norm and skip the step (the trainer does, counting
    /// it under `train/skipped_steps`).
    pub fn clip_grad_norm(&self, max_norm: f32) -> f32 {
        let norm = self.grad_norm();
        if norm.is_finite() && norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for p in &self.params {
                if let Some(g) = p.grad.borrow_mut().as_mut() {
                    // In place; same arithmetic as `g.mul_scalar(scale)`.
                    g.map_inplace(|v| v * scale);
                }
            }
        }
        norm
    }

    /// Copies every parameter value (cheap: buffers are shared until
    /// mutated). Used for best-epoch snapshots.
    pub fn snapshot(&self) -> Vec<Tensor> {
        self.params.iter().map(|p| p.value()).collect()
    }

    /// Restores values from a snapshot taken on the same store.
    pub fn restore(&self, snapshot: &[Tensor]) {
        assert_eq!(snapshot.len(), self.params.len(), "snapshot size mismatch");
        for (p, t) in self.params.iter().zip(snapshot) {
            p.set_value(t.clone());
        }
    }

    /// Per-parameter-group health statistics for the insight sampler.
    ///
    /// Parameters are grouped by their dot-separated name prefix (the
    /// "layer": `block0.t1.weight` and `block0.t1.bias` share group
    /// `block0.t1`; an undotted name is its own group), preserving
    /// registration order. Norm accumulation is f64 so NaN/∞ gradients
    /// surface as non-finite group norms instead of overflowing.
    ///
    /// `prev` — a [`ParamStore::snapshot`] taken *before* the optimizer
    /// step — enables the update/weight ratio `‖w − w_prev‖ / ‖w_prev‖`;
    /// pass `None` when no pre-step snapshot exists (blame capture).
    pub fn group_health(&self, prev: Option<&[Tensor]>) -> Vec<GroupHealth> {
        if let Some(prev) = prev {
            assert_eq!(prev.len(), self.params.len(), "group_health snapshot size mismatch");
        }
        struct Acc {
            group: String,
            params: usize,
            scalars: usize,
            w_sq: f64,
            g_sq: f64,
            has_grad: bool,
            delta_sq: f64,
            prev_sq: f64,
        }
        let mut accs: Vec<Acc> = Vec::new();
        for (i, p) in self.params.iter().enumerate() {
            let group = p.name.rsplit_once('.').map_or(p.name.as_str(), |(g, _)| g);
            let idx = match accs.iter().position(|a| a.group == group) {
                Some(idx) => idx,
                None => {
                    accs.push(Acc {
                        group: group.to_string(),
                        params: 0,
                        scalars: 0,
                        w_sq: 0.0,
                        g_sq: 0.0,
                        has_grad: false,
                        delta_sq: 0.0,
                        prev_sq: 0.0,
                    });
                    accs.len() - 1
                }
            };
            let acc = &mut accs[idx];
            acc.params += 1;
            acc.scalars += p.numel();
            let value = p.value.borrow();
            acc.w_sq += value.as_slice().iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>();
            if let Some(g) = p.grad.borrow().as_ref() {
                acc.has_grad = true;
                acc.g_sq += g.as_slice().iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>();
            }
            if let Some(prev) = prev {
                let old = prev[i].as_slice();
                for (&w, &o) in value.as_slice().iter().zip(old) {
                    let d = w as f64 - o as f64;
                    acc.delta_sq += d * d;
                    acc.prev_sq += (o as f64) * (o as f64);
                }
            }
        }
        accs.into_iter()
            .map(|a| GroupHealth {
                group: a.group,
                params: a.params,
                scalars: a.scalars,
                weight_norm: a.w_sq.sqrt() as f32,
                grad_norm: a.has_grad.then(|| a.g_sq.sqrt() as f32),
                update_ratio: prev
                    .is_some()
                    .then(|| (a.delta_sq.sqrt() / (a.prev_sq.sqrt() + 1e-12)) as f32),
            })
            .collect()
    }

    /// Overwrites every stored gradient with NaN. Fault-injection
    /// support (the trainer's `nan_grad` site): simulates a numerically
    /// blown-up backward pass so the skip-step guard can be exercised on
    /// real models.
    pub fn poison_grads(&self) {
        for p in &self.params {
            if let Some(g) = p.grad.borrow_mut().as_mut() {
                g.map_inplace(|_| f32::NAN);
            }
        }
    }

    /// True if any parameter or stored gradient contains NaN/Inf.
    pub fn has_non_finite(&self) -> bool {
        self.params
            .iter()
            .any(|p| p.value().has_non_finite() || p.grad().is_some_and(|g| g.has_non_finite()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binding_reuse_within_tape() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::ones(&[2]));
        let tape = Tape::new();
        let v1 = w.var(&tape);
        let v2 = w.var(&tape);
        assert_eq!(v1.id(), v2.id());
        let tape2 = Tape::new();
        let v3 = w.var(&tape2);
        assert_eq!(v3.id(), 0); // fresh tape, fresh leaf
    }

    #[test]
    fn inference_binding_is_a_constant_never_reused_for_grad() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(vec![2.0, 3.0], &[2]));
        let tape = Tape::new();
        let c = {
            let _inf = inference::InferenceGuard::enter();
            let c = w.var(&tape);
            assert!(!c.requires_grad(), "a guard-made binding is a constant leaf");
            assert_eq!(w.var(&tape).id(), c.id(), "reused inside the region");
            c
        };
        // A gradient-recording forward on the same tape gets its own leaf.
        let g = w.var(&tape);
        assert!(g.requires_grad());
        assert_ne!(g.id(), c.id());
        // ...and a later region gets the constant back, not the grad leaf.
        {
            let _inf = inference::InferenceGuard::enter();
            assert_eq!(w.var(&tape).id(), c.id());
        }
        let grads = tape.backward(g.mul(&g).sum_all());
        store.capture_grads(&tape, &grads);
        assert_eq!(w.grad().unwrap().as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn grads_flow_to_parameters() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(vec![2.0, 3.0], &[2]));
        let tape = Tape::new();
        let wv = w.var(&tape);
        let loss = wv.mul(&wv).sum_all(); // d/dw = 2w
        let grads = tape.backward(loss);
        store.capture_grads(&tape, &grads);
        assert_eq!(w.grad().unwrap().as_slice(), &[4.0, 6.0]);
        store.zero_grads();
        assert!(w.grad().is_none());
    }

    #[test]
    fn grads_accumulate_across_batches() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(vec![1.0], &[1]));
        for _ in 0..2 {
            let tape = Tape::new();
            let wv = w.var(&tape);
            let loss = wv.sum_all();
            let grads = tape.backward(loss);
            store.capture_grads(&tape, &grads);
        }
        assert_eq!(w.grad().unwrap().as_slice(), &[2.0]);
    }

    #[test]
    fn clip_reduces_norm() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(vec![3.0, 4.0], &[2]));
        let tape = Tape::new();
        let wv = w.var(&tape);
        let loss = wv.mul(&wv).sum_all().mul_scalar(0.5); // grad = w = [3,4], norm 5
        let grads = tape.backward(loss);
        store.capture_grads(&tape, &grads);
        assert!((store.grad_norm() - 5.0).abs() < 1e-5);
        store.clip_grad_norm(1.0);
        assert!((store.grad_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_leaves_nonfinite_grads_untouched() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let tape = Tape::new();
        let wv = w.var(&tape);
        let loss = wv.sum_all();
        let grads = tape.backward(loss);
        store.capture_grads(&tape, &grads);
        store.poison_grads();
        let norm = store.clip_grad_norm(1.0);
        assert!(!norm.is_finite());
        // gradients still NaN, not zeroed by a bogus `max/inf` scale
        assert!(w.grad().unwrap().as_slice().iter().all(|v| v.is_nan()));
        // and the weights themselves were never touched
        assert_eq!(w.value().as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn scalar_count() {
        let mut store = ParamStore::new();
        store.add("a", Tensor::zeros(&[3, 4]));
        store.add("b", Tensor::zeros(&[5]));
        assert_eq!(store.num_scalars(), 17);
    }

    #[test]
    fn group_health_groups_by_prefix() {
        let mut store = ParamStore::new();
        let w = store.add("layer.weight", Tensor::from_vec(vec![3.0, 4.0], &[2]));
        store.add("layer.bias", Tensor::zeros(&[1]));
        store.add("head", Tensor::from_vec(vec![2.0], &[1]));
        let h = store.group_health(None);
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].group, "layer");
        assert_eq!((h[0].params, h[0].scalars), (2, 3));
        assert!((h[0].weight_norm - 5.0).abs() < 1e-5);
        assert_eq!(h[0].grad_norm, None);
        assert_eq!(h[1].group, "head");

        // Update ratio against a pre-step snapshot: doubling the weights
        // gives ‖w − w_prev‖ = ‖w_prev‖, i.e. a ratio of 1.
        let prev = store.snapshot();
        w.update_value(|t| t.map_inplace(|v| v * 2.0));
        let h = store.group_health(Some(&prev));
        let r = h[0].update_ratio.expect("snapshot provided");
        assert!((r - 1.0).abs() < 1e-4, "update ratio {r}");
        assert_eq!(h[1].update_ratio, Some(0.0));
    }

    #[test]
    fn group_health_flags_poisoned_grads() {
        let mut store = ParamStore::new();
        let w = store.add("enc.weight", Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let tape = Tape::new();
        let wv = w.var(&tape);
        let loss = wv.sum_all();
        let grads = tape.backward(loss);
        store.capture_grads(&tape, &grads);
        let h = store.group_health(None);
        assert!(h[0].grad_norm.expect("grad stored").is_finite());
        store.poison_grads();
        let h = store.group_health(None);
        assert!(!h[0].grad_norm.expect("grad stored").is_finite());
    }

    #[test]
    fn version_tracks_every_mutation() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::zeros(&[2]));
        let v0 = w.version();
        w.set_value(Tensor::ones(&[2]));
        let v1 = w.version();
        assert_ne!(v0, v1);
        w.update_value(|t| t.map_inplace(|v| v + 1.0));
        assert_ne!(w.version(), v1);
        w.grad(); // reads must not bump
        assert_eq!(w.version(), v1 + 1);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_names_panic() {
        let mut store = ParamStore::new();
        store.add("w", Tensor::zeros(&[1]));
        store.add("w", Tensor::zeros(&[1]));
    }
}
