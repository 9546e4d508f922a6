//! Reverse-mode automatic differentiation.
//!
//! A [`Tape`] records every operation of a forward pass; [`Var`] is a cheap
//! copyable handle to a node on that tape. Calling [`Tape::backward`] on a
//! scalar loss returns the gradients of every `requires_grad` leaf.
//!
//! Nodes are appended in topological order (parents always precede
//! children), so backpropagation is a single reverse sweep over the node
//! list — no sorting needed.
//!
//! Allocation discipline (traffic-mem): node values and closure captures
//! are refcounted buffer handles, so recording and backward closures never
//! deep-copy tensor data. Parent links are stored inline (no per-node
//! `Vec` for the 1–2 parent common case), backward closures stream parent
//! gradients into a sink instead of materialising a `Vec<Tensor>` per
//! node, and the sweep accumulates diamonds in place with
//! [`Tensor::add_assign`]. A tape is reusable across mini-batches via
//! [`Tape::reset`], which keeps the node list's capacity.
//!
//! Inside an inference region, [`Tape::scoped`] runs one recurrent step
//! or one layer on a child tape and keeps only its outputs, so a forward
//! holds the live set of one step instead of every intermediate.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::conv::{col2im, conv_out_len, im2col};
use crate::inference;
use crate::tensor::Tensor;

static TAPE_IDS: AtomicU64 = AtomicU64::new(1);

/// Largest node count any tape reached (published as the
/// `mem/tape_peak_nodes` gauge at each backward pass).
static PEAK_NODES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The emptied node list of this thread's last scoped child tape,
    /// kept for the next one so a step does not regrow it from nothing.
    static SPARE_NODES: Cell<Vec<Node>> = const { Cell::new(Vec::new()) };
}

fn peak_nodes_gauge() -> &'static traffic_obs::Gauge {
    static GAUGE: OnceLock<&'static traffic_obs::Gauge> = OnceLock::new();
    GAUGE.get_or_init(|| traffic_obs::gauge("mem/tape_peak_nodes"))
}

/// Streams gradient contributions to parents: `sink(slot, grad)` where
/// `slot` indexes the node's parent list. No intermediate `Vec<Tensor>`.
type BackFn = Box<dyn Fn(&Tensor, &mut dyn FnMut(usize, Tensor))>;

/// Parent links, inline for the ubiquitous 1–2 parent nodes so tape
/// recording does not allocate a `Vec<usize>` per node.
enum Parents {
    None,
    One(usize),
    Two(usize, usize),
    Many(Vec<usize>),
}

impl Parents {
    fn len(&self) -> usize {
        match self {
            Parents::None => 0,
            Parents::One(_) => 1,
            Parents::Two(..) => 2,
            Parents::Many(v) => v.len(),
        }
    }

    fn get(&self, slot: usize) -> usize {
        match (self, slot) {
            (Parents::One(a), 0) => *a,
            (Parents::Two(a, _), 0) => *a,
            (Parents::Two(_, b), 1) => *b,
            (Parents::Many(v), s) => v[s],
            _ => panic!("parent slot {slot} out of range"),
        }
    }
}

struct Node {
    /// Static op name recorded at forward time; names the `bwd` profile
    /// op when `Tape::backward` runs under the profiler.
    op: &'static str,
    value: Tensor,
    requires_grad: bool,
    parents: Parents,
    /// Maps the gradient flowing into this node to gradient contributions
    /// for each parent slot. `None` for leaves.
    backward: Option<BackFn>,
}

/// The recording tape for one forward/backward pass.
pub struct Tape {
    id: u64,
    nodes: RefCell<Vec<Node>>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// Creates an empty tape with a process-unique id.
    pub fn new() -> Self {
        Tape { id: TAPE_IDS.fetch_add(1, Ordering::Relaxed), nodes: RefCell::new(Vec::new()) }
    }

    /// Process-unique identifier (used by parameter caches).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Clears the tape for the next forward pass while keeping the node
    /// list's capacity, so a trainer reuses one tape for a whole run
    /// instead of reallocating it every mini-batch. Dropped node values
    /// recycle their buffers into the traffic-mem pool. The tape gets a
    /// fresh id, invalidating any cached parameter bindings (exactly as
    /// if a new tape had been built).
    pub fn reset(&mut self) {
        let nodes = self.nodes.get_mut();
        let peak = PEAK_NODES.fetch_max(nodes.len(), Ordering::Relaxed).max(nodes.len());
        peak_nodes_gauge().set(peak as f64);
        nodes.clear();
        self.id = TAPE_IDS.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn push(&self, node: Node) -> usize {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(node);
        nodes.len() - 1
    }

    /// Appends a node; it requires grad exactly when it has a backward.
    fn record(
        &self,
        op: &'static str,
        value: Tensor,
        parents: Parents,
        backward: Option<BackFn>,
    ) -> Var<'_> {
        let requires_grad = backward.is_some();
        Var { tape: self, id: self.push(Node { op, value, requires_grad, parents, backward }) }
    }

    /// Inserts a leaf tensor. Set `requires_grad` for trainable parameters.
    pub fn leaf(&self, value: Tensor, requires_grad: bool) -> Var<'_> {
        let id = self.push(Node {
            op: "leaf",
            value,
            requires_grad,
            parents: Parents::None,
            backward: None,
        });
        Var { tape: self, id }
    }

    /// Convenience: a non-differentiable constant leaf.
    pub fn constant(&self, value: Tensor) -> Var<'_> {
        self.leaf(value, false)
    }

    /// Reconstructs a [`Var`] from a node id previously obtained via
    /// [`Var::id`]. Used by parameter stores to cache leaf bindings across a
    /// forward pass. Panics if the id is out of range.
    pub fn var(&self, id: usize) -> Var<'_> {
        assert!(id < self.len(), "var id {id} out of range (tape has {} nodes)", self.len());
        Var { tape: self, id }
    }

    fn value_of(&self, id: usize) -> Tensor {
        self.nodes.borrow()[id].value.clone()
    }

    fn requires_grad(&self, id: usize) -> bool {
        self.nodes.borrow()[id].requires_grad
    }

    /// Runs `f` on `inputs` and returns its outputs as `Var`s of this
    /// tape: one recurrent step or one layer of a forward.
    ///
    /// Outside an inference region, or when an input needs a gradient,
    /// `f` records on `self` and the inputs and outputs pass through
    /// untouched, so the tape, its gradients and its node count are
    /// exactly those of calling `f(self, inputs)`. Inside one, `f`
    /// records on a child tape: the inputs enter it as constants sharing
    /// their buffers, the outputs come back as constants of `self`, and
    /// every other node of the child is dropped, its buffer recycled into
    /// the pool, before `scoped` returns. Both modes run the same ops on
    /// the same input values, so the outputs are bit-identical.
    ///
    /// The `for<'s>` bound keeps `f` from using a `Var` of `self` that it
    /// captured: nothing relates `'s` to this tape's lifetime.
    pub fn scoped<'p>(
        &'p self,
        inputs: &[Var<'p>],
        f: impl for<'s> FnOnce(&'s Tape, &[Var<'s>]) -> Vec<Var<'s>>,
    ) -> Vec<Var<'p>> {
        if !inference::active() || inputs.iter().any(Var::requires_grad) {
            return f(self, inputs);
        }
        let child = Tape {
            id: TAPE_IDS.fetch_add(1, Ordering::Relaxed),
            nodes: RefCell::new(SPARE_NODES.take()),
        };
        let outputs = {
            let inner: Vec<Var<'_>> = inputs.iter().map(|v| child.constant(v.value())).collect();
            let outputs = f(&child, &inner);
            outputs
                .iter()
                .map(|v| {
                    debug_assert!(!v.requires_grad(), "a scoped output needs a gradient");
                    self.constant(v.value())
                })
                .collect()
        };
        let mut nodes = child.nodes.into_inner();
        nodes.clear(); // drops the step's intermediates
        SPARE_NODES.set(nodes);
        outputs
    }

    /// Debug check that every operand of an op lives on this tape.
    /// `Var` is covariant in its tape's lifetime, so `Var`s of two tapes
    /// can meet in one op, which would read the wrong node ids.
    fn check_operands<'v, 'w: 'v>(&self, operands: impl IntoIterator<Item = &'v Var<'w>>) {
        debug_assert!(
            operands.into_iter().all(|v| std::ptr::eq(v.tape, self)),
            "an operand of this op belongs to another tape"
        );
    }

    pub(crate) fn unary(
        &self,
        op: &'static str,
        parent: &Var<'_>,
        value: Tensor,
        back: impl Fn(&Tensor) -> Tensor + 'static,
    ) -> Var<'_> {
        self.check_operands([parent]);
        let rg = self.requires_grad(parent.id);
        let node = Node {
            op,
            value,
            requires_grad: rg,
            parents: Parents::One(parent.id),
            backward: if rg { Some(Box::new(move |g, sink| sink(0, back(g)))) } else { None },
        };
        Var { tape: self, id: self.push(node) }
    }

    fn binary(
        &self,
        op: &'static str,
        a: &Var<'_>,
        b: &Var<'_>,
        value: Tensor,
        back: impl Fn(&Tensor) -> (Tensor, Tensor) + 'static,
    ) -> Var<'_> {
        self.check_operands([a, b]);
        let rg = self.requires_grad(a.id) || self.requires_grad(b.id);
        let node = Node {
            op,
            value,
            requires_grad: rg,
            parents: Parents::Two(a.id, b.id),
            backward: if rg {
                Some(Box::new(move |g, sink| {
                    let (ga, gb) = back(g);
                    sink(0, ga);
                    sink(1, gb);
                }))
            } else {
                None
            },
        };
        Var { tape: self, id: self.push(node) }
    }

    /// Walks the recorded forward pass and aggregates activation
    /// saturation per op kind (training-health telemetry).
    ///
    /// "Saturated" means the activation sits in its flat region where
    /// the local gradient has all but vanished: `|tanh| > 0.995`,
    /// `σ < 0.005` or `σ > 0.995`, `|tanh·σ| > 0.99` for the fused
    /// gated nonlinearity, and exactly-zero outputs ("dead" units) for
    /// ReLU. Ops without a saturation notion are skipped.
    ///
    /// The fraction is a diagnostic, not a reduction the math depends
    /// on, so large activation buffers are strided down to at most
    /// [`Tape::SATURATION_SAMPLES`] probed elements each — the scan
    /// stays cheap enough for the insight sampler's per-step overhead
    /// budget while the estimate keeps sub-percent resolution.
    pub fn saturation_stats(&self) -> Vec<ActSaturation> {
        fn count(t: &Tensor, pred: impl Fn(f32) -> bool) -> (usize, usize) {
            let data = t.as_slice();
            let stride = data.len().div_ceil(Tape::SATURATION_SAMPLES).max(1);
            let probed = data.iter().step_by(stride);
            (probed.clone().count(), probed.filter(|&&v| pred(v)).count())
        }
        let nodes = self.nodes.borrow();
        let mut out: Vec<ActSaturation> = Vec::new();
        for n in nodes.iter() {
            let (elems, saturated) = match n.op {
                "tanh" => count(&n.value, |v| v.abs() > 0.995),
                "sigmoid" => count(&n.value, |v| !(0.005..=0.995).contains(&v)),
                "gated_tanh_sigmoid" => count(&n.value, |v| v.abs() > 0.99),
                "relu" => count(&n.value, |v| v == 0.0),
                _ => continue,
            };
            match out.iter_mut().find(|s| s.op == n.op) {
                Some(s) => {
                    s.elems += elems;
                    s.saturated += saturated;
                }
                None => out.push(ActSaturation { op: n.op, elems, saturated }),
            }
        }
        out
    }

    /// Per-node probe budget for [`Tape::saturation_stats`].
    pub const SATURATION_SAMPLES: usize = 4096;

    /// Runs reverse-mode differentiation from the scalar `loss`.
    pub fn backward(&self, loss: Var<'_>) -> Gradients {
        assert_eq!(loss.tape.id, self.id, "backward called with a Var from a different tape");
        let nodes = self.nodes.borrow();
        assert_eq!(
            nodes[loss.id].value.len(),
            1,
            "backward requires a scalar loss, got shape {:?}",
            nodes[loss.id].value.shape()
        );
        PEAK_NODES.fetch_max(nodes.len(), Ordering::Relaxed);
        let mut grads: Vec<Option<Tensor>> = vec![None; nodes.len()];
        grads[loss.id] = Some(Tensor::ones(nodes[loss.id].value.shape()));
        // One load up front: when the profiler is off the sweep carries
        // zero per-node overhead beyond a branch on a local bool.
        let profiling = traffic_obs::profile::enabled();
        for id in (0..=loss.id).rev() {
            let Some(g) = grads[id].take() else { continue };
            let node = &nodes[id];
            if let Some(back) = &node.backward {
                let mut prof = if profiling {
                    let mut guard = traffic_obs::profile::op("bwd", node.op);
                    guard.set_node(id);
                    guard.set_bytes(node.value.len() * 4);
                    Some(guard)
                } else {
                    None
                };
                let nparents = node.parents.len();
                back(&g, &mut |slot, pg| {
                    debug_assert!(slot < nparents);
                    let pid = node.parents.get(slot);
                    if !nodes[pid].requires_grad {
                        return;
                    }
                    match &mut grads[pid] {
                        // Diamonds accumulate in place into the (pooled,
                        // uniquely owned) accumulator — same elementwise
                        // add order as the allocating `acc.add(&pg)`.
                        Some(acc) => acc.add_assign(&pg),
                        slot => *slot = Some(pg),
                    }
                });
                prof.take(); // close the bwd op before the next node starts
            } else if node.requires_grad {
                grads[id] = Some(g); // keep leaf gradient
            }
        }
        Gradients { tape_id: self.id, grads }
    }
}

/// Saturation tally for one activation op kind over a recorded forward
/// pass (see [`Tape::saturation_stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActSaturation {
    /// Activation op name (`tanh`, `sigmoid`, `gated_tanh_sigmoid`, `relu`).
    pub op: &'static str,
    /// Activations of this kind recorded on the tape.
    pub elems: usize,
    /// How many sit in the op's flat (vanishing-gradient) region.
    pub saturated: usize,
}

impl ActSaturation {
    /// Saturated fraction in `[0, 1]` (0 when no activations recorded).
    pub fn fraction(&self) -> f64 {
        if self.elems == 0 {
            0.0
        } else {
            self.saturated as f64 / self.elems as f64
        }
    }
}

/// Gradients produced by [`Tape::backward`], indexed by [`Var`].
pub struct Gradients {
    tape_id: u64,
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Gradient for `var`, if it was reached and requires grad.
    pub fn get(&self, var: Var<'_>) -> Option<&Tensor> {
        assert_eq!(var.tape.id, self.tape_id, "Var from a different tape");
        self.grads.get(var.id).and_then(|g| g.as_ref())
    }

    /// Like [`Gradients::get`] but by raw node id (used by parameter stores
    /// that cache var ids across a forward pass).
    pub fn get_by_id(&self, id: usize) -> Option<&Tensor> {
        self.grads.get(id).and_then(|g| g.as_ref())
    }
}

/// A handle to a node on a [`Tape`].
#[derive(Clone, Copy)]
pub struct Var<'t> {
    tape: &'t Tape,
    id: usize,
}

impl<'t> Var<'t> {
    /// Raw node id (stable for the lifetime of the tape).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The tape this variable belongs to.
    pub fn tape(&self) -> &'t Tape {
        self.tape
    }

    /// The forward value. With refcounted buffers this is a cheap handle
    /// copy (pointer + shape), not a deep clone of the data.
    pub fn value(&self) -> Tensor {
        self.tape.value_of(self.id)
    }

    /// Shape of the forward value.
    pub fn shape(&self) -> Vec<usize> {
        self.tape.nodes.borrow()[self.id].value.shape().to_vec()
    }

    /// True when a gradient flows back into this node (it is, or
    /// depends on, a `requires_grad` leaf).
    pub fn requires_grad(&self) -> bool {
        self.tape.requires_grad(self.id)
    }

    // ------------------------------------------------------------------
    // Elementwise binary (broadcasting)
    // ------------------------------------------------------------------

    /// Broadcast addition.
    pub fn add(&self, other: &Var<'t>) -> Var<'t> {
        let (av, bv) = (self.value(), other.value());
        let (ash, bsh) = (av.shape().to_vec(), bv.shape().to_vec());
        self.tape.binary("add", self, other, av.add(&bv), move |g| {
            (g.unbroadcast(&ash), g.unbroadcast(&bsh))
        })
    }

    /// Broadcast subtraction.
    pub fn sub(&self, other: &Var<'t>) -> Var<'t> {
        let (av, bv) = (self.value(), other.value());
        let (ash, bsh) = (av.shape().to_vec(), bv.shape().to_vec());
        self.tape.binary("sub", self, other, av.sub(&bv), move |g| {
            (g.unbroadcast(&ash), g.neg().unbroadcast(&bsh))
        })
    }

    /// Broadcast elementwise product.
    pub fn mul(&self, other: &Var<'t>) -> Var<'t> {
        let (av, bv) = (self.value(), other.value());
        let (ash, bsh) = (av.shape().to_vec(), bv.shape().to_vec());
        let (ac, bc) = (av.clone(), bv.clone());
        self.tape.binary("mul", self, other, av.mul(&bv), move |g| {
            (g.mul(&bc).unbroadcast(&ash), g.mul(&ac).unbroadcast(&bsh))
        })
    }

    /// Broadcast elementwise division.
    pub fn div(&self, other: &Var<'t>) -> Var<'t> {
        let (av, bv) = (self.value(), other.value());
        let (ash, bsh) = (av.shape().to_vec(), bv.shape().to_vec());
        let (ac, bc) = (av.clone(), bv.clone());
        self.tape.binary("div", self, other, av.div(&bv), move |g| {
            let ga = g.div(&bc).unbroadcast(&ash);
            // d/db (a/b) = -a / b²
            let gb = g.mul(&ac).div(&bc.mul(&bc)).neg().unbroadcast(&bsh);
            (ga, gb)
        })
    }

    // ------------------------------------------------------------------
    // Elementwise unary
    // ------------------------------------------------------------------

    /// Negation.
    pub fn neg(&self) -> Var<'t> {
        self.tape.unary("neg", self, self.value().neg(), |g| g.neg())
    }

    /// Adds a scalar constant.
    pub fn add_scalar(&self, s: f32) -> Var<'t> {
        self.tape.unary("add_scalar", self, self.value().add_scalar(s), |g| g.clone())
    }

    /// Multiplies by a scalar constant.
    pub fn mul_scalar(&self, s: f32) -> Var<'t> {
        self.tape.unary("mul_scalar", self, self.value().mul_scalar(s), move |g| g.mul_scalar(s))
    }

    /// Elementwise power with constant exponent.
    pub fn powf(&self, p: f32) -> Var<'t> {
        let x = self.value();
        let xc = x.clone();
        self.tape.unary("powf", self, x.powf(p), move |g| g.mul(&xc.powf(p - 1.0).mul_scalar(p)))
    }

    /// Rectified linear unit. The backward mask is built from the
    /// input only when backward runs, so a no-grad forward never pays
    /// for it.
    pub fn relu(&self) -> Var<'t> {
        let x = self.value();
        let y = x.clamp_min(0.0);
        self.tape
            .unary("relu", self, y, move |g| g.mul(&x.map(|v| if v > 0.0 { 1.0 } else { 0.0 })))
    }

    /// Leaky ReLU with negative slope `alpha` (mask built in backward,
    /// as for [`Var::relu`]).
    pub fn leaky_relu(&self, alpha: f32) -> Var<'t> {
        let x = self.value();
        let y = x.map(|v| if v > 0.0 { v } else { alpha * v });
        self.tape.unary("leaky_relu", self, y, move |g| {
            g.mul(&x.map(|v| if v > 0.0 { 1.0 } else { alpha }))
        })
    }

    /// Logistic sigmoid ([`crate::fastmath::sigmoid`], vectorized
    /// forward and backward). Backward is a single fused pass
    /// (`g · y·(1 − y)`) instead of two allocating elementwise ops.
    pub fn sigmoid(&self) -> Var<'t> {
        let y = self.value().sigmoid();
        let yc = y.clone();
        self.tape.unary("sigmoid", self, y, move |g| {
            g.apply_binary(&yc, crate::simd::Binary::SigmoidBwd)
        })
    }

    /// Hyperbolic tangent, via the ~4× faster [`crate::fastmath::tanh`]
    /// kernel (a few f32 ulps from libm), vectorized forward and
    /// backward. Backward is a single fused pass (`g · (1 − y²)`).
    pub fn tanh(&self) -> Var<'t> {
        let y = self.value().tanh();
        let yc = y.clone();
        self.tape.unary("tanh", self, y, move |g| g.apply_binary(&yc, crate::simd::Binary::TanhBwd))
    }

    /// Fused gated activation `tanh(self) ⊙ σ(gate)` — the
    /// STGCN/Graph-WaveNet gated-temporal-conv nonlinearity as one tape
    /// node. Forward computes `t = tanh(self)`, `s = σ(gate)` and the
    /// product in a single pass; backward streams both parent gradients
    /// (`(g·s)·(1 − t²)` and `((g·t)·s)·(1 − s)`) in one pass. Identical
    /// arithmetic to `self.tanh().mul(&gate.sigmoid())` but records one
    /// node instead of three and halves the elementwise traffic. When
    /// neither input needs a gradient, `t` and `s` are never stored.
    pub fn gated_tanh_sigmoid(&self, gate: &Var<'t>) -> Var<'t> {
        let (f, gv) = (self.value(), gate.value());
        if !self.requires_grad() && !gate.requires_grad() {
            self.tape.check_operands([self, gate]);
            let out = Tensor::gated_tanh_sigmoid_value(&f, &gv);
            return self.tape.record(
                "gated_tanh_sigmoid",
                out,
                Parents::Two(self.id, gate.id),
                None,
            );
        }
        let (out, t, s) = Tensor::gated_tanh_sigmoid(&f, &gv);
        self.tape.binary("gated_tanh_sigmoid", self, gate, out, move |g| {
            Tensor::gated_tanh_sigmoid_backward(g, &t, &s)
        })
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Var<'t> {
        let y = self.value().exp();
        let yc = y.clone();
        self.tape.unary("exp", self, y, move |g| g.mul(&yc))
    }

    /// Elementwise natural log.
    pub fn ln(&self) -> Var<'t> {
        let x = self.value();
        let xc = x.clone();
        self.tape.unary("ln", self, x.ln(), move |g| g.div(&xc))
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Var<'t> {
        let y = self.value().sqrt();
        let yc = y.clone();
        self.tape.unary("sqrt", self, y, move |g| g.div(&yc.mul_scalar(2.0)))
    }

    /// Absolute value with subgradient sign(x) (sign built in backward,
    /// as for [`Var::relu`]).
    pub fn abs(&self) -> Var<'t> {
        let x = self.value();
        let y = x.abs();
        self.tape
            .unary("abs", self, y, move |g| g.mul(&x.map(|v| if v >= 0.0 { 1.0 } else { -1.0 })))
    }

    /// Multiplies by a constant mask tensor (no gradient into the mask).
    pub fn mul_const(&self, mask: &Tensor) -> Var<'t> {
        let m = mask.clone();
        let y = self.value().mul(mask);
        let tgt = self.shape();
        self.tape.unary("mul_const", self, y, move |g| g.mul(&m).unbroadcast(&tgt))
    }

    /// Adds a constant tensor (no gradient into the constant).
    pub fn add_const(&self, c: &Tensor) -> Var<'t> {
        let y = self.value().add(c);
        let tgt = self.shape();
        self.tape.unary("add_const", self, y, move |g| g.unbroadcast(&tgt))
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum over all elements → scalar.
    pub fn sum_all(&self) -> Var<'t> {
        let x = self.value();
        let shape = x.shape().to_vec();
        self.tape.unary("sum_all", self, Tensor::scalar(x.sum_all()), move |g| {
            Tensor::full(&shape, g.item())
        })
    }

    /// Mean over all elements → scalar.
    pub fn mean_all(&self) -> Var<'t> {
        let n = self.value().len().max(1);
        self.sum_all().mul_scalar(1.0 / n as f32)
    }

    /// Sum over `axes` (keepdim).
    pub fn sum_axes(&self, axes: &[usize], keepdim: bool) -> Var<'t> {
        let x = self.value();
        let in_shape = x.shape().to_vec();
        let y = x.sum_axes(axes, keepdim);
        let kept: Vec<usize> = {
            let mut s = in_shape.clone();
            for &a in axes {
                s[a] = 1;
            }
            s
        };
        self.tape.unary("sum_axes", self, y, move |g| g.reshape(&kept).broadcast_to(&in_shape))
    }

    /// Mean over `axes` (keepdim).
    pub fn mean_axes(&self, axes: &[usize], keepdim: bool) -> Var<'t> {
        let count: usize = {
            let s = self.shape();
            axes.iter().map(|&a| s[a]).product()
        };
        self.sum_axes(axes, keepdim).mul_scalar(1.0 / count.max(1) as f32)
    }

    // ------------------------------------------------------------------
    // Linear algebra & shape
    // ------------------------------------------------------------------

    /// Batched matrix product with broadcasting batch axes.
    pub fn matmul(&self, other: &Var<'t>) -> Var<'t> {
        let (a, b) = (self.value(), other.value());
        assert!(a.rank() >= 2 && b.rank() >= 2, "Var::matmul requires rank >= 2 operands");
        let (ac, bc) = (a.clone(), b.clone());
        let (ash, bsh) = (a.shape().to_vec(), b.shape().to_vec());
        let y = a.matmul(&b);
        self.tape.binary("matmul", self, other, y, move |g| {
            // Transposed-storage kernels: bit-identical to materialising
            // `.t()` first, without the full permute copy per step.
            let ga = g.matmul_nt(&bc).unbroadcast(&ash);
            let gb = ac.matmul_tn(g).unbroadcast(&bsh);
            (ga, gb)
        })
    }

    /// Reshape (element count preserved).
    pub fn reshape(&self, shape: &[usize]) -> Var<'t> {
        let x = self.value();
        let orig = x.shape().to_vec();
        let y = x.reshape(shape);
        self.tape.unary("reshape", self, y, move |g| g.reshape(&orig))
    }

    /// Axis permutation.
    pub fn permute(&self, perm: &[usize]) -> Var<'t> {
        let x = self.value();
        let y = x.permute(perm);
        // Inverse permutation for the backward pass.
        let mut inv = vec![0usize; perm.len()];
        for (i, &p) in perm.iter().enumerate() {
            inv[p] = i;
        }
        self.tape.unary("permute", self, y, move |g| g.permute(&inv))
    }

    /// Transpose of the last two axes.
    pub fn t(&self) -> Var<'t> {
        let r = self.shape().len();
        let mut perm: Vec<usize> = (0..r).collect();
        perm.swap(r - 1, r - 2);
        self.permute(&perm)
    }

    /// Narrow: `len` slices from `start` along `axis`.
    pub fn narrow(&self, axis: usize, start: usize, len: usize) -> Var<'t> {
        let x = self.value();
        let full = x.shape()[axis];
        let y = x.narrow(axis, start, len);
        let rank = x.rank();
        self.tape.unary("narrow", self, y, move |g| {
            let mut pads = vec![(0usize, 0usize); rank];
            pads[axis] = (start, full - start - len);
            g.pad(&pads)
        })
    }

    /// Zero padding per axis.
    pub fn pad(&self, pads: &[(usize, usize)]) -> Var<'t> {
        let x = self.value();
        let y = x.pad(pads);
        let pads = pads.to_vec();
        self.tape.unary("pad", self, y, move |g| g.unpad(&pads))
    }

    /// Concatenates variables along `axis`.
    pub fn concat(parts: &[Var<'t>], axis: usize) -> Var<'t> {
        assert!(!parts.is_empty(), "concat of zero vars");
        let tape = parts[0].tape;
        tape.check_operands(parts);
        let values: Vec<Tensor> = parts.iter().map(|p| p.value()).collect();
        let refs: Vec<&Tensor> = values.iter().collect();
        let y = Tensor::concat(&refs, axis);
        let sizes: Vec<usize> = values.iter().map(|v| v.shape()[axis]).collect();
        let rg = parts.iter().any(|p| tape.requires_grad(p.id));
        let node = Node {
            op: "concat",
            value: y,
            requires_grad: rg,
            parents: Parents::Many(parts.iter().map(|p| p.id).collect()),
            backward: if rg {
                Some(Box::new(move |g, sink| {
                    let mut off = 0;
                    for (slot, &s) in sizes.iter().enumerate() {
                        sink(slot, g.narrow(axis, off, s));
                        off += s;
                    }
                }))
            } else {
                None
            },
        };
        Var { tape, id: tape.push(node) }
    }

    /// Stacks rank-equal variables along a new leading position of `axis`.
    pub fn stack(parts: &[Var<'t>], axis: usize) -> Var<'t> {
        let expanded: Vec<Var<'t>> = parts
            .iter()
            .map(|p| {
                let mut s = p.shape();
                s.insert(axis, 1);
                p.reshape(&s)
            })
            .collect();
        Var::concat(&expanded, axis)
    }

    /// Softmax along `axis` (numerically stable). Along the last axis
    /// forward and backward are fused row kernels
    /// (`Tensor::softmax_last`), bit-identical to the composed ops
    /// other axes still use.
    pub fn softmax(&self, axis: usize) -> Var<'t> {
        let x = self.value();
        if axis + 1 == x.rank() {
            let y = x.softmax_last();
            let yc = y.clone();
            return self
                .tape
                .unary("softmax", self, y, move |g| Tensor::softmax_last_backward(g, &yc));
        }
        let m = x.max_axis_keepdim(axis);
        let e = x.sub(&m).exp();
        let s = e.sum_axes(&[axis], true);
        let y = e.div(&s);
        let yc = y.clone();
        self.tape.unary("softmax", self, y, move |g| {
            // dx = (g - sum(g*y, axis)) * y
            let dot = g.mul(&yc).sum_axes(&[axis], true);
            g.sub(&dot).mul(&yc)
        })
    }

    /// Fused scaled dot-product attention `softmax(self·kᵀ·scale)·v`
    /// over equal leading axes: `self: [.., Lq, D]`, `k: [.., Lk, D]`,
    /// `v: [.., Lk, Dv]` → `[.., Lq, Dv]`. One tape node, bit-identical
    /// in value and gradients to
    /// `self.matmul(&k.t()).mul_scalar(scale).softmax(last).matmul(&v)`.
    /// The `[.., Lq, Lk]` probabilities are kept only when a gradient
    /// flows; otherwise the scores never exist beyond one cached tile.
    pub fn attention(&self, k: &Var<'t>, v: &Var<'t>, scale: f32) -> Var<'t> {
        self.tape.check_operands([self, k, v]);
        let rg = self.requires_grad() || k.requires_grad() || v.requires_grad();
        let (qv, kv, vv) = (self.value(), k.value(), v.value());
        let (y, p) = Tensor::attention(&qv, &kv, &vv, scale, rg);
        let backward = p.map(|p| -> BackFn {
            Box::new(move |g, sink| {
                let (gq, gk, gv) = Tensor::attention_backward(g, &qv, &kv, &vv, &p, scale);
                sink(0, gq);
                sink(1, gk);
                sink(2, gv);
            })
        });
        self.tape.record("attention", y, Parents::Many(vec![self.id, k.id, v.id]), backward)
    }

    /// Inverted dropout. In training mode zeroes each element with
    /// probability `p` and rescales survivors by `1/(1-p)`; identity in eval
    /// mode. `mask_source` supplies uniform randoms in `[0, 1)`.
    pub fn dropout(&self, p: f32, training: bool, uniform: impl FnMut() -> f32) -> Var<'t> {
        if !training || p <= 0.0 {
            return *self;
        }
        assert!(p < 1.0, "dropout probability must be < 1, got {p}");
        let mut uniform = uniform;
        let scale = 1.0 / (1.0 - p);
        let x = self.value();
        let mut mask = Tensor::from_vec(crate::mem::take_uninit(x.len()), x.shape());
        for m in mask.make_mut() {
            *m = if uniform() < p { 0.0 } else { scale };
        }
        self.mul_const(&mask)
    }

    /// Gathers rows of axis 0 (embedding lookup). Backward scatter-adds.
    pub fn index_select0(&self, indices: &[usize]) -> Var<'t> {
        let x = self.value();
        let y = x.index_select0(indices);
        let idx = indices.to_vec();
        let in_shape = x.shape().to_vec();
        self.tape.unary("index_select0", self, y, move |g| {
            let inner: usize = in_shape[1..].iter().product();
            let mut out = Tensor::zeros(&in_shape);
            {
                let buf = out.make_mut();
                let gs = g.as_slice();
                for (row, &i) in idx.iter().enumerate() {
                    for j in 0..inner {
                        buf[i * inner + j] += gs[row * inner + j];
                    }
                }
            }
            out
        })
    }

    /// Gathers positions of the last axis (`out[.., i] =
    /// self[.., indices[i]]`); backward scatter-adds the gradient back to
    /// those positions. One node however the indices are arranged.
    pub fn select_last(&self, indices: &[usize]) -> Var<'t> {
        let x = self.value();
        let len = x.shape()[x.rank() - 1];
        let y = x.select_last(indices);
        let idx = indices.to_vec();
        self.tape.unary("select_last", self, y, move |g| g.scatter_add_last(&idx, len))
    }

    /// Stride-1 dilated conv2d: `self` `[B, C, H, W]`, `weight`
    /// `[O, C, KH, KW]` → `[B, O, OH, OW]`.
    pub fn conv2d(&self, weight: &Var<'t>, dh: usize, dw: usize) -> Var<'t> {
        let ws = weight.shape();
        let cols = im2col(&self.value(), ws[2], ws[3], dh, dw);
        self.conv2d_unfolded(weight, cols, dh, dw)
    }

    /// [`Var::conv2d`] given `cols = im2col(self, KH, KW, dh, dw)`, so
    /// convolutions of one input at one geometry unfold it once. Each
    /// call still records its own node, with the backward of a separate
    /// conv (its own `col2im` for the input gradient), so sharing the
    /// unfold changes no bit, forward or backward.
    pub fn conv2d_unfolded(&self, weight: &Var<'t>, cols: Tensor, dh: usize, dw: usize) -> Var<'t> {
        let x = self.value();
        let w = weight.value();
        let (b, c, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (o, _, kh, kw) = (w.shape()[0], w.shape()[1], w.shape()[2], w.shape()[3]);
        let oh = conv_out_len(h, kh, dh);
        let ow = conv_out_len(wd, kw, dw);
        assert_eq!(cols.shape(), &[b, c * kh * kw, oh * ow], "conv2d_unfolded: cols shape");
        let wmat = w.reshape(&[o, c * kh * kw]);
        let y = wmat.matmul(&cols).reshape(&[b, o, oh, ow]);
        let w_shape = w.shape().to_vec();
        self.tape.binary("conv2d", self, weight, y, move |g| {
            let gmat = g.reshape(&[b, o, oh * ow]); // [B, O, L]
                                                    // grad wrt weight: sum over batch of g · colsᵀ
            let gw = gmat.matmul_nt(&cols); // [B, O, CKK]
            let gw = gw.sum_axes(&[0], false).reshape(&w_shape);
            // grad wrt input: wᵀ · g, folded back
            let gcols = wmat.matmul_tn(&gmat); // [B, CKK, L]
            let gx = col2im(&gcols, c, h, wd, kh, kw, dh, dw);
            (gx, gw)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_mul_backward() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]), true);
        let b = tape.leaf(Tensor::from_vec(vec![3.0, 4.0], &[2]), true);
        // loss = sum(a * b + a)
        let loss = a.mul(&b).add(&a).sum_all();
        assert_eq!(loss.value().item(), 1.0 * 3.0 + 1.0 + 2.0 * 4.0 + 2.0);
        let g = tape.backward(loss);
        assert_eq!(g.get(a).unwrap().as_slice(), &[4.0, 5.0]); // b + 1
        assert_eq!(g.get(b).unwrap().as_slice(), &[1.0, 2.0]); // a
    }

    #[test]
    fn gated_tanh_sigmoid_matches_unfused_bitwise() {
        // Forward and both parent gradients must be bit-identical to the
        // three-op composition tanh(f) ⊙ σ(g) — same kernels, same
        // association order, one tape node.
        let vals: Vec<f32> = (0..257).map(|i| (i as f32 * 0.11).sin() * 4.0).collect();
        let gvals: Vec<f32> = (0..257).map(|i| (i as f32 * 0.07).cos() * 5.0).collect();
        let fused = {
            let tape = Tape::new();
            let f = tape.leaf(Tensor::from_vec(vals.clone(), &[257]), true);
            let g = tape.leaf(Tensor::from_vec(gvals.clone(), &[257]), true);
            let out = f.gated_tanh_sigmoid(&g);
            let grads = tape.backward(out.powf(2.0).sum_all());
            (out.value(), grads.get(f).unwrap().clone(), grads.get(g).unwrap().clone())
        };
        let unfused = {
            let tape = Tape::new();
            let f = tape.leaf(Tensor::from_vec(vals, &[257]), true);
            let g = tape.leaf(Tensor::from_vec(gvals, &[257]), true);
            let out = f.tanh().mul(&g.sigmoid());
            let grads = tape.backward(out.powf(2.0).sum_all());
            (out.value(), grads.get(f).unwrap().clone(), grads.get(g).unwrap().clone())
        };
        for (a, b) in [(&fused.0, &unfused.0), (&fused.1, &unfused.1), (&fused.2, &unfused.2)] {
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn broadcast_backward_unbroadcasts() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::ones(&[2, 3]), true);
        let b = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]), true);
        let loss = a.mul(&b).sum_all();
        let g = tape.backward(loss);
        assert_eq!(g.get(a).unwrap().shape(), &[2, 3]);
        assert_eq!(g.get(b).unwrap().shape(), &[3]);
        assert_eq!(g.get(b).unwrap().as_slice(), &[2.0, 2.0, 2.0]); // summed over rows
    }

    #[test]
    fn matmul_backward_shapes() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::ones(&[4, 2, 3]), true);
        let b = tape.leaf(Tensor::ones(&[3, 5]), true);
        let loss = a.matmul(&b).sum_all();
        let g = tape.backward(loss);
        assert_eq!(g.get(a).unwrap().shape(), &[4, 2, 3]);
        assert_eq!(g.get(b).unwrap().shape(), &[3, 5]);
        // each b element participates 4*2 times
        assert!(g.get(b).unwrap().as_slice().iter().all(|&v| v == 8.0));
    }

    #[test]
    fn no_grad_paths_skipped() {
        let tape = Tape::new();
        let a = tape.constant(Tensor::ones(&[2]));
        let b = tape.leaf(Tensor::ones(&[2]), true);
        let loss = a.mul(&b).sum_all();
        let g = tape.backward(loss);
        assert!(g.get(a).is_none());
        assert!(g.get(b).is_some());
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 1.0, 1.0, 1.0], &[2, 3]), true);
        let y = x.softmax(1);
        let v = y.value();
        for r in 0..2 {
            let s: f32 = (0..3).map(|c| v.at(&[r, c])).sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        // gradient of sum(softmax) is ~0 (softmax outputs sum to constant)
        let g = tape.backward(y.sum_all());
        assert!(g.get(x).unwrap().as_slice().iter().all(|&v| v.abs() < 1e-6));
    }

    #[test]
    fn diamond_accumulates() {
        // loss = sum(x*x + x) — x used twice, gradients must accumulate.
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![3.0], &[1]), true);
        let loss = x.mul(&x).add(&x).sum_all();
        let g = tape.backward(loss);
        assert_eq!(g.get(x).unwrap().as_slice(), &[7.0]); // 2x + 1
    }

    #[test]
    fn concat_narrow_backward() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::ones(&[2, 2]), true);
        let b = tape.leaf(Tensor::ones(&[2, 3]), true);
        let c = Var::concat(&[a, b], 1);
        assert_eq!(c.shape(), vec![2, 5]);
        // take only the b-part; a should get zero grad
        let loss = c.narrow(1, 2, 3).sum_all();
        let g = tape.backward(loss);
        assert!(g.get(a).unwrap().as_slice().iter().all(|&v| v == 0.0));
        assert!(g.get(b).unwrap().as_slice().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn select_last_backward_scatter_adds() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::arange(2 * 4).reshape(&[2, 4]), true);
        let s = a.select_last(&[3, 1, 3]);
        assert_eq!(s.value().as_slice(), &[3.0, 1.0, 3.0, 7.0, 5.0, 7.0]);
        let w = tape.constant(Tensor::from_vec(vec![1.0, 2.0, 4.0], &[3]));
        let g = tape.backward(s.mul(&w).sum_all());
        // Position 3 is read twice, 0 and 2 never.
        assert_eq!(g.get(a).unwrap().as_slice(), &[0.0, 2.0, 0.0, 5.0, 0.0, 2.0, 0.0, 5.0]);
    }

    #[test]
    fn dropout_eval_is_identity() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[4]), true);
        let y = x.dropout(0.5, false, || 0.0);
        assert_eq!(y.value().as_slice(), &[1.0; 4]);
    }

    #[test]
    fn dropout_train_scales() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[4]), true);
        // uniform always 0.9 > p: all survive with scale 2
        let y = x.dropout(0.5, true, || 0.9);
        assert_eq!(y.value().as_slice(), &[2.0; 4]);
    }

    #[test]
    fn reset_reuses_tape_with_fresh_id() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]), true);
        let loss = a.mul(&a).sum_all();
        let g = tape.backward(loss);
        assert_eq!(g.get(a).unwrap().as_slice(), &[2.0, 4.0]);
        let old_id = tape.id();
        tape.reset();
        assert_ne!(tape.id(), old_id, "reset must invalidate cached bindings");
        assert!(tape.is_empty());
        // The tape records and differentiates again after reset.
        let b = tape.leaf(Tensor::from_vec(vec![3.0], &[1]), true);
        let loss2 = b.mul(&b).sum_all();
        let g2 = tape.backward(loss2);
        assert_eq!(g2.get(b).unwrap().as_slice(), &[6.0]);
    }

    /// A two-input, two-output step: a product, a nonlinearity and a
    /// reduction, recorded on whichever tape `scoped` hands it.
    fn step<'s>(t: &'s Tape, v: &[Var<'s>]) -> Vec<Var<'s>> {
        let h = v[0].matmul(&v[1]).tanh();
        let c = t.constant(Tensor::full(&[1, 2], 0.5));
        vec![h.add(&c), h.sum_axes(&[1], true)]
    }

    fn inputs() -> (Tensor, Tensor) {
        let a = Tensor::arange(12).reshape(&[4, 3]).mul_scalar(0.1);
        let b = Tensor::arange(6).reshape(&[3, 2]).mul_scalar(-0.2).add_scalar(0.3);
        (a, b)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn scoped_outside_inference_records_on_the_tape_itself() {
        let (a, b) = inputs();
        let run = |scoped: bool| {
            let tape = Tape::new();
            let (av, bv) = (tape.leaf(a.clone(), true), tape.leaf(b.clone(), true));
            let outs = if scoped { tape.scoped(&[av, bv], step) } else { step(&tape, &[av, bv]) };
            let loss = outs[0].sum_all().add(&outs[1].mul_scalar(3.0).sum_all());
            let g = tape.backward(loss);
            let ga = bits(g.get(av).unwrap());
            let gb = bits(g.get(bv).unwrap());
            (tape.len(), bits(&outs[0].value()), bits(&outs[1].value()), ga, gb)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn scoped_inside_inference_keeps_only_the_outputs() {
        let (a, b) = inputs();
        let plain = {
            let tape = Tape::new();
            let (av, bv) = (tape.constant(a.clone()), tape.constant(b.clone()));
            let outs = step(&tape, &[av, bv]);
            (bits(&outs[0].value()), bits(&outs[1].value()))
        };
        let _inf = inference::InferenceGuard::enter();
        let tape = Tape::new();
        let (av, bv) = (tape.constant(a), tape.constant(b));
        let outs = tape.scoped(&[av, bv], step);
        assert_eq!(tape.len(), 4, "two inputs plus the two output constants");
        assert_eq!((bits(&outs[0].value()), bits(&outs[1].value())), plain);
        // An input that needs a gradient keeps the whole step on the tape.
        let w = tape.leaf(Tensor::ones(&[3, 2]), true);
        let outs = tape.scoped(&[av, w], step);
        assert!(outs[0].requires_grad());
        assert!(tape.len() > 8);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "belongs to another tape")]
    fn operands_from_two_tapes_are_caught() {
        let (t1, t2) = (Tape::new(), Tape::new());
        let a = t1.constant(Tensor::ones(&[2]));
        let b = t2.constant(Tensor::ones(&[2]));
        let _ = a.add(&b);
    }

    #[test]
    fn stack_shapes() {
        let tape = Tape::new();
        let a = tape.constant(Tensor::ones(&[2, 3]));
        let b = tape.constant(Tensor::zeros(&[2, 3]));
        let s = Var::stack(&[a, b], 0);
        assert_eq!(s.shape(), vec![2, 2, 3]);
        let s1 = Var::stack(&[a, b], 1);
        assert_eq!(s1.shape(), vec![2, 2, 3]);
        assert_eq!(s1.value().at(&[0, 0, 0]), 1.0);
        assert_eq!(s1.value().at(&[0, 1, 0]), 0.0);
    }
}
