//! Define-once / run-many reverse-mode autograd arena.
//!
//! Nodes are appended in topological order (an operator can only reference
//! already-existing nodes), so [`Graph::forward`] is a single in-order sweep
//! and [`Graph::backward`] a single reverse sweep. The graph is built once
//! per network and re-evaluated every optimization step; leaf values (inputs
//! and trainable parameters) can be replaced between runs.
//!
//! The graph is generic over its element [`Scalar`]: `Graph` (= `Graph<f32>`)
//! is the production path, `Graph<f64>` the accuracy reference. No kernel
//! widens silently — the masked-MSE reduction uses Neumaier-compensated
//! summation in the working precision instead of an f64 accumulator.

use crate::ops::{conv, harmonic, norm, pool};
use crate::scalar::Scalar;
use crate::Tensor;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(usize);

impl VarId {
    /// The node's index in graph insertion order.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Operator attached to a graph node, built through the [`Graph`] builder
/// methods. Scalar attributes (slopes, epsilons) are stored as `f32` and
/// converted to the graph's working precision at evaluation time — exact
/// for both precisions since every `f32` widens losslessly.
#[derive(Debug, Clone)]
enum Op {
    /// External value: network input or trainable parameter.
    Leaf,
    /// Per-channel bias addition over a `[C,F,T]` image.
    AddBias(VarId, VarId),
    /// Leaky rectified linear unit with the given negative slope.
    LeakyRelu(VarId, f32),
    /// Logistic sigmoid.
    Sigmoid(VarId),
    /// Same-padded 2-D convolution `(input, weight)` with per-axis dilation.
    Conv2d {
        /// Input image `[C,F,T]`.
        x: VarId,
        /// Weight `[Cout,Cin,KF,KT]`.
        w: VarId,
        /// Dilation along the frequency axis.
        dil_f: usize,
        /// Dilation along the time axis.
        dil_t: usize,
    },
    /// Dilated harmonic convolution (paper Eq. 8).
    HarmonicConv {
        /// Input image `[C,F,T]`.
        x: VarId,
        /// Weight `[Cout,Cin,H,KT]`.
        w: VarId,
        /// Harmonic anchor `n` of Eq. 2 (1 = forward harmonics only).
        anchor: usize,
        /// Dilation along the time axis.
        dil_t: usize,
    },
    /// Average pooling along time.
    AvgPoolTime(VarId, usize),
    /// Max pooling along frequency (Zhang-baseline ablation only).
    MaxPoolFreq(VarId, usize),
    /// Nearest-neighbour upsampling along time.
    UpsampleTime(VarId, usize),
    /// Nearest-neighbour upsampling along frequency.
    UpsampleFreq(VarId, usize),
    /// Channel concatenation of two `[C,F,T]` images.
    Concat(VarId, VarId),
    /// Instance normalization `(x, gamma, beta)`.
    InstanceNorm {
        /// Input image `[C,F,T]`.
        x: VarId,
        /// Per-channel scale `[C]`.
        gamma: VarId,
        /// Per-channel shift `[C]`.
        beta: VarId,
        /// Variance regularizer.
        eps: f32,
    },
    /// Mask-weighted mean squared error `(pred, target, mask)`, scalar.
    MseMasked(VarId, VarId, VarId),
    /// Sum of all elements, scalar.
    Sum(VarId),
}

struct Node<S: Scalar> {
    op: Op,
    value: Tensor<S>,
    grad: Tensor<S>,
    aux: Vec<S>,
    aux_idx: Vec<usize>,
    trainable: bool,
}

/// Reverse-mode autograd graph. See the [crate docs](crate) for an
/// end-to-end training example.
pub struct Graph<S: Scalar = f32> {
    nodes: Vec<Node<S>>,
    params: Vec<VarId>,
}

impl<S: Scalar> Default for Graph<S> {
    fn default() -> Self {
        Graph { nodes: Vec::new(), params: Vec::new() }
    }
}

impl<S: Scalar> std::fmt::Debug for Graph<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.nodes.len())
            .field("params", &self.params.len())
            .finish()
    }
}

impl<S: Scalar> Graph<S> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Registers a non-trainable leaf (network input, target, mask, …).
    pub fn input(&mut self, value: Tensor<S>) -> VarId {
        self.push_leaf(value, false)
    }

    /// Registers a trainable leaf; it will be visited by optimizers.
    pub fn param(&mut self, value: Tensor<S>) -> VarId {
        let id = self.push_leaf(value, true);
        self.params.push(id);
        id
    }

    /// Trainable parameter handles, in registration order.
    pub fn params(&self) -> &[VarId] {
        &self.params
    }

    /// Total number of trainable scalar parameters.
    pub fn param_count(&self) -> usize {
        self.params.iter().map(|&p| self.nodes[p.0].value.numel()).sum()
    }

    /// Current value of a node.
    pub fn value(&self, id: VarId) -> &Tensor<S> {
        &self.nodes[id.0].value
    }

    /// Current gradient of a node (zeros before the first backward pass).
    pub fn grad(&self, id: VarId) -> &Tensor<S> {
        &self.nodes[id.0].grad
    }

    /// Replaces a leaf's value.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a leaf or the new shape differs.
    pub fn set_value(&mut self, id: VarId, value: Tensor<S>) {
        let node = &mut self.nodes[id.0];
        assert!(matches!(node.op, Op::Leaf), "set_value only applies to leaves");
        assert_eq!(node.value.shape(), value.shape(), "set_value cannot change shape");
        node.value = value;
    }

    /// Mutable access to a leaf's value buffer (used by optimizers).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a leaf.
    pub fn leaf_value_mut(&mut self, id: VarId) -> &mut Tensor<S> {
        let node = &mut self.nodes[id.0];
        assert!(matches!(node.op, Op::Leaf), "leaf_value_mut only applies to leaves");
        &mut node.value
    }

    fn push_leaf(&mut self, value: Tensor<S>, trainable: bool) -> VarId {
        let grad = Tensor::zeros(value.shape());
        self.nodes.push(Node {
            op: Op::Leaf,
            value,
            grad,
            aux: Vec::new(),
            aux_idx: Vec::new(),
            trainable,
        });
        VarId(self.nodes.len() - 1)
    }

    fn push_op(&mut self, op: Op, shape: Vec<usize>) -> VarId {
        let idx = self.nodes.len();
        self.nodes.push(Node {
            op,
            value: Tensor::zeros(&shape),
            grad: Tensor::zeros(&shape),
            aux: Vec::new(),
            aux_idx: Vec::new(),
            trainable: false,
        });
        self.eval_at(idx);
        VarId(idx)
    }

    fn shape_of(&self, id: VarId) -> &[usize] {
        self.nodes[id.0].value.shape()
    }

    fn assert_same_shape(&self, a: VarId, b: VarId, what: &str) {
        assert_eq!(
            self.shape_of(a),
            self.shape_of(b),
            "{what}: operand shapes differ ({:?} vs {:?})",
            self.shape_of(a),
            self.shape_of(b)
        );
    }

    // ----- builder methods ------------------------------------------------

    /// Adds per-channel bias `b` (`[C]`) to image `x` (`[C,F,T]`).
    ///
    /// # Panics
    ///
    /// Panics if ranks or channel counts disagree.
    pub fn add_bias(&mut self, x: VarId, b: VarId) -> VarId {
        assert_eq!(self.shape_of(x).len(), 3, "add_bias input must be [C,F,T]");
        assert_eq!(
            self.shape_of(b),
            &[self.shape_of(x)[0]],
            "bias must be [C] matching the input channels"
        );
        let shape = self.shape_of(x).to_vec();
        self.push_op(Op::AddBias(x, b), shape)
    }

    /// Leaky ReLU with negative slope `slope`.
    pub fn leaky_relu(&mut self, x: VarId, slope: f32) -> VarId {
        let shape = self.shape_of(x).to_vec();
        self.push_op(Op::LeakyRelu(x, slope), shape)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: VarId) -> VarId {
        let shape = self.shape_of(x).to_vec();
        self.push_op(Op::Sigmoid(x), shape)
    }

    /// Same-padded 2-D convolution with dilation `(dil_f, dil_t)`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches (see [`ops::conv::check_shapes`]).
    ///
    /// [`ops::conv::check_shapes`]: crate::ops::conv::check_shapes
    pub fn conv2d(&mut self, x: VarId, w: VarId, dil_f: usize, dil_t: usize) -> VarId {
        let (_, f, t, cout, _, _) =
            conv::check_shapes(&self.nodes[x.0].value, &self.nodes[w.0].value);
        self.push_op(Op::Conv2d { x, w, dil_f, dil_t }, vec![cout, f, t])
    }

    /// Dilated harmonic convolution (paper Eq. 8) with the given anchor.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches (see [`ops::harmonic::check_shapes`]).
    ///
    /// [`ops::harmonic::check_shapes`]: crate::ops::harmonic::check_shapes
    pub fn harmonic_conv(&mut self, x: VarId, w: VarId, anchor: usize, dil_t: usize) -> VarId {
        let (_, f, t, cout, _, _) =
            harmonic::check_shapes(&self.nodes[x.0].value, &self.nodes[w.0].value, anchor);
        self.push_op(Op::HarmonicConv { x, w, anchor, dil_t }, vec![cout, f, t])
    }

    /// Average pooling along time by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if the time extent is not divisible by `factor`.
    pub fn avg_pool_time(&mut self, x: VarId, factor: usize) -> VarId {
        let s = self.shape_of(x);
        assert_eq!(s.len(), 3);
        assert_eq!(s[2] % factor, 0, "time extent {} not divisible by {factor}", s[2]);
        let shape = vec![s[0], s[1], s[2] / factor];
        self.push_op(Op::AvgPoolTime(x, factor), shape)
    }

    /// Max pooling along frequency by `factor` (ablation use only).
    ///
    /// # Panics
    ///
    /// Panics if the frequency extent is not divisible by `factor`.
    pub fn max_pool_freq(&mut self, x: VarId, factor: usize) -> VarId {
        let s = self.shape_of(x);
        assert_eq!(s.len(), 3);
        assert_eq!(s[1] % factor, 0, "freq extent {} not divisible by {factor}", s[1]);
        let shape = vec![s[0], s[1] / factor, s[2]];
        self.push_op(Op::MaxPoolFreq(x, factor), shape)
    }

    /// Nearest-neighbour upsampling along time by `factor`.
    pub fn upsample_time(&mut self, x: VarId, factor: usize) -> VarId {
        let s = self.shape_of(x);
        assert_eq!(s.len(), 3);
        let shape = vec![s[0], s[1], s[2] * factor];
        self.push_op(Op::UpsampleTime(x, factor), shape)
    }

    /// Nearest-neighbour upsampling along frequency by `factor`.
    pub fn upsample_freq(&mut self, x: VarId, factor: usize) -> VarId {
        let s = self.shape_of(x);
        assert_eq!(s.len(), 3);
        let shape = vec![s[0], s[1] * factor, s[2]];
        self.push_op(Op::UpsampleFreq(x, factor), shape)
    }

    /// Concatenates two `[C,F,T]` images along channels.
    ///
    /// # Panics
    ///
    /// Panics if spatial extents differ.
    pub fn concat(&mut self, a: VarId, b: VarId) -> VarId {
        let (sa, sb) = (self.shape_of(a), self.shape_of(b));
        assert_eq!(sa.len(), 3);
        assert_eq!(sb.len(), 3);
        assert_eq!(&sa[1..], &sb[1..], "concat spatial extents differ");
        let shape = vec![sa[0] + sb[0], sa[1], sa[2]];
        self.push_op(Op::Concat(a, b), shape)
    }

    /// Instance normalization with affine parameters.
    ///
    /// # Panics
    ///
    /// Panics if `gamma`/`beta` are not `[C]` or alias the same node.
    pub fn instance_norm(&mut self, x: VarId, gamma: VarId, beta: VarId) -> VarId {
        assert_ne!(gamma, beta, "gamma and beta must be distinct nodes");
        let s = self.shape_of(x).to_vec();
        assert_eq!(s.len(), 3);
        assert_eq!(self.shape_of(gamma), &[s[0]]);
        assert_eq!(self.shape_of(beta), &[s[0]]);
        self.push_op(Op::InstanceNorm { x, gamma, beta, eps: 1e-5 }, s)
    }

    /// Mask-weighted MSE `Σ mask·(pred−target)² / Σ mask` (scalar output).
    ///
    /// Gradients flow into `pred` and `target` but not the mask.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ or `pred` aliases `target`.
    pub fn mse_masked(&mut self, pred: VarId, target: VarId, mask: VarId) -> VarId {
        assert_ne!(pred, target, "pred and target must be distinct nodes");
        self.assert_same_shape(pred, target, "mse_masked");
        self.assert_same_shape(pred, mask, "mse_masked");
        self.push_op(Op::MseMasked(pred, target, mask), vec![1])
    }

    /// Sum of all elements (scalar output).
    pub fn sum(&mut self, x: VarId) -> VarId {
        self.push_op(Op::Sum(x), vec![1])
    }

    // ----- execution ------------------------------------------------------

    /// Recomputes every non-leaf node in insertion (topological) order.
    pub fn forward(&mut self) {
        for i in 0..self.nodes.len() {
            if !matches!(self.nodes[i].op, Op::Leaf) {
                self.eval_at(i);
            }
        }
    }

    /// Zeroes every gradient buffer.
    pub fn zero_grads(&mut self) {
        for n in &mut self.nodes {
            n.grad.fill_zero();
        }
    }

    /// Reverse-mode gradient computation seeded at scalar node `loss`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a scalar (one element).
    pub fn backward(&mut self, loss: VarId) {
        assert_eq!(self.nodes[loss.0].value.numel(), 1, "backward seed must be scalar");
        self.zero_grads();
        self.nodes[loss.0].grad.data_mut()[0] = S::ONE;
        for i in (0..self.nodes.len()).rev() {
            self.backprop_at(i);
        }
    }

    /// Gradient of a trainable parameter, paired with mutable value access,
    /// for optimizer updates.
    pub(crate) fn param_value_and_grad(&mut self, id: VarId) -> (&mut Tensor<S>, &Tensor<S>) {
        let node = &mut self.nodes[id.0];
        debug_assert!(node.trainable, "not a trainable parameter");
        (&mut node.value, &node.grad)
    }

    fn eval_at(&mut self, i: usize) {
        let (before, rest) = self.nodes.split_at_mut(i);
        let node = &mut rest[0];
        let v = |id: VarId| -> &Tensor<S> {
            assert!(id.0 < i, "operator input must precede the node");
            &before[id.0].value
        };
        match node.op {
            Op::Leaf => {}
            Op::AddBias(x, b) => {
                let (vx, vb) = (v(x), v(b));
                let (c, f, t) = (vx.shape()[0], vx.shape()[1], vx.shape()[2]);
                let od = node.value.data_mut();
                for ci in 0..c {
                    let bias = vb.data()[ci];
                    for j in 0..f * t {
                        od[ci * f * t + j] = vx.data()[ci * f * t + j] + bias;
                    }
                }
            }
            Op::LeakyRelu(a, slope) => {
                let slope = S::from_f32(slope);
                for (o, &x) in node.value.data_mut().iter_mut().zip(v(a).data()) {
                    *o = if x > S::ZERO { x } else { slope * x };
                }
            }
            Op::Sigmoid(a) => {
                for (o, &x) in node.value.data_mut().iter_mut().zip(v(a).data()) {
                    *o = S::ONE / (S::ONE + (-x).exp());
                }
            }
            Op::Conv2d { x, w, dil_f, dil_t } => {
                conv::forward(v(x), v(w), dil_f, dil_t, &mut node.value);
            }
            Op::HarmonicConv { x, w, anchor, dil_t } => {
                harmonic::forward(v(x), v(w), anchor, dil_t, &mut node.value);
            }
            Op::AvgPoolTime(x, factor) => {
                pool::avg_pool_time_forward(v(x), factor, &mut node.value);
            }
            Op::MaxPoolFreq(x, factor) => {
                pool::max_pool_freq_forward(v(x), factor, &mut node.value, &mut node.aux_idx);
            }
            Op::UpsampleTime(x, factor) => {
                pool::upsample_time_forward(v(x), factor, &mut node.value);
            }
            Op::UpsampleFreq(x, factor) => {
                pool::upsample_freq_forward(v(x), factor, &mut node.value);
            }
            Op::Concat(a, b) => {
                let (va, vb) = (v(a), v(b));
                let na = va.numel();
                node.value.data_mut()[..na].copy_from_slice(va.data());
                node.value.data_mut()[na..].copy_from_slice(vb.data());
            }
            Op::InstanceNorm { x, gamma, beta, eps } => {
                norm::forward(v(x), v(gamma), v(beta), eps, &mut node.value, &mut node.aux);
            }
            Op::MseMasked(pred, target, mask) => {
                let (vp, vt, vm) = (v(pred), v(target), v(mask));
                // Neumaier-compensated sum in the working precision — no
                // silent f64 widening on the f32 path. The denominator is a
                // sum of 0/1 mask weights and stays exact directly; only
                // the numerator needs compensation. Gradients depend on the
                // denominator alone, so this choice only affects the
                // *reported* loss value.
                let mut num = S::ZERO;
                let mut comp = S::ZERO;
                let mut den = S::ZERO;
                for ((&p, &t), &m) in vp.data().iter().zip(vt.data()).zip(vm.data()) {
                    let d = p - t;
                    let term = m * d * d;
                    let sum = num + term;
                    comp += if num.abs() >= term.abs() {
                        (num - sum) + term
                    } else {
                        (term - sum) + num
                    };
                    num = sum;
                    den += m;
                }
                let num = num + comp;
                node.aux.clear();
                node.aux.push(den);
                node.value.data_mut()[0] = if den > S::ZERO { num / den } else { S::ZERO };
            }
            Op::Sum(a) => {
                node.value.data_mut()[0] = v(a).sum();
            }
        }
    }

    fn backprop_at(&mut self, i: usize) {
        // Fast exit for leaves: nothing flows further back.
        if matches!(self.nodes[i].op, Op::Leaf) {
            return;
        }
        let (before, rest) = self.nodes.split_at_mut(i);
        let node = &rest[0];
        let go = &node.grad;

        // Helper for single-input accumulation with access to that input's
        // value (field-split keeps the borrows disjoint).
        macro_rules! acc {
            ($id:expr, $f:expr) => {{
                let n = &mut before[$id.0];
                let value = &n.value;
                let grad = &mut n.grad;
                #[allow(clippy::redundant_closure_call)]
                ($f)(value, grad);
            }};
        }

        match node.op {
            Op::Leaf => {}
            Op::AddBias(x, b) => {
                let (c, rest_len) = {
                    let s = node.value.shape();
                    (s[0], s[1] * s[2])
                };
                acc!(x, |_v: &Tensor<S>, g: &mut Tensor<S>| {
                    for (gi, &u) in g.data_mut().iter_mut().zip(go.data()) {
                        *gi += u;
                    }
                });
                acc!(b, |_v: &Tensor<S>, g: &mut Tensor<S>| {
                    for ci in 0..c {
                        let mut acc = S::ZERO;
                        for j in 0..rest_len {
                            acc += go.data()[ci * rest_len + j];
                        }
                        g.data_mut()[ci] += acc;
                    }
                });
            }
            Op::LeakyRelu(a, slope) => {
                let slope = S::from_f32(slope);
                acc!(a, |v: &Tensor<S>, g: &mut Tensor<S>| {
                    for ((gi, &u), &x) in g.data_mut().iter_mut().zip(go.data()).zip(v.data()) {
                        *gi += if x > S::ZERO { u } else { slope * u };
                    }
                });
            }
            Op::Sigmoid(a) => {
                let y = &node.value;
                acc!(a, |_v: &Tensor<S>, g: &mut Tensor<S>| {
                    for ((gi, &u), &yo) in g.data_mut().iter_mut().zip(go.data()).zip(y.data()) {
                        *gi += u * yo * (S::ONE - yo);
                    }
                });
            }
            Op::Conv2d { x, w, dil_f, dil_t } => {
                let (nx, nw) = pair_mut(before, x.0, w.0);
                conv::backward(&nx.value, &nw.value, go, dil_f, dil_t, &mut nx.grad, &mut nw.grad);
            }
            Op::HarmonicConv { x, w, anchor, dil_t } => {
                let (nx, nw) = pair_mut(before, x.0, w.0);
                harmonic::backward(
                    &nx.value,
                    &nw.value,
                    go,
                    anchor,
                    dil_t,
                    &mut nx.grad,
                    &mut nw.grad,
                );
            }
            Op::AvgPoolTime(x, factor) => {
                acc!(x, |_v: &Tensor<S>, g: &mut Tensor<S>| {
                    pool::avg_pool_time_backward(go, factor, g);
                });
            }
            Op::MaxPoolFreq(x, _factor) => {
                let argmax = &node.aux_idx;
                acc!(x, |_v: &Tensor<S>, g: &mut Tensor<S>| {
                    pool::max_pool_freq_backward(go, argmax, g);
                });
            }
            Op::UpsampleTime(x, factor) => {
                acc!(x, |_v: &Tensor<S>, g: &mut Tensor<S>| {
                    pool::upsample_time_backward(go, factor, g);
                });
            }
            Op::UpsampleFreq(x, factor) => {
                acc!(x, |_v: &Tensor<S>, g: &mut Tensor<S>| {
                    pool::upsample_freq_backward(go, factor, g);
                });
            }
            Op::Concat(a, b) => {
                let na = before[a.0].value.numel();
                acc!(a, |_v: &Tensor<S>, g: &mut Tensor<S>| {
                    for (gi, &u) in g.data_mut().iter_mut().zip(&go.data()[..na]) {
                        *gi += u;
                    }
                });
                acc!(b, |_v: &Tensor<S>, g: &mut Tensor<S>| {
                    for (gi, &u) in g.data_mut().iter_mut().zip(&go.data()[na..]) {
                        *gi += u;
                    }
                });
            }
            Op::InstanceNorm { x, gamma, beta, .. } => {
                // x, gamma, beta are pairwise distinct (checked at build).
                let aux = node.aux.clone();
                let vgamma = before[gamma.0].value.clone();
                {
                    let (nx, ngamma) = pair_mut(before, x.0, gamma.0);
                    // grad_beta handled separately below to keep borrows simple.
                    let mut gbeta_tmp = Tensor::zeros(vgamma.shape());
                    norm::backward(
                        &nx.value,
                        &vgamma,
                        go,
                        &aux,
                        &mut nx.grad,
                        &mut ngamma.grad,
                        &mut gbeta_tmp,
                    );
                    let nb = &mut before[beta.0];
                    for (gi, &u) in nb.grad.data_mut().iter_mut().zip(gbeta_tmp.data()) {
                        *gi += u;
                    }
                }
            }
            Op::MseMasked(pred, target, mask) => {
                let den = node.aux[0];
                if den <= S::ZERO {
                    return;
                }
                let scale = S::from_f32(2.0) * go.data()[0] / den;
                let vt = before[target.0].value.clone();
                let vm = before[mask.0].value.clone();
                acc!(pred, |v: &Tensor<S>, g: &mut Tensor<S>| {
                    for (i, gi) in g.data_mut().iter_mut().enumerate() {
                        *gi += scale * vm.data()[i] * (v.data()[i] - vt.data()[i]);
                    }
                });
                let vp = before[pred.0].value.clone();
                acc!(target, |v: &Tensor<S>, g: &mut Tensor<S>| {
                    for (i, gi) in g.data_mut().iter_mut().enumerate() {
                        *gi -= scale * vm.data()[i] * (vp.data()[i] - v.data()[i]);
                    }
                });
            }
            Op::Sum(a) => {
                let u = go.data()[0];
                acc!(a, |_v: &Tensor<S>, g: &mut Tensor<S>| {
                    for gi in g.data_mut().iter_mut() {
                        *gi += u;
                    }
                });
            }
        }
    }
}

/// Two disjoint mutable references into a node slice.
///
/// # Panics
///
/// Panics if `a == b`.
fn pair_mut<S: Scalar>(nodes: &mut [Node<S>], a: usize, b: usize) -> (&mut Node<S>, &mut Node<S>) {
    assert_ne!(a, b, "pair_mut requires distinct indices");
    if a < b {
        let (lo, hi) = nodes.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = nodes.split_at_mut(a);
        let (x, y) = (&mut hi[0], &mut lo[b]);
        (x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Finite-difference check of `∂loss/∂leaf` for every element of `leaf`.
    ///
    /// Elements whose perturbation crosses a non-differentiable point (the
    /// leaky-ReLU kink, a max-pool argmax switch) are skipped: there the
    /// central difference estimates a subgradient average, not the one-sided
    /// derivative the backward pass correctly returns. Kinks are detected
    /// through the forward/backward one-sided difference asymmetry: the
    /// step is halved until the asymmetry is negligible (a nearby kink has
    /// left the window and smooth curvature has decayed), and only then is
    /// the central difference trusted. Elements still asymmetric at the
    /// smallest step (a kink essentially at the operating point) are
    /// skipped, but never more than half of the leaf.
    fn gradcheck(g: &mut Graph, loss: VarId, leaf: VarId, tol: f32) {
        g.forward();
        g.backward(loss);
        let analytic = g.grad(leaf).clone();
        let n = g.value(leaf).numel();
        let mut checked = 0usize;
        for i in 0..n {
            let orig = g.value(leaf).data()[i];
            let mut loss_at = |v: f32| -> f32 {
                g.leaf_value_mut(leaf).data_mut()[i] = v;
                g.forward();
                g.value(loss).data()[0]
            };
            let l0 = loss_at(orig);
            let mut h = 1e-2f32;
            let mut num = None;
            for _ in 0..4 {
                let lp = loss_at(orig + h);
                let lm = loss_at(orig - h);
                let fwd = (lp - l0) / h;
                let bwd = (l0 - lm) / h;
                let scale = 1.0 + fwd.abs().max(bwd.abs());
                if (fwd - bwd).abs() <= 0.25 * tol * scale {
                    num = Some((lp - lm) / (2.0 * h));
                    break;
                }
                h *= 0.5;
            }
            g.leaf_value_mut(leaf).data_mut()[i] = orig;
            let Some(num) = num else { continue };
            let a = analytic.data()[i];
            assert!(
                (num - a).abs() < tol * (1.0 + num.abs().max(a.abs())),
                "grad[{i}]: numeric {num} vs analytic {a}"
            );
            checked += 1;
        }
        assert!(checked * 2 >= n, "too many kink-skipped elements: {checked}/{n} checked");
        g.forward();
    }

    fn rand_leaf(g: &mut Graph, shape: &[usize], seed: u64, trainable: bool) -> VarId {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Tensor::rand_normal(shape, 0.5, &mut rng);
        if trainable {
            g.param(t)
        } else {
            g.input(t)
        }
    }

    /// Masked MSE of `y` against a fixed random target over every element:
    /// a non-linear scalar loss whose gradient reaches every input. (A sum,
    /// or `mean(y²)`, would hand instance norm's input near-zero
    /// gradients: normalization fixes each channel's mean and variance.)
    fn mse_to_random_target(g: &mut Graph, y: VarId, seed: u64) -> VarId {
        let shape = g.value(y).shape().to_vec();
        let target = rand_leaf(g, &shape, seed, false);
        let all = g.input(Tensor::filled(&shape, 1.0));
        g.mse_masked(y, target, all)
    }

    #[test]
    fn activations_forward() {
        let mut g: Graph = Graph::new();
        let x = g.input(Tensor::from_vec(&[2], vec![1.0, -1.0]));
        let r = g.leaky_relu(x, 0.1);
        let s = g.sigmoid(x);
        assert_eq!(g.value(r).data(), &[1.0, -0.1]);
        assert!((g.value(s).data()[0] - 0.7310586).abs() < 1e-5);
        assert!((g.value(s).data()[1] - 0.26894143).abs() < 1e-5);
    }

    #[test]
    fn gradcheck_sigmoid() {
        let mut g: Graph = Graph::new();
        let a = rand_leaf(&mut g, &[6], 4, true);
        let s = g.sigmoid(a);
        let loss = g.sum(s);
        gradcheck(&mut g, loss, a, 0.05);
    }

    #[test]
    fn gradcheck_conv_and_bias() {
        let mut g: Graph = Graph::new();
        let x = rand_leaf(&mut g, &[2, 4, 5], 5, true);
        let w = rand_leaf(&mut g, &[3, 2, 3, 3], 6, true);
        let b = rand_leaf(&mut g, &[3], 7, true);
        let y = g.conv2d(x, w, 1, 1);
        let yb = g.add_bias(y, b);
        let r = g.leaky_relu(yb, 0.1);
        let loss = g.sum(r);
        gradcheck(&mut g, loss, w, 0.08);
        gradcheck(&mut g, loss, b, 0.05);
        gradcheck(&mut g, loss, x, 0.08);
    }

    #[test]
    fn gradcheck_harmonic_conv() {
        let mut g: Graph = Graph::new();
        let x = rand_leaf(&mut g, &[1, 8, 6], 8, true);
        let w = rand_leaf(&mut g, &[2, 1, 3, 3], 9, true);
        let y = g.harmonic_conv(x, w, 1, 2);
        let loss = g.sum(y);
        gradcheck(&mut g, loss, x, 0.08);
        gradcheck(&mut g, loss, w, 0.08);
    }

    #[test]
    fn gradcheck_pool_and_upsample() {
        let mut g: Graph = Graph::new();
        let x = rand_leaf(&mut g, &[2, 4, 8], 10, true);
        let p = g.avg_pool_time(x, 2);
        let u = g.upsample_time(p, 2);
        let loss = g.sum(u);
        gradcheck(&mut g, loss, x, 0.05);
    }

    #[test]
    fn gradcheck_max_pool_freq() {
        let mut g: Graph = Graph::new();
        let x = rand_leaf(&mut g, &[1, 4, 3], 11, true);
        let p = g.max_pool_freq(x, 2);
        let u = g.upsample_freq(p, 2);
        let loss = g.sum(u);
        gradcheck(&mut g, loss, x, 0.05);
    }

    #[test]
    fn gradcheck_concat() {
        let mut g: Graph = Graph::new();
        let a = rand_leaf(&mut g, &[1, 3, 4], 12, true);
        let b = rand_leaf(&mut g, &[2, 3, 4], 13, true);
        let c = g.concat(a, b);
        let loss = mse_to_random_target(&mut g, c, 17);
        gradcheck(&mut g, loss, a, 0.05);
        gradcheck(&mut g, loss, b, 0.05);
    }

    #[test]
    fn gradcheck_instance_norm() {
        let mut g: Graph = Graph::new();
        let x = rand_leaf(&mut g, &[2, 3, 4], 14, true);
        let gamma = g.param(Tensor::from_vec(&[2], vec![1.2, 0.8]));
        let beta = g.param(Tensor::from_vec(&[2], vec![0.1, -0.1]));
        let y = g.instance_norm(x, gamma, beta);
        let loss = mse_to_random_target(&mut g, y, 18);
        gradcheck(&mut g, loss, x, 0.1);
        gradcheck(&mut g, loss, gamma, 0.05);
        gradcheck(&mut g, loss, beta, 0.05);
    }

    #[test]
    fn gradcheck_mse_masked() {
        let mut g: Graph = Graph::new();
        let p = rand_leaf(&mut g, &[2, 3, 4], 15, true);
        let t = rand_leaf(&mut g, &[2, 3, 4], 16, false);
        let mask_data: Vec<f32> = (0..24).map(|i| if i % 3 == 0 { 1.0 } else { 0.0 }).collect();
        let m = g.input(Tensor::from_vec(&[2, 3, 4], mask_data));
        let loss = g.mse_masked(p, t, m);
        gradcheck(&mut g, loss, p, 0.05);
    }

    #[test]
    fn mse_masked_ignores_masked_out_regions() {
        let mut g: Graph = Graph::new();
        let p = g.input(Tensor::from_vec(&[4], vec![1.0, 2.0, 3.0, 4.0]));
        let t = g.input(Tensor::from_vec(&[4], vec![1.0, 0.0, 3.0, 0.0]));
        let m = g.input(Tensor::from_vec(&[4], vec![1.0, 0.0, 1.0, 0.0]));
        let loss = g.mse_masked(p, t, m);
        assert_eq!(g.value(loss).data()[0], 0.0);
    }

    #[test]
    fn mse_masked_matches_f64_reference_within_budget() {
        // The compensated f32 reduction must track an exact f64 evaluation
        // of the same inputs to near machine precision even over many cells
        // of wildly varying magnitude.
        let mut rng = StdRng::seed_from_u64(99);
        let n = 1 << 14;
        let pred: Tensor<f32> = Tensor::rand_normal(&[n], 1.0, &mut rng);
        let target: Tensor<f32> = Tensor::rand_normal(&[n], 1.0, &mut rng);
        let mask_data: Vec<f32> = (0..n).map(|i| if i % 4 == 0 { 0.0 } else { 1.0 }).collect();

        let mut g: Graph = Graph::new();
        let p = g.input(pred.clone());
        let t = g.input(target.clone());
        let m = g.input(Tensor::from_vec(&[n], mask_data.clone()));
        let loss = g.mse_masked(p, t, m);
        let got = g.value(loss).data()[0] as f64;

        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for ((&p, &t), &m) in pred.data().iter().zip(target.data()).zip(&mask_data) {
            let d = (p - t) as f64;
            num += m as f64 * d * d;
            den += m as f64;
        }
        let want = num / den;
        assert!(
            (got - want).abs() <= 1e-6 * want.abs(),
            "compensated f32 loss {got} vs f64 reference {want}"
        );
    }

    #[test]
    fn f64_graph_runs_the_same_operator_set() {
        let mut g: Graph<f64> = Graph::new();
        let x = g.input(Tensor::from_vec(&[1, 2, 2], vec![1.0, -2.0, 3.0, -4.0]));
        let w = g.param(Tensor::from_vec(&[1, 1, 1, 1], vec![0.5]));
        let y = g.conv2d(x, w, 1, 1);
        let r = g.leaky_relu(y, 0.1);
        let s = g.sigmoid(r);
        let loss = g.sum(s);
        g.forward();
        g.backward(loss);
        assert!(g.value(loss).data()[0].is_finite());
        assert!(g.grad(w).data()[0].abs() > 0.0);
    }

    #[test]
    fn forward_reflects_new_leaf_values() {
        let mut g: Graph = Graph::new();
        let a = g.input(Tensor::filled(&[1, 1, 1], 1.0));
        let b = g.input(Tensor::filled(&[1, 1, 1], 2.0));
        let c = g.concat(a, b);
        let s = g.sum(c);
        assert_eq!(g.value(s).data()[0], 3.0);
        g.set_value(a, Tensor::filled(&[1, 1, 1], 10.0));
        g.forward();
        assert_eq!(g.value(s).data()[0], 12.0);
    }

    #[test]
    #[should_panic(expected = "cannot change shape")]
    fn set_value_rejects_shape_change() {
        let mut g: Graph = Graph::new();
        let a = g.input(Tensor::scalar(1.0));
        g.set_value(a, Tensor::zeros(&[2]));
    }

    #[test]
    fn param_count_sums_trainables() {
        let mut g: Graph = Graph::new();
        let _x = g.input(Tensor::zeros(&[100]));
        let _w = g.param(Tensor::zeros(&[3, 2, 3, 3]));
        let _b = g.param(Tensor::zeros(&[3]));
        assert_eq!(g.param_count(), 54 + 3);
        assert_eq!(g.params().len(), 2);
    }
}
