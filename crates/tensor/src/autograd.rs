//! Reverse-mode automatic differentiation.
//!
//! A [`Tape`] records a DAG of operations as they execute (define-by-run,
//! PyTorch style). Each node keeps *only* the tensors its backward formula
//! needs ("saved for backward" semantics), so the memory the tape retains
//! between forward and backward is exactly what the paper's State-Stack
//! analysis reasons about. [`Tape::custom`] lets other crates (the Seastar
//! executor, the PyG-T baseline) register graph-aggregation ops with their
//! own backward kernels — including backwards that pop executor stacks.
//!
//! As in PyTorch, only what needs a gradient is differentiated. Parameters
//! and inputs need one, constants do not, and an op needs one iff any of
//! its inputs does. An op over constants records no backward (its result
//! is a constant), and a recorded backward is told which inputs need a
//! gradient, so it computes — and the tape accumulates — only those.

use crate::shape::Shape;
use crate::tensor::Tensor;
use std::cell::RefCell;
use std::rc::Rc;

/// Shared storage for a trainable parameter: value plus accumulated gradient.
pub struct ParamInner {
    /// Current parameter value.
    pub value: Tensor,
    /// Accumulated gradient (zeroed by [`Param::zero_grad`]).
    pub grad: Tensor,
    /// Human-readable name (for debugging / optimizer state keys).
    pub name: String,
}

/// A trainable parameter. Cloning shares storage; gradients accumulate into
/// the shared cell across [`Tape::backward`] calls until zeroed.
#[derive(Clone)]
pub struct Param {
    inner: Rc<RefCell<ParamInner>>,
}

impl Param {
    /// Creates a parameter from an initial value.
    pub fn new(name: impl Into<String>, value: Tensor) -> Param {
        let grad = Tensor::zeros(value.shape());
        Param {
            inner: Rc::new(RefCell::new(ParamInner {
                value,
                grad,
                name: name.into(),
            })),
        }
    }

    /// The parameter's current value (cheap clone of shared storage).
    pub fn value(&self) -> Tensor {
        self.inner.borrow().value.clone()
    }

    /// The accumulated gradient.
    pub fn grad(&self) -> Tensor {
        self.inner.borrow().grad.clone()
    }

    /// The parameter's name.
    pub fn name(&self) -> String {
        self.inner.borrow().name.clone()
    }

    /// Overwrites the value (used by optimizers).
    pub fn set_value(&self, v: Tensor) {
        self.inner.borrow_mut().value = v;
    }

    /// Overwrites the accumulated gradient (gradient clipping etc.).
    pub fn set_grad(&self, g: Tensor) {
        let mut inner = self.inner.borrow_mut();
        assert_eq!(g.shape(), inner.value.shape(), "set_grad: shape mismatch");
        inner.grad = g;
    }

    /// Resets the gradient to zeros.
    pub fn zero_grad(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.grad = Tensor::zeros(inner.value.shape());
    }

    fn accumulate(&self, g: &Tensor) {
        let mut inner = self.inner.borrow_mut();
        inner.grad = inner.grad.add(g);
    }
}

/// Where a leaf node sends incoming gradients.
enum LeafSink {
    /// Accumulate into a parameter.
    Param(Param),
    /// Store for inspection (gradcheck on inputs).
    Input(Rc<RefCell<Option<Tensor>>>),
    /// Discard (plain data).
    Constant,
}

/// `backward(grad_out, needs)`: one entry per input, `None` where
/// `needs[i]` is false (or where the gradient is zero).
type BackwardFn = Box<dyn FnMut(&Tensor, &[bool]) -> Vec<Option<Tensor>>>;

enum NodeKind {
    Leaf(LeafSink),
    Op {
        parents: Vec<usize>,
        /// Which parents need a gradient (fixed when the op is recorded).
        needs: Vec<bool>,
        backward: BackwardFn,
    },
}

struct Node {
    kind: NodeKind,
    shape: Shape,
}

/// Handle to the gradient of an input leaf, filled in by `backward`.
#[derive(Clone)]
pub struct InputGrad(Rc<RefCell<Option<Tensor>>>);

impl InputGrad {
    /// The gradient, if backward has produced one.
    pub fn get(&self) -> Option<Tensor> {
        self.0.borrow().clone()
    }
}

/// A gradient tape recording one forward computation.
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

/// A value on a tape: node id, the forward tensor, and whether anything
/// differentiable (a parameter or an input) flows into it.
#[derive(Clone)]
pub struct Var<'t> {
    tape: &'t Tape,
    id: usize,
    value: Tensor,
    requires_grad: bool,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Tape {
        Tape {
            nodes: RefCell::new(Vec::new()),
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn push(&self, kind: NodeKind, shape: Shape) -> usize {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node { kind, shape });
        nodes.len() - 1
    }

    /// Registers a parameter leaf; gradients accumulate into the parameter.
    pub fn param<'t>(&'t self, p: &Param) -> Var<'t> {
        let value = p.value();
        let id = self.push(NodeKind::Leaf(LeafSink::Param(p.clone())), value.shape());
        Var {
            tape: self,
            id,
            value,
            requires_grad: true,
        }
    }

    /// Registers a non-trainable data leaf (features, targets). It needs no
    /// gradient, and neither does an op whose inputs are all constants.
    pub fn constant(&self, t: Tensor) -> Var<'_> {
        let id = self.push(NodeKind::Leaf(LeafSink::Constant), t.shape());
        Var {
            tape: self,
            id,
            value: t,
            requires_grad: false,
        }
    }

    /// Registers an input leaf whose gradient can be read back after
    /// `backward` (for gradient checking).
    pub fn input(&self, t: Tensor) -> (Var<'_>, InputGrad) {
        let cell = Rc::new(RefCell::new(None));
        let id = self.push(NodeKind::Leaf(LeafSink::Input(Rc::clone(&cell))), t.shape());
        (
            Var {
                tape: self,
                id,
                value: t,
                requires_grad: true,
            },
            InputGrad(cell),
        )
    }

    /// Records a custom differentiable op.
    ///
    /// `backward(grad_out, needs)` returns one entry per input, in order:
    /// the gradient where `needs[i]`, `None` elsewhere (a `None` where a
    /// gradient is needed counts as zero). It is `FnMut` so backwards may
    /// consume state pushed during the forward pass (the State-Stack /
    /// Graph-Stack pattern of Algorithm 1).
    ///
    /// When no input needs a gradient nothing is recorded: `value` comes
    /// back as a constant and `backward`, with everything it captured, is
    /// dropped here. A caller whose forward has side effects that only its
    /// backward undoes checks [`Var::requires_grad`] first.
    pub fn custom<'t>(
        &'t self,
        inputs: &[&Var<'t>],
        value: Tensor,
        backward: impl FnMut(&Tensor, &[bool]) -> Vec<Option<Tensor>> + 'static,
    ) -> Var<'t> {
        let needs: Vec<bool> = inputs.iter().map(|v| v.requires_grad).collect();
        if !needs.contains(&true) {
            return self.constant(value);
        }
        let parents = inputs.iter().map(|v| v.id).collect();
        let id = self.push(
            NodeKind::Op {
                parents,
                needs,
                backward: Box::new(backward),
            },
            value.shape(),
        );
        Var {
            tape: self,
            id,
            value,
            requires_grad: true,
        }
    }

    /// Runs reverse-mode accumulation from `loss` (seeded with 1.0).
    ///
    /// Nodes are visited in strictly decreasing id order, which is a reverse
    /// topological order of the recorded DAG — so custom backwards observe
    /// exact LIFO order relative to their forwards, the discipline the
    /// paper's State Stack and Graph Stack rely on.
    ///
    /// The tape is consumed (left empty): saved tensors are dropped as their
    /// node's backward completes (mirroring PyTorch freeing saved buffers).
    pub fn backward(&self, loss: &Var<'_>) {
        let mut nodes = self.nodes.replace(Vec::new());
        let n = nodes.len();
        let mut grads: Vec<Option<Tensor>> = (0..n).map(|_| None).collect();
        assert_eq!(
            nodes[loss.id].shape.numel(),
            1,
            "backward() must start from a scalar loss, got {}",
            nodes[loss.id].shape
        );
        grads[loss.id] = Some(Tensor::ones(nodes[loss.id].shape));
        for id in (0..n).rev() {
            let Some(g) = grads[id].take() else { continue };
            match &mut nodes[id].kind {
                NodeKind::Leaf(sink) => match sink {
                    LeafSink::Param(p) => p.accumulate(&g),
                    LeafSink::Input(cell) => {
                        let mut slot = cell.borrow_mut();
                        *slot = Some(match slot.take() {
                            Some(prev) => prev.add(&g),
                            None => g,
                        });
                    }
                    LeafSink::Constant => {}
                },
                NodeKind::Op {
                    parents,
                    needs,
                    backward,
                } => {
                    let pgrads = backward(&g, needs);
                    assert_eq!(
                        pgrads.len(),
                        parents.len(),
                        "custom backward returned wrong arity"
                    );
                    for ((pid, &need), pg) in parents.iter().zip(needs.iter()).zip(pgrads) {
                        let Some(pg) = pg.filter(|_| need) else {
                            continue;
                        };
                        let slot = &mut grads[*pid];
                        *slot = Some(match slot.take() {
                            Some(prev) => prev.add(&pg),
                            None => pg,
                        });
                    }
                    // Drop the closure now to release saved tensors early.
                    nodes[id].kind = NodeKind::Leaf(LeafSink::Constant);
                }
            }
        }
    }
}

/// Places the columns of `g` (width `hi-lo`) into a zero matrix of width
/// `total` at offset `lo` — the adjoint of `slice_cols`.
fn place_cols(g: &Tensor, lo: usize, total: usize) -> Tensor {
    let (n, w) = g.shape().as_mat();
    let mut out = crate::mem::TrackedBuf::raw(n * total);
    let dst = out.as_mut_slice();
    let src = g.data();
    for i in 0..n {
        let row = &mut dst[i * total..(i + 1) * total];
        row[..lo].fill(0.0);
        row[lo..lo + w].copy_from_slice(&src[i * w..(i + 1) * w]);
        row[lo + w..].fill(0.0);
    }
    Tensor::from_buf((n, total), out)
}

impl<'t> Var<'t> {
    /// The forward value.
    pub fn value(&self) -> &Tensor {
        &self.value
    }

    /// The node id on the tape.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The tape this var belongs to.
    pub fn tape(&self) -> &'t Tape {
        self.tape
    }

    /// True when a parameter or an input flows into this value, i.e. when
    /// backward will compute its gradient.
    pub fn requires_grad(&self) -> bool {
        self.requires_grad
    }

    /// A one-input op: recorded only when `self` needs a gradient, so the
    /// backward always computes it.
    fn unary(&self, value: Tensor, backward: impl FnMut(&Tensor) -> Tensor + 'static) -> Var<'t> {
        let mut backward = backward;
        self.tape
            .custom(&[self], value, move |g, _| vec![Some(backward(g))])
    }

    // ---------- arithmetic ----------

    /// Elementwise sum.
    pub fn add(&self, other: &Var<'t>) -> Var<'t> {
        let v = self.value.add(&other.value);
        self.tape.custom(&[self, other], v, |g, needs| {
            vec![needs[0].then(|| g.clone()), needs[1].then(|| g.clone())]
        })
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Var<'t>) -> Var<'t> {
        let v = self.value.sub(&other.value);
        self.tape.custom(&[self, other], v, |g, needs| {
            vec![needs[0].then(|| g.clone()), needs[1].then(|| g.neg())]
        })
    }

    /// Elementwise product.
    pub fn mul(&self, other: &Var<'t>) -> Var<'t> {
        let v = self.value.mul(&other.value);
        // Each side's gradient reads the other side's value: keep only the
        // values a needed gradient reads.
        let a = other.requires_grad.then(|| self.value.clone());
        let b = self.requires_grad.then(|| other.value.clone());
        self.tape.custom(&[self, other], v, move |g, _| {
            vec![b.as_ref().map(|b| g.mul(b)), a.as_ref().map(|a| g.mul(a))]
        })
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Var<'t> {
        self.unary(self.value.neg(), |g| g.neg())
    }

    /// Adds a scalar.
    pub fn add_scalar(&self, s: f32) -> Var<'t> {
        self.unary(self.value.add_scalar(s), |g| g.clone())
    }

    /// Multiplies by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Var<'t> {
        self.unary(self.value.mul_scalar(s), move |g| g.mul_scalar(s))
    }

    /// `1 - x`, a common gate complement in GRU cells.
    pub fn one_minus(&self) -> Var<'t> {
        self.unary(self.value.neg().add_scalar(1.0), |g| g.neg())
    }

    // ---------- nonlinearities ----------

    /// Logistic sigmoid; the backward is one pass over `g` and the output.
    pub fn sigmoid(&self) -> Var<'t> {
        let y = self.value.sigmoid();
        let yc = y.clone();
        self.unary(y, move |g| g.sigmoid_backward(&yc))
    }

    /// Hyperbolic tangent; the backward is one pass over `g` and the output.
    pub fn tanh(&self) -> Var<'t> {
        let y = self.value.tanh();
        let yc = y.clone();
        self.unary(y, move |g| g.tanh_backward(&yc))
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Var<'t> {
        let x = self.value.clone();
        self.unary(self.value.relu(), move |g| g.relu_backward(&x))
    }

    /// Leaky ReLU.
    pub fn leaky_relu(&self, slope: f32) -> Var<'t> {
        let x = self.value.clone();
        self.unary(self.value.leaky_relu(slope), move |g| {
            g.leaky_relu_backward(&x, slope)
        })
    }

    /// The GRU update `z·a + (1 − z)·b` for the gate `z = self`, as one
    /// node: bitwise `z.mul(a).add(&z.one_minus().mul(b))` (or its mirror
    /// `z.one_minus().mul(b).add(&z.mul(a))`). Each value and gradient is
    /// that composition's per-element expression in its order — `dz` is
    /// `−(g·b) + g·a` — and the node sits where the composition's last
    /// node did, so `a` and `b` receive their gradients in the same order.
    /// `z` must have no consumer recorded after this op (its two gradient
    /// terms are summed here, before they reach `z`), and `a` and `b` must
    /// be distinct nodes (the two mirror forms order their terms apart).
    pub fn mix(&self, a: &Var<'t>, b: &Var<'t>) -> Var<'t> {
        let v = Tensor::mix(&self.value, &a.value, &b.value);
        let z = (a.requires_grad || b.requires_grad).then(|| self.value.clone());
        let ab = self
            .requires_grad
            .then(|| (a.value.clone(), b.value.clone()));
        self.tape.custom(&[self, a, b], v, move |g, needs| {
            vec![
                ab.as_ref().map(|(a, b)| g.mix_backward_z(a, b)),
                z.as_ref().filter(|_| needs[1]).map(|z| g.mul(z)),
                z.as_ref().filter(|_| needs[2]).map(|z| g.mix_backward_b(z)),
            ]
        })
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Var<'t> {
        let y = self.value.exp();
        let yc = y.clone();
        self.unary(y, move |g| g.mul(&yc))
    }

    /// Elementwise square.
    pub fn square(&self) -> Var<'t> {
        let x = self.value.clone();
        self.unary(self.value.square(), move |g| g.mul(&x).mul_scalar(2.0))
    }

    // ---------- linear algebra ----------

    /// Matrix product: the one-part case of [`Var::matmul_parts`].
    pub fn matmul(&self, other: &Var<'t>) -> Var<'t> {
        Var::matmul_parts(&[self], other)
    }

    /// `concat_cols(parts) @ w` without the concatenation. Part `p`'s
    /// gradient is `g · W_pᵀ` for its rows `W_p` of `w`, written directly
    /// (no slice of a full-width gradient), and `w`'s is
    /// [`Tensor::t_matmul_parts`], which reads the parts in place: every
    /// element is the chain the concatenated form computes.
    pub fn matmul_parts(parts: &[&Var<'t>], w: &Var<'t>) -> Var<'t> {
        let values: Vec<&Tensor> = parts.iter().map(|p| &p.value).collect();
        let v = Tensor::matmul_parts(&values, &w.value);
        let widths: Vec<usize> = values.iter().map(|p| p.cols()).collect();
        // Each side's gradient reads the other side's values: keep only
        // the values a needed gradient reads.
        let xs: Option<Vec<Tensor>> = w
            .requires_grad
            .then(|| values.iter().map(|&p| p.clone()).collect());
        let wv = parts
            .iter()
            .any(|p| p.requires_grad)
            .then(|| w.value.clone());
        let mut inputs = parts.to_vec();
        inputs.push(w);
        w.tape.custom(&inputs, v, move |g, needs| {
            let mut out = Vec::with_capacity(needs.len());
            let mut lo = 0;
            for (&width, &need) in widths.iter().zip(needs) {
                let wp = wv.as_ref().filter(|_| need);
                out.push(wp.map(|w| g.matmul(&w.transpose_rows(lo, lo + width))));
                lo += width;
            }
            out.push(xs.as_ref().map(|xs| {
                let xs: Vec<&Tensor> = xs.iter().collect();
                Tensor::t_matmul_parts(&xs, g)
            }));
            out
        })
    }

    /// Matrix product with a constant (non-differentiable) right operand.
    pub fn matmul_const(&self, w: &Tensor) -> Var<'t> {
        let v = self.value.matmul(w);
        let wt = w.transpose();
        self.unary(v, move |g| g.matmul(&wt))
    }

    /// Adds a broadcast bias row vector.
    pub fn add_bias(&self, bias: &Var<'t>) -> Var<'t> {
        let v = self.value.add_bias(&bias.value);
        self.tape.custom(&[self, bias], v, |g, needs| {
            vec![needs[0].then(|| g.clone()), needs[1].then(|| g.sum_axis0())]
        })
    }

    /// Scales row `i` by the constant `s[i]` (e.g. GCN degree norms).
    pub fn scale_rows_const(&self, s: &Tensor) -> Var<'t> {
        let v = self.value.scale_rows(s);
        let s = s.clone();
        self.unary(v, move |g| g.scale_rows(&s))
    }

    // ---------- structural ----------

    /// Concatenates along columns.
    pub fn concat_cols(parts: &[&Var<'t>]) -> Var<'t> {
        assert!(!parts.is_empty());
        let tape = parts[0].tape;
        let tensors: Vec<&Tensor> = parts.iter().map(|p| &p.value).collect();
        let v = Tensor::concat_cols(&tensors);
        let widths: Vec<usize> = parts.iter().map(|p| p.value.cols()).collect();
        tape.custom(parts, v, move |g, needs| {
            let mut out = Vec::with_capacity(widths.len());
            let mut lo = 0;
            for (&w, &need) in widths.iter().zip(needs) {
                out.push(need.then(|| g.slice_cols(lo, lo + w)));
                lo += w;
            }
            out
        })
    }

    /// Extracts columns `lo..hi`.
    pub fn slice_cols(&self, lo: usize, hi: usize) -> Var<'t> {
        let total = self.value.cols();
        self.unary(self.value.slice_cols(lo, hi), move |g| {
            place_cols(g, lo, total)
        })
    }

    /// Edge-parallel gather of rows by index (baseline message creation).
    pub fn gather_rows(&self, idx: Rc<Vec<u32>>) -> Var<'t> {
        let n = self.value.rows();
        let v = self.value.gather_rows(&idx);
        self.unary(v, move |g| g.scatter_add_rows(&idx, n))
    }

    /// Edge-parallel scatter-add of rows (baseline message reduction).
    pub fn scatter_add_rows(&self, idx: Rc<Vec<u32>>, n_rows: usize) -> Var<'t> {
        let v = self.value.scatter_add_rows(&idx, n_rows);
        self.unary(v, move |g| g.gather_rows(&idx))
    }

    /// Row sums as an `[n, 1]` matrix (e.g. dot-product edge scores).
    pub fn sum_cols(&self) -> Var<'t> {
        let (n, w) = self.value.shape().as_mat();
        let v = self.value.sum_axis1().reshape((n, 1));
        self.unary(v, move |g| g.broadcast_col(w))
    }

    // ---------- reductions & losses ----------

    /// Sum of all elements.
    pub fn sum(&self) -> Var<'t> {
        let shape = self.value.shape();
        self.unary(self.value.sum(), move |g| Tensor::full(shape, g.item()))
    }

    /// Mean of all elements.
    pub fn mean(&self) -> Var<'t> {
        let shape = self.value.shape();
        let inv = 1.0 / shape.numel() as f32;
        self.unary(self.value.mean(), move |g| {
            Tensor::full(shape, g.item() * inv)
        })
    }

    /// Mean-squared-error loss against a constant target.
    pub fn mse_loss(&self, target: &Tensor) -> Var<'t> {
        let diff = self.value.sub(target);
        let v = Tensor::scalar(diff.square().sum().item() / diff.numel() as f32);
        let inv = 2.0 / diff.numel() as f32;
        self.unary(v, move |g| diff.mul_scalar(inv * g.item()))
    }

    /// Numerically-stable binary-cross-entropy-with-logits loss (mean
    /// reduction) against constant 0/1 targets — the loss the paper
    /// uses for link prediction.
    pub fn bce_with_logits_loss(&self, target: &Tensor) -> Var<'t> {
        let x = self.value.clone();
        let t = target.clone();
        assert_eq!(x.shape(), t.shape(), "bce: logits vs targets");
        let n = x.numel() as f32;
        let loss: f32 = x
            .data()
            .iter()
            .zip(t.data())
            .map(|(&xi, &ti)| xi.max(0.0) - xi * ti + (1.0 + (-xi.abs()).exp()).ln())
            .sum::<f32>()
            / n;
        self.unary(Tensor::scalar(loss), move |g| {
            // d/dx = sigmoid(x) - t, averaged.
            x.sigmoid().sub(&t).mul_scalar(g.item() / n)
        })
    }
}

/// Gradient-checking helpers shared by downstream crates' tests.
pub mod check {
    use super::*;

    /// Central-difference numerical gradient of `f` at `x`.
    pub fn numeric_grad(f: &mut dyn FnMut(&Tensor) -> f32, x: &Tensor, eps: f32) -> Tensor {
        let base = x.to_vec();
        let mut g = vec![0.0f32; base.len()];
        for i in 0..base.len() {
            let mut plus = base.clone();
            plus[i] += eps;
            let mut minus = base.clone();
            minus[i] -= eps;
            let fp = f(&Tensor::from_vec(x.shape(), plus));
            let fm = f(&Tensor::from_vec(x.shape(), minus));
            g[i] = (fp - fm) / (2.0 * eps);
        }
        Tensor::from_vec(x.shape(), g)
    }

    /// Asserts analytic and numeric gradients agree within mixed
    /// absolute/relative tolerance.
    pub fn assert_close(analytic: &Tensor, numeric: &Tensor, tol: f32) {
        assert_eq!(analytic.shape(), numeric.shape());
        for (i, (&a, &n)) in analytic.data().iter().zip(numeric.data()).enumerate() {
            let scale = 1.0f32.max(a.abs()).max(n.abs());
            assert!(
                (a - n).abs() <= tol * scale,
                "grad mismatch at {i}: analytic {a} vs numeric {n}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::check::*;
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn seeded(shape: (usize, usize), seed: u64) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Tensor::rand_uniform(shape, -1.0, 1.0, &mut rng)
    }

    /// Generic gradcheck: `builder` maps an input Var to a scalar loss Var.
    fn check_op(x0: &Tensor, builder: impl for<'t> Fn(&'t Tape, Var<'t>) -> Var<'t>, tol: f32) {
        let tape = Tape::new();
        let (x, gx) = tape.input(x0.clone());
        let loss = builder(&tape, x);
        tape.backward(&loss);
        let analytic = gx.get().expect("input grad missing");
        let mut f = |t: &Tensor| {
            let tape = Tape::new();
            let (x, _) = tape.input(t.clone());
            builder(&tape, x).value().item()
        };
        let numeric = numeric_grad(&mut f, x0, 1e-2);
        assert_close(&analytic, &numeric, tol);
    }

    #[test]
    fn grad_add_mul_chain() {
        let x0 = seeded((3, 4), 10);
        check_op(
            &x0,
            |tape, x| {
                let c = tape.constant(seeded((3, 4), 11));
                x.mul(&c).add(&x).sum()
            },
            1e-2,
        );
    }

    #[test]
    fn grad_sub_neg_scalar() {
        let x0 = seeded((2, 5), 12);
        check_op(
            &x0,
            |tape, x| {
                let c = tape.constant(seeded((2, 5), 13));
                x.mul_scalar(3.0)
                    .sub(&c)
                    .neg()
                    .add_scalar(0.5)
                    .square()
                    .sum()
            },
            1e-2,
        );
    }

    #[test]
    fn grad_sigmoid_tanh_relu() {
        let x0 = seeded((4, 4), 14);
        check_op(&x0, |_t, x| x.sigmoid().sum(), 1e-2);
        check_op(&x0, |_t, x| x.tanh().sum(), 1e-2);
        check_op(&x0, |_t, x| x.leaky_relu(0.2).sum(), 2e-2);
        check_op(&x0, |_t, x| x.exp().mean(), 1e-2);
    }

    #[test]
    fn grad_matmul_both_sides() {
        let x0 = seeded((3, 4), 15);
        let w = seeded((4, 2), 16);
        check_op(
            &x0,
            move |tape, x| {
                let w = tape.constant(w.clone());
                x.matmul(&w).square().sum()
            },
            2e-2,
        );
        // Grad wrt right operand through a Param.
        let a = seeded((3, 4), 17);
        let w0 = seeded((4, 2), 18);
        let p = Param::new("w", w0.clone());
        {
            let tape = Tape::new();
            let av = tape.constant(a.clone());
            let wv = tape.param(&p);
            let loss = av.matmul(&wv).square().sum();
            tape.backward(&loss);
        }
        let analytic = p.grad();
        let mut f = |t: &Tensor| {
            let tape = Tape::new();
            let av = tape.constant(a.clone());
            let (wv, _) = tape.input(t.clone());
            av.matmul(&wv).square().sum().value().item()
        };
        let numeric = numeric_grad(&mut f, &w0, 1e-2);
        assert_close(&analytic, &numeric, 2e-2);
    }

    #[test]
    fn grad_bias_and_scale_rows() {
        let x0 = seeded((3, 4), 19);
        let s = seeded((3, 1), 20).reshape(3);
        check_op(
            &x0,
            move |_t, x| x.scale_rows_const(&s).square().sum(),
            2e-2,
        );
        let b0 = seeded((1, 4), 21).reshape(4);
        let p = Param::new("b", b0.clone());
        let xc = seeded((3, 4), 22);
        {
            let tape = Tape::new();
            let x = tape.constant(xc.clone());
            let b = tape.param(&p);
            let loss = x.add_bias(&b).square().sum();
            tape.backward(&loss);
        }
        let mut f = |t: &Tensor| {
            let tape = Tape::new();
            let x = tape.constant(xc.clone());
            let (b, _) = tape.input(t.clone());
            x.add_bias(&b).square().sum().value().item()
        };
        assert_close(&p.grad(), &numeric_grad(&mut f, &b0, 1e-2), 2e-2);
    }

    #[test]
    fn grad_concat_slice() {
        let x0 = seeded((3, 4), 23);
        check_op(
            &x0,
            |tape, x| {
                let c = tape.constant(seeded((3, 2), 24));
                let cat = Var::concat_cols(&[&x, &c]);
                cat.slice_cols(1, 5).square().sum()
            },
            2e-2,
        );
    }

    #[test]
    fn grad_gather_scatter() {
        let x0 = seeded((4, 3), 25);
        let idx = Rc::new(vec![0u32, 2, 2, 3, 1]);
        let idx2 = Rc::clone(&idx);
        check_op(
            &x0,
            move |_t, x| x.gather_rows(Rc::clone(&idx2)).square().sum(),
            2e-2,
        );
        let idx3 = Rc::new(vec![1u32, 1, 0, 3]);
        let x1 = seeded((4, 3), 26);
        check_op(
            &x1,
            move |_t, x| x.scatter_add_rows(Rc::clone(&idx3), 5).square().sum(),
            2e-2,
        );
    }

    #[test]
    fn grad_sum_cols() {
        let x0 = seeded((4, 3), 40);
        check_op(&x0, |_t, x| x.sum_cols().square().sum(), 2e-2);
        let t = Tensor::from_vec((2, 3), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let tape = Tape::new();
        let v = tape.constant(t);
        assert_eq!(v.sum_cols().value().to_vec(), vec![6.0, 15.0]);
    }

    #[test]
    fn grad_losses() {
        let x0 = seeded((5, 2), 27);
        let target = seeded((5, 2), 28);
        let t2 = target.clone();
        check_op(&x0, move |_t, x| x.mse_loss(&t2), 2e-2);
        // 0/1 targets for BCE.
        let bt = Tensor::from_vec(
            (5, 2),
            target
                .data()
                .iter()
                .map(|&v| if v > 0.0 { 1.0 } else { 0.0 })
                .collect(),
        );
        check_op(&x0, move |_t, x| x.bce_with_logits_loss(&bt), 2e-2);
    }

    #[test]
    fn grad_accumulates_across_uses() {
        // y = x*x via two uses of the same var; dy/dx = 2x.
        let x0 = Tensor::from_vec(2, vec![3.0, -2.0]);
        let tape = Tape::new();
        let (x, gx) = tape.input(x0);
        let y = x.mul(&x).sum();
        tape.backward(&y);
        assert_eq!(gx.get().unwrap().to_vec(), vec![6.0, -4.0]);
    }

    #[test]
    fn param_grad_accumulates_until_zeroed() {
        let p = Param::new("p", Tensor::from_vec(2, vec![1.0, 2.0]));
        for _ in 0..2 {
            let tape = Tape::new();
            let v = tape.param(&p);
            let loss = v.sum();
            tape.backward(&loss);
        }
        assert_eq!(p.grad().to_vec(), vec![2.0, 2.0]);
        p.zero_grad();
        assert_eq!(p.grad().to_vec(), vec![0.0, 0.0]);
    }

    #[test]
    fn custom_backward_runs_in_lifo_order() {
        // Three custom ops record their backward order; it must be the
        // reverse of the forward order (the State-Stack discipline).
        let order = Rc::new(RefCell::new(Vec::new()));
        let tape = Tape::new();
        let (x, _) = tape.input(Tensor::scalar(1.0));
        let mut cur = x;
        for i in 0..3 {
            let ord = Rc::clone(&order);
            cur = tape.custom(&[&cur], cur.value().clone(), move |g, _| {
                ord.borrow_mut().push(i);
                vec![Some(g.clone())]
            });
        }
        let loss = cur.sum();
        tape.backward(&loss);
        assert_eq!(*order.borrow(), vec![2, 1, 0]);
    }

    #[test]
    fn ops_over_constants_record_no_backward() {
        // The closure (and the tensor it captured) is dropped at record
        // time; the result is a constant, and so is everything built on it.
        let tape = Tape::new();
        let saved = Rc::new(());
        let c = tape.constant(Tensor::ones((2, 2)));
        let held = Rc::clone(&saved);
        let y = tape.custom(&[&c], c.value().clone(), move |g, _| {
            let _ = &held;
            vec![Some(g.clone())]
        });
        assert_eq!(Rc::strong_count(&saved), 1, "closure must be dropped");
        assert!(!y.requires_grad());
        assert!(!y.matmul(&c).sigmoid().add(&y).requires_grad());
        // One differentiable input makes the op differentiable.
        let (x, gx) = tape.input(Tensor::ones((2, 2)));
        let z = y.mul(&x).add(&c).sum();
        assert!(z.requires_grad());
        tape.backward(&z);
        assert_eq!(gx.get().unwrap().to_vec(), vec![1.0; 4]);
    }

    #[test]
    fn backward_sees_which_inputs_need_a_gradient() {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let tape = Tape::new();
        let c = tape.constant(Tensor::scalar(2.0));
        let (x, gx) = tape.input(Tensor::scalar(3.0));
        let log = Rc::clone(&seen);
        let y = tape.custom(&[&c, &x, &c], Tensor::scalar(6.0), move |g, needs| {
            log.borrow_mut().extend_from_slice(needs);
            // A gradient for a constant is discarded, never accumulated.
            vec![Some(g.clone()), Some(g.mul_scalar(2.0)), None]
        });
        tape.backward(&y);
        assert_eq!(*seen.borrow(), vec![false, true, false]);
        assert_eq!(gx.get().unwrap().item(), 2.0);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_from_non_scalar_panics() {
        let tape = Tape::new();
        let x = tape.constant(Tensor::zeros((2, 2)));
        let y = x.add_scalar(1.0);
        tape.backward(&y);
    }

    #[test]
    fn bce_matches_manual_formula() {
        let x = Tensor::from_vec(2, vec![0.3, -1.2]);
        let t = Tensor::from_vec(2, vec![1.0, 0.0]);
        let tape = Tape::new();
        let xv = tape.constant(x.clone());
        let loss = xv.bce_with_logits_loss(&t).value().item();
        let manual: f32 = x
            .data()
            .iter()
            .zip(t.data())
            .map(|(&xi, &ti)| {
                let p = 1.0 / (1.0 + (-xi).exp());
                -(ti * p.ln() + (1.0 - ti) * (1.0 - p).ln())
            })
            .sum::<f32>()
            / 2.0;
        assert!((loss - manual).abs() < 1e-5);
    }
}
