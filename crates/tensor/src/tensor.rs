//! Dense, immutable `f32` tensors backed by tracked buffers.
//!
//! Every operation is a "kernel": a pure function producing a fresh tensor,
//! executed data-parallel with rayon when the element count justifies it.
//! This is the stand-in for the CUDA device in the paper — the work
//! decomposition (vertex-/row-parallel loops) mirrors what the generated
//! kernels do on a GPU. Reductions are owner-computes with a fixed add
//! order (no atomics), so every kernel's bits are independent of the
//! thread count.

use crate::mem::TrackedBuf;
use crate::shape::Shape;
use crate::simd::{self, F32x8, LANES};
use rand::Rng;
use rayon::prelude::*;
use std::sync::Arc;

/// Default sequential/parallel cutover: below this per-kernel work estimate
/// (element count, or `n*m*k` for matmul) kernels run sequentially — thread
/// hand-off costs more than the loop.
pub const DEFAULT_PAR_MIN: usize = 1 << 12;

/// The active sequential/parallel cutover, honoured by every parallel kernel
/// in the workspace (tensor ops here, plus the seastar aggregation kernels
/// and graph builders). Defaults to [`DEFAULT_PAR_MIN`]; the
/// `STGRAPH_PAR_MIN` environment variable overrides it (read once at first
/// use, unparsable values fall back to the default).
pub fn par_min() -> usize {
    static CUTOVER: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CUTOVER.get_or_init(|| {
        std::env::var("STGRAPH_PAR_MIN")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_PAR_MIN)
    })
}

/// A dense row-major `f32` tensor. Cheap to clone (shared storage).
#[derive(Clone)]
pub struct Tensor {
    buf: Arc<TrackedBuf>,
    shape: Shape,
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let d = self.data();
        let head: Vec<f32> = d.iter().take(8).copied().collect();
        write!(
            f,
            "Tensor{}{:?}{}",
            self.shape,
            head,
            if d.len() > 8 { "…" } else { "" }
        )
    }
}

impl Tensor {
    // ---------- constructors ----------

    /// A tensor of zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        Tensor {
            buf: Arc::new(TrackedBuf::zeros(shape.numel())),
            shape,
        }
    }

    /// A tensor filled with `v`.
    pub fn full(shape: impl Into<Shape>, v: f32) -> Tensor {
        let shape = shape.into();
        let mut out = TrackedBuf::raw(shape.numel());
        out.as_mut_slice().fill(v);
        Tensor {
            buf: Arc::new(out),
            shape,
        }
    }

    /// A tensor of ones.
    pub fn ones(shape: impl Into<Shape>) -> Tensor {
        Tensor::full(shape, 1.0)
    }

    /// A rank-0 tensor holding `v`.
    pub fn scalar(v: f32) -> Tensor {
        Tensor {
            buf: Arc::new(TrackedBuf::from_vec(vec![v])),
            shape: Shape::Scalar,
        }
    }

    /// Builds a tensor from an explicit element vector (row-major).
    ///
    /// # Panics
    /// If `data.len() != shape.numel()`.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "from_vec: data length vs shape {shape}"
        );
        Tensor {
            buf: Arc::new(TrackedBuf::from_vec(data)),
            shape,
        }
    }

    /// Wraps an already-filled tracked buffer (typically pooled, via
    /// [`TrackedBuf::raw`]) without copying. This is how kernels outside this
    /// crate hand pooled storage back as a tensor.
    ///
    /// # Panics
    /// If `buf.len() != shape.numel()`.
    pub fn from_buf(shape: impl Into<Shape>, buf: TrackedBuf) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            buf.len(),
            shape.numel(),
            "from_buf: buffer length vs shape {shape}"
        );
        Tensor {
            buf: Arc::new(buf),
            shape,
        }
    }

    /// Uniform random tensor in `[lo, hi)`.
    pub fn rand_uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut impl Rng) -> Tensor {
        let shape = shape.into();
        let data = (0..shape.numel()).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor {
            buf: Arc::new(TrackedBuf::from_vec(data)),
            shape,
        }
    }

    /// Glorot/Xavier-uniform initialisation for a `[fan_in, fan_out]` weight.
    pub fn glorot(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Tensor {
        let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
        Tensor::rand_uniform((fan_in, fan_out), -limit, limit, rng)
    }

    // ---------- accessors ----------

    /// The tensor's shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Rows when viewed as a matrix.
    pub fn rows(&self) -> usize {
        self.shape.rows()
    }

    /// Columns when viewed as a matrix.
    pub fn cols(&self) -> usize {
        self.shape.cols()
    }

    /// Raw row-major element slice.
    pub fn data(&self) -> &[f32] {
        self.buf.as_slice()
    }

    /// Element at `(r, c)` under matrix view.
    pub fn at(&self, r: usize, c: usize) -> f32 {
        self.data()[r * self.cols() + c]
    }

    /// The single element of a scalar tensor.
    ///
    /// # Panics
    /// If the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.numel(),
            1,
            "item() on non-scalar tensor {}",
            self.shape
        );
        self.data()[0]
    }

    /// Copies the elements out.
    pub fn to_vec(&self) -> Vec<f32> {
        self.data().to_vec()
    }

    /// Returns a tensor with the same data but a new shape of equal numel.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            self.numel(),
            "reshape {} -> {}",
            self.shape,
            shape
        );
        Tensor {
            buf: Arc::clone(&self.buf),
            shape,
        }
    }

    /// Max absolute difference to another tensor of the same shape.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape);
        self.data()
            .iter()
            .zip(other.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }

    /// True if all elements are within `tol` of `other`'s.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape && self.max_abs_diff(other) <= tol
    }

    // ---------- elementwise drivers ----------
    //
    // One driver per arity. A kernel passes only its per-element scalar
    // expression; [`simd`] derives the lane form from it, so the result is
    // bitwise the per-element scalar loop whatever the chunking.

    /// `out[i] = f(self[i])` ([`simd::map_lanes`]).
    #[inline]
    fn map1(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let a = self.data();
        self.elementwise(|r, d| simd::map_lanes(d, &a[r], &f))
    }

    /// `out[i] = f(self[i], b[i])` over same-shape tensors
    /// ([`simd::zip_lanes`]).
    #[inline]
    fn map2(&self, b: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        assert_eq!(
            self.shape, b.shape,
            "elementwise op on mismatched shapes {} vs {}",
            self.shape, b.shape
        );
        let (a, b) = (self.data(), b.data());
        self.elementwise(|r, d| simd::zip_lanes(d, &a[r.clone()], &b[r], &f))
    }

    /// `out[i] = f(self[i], b[i], c[i])` over same-shape tensors
    /// ([`simd::zip3_lanes`]).
    #[inline]
    fn map3(&self, b: &Tensor, c: &Tensor, f: impl Fn(f32, f32, f32) -> f32 + Sync) -> Tensor {
        assert!(
            self.shape == b.shape && b.shape == c.shape,
            "elementwise op on mismatched shapes {}, {}, {}",
            self.shape,
            b.shape,
            c.shape
        );
        let (a, b, c) = (self.data(), b.data(), c.data());
        self.elementwise(|r, d| simd::zip3_lanes(d, &a[r.clone()], &b[r.clone()], &c[r], &f))
    }

    /// A fresh tensor of `self`'s shape whose elements `body(range, dst)`
    /// writes: in one call below the cutover, above it in parallel
    /// [`ELEMWISE_BLOCK`] chunks, each given its element range.
    #[inline]
    fn elementwise(&self, body: impl Fn(std::ops::Range<usize>, &mut [f32]) + Sync) -> Tensor {
        let len = self.numel();
        let mut out = TrackedBuf::raw(len);
        let dst = out.as_mut_slice();
        if len >= par_min() {
            dst.par_chunks_mut(ELEMWISE_BLOCK)
                .enumerate()
                .for_each(|(blk, d)| {
                    let lo = blk * ELEMWISE_BLOCK;
                    body(lo..lo + d.len(), d)
                });
        } else {
            body(0..len, dst);
        }
        Tensor {
            buf: Arc::new(out),
            shape: self.shape,
        }
    }

    // ---------- elementwise ----------

    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        self.map1(|x| -x)
    }

    /// Elementwise sum with a same-shape tensor.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.map2(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.map2(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.map2(other, |a, b| a * b)
    }

    /// Elementwise quotient.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.map2(other, |a, b| a / b)
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map1(move |x| x + s)
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        self.map1(move |x| x * s)
    }

    /// Elementwise exponential ([`simd::exp`]).
    pub fn exp(&self) -> Tensor {
        self.map1(simd::exp)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Tensor {
        self.map1(f32::ln)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map1(f32::sqrt)
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        self.map1(|x| x * x)
    }

    /// Logistic sigmoid ([`simd::sigmoid`]).
    pub fn sigmoid(&self) -> Tensor {
        self.map1(simd::sigmoid)
    }

    /// Hyperbolic tangent ([`simd::tanh`]).
    pub fn tanh(&self) -> Tensor {
        self.map1(simd::tanh)
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Tensor {
        self.map1(|x| x.max(0.0))
    }

    /// Leaky ReLU with negative slope `slope`.
    pub fn leaky_relu(&self, slope: f32) -> Tensor {
        self.map1(move |x| if x >= 0.0 { x } else { slope * x })
    }

    /// Clamps every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map1(move |x| x.clamp(lo, hi))
    }

    // ---------- fused elementwise (backward and gate kernels) ----------
    //
    // Each computes, per element, the IEEE expression of the composition it
    // replaces in the same operation order, so it is bitwise that
    // composition — in one pass, with no intermediate tensor.

    /// Sigmoid backward from the output `y`: `self · (y · (−y + 1))`.
    pub fn sigmoid_backward(&self, y: &Tensor) -> Tensor {
        self.map2(y, |g, y| g * (y * (-y + 1.0)))
    }

    /// Tanh backward from the output `y`: `self · (−(y · y) + 1)`.
    pub fn tanh_backward(&self, y: &Tensor) -> Tensor {
        self.map2(y, |g, y| g * (-(y * y) + 1.0))
    }

    /// ReLU backward from the input `x`: `self · [x > 0]`. The multiply
    /// (not a select) keeps the bits of `−0.0` and of NaN gradients.
    pub fn relu_backward(&self, x: &Tensor) -> Tensor {
        self.map2(x, |g, x| g * if x > 0.0 { 1.0 } else { 0.0 })
    }

    /// Leaky-ReLU backward from the input `x`: `self · (x ≥ 0 ? 1 : slope)`.
    pub fn leaky_relu_backward(&self, x: &Tensor, slope: f32) -> Tensor {
        self.map2(x, move |g, x| g * if x >= 0.0 { 1.0 } else { slope })
    }

    /// The GRU update `z·a + (1 − z)·b`, as `z·a + (−z + 1)·b`.
    pub fn mix(z: &Tensor, a: &Tensor, b: &Tensor) -> Tensor {
        z.map3(a, b, |z, a, b| z * a + (-z + 1.0) * b)
    }

    /// [`Tensor::mix`]'s gradient for `z` from the incoming `self`:
    /// `−(g·b) + g·a`.
    pub fn mix_backward_z(&self, a: &Tensor, b: &Tensor) -> Tensor {
        self.map3(a, b, |g, a, b| -(g * b) + g * a)
    }

    /// [`Tensor::mix`]'s gradient for `b` from the incoming `self`:
    /// `g · (−z + 1)`.
    pub fn mix_backward_b(&self, z: &Tensor) -> Tensor {
        self.map2(z, |g, z| g * (-z + 1.0))
    }

    // ---------- linear algebra ----------

    /// Matrix product `self @ other` for `[n,k] x [k,m]`: the one-part
    /// case of [`Tensor::matmul_parts`].
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        Tensor::matmul_parts(&[self], other)
    }

    /// `concat_cols(parts) @ w` without the concatenation: the GEMM reads
    /// each row of A part by part, in column order.
    ///
    /// Parallel over blocks of [`GEMM_ROWS`] rows (the vertex-parallel
    /// decomposition of a GPU GEMM over n). Every output element is one
    /// ascending-k multiply-add chain over the concatenated row, so its
    /// bits depend only on that row, its column of `w` and whether the
    /// chain is fused — never on how A is split into parts, the block it
    /// landed in or the thread count.
    pub fn matmul_parts(parts: &[&Tensor], w: &Tensor) -> Tensor {
        assert!(!parts.is_empty(), "matmul_parts: no parts");
        let n = parts[0].rows();
        let cols: Vec<(&[f32], usize)> = parts
            .iter()
            .map(|p| {
                let (pn, pw) = p.shape.as_mat();
                assert_eq!(pn, n, "matmul_parts: row mismatch");
                (p.data(), pw)
            })
            .collect();
        let k: usize = cols.iter().map(|&(_, pw)| pw).sum();
        let (k2, m) = w.shape.as_mat();
        assert_eq!(k, k2, "matmul {}x{k} x {}", n, w.shape);
        let mut out = TrackedBuf::raw(n * m);
        gemm_par(out.as_mut_slice(), &Cols(&cols), w.data(), k, m);
        Tensor {
            buf: Arc::new(out),
            shape: Shape::Mat(n, m),
        }
    }

    /// `selfᵀ @ g` for `self: [n,k]`, `g: [n,m]`, reading `self` in place
    /// (no transpose is materialised) — the weight gradient of `self @ W`.
    pub fn t_matmul(&self, g: &Tensor) -> Tensor {
        Tensor::t_matmul_parts(&[self], g)
    }

    /// `concat_cols(parts)ᵀ @ g`: part `p`'s rows of the result are
    /// `partsₚᵀ @ g`, each element the same ascending chain over the `n`
    /// rows as `transpose()` + [`Tensor::matmul`] computes.
    pub fn t_matmul_parts(parts: &[&Tensor], g: &Tensor) -> Tensor {
        let (n, m) = g.shape.as_mat();
        let k: usize = parts.iter().map(|p| p.cols()).sum();
        let mut out = TrackedBuf::raw(k * m);
        let mut rest = out.as_mut_slice();
        for p in parts {
            let (pn, pw) = p.shape.as_mat();
            assert_eq!(pn, n, "t_matmul {} x {}", p.shape, g.shape);
            let (c, tail) = rest.split_at_mut(pw * m);
            gemm_par(c, &Trans(p.data(), pw), g.data(), n, m);
            rest = tail;
        }
        Tensor {
            buf: Arc::new(out),
            shape: Shape::Mat(k, m),
        }
    }

    /// Matrix transpose (materialised).
    ///
    /// Cache-blocked on both the parallel and sequential paths: the source
    /// is swept in [`TRANSPOSE_BLOCK`]² tiles so each tile's strided writes
    /// land in an L1-resident window instead of thrashing one cache line
    /// per element. Pure data movement — no SIMD dispatch needed, both
    /// paths are the same loop.
    pub fn transpose(&self) -> Tensor {
        self.transpose_rows(0, self.rows())
    }

    /// The transpose of rows `lo..hi` of a matrix, `[cols, hi − lo]` — a
    /// weight's block for one input part of [`Tensor::matmul_parts`].
    pub(crate) fn transpose_rows(&self, lo: usize, hi: usize) -> Tensor {
        let (rows, m) = self.shape.as_mat();
        assert!(
            lo <= hi && hi <= rows,
            "transpose_rows {lo}..{hi} of {rows}"
        );
        let n = hi - lo;
        let a = &self.data()[lo * m..hi * m];
        let mut out = TrackedBuf::raw(n * m);
        let dst = out.as_mut_slice();
        // Each chunk is TRANSPOSE_BLOCK output rows (= source columns).
        let body = |(blk, chunk): (usize, &mut [f32])| {
            let j0 = blk * TRANSPOSE_BLOCK;
            let jb = chunk.len() / n;
            let mut i0 = 0;
            while i0 < n {
                let iend = (i0 + TRANSPOSE_BLOCK).min(n);
                for i in i0..iend {
                    let arow = &a[i * m + j0..i * m + j0 + jb];
                    for (dj, &v) in arow.iter().enumerate() {
                        chunk[dj * n + i] = v;
                    }
                }
                i0 = iend;
            }
        };
        if n * m >= par_min() {
            dst.par_chunks_mut(TRANSPOSE_BLOCK * n)
                .enumerate()
                .for_each(body);
        } else if n > 0 {
            dst.chunks_mut(TRANSPOSE_BLOCK * n)
                .enumerate()
                .for_each(body);
        }
        Tensor {
            buf: Arc::new(out),
            shape: Shape::Mat(m, n),
        }
    }

    // ---------- broadcasts ----------

    /// Adds a length-`cols` bias vector to every row of a matrix.
    /// Lane-wise along each row ([`simd::zip_lanes`]).
    pub fn add_bias(&self, bias: &Tensor) -> Tensor {
        let (_, m) = self.shape.as_mat();
        assert_eq!(
            bias.numel(),
            m,
            "add_bias: bias {} vs cols {m}",
            bias.shape()
        );
        let b = bias.data();
        let a = self.data();
        let mut out = TrackedBuf::raw(a.len());
        let dst = out.as_mut_slice();
        let body =
            |(drow, arow): (&mut [f32], &[f32])| simd::zip_lanes(drow, arow, b, |x, y| x + y);
        if a.len() >= par_min() {
            dst.par_chunks_mut(m).zip(a.par_chunks(m)).for_each(body);
        } else {
            dst.chunks_mut(m).zip(a.chunks(m)).for_each(body);
        }
        Tensor {
            buf: Arc::new(out),
            shape: self.shape,
        }
    }

    /// Scales row `i` of a matrix by `s[i]` (per-node normalisation).
    /// Lane-wise along each row ([`simd::map_lanes_inline`]).
    pub fn scale_rows(&self, s: &Tensor) -> Tensor {
        let (n, m) = self.shape.as_mat();
        assert_eq!(s.numel(), n, "scale_rows: scale {} vs rows {n}", s.shape());
        let sv = s.data();
        let a = self.data();
        let mut out = TrackedBuf::raw(a.len());
        let dst = out.as_mut_slice();
        let body = |(i, (drow, arow)): (usize, (&mut [f32], &[f32]))| {
            let f = sv[i];
            simd::map_lanes_inline(drow, arow, |x| x * f)
        };
        if a.len() >= par_min() {
            dst.par_chunks_mut(m)
                .zip(a.par_chunks(m))
                .enumerate()
                .for_each(body);
        } else {
            dst.chunks_mut(m)
                .zip(a.chunks(m))
                .enumerate()
                .for_each(body);
        }
        Tensor {
            buf: Arc::new(out),
            shape: self.shape,
        }
    }

    /// Repeats a `[n, 1]` column (or `[n]` vector) across `w` columns.
    pub fn broadcast_col(&self, w: usize) -> Tensor {
        let n = self.rows();
        assert_eq!(self.cols(), 1, "broadcast_col takes a single-column tensor");
        let src = self.data();
        let mut out = TrackedBuf::raw(n * w);
        let dst = out.as_mut_slice();
        for i in 0..n {
            dst[i * w..(i + 1) * w].fill(src[i]);
        }
        Tensor {
            buf: Arc::new(out),
            shape: Shape::Mat(n, w),
        }
    }

    // ---------- reductions ----------

    /// Sum of all elements as a scalar tensor.
    ///
    /// Above the cutover, `par_min()`-sized chunk sums land in ordered
    /// slots and are added in sequence, so the result is the same bits on
    /// every thread count (the one-thread chain of chunk sums).
    pub fn sum(&self) -> Tensor {
        let d = self.data();
        let s: f32 = if d.len() >= par_min() {
            let mut parts = vec![0.0f32; d.len().div_ceil(par_min())];
            parts
                .par_iter_mut()
                .zip(d.par_chunks(par_min()))
                .for_each(|(p, c)| *p = c.iter().sum());
            parts.iter().sum()
        } else {
            d.iter().sum()
        };
        Tensor::scalar(s)
    }

    /// Mean of all elements as a scalar tensor.
    pub fn mean(&self) -> Tensor {
        self.sum().mul_scalar(1.0 / self.numel() as f32)
    }

    /// Column sums of a matrix, as a `[cols]` vector (bias gradients).
    /// The running sums stay in registers ([`simd::reduce_rows`]), so
    /// every column is its ascending-row chain from 0.
    pub fn sum_axis0(&self) -> Tensor {
        /// The column sums of `n` rows of `data` into the output row.
        struct ColumnSums<'a>(&'a mut [f32], &'a [f32], usize);
        impl simd::RowShaped for ColumnSums<'_> {
            type Output = ();
            fn run<const B: usize, const T: usize>(self) {
                let ColumnSums(out, data, n) = self;
                let m = out.len();
                simd::reduce_rows::<B, T, simd::Sum>(out, n, false, |k| &data[k * m..k * m + m]);
            }
        }
        let (n, m) = self.shape.as_mat();
        let mut out = TrackedBuf::raw(m);
        simd::with_row_shape(m, ColumnSums(out.as_mut_slice(), self.data(), n));
        Tensor {
            buf: Arc::new(out),
            shape: Shape::Vec(m),
        }
    }

    /// Row sums of a matrix, as a `[rows]` vector.
    pub fn sum_axis1(&self) -> Tensor {
        let (n, m) = self.shape.as_mat();
        let a = self.data();
        let mut out = TrackedBuf::raw(n);
        for (i, slot) in out.as_mut_slice().iter_mut().enumerate() {
            *slot = a[i * m..(i + 1) * m].iter().sum();
        }
        Tensor {
            buf: Arc::new(out),
            shape: Shape::Vec(n),
        }
    }

    // ---------- structural ----------

    /// Concatenates matrices with equal row counts along the column axis.
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty());
        let n = parts[0].rows();
        for p in parts {
            assert_eq!(p.rows(), n, "concat_cols: row mismatch");
        }
        let total: usize = parts.iter().map(|p| p.cols()).sum();
        let mut out = TrackedBuf::raw(n * total);
        let dst = out.as_mut_slice();
        let mut off = 0;
        for p in parts {
            let m = p.cols();
            let src = p.data();
            for i in 0..n {
                dst[i * total + off..i * total + off + m].copy_from_slice(&src[i * m..(i + 1) * m]);
            }
            off += m;
        }
        Tensor {
            buf: Arc::new(out),
            shape: Shape::Mat(n, total),
        }
    }

    /// Extracts columns `lo..hi` of a matrix.
    pub fn slice_cols(&self, lo: usize, hi: usize) -> Tensor {
        let (n, m) = self.shape.as_mat();
        assert!(lo <= hi && hi <= m, "slice_cols {lo}..{hi} of {m}");
        let w = hi - lo;
        let a = self.data();
        let mut out = TrackedBuf::raw(n * w);
        let dst = out.as_mut_slice();
        for i in 0..n {
            dst[i * w..(i + 1) * w].copy_from_slice(&a[i * m + lo..i * m + hi]);
        }
        Tensor {
            buf: Arc::new(out),
            shape: Shape::Mat(n, w),
        }
    }

    /// Gathers rows by index: `out[e] = self[idx[e]]`.
    ///
    /// This is the *edge-parallel* gather that PyG-style frameworks use to
    /// materialise per-edge source features — the memory overhead the paper
    /// calls out.
    pub fn gather_rows(&self, idx: &[u32]) -> Tensor {
        let (n, m) = self.shape.as_mat();
        let a = self.data();
        let mut out = TrackedBuf::raw(idx.len() * m);
        let dst = out.as_mut_slice();
        let body = |(e, row): (usize, &mut [f32])| {
            let i = idx[e] as usize;
            debug_assert!(i < n);
            row.copy_from_slice(&a[i * m..(i + 1) * m]);
        };
        if idx.len() * m >= par_min() {
            dst.par_chunks_mut(m).enumerate().for_each(body);
        } else {
            dst.chunks_mut(m).enumerate().for_each(body);
        }
        Tensor {
            buf: Arc::new(out),
            shape: Shape::Mat(idx.len(), m),
        }
    }

    /// Scatter-add of per-edge rows into `n_rows` destination rows:
    /// `out[idx[e]] += self[e]`.
    ///
    /// Each task owns a contiguous range of destination rows and scans
    /// every edge in ascending `e`, so every output row adds its edges in
    /// one fixed order: the result is the same bits on every thread count.
    /// Panics on an index `>= n_rows`.
    pub fn scatter_add_rows(&self, idx: &[u32], n_rows: usize) -> Tensor {
        let (ne, m) = self.shape.as_mat();
        assert_eq!(ne, idx.len(), "scatter_add_rows: rows vs indices");
        let a = self.data();
        let mut out = TrackedBuf::zeros(n_rows * m);
        let body = |lo: usize, dst: &mut [f32]| {
            let hi = lo + dst.len() / m;
            for (e, &d) in idx.iter().enumerate() {
                let d = d as usize;
                assert!(d < n_rows, "scatter_add_rows: index {d} >= {n_rows} rows");
                if (lo..hi).contains(&d) {
                    let row = &mut dst[(d - lo) * m..(d - lo + 1) * m];
                    for (o, &v) in row.iter_mut().zip(&a[e * m..(e + 1) * m]) {
                        *o += v;
                    }
                }
            }
        };
        if m > 0 {
            let dst = out.as_mut_slice();
            let rows_per = n_rows.div_ceil(rayon::current_num_threads());
            if ne * m >= par_min() && rows_per < n_rows {
                dst.par_chunks_mut(rows_per * m)
                    .enumerate()
                    .for_each(|(c, chunk)| body(c * rows_per, chunk));
            } else {
                body(0, dst);
            }
        }
        Tensor {
            buf: Arc::new(out),
            shape: Shape::Mat(n_rows, m),
        }
    }
}

/// Elements per rayon task of the elementwise drivers.
/// A multiple of [`LANES`] so only the final block carries a scalar
/// remainder; big enough that task hand-off stays negligible.
const ELEMWISE_BLOCK: usize = 4096;

/// Tile edge of the cache-blocked transpose: a 32×32 f32 tile is 4 KiB, so
/// source reads and (strided) destination writes both stay L1-resident
/// while the tile is swept.
const TRANSPOSE_BLOCK: usize = 32;

/// Rows of A per register block of the GEMM microkernel, and the row
/// granularity of the parallel split.
const GEMM_ROWS: usize = 4;

/// Counts every multiply-add the GEMM entries perform (`n·k·m` per call),
/// as the `tensor.gemm_macs` telemetry counter.
fn count_macs(n: usize, k: usize, m: usize) {
    static MACS: std::sync::OnceLock<stgraph_telemetry::Counter> = std::sync::OnceLock::new();
    MACS.get_or_init(|| stgraph_telemetry::counter("tensor.gemm_macs"))
        .add((n * k * m) as u64);
}

/// How the GEMM microkernel reads its left operand `A: [n, k]`.
trait Lhs: Sync {
    /// For rows `i0..i0 + R` of A, calls `f(l, [A[i0 + r, l]; R])` for
    /// `l = 0, 1, …, k − 1` in that order.
    fn walk<const R: usize>(&self, i0: usize, f: impl FnMut(usize, [f32; R]));
}

/// `A = [P₀ | P₁ | …]`: row-major column blocks `(data, width)` of equal
/// row count, read in place. One block is a plain row-major matrix.
struct Cols<'a>(&'a [(&'a [f32], usize)]);

impl Lhs for Cols<'_> {
    // `l` reads the same column of `R` rows at once.
    #[allow(clippy::needless_range_loop)]
    #[inline(always)]
    fn walk<const R: usize>(&self, i0: usize, mut f: impl FnMut(usize, [f32; R])) {
        let mut l0 = 0;
        for &(p, w) in self.0 {
            let rows: [&[f32]; R] = std::array::from_fn(|r| &p[(i0 + r) * w..(i0 + r + 1) * w]);
            for l in 0..w {
                f(l0 + l, std::array::from_fn(|r| rows[r][l]));
            }
            l0 += w;
        }
    }
}

/// `A = Xᵀ` for a row-major `X: [k, n]` given as `(data, n)`, read in
/// place: row `l` of X holds column `l` of A.
struct Trans<'a>(&'a [f32], usize);

impl Lhs for Trans<'_> {
    #[inline(always)]
    fn walk<const R: usize>(&self, i0: usize, mut f: impl FnMut(usize, [f32; R])) {
        for (l, row) in self.0.chunks_exact(self.1).enumerate() {
            let row = &row[i0..i0 + R];
            f(l, std::array::from_fn(|r| row[r]));
        }
    }
}

/// `c = A · b` for `c: [n, m]`, split over [`GEMM_ROWS`]-row blocks when
/// the work clears [`par_min`]; counts the MACs.
fn gemm_par(c: &mut [f32], a: &impl Lhs, b: &[f32], k: usize, m: usize) {
    if m == 0 {
        return;
    }
    let n = c.len() / m;
    count_macs(n, k, m);
    if n * m * k >= par_min() {
        c.par_chunks_mut(GEMM_ROWS * m)
            .enumerate()
            .for_each(|(blk, c)| gemm_rows(c, a, blk * GEMM_ROWS, b, m));
    } else {
        gemm_rows(c, a, 0, b, m);
    }
}

/// `c = a · b` on the calling thread, for row-major `a: [n, k]`,
/// `b: [k, m]` and `c: [n, m]` (`n = c.len() / m`).
///
/// One register-blocked microkernel: [`GEMM_ROWS`] rows × 16 columns of
/// `c` (then 8, then one column at a time) stay in registers while k
/// runs, so each B row is loaded once per row block and each output once.
/// Every element is one ascending-k chain `acc = acc + a[i,l]·b[l,j]` from
/// `acc = 0`: fused (one rounding per step) behind [`simd::avx2_fma`],
/// two roundings otherwise, where it is bitwise [`gemm_scalar`]'s.
pub fn gemm(c: &mut [f32], a: &[f32], b: &[f32], k: usize, m: usize) {
    if m == 0 {
        return;
    }
    count_macs(c.len() / m, k, m);
    gemm_rows(c, &Cols(&[(a, k)]), 0, b, m)
}

/// Rows `i0..` of `A · b` into `c` on the calling thread.
fn gemm_rows(c: &mut [f32], a: &impl Lhs, i0: usize, b: &[f32], m: usize) {
    #[cfg(target_arch = "x86_64")]
    if simd::avx2_fma() {
        // SAFETY: AVX2+FMA presence was verified at runtime (cached).
        return unsafe { gemm_fma(c, a, i0, b, m) };
    }
    gemm_block::<false>(c, a, i0, b, m)
}

/// The scalar reference for [`gemm`]: the same unfused ascending-k chain per element, accumulated in axpy order
/// (`c[i,·] += a[i,l] · b[l,·]` for l = 0, 1, …) so B is read row by row.
pub fn gemm_scalar(c: &mut [f32], a: &[f32], b: &[f32], k: usize, m: usize) {
    if m == 0 {
        return;
    }
    for (i, crow) in c.chunks_exact_mut(m).enumerate() {
        crow.fill(0.0);
        for (l, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
            for (x, &bv) in crow.iter_mut().zip(&b[l * m..(l + 1) * m]) {
                *x += av * bv;
            }
        }
    }
}

/// [`gemm_block`] with fused chains, compiled for AVX2+FMA.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gemm_fma(c: &mut [f32], a: &impl Lhs, i0: usize, b: &[f32], m: usize) {
    gemm_block::<true>(c, a, i0, b, m)
}

/// The microkernel over rows `i0..` of A into `c`: blocks of
/// [`GEMM_ROWS`], then single rows — which compute the same chains, so a
/// row's bits do not depend on which block it fell in.
#[inline(always)]
fn gemm_block<const FUSED: bool>(c: &mut [f32], a: &impl Lhs, i0: usize, b: &[f32], m: usize) {
    if m == 0 {
        return;
    }
    let n = c.len() / m;
    let mut i = 0;
    while i + GEMM_ROWS <= n {
        let ci = &mut c[i * m..(i + GEMM_ROWS) * m];
        gemm_strip::<GEMM_ROWS, FUSED>(ci, a, i0 + i, b, m);
        i += GEMM_ROWS;
    }
    for i in i..n {
        gemm_strip::<1, FUSED>(&mut c[i * m..(i + 1) * m], a, i0 + i, b, m);
    }
}

/// `R` rows of `c` (rows `i0..` of A): 16-column tiles, one 8-column
/// tile, then single columns.
#[inline(always)]
fn gemm_strip<const R: usize, const FUSED: bool>(
    c: &mut [f32],
    a: &impl Lhs,
    i0: usize,
    b: &[f32],
    m: usize,
) {
    let mut j = 0;
    while j + 2 * LANES <= m {
        gemm_tile::<R, 2, FUSED>(c, a, i0, b, m, j);
        j += 2 * LANES;
    }
    if j + LANES <= m {
        gemm_tile::<R, 1, FUSED>(c, a, i0, b, m, j);
        j += LANES;
    }
    for j in j..m {
        let mut acc = [0.0f32; R];
        a.walk::<R>(i0, |l, av| {
            let bv = b[l * m + j];
            for (x, &a) in acc.iter_mut().zip(&av) {
                *x = madd::<FUSED>(*x, a, bv);
            }
        });
        for (r, &x) in acc.iter().enumerate() {
            c[r * m + j] = x;
        }
    }
}

/// `R` rows × `W` lane-widths of `c` from column `j`, held in registers
/// across the whole k loop.
#[inline(always)]
fn gemm_tile<const R: usize, const W: usize, const FUSED: bool>(
    c: &mut [f32],
    a: &impl Lhs,
    i0: usize,
    b: &[f32],
    m: usize,
    j: usize,
) {
    let mut acc = [[F32x8::splat(0.0); W]; R];
    a.walk::<R>(i0, |l, avs| {
        let brow = &b[l * m + j..l * m + j + W * LANES];
        let bv: [F32x8; W] = std::array::from_fn(|w| F32x8::load(&brow[w * LANES..]));
        for (accr, &a) in acc.iter_mut().zip(&avs) {
            let av = F32x8::splat(a);
            for (x, &bw) in accr.iter_mut().zip(&bv) {
                *x = lanes_madd::<FUSED>(*x, av, bw);
            }
        }
    });
    for (r, accr) in acc.iter().enumerate() {
        for (w, x) in accr.iter().enumerate() {
            x.store(&mut c[r * m + j + w * LANES..]);
        }
    }
}

/// One step of a chain: `acc + a·b`, fused or with two roundings.
#[inline(always)]
fn madd<const FUSED: bool>(acc: f32, a: f32, b: f32) -> f32 {
    if FUSED {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// [`madd`] in every lane.
#[inline(always)]
fn lanes_madd<const FUSED: bool>(acc: F32x8, a: F32x8, b: F32x8) -> F32x8 {
    let mut r = acc.0;
    for ((x, &a), &b) in r.iter_mut().zip(&a.0).zip(&b.0) {
        *x = madd::<FUSED>(*x, a, b);
    }
    F32x8(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn constructors() {
        let z = Tensor::zeros((2, 3));
        assert_eq!(z.shape(), Shape::Mat(2, 3));
        assert!(z.data().iter().all(|&x| x == 0.0));
        assert_eq!(Tensor::ones(4).data(), &[1.0; 4]);
        assert_eq!(Tensor::scalar(2.5).item(), 2.5);
        let t = Tensor::from_vec((2, 2), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.at(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_len_mismatch_panics() {
        Tensor::from_vec((2, 2), vec![1.0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(3, vec![1.0, -2.0, 3.0]);
        let b = Tensor::from_vec(3, vec![4.0, 5.0, -6.0]);
        assert_eq!(a.add(&b).to_vec(), vec![5.0, 3.0, -3.0]);
        assert_eq!(a.sub(&b).to_vec(), vec![-3.0, -7.0, 9.0]);
        assert_eq!(a.mul(&b).to_vec(), vec![4.0, -10.0, -18.0]);
        assert_eq!(a.neg().to_vec(), vec![-1.0, 2.0, -3.0]);
        assert_eq!(a.relu().to_vec(), vec![1.0, 0.0, 3.0]);
        assert_eq!(a.leaky_relu(0.1).to_vec(), vec![1.0, -0.2, 3.0]);
        assert_eq!(a.mul_scalar(2.0).to_vec(), vec![2.0, -4.0, 6.0]);
        assert_eq!(a.clamp(-1.0, 1.0).to_vec(), vec![1.0, -1.0, 1.0]);
    }

    #[test]
    fn sigmoid_tanh_values() {
        let a = Tensor::from_vec(2, vec![0.0, 1.0]);
        let s = a.sigmoid().to_vec();
        assert!((s[0] - 0.5).abs() < 1e-6);
        assert!((s[1] - 0.731_058_6).abs() < 1e-5);
        let t = a.tanh().to_vec();
        assert!((t[0]).abs() < 1e-6);
        assert!((t[1] - 0.761_594_2).abs() < 1e-5);
    }

    #[test]
    fn matmul_known_result() {
        let a = Tensor::from_vec((2, 3), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec((3, 2), vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.to_vec(), vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_matches_naive_when_parallel() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let n = 70;
        let a = Tensor::rand_uniform((n, n), -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform((n, n), -1.0, 1.0, &mut rng);
        let c = a.matmul(&b);
        // Naive triple loop reference.
        let (av, bv) = (a.data(), b.data());
        for i in [0usize, 13, 37, 69] {
            for j in [0usize, 7, 42, 69] {
                let mut s = 0.0;
                for k in 0..n {
                    s += av[i * n + k] * bv[k * n + j];
                }
                assert!((c.at(i, j) - s).abs() < 1e-3, "({i},{j})");
            }
        }
    }

    /// The unfused microkernel is what [`gemm`] runs on hosts without
    /// AVX2+FMA; its chains are bitwise [`gemm_scalar`]'s at every row
    /// count around the 4-row block, every width around the 16- and
    /// 8-column tiles, and `k = 1`.
    #[test]
    fn unfused_block_matches_scalar_bitwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(29);
        for n in [1usize, 3, 4, 5, 7, 9] {
            for m in [1usize, 7, 8, 9, 15, 16, 17, 24, 25, 33] {
                for k in [1usize, 2, 13, 40] {
                    let a = Tensor::rand_uniform((n, k), -1.0, 1.0, &mut rng);
                    let b = Tensor::rand_uniform((k, m), -1.0, 1.0, &mut rng);
                    let mut want = vec![f32::NAN; n * m];
                    let mut got = vec![f32::NAN; n * m];
                    gemm_scalar(&mut want, a.data(), b.data(), k, m);
                    gemm_block::<false>(&mut got, &Cols(&[(a.data(), k)]), 0, b.data(), m);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "n={n} k={k} m={m}");
                }
            }
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let a = Tensor::rand_uniform((5, 9), -1.0, 1.0, &mut rng);
        let t = a.transpose();
        assert_eq!(t.shape(), Shape::Mat(9, 5));
        assert_eq!(t.at(3, 2), a.at(2, 3));
        assert!(t.transpose().approx_eq(&a, 0.0));
    }

    #[test]
    fn broadcasts() {
        let a = Tensor::from_vec((2, 3), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let bias = Tensor::from_vec(3, vec![10.0, 20.0, 30.0]);
        assert_eq!(
            a.add_bias(&bias).to_vec(),
            vec![11.0, 22.0, 33.0, 14.0, 25.0, 36.0]
        );
        let s = Tensor::from_vec(2, vec![2.0, -1.0]);
        assert_eq!(
            a.scale_rows(&s).to_vec(),
            vec![2.0, 4.0, 6.0, -4.0, -5.0, -6.0]
        );
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec((2, 2), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.sum().item(), 10.0);
        assert_eq!(a.mean().item(), 2.5);
        assert_eq!(a.sum_axis0().to_vec(), vec![4.0, 6.0]);
        assert_eq!(a.sum_axis1().to_vec(), vec![3.0, 7.0]);
    }

    #[test]
    fn concat_and_slice() {
        let a = Tensor::from_vec((2, 2), vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec((2, 1), vec![9.0, 8.0]);
        let c = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(c.to_vec(), vec![1.0, 2.0, 9.0, 3.0, 4.0, 8.0]);
        assert_eq!(c.slice_cols(2, 3).to_vec(), vec![9.0, 8.0]);
        assert_eq!(c.slice_cols(0, 2).to_vec(), a.to_vec());
    }

    #[test]
    fn gather_scatter_inverse_relationship() {
        let x = Tensor::from_vec((3, 2), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let idx = [2u32, 0, 2];
        let g = x.gather_rows(&idx);
        assert_eq!(g.to_vec(), vec![5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        let s = g.scatter_add_rows(&idx, 3);
        // Row 2 was gathered twice so it doubles; row 1 was never touched.
        assert_eq!(s.to_vec(), vec![1.0, 2.0, 0.0, 0.0, 10.0, 12.0]);
    }

    #[test]
    fn scatter_add_parallel_matches_sequential() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let ne = 5000;
        let n = 64;
        let m = 4;
        let idx: Vec<u32> = (0..ne).map(|_| rng.gen_range(0..n as u32)).collect();
        let x = Tensor::rand_uniform((ne, m), -1.0, 1.0, &mut rng);
        let par = x.scatter_add_rows(&idx, n);
        let mut seq = vec![0.0f32; n * m];
        for e in 0..ne {
            for j in 0..m {
                seq[idx[e] as usize * m + j] += x.at(e, j);
            }
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(par.data()),
            bits(&seq),
            "scatter_add_rows vs ascending-e loop"
        );
    }

    #[test]
    #[should_panic(expected = "scatter_add_rows: index")]
    fn scatter_add_out_of_range_index_panics() {
        let ne = 2 * par_min();
        let mut idx = vec![0u32; ne];
        idx[ne - 1] = 9;
        Tensor::ones((ne, 1)).scatter_add_rows(&idx, 9);
    }

    #[test]
    fn sum_parallel_matches_chunked_sequential() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let x = Tensor::rand_uniform(10 * par_min() + 37, -1.0, 1.0, &mut rng);
        let seq: f32 = x
            .data()
            .chunks(par_min())
            .map(|c| c.iter().sum::<f32>())
            .sum();
        assert_eq!(x.sum().item().to_bits(), seq.to_bits());
    }

    #[test]
    fn broadcast_col_repeats() {
        let a = Tensor::from_vec((3, 1), vec![1.0, 2.0, 3.0]);
        assert_eq!(
            a.broadcast_col(3).to_vec(),
            vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0]
        );
    }

    #[test]
    fn reshape_shares_storage() {
        let a = Tensor::from_vec((2, 2), vec![1.0, 2.0, 3.0, 4.0]);
        let b = a.reshape(4);
        assert_eq!(b.shape(), Shape::Vec(4));
        assert_eq!(b.to_vec(), a.to_vec());
    }
}
