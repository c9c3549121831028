//! Dense, immutable `f32` tensors backed by tracked buffers.
//!
//! Every operation is a "kernel": a pure function producing a fresh tensor,
//! executed data-parallel with rayon when the element count justifies it.
//! This is the stand-in for the CUDA device in the paper — the work
//! decomposition (vertex-/row-parallel loops, atomic scatter) mirrors what
//! the generated kernels do on a GPU.

use crate::mem::TrackedBuf;
use crate::shape::Shape;
use crate::simd::{self, F32x8, LANES};
use rand::Rng;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
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

    // ---------- kernel helpers ----------

    /// Generic per-element map for ops without a lane form (transcendentals
    /// and branchy activations). The slice re-borrows here hoist the Arc
    /// deref out of the loop; the zip keeps the body bounds-check free.
    #[inline]
    fn unary(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let src = self.data();
        let mut out = TrackedBuf::raw(src.len());
        let dst = out.as_mut_slice();
        if src.len() >= par_min() {
            dst.par_iter_mut()
                .zip(src.par_iter())
                .for_each(|(d, &s)| *d = f(s));
        } else {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = f(s);
            }
        }
        Tensor {
            buf: Arc::new(out),
            shape: self.shape,
        }
    }

    /// Lane-dispatched unary map: `lane` over [`LANES`]-wide chunks when
    /// SIMD is enabled, `scalar` for the remainder and the
    /// `STGRAPH_NO_SIMD` fallback. Both closures must compute the same
    /// per-element IEEE expression so the two paths stay bitwise equal.
    #[inline]
    fn unary_lanes(
        &self,
        lane: impl Fn(F32x8) -> F32x8 + Sync,
        scalar: impl Fn(f32) -> f32 + Sync,
    ) -> Tensor {
        let src = self.data();
        let mut out = TrackedBuf::raw(src.len());
        let dst = out.as_mut_slice();
        let use_simd = simd::enabled();
        let body = |(d, s): (&mut [f32], &[f32])| {
            if use_simd {
                let main = s.len() / LANES * LANES;
                let (dm, dt) = d.split_at_mut(main);
                let mut sc = s.chunks_exact(LANES);
                for (dc, sc) in dm.chunks_exact_mut(LANES).zip(sc.by_ref()) {
                    lane(F32x8::load(sc)).store(dc);
                }
                for (d, &s) in dt.iter_mut().zip(sc.remainder()) {
                    *d = scalar(s);
                }
            } else {
                for (d, &s) in d.iter_mut().zip(s) {
                    *d = scalar(s);
                }
            }
        };
        if src.len() >= par_min() {
            dst.par_chunks_mut(ELEMWISE_BLOCK)
                .zip(src.par_chunks(ELEMWISE_BLOCK))
                .for_each(body);
        } else {
            body((dst, src));
        }
        Tensor {
            buf: Arc::new(out),
            shape: self.shape,
        }
    }

    /// Lane-dispatched binary map; see [`Tensor::unary_lanes`] for the
    /// bitwise contract between `lane` and `scalar`.
    #[inline]
    fn binary_lanes(
        &self,
        other: &Tensor,
        lane: impl Fn(F32x8, F32x8) -> F32x8 + Sync,
        scalar: impl Fn(f32, f32) -> f32 + Sync,
    ) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "elementwise op on mismatched shapes {} vs {}",
            self.shape, other.shape
        );
        let a = self.data();
        let b = other.data();
        let mut out = TrackedBuf::raw(a.len());
        let dst = out.as_mut_slice();
        let use_simd = simd::enabled();
        let body = |(d, (a, b)): (&mut [f32], (&[f32], &[f32]))| {
            if use_simd {
                let main = a.len() / LANES * LANES;
                let (dm, dt) = d.split_at_mut(main);
                let mut ac = a.chunks_exact(LANES);
                let mut bc = b.chunks_exact(LANES);
                for (dc, (ac, bc)) in dm.chunks_exact_mut(LANES).zip(ac.by_ref().zip(bc.by_ref())) {
                    lane(F32x8::load(ac), F32x8::load(bc)).store(dc);
                }
                for (d, (&x, &y)) in dt.iter_mut().zip(ac.remainder().iter().zip(bc.remainder())) {
                    *d = scalar(x, y);
                }
            } else {
                for (d, (&x, &y)) in d.iter_mut().zip(a.iter().zip(b)) {
                    *d = scalar(x, y);
                }
            }
        };
        if a.len() >= par_min() {
            dst.par_chunks_mut(ELEMWISE_BLOCK)
                .zip(
                    a.par_chunks(ELEMWISE_BLOCK)
                        .zip(b.par_chunks(ELEMWISE_BLOCK)),
                )
                .for_each(body);
        } else {
            body((dst, (a, b)));
        }
        Tensor {
            buf: Arc::new(out),
            shape: self.shape,
        }
    }

    // ---------- elementwise ----------

    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        self.unary(|x| -x)
    }

    /// Elementwise sum with a same-shape tensor.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.binary_lanes(other, |a, b| a.add(b), |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.binary_lanes(other, |a, b| a.sub(b), |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.binary_lanes(other, |a, b| a.mul(b), |a, b| a * b)
    }

    /// Elementwise quotient.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.binary_lanes(other, |a, b| a.div(b), |a, b| a / b)
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.unary_lanes(move |x| x.add(F32x8::splat(s)), move |x| x + s)
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        self.unary_lanes(move |x| x.mul(F32x8::splat(s)), move |x| x * s)
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Tensor {
        self.unary(f32::exp)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Tensor {
        self.unary(f32::ln)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        self.unary(f32::sqrt)
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        self.unary_lanes(|x| x.mul(x), |x| x * x)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        self.unary(|x| 1.0 / (1.0 + (-x).exp()))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        self.unary(f32::tanh)
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Tensor {
        self.unary_lanes(|x| x.max(F32x8::splat(0.0)), |x| x.max(0.0))
    }

    /// Leaky ReLU with negative slope `slope`.
    pub fn leaky_relu(&self, slope: f32) -> Tensor {
        self.unary(move |x| if x >= 0.0 { x } else { slope * x })
    }

    /// Clamps every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.unary(move |x| x.clamp(lo, hi))
    }

    // ---------- linear algebra ----------

    /// Matrix product `self @ other` for `[n,k] x [k,m]`.
    ///
    /// Row-parallel (the vertex-parallel decomposition of a GPU GEMM over n),
    /// with each row computed by a k-blocked, 8-wide register-tiled
    /// microkernel — [`matmul_row_simd`] when SIMD is enabled,
    /// [`matmul_row`] under `STGRAPH_NO_SIMD`. Results are deterministic:
    /// the per-element summation order depends only on the shapes (and the
    /// dispatch path), never on the thread count. The two paths associate
    /// the k-reduction differently, so they agree to a relative epsilon,
    /// not bitwise.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (n, k) = self.shape.as_mat();
        let (k2, m) = other.shape.as_mat();
        assert_eq!(k, k2, "matmul {} x {}", self.shape, other.shape);
        let a = self.data();
        let b = other.data();
        let mut out = TrackedBuf::raw(n * m);
        let work = n * m * k;
        let row_kernel = if simd::enabled() {
            matmul_row_simd
        } else {
            matmul_row
        };
        let body = |(i, row): (usize, &mut [f32])| row_kernel(row, &a[i * k..(i + 1) * k], b, m);
        if work >= par_min() {
            out.as_mut_slice()
                .par_chunks_mut(m)
                .enumerate()
                .for_each(body);
        } else {
            out.as_mut_slice().chunks_mut(m).enumerate().for_each(body);
        }
        Tensor {
            buf: Arc::new(out),
            shape: Shape::Mat(n, m),
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
        let (n, m) = self.shape.as_mat();
        let a = self.data();
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
        } else {
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
    /// Lane-dispatched along each row; bitwise-equal on both paths.
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
        let use_simd = simd::enabled();
        let body = |(_i, (drow, arow)): (usize, (&mut [f32], &[f32]))| {
            if use_simd {
                let main = m / LANES * LANES;
                let (dm, dt) = drow.split_at_mut(main);
                let mut ac = arow.chunks_exact(LANES);
                let mut bc = b.chunks_exact(LANES);
                for (dc, (ac, bc)) in dm.chunks_exact_mut(LANES).zip(ac.by_ref().zip(bc.by_ref())) {
                    F32x8::load(ac).add(F32x8::load(bc)).store(dc);
                }
                for (d, (&x, &bv)) in dt.iter_mut().zip(ac.remainder().iter().zip(bc.remainder())) {
                    *d = x + bv;
                }
            } else {
                for (d, (&x, &bv)) in drow.iter_mut().zip(arow.iter().zip(b)) {
                    *d = x + bv;
                }
            }
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

    /// Scales row `i` of a matrix by `s[i]` (per-node normalisation).
    /// Lane-dispatched along each row; bitwise-equal on both paths.
    pub fn scale_rows(&self, s: &Tensor) -> Tensor {
        let (n, m) = self.shape.as_mat();
        assert_eq!(s.numel(), n, "scale_rows: scale {} vs rows {n}", s.shape());
        let sv = s.data();
        let a = self.data();
        let mut out = TrackedBuf::raw(a.len());
        let dst = out.as_mut_slice();
        let use_simd = simd::enabled();
        let body = |(i, (drow, arow)): (usize, (&mut [f32], &[f32]))| {
            let f = sv[i];
            if use_simd {
                let fx = F32x8::splat(f);
                let main = m / LANES * LANES;
                let (dm, dt) = drow.split_at_mut(main);
                let mut ac = arow.chunks_exact(LANES);
                for (dc, ac) in dm.chunks_exact_mut(LANES).zip(ac.by_ref()) {
                    F32x8::load(ac).mul(fx).store(dc);
                }
                for (d, &x) in dt.iter_mut().zip(ac.remainder()) {
                    *d = x * f;
                }
            } else {
                for (d, &x) in drow.iter_mut().zip(arow) {
                    *d = x * f;
                }
            }
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
    pub fn sum(&self) -> Tensor {
        let d = self.data();
        let s: f32 = if d.len() >= par_min() {
            d.par_chunks(par_min()).map(|c| c.iter().sum::<f32>()).sum()
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
    pub fn sum_axis0(&self) -> Tensor {
        let (n, m) = self.shape.as_mat();
        let a = self.data();
        let mut out = TrackedBuf::zeros(m);
        let acc = out.as_mut_slice();
        for i in 0..n {
            for j in 0..m {
                acc[j] += a[i * m + j];
            }
        }
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
    /// `out[idx[e]] += self[e]`, using atomic f32 adds exactly like a GPU
    /// scatter kernel.
    pub fn scatter_add_rows(&self, idx: &[u32], n_rows: usize) -> Tensor {
        let (ne, m) = self.shape.as_mat();
        assert_eq!(ne, idx.len(), "scatter_add_rows: rows vs indices");
        let a = self.data();
        let mut out = TrackedBuf::zeros(n_rows * m);
        {
            let dst = out.as_mut_slice();
            let atomic = as_atomic_f32(dst);
            let body = |e: usize| {
                let d = idx[e] as usize;
                debug_assert!(d < n_rows);
                let row = &a[e * m..(e + 1) * m];
                for (j, &v) in row.iter().enumerate() {
                    atomic_add_f32(&atomic[d * m + j], v);
                }
            };
            if ne * m >= par_min() {
                (0..ne).into_par_iter().for_each(body);
            } else {
                (0..ne).for_each(body);
            }
        }
        Tensor {
            buf: Arc::new(out),
            shape: Shape::Mat(n_rows, m),
        }
    }
}

/// Elements per rayon task in the lane-dispatched elementwise kernels.
/// A multiple of [`LANES`] so only the final block carries a scalar
/// remainder; big enough that task hand-off stays negligible.
const ELEMWISE_BLOCK: usize = 4096;

/// Tile edge of the cache-blocked transpose: a 32×32 f32 tile is 4 KiB, so
/// source reads and (strided) destination writes both stay L1-resident
/// while the tile is swept.
const TRANSPOSE_BLOCK: usize = 32;

/// k-block depth of the matmul microkernel. A block touches an
/// 8-column × 256-row panel of B (8 KiB) plus a 1 KiB stripe of the A row —
/// both stay resident in a 32 KiB L1d across the panel sweep.
const MATMUL_KB: usize = 256;

/// Width of the matmul register tile: 8 independent accumulators give the
/// out-of-order core parallel FMA chains instead of one serial
/// load-add-store dependency through the output row.
const MATMUL_JW: usize = 8;

/// Computes one output row `row = arow · B` (B row-major, `m` columns).
///
/// The j-loop is tiled [`MATMUL_JW`] wide with the partial sums held in a
/// stack array (registers after unrolling), so the inner k-loop does no
/// output-row loads or stores; the k-loop is blocked [`MATMUL_KB`] deep so
/// the B panel it streams stays L1-resident. Columns past the last full tile
/// fall back to the untiled update. Summation order per element is fixed by
/// the shapes, keeping results bit-deterministic under any thread count.
fn matmul_row(row: &mut [f32], arow: &[f32], b: &[f32], m: usize) {
    debug_assert_eq!(row.len(), m);
    row.fill(0.0);
    let k = arow.len();
    let mut k0 = 0;
    while k0 < k {
        let kend = (k0 + MATMUL_KB).min(k);
        let mut j0 = 0;
        while j0 + MATMUL_JW <= m {
            let mut acc = [0.0f32; MATMUL_JW];
            acc.copy_from_slice(&row[j0..j0 + MATMUL_JW]);
            for (kk, &av) in arow[k0..kend].iter().enumerate() {
                let brow = &b[(k0 + kk) * m + j0..(k0 + kk) * m + j0 + MATMUL_JW];
                for (x, &bv) in acc.iter_mut().zip(brow) {
                    *x += av * bv;
                }
            }
            row[j0..j0 + MATMUL_JW].copy_from_slice(&acc);
            j0 += MATMUL_JW;
        }
        if j0 < m {
            for (kk, &av) in arow[k0..kend].iter().enumerate() {
                let brow = &b[(k0 + kk) * m..(k0 + kk + 1) * m];
                for (x, &bv) in row[j0..].iter_mut().zip(&brow[j0..]) {
                    *x += av * bv;
                }
            }
        }
        k0 = kend;
    }
}

/// SIMD variant of [`matmul_row`]: one [`F32x8`] of output columns per
/// j-tile, with the k-reduction split across four independent lane
/// accumulators so the loop is bounded by multiply/add *throughput* rather
/// than the latency of one serial accumulate chain. The accumulators are
/// combined in a fixed order at the end of each k-block, so results are
/// still bit-deterministic under any thread count — but the reassociation
/// means they differ from [`matmul_row`] by rounding (epsilon-gated in
/// tests, never bitwise-compared).
fn matmul_row_simd(row: &mut [f32], arow: &[f32], b: &[f32], m: usize) {
    #[cfg(target_arch = "x86_64")]
    if simd::avx2_fma() {
        // SAFETY: AVX2+FMA presence was verified at runtime (cached), so
        // the target_feature codegen of the callee is valid on this CPU.
        unsafe { matmul_row_avx2(row, arow, b, m) };
        return;
    }
    matmul_row_portable(row, arow, b, m)
}

/// The portable-lane body of [`matmul_row_simd`]: compiles on every
/// target, autovectorizing to whatever the baseline ISA offers.
fn matmul_row_portable(row: &mut [f32], arow: &[f32], b: &[f32], m: usize) {
    debug_assert_eq!(row.len(), m);
    row.fill(0.0);
    let k = arow.len();
    let mut k0 = 0;
    while k0 < k {
        let kend = (k0 + MATMUL_KB).min(k);
        let k4 = (kend - k0) / 4 * 4;
        let mut j0 = 0;
        while j0 + LANES <= m {
            let mut acc0 = F32x8::load(&row[j0..]);
            let mut acc1 = F32x8::splat(0.0);
            let mut acc2 = F32x8::splat(0.0);
            let mut acc3 = F32x8::splat(0.0);
            let mut kk = k0;
            while kk < k0 + k4 {
                acc0 = F32x8::splat(arow[kk]).mul_add(F32x8::load(&b[kk * m + j0..]), acc0);
                acc1 =
                    F32x8::splat(arow[kk + 1]).mul_add(F32x8::load(&b[(kk + 1) * m + j0..]), acc1);
                acc2 =
                    F32x8::splat(arow[kk + 2]).mul_add(F32x8::load(&b[(kk + 2) * m + j0..]), acc2);
                acc3 =
                    F32x8::splat(arow[kk + 3]).mul_add(F32x8::load(&b[(kk + 3) * m + j0..]), acc3);
                kk += 4;
            }
            for kr in k0 + k4..kend {
                acc0 = F32x8::splat(arow[kr]).mul_add(F32x8::load(&b[kr * m + j0..]), acc0);
            }
            acc0.add(acc1).add(acc2.add(acc3)).store(&mut row[j0..]);
            j0 += LANES;
        }
        if j0 < m {
            // Columns past the last full lane tile: same untiled update as
            // the scalar microkernel's remainder.
            for (kk, &av) in arow[k0..kend].iter().enumerate() {
                let brow = &b[(k0 + kk) * m..(k0 + kk + 1) * m];
                for (x, &bv) in row[j0..].iter_mut().zip(&brow[j0..]) {
                    *x += av * bv;
                }
            }
        }
        k0 = kend;
    }
}

/// AVX2+FMA specialization of the row microkernel: identical j-tile /
/// k-block structure to [`matmul_row_portable`], but each 8-column tile is
/// one `ymm` register and each multiply-add is a hardware `vfmaddps`. A
/// baseline x86-64 build cannot emit these (the portable lanes lower to
/// SSE pairs without contraction), so this is where the GEMM's headroom
/// on modern x86 actually lives. FMA changes rounding versus the portable
/// path — permitted because matmul reductions are epsilon-gated, never
/// bitwise-compared; dispatch is cached so every kernel in a process
/// (fused and unfused alike) picks the same variant.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn matmul_row_avx2(row: &mut [f32], arow: &[f32], b: &[f32], m: usize) {
    use core::arch::x86_64::*;
    debug_assert_eq!(row.len(), m);
    row.fill(0.0);
    let k = arow.len();
    let bp = b.as_ptr();
    if m > 2 * MATMUL_JW * LANES {
        // Wide outputs: the narrow j-tile below would re-stream the whole
        // B panel once per 8-column strip (m/8 strided traversals). Flip
        // to the axpy form `row += arow[kk] · B[kk, ·]` instead — B is
        // streamed exactly once, contiguously, and the output row (4 B
        // per column) stays L1-resident as the accumulator. Dependent
        // updates to one column are m/8 vector ops apart, so the FMA
        // chain never stalls at these widths.
        for (kk, &av) in arow.iter().enumerate() {
            let avv = _mm256_set1_ps(av);
            let brow = bp.add(kk * m);
            let mut j = 0;
            while j + LANES <= m {
                let acc = _mm256_fmadd_ps(
                    avv,
                    _mm256_loadu_ps(brow.add(j)),
                    _mm256_loadu_ps(row.as_ptr().add(j)),
                );
                _mm256_storeu_ps(row.as_mut_ptr().add(j), acc);
                j += LANES;
            }
            for jj in j..m {
                row[jj] += av * b[kk * m + jj];
            }
        }
        return;
    }
    let mut k0 = 0;
    while k0 < k {
        let kend = (k0 + MATMUL_KB).min(k);
        let k4 = (kend - k0) / 4 * 4;
        let mut j0 = 0;
        while j0 + LANES <= m {
            let mut acc0 = _mm256_loadu_ps(row.as_ptr().add(j0));
            let mut acc1 = _mm256_setzero_ps();
            let mut acc2 = _mm256_setzero_ps();
            let mut acc3 = _mm256_setzero_ps();
            let mut kk = k0;
            while kk < k0 + k4 {
                acc0 = _mm256_fmadd_ps(
                    _mm256_set1_ps(arow[kk]),
                    _mm256_loadu_ps(bp.add(kk * m + j0)),
                    acc0,
                );
                acc1 = _mm256_fmadd_ps(
                    _mm256_set1_ps(arow[kk + 1]),
                    _mm256_loadu_ps(bp.add((kk + 1) * m + j0)),
                    acc1,
                );
                acc2 = _mm256_fmadd_ps(
                    _mm256_set1_ps(arow[kk + 2]),
                    _mm256_loadu_ps(bp.add((kk + 2) * m + j0)),
                    acc2,
                );
                acc3 = _mm256_fmadd_ps(
                    _mm256_set1_ps(arow[kk + 3]),
                    _mm256_loadu_ps(bp.add((kk + 3) * m + j0)),
                    acc3,
                );
                kk += 4;
            }
            for (kr, &av) in arow.iter().enumerate().take(kend).skip(k0 + k4) {
                acc0 = _mm256_fmadd_ps(
                    _mm256_set1_ps(av),
                    _mm256_loadu_ps(bp.add(kr * m + j0)),
                    acc0,
                );
            }
            _mm256_storeu_ps(
                row.as_mut_ptr().add(j0),
                _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3)),
            );
            j0 += LANES;
        }
        if j0 < m {
            for (kk, &av) in arow[k0..kend].iter().enumerate() {
                let brow = &b[(k0 + kk) * m..(k0 + kk + 1) * m];
                for (x, &bv) in row[j0..].iter_mut().zip(&brow[j0..]) {
                    *x += av * bv;
                }
            }
        }
        k0 = kend;
    }
}

/// Single-row GEMM `row = arow · B` (B row-major with `m` columns),
/// dispatching to the same microkernel [`Tensor::matmul`] uses for each of
/// its rows — SIMD unless `STGRAPH_NO_SIMD` is set. Exposed so the
/// `kernels` bench can time the dispatched microkernel without the row
/// parallelism around it.
pub fn gemm_row(row: &mut [f32], arow: &[f32], b: &[f32], m: usize) {
    if simd::enabled() {
        matmul_row_simd(row, arow, b, m)
    } else {
        matmul_row(row, arow, b, m)
    }
}

/// The scalar row microkernel behind [`gemm_row`], exposed for direct
/// SIMD-vs-scalar comparison in tests and benches.
pub fn gemm_row_scalar(row: &mut [f32], arow: &[f32], b: &[f32], m: usize) {
    matmul_row(row, arow, b, m)
}

/// The SIMD row microkernel behind [`gemm_row`], exposed for direct
/// SIMD-vs-scalar comparison in tests and benches.
pub fn gemm_row_simd(row: &mut [f32], arow: &[f32], b: &[f32], m: usize) {
    matmul_row_simd(row, arow, b, m)
}

/// Reinterprets a mutable f32 slice as atomics for lock-free scatter adds.
///
/// Safety: `AtomicU32` has the same size/alignment as `f32`, the slice is
/// exclusively borrowed for the lifetime of the returned view, and all
/// accesses go through atomic operations.
pub fn as_atomic_f32(s: &mut [f32]) -> &[AtomicU32] {
    unsafe { std::slice::from_raw_parts(s.as_ptr() as *const AtomicU32, s.len()) }
}

/// CAS-loop float add, the CPU analogue of CUDA's `atomicAdd(float*)`.
pub fn atomic_add_f32(slot: &AtomicU32, v: f32) {
    let mut cur = slot.load(Ordering::Relaxed);
    loop {
        let new = (f32::from_bits(cur) + v).to_bits();
        match slot.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(c) => cur = c,
        }
    }
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
        for (p, s) in par.data().iter().zip(&seq) {
            assert!((p - s).abs() < 1e-3);
        }
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
