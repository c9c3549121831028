//! Portable 8-lane `f32` SIMD for the dense kernels.
//!
//! One contract covers every elementwise kernel: **lane forms are derived
//! from the scalar expression**. A kernel states its per-element
//! expression once, as a closure `f`; a driver maps that closure over the
//! eight lanes of each [`LANES`]-wide [`F32x8`] chunk and calls it on the
//! remainder. Each lane therefore runs `f` itself and the result is
//! bitwise the per-element scalar loop — no lane form is written beside
//! its scalar twin, so there is no pair to keep in agreement. The
//! compiler vectorizes the unrolled per-lane body to whatever the target
//! offers (SSE pairs, one AVX register, NEON pairs) without `unsafe`.
//! Vectorization never fuses a multiply and an add, so a chunk's bits are
//! its lanes' scalar bits. The transcendental family ([`exp`], [`tanh`],
//! [`sigmoid`]) is written as branch-free scalar functions so that their
//! derived lane forms vectorize. Only the matmul may fuse its
//! multiply-adds (see [`avx2_fma`]).
//!
//! The drivers are [`map_lanes`] / [`map_lanes_inline`] (unary),
//! [`zip_lanes`] (binary), [`zip3_lanes`] (ternary) and [`reduce_rows`]
//! (column-wise sums and maxima, partial results in registers). There is
//! one path per kernel; the only runtime dispatch is the cached CPU check
//! [`avx2_fma`].

/// Lane count of [`F32x8`]. Drivers map a kernel's closure over
/// `len / LANES * LANES` elements in lane chunks and call it on the
/// remainder.
pub const LANES: usize = 8;

/// Whether the CPU has AVX2 and FMA. A baseline x86-64 build lowers the
/// portable lanes to SSE pairs; behind this check the GEMM microkernel is
/// compiled for AVX2 with *fused* multiply-adds, and the unary lane loop
/// ([`map_lanes`]) for AVX2 *without* FMA. Only the matmul may fuse:
/// fusion changes rounding, which the elementwise bitwise contract
/// forbids. Detection is cached, keeping every dispatch decision
/// process-stable.
pub fn avx2_fma() -> bool {
    static OK: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *OK.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Eight `f32` lanes.
///
/// 32-byte aligned so an AVX load/store of the whole value is natural; the
/// slice constructors still go through safe unaligned copies, which the
/// compiler lowers to unaligned vector moves.
#[derive(Clone, Copy, Debug)]
#[repr(align(32))]
pub struct F32x8(pub [f32; LANES]);

impl F32x8 {
    /// All lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: f32) -> F32x8 {
        F32x8([v; LANES])
    }

    /// Loads the first [`LANES`] elements of `s`.
    #[inline(always)]
    pub fn load(s: &[f32]) -> F32x8 {
        let mut out = [0.0f32; LANES];
        out.copy_from_slice(&s[..LANES]);
        F32x8(out)
    }

    /// Stores the lanes into the first [`LANES`] elements of `d`.
    #[inline(always)]
    pub fn store(self, d: &mut [f32]) {
        d[..LANES].copy_from_slice(&self.0);
    }

    /// `f` in every lane: the lane form of a unary scalar expression.
    #[inline(always)]
    pub fn map(self, f: impl Fn(f32) -> f32) -> F32x8 {
        let mut r = self.0;
        for x in r.iter_mut() {
            *x = f(*x);
        }
        F32x8(r)
    }

    /// `f` on every lane pair: the lane form of a binary scalar expression.
    #[inline(always)]
    pub fn zip_map(self, o: F32x8, f: impl Fn(f32, f32) -> f32) -> F32x8 {
        let mut r = self.0;
        for (x, &y) in r.iter_mut().zip(&o.0) {
            *x = f(*x, y);
        }
        F32x8(r)
    }
}

/// `dst[i] = f(src[i])`. Behind [`avx2_fma`] the loop is compiled for
/// AVX2 — without FMA, so the bits are the same either way.
#[inline]
pub fn map_lanes(dst: &mut [f32], src: &[f32], f: impl Fn(f32) -> f32) {
    #[cfg(target_arch = "x86_64")]
    if avx2_fma() {
        // SAFETY: AVX2 presence was verified at runtime (cached).
        return unsafe { map_lanes_avx2(dst, src, f) };
    }
    map_lanes_inline(dst, src, f)
}

/// [`map_lanes_inline`] compiled for AVX2.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn map_lanes_avx2(dst: &mut [f32], src: &[f32], f: impl Fn(f32) -> f32) {
    map_lanes_inline(dst, src, f)
}

/// [`map_lanes`] without the AVX2 dispatch, inlined into the caller. For
/// per-row and per-edge maps (`scale_rows`, seastar's edge instructions),
/// where a non-inlined call per short slice costs more than AVX2 saves.
#[inline(always)]
pub fn map_lanes_inline(dst: &mut [f32], src: &[f32], f: impl Fn(f32) -> f32) {
    let main = src.len() / LANES * LANES;
    let (dm, dt) = dst.split_at_mut(main);
    let mut sc = src.chunks_exact(LANES);
    for (dc, sc) in dm.chunks_exact_mut(LANES).zip(sc.by_ref()) {
        F32x8::load(sc).map(&f).store(dc);
    }
    for (d, &s) in dt.iter_mut().zip(sc.remainder()) {
        *d = f(s);
    }
}

/// `dst[i] = f(a[i], b[i])` over equal-length slices.
#[inline(always)]
pub fn zip_lanes(dst: &mut [f32], a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f32) {
    let main = dst.len() / LANES * LANES;
    let (dm, dt) = dst.split_at_mut(main);
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (dc, (ac, bc)) in dm.chunks_exact_mut(LANES).zip(ac.by_ref().zip(bc.by_ref())) {
        F32x8::load(ac).zip_map(F32x8::load(bc), &f).store(dc);
    }
    for (d, (&x, &y)) in dt.iter_mut().zip(ac.remainder().iter().zip(bc.remainder())) {
        *d = f(x, y);
    }
}

/// `dst[i] = f(a[i], b[i], c[i])` over equal-length slices.
#[inline(always)]
pub fn zip3_lanes(
    dst: &mut [f32],
    a: &[f32],
    b: &[f32],
    c: &[f32],
    f: impl Fn(f32, f32, f32) -> f32,
) {
    let main = dst.len() / LANES * LANES;
    let (dm, dt) = dst.split_at_mut(main);
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    let mut cc = c.chunks_exact(LANES);
    let chunks = ac.by_ref().zip(bc.by_ref()).zip(cc.by_ref());
    for (dc, ((ac, bc), cc)) in dm.chunks_exact_mut(LANES).zip(chunks) {
        let (x, y, z) = (F32x8::load(ac), F32x8::load(bc), F32x8::load(cc));
        F32x8(std::array::from_fn(|l| f(x.0[l], y.0[l], z.0[l]))).store(dc);
    }
    let tails = ac
        .remainder()
        .iter()
        .zip(bc.remainder())
        .zip(cc.remainder());
    for (d, ((&x, &y), &z)) in dt.iter_mut().zip(tails) {
        *d = f(x, y, z);
    }
}

// ---------- register-blocked column reductions ----------
//
// A column-wise reduction of `n` rows (an aggregation row's edge values,
// or a matrix's rows) keeps its partial results in locals — up to
// [`ROW_BLOCKS`] lane blocks plus a scalar tail — and stores them once:
// partial results kept in memory would put a store-to-load chain on
// every row. Each output element is still its ascending-row chain of
// [`Reduce::op`]: from `0.0` for [`Sum`], from row 0 for [`Max`], mapped
// over the lanes of the row's full [`LANES`]-wide chunks and called on
// its remainder.

/// Lane blocks held in locals per column pass of [`reduce_rows`]; wider
/// rows are walked in passes of `ROW_BLOCKS · LANES` columns.
pub const ROW_BLOCKS: usize = 4;

/// How [`reduce_rows`] combines a row into its partial results.
pub trait Reduce {
    /// Whether the chain starts from row 0 (`true`) or from `0.0`.
    const FROM_FIRST: bool;
    /// `acc (op) v`; lane blocks map it over their lanes.
    fn op(acc: f32, v: f32) -> f32;
}

/// `0.0 + r₀ + r₁ + …`, column by column.
pub struct Sum;

impl Reduce for Sum {
    const FROM_FIRST: bool = false;
    #[inline(always)]
    fn op(acc: f32, v: f32) -> f32 {
        acc + v
    }
}

/// `r₀.max(r₁).max(r₂)…` (`f32::max`), column by column; `0.0` with no rows.
pub struct Max;

impl Reduce for Max {
    const FROM_FIRST: bool = true;
    #[inline(always)]
    fn op(acc: f32, v: f32) -> f32 {
        acc.max(v)
    }
}

/// Code that is generic over the register shape of a reduction's last
/// column pass; [`with_row_shape`] picks the shape once per launch.
pub trait RowShaped {
    /// What [`RowShaped::run`] returns.
    type Output;
    /// Runs with `B` lane blocks and `T` tail scalars in the last pass.
    fn run<const B: usize, const T: usize>(self) -> Self::Output;
}

/// Calls `k.run::<B, T>()` for width `w`: `T = w % LANES`, and `B` the
/// lane blocks left for the last pass after full [`ROW_BLOCKS`]-block
/// passes (`1..=ROW_BLOCKS` when `w ≥ LANES`, else 0).
pub fn with_row_shape<K: RowShaped>(w: usize, k: K) -> K::Output {
    fn tail<const B: usize, K: RowShaped>(t: usize, k: K) -> K::Output {
        match t {
            0 => k.run::<B, 0>(),
            1 => k.run::<B, 1>(),
            2 => k.run::<B, 2>(),
            3 => k.run::<B, 3>(),
            4 => k.run::<B, 4>(),
            5 => k.run::<B, 5>(),
            6 => k.run::<B, 6>(),
            7 => k.run::<B, 7>(),
            _ => unreachable!("tail of {t} >= LANES"),
        }
    }
    let blocks = w / LANES;
    match blocks - blocks.saturating_sub(1) / ROW_BLOCKS * ROW_BLOCKS {
        0 => tail::<0, K>(w % LANES, k),
        1 => tail::<1, K>(w % LANES, k),
        2 => tail::<2, K>(w % LANES, k),
        3 => tail::<3, K>(w % LANES, k),
        4 => tail::<4, K>(w % LANES, k),
        b => unreachable!("last pass of {b} > ROW_BLOCKS blocks"),
    }
}

/// Reduces rows `row(0..n)` column-wise into `out` (its length is the
/// width; each row is at least that long), with the last pass shaped
/// `<B, T>` by [`with_row_shape`] for `out.len()`. Each column pass holds
/// its partial results in locals and stores them once. With `resume` the
/// chains continue from `out`'s values (the rows are the next ones of a
/// longer reduction) instead of starting afresh.
#[inline(always)]
pub fn reduce_rows<'a, const B: usize, const T: usize, R: Reduce>(
    out: &mut [f32],
    n: usize,
    resume: bool,
    row: impl Fn(usize) -> &'a [f32],
) {
    let last = out.len() - (B * LANES + T);
    debug_assert_eq!(last % (ROW_BLOCKS * LANES), 0, "pass shape vs width");
    for c0 in (0..last).step_by(ROW_BLOCKS * LANES) {
        reduce_pass::<ROW_BLOCKS, 0, R>(&mut out[c0..], n, resume, &row, c0);
    }
    reduce_pass::<B, T, R>(&mut out[last..], n, resume, &row, last);
}

/// One column pass of [`reduce_rows`]: columns `c0..c0 + B·LANES + T` of
/// every row into `out`'s leading `B·LANES + T` elements.
#[inline(always)]
fn reduce_pass<'a, const B: usize, const T: usize, R: Reduce>(
    out: &mut [f32],
    n: usize,
    resume: bool,
    row: &impl Fn(usize) -> &'a [f32],
    c0: usize,
) {
    let mut blocks = [F32x8::splat(0.0); B];
    let mut tail = [0.0f32; T];
    let mut k = 0;
    let start = if resume {
        Some(&out[..B * LANES + T])
    } else if R::FROM_FIRST && n > 0 {
        k = 1;
        Some(&row(0)[c0..c0 + B * LANES + T])
    } else {
        None
    };
    if let Some(r) = start {
        for (b, acc) in blocks.iter_mut().enumerate() {
            *acc = F32x8::load(&r[b * LANES..]);
        }
        tail.copy_from_slice(&r[B * LANES..]);
    }
    while k < n {
        let r = &row(k)[c0..c0 + B * LANES + T];
        for (b, acc) in blocks.iter_mut().enumerate() {
            *acc = acc.zip_map(F32x8::load(&r[b * LANES..]), R::op);
        }
        for (acc, &v) in tail.iter_mut().zip(&r[B * LANES..]) {
            *acc = R::op(*acc, v);
        }
        k += 1;
    }
    for (b, acc) in blocks.iter().enumerate() {
        acc.store(&mut out[b * LANES..]);
    }
    out[B * LANES..B * LANES + T].copy_from_slice(&tail);
}

// ---------- transcendental family ----------
//
// Each function is one branch-free expression over plain mul, add, div,
// select and sign/exponent bit moves — no FMA, no libm — so the lane
// forms the drivers derive from them vectorize (in the AVX2 compilation
// of `map_lanes` too). Clamps are written as `if x > hi { hi } else
// { x }` rather than `f32::min`, which would swallow a NaN: NaN in gives
// NaN out, so a diverged loss stays visible. Max relative error against
// f64 is below 1e-6 on [-20, 20] (`simd_prop.rs` sweeps it).

/// `x` clamped into `[lo, hi]`, passing NaN through.
#[inline(always)]
fn clamp_nan(x: f32, lo: f32, hi: f32) -> f32 {
    let x = if x > hi { hi } else { x };
    if x < lo {
        lo
    } else {
        x
    }
}

/// `2^n` built straight from the exponent bits; exact for `n` in
/// `[-126, 127]` (callers stay inside it, or pass a NaN lane, whose
/// product is NaN whatever this returns).
#[inline(always)]
fn pow2i(n: i32) -> f32 {
    f32::from_bits((n.wrapping_add(127) as u32) << 23)
}

/// `e^x`, Cephes `expf`: `x = n·ln2 + r` with `n` rounded to nearest by
/// the 1.5·2²³ shifter and `ln2` split in two so `r` is exact, a
/// degree-7 polynomial for `e^r` on `|r| ≤ ln2/2`, then `2^n` applied in
/// two exponent-bit halves so results overflow to `+∞` and underflow
/// through the subnormals to `0` exactly where the true value does.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    const SHIFTER: f32 = 12_582_912.0;
    let x = clamp_nan(x, -104.0, 89.0);
    let t = x * std::f32::consts::LOG2_E + SHIFTER;
    let n = t - SHIFTER;
    let r = x - n * 0.693_359_4 - n * -2.121_944_4e-4;
    let p = ((((1.987_569_1e-4 * r + 1.398_199_9e-3) * r + 8.333_452e-3) * r + 4.166_579_6e-2) * r
        + 0.166_666_65)
        * r
        + 0.5;
    let e = p * (r * r) + r + 1.0;
    let k = (t.to_bits() as i32).wrapping_sub(SHIFTER.to_bits() as i32);
    let half = k >> 1;
    e * pow2i(half) * pow2i(k - half)
}

/// `tanh(x)`, Cephes `tanhf` on `|x|` with the sign copied back (so
/// `tanh(-x) == -tanh(x)` and `tanh(±0) = ±0` bitwise): an odd polynomial
/// below `|x| = 0.625`, `1 − 2/(e^{2|x|}+1)` above it, which rounds to
/// exactly `1` from `|x| ≈ 9` on (and stays `1` through `e^{2|x|} = +∞`).
///
/// The branch is an all-ones/all-zeros bit mask and the sign goes back by
/// OR-ing in `x`'s sign bit (both halves are `+0` or positive for a
/// non-NaN `x`), so the lane form vectorizes.
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    const SIGN: u32 = 0x8000_0000;
    let a = x.abs();
    let z = a * a;
    let p = (((-5.704_988_7e-3 * z + 2.063_909e-2) * z - 5.373_971_6e-2) * z + 0.133_314_42) * z
        - 0.333_332_8;
    let small = p * z * a + a;
    let big = 1.0 - 2.0 / (exp(2.0 * a) + 1.0);
    let m = ((a < 0.625) as u32).wrapping_neg();
    let t = (small.to_bits() & m) | (big.to_bits() & !m);
    f32::from_bits(t | (x.to_bits() & SIGN))
}

/// Logistic sigmoid `1 / (1 + e^{-x})`: exactly `1` for large `x`, `0`
/// once `e^{-x}` overflows.
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

/// MXCSR flush-to-zero (bit 15) and denormals-are-zero (bit 6).
#[cfg(target_arch = "x86_64")]
const FTZ_DAZ: u32 = 0x8040;

/// Flushes subnormal floats to zero on the current thread while it lives:
/// subnormal results become `±0` (FTZ) and subnormal operands read as `±0`
/// (DAZ); dropping it restores the thread's previous mode. Threads spawned
/// meanwhile start with the mode of the thread that spawned them, so a
/// parallel kernel inside the guard flushes too and the result stays the
/// same on every thread count.
///
/// The CPU handles subnormals in microcode, tens of times slower than
/// normal floats, and a long training run drifts into them (Adam's first
/// moment of a weight whose gradient has gone to zero decays by β₁ per
/// step): without the guard the CTDG step slows by up to 2× in phases
/// whose place depends on the seed. A no-op off x86-64.
///
/// Rust compiles float code for the default mode, so the flush applies to
/// what runs on the CPU, not to expressions the compiler folds at build
/// time; results differ from unflushed ones only where a value would be
/// subnormal, and no memory access depends on a float value.
pub struct FlushSubnormals {
    #[cfg(target_arch = "x86_64")]
    saved: u32,
    // The mode is per thread: the guard must drop on the thread that made it.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl FlushSubnormals {
    /// Switches the current thread to flush-to-zero + denormals-are-zero.
    pub fn enter() -> FlushSubnormals {
        #[cfg(target_arch = "x86_64")]
        {
            let saved = mxcsr();
            set_mxcsr(saved | FTZ_DAZ);
            FlushSubnormals {
                saved,
                _not_send: std::marker::PhantomData,
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            FlushSubnormals {
                _not_send: std::marker::PhantomData,
            }
        }
    }
}

impl Drop for FlushSubnormals {
    fn drop(&mut self) {
        #[cfg(target_arch = "x86_64")]
        set_mxcsr(self.saved);
    }
}

#[cfg(target_arch = "x86_64")]
fn mxcsr() -> u32 {
    let mut csr = 0u32;
    // SAFETY: `stmxcsr` stores the SSE control/status register into `csr`
    // and touches nothing else.
    unsafe {
        std::arch::asm!("stmxcsr [{}]", in(reg) &mut csr, options(nostack, preserves_flags));
    }
    csr
}

#[cfg(target_arch = "x86_64")]
fn set_mxcsr(csr: u32) {
    // SAFETY: `csr` is a value read by `mxcsr`, at most with the FTZ and
    // DAZ control bits set, which every x86-64 CPU supports; `ldmxcsr`
    // changes only the SSE floating-point mode.
    unsafe {
        std::arch::asm!(
            "ldmxcsr [{}]",
            in(reg) &csr,
            options(nostack, preserves_flags, readonly)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_roundtrip() {
        let src = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let v = F32x8::load(&src);
        let mut dst = [0.0f32; 9];
        v.store(&mut dst);
        assert_eq!(&dst[..8], &src[..8]);
        assert_eq!(dst[8], 0.0);
    }

    #[test]
    fn flush_subnormals_is_scoped_and_inherited() {
        use std::hint::black_box;
        let tiny = black_box(f32::MIN_POSITIVE);
        let sub = black_box(f32::MIN_POSITIVE / 4.0);
        assert!(black_box(tiny * 0.25).is_subnormal());
        {
            let _g = FlushSubnormals::enter();
            let flushed = black_box(tiny) * black_box(0.25);
            let read_as_zero = black_box(sub) + black_box(0.0);
            let spawned = std::thread::spawn(move || black_box(tiny) * black_box(0.25))
                .join()
                .unwrap();
            #[cfg(target_arch = "x86_64")]
            {
                assert_eq!(flushed.to_bits(), 0);
                assert_eq!(read_as_zero.to_bits(), 0);
                assert_eq!(spawned.to_bits(), 0);
            }
            let _ = (flushed, read_as_zero, spawned);
        }
        assert!(black_box(tiny * 0.25).is_subnormal());
    }

    /// The branchy form [`tanh`] replaced: a `<` branch and `copysign`.
    fn tanh_ref(x: f32) -> f32 {
        let a = x.abs();
        let z = a * a;
        let p = (((-5.704_988_7e-3 * z + 2.063_909e-2) * z - 5.373_971_6e-2) * z + 0.133_314_42)
            * z
            - 0.333_332_8;
        let small = p * z * a + a;
        let big = 1.0 - 2.0 / (exp(2.0 * a) + 1.0);
        let t = if a < 0.625 { small } else { big };
        t.copysign(x)
    }

    /// Bitwise the reference on every non-NaN bit pattern of a strided
    /// sweep and on ±0, ±∞, subnormals and the branch edge, scalar and in
    /// lanes; a NaN in gives a NaN out.
    #[test]
    fn branch_free_tanh_is_bitwise_the_branchy_reference() {
        let specials = [
            0.0f32,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff),
            0.625,
            -0.625,
            f32::from_bits(0.625f32.to_bits() - 1),
            9.0,
            f32::MAX,
            f32::MIN,
        ];
        let strided = (0..=u32::MAX).step_by(10_007).map(f32::from_bits);
        let mut checked = 0;
        for x in specials.into_iter().chain(strided) {
            if x.is_nan() {
                assert!(tanh(x).is_nan(), "NaN in must give NaN out");
                continue;
            }
            assert_eq!(tanh(x).to_bits(), tanh_ref(x).to_bits(), "x = {x:e}");
            let lanes = F32x8::splat(x).map(tanh);
            assert_eq!(lanes.0[LANES - 1].to_bits(), tanh_ref(x).to_bits());
            checked += 1;
        }
        assert!(checked > 400_000);
        for nan in [f32::NAN, -f32::NAN, f32::from_bits(0x7f80_0001)] {
            assert!(tanh(nan).is_nan() && F32x8::splat(nan).map(tanh).0[0].is_nan());
        }
    }

    #[test]
    fn splat_fills_lanes() {
        assert_eq!(F32x8::splat(2.5).0, [2.5; LANES]);
    }
}
