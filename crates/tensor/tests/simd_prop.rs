//! Property-based testing of the SIMD microkernel layer: random shapes
//! and values, then assert
//!
//! 1. every [`F32x8`] lane op — arithmetic and the `exp` / `tanh` /
//!    `sigmoid` family — is *bitwise* identical to the scalar function it
//!    claims to be (the contract that lets elementwise kernels skip
//!    epsilon tolerances entirely);
//! 2. the transcendental family tracks f64 to 1e-6 relative error and
//!    keeps its special values (signed zeros, odd symmetry, saturation,
//!    infinities, NaN in → NaN out);
//! 3. `matmul` is one ascending-k multiply-add chain per element —
//!    bitwise, whatever the shape, row block or row split — and matches
//!    the unfused scalar reference GEMM within an epsilon.
//!
//! The thread count is latched per process, so CI reruns this file under
//! `RAYON_NUM_THREADS=2,4` and `STGRAPH_PAR_MIN=1`: the chain reference
//! does not depend on either, so passing everywhere is cross-thread
//! bitwise equality.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stgraph_tensor::simd::{self, F32x8, LANES};
use stgraph_tensor::tensor::{gemm, gemm_scalar};
use stgraph_tensor::Tensor;

fn lane_inputs() -> impl Strategy<Value = (Vec<f32>, Vec<f32>, Vec<f32>)> {
    let v = || prop::collection::vec(-1e3f32..1e3, LANES);
    (v(), v(), v())
}

/// A ternary scalar reference op: `(x, y, z) -> result`.
type ScalarOp = fn(f32, f32, f32) -> f32;

/// `[n, k] x [k, m]` shapes covering every edge of the microkernel: row
/// counts off the 4-row block, widths off the 16- and 8-column tiles, wide
/// outputs, `k = 1`, deep `k`, and the `[32, n] x [n, 16]` weight-gradient
/// shape of a backward pass.
fn gemm_shapes() -> impl Strategy<Value = (usize, usize, usize)> {
    prop_oneof![
        (1usize..12, 1usize..40, 1usize..40),
        (1usize..8, 1usize..20, 129usize..200),
        (1usize..12, Just(1usize), 1usize..40),
        (1usize..8, 257usize..400, 1usize..24),
        (Just(32usize), 100usize..600, Just(16usize)),
    ]
}

/// The chain every element of `matmul` must equal: `acc = acc + a·b`
/// over ascending k from `acc = 0`, fused iff the GEMM is.
fn chain(a: &Tensor, b: &Tensor, i: usize, j: usize) -> f32 {
    let fused = simd::avx2_fma();
    (0..a.cols()).fold(0.0f32, |acc, l| {
        let (x, y) = (a.at(i, l), b.at(l, j));
        if fused {
            x.mul_add(y, acc)
        } else {
            acc + x * y
        }
    })
}

fn rel_err(got: f32, want: f64) -> f64 {
    if got as f64 == want {
        0.0
    } else {
        ((got as f64 - want) / want).abs()
    }
}

fn sigmoid_f64(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

type Family = [(
    &'static str,
    fn(f32) -> f32,
    fn(Tensor) -> Tensor,
    fn(f64) -> f64,
); 3];

/// Each function of the family with its tensor op and f64 reference.
fn family() -> Family {
    [
        ("exp", simd::exp, |t| t.exp(), f64::exp),
        ("tanh", simd::tanh, |t| t.tanh(), f64::tanh),
        ("sigmoid", simd::sigmoid, |t| t.sigmoid(), sigmoid_f64),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Each lane of every F32x8 op computes exactly the scalar op — no
    /// hardware FMA contraction, no reassociation, bit-for-bit.
    #[test]
    fn lane_ops_are_bitwise_scalar((a, b, c) in lane_inputs()) {
        let (va, vb, vc) = (F32x8::load(&a), F32x8::load(&b), F32x8::load(&c));
        let small = va.mul(F32x8::splat(0.03));
        let cases: [(&str, F32x8, ScalarOp); 13] = [
            ("add", va.add(vb), |x, y, _| x + y),
            ("sub", va.sub(vb), |x, y, _| x - y),
            ("mul", va.mul(vb), |x, y, _| x * y),
            ("div", va.div(vb), |x, y, _| x / y),
            ("max", va.max(vb), |x, y, _| x.max(y)),
            ("min", va.min(vb), |x, y, _| x.min(y)),
            ("mul_add", va.mul_add(vb, vc), |x, y, z| x * y + z),
            ("exp", va.exp(), |x, _, _| simd::exp(x)),
            ("tanh", va.tanh(), |x, _, _| simd::tanh(x)),
            ("sigmoid", va.sigmoid(), |x, _, _| simd::sigmoid(x)),
            // The same three away from saturation, where every branch runs.
            ("exp small", small.exp(), |x, _, _| simd::exp(x * 0.03)),
            ("tanh small", small.tanh(), |x, _, _| simd::tanh(x * 0.03)),
            ("sigmoid small", small.sigmoid(), |x, _, _| simd::sigmoid(x * 0.03)),
        ];
        for (name, got, scalar) in cases {
            let mut out = [0f32; LANES];
            got.store(&mut out);
            for l in 0..LANES {
                let want = scalar(a[l], b[l], c[l]);
                prop_assert_eq!(
                    out[l].to_bits(), want.to_bits(),
                    "{} lane {}: {} vs {}", name, l, out[l], want
                );
            }
        }
    }

    /// `matmul` is bitwise the per-element ascending-k chain, and so is
    /// any row split of it through the serial kernel (a parallel split
    /// cuts rows wherever the thread boundary falls). Its fused chains
    /// agree with the unfused scalar reference within a rounding epsilon,
    /// and both track an f64 dot.
    #[test]
    fn matmul_is_one_ascending_k_chain_per_element(
        (n, k, m) in gemm_shapes(),
        seed in any::<u64>(),
        split in 0usize..1000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = Tensor::rand_uniform((n, k), -2.0, 2.0, &mut rng);
        let b = Tensor::rand_uniform((k, m), -2.0, 2.0, &mut rng);
        let (ad, bd) = (a.data(), b.data());
        let c = a.matmul(&b);
        let mut slow = vec![f32::NAN; n * m];
        gemm_scalar(&mut slow, ad, bd, k, m);
        for i in 0..n {
            for j in 0..m {
                let got = c.at(i, j);
                let want = chain(&a, &b, i, j);
                prop_assert_eq!(
                    got.to_bits(), want.to_bits(),
                    "[{}x{}x{}] ({}, {}): {} vs chain {}", n, k, m, i, j, got, want
                );
                let exact: f64 = (0..k).map(|l| ad[i * k + l] as f64 * bd[l * m + j] as f64).sum();
                let tol = 1e-5 * (k as f64).sqrt() * (1.0 + exact.abs());
                let (f, s) = (got as f64, slow[i * m + j] as f64);
                prop_assert!((f - exact).abs() <= tol, "gemm ({}, {}): {} vs f64 {}", i, j, f, exact);
                prop_assert!((s - exact).abs() <= tol, "scalar ({}, {}): {} vs f64 {}", i, j, s, exact);
                prop_assert!((f - s).abs() <= tol, "gemm vs scalar ({}, {}): {} vs {}", i, j, f, s);
            }
        }
        let s = split % (n + 1);
        let mut parts = vec![f32::NAN; n * m];
        let (top, bottom) = parts.split_at_mut(s * m);
        gemm(top, &ad[..s * k], bd, k, m);
        gemm(bottom, &ad[s * k..], bd, k, m);
        prop_assert!(
            parts.iter().zip(c.data()).all(|(x, y)| x.to_bits() == y.to_bits()),
            "[{}x{}x{}] split at row {} changed bits", n, k, m, s
        );
    }
}

/// Relative error ≤ 1e-6 against f64 on a dense sweep of [-20, 20] and a
/// log sweep down to |x| = 1e-30, through the tensor ops (the dispatched,
/// AVX2-compiled lane loop), which must also be bitwise the scalar
/// functions; and `tanh` is odd bitwise.
#[test]
fn transcendentals_track_f64() {
    let mut xs: Vec<f32> = (-200_000..=200_000).map(|i| i as f32 * 1e-4).collect();
    for e in -300..=13 {
        for mant in [1.0f32, 1.7, 2.9, 4.3, 6.1, 8.8] {
            let x = mant * 10f32.powf(e as f32 / 10.0);
            xs.extend([x, -x]);
        }
    }
    xs.retain(|x| x.abs() <= 20.0);
    let t = Tensor::from_vec(xs.len(), xs.clone());
    for (name, scalar, op, reference) in family() {
        let lanes = op(t.clone());
        let mut worst = (0.0f64, 0.0f32);
        for (&x, &got) in xs.iter().zip(lanes.data()) {
            assert_eq!(
                got.to_bits(),
                scalar(x).to_bits(),
                "{name}({x}): lanes vs scalar"
            );
            let err = rel_err(got, reference(x as f64));
            if err > worst.0 {
                worst = (err, x);
            }
        }
        assert!(
            worst.0 <= 1e-6,
            "{name}: max rel err {:e} at x = {}",
            worst.0,
            worst.1
        );
    }
    for &x in &xs {
        assert_eq!(
            simd::tanh(-x).to_bits(),
            (-simd::tanh(x)).to_bits(),
            "tanh odd at {x}"
        );
    }
}

/// Signed zeros, saturation to exactly ±1 / 0 / 1, infinities and
/// NaN in → NaN out, on the scalar functions and the tensor ops alike.
#[test]
fn transcendental_special_values() {
    let inf = f32::INFINITY;
    type Unary = fn(f32) -> f32;
    let cases: [(Unary, f32, f32); 24] = [
        (simd::tanh, 0.0, 0.0),
        (simd::tanh, -0.0, -0.0),
        (simd::tanh, 9.5, 1.0),
        (simd::tanh, -9.5, -1.0),
        (simd::tanh, 20.0, 1.0),
        (simd::tanh, -1e10, -1.0),
        (simd::tanh, inf, 1.0),
        (simd::tanh, -inf, -1.0),
        (simd::sigmoid, 0.0, 0.5),
        (simd::sigmoid, 20.0, 1.0),
        (simd::sigmoid, 1e10, 1.0),
        (simd::sigmoid, inf, 1.0),
        (simd::sigmoid, -100.0, 0.0),
        (simd::sigmoid, -1e10, 0.0),
        (simd::sigmoid, -inf, 0.0),
        (simd::exp, 0.0, 1.0),
        (simd::exp, -0.0, 1.0),
        (simd::exp, 1e-30, 1.0),
        (simd::exp, 89.0, inf),
        (simd::exp, 1e10, inf),
        (simd::exp, inf, inf),
        (simd::exp, -104.0, 0.0),
        (simd::exp, -1e10, 0.0),
        (simd::exp, -inf, 0.0),
    ];
    for (f, x, want) in cases {
        assert_eq!(
            f(x).to_bits(),
            want.to_bits(),
            "f({x}) = {} not {want}",
            f(x)
        );
    }
    // Just inside the range: the largest finite results stay finite and
    // the smallest positive ones reach the subnormals.
    assert!(simd::exp(88.7).is_finite() && simd::exp(88.7) > 3.3e38);
    assert!(simd::exp(-103.0) > 0.0 && simd::exp(-103.0) < f32::MIN_POSITIVE);
    // NaN in → NaN out: a `min`/`max` clamp would saturate it to a finite
    // value and hide a diverged loss.
    let nans = Tensor::from_vec(11, vec![f32::NAN; 11]);
    for (name, scalar, op, _) in family() {
        assert!(scalar(f32::NAN).is_nan(), "{name}(NaN) scalar");
        assert!(
            op(nans.clone()).data().iter().all(|v| v.is_nan()),
            "{name}(NaN) tensor"
        );
    }
    let lane = F32x8::splat(f32::NAN);
    for got in [lane.exp(), lane.tanh(), lane.sigmoid()] {
        assert!(got.0.iter().all(|v| v.is_nan()), "NaN lane {got:?}");
    }
}
