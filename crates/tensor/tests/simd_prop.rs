//! Property-based testing of the SIMD microkernel layer: random shapes
//! and values, then assert
//!
//! 1. every [`F32x8`] lane op is *bitwise* identical to the scalar IEEE
//!    op it claims to be (the contract that lets elementwise kernels skip
//!    epsilon tolerances entirely);
//! 2. the SIMD GEMM row microkernel matches its scalar twin within a
//!    reduction-reassociation epsilon, and both match an f64 reference.

use proptest::prelude::*;
use stgraph_tensor::simd::{F32x8, LANES};
use stgraph_tensor::tensor::{gemm_row_scalar, gemm_row_simd};

fn lane_inputs() -> impl Strategy<Value = (Vec<f32>, Vec<f32>, Vec<f32>)> {
    let v = || prop::collection::vec(-1e3f32..1e3, LANES);
    (v(), v(), v())
}

/// A ternary scalar reference op: `(x, y, z) -> result`.
type ScalarOp = fn(f32, f32, f32) -> f32;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Each lane of every F32x8 op computes exactly the scalar op — no
    /// hardware FMA contraction, no reassociation, bit-for-bit.
    #[test]
    fn lane_ops_are_bitwise_scalar((a, b, c) in lane_inputs()) {
        let (va, vb, vc) = (F32x8::load(&a), F32x8::load(&b), F32x8::load(&c));
        let cases: [(&str, F32x8, ScalarOp); 7] = [
            ("add", va.add(vb), |x, y, _| x + y),
            ("sub", va.sub(vb), |x, y, _| x - y),
            ("mul", va.mul(vb), |x, y, _| x * y),
            ("div", va.div(vb), |x, y, _| x / y),
            ("max", va.max(vb), |x, y, _| x.max(y)),
            ("min", va.min(vb), |x, y, _| x.min(y)),
            ("mul_add", va.mul_add(vb, vc), |x, y, z| x * y + z),
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

    /// SIMD and scalar GEMM rows agree within the multi-accumulator
    /// reassociation epsilon, and both track an f64 reference dot.
    #[test]
    fn gemm_row_simd_matches_scalar(
        k in 1usize..48,
        m in 1usize..24,
        seed in prop::collection::vec(-2f32..2.0, 48 + 48 * 24),
    ) {
        let arow: Vec<f32> = seed[..k].to_vec();
        let b: Vec<f32> = seed[48..48 + k * m].to_vec();
        let mut fast = vec![f32::NAN; m];
        let mut slow = vec![f32::NAN; m];
        gemm_row_simd(&mut fast, &arow, &b, m);
        gemm_row_scalar(&mut slow, &arow, &b, m);
        for j in 0..m {
            let exact: f64 = (0..k).map(|l| arow[l] as f64 * b[l * m + j] as f64).sum();
            let tol = 1e-4 * (1.0 + exact.abs());
            prop_assert!(
                ((fast[j] as f64) - exact).abs() <= tol,
                "simd col {}: {} vs f64 {}", j, fast[j], exact
            );
            prop_assert!(
                ((slow[j] as f64) - exact).abs() <= tol,
                "scalar col {}: {} vs f64 {}", j, slow[j], exact
            );
            prop_assert!(
                (fast[j] - slow[j]).abs() as f64 <= tol,
                "simd vs scalar col {}: {} vs {}", j, fast[j], slow[j]
            );
        }
    }
}
