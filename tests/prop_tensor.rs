//! Property-based tests on the tensor substrate: algebraic identities the
//! kernels must satisfy regardless of shape, the adjoint relationships
//! the autodiff formulas rely on, and the lane contract of the elementwise
//! kernels (bitwise their per-element scalar expression).

use proptest::prelude::*;
use rand::SeedableRng;
use stgraph_tensor::{par_min, simd, Tensor};

fn arb_matrix(max_n: usize, max_m: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_n, 1..=max_m).prop_flat_map(|(n, m)| {
        prop::collection::vec(-10.0f32..10.0, n * m)
            .prop_map(move |data| Tensor::from_vec((n, m), data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_an_involution(a in arb_matrix(8, 8)) {
        prop_assert!(a.transpose().transpose().approx_eq(&a, 0.0));
    }

    #[test]
    fn matmul_transpose_identity(
        (n, k, m) in (1usize..6, 1usize..6, 1usize..6),
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let a = Tensor::rand_uniform((n, k), -5.0, 5.0, &mut rng);
        let b = Tensor::rand_uniform((k, m), -5.0, 5.0, &mut rng);
        // (AB)^T == B^T A^T.
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        prop_assert!(left.approx_eq(&right, 1e-3), "diff {}", left.max_abs_diff(&right));
    }

    #[test]
    fn matmul_distributes_over_add(
        (n, k, m) in (1usize..6, 1usize..6, 1usize..6),
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let a = Tensor::rand_uniform((n, k), -5.0, 5.0, &mut rng);
        let c = Tensor::rand_uniform((n, k), -5.0, 5.0, &mut rng);
        let w = Tensor::rand_uniform((k, m), -2.0, 2.0, &mut rng);
        let left = a.add(&c).matmul(&w);
        let right = a.matmul(&w).add(&c.matmul(&w));
        prop_assert!(left.approx_eq(&right, 1e-3));
    }

    #[test]
    fn gather_scatter_adjointness(
        x_data in prop::collection::vec(-5.0f32..5.0, 18),
        idx in prop::collection::vec(0u32..6, 1..20),
        seed in any::<u64>(),
    ) {
        // <scatter(y), x> == <y, gather(x)> — the adjoint pair used by the
        // autodiff rules for edge-parallel ops.
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let x = Tensor::from_vec((6, 3), x_data);
        let y = Tensor::rand_uniform((idx.len(), 3), -5.0, 5.0, &mut rng);
        let lhs = y.scatter_add_rows(&idx, 6).mul(&x).sum().item();
        let rhs = y.mul(&x.gather_rows(&idx)).sum().item();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    #[test]
    fn sum_axis_decompositions_agree(a in arb_matrix(7, 5)) {
        let total = a.sum().item();
        let by_rows: f32 = a.sum_axis1().data().iter().sum();
        let by_cols: f32 = a.sum_axis0().data().iter().sum();
        prop_assert!((total - by_rows).abs() < 1e-2 * (1.0 + total.abs()));
        prop_assert!((total - by_cols).abs() < 1e-2 * (1.0 + total.abs()));
    }

    #[test]
    fn concat_then_slice_roundtrips(a in arb_matrix(4, 3), wb in 1usize..4, seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let b = Tensor::rand_uniform((a.rows(), wb), -5.0, 5.0, &mut rng);
        let cat = Tensor::concat_cols(&[&a, &b]);
        prop_assert!(cat.slice_cols(0, a.cols()).approx_eq(&a, 0.0));
        prop_assert!(cat.slice_cols(a.cols(), a.cols() + b.cols()).approx_eq(&b, 0.0));
    }

    #[test]
    fn scale_rows_equals_diag_matmul(a in arb_matrix(5, 4), s in prop::collection::vec(-3.0f32..3.0, 5)) {
        prop_assume!(s.len() >= a.rows());
        let sv = Tensor::from_vec(a.rows(), s[..a.rows()].to_vec());
        let scaled = a.scale_rows(&sv);
        // Oracle: D a with D = diag(s).
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                let want = sv.data()[i] * a.at(i, j);
                prop_assert!((scaled.at(i, j) - want).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn sigmoid_tanh_relationship(a in arb_matrix(4, 4)) {
        // tanh(x) == 2*sigmoid(2x) - 1.
        let lhs = a.tanh();
        let rhs = a.mul_scalar(2.0).sigmoid().mul_scalar(2.0).add_scalar(-1.0);
        prop_assert!(lhs.approx_eq(&rhs, 1e-4), "diff {}", lhs.max_abs_diff(&rhs));
    }

    #[test]
    fn broadcast_col_matches_manual(a in arb_matrix(6, 1), w in 1usize..6) {
        let b = a.broadcast_col(w);
        for i in 0..a.rows() {
            for j in 0..w {
                prop_assert_eq!(b.at(i, j), a.at(i, 0));
            }
        }
    }

    /// Every elementwise kernel is bitwise its per-element scalar
    /// expression, at widths 1..=40 (full 8-lane chunks plus every
    /// remainder) and at sizes above `par_min()`, where the work is split
    /// into parallel chunks.
    #[test]
    fn elementwise_kernels_are_bitwise_scalar(
        m in 1usize..=40,
        big in any::<bool>(),
        small_rows in 1usize..=6,
        seed in any::<u64>(),
    ) {
        let n = if big { (par_min().max(1 << 13) / m) + small_rows } else { small_rows };
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let a = Tensor::rand_uniform((n, m), -20.0, 20.0, &mut rng);
        let b = Tensor::rand_uniform((n, m), -20.0, 20.0, &mut rng);
        let bias = Tensor::rand_uniform(m, -5.0, 5.0, &mut rng);
        let s = Tensor::rand_uniform(n, -5.0, 5.0, &mut rng);
        let c = 0.37f32;
        let check = |what: &str, got: &Tensor, want: &dyn Fn(usize, usize) -> f32| {
            let got = got.data();
            for i in 0..n {
                for j in 0..m {
                    let (g, w) = (got[i * m + j], want(i, j));
                    prop_assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i},{j}] of [{n},{m}]: {g} vs {w}");
                }
            }
        };
        let (ad, bd) = (a.data(), b.data());
        let x = |i: usize, j: usize| ad[i * m + j];
        let y = |i: usize, j: usize| bd[i * m + j];
        check("add", &a.add(&b), &|i, j| x(i, j) + y(i, j));
        check("sub", &a.sub(&b), &|i, j| x(i, j) - y(i, j));
        check("mul", &a.mul(&b), &|i, j| x(i, j) * y(i, j));
        check("div", &a.div(&b), &|i, j| x(i, j) / y(i, j));
        check("add_scalar", &a.add_scalar(c), &|i, j| x(i, j) + c);
        check("mul_scalar", &a.mul_scalar(c), &|i, j| x(i, j) * c);
        check("exp", &a.exp(), &|i, j| simd::exp(x(i, j)));
        check("sigmoid", &a.sigmoid(), &|i, j| simd::sigmoid(x(i, j)));
        check("tanh", &a.tanh(), &|i, j| simd::tanh(x(i, j)));
        check("relu", &a.relu(), &|i, j| x(i, j).max(0.0));
        check("neg", &a.neg(), &|i, j| -x(i, j));
        check("square", &a.square(), &|i, j| x(i, j) * x(i, j));
        let pos = a.square().add_scalar(1e-3);
        let p = |i: usize, j: usize| x(i, j) * x(i, j) + 1e-3;
        check("ln", &pos.ln(), &|i, j| p(i, j).ln());
        check("sqrt", &pos.sqrt(), &|i, j| p(i, j).sqrt());
        check("leaky_relu", &a.leaky_relu(c), &|i, j| {
            let v = x(i, j);
            if v >= 0.0 { v } else { c * v }
        });
        check("clamp", &a.clamp(-5.0, 7.5), &|i, j| x(i, j).clamp(-5.0, 7.5));
        check("add_bias", &a.add_bias(&bias), &|i, j| x(i, j) + bias.data()[j]);
        check("scale_rows", &a.scale_rows(&s), &|i, j| x(i, j) * s.data()[i]);
        // The fused backward and gate kernels: the composition's expression.
        let zt = a.sigmoid();
        let zd = zt.data();
        let z = |i: usize, j: usize| zd[i * m + j];
        check("sigmoid_backward", &b.sigmoid_backward(&zt), &|i, j| y(i, j) * (z(i, j) * (-z(i, j) + 1.0)));
        check("tanh_backward", &b.tanh_backward(&a), &|i, j| y(i, j) * (-(x(i, j) * x(i, j)) + 1.0));
        check("relu_backward", &b.relu_backward(&a), &|i, j| y(i, j) * if x(i, j) > 0.0 { 1.0 } else { 0.0 });
        check("leaky_relu_backward", &b.leaky_relu_backward(&a, c), &|i, j| {
            y(i, j) * if x(i, j) >= 0.0 { 1.0 } else { c }
        });
        check("mix", &Tensor::mix(&zt, &a, &b), &|i, j| z(i, j) * x(i, j) + (-z(i, j) + 1.0) * y(i, j));
        check("mix_backward_z", &zt.mix_backward_z(&a, &b), &|i, j| -(z(i, j) * y(i, j)) + z(i, j) * x(i, j));
        check("mix_backward_b", &b.mix_backward_b(&zt), &|i, j| y(i, j) * (-z(i, j) + 1.0));
        let cols = a.sum_axis0();
        for j in 0..m {
            let chain = (0..n).fold(0.0f32, |acc, i| acc + x(i, j));
            prop_assert_eq!(cols.data()[j].to_bits(), chain.to_bits(), "sum_axis0[{}]", j);
        }
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// The parts GEMM is bitwise `concat_cols` + `matmul`, and the
/// transposed-A GEMM bitwise `transpose` + `matmul`: every element is the
/// same ascending chain over the concatenated row (or over the n rows),
/// at every width around the 16- and 8-column tiles, with parts of width
/// 0 and 1, at row counts around the 4-row block, n = 0, and n large
/// enough to split into parallel blocks.
#[test]
fn parts_and_transposed_gemms_are_bitwise_their_copying_forms() {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(37);
    let splits: [&[usize]; 7] = [
        &[1],
        &[1, 1],
        &[3, 1],
        &[16, 16],
        &[8, 1, 9],
        &[2, 0, 5],
        &[9],
    ];
    for n in [0usize, 1, 2, 3, 5, 70] {
        for m in [1usize, 7, 8, 9, 15, 16, 17, 33] {
            for widths in splits {
                let parts: Vec<Tensor> = widths
                    .iter()
                    .map(|&w| Tensor::rand_uniform((n, w), -1.0, 1.0, &mut rng))
                    .collect();
                let refs: Vec<&Tensor> = parts.iter().collect();
                let k: usize = widths.iter().sum();
                let w = Tensor::rand_uniform((k, m), -1.0, 1.0, &mut rng);
                let g = Tensor::rand_uniform((n, m), -1.0, 1.0, &mut rng);
                let cat = Tensor::concat_cols(&refs);
                let at = format!("n={n} m={m} widths={widths:?}");
                assert_eq!(
                    bits(&Tensor::matmul_parts(&refs, &w)),
                    bits(&cat.matmul(&w)),
                    "parts {at}"
                );
                let want = cat.transpose().matmul(&g);
                assert_eq!(bits(&cat.t_matmul(&g)), bits(&want), "transposed {at}");
                assert_eq!(
                    bits(&Tensor::t_matmul_parts(&refs, &g)),
                    bits(&want),
                    "transposed parts {at}"
                );
                if n == 0 {
                    assert!(
                        want.data().iter().all(|&v| v.to_bits() == 0),
                        "empty chains are +0"
                    );
                }
            }
        }
    }
}
