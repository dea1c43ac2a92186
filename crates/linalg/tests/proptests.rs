//! Property-based tests for the linear-algebra kernel.

use proptest::prelude::*;
use tesla_linalg::{cholesky::Cholesky, fit_ridge, matrix::Matrix, stats, vector};

/// Strategy: a random matrix with entries in [-5, 5].
fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-5.0f64..5.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cholesky_roundtrip_on_random_spd(m in matrix_strategy(5, 5)) {
        // A = M Mᵀ + n·I is SPD for any M.
        let mt = m.transpose();
        let mut a = m.matmul(&mt).unwrap();
        a.add_diagonal(5.0);
        let c = Cholesky::decompose(&a).unwrap();
        let l = c.factor();
        let r = l.matmul(&l.transpose()).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                prop_assert!((r[(i, j)] - a[(i, j)]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn cholesky_solve_is_inverse_of_matvec(
        m in matrix_strategy(4, 4),
        x in proptest::collection::vec(-3.0f64..3.0, 4),
    ) {
        let mt = m.transpose();
        let mut a = m.matmul(&mt).unwrap();
        a.add_diagonal(4.0);
        let b = a.matvec(&x).unwrap();
        let c = Cholesky::decompose(&a).unwrap();
        let xr = c.solve(&b).unwrap();
        for (got, want) in xr.iter().zip(&x) {
            prop_assert!((got - want).abs() < 1e-6);
        }
    }

    #[test]
    fn transpose_preserves_frobenius_norm(m in matrix_strategy(3, 6)) {
        let t = m.transpose();
        let n1: f64 = m.as_slice().iter().map(|v| v * v).sum();
        let n2: f64 = t.as_slice().iter().map(|v| v * v).sum();
        prop_assert!((n1 - n2).abs() < 1e-9);
    }

    #[test]
    fn matmul_associates_with_vector(
        a in matrix_strategy(3, 4),
        b in matrix_strategy(4, 2),
        v in proptest::collection::vec(-2.0f64..2.0, 2),
    ) {
        // (A B) v == A (B v)
        let ab = a.matmul(&b).unwrap();
        let lhs = ab.matvec(&v).unwrap();
        let bv = b.matvec(&v).unwrap();
        let rhs = a.matvec(&bv).unwrap();
        for (l, r) in lhs.iter().zip(&rhs) {
            prop_assert!((l - r).abs() < 1e-8);
        }
    }

    #[test]
    fn ridge_training_residual_never_worse_with_less_regularization(
        xs in proptest::collection::vec(-4.0f64..4.0, 24),
        ys in proptest::collection::vec(-4.0f64..4.0, 12),
    ) {
        let x = Matrix::from_vec(12, 2, xs).unwrap();
        let m0 = fit_ridge(&x, &ys, 1e-8).unwrap();
        let m1 = fit_ridge(&x, &ys, 10.0).unwrap();
        let sse = |m: &tesla_linalg::Ridge| -> f64 {
            (0..12).map(|i| {
                let e = m.predict(x.row(i)) - ys[i];
                e * e
            }).sum()
        };
        // Allow tiny numerical slack.
        prop_assert!(sse(&m0) <= sse(&m1) + 1e-6);
    }

    #[test]
    fn dot_is_commutative_and_bilinear(
        a in proptest::collection::vec(-10.0f64..10.0, 9),
        b in proptest::collection::vec(-10.0f64..10.0, 9),
        s in -3.0f64..3.0,
    ) {
        prop_assert!((vector::dot(&a, &b) - vector::dot(&b, &a)).abs() < 1e-9);
        let scaled: Vec<f64> = a.iter().map(|x| x * s).collect();
        prop_assert!((vector::dot(&scaled, &b) - s * vector::dot(&a, &b)).abs() < 1e-7);
    }

    #[test]
    fn mape_is_scale_invariant(
        t in proptest::collection::vec(1.0f64..100.0, 10),
        e in proptest::collection::vec(-0.5f64..0.5, 10),
        s in 0.1f64..10.0,
    ) {
        let p: Vec<f64> = t.iter().zip(&e).map(|(ti, ei)| ti * (1.0 + ei)).collect();
        let st: Vec<f64> = t.iter().map(|v| v * s).collect();
        let sp: Vec<f64> = p.iter().map(|v| v * s).collect();
        prop_assert!((stats::mape(&t, &p) - stats::mape(&st, &sp)).abs() < 1e-6);
    }

    #[test]
    fn quantile_is_monotone_in_q(xs in proptest::collection::vec(-50.0f64..50.0, 1..40)) {
        let q1 = stats::quantile(&xs, 0.25);
        let q2 = stats::quantile(&xs, 0.5);
        let q3 = stats::quantile(&xs, 0.75);
        prop_assert!(q1 <= q2 + 1e-12);
        prop_assert!(q2 <= q3 + 1e-12);
    }

    /// Rank-1 `append_row` reproduces a from-scratch `decompose_jittered`
    /// on random SPD matrices: factor the leading (n-1)-minor, append the
    /// last row/column, and compare every factor entry to 1e-9.
    #[test]
    fn append_row_matches_decompose_jittered_on_random_spd(m in matrix_strategy(6, 6)) {
        let mt = m.transpose();
        let mut a = m.matmul(&mt).unwrap();
        a.add_diagonal(6.0);
        let n = 6;
        let mut lead = Matrix::zeros(n - 1, n - 1);
        for i in 0..n - 1 {
            for j in 0..n - 1 {
                lead[(i, j)] = a[(i, j)];
            }
        }
        let mut grown = Cholesky::decompose_jittered(&lead, 1e-8, 12).unwrap();
        let col: Vec<f64> = (0..n - 1).map(|j| a[(n - 1, j)]).collect();
        grown.append_row(&col, a[(n - 1, n - 1)]).unwrap();
        let full = Cholesky::decompose_jittered(&a, 1e-8, 12).unwrap();
        prop_assert_eq!(grown.jitter(), full.jitter());
        for i in 0..n {
            for j in 0..n {
                prop_assert!(
                    (grown.factor()[(i, j)] - full.factor()[(i, j)]).abs() < 1e-9,
                    "entry ({}, {}): {} vs {}",
                    i, j, grown.factor()[(i, j)], full.factor()[(i, j)]
                );
            }
        }
    }

    /// The multi-RHS forward substitution agrees bit for bit with
    /// per-vector solves on random SPD factors and right-hand sides.
    #[test]
    fn forward_substitute_cols_matches_per_vector_on_random_spd(
        m in matrix_strategy(5, 5),
        rhs in proptest::collection::vec(-4.0f64..4.0, 15),
    ) {
        let mt = m.transpose();
        let mut a = m.matmul(&mt).unwrap();
        a.add_diagonal(5.0);
        let c = Cholesky::decompose(&a).unwrap();
        // Five rows (one per coordinate), three right-hand sides.
        let mut cols = rhs.clone();
        c.forward_substitute_cols(&mut cols, 3).unwrap();
        for q in 0..3 {
            let b: Vec<f64> = (0..5).map(|i| rhs[i * 3 + q]).collect();
            let single = c.forward_substitute(&b);
            for (i, v) in single.iter().enumerate() {
                prop_assert_eq!(v.to_bits(), cols[i * 3 + q].to_bits());
            }
        }
    }
}
