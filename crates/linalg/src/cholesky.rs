//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! Used by the ridge normal equations (`XᵀX + αI`) and by the fixed-noise
//! Gaussian process (`K + diag(σ²)`). Both systems are SPD by
//! construction, but finite precision can push near-singular Gram/Gram-like
//! matrices slightly indefinite, so [`Cholesky::decompose_jittered`]
//! retries with exponentially growing diagonal jitter — the same trick
//! GPyTorch applies (the paper's GP backend).

// analysis:allow-file(panic-free-control-path): dense numeric kernel;
// every index is loop-bounded by lengths validated at the call
// boundary, and debug_asserts guard the shape contracts.
// analysis:allow-file(no-alloc-in-decide-steady-state): the factor is
// refilled in place by `refactor_jittered` and only grows when the
// matrix does; `append_row` grows it by one row per BO observation.
use crate::{matrix::Matrix, LinalgError, Result};

/// Lower-triangular Cholesky factor `L` with `L Lᵀ = A`.
#[derive(Debug, Clone, Default)]
pub struct Cholesky {
    l: Matrix,
    /// Jitter that was added to the diagonal to achieve positive
    /// definiteness (0.0 when the matrix factored cleanly).
    jitter: f64,
}

impl Cholesky {
    /// Factors an SPD matrix. Fails with [`LinalgError::NotPositiveDefinite`]
    /// if a non-positive pivot is encountered.
    pub fn decompose(a: &Matrix) -> Result<Self> {
        let mut c = Cholesky::default();
        c.refactor(a, 0.0)?;
        Ok(c)
    }

    /// Factors `a + jitter * I`, retrying with `jitter * 10` (starting from
    /// `initial`) until success or `max_tries` escalations.
    pub fn decompose_jittered(a: &Matrix, initial: f64, max_tries: usize) -> Result<Self> {
        let mut c = Cholesky::default();
        c.refactor_jittered(a, initial, max_tries)?;
        Ok(c)
    }

    /// [`Cholesky::decompose_jittered`] into this factor's storage, which
    /// is reused when it is large enough. After an error the factor's
    /// contents are unspecified.
    pub fn refactor_jittered(&mut self, a: &Matrix, initial: f64, max_tries: usize) -> Result<()> {
        match self.refactor(a, 0.0) {
            Err(LinalgError::NotPositiveDefinite) => {}
            done => return done,
        }
        let mut jitter = initial.max(1e-12);
        for _ in 0..max_tries {
            match self.refactor(a, jitter) {
                Err(LinalgError::NotPositiveDefinite) => jitter *= 10.0,
                done => return done,
            }
        }
        Err(LinalgError::NotPositiveDefinite)
    }

    /// Factors `a + jitter * I` column by column.
    ///
    /// Column `j` needs only the columns before it: first its pivot, then
    /// the entries below the pivot, four rows at a time so that four
    /// independent sums run side by side. Every entry still starts from
    /// `a[i][j]` (plus the jitter on the diagonal), subtracts
    /// `l[i][k]·l[j][k]` for `k = 0..j` in turn and divides by the pivot,
    /// so the factor is bit-identical to the textbook row-by-row order.
    /// Pivots are checked in index order, as the row-by-row order checks
    /// them.
    fn refactor(&mut self, a: &Matrix, jitter: f64) -> Result<()> {
        let (n, m) = a.shape();
        if n != m {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky",
                lhs: a.shape(),
                rhs: a.shape(),
            });
        }
        self.l.reset_zeros(n, n);
        self.factor_rows(0, jitter, |i, j| a[(i, j)])?;
        self.jitter = jitter;
        Ok(())
    }

    /// Recomputes rows `from..dim()` of an unjittered factor in place,
    /// from the same rows of the new matrix's lower triangle.
    ///
    /// `rows` is row-major with `dim() - from` rows of `dim()` entries;
    /// row `r` holds row `from + r` of `A`, and only its entries up to
    /// the diagonal are read. The leading `from x from` block of `A` must
    /// be the one the factor was built from. Every entry of a row is
    /// computed as [`Cholesky::decompose`] computes it, from the entries
    /// to its left and the rows above, with `k` ascending, so when this
    /// succeeds the factor is bit-identical to decomposing the whole new
    /// matrix. It allocates nothing.
    ///
    /// Refuses a jittered factor: its leading block factors `A + jitter·I`,
    /// so the unjittered matrix is not (numerically) positive definite.
    /// Fails with [`LinalgError::NotPositiveDefinite`] on a non-positive or
    /// non-finite pivot; the rows from `from` on are then unspecified
    /// (the leading rows are untouched), and the caller should fall back
    /// to [`Cholesky::decompose_jittered`] of the whole matrix.
    pub fn refactor_tail(&mut self, from: usize, rows: &[f64]) -> Result<()> {
        let n = self.dim();
        if from > n || rows.len() != (n - from) * n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky refactor_tail",
                lhs: (n, n),
                rhs: (rows.len(), from),
            });
        }
        if self.jitter != 0.0 {
            return Err(LinalgError::NotPositiveDefinite);
        }
        self.factor_rows(from, 0.0, |i, j| rows[(i - from) * n + j])
    }

    /// The column-by-column loop behind [`Cholesky::refactor`] and
    /// [`Cholesky::refactor_tail`]: fills rows `from..dim()` of the
    /// factor from the lower triangle `a(i, j)` of `A + jitter·I`, reading
    /// the rows above `from` as already factored.
    fn factor_rows(
        &mut self,
        from: usize,
        jitter: f64,
        a: impl Fn(usize, usize) -> f64,
    ) -> Result<()> {
        let n = self.dim();
        let data = self.l.as_mut_slice();
        for j in 0..n {
            let start = from.max(j + 1);
            let (head, below) = data.split_at_mut(start * n);
            let row_j = &mut head[j * n..(j + 1) * n];
            if j >= from {
                let mut pivot = a(j, j);
                pivot += jitter;
                for &ljk in &row_j[..j] {
                    pivot -= ljk * ljk;
                }
                if pivot <= 0.0 || !pivot.is_finite() {
                    return Err(LinalgError::NotPositiveDefinite);
                }
                row_j[j] = pivot.sqrt();
            }
            let d = row_j[j];
            let lj = &row_j[..j];

            let mut quads = below.chunks_exact_mut(4 * n);
            let mut i = start;
            for quad in &mut quads {
                let (r0, rest) = quad.split_at_mut(n);
                let (r1, rest) = rest.split_at_mut(n);
                let (r2, r3) = rest.split_at_mut(n);
                let mut s0 = a(i, j);
                let mut s1 = a(i + 1, j);
                let mut s2 = a(i + 2, j);
                let mut s3 = a(i + 3, j);
                for ((((&ljk, &x0), &x1), &x2), &x3) in lj
                    .iter()
                    .zip(&r0[..j])
                    .zip(&r1[..j])
                    .zip(&r2[..j])
                    .zip(&r3[..j])
                {
                    s0 -= x0 * ljk;
                    s1 -= x1 * ljk;
                    s2 -= x2 * ljk;
                    s3 -= x3 * ljk;
                }
                r0[j] = s0 / d;
                r1[j] = s1 / d;
                r2[j] = s2 / d;
                r3[j] = s3 / d;
                i += 4;
            }
            for row in quads.into_remainder().chunks_exact_mut(n) {
                let mut s = a(i, j);
                for (&ljk, &x) in lj.iter().zip(&row[..j]) {
                    s -= x * ljk;
                }
                row[j] = s / d;
                i += 1;
            }
        }
        Ok(())
    }

    /// The lower-triangular factor.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Jitter added to reach positive definiteness.
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A x = b` via forward/back substitution.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// [`Cholesky::solve`] writing the solution over `b`.
    pub fn solve_in_place(&self, b: &mut [f64]) -> Result<()> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        self.forward_substitute_in_place(b);
        // Back substitution: Lᵀ x = y.
        for i in (0..n).rev() {
            let mut sum = b[i];
            for (k, &yk) in b.iter().enumerate().skip(i + 1) {
                sum -= self.l[(k, i)] * yk;
            }
            b[i] = sum / self.l[(i, i)];
        }
        Ok(())
    }

    /// Solves `L y = b` (forward substitution only). Needed by the GP for
    /// whitening residuals.
    pub fn forward_substitute(&self, b: &[f64]) -> Vec<f64> {
        let mut y = b.to_vec();
        self.forward_substitute_in_place(&mut y);
        y
    }

    /// Forward substitution writing over `b` in place.
    fn forward_substitute_in_place(&self, b: &mut [f64]) {
        let n = self.dim();
        debug_assert_eq!(b.len(), n);
        for i in 0..n {
            let row = self.l.row(i);
            let mut sum = b[i];
            for (k, &bk) in b.iter().enumerate().take(i) {
                sum -= row[k] * bk;
            }
            b[i] = sum / row[i];
        }
    }

    /// Solves `L Y = B` in place for every column of `B` at once.
    ///
    /// `b` is row-major with `dim()` rows and `cols` columns, so row `i`
    /// holds coordinate `i` of every right-hand side. The inner loop runs
    /// across the columns, and each column keeps
    /// [`Cholesky::forward_substitute`]'s order of operations, so the
    /// result is bit-identical to solving the columns one at a time. The
    /// GP whitens a whole query grid with one call.
    pub fn forward_substitute_cols(&self, b: &mut [f64], cols: usize) -> Result<()> {
        let n = self.dim();
        if b.len() != n * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky forward_substitute_cols",
                lhs: (n, n),
                rhs: (b.len(), cols),
            });
        }
        if cols == 0 {
            return Ok(());
        }
        for i in 0..n {
            let row = self.l.row(i);
            let (done, rest) = b.split_at_mut(i * cols);
            let bi = &mut rest[..cols];
            subtract_rows(bi, done, 0, |k| row[k]);
            let d = row[i];
            for x in bi.iter_mut() {
                *x /= d;
            }
        }
        Ok(())
    }

    /// Solves `A X = B` in place for every column of `B` at once.
    ///
    /// `b` is row-major with `dim()` rows and `cols` columns, one
    /// right-hand side per column. The forward pass is
    /// [`Cholesky::forward_substitute_cols`]. Each column keeps
    /// [`Cholesky::solve`]'s order of operations, so the result is
    /// bit-identical to solving the columns one at a time. The ridge fits
    /// solve all of a horizon step's targets with one call.
    pub fn solve_cols(&self, b: &mut [f64], cols: usize) -> Result<()> {
        let n = self.dim();
        if b.len() != n * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky solve_cols",
                lhs: (n, n),
                rhs: (b.len(), cols),
            });
        }
        if cols == 0 {
            return Ok(());
        }
        self.forward_substitute_cols(b, cols)?;
        self.back_substitute_cols(b, cols);
        Ok(())
    }

    /// Solves `Lᵀ X = Y` in place for the `cols` columns of `Y`: row `i`
    /// starts from `y[i]`, subtracts `l[k][i]·x[k]` for `k = i+1..n` in
    /// turn and divides by the pivot, as [`Cholesky::solve`] does.
    ///
    /// That reads `L` down a column. Each run of eight columns is first
    /// copied into a strip with one cache line per row of `L`, so each
    /// line is loaded once for eight rows of `X` instead of once per row.
    fn back_substitute_cols(&self, b: &mut [f64], cols: usize) {
        const W: usize = 8;
        let n = self.dim();
        let mut strip = vec![0.0; n * W];
        let mut hi = n;
        while hi > 0 {
            let lo = hi.saturating_sub(W);
            for k in lo..n {
                strip[k * W..k * W + hi - lo].copy_from_slice(&self.l.row(k)[lo..hi]);
            }
            for i in (lo..hi).rev() {
                let (head, later) = b.split_at_mut((i + 1) * cols);
                let bi = &mut head[i * cols..];
                subtract_rows(bi, later, i + 1, |k| strip[k * W + i - lo]);
                let d = self.l[(i, i)];
                for x in bi.iter_mut() {
                    *x /= d;
                }
            }
            hi = lo;
        }
    }

    /// Computes `L Z` for a row-major `dim() x cols` matrix `Z` into
    /// `out` (same shape), exploiting the triangular structure.
    ///
    /// The GP sampler stores its normals dimension-major, one column per
    /// draw, so one call colours every draw: the inner loop runs across
    /// draws, and each output still sums `k = 0..=i` in order from zero,
    /// bit-identical to multiplying each draw on its own.
    pub fn lower_matmul(&self, z: &[f64], cols: usize, out: &mut Vec<f64>) -> Result<()> {
        let n = self.dim();
        if z.len() != n * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky lower_matmul",
                lhs: (n, n),
                rhs: (z.len(), cols),
            });
        }
        out.clear();
        out.resize(n * cols, 0.0);
        if cols == 0 {
            return Ok(());
        }
        for (i, acc) in out.chunks_exact_mut(cols).enumerate() {
            let row = self.l.row(i);
            for (&lik, zk) in row[..=i].iter().zip(z.chunks_exact(cols)) {
                for (a, &zv) in acc.iter_mut().zip(zk) {
                    *a += lik * zv;
                }
            }
        }
        Ok(())
    }

    /// Extends the factorization of an `n x n` SPD matrix `A` to the
    /// `(n+1) x (n+1)` matrix obtained by appending one symmetric
    /// row/column: `col` is the new off-diagonal column (length `n`) and
    /// `diag` the new diagonal entry.
    ///
    /// Only the new bottom row of `L` is computed — `O(n^2)` instead of
    /// the `O(n^3)` full refactorization — and because the leading
    /// `n x n` block of the factor of the extended matrix *is* the
    /// existing factor, the result is bit-identical to
    /// [`Cholesky::decompose`] of the extended matrix. The stored jitter
    /// is applied to `diag` so the update stays consistent with a factor
    /// produced by [`Cholesky::decompose_jittered`].
    ///
    /// Fails with [`LinalgError::NotPositiveDefinite`] when the appended
    /// row would make the matrix (numerically) indefinite; the caller
    /// should fall back to a full jittered refactorization.
    pub fn append_row(&mut self, col: &[f64], diag: f64) -> Result<()> {
        let n = self.dim();
        if col.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky append_row",
                lhs: (n, n),
                rhs: (col.len(), 1),
            });
        }
        let w = self.forward_substitute(col);
        let mut d = diag + self.jitter;
        for &wk in &w {
            d -= wk * wk;
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(LinalgError::NotPositiveDefinite);
        }
        let mut grown = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            grown.row_mut(i)[..n].copy_from_slice(self.l.row(i));
        }
        let last = grown.row_mut(n);
        last[..n].copy_from_slice(&w);
        last[n] = d.sqrt();
        self.l = grown;
        Ok(())
    }

    /// Solves `A X = B` for every column of `B`, with
    /// [`Cholesky::solve_cols`].
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky solve_matrix",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let mut out = b.clone();
        self.solve_cols(out.as_mut_slice(), b.cols())?;
        Ok(out)
    }

    /// `log det(A) = 2 * Σ log L_ii`, used by the GP marginal likelihood.
    pub fn log_det(&self) -> f64 {
        let n = self.dim();
        let mut s = 0.0;
        for i in 0..n {
            s += self.l[(i, i)].ln();
        }
        2.0 * s
    }
}

/// Subtracts `coef(k)·y_k` from `x` for each row `y_k` of `ys` (as wide
/// as `x`, `k` counting from `first`), one term at a time in `k` order
/// for every entry, so the result is bit-identical to subtracting the
/// rows one by one. Four rows go per pass over `x`, which is then loaded
/// and stored a quarter as often.
fn subtract_rows(x: &mut [f64], ys: &[f64], first: usize, coef: impl Fn(usize) -> f64) {
    let cols = x.len();
    let mut quads = ys.chunks_exact(4 * cols);
    let mut k = first;
    for quad in &mut quads {
        let (y0, rest) = quad.split_at(cols);
        let (y1, rest) = rest.split_at(cols);
        let (y2, y3) = rest.split_at(cols);
        let (c0, c1, c2, c3) = (coef(k), coef(k + 1), coef(k + 2), coef(k + 3));
        for ((((v, &a), &b), &c), &d) in x.iter_mut().zip(y0).zip(y1).zip(y2).zip(y3) {
            *v = (((*v - c0 * a) - c1 * b) - c2 * c) - c3 * d;
        }
        k += 4;
    }
    for y in quads.remainder().chunks_exact(cols) {
        let ck = coef(k);
        for (v, &a) in x.iter_mut().zip(y) {
            *v -= ck * a;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The textbook row-by-row factorization the column-by-column one
    /// replaced: each entry waits for the one before it in its row.
    fn decompose_row_by_row(a: &Matrix, jitter: f64) -> Result<Matrix> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                if i == j {
                    sum += jitter;
                }
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite);
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// `L z` for one vector, the per-draw product `lower_matmul` replaced.
    fn lower_matvec(c: &Cholesky, z: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; c.dim()];
        for (i, o) in out.iter_mut().enumerate() {
            let row = c.factor().row(i);
            let mut sum = 0.0;
            for (k, &zk) in z.iter().enumerate().take(i + 1) {
                sum += row[k] * zk;
            }
            *o = sum;
        }
        out
    }

    fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| rng.random_range(-2.0..2.0))
            .collect();
        Matrix::from_vec(rows, cols, data).unwrap()
    }

    /// `M Mᵀ + shift·I` for a random square `M`: SPD for `shift > 0`,
    /// usually indefinite for a large negative shift.
    fn random_gram(rng: &mut StdRng, n: usize, shift: f64) -> Matrix {
        let m = random_matrix(rng, n, n);
        let mut a = m.matmul(&m.transpose()).unwrap();
        a.add_diagonal(shift);
        a
    }

    fn same_bits(a: &Matrix, b: &Matrix) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    fn spd3() -> Matrix {
        // A = M Mᵀ + I for a fixed M: guaranteed SPD.
        Matrix::from_vec(3, 3, vec![5.0, 2.0, 1.0, 2.0, 6.0, 2.0, 1.0, 2.0, 4.0]).unwrap()
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd3();
        let c = Cholesky::decompose(&a).unwrap();
        let l = c.factor();
        let lt = l.transpose();
        let r = l.matmul(&lt).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((r[(i, j)] - a[(i, j)]).abs() < 1e-10);
            }
        }
        assert_eq!(c.jitter(), 0.0);
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd3();
        let x_true = vec![1.0, -2.0, 3.0];
        let b = a.matvec(&x_true).unwrap();
        let c = Cholesky::decompose(&a).unwrap();
        let x = c.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn solve_matrix_matches_columnwise_solve() {
        let a = spd3();
        let b = Matrix::from_vec(3, 2, vec![1., 0., 0., 1., 1., 1.]).unwrap();
        let c = Cholesky::decompose(&a).unwrap();
        let x = c.solve_matrix(&b).unwrap();
        for j in 0..2 {
            let col = c.solve(&b.col(j)).unwrap();
            for i in 0..3 {
                assert!((x[(i, j)] - col[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn log_det_matches_known_value() {
        // det of diag(2, 3, 4) = 24.
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = 2.0;
        a[(1, 1)] = 3.0;
        a[(2, 2)] = 4.0;
        let c = Cholesky::decompose(&a).unwrap();
        assert!((c.log_det() - 24.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        assert!(matches!(
            Cholesky::decompose(&a),
            Err(LinalgError::NotPositiveDefinite)
        ));
    }

    #[test]
    fn jitter_rescues_semidefinite_matrix() {
        // Rank-1 PSD matrix: [1 1; 1 1].
        let a = Matrix::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        let c = Cholesky::decompose_jittered(&a, 1e-10, 12).unwrap();
        assert!(c.jitter() > 0.0);
        // Solutions remain near a least-squares answer.
        let x = c.solve(&[2.0, 2.0]).unwrap();
        assert!((x[0] + x[1] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(Cholesky::decompose(&a).is_err());
    }

    #[test]
    fn append_row_matches_full_decompose() {
        // Factor the 2x2 leading block, append the third row/column of
        // spd3, and compare against factoring spd3 directly.
        let a = spd3();
        let mut lead = Matrix::zeros(2, 2);
        for i in 0..2 {
            for j in 0..2 {
                lead[(i, j)] = a[(i, j)];
            }
        }
        let mut c = Cholesky::decompose(&lead).unwrap();
        c.append_row(&[a[(2, 0)], a[(2, 1)]], a[(2, 2)]).unwrap();
        let full = Cholesky::decompose(&a).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(c.factor()[(i, j)], full.factor()[(i, j)]);
            }
        }
        assert_eq!(c.dim(), 3);
    }

    #[test]
    fn append_row_rejects_indefinite_extension() {
        let a = spd3();
        let mut c = Cholesky::decompose(&a).unwrap();
        // A huge off-diagonal column makes the Schur complement negative.
        assert!(matches!(
            c.append_row(&[100.0, 100.0, 100.0], 1.0),
            Err(LinalgError::NotPositiveDefinite)
        ));
        // The factor is untouched by a failed append.
        assert_eq!(c.dim(), 3);
    }

    #[test]
    fn append_row_wrong_length_errors() {
        let mut c = Cholesky::decompose(&spd3()).unwrap();
        assert!(c.append_row(&[1.0], 5.0).is_err());
    }

    #[test]
    fn column_order_is_bit_identical_to_row_order_on_random_spd() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in 1..=40 {
            let a = random_gram(&mut rng, n, 1e-3);
            let c = Cholesky::decompose(&a).unwrap();
            let reference = decompose_row_by_row(&a, 0.0).unwrap();
            assert!(same_bits(c.factor(), &reference), "n = {n}");
            // A jittered factor matches the reference at the same jitter.
            let j = Cholesky::decompose_jittered(&a, 1e-8, 12).unwrap();
            let reference = decompose_row_by_row(&a, j.jitter()).unwrap();
            assert!(same_bits(j.factor(), &reference), "jittered n = {n}");
        }
    }

    #[test]
    fn column_order_rejects_what_row_order_rejects() {
        let mut rng = StdRng::seed_from_u64(6);
        for n in 2..=40 {
            let a = random_gram(&mut rng, n, -(n as f64));
            assert!(matches!(
                decompose_row_by_row(&a, 0.0),
                Err(LinalgError::NotPositiveDefinite)
            ));
            assert!(matches!(
                Cholesky::decompose(&a),
                Err(LinalgError::NotPositiveDefinite)
            ));
        }
    }

    #[test]
    fn refactor_reuses_storage_without_stale_entries() {
        let mut rng = StdRng::seed_from_u64(7);
        let big = random_gram(&mut rng, 9, 1.0);
        let small = random_gram(&mut rng, 4, 1.0);
        let mut c = Cholesky::decompose(&big).unwrap();
        c.refactor_jittered(&small, 1e-8, 12).unwrap();
        let fresh = Cholesky::decompose_jittered(&small, 1e-8, 12).unwrap();
        assert!(same_bits(c.factor(), fresh.factor()));
        assert_eq!(c.jitter(), fresh.jitter());
        // A failed refactor reports the failure.
        let bad = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        assert!(c.refactor_jittered(&bad, 1e-8, 2).is_err());
    }

    #[test]
    fn lower_matmul_is_bit_identical_to_per_draw_products() {
        let mut rng = StdRng::seed_from_u64(8);
        for (n, cols) in [(1, 1), (3, 8), (17, 5), (40, 64), (4, 0)] {
            let c = Cholesky::decompose(&random_gram(&mut rng, n, 1.0)).unwrap();
            let z = random_matrix(&mut rng, n, cols);
            let mut out = Vec::new();
            c.lower_matmul(z.as_slice(), cols, &mut out).unwrap();
            for s in 0..cols {
                let draw = lower_matvec(&c, &z.col(s));
                for (i, v) in draw.iter().enumerate() {
                    assert_eq!(v.to_bits(), out[i * cols + s].to_bits(), "n {n} draw {s}");
                }
            }
        }
        let c = Cholesky::decompose(&spd3()).unwrap();
        assert!(c.lower_matmul(&[1.0; 4], 2, &mut Vec::new()).is_err());
    }

    #[test]
    fn forward_substitute_cols_is_bit_identical_to_per_vector() {
        let mut rng = StdRng::seed_from_u64(9);
        for (n, cols) in [(1, 3), (5, 1), (19, 80), (3, 0)] {
            let c = Cholesky::decompose(&random_gram(&mut rng, n, 1.0)).unwrap();
            let b = random_matrix(&mut rng, n, cols);
            let mut cols_out = b.as_slice().to_vec();
            c.forward_substitute_cols(&mut cols_out, cols).unwrap();
            for q in 0..cols {
                let single = c.forward_substitute(&b.col(q));
                for (i, v) in single.iter().enumerate() {
                    assert_eq!(v.to_bits(), cols_out[i * cols + q].to_bits());
                }
            }
        }
        let c = Cholesky::decompose(&spd3()).unwrap();
        assert!(c.forward_substitute_cols(&mut [1.0; 4], 2).is_err());
    }

    /// `M Mᵀ + I` for a random `M`, and the same product after rows
    /// `from..n` of `M` are redrawn: the two share their leading
    /// `from x from` block bit for bit.
    fn gram_pair(rng: &mut StdRng, n: usize, from: usize) -> (Matrix, Matrix) {
        let m = random_matrix(rng, n, n);
        let mut redrawn = m.clone();
        for i in from..n {
            for v in redrawn.row_mut(i) {
                *v = rng.random_range(-2.0..2.0);
            }
        }
        let gram = |m: &Matrix| {
            let mut a = m.matmul(&m.transpose()).unwrap();
            a.add_diagonal(1.0);
            a
        };
        (gram(&m), gram(&redrawn))
    }

    /// Rows `from..` of `a`, as [`Cholesky::refactor_tail`] reads them.
    fn tail_rows(a: &Matrix, from: usize) -> Vec<f64> {
        a.as_slice()[from * a.cols()..].to_vec()
    }

    #[test]
    fn refactor_tail_is_bit_identical_to_a_whole_refactor() {
        let mut rng = StdRng::seed_from_u64(10);
        for n in [1_usize, 2, 5, 9, 23, 40] {
            for from in [0, 1, n / 2, n.saturating_sub(3), n - 1, n] {
                let (a, b) = gram_pair(&mut rng, n, from);
                let mut c = Cholesky::decompose(&a).unwrap();
                c.refactor_tail(from, &tail_rows(&b, from)).unwrap();
                let whole = Cholesky::decompose(&b).unwrap();
                assert!(same_bits(c.factor(), whole.factor()), "n {n} from {from}");
                assert_eq!(c.jitter(), 0.0);
            }
        }
    }

    #[test]
    fn refactor_tail_fails_where_a_whole_refactor_fails() {
        let mut rng = StdRng::seed_from_u64(11);
        for (n, from) in [(6, 3), (12, 9), (30, 27), (30, 29)] {
            let (a, mut b) = gram_pair(&mut rng, n, from);
            // A negative diagonal in the new rows: no factor exists.
            b[(n - 1, n - 1)] = -(n as f64);
            let mut c = Cholesky::decompose(&a).unwrap();
            assert!(matches!(
                c.refactor_tail(from, &tail_rows(&b, from)),
                Err(LinalgError::NotPositiveDefinite)
            ));
            assert!(matches!(
                Cholesky::decompose(&b),
                Err(LinalgError::NotPositiveDefinite)
            ));
            // The leading rows are untouched, so the next tail still fits.
            let lead = Cholesky::decompose(&a).unwrap();
            for i in 0..from {
                assert_eq!(c.factor().row(i), lead.factor().row(i));
            }
            c.refactor_tail(from, &tail_rows(&a, from)).unwrap();
            assert!(same_bits(c.factor(), lead.factor()), "n {n} from {from}");
        }
    }

    #[test]
    fn refactor_tail_refuses_a_jittered_factor_and_bad_shapes() {
        // Rank-1 PSD: factors only with jitter.
        let a = Matrix::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        let mut c = Cholesky::decompose_jittered(&a, 1e-10, 12).unwrap();
        assert!(c.jitter() > 0.0);
        assert!(matches!(
            c.refactor_tail(1, &[1.0, 2.0]),
            Err(LinalgError::NotPositiveDefinite)
        ));
        let mut c = Cholesky::decompose(&spd3()).unwrap();
        assert!(c.refactor_tail(1, &[1.0; 3]).is_err());
        assert!(c.refactor_tail(4, &[]).is_err());
        c.refactor_tail(3, &[]).unwrap();
    }

    #[test]
    fn solve_cols_is_bit_identical_to_per_column_solves() {
        let mut rng = StdRng::seed_from_u64(12);
        for (n, cols) in [(1, 1), (7, 0), (7, 1), (19, 35), (64, 35)] {
            let c = Cholesky::decompose(&random_gram(&mut rng, n, 1.0)).unwrap();
            let b = random_matrix(&mut rng, n, cols);
            let mut x = b.as_slice().to_vec();
            c.solve_cols(&mut x, cols).unwrap();
            for q in 0..cols {
                let single = c.solve(&b.col(q)).unwrap();
                for (i, v) in single.iter().enumerate() {
                    assert_eq!(v.to_bits(), x[i * cols + q].to_bits(), "n {n} col {q}");
                }
            }
        }
        let c = Cholesky::decompose(&spd3()).unwrap();
        assert!(c.solve_cols(&mut [1.0; 4], 2).is_err());
    }

    #[test]
    fn forward_substitute_consistent_with_solve() {
        let a = spd3();
        let c = Cholesky::decompose(&a).unwrap();
        let b = [1.0, 2.0, 3.0];
        // L y = b, then Lᵀ x = y should equal solve(b).
        let y = c.forward_substitute(&b);
        // Verify L y = b.
        let l = c.factor();
        let ly = l.matvec(&y).unwrap();
        for (v, e) in ly.iter().zip(&b) {
            assert!((v - e).abs() < 1e-12);
        }
    }
}
