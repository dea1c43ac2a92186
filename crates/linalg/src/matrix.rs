//! Row-major dense matrix with the operations the TESLA stack needs.

// analysis:allow-file(panic-free-control-path): dense numeric kernel;
// every index is loop-bounded by lengths validated at the call
// boundary, and debug_asserts guard the shape contracts.
// analysis:allow-file(no-alloc-in-decide-steady-state): work buffers
// are sized by model dimensions fixed at fit time; a fresh surrogate
// per decision is the paper's design, and zero-alloc steady-state
// scoring is tracked as ROADMAP work.
use crate::{LinalgError, Result};

/// A dense, row-major `f64` matrix.
///
/// Sizes in this workload are modest (design matrices of a few thousand
/// rows and a few dozen columns; GP Gram matrices of a few hundred rows),
/// so storage is a single `Vec<f64>` and products use a cache-friendly
/// i-k-j loop.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Reshapes to `rows x cols` and fills with zeros, reusing the
    /// allocation when it is large enough. Work buffers that are refilled
    /// on every call use this instead of allocating a fresh matrix.
    pub fn reset_zeros(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of rows. All rows must share a length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::Empty("from_rows"));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    op: "from_rows",
                    lhs: (1, cols),
                    rhs: (1, r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow of the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow of row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy of column `j`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        debug_assert!(j < self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let brow = rhs.row(k);
                let orow = out.row_mut(i);
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols != v.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|i| crate::vector::dot(self.row(i), v))
            .collect())
    }

    /// Computes the Gram matrix `selfᵀ * self` (symmetric, `cols x cols`),
    /// exploiting symmetry: only the upper triangle is computed.
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..n {
                let ri = row[i];
                if ri == 0.0 {
                    continue;
                }
                for j in i..n {
                    g[(i, j)] += ri * row[j];
                }
            }
        }
        for i in 0..n {
            for j in (i + 1)..n {
                g[(j, i)] = g[(i, j)];
            }
        }
        g
    }

    /// Element-wise addition. Errors on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "add",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Adds `v` to every diagonal element in place (`self += v * I`).
    pub fn add_diagonal(&mut self, v: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += v;
        }
    }

    /// Maximum absolute element, or 0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// True when all elements are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_neutral_for_matmul() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_small_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c[(0, 0)], 58.0);
        assert_eq!(c[(0, 1)], 64.0);
        assert_eq!(c[(1, 0)], 139.0);
        assert_eq!(c[(1, 1)], 154.0);
    }

    #[test]
    fn matmul_dimension_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn parallel_and_sequential_matmul_agree() {
        // Force both code paths on the same operands and compare.
        let n = 80; // 80^3 > threshold
        let mut a = Matrix::zeros(n, n);
        let mut b = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = ((i * 31 + j * 7) % 13) as f64 - 6.0;
                b[(i, j)] = ((i * 17 + j * 3) % 11) as f64 - 5.0;
            }
        }
        let big = a.matmul(&b).unwrap();
        // Sequential reference.
        let mut reference = Matrix::zeros(n, n);
        for i in 0..n {
            for k in 0..n {
                for j in 0..n {
                    reference[(i, j)] += a[(i, k)] * b[(k, j)];
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                assert!((big[(i, j)] - reference[(i, j)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_swaps_indices() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], a[(1, 2)]);
    }

    #[test]
    fn gram_matches_explicit_transpose_product() {
        let a = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let g = a.gram();
        let g2 = a.transpose().matmul(&a).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn matvec_known_result() {
        let a = Matrix::from_vec(2, 3, vec![1., 0., 2., 0., 3., 0.]).unwrap();
        let y = a.matvec(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(y, vec![7.0, 6.0]);
    }

    #[test]
    fn matvec_wrong_length_errors() {
        let a = Matrix::zeros(2, 3);
        assert!(a.matvec(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn from_rows_ragged_errors() {
        let rows = vec![vec![1.0, 2.0], vec![3.0]];
        assert!(Matrix::from_rows(&rows).is_err());
    }

    #[test]
    fn from_rows_empty_errors() {
        let rows: Vec<Vec<f64>> = vec![];
        assert!(matches!(
            Matrix::from_rows(&rows),
            Err(LinalgError::Empty(_))
        ));
    }

    #[test]
    fn add_diagonal_only_touches_diagonal() {
        let mut a = Matrix::zeros(3, 3);
        a.add_diagonal(2.5);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 2.5 } else { 0.0 };
                assert_eq!(a[(i, j)], expect);
            }
        }
    }

    #[test]
    fn col_extracts_column() {
        let a = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        assert_eq!(a.col(1), vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn max_abs_and_is_finite() {
        let a = Matrix::from_vec(1, 3, vec![-3.0, 2.0, 1.0]).unwrap();
        assert_eq!(a.max_abs(), 3.0);
        assert!(a.is_finite());
        let b = Matrix::from_vec(1, 1, vec![f64::NAN]).unwrap();
        assert!(!b.is_finite());
    }
}
