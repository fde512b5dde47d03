//! Dense, row-major `f64` matrix type.

use crate::error::{MatrixError, Result};
use crate::hash;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A dense, row-major matrix of `f64` values.
///
/// The value buffer is reference-counted so matrices can be shared across
/// the lineage cache, the live-variable map, and asynchronous backend
/// threads without deep copies; copy-on-write semantics apply to in-place
/// mutation helpers.
#[derive(Clone)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Arc<Vec<f64>>,
    /// Memoised [`fingerprint`](Self::fingerprint); cleared by every
    /// mutator.
    fp: OnceLock<u64>,
}

impl Matrix {
    /// Creates a matrix from a row-major value buffer.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MatrixError::Corrupt(format!(
                "buffer length {} does not match {}x{}",
                data.len(),
                rows,
                cols
            )));
        }
        Ok(Self::from_parts(rows, cols, data))
    }

    /// Wraps a buffer already checked to hold `rows * cols` values.
    fn from_parts(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        Self {
            rows,
            cols,
            data: Arc::new(data),
            fp: OnceLock::new(),
        }
    }

    /// Creates an all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::from_parts(rows, cols, vec![0.0; rows * cols])
    }

    /// Creates a matrix with every cell set to `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self::from_parts(rows, cols, vec![value; rows * cols])
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        Self::from_parts(n, n, data)
    }

    /// Creates a single-cell matrix holding a scalar.
    pub fn scalar(value: f64) -> Self {
        Self::filled(1, 1, value)
    }

    /// Creates a column vector from a slice.
    pub fn col_vector(values: &[f64]) -> Self {
        Self::from_parts(values.len(), 1, values.to_vec())
    }

    /// Creates a row vector from a slice.
    pub fn row_vector(values: &[f64]) -> Self {
        Self::from_parts(1, values.len(), values.to_vec())
    }

    /// Generates the sequence `from, from+incr, ...` up to (and including)
    /// `to` when it lands on the grid, as a column vector — mirrors DML's
    /// `seq()` builtin.
    pub fn seq(from: f64, to: f64, incr: f64) -> Self {
        // Index-based (from + i*incr): no accumulation drift on long
        // sequences, so lengths are stable across platforms.
        let mut v = Vec::new();
        if incr != 0.0 {
            let n = ((to - from) / incr + 1e-9).floor();
            if n >= 0.0 {
                for i in 0..=(n as usize) {
                    v.push(from + i as f64 * incr);
                }
            }
        }
        Self::col_vector(&v)
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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// True when the matrix has zero cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap size in bytes (the value buffer).
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<f64>()
    }

    /// Row-major value slice.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.data
    }

    /// The value at `(r, c)` with bounds checking.
    pub fn get(&self, r: usize, c: usize) -> Result<f64> {
        if r >= self.rows || c >= self.cols {
            return Err(MatrixError::OutOfBounds {
                op: "get",
                index: (r, c),
                shape: self.shape(),
            });
        }
        Ok(self.data[r * self.cols + c])
    }

    /// The value at `(r, c)` without bounds checking in release builds.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable access to the value buffer, cloning it first if shared
    /// (copy-on-write).
    pub fn values_mut(&mut self) -> &mut [f64] {
        self.fp = OnceLock::new();
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Sets the value at `(r, c)`, applying copy-on-write.
    pub fn set(&mut self, r: usize, c: usize, v: f64) -> Result<()> {
        if r >= self.rows || c >= self.cols {
            return Err(MatrixError::OutOfBounds {
                op: "set",
                index: (r, c),
                shape: self.shape(),
            });
        }
        let cols = self.cols;
        self.fp = OnceLock::new();
        Arc::make_mut(&mut self.data)[r * cols + c] = v;
        Ok(())
    }

    /// Interprets a 1x1 matrix as a scalar.
    pub fn as_scalar(&self) -> Result<f64> {
        if self.rows == 1 && self.cols == 1 {
            Ok(self.data[0])
        } else {
            Err(MatrixError::DimensionMismatch {
                op: "as_scalar",
                lhs: self.shape(),
                rhs: (1, 1),
            })
        }
    }

    /// True when the two matrices have the same shape and all cells are
    /// within `tol` of each other.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol || (a.is_nan() && b.is_nan()))
    }

    /// A stable 64-bit content fingerprint (shape + bit pattern of values).
    ///
    /// Used by the simulated backends to key prediction caches and to check
    /// result equivalence across execution paths. The value is computed
    /// once per matrix and memoised, so every reader of a shared
    /// `Arc<Matrix>` (each cache hit serving it) pays one pass in total;
    /// [`set`](Self::set) and [`values_mut`](Self::values_mut) clear the
    /// memo.
    pub fn fingerprint(&self) -> u64 {
        *self.fp.get_or_init(|| {
            // FNV-1a over the shape and raw bit patterns.
            let mut h = hash::fnv1a(hash::FNV_OFFSET, &(self.rows as u64).to_le_bytes());
            h = hash::fnv1a(h, &(self.cols as u64).to_le_bytes());
            for v in self.data.iter() {
                h = hash::fnv1a(h, &v.to_bits().to_le_bytes());
            }
            h
        })
    }

    /// Returns a deep copy whose buffer is uniquely owned.
    pub fn deep_clone(&self) -> Self {
        Self::from_parts(self.rows, self.cols, self.data.as_ref().clone())
    }

    /// Number of strong references to the shared value buffer (for tests of
    /// copy-on-write behaviour).
    pub fn buffer_refcount(&self) -> usize {
        Arc::strong_count(&self.data)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.len() <= 36 {
            writeln!(f)?;
            for r in 0..self.rows {
                write!(f, "  [")?;
                for c in 0..self.cols {
                    if c > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{:.4}", self.at(r, c))?;
                }
                writeln!(f, "]")?;
            }
        }
        Ok(())
    }
}

impl PartialEq for Matrix {
    fn eq(&self, other: &Self) -> bool {
        self.shape() == other.shape() && self.data == other.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn zeros_and_filled() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.shape(), (3, 4));
        assert!(z.values().iter().all(|&v| v == 0.0));
        let f = Matrix::filled(2, 2, 7.5);
        assert!(f.values().iter().all(|&v| v == 7.5));
    }

    #[test]
    fn identity_has_unit_diagonal() {
        let i = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i.at(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn seq_matches_dml_semantics() {
        let s = Matrix::seq(1.0, 5.0, 2.0);
        assert_eq!(s.values(), &[1.0, 3.0, 5.0]);
        let s = Matrix::seq(5.0, 1.0, -2.0);
        assert_eq!(s.values(), &[5.0, 3.0, 1.0]);
        let s = Matrix::seq(1.0, 1.0, 1.0);
        assert_eq!(s.values(), &[1.0]);
    }

    #[test]
    fn get_set_bounds_checked() {
        let mut m = Matrix::zeros(2, 2);
        assert!(m.set(1, 1, 3.0).is_ok());
        assert_eq!(m.get(1, 1).unwrap(), 3.0);
        assert!(m.get(2, 0).is_err());
        assert!(m.set(0, 2, 1.0).is_err());
    }

    #[test]
    fn copy_on_write_preserves_shared_buffer() {
        let a = Matrix::zeros(2, 2);
        let mut b = a.clone();
        assert_eq!(a.buffer_refcount(), 2);
        b.set(0, 0, 9.0).unwrap();
        assert_eq!(a.at(0, 0), 0.0);
        assert_eq!(b.at(0, 0), 9.0);
        assert_eq!(a.buffer_refcount(), 1);
    }

    #[test]
    fn scalar_roundtrip() {
        let s = Matrix::scalar(2.5);
        assert_eq!(s.as_scalar().unwrap(), 2.5);
        assert!(Matrix::zeros(2, 1).as_scalar().is_err());
    }

    #[test]
    fn fingerprint_distinguishes_content_and_shape() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 5.0]).unwrap();
        let c = Matrix::from_vec(4, 1, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), a.deep_clone().fingerprint());
    }

    /// Byte-wise FNV-1a of the 2x2 matrix `[1, 2; 3, 4]` (shape, then
    /// each value's little-endian bits), computed independently of the
    /// implementation.
    const FP_1234: u64 = 0x9555_2b70_d293_9720;

    fn m1234() -> Matrix {
        Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap()
    }

    #[test]
    fn fingerprint_memo_equals_pinned_fnv1a() {
        let a = m1234();
        assert_eq!(a.fingerprint(), FP_1234);
        assert_eq!(a.fingerprint(), FP_1234, "memoised read");
        assert_eq!(a.clone().fingerprint(), FP_1234, "memo carried by clone");
    }

    #[test]
    fn mutating_a_shared_clone_refreshes_only_its_memo() {
        let a = m1234();
        assert_eq!(a.fingerprint(), FP_1234);

        // The clones share the buffer and copy the set memo.
        let mut b = a.clone();
        let mut c = a.clone();
        assert_eq!(a.buffer_refcount(), 3);
        assert_eq!(b.fingerprint(), FP_1234);
        assert_eq!(c.fingerprint(), FP_1234);

        b.set(1, 1, 5.0).unwrap();
        let b_want = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 5.0]).unwrap();
        assert_eq!(b.fingerprint(), b_want.fingerprint());
        assert_ne!(b.fingerprint(), FP_1234);

        c.values_mut()[0] = -1.0;
        let c_want = Matrix::from_vec(2, 2, vec![-1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(c.fingerprint(), c_want.fingerprint());
        assert_ne!(c.fingerprint(), FP_1234);

        assert_eq!(a.values(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.fingerprint(), FP_1234, "the original keeps its own");
    }

    #[test]
    fn deep_clone_and_eq_ignore_the_memo() {
        let a = m1234();
        let cold = a.deep_clone();
        a.fingerprint();
        assert_eq!(a, cold, "a set memo does not affect equality");
        assert_eq!(cold, a);
        let warm = a.deep_clone();
        assert_eq!(warm, a);
        assert_eq!(warm.fingerprint(), FP_1234);
        assert_eq!(cold.fingerprint(), FP_1234);
    }

    #[test]
    fn approx_eq_tolerates_small_differences() {
        let a = Matrix::filled(2, 2, 1.0);
        let mut b = a.deep_clone();
        b.set(0, 0, 1.0 + 1e-12).unwrap();
        assert!(a.approx_eq(&b, 1e-9));
        assert!(!a.approx_eq(&b, 1e-15));
        assert!(!a.approx_eq(&Matrix::zeros(2, 3), 1.0));
    }
}
