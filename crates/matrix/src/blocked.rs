//! Blocked (tiled) matrices — the partitioned representation the simulated
//! Spark backend distributes as keyed RDD collections, mirroring SystemDS's
//! binary-block matrices.

use crate::dense::Matrix;
use crate::error::{MatrixError, Result};
use crate::ops::reorg::{slice_cols, slice_rows};

/// Key of one tile within a blocked matrix: `(row_block, col_block)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId {
    /// 0-based row-block index.
    pub row: usize,
    /// 0-based column-block index.
    pub col: usize,
}

/// A matrix tiled into `blen x blen` blocks (boundary blocks may be
/// smaller). Tiles are stored in row-block-major order.
#[derive(Debug, Clone)]
pub struct BlockedMatrix {
    rows: usize,
    cols: usize,
    blen: usize,
    blocks: Vec<(BlockId, Matrix)>,
}

impl BlockedMatrix {
    /// Tiles a dense matrix with block side length `blen`.
    pub fn from_dense(m: &Matrix, blen: usize) -> Result<Self> {
        if blen == 0 {
            return Err(MatrixError::Empty("block length"));
        }
        let (rows, cols) = m.shape();
        let mut blocks = Vec::new();
        let nrb = rows.div_ceil(blen).max(1);
        let ncb = cols.div_ceil(blen).max(1);
        for rb in 0..nrb {
            let r0 = rb * blen;
            let r1 = ((rb + 1) * blen).min(rows);
            let rslice = slice_rows(m, r0.min(rows), r1)?;
            for cb in 0..ncb {
                let c0 = cb * blen;
                let c1 = ((cb + 1) * blen).min(cols);
                let tile = slice_cols(&rslice, c0.min(cols), c1)?;
                blocks.push((BlockId { row: rb, col: cb }, tile));
            }
        }
        Ok(Self {
            rows,
            cols,
            blen,
            blocks,
        })
    }

    /// Reassembles the dense matrix from its tiles.
    pub fn to_dense(&self) -> Result<Matrix> {
        let mut out = vec![0.0; self.rows * self.cols];
        for (id, tile) in &self.blocks {
            let r0 = id.row * self.blen;
            let c0 = id.col * self.blen;
            for r in 0..tile.rows() {
                let dst = (r0 + r) * self.cols + c0;
                out[dst..dst + tile.cols()].copy_from_slice(tile.row(r));
            }
        }
        Matrix::from_vec(self.rows, self.cols, out)
    }

    /// Builds a blocked matrix directly from tiles (used by the distributed
    /// backend when collecting job results).
    pub fn from_blocks(
        rows: usize,
        cols: usize,
        blen: usize,
        blocks: Vec<(BlockId, Matrix)>,
    ) -> Self {
        Self {
            rows,
            cols,
            blen,
            blocks,
        }
    }

    /// Total logical rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total logical columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Block side length.
    pub fn blen(&self) -> usize {
        self.blen
    }

    /// Number of row blocks.
    pub fn num_row_blocks(&self) -> usize {
        self.rows.div_ceil(self.blen).max(1)
    }

    /// Number of column blocks.
    pub fn num_col_blocks(&self) -> usize {
        self.cols.div_ceil(self.blen).max(1)
    }

    /// All tiles with their keys.
    pub fn blocks(&self) -> &[(BlockId, Matrix)] {
        &self.blocks
    }

    /// Approximate in-memory size in bytes across all tiles.
    pub fn size_bytes(&self) -> usize {
        self.blocks.iter().map(|(_, b)| b.size_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rand_gen::rand_uniform;

    #[test]
    fn tile_roundtrip_exact_multiple() {
        let m = rand_uniform(8, 8, -1.0, 1.0, 1);
        let b = BlockedMatrix::from_dense(&m, 4).unwrap();
        assert_eq!(b.blocks().len(), 4);
        assert!(b.to_dense().unwrap().approx_eq(&m, 0.0));
    }

    #[test]
    fn tile_roundtrip_ragged_boundary() {
        let m = rand_uniform(10, 7, -1.0, 1.0, 2);
        let b = BlockedMatrix::from_dense(&m, 4).unwrap();
        assert_eq!(b.num_row_blocks(), 3);
        assert_eq!(b.num_col_blocks(), 2);
        assert!(b.to_dense().unwrap().approx_eq(&m, 0.0));
    }

    #[test]
    fn single_block_when_blen_exceeds_shape() {
        let m = rand_uniform(3, 3, 0.0, 1.0, 3);
        let b = BlockedMatrix::from_dense(&m, 100).unwrap();
        assert_eq!(b.blocks().len(), 1);
        assert!(b.to_dense().unwrap().approx_eq(&m, 0.0));
    }

    #[test]
    fn zero_block_length_rejected() {
        let m = Matrix::zeros(2, 2);
        assert!(BlockedMatrix::from_dense(&m, 0).is_err());
    }

    #[test]
    fn size_bytes_matches_dense() {
        let m = rand_uniform(9, 9, 0.0, 1.0, 4);
        let b = BlockedMatrix::from_dense(&m, 4).unwrap();
        assert_eq!(b.size_bytes(), m.size_bytes());
    }
}
