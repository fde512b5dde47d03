//! Neural-network kernels: conv2d (im2col), max pooling, softmax, dropout,
//! and the affine layer helper used by the DNN workloads (HDROP, EN2DE,
//! TLVIS, and the GPU micro-benchmarks).

use crate::dense::Matrix;
use crate::error::{MatrixError, Result};
use crate::ops::matmul::matmul;

/// Shape parameters of a 2-D convolution over NCHW-linearized images.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels (number of filters).
    pub out_channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Square kernel side length.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding in both dimensions.
    pub pad: usize,
}

impl Conv2dParams {
    /// Output spatial height.
    pub fn out_height(&self) -> usize {
        (self.height + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Output spatial width.
    pub fn out_width(&self) -> usize {
        (self.width + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Columns of the linearized output matrix (`C_out * H_out * W_out`).
    pub fn out_cols(&self) -> usize {
        self.out_channels * self.out_height() * self.out_width()
    }

    /// Columns of the linearized input matrix (`C_in * H * W`).
    pub fn in_cols(&self) -> usize {
        self.in_channels * self.height * self.width
    }
}

/// Shape parameters of 2-D max pooling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool2dParams {
    /// Channels.
    pub channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Square pooling window.
    pub window: usize,
    /// Stride.
    pub stride: usize,
}

impl Pool2dParams {
    /// Output spatial height.
    pub fn out_height(&self) -> usize {
        (self.height - self.window) / self.stride + 1
    }

    /// Output spatial width.
    pub fn out_width(&self) -> usize {
        (self.width - self.window) / self.stride + 1
    }

    /// Columns of the linearized output.
    pub fn out_cols(&self) -> usize {
        self.channels * self.out_height() * self.out_width()
    }
}

/// 2-D convolution via im2col + matmul.
///
/// `input` is `N x (C_in*H*W)` (one linearized image per row); `weights` is
/// `C_out x (C_in*k*k)`. Returns `N x (C_out*H_out*W_out)`.
pub fn conv2d(input: &Matrix, weights: &Matrix, p: &Conv2dParams) -> Result<Matrix> {
    if input.cols() != p.in_cols() {
        return Err(MatrixError::DimensionMismatch {
            op: "conv2d/input",
            lhs: input.shape(),
            rhs: (input.rows(), p.in_cols()),
        });
    }
    if weights.shape() != (p.out_channels, p.in_channels * p.kernel * p.kernel) {
        return Err(MatrixError::DimensionMismatch {
            op: "conv2d/weights",
            lhs: weights.shape(),
            rhs: (p.out_channels, p.in_channels * p.kernel * p.kernel),
        });
    }
    let (oh, ow) = (p.out_height(), p.out_width());
    let patch = p.in_channels * p.kernel * p.kernel;
    let n = input.rows();
    let mut out = Vec::with_capacity(n * p.out_cols());
    // Reused im2col buffer: one column per output pixel.
    let mut col = vec![0.0; patch * oh * ow];
    for img in 0..n {
        let row = input.row(img);
        im2col(row, p, &mut col);
        let colm = Matrix::from_vec(patch, oh * ow, col.clone())?;
        let conv = matmul(weights, &colm)?; // C_out x (oh*ow)
        out.extend_from_slice(conv.values());
    }
    Matrix::from_vec(n, p.out_cols(), out)
}

fn im2col(row: &[f64], p: &Conv2dParams, col: &mut [f64]) {
    let (oh, ow) = (p.out_height(), p.out_width());
    let hw = p.height * p.width;
    let mut idx = 0usize;
    for c in 0..p.in_channels {
        for kr in 0..p.kernel {
            for kc in 0..p.kernel {
                for or_ in 0..oh {
                    let ir = (or_ * p.stride + kr) as isize - p.pad as isize;
                    for oc in 0..ow {
                        let ic = (oc * p.stride + kc) as isize - p.pad as isize;
                        col[idx] = if ir >= 0
                            && (ir as usize) < p.height
                            && ic >= 0
                            && (ic as usize) < p.width
                        {
                            row[c * hw + ir as usize * p.width + ic as usize]
                        } else {
                            0.0
                        };
                        idx += 1;
                    }
                }
            }
        }
    }
}

/// 2-D max pooling over `N x (C*H*W)` linearized images.
pub fn max_pool2d(input: &Matrix, p: &Pool2dParams) -> Result<Matrix> {
    if input.cols() != p.channels * p.height * p.width {
        return Err(MatrixError::DimensionMismatch {
            op: "max_pool2d",
            lhs: input.shape(),
            rhs: (input.rows(), p.channels * p.height * p.width),
        });
    }
    let (oh, ow) = (p.out_height(), p.out_width());
    let hw = p.height * p.width;
    let mut out = Vec::with_capacity(input.rows() * p.out_cols());
    for img in 0..input.rows() {
        let row = input.row(img);
        for c in 0..p.channels {
            for or_ in 0..oh {
                for oc in 0..ow {
                    let mut best = f64::NEG_INFINITY;
                    for kr in 0..p.window {
                        for kc in 0..p.window {
                            let ir = or_ * p.stride + kr;
                            let ic = oc * p.stride + kc;
                            best = best.max(row[c * hw + ir * p.width + ic]);
                        }
                    }
                    out.push(best);
                }
            }
        }
    }
    Matrix::from_vec(input.rows(), p.out_cols(), out)
}

/// Row-wise softmax (numerically stabilized).
pub fn softmax_rows(m: &Matrix) -> Matrix {
    let mut out = Vec::with_capacity(m.len());
    for r in 0..m.rows() {
        let row = m.row(r);
        let mx = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = row.iter().map(|&v| (v - mx).exp()).collect();
        let sum: f64 = exps.iter().sum();
        out.extend(exps.iter().map(|&e| e / sum));
    }
    Matrix::from_vec(m.rows(), m.cols(), out).expect("shape preserved")
}

/// Applies a dropout mask with keep probability `1 - rate`, scaling kept
/// cells by `1/(1-rate)` (inverted dropout). The mask is derived from a
/// deterministic seed so lineage-identified results are reproducible.
pub fn dropout(m: &Matrix, rate: f64, seed: u64) -> Matrix {
    if rate <= 0.0 {
        return m.clone();
    }
    let keep = 1.0 - rate;
    let scale = 1.0 / keep;
    // xorshift64* stream, cheap and deterministic.
    let mut s = seed.wrapping_mul(crate::hash::GOLDEN_GAMMA) | 1;
    let mut next = move || {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        (s.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
    };
    let out: Vec<f64> = m
        .values()
        .iter()
        .map(|&v| if next() < keep { v * scale } else { 0.0 })
        .collect();
    Matrix::from_vec(m.rows(), m.cols(), out).expect("shape preserved")
}

/// Affine layer: `X %*% W + b` with `b` a row vector broadcast across rows.
pub fn affine(x: &Matrix, w: &Matrix, b: &Matrix) -> Result<Matrix> {
    let xw = matmul(x, w)?;
    crate::ops::binary::binary(&xw, b, crate::ops::binary::BinaryOp::Add)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::agg::{aggregate, row_agg, AggOp};
    use crate::rand_gen::rand_uniform;

    #[test]
    fn conv2d_identity_kernel_preserves_image() {
        // 1x1 kernel with weight 1 reproduces the input.
        let p = Conv2dParams {
            in_channels: 1,
            out_channels: 1,
            height: 4,
            width: 4,
            kernel: 1,
            stride: 1,
            pad: 0,
        };
        let img = rand_uniform(2, 16, 0.0, 1.0, 5);
        let w = Matrix::filled(1, 1, 1.0);
        let out = conv2d(&img, &w, &p).unwrap();
        assert!(out.approx_eq(&img, 1e-12));
    }

    #[test]
    fn conv2d_box_filter_sums_patches() {
        let p = Conv2dParams {
            in_channels: 1,
            out_channels: 1,
            height: 3,
            width: 3,
            kernel: 3,
            stride: 1,
            pad: 0,
        };
        let img = Matrix::from_vec(1, 9, (1..=9).map(|v| v as f64).collect()).unwrap();
        let w = Matrix::filled(1, 9, 1.0);
        let out = conv2d(&img, &w, &p).unwrap();
        assert_eq!(out.shape(), (1, 1));
        assert_eq!(out.at(0, 0), 45.0);
    }

    #[test]
    fn conv2d_padding_expands_output() {
        let p = Conv2dParams {
            in_channels: 1,
            out_channels: 2,
            height: 4,
            width: 4,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        assert_eq!(p.out_height(), 4);
        let img = rand_uniform(1, 16, 0.0, 1.0, 6);
        let w = rand_uniform(2, 9, -1.0, 1.0, 7);
        let out = conv2d(&img, &w, &p).unwrap();
        assert_eq!(out.shape(), (1, 2 * 4 * 4));
    }

    #[test]
    fn max_pool_downsamples() {
        let p = Pool2dParams {
            channels: 1,
            height: 4,
            width: 4,
            window: 2,
            stride: 2,
        };
        let img = Matrix::from_vec(1, 16, (1..=16).map(|v| v as f64).collect()).unwrap();
        let out = max_pool2d(&img, &p).unwrap();
        assert_eq!(out.shape(), (1, 4));
        assert_eq!(out.values(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = rand_uniform(5, 10, -4.0, 4.0, 8);
        let s = softmax_rows(&m);
        let sums = row_agg(&s, AggOp::Sum).unwrap();
        for r in 0..5 {
            assert!((sums.at(r, 0) - 1.0).abs() < 1e-12);
        }
        assert!(aggregate(&s, AggOp::Min).unwrap() >= 0.0);
    }

    #[test]
    fn softmax_handles_large_logits() {
        let m = Matrix::from_vec(1, 3, vec![1000.0, 1000.0, 999.0]).unwrap();
        let s = softmax_rows(&m);
        assert!(s.values().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn dropout_zeroes_roughly_rate_fraction() {
        let m = Matrix::filled(100, 100, 1.0);
        let d = dropout(&m, 0.3, 99);
        let zeros = d.values().iter().filter(|&&v| v == 0.0).count();
        let frac = zeros as f64 / d.len() as f64;
        assert!((frac - 0.3).abs() < 0.03, "zero fraction {frac}");
        // Kept cells are scaled by 1/0.7.
        let kept: Vec<f64> = d.values().iter().copied().filter(|&v| v != 0.0).collect();
        assert!(kept.iter().all(|&v| (v - 1.0 / 0.7).abs() < 1e-12));
        // Deterministic per seed.
        assert!(d.approx_eq(&dropout(&m, 0.3, 99), 0.0));
        assert!(!d.approx_eq(&dropout(&m, 0.3, 100), 0.0));
    }

    #[test]
    fn dropout_rate_zero_is_identity() {
        let m = rand_uniform(4, 4, -1.0, 1.0, 1);
        assert!(dropout(&m, 0.0, 5).approx_eq(&m, 0.0));
    }

    #[test]
    fn affine_adds_bias_rowwise() {
        let x = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let w = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Matrix::row_vector(&[10.0, 20.0]);
        let out = affine(&x, &w, &b).unwrap();
        assert_eq!(out.values(), &[11.0, 22.0, 13.0, 24.0]);
    }
}
