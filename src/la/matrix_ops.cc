#include "la/matrix_ops.h"

#include <algorithm>
#include <cmath>

#include "la/cpu_features.h"
#include "la/elementwise.h"
#include "la/gemm_packed.h"
#include "la/parallel.h"

namespace vfl::la {

namespace {

constexpr std::size_t kTransposeBlock = 64;
constexpr std::size_t kTransposeTile = 8;

/// Kernels go parallel only past this many multiply-adds; below it the
/// ParallelFor handshake costs more than it saves.
constexpr std::size_t kParallelFlopThreshold = std::size_t{1} << 21;

/// Minimum output rows per parallel chunk.
std::size_t RowGrain(std::size_t rows, std::size_t flops_per_row) {
  const std::size_t grain =
      (std::size_t{1} << 19) / std::max<std::size_t>(flops_per_row, 1);
  return std::clamp<std::size_t>(grain, 1, rows);
}

/// Rows [0, rows) of out (+)= op_a(a) * op_b(b) through the packed driver on
/// the active tier (resolving it also publishes the `la.kernel_path` gauge).
/// Every shape takes this one path, so an element's arithmetic depends only
/// on k, the output width and the tier — never on `rows` or the row split.
void PackedGemm(const Matrix& a, bool trans_a, const Matrix& b, bool trans_b,
                Matrix* out, bool accumulate, std::size_t rows,
                std::size_t flops_per_row) {
  const internal::GemmMicrokernel& uk =
      *internal::MicrokernelForPath(ActiveKernelPath());
  const auto kernel = [&](std::size_t r0, std::size_t r1) {
    internal::PackedGemmRowRange(a, trans_a, b, trans_b, out, accumulate, uk,
                                 r0, r1);
  };
  if (rows * flops_per_row >= kParallelFlopThreshold) {
    ParallelFor(0, rows, RowGrain(rows, flops_per_row), kernel);
  } else {
    kernel(0, rows);
  }
}

}  // namespace

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out) {
  CHECK_EQ(a.cols(), b.rows());
  CHECK(out != &a);
  CHECK(out != &b);
  out->Resize(a.rows(), b.cols());
  PackedGemm(a, /*trans_a=*/false, b, /*trans_b=*/false, out,
             /*accumulate=*/false, a.rows(), a.cols() * b.cols());
}

void MatMulTransposedBInto(const Matrix& a, const Matrix& b, Matrix* out) {
  CHECK_EQ(a.cols(), b.cols());
  CHECK(out != &a);
  CHECK(out != &b);
  out->Resize(a.rows(), b.rows());
  // B panel packing absorbs the transpose — no materialized b^T.
  PackedGemm(a, /*trans_a=*/false, b, /*trans_b=*/true, out,
             /*accumulate=*/false, a.rows(), a.cols() * b.rows());
}

void MatMulTransposedAInto(const Matrix& a, const Matrix& b, Matrix* out,
                           bool accumulate) {
  CHECK_EQ(a.rows(), b.rows());
  CHECK(out != &a);
  CHECK(out != &b);
  if (accumulate) {
    CHECK_EQ(out->rows(), a.cols());
    CHECK_EQ(out->cols(), b.cols());
  } else {
    out->Resize(a.cols(), b.cols());
  }
  PackedGemm(a, /*trans_a=*/true, b, /*trans_b=*/false, out, accumulate,
             a.cols(), a.rows() * b.cols());
}

void TransposeInto(const Matrix& m, Matrix* out) {
  CHECK(out != &m);
  out->Resize(m.cols(), m.rows());
  // Each kTransposeBlock^2 block bounces through a contiguous scratch
  // buffer: the block of m is transposed into `buf` with 8x8 register
  // micro-tiles (reads sequential per source row; writes contiguous, so no
  // cache-set conflicts), then buf's rows are copied out as full contiguous
  // row segments. Every source and destination cache line is touched
  // exactly once and in full. The previous single-level tiling wrote each
  // destination line one element at a time across a strided inner loop —
  // at power-of-two row strides (256/512 columns => 2048/4096-byte strides)
  // all of a tile's lines alias into one or two L1 sets and get evicted
  // ~8 times before completion, the la_transpose_256/512 bandwidth cliff.
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  double buf[kTransposeBlock * kTransposeBlock];
  for (std::size_t rb = 0; rb < rows; rb += kTransposeBlock) {
    const std::size_t br = std::min(kTransposeBlock, rows - rb);
    for (std::size_t cb = 0; cb < cols; cb += kTransposeBlock) {
      const std::size_t bc = std::min(kTransposeBlock, cols - cb);
      // buf[j * br + i] = m(rb + i, cb + j), i < br, j < bc.
      std::size_t i0 = 0;
      for (; i0 + kTransposeTile <= br; i0 += kTransposeTile) {
        std::size_t j0 = 0;
        for (; j0 + kTransposeTile <= bc; j0 += kTransposeTile) {
          double tile[kTransposeTile][kTransposeTile];
          for (std::size_t i = 0; i < kTransposeTile; ++i) {
            const double* src = m.RowPtr(rb + i0 + i) + cb + j0;
            for (std::size_t j = 0; j < kTransposeTile; ++j) {
              tile[j][i] = src[j];
            }
          }
          for (std::size_t j = 0; j < kTransposeTile; ++j) {
            double* dst = buf + (j0 + j) * br + i0;
            for (std::size_t i = 0; i < kTransposeTile; ++i) {
              dst[i] = tile[j][i];
            }
          }
        }
        for (std::size_t i = 0; i < kTransposeTile; ++i) {
          const double* src = m.RowPtr(rb + i0 + i) + cb;
          for (std::size_t j = j0; j < bc; ++j) buf[j * br + i0 + i] = src[j];
        }
      }
      for (std::size_t i = i0; i < br; ++i) {
        const double* src = m.RowPtr(rb + i) + cb;
        for (std::size_t j = 0; j < bc; ++j) buf[j * br + i] = src[j];
      }
      for (std::size_t j = 0; j < bc; ++j) {
        std::copy(buf + j * br, buf + (j + 1) * br,
                  out->RowPtr(cb + j) + rb);
      }
    }
  }
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix out;
  MatMulInto(a, b, &out);
  return out;
}

Matrix MatMulTransposedB(const Matrix& a, const Matrix& b) {
  Matrix out;
  MatMulTransposedBInto(a, b, &out);
  return out;
}

Matrix MatMulTransposedA(const Matrix& a, const Matrix& b) {
  Matrix out;
  MatMulTransposedAInto(a, b, &out);
  return out;
}

Matrix Transpose(const Matrix& m) {
  Matrix out;
  TransposeInto(m, &out);
  return out;
}

namespace {

void CheckSameShape(const Matrix& a, const Matrix& b) {
  CHECK_EQ(a.rows(), b.rows());
  CHECK_EQ(a.cols(), b.cols());
}

}  // namespace

Matrix Add(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b);
  Matrix out = a;
  double* dst = out.data();
  const double* src = b.data();
  for (std::size_t i = 0; i < out.size(); ++i) dst[i] += src[i];
  return out;
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b);
  Matrix out = a;
  double* dst = out.data();
  const double* src = b.data();
  for (std::size_t i = 0; i < out.size(); ++i) dst[i] -= src[i];
  return out;
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b);
  Matrix out = a;
  double* dst = out.data();
  const double* src = b.data();
  for (std::size_t i = 0; i < out.size(); ++i) dst[i] *= src[i];
  return out;
}

Matrix Scale(const Matrix& m, double scalar) {
  Matrix out = m;
  double* dst = out.data();
  for (std::size_t i = 0; i < out.size(); ++i) dst[i] *= scalar;
  return out;
}

Matrix AddRowBroadcast(const Matrix& m, const std::vector<double>& row) {
  CHECK_EQ(row.size(), m.cols());
  Matrix out = m;
  AddRowBroadcastInPlace(&out, row.data());
  return out;
}

void Axpy(double scalar, const Matrix& b, Matrix* a) {
  CheckSameShape(*a, b);
  double* dst = a->data();
  const double* src = b.data();
  for (std::size_t i = 0; i < a->size(); ++i) dst[i] += scalar * src[i];
}

Matrix ConcatCols(const Matrix& a, const Matrix& b) {
  CHECK_EQ(a.rows(), b.rows());
  Matrix out(a.rows(), a.cols() + b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    std::copy(a.RowPtr(r), a.RowPtr(r) + a.cols(), out.RowPtr(r));
    std::copy(b.RowPtr(r), b.RowPtr(r) + b.cols(), out.RowPtr(r) + a.cols());
  }
  return out;
}

Matrix ConcatRows(const Matrix& a, const Matrix& b) {
  CHECK_EQ(a.cols(), b.cols());
  Matrix out(a.rows() + b.rows(), a.cols());
  std::copy(a.data(), a.data() + a.size(), out.data());
  std::copy(b.data(), b.data() + b.size(), out.data() + a.size());
  return out;
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  CHECK_EQ(a.size(), b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double Norm2(const std::vector<double>& v) { return std::sqrt(Dot(v, v)); }

double FrobeniusNorm(const Matrix& m) {
  double acc = 0.0;
  const double* src = m.data();
  for (std::size_t i = 0; i < m.size(); ++i) acc += src[i] * src[i];
  return std::sqrt(acc);
}

double Sum(const Matrix& m) {
  double acc = 0.0;
  const double* src = m.data();
  for (std::size_t i = 0; i < m.size(); ++i) acc += src[i];
  return acc;
}

double Mean(const Matrix& m) {
  if (m.size() == 0) return 0.0;
  return Sum(m) / static_cast<double>(m.size());
}

std::vector<double> ColMeans(const Matrix& m) {
  std::vector<double> means(m.cols(), 0.0);
  if (m.rows() == 0) return means;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const double* row = m.RowPtr(r);
    for (std::size_t c = 0; c < m.cols(); ++c) means[c] += row[c];
  }
  for (double& v : means) v /= static_cast<double>(m.rows());
  return means;
}

std::vector<double> ColVariances(const Matrix& m) {
  std::vector<double> vars(m.cols(), 0.0);
  if (m.rows() == 0) return vars;
  const std::vector<double> means = ColMeans(m);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const double* row = m.RowPtr(r);
    for (std::size_t c = 0; c < m.cols(); ++c) {
      const double diff = row[c] - means[c];
      vars[c] += diff * diff;
    }
  }
  for (double& v : vars) v /= static_cast<double>(m.rows());
  return vars;
}

std::size_t ArgMax(const std::vector<double>& v) {
  CHECK(!v.empty());
  return static_cast<std::size_t>(
      std::max_element(v.begin(), v.end()) - v.begin());
}

double MaxAbsDiff(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b);
  double max_diff = 0.0;
  const double* pa = a.data();
  const double* pb = b.data();
  for (std::size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(pa[i] - pb[i]));
  }
  return max_diff;
}

}  // namespace vfl::la
