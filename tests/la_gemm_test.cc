// Tests for the packed/parallel GEMM entry points and the ParallelFor helpers:
// equivalence to a naive in-test reference on random shapes (including
// non-multiples of the block sizes), accumulate semantics, aliasing guards,
// bit-identical results across kernel thread counts, and the driver's
// per-element arithmetic reproduced bit for bit on every dispatch tier, for
// every operand orientation, whether a panel is read in place or packed.
// Built with -ffp-contract=off so the multiply-then-add reference stays
// unfused.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "core/rng.h"
#include "la/cpu_features.h"
#include "la/gemm_packed.h"
#include "la/matrix.h"
#include "la/matrix_ops.h"
#include "la/parallel.h"
#include "serve/thread_pool.h"

namespace vfl::la {
namespace {

Matrix RandomMatrix(std::size_t rows, std::size_t cols, core::Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = rng.Uniform(-2.0, 2.0);
  }
  return m;
}

Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t p = 0; p < a.cols(); ++p) {
      for (std::size_t j = 0; j < b.cols(); ++j) {
        out(i, j) += a(i, p) * b(p, j);
      }
    }
  }
  return out;
}

void ExpectNear(const Matrix& got, const Matrix& want, double tol = 1e-11) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  EXPECT_LE(MaxAbsDiff(got, want), tol);
}

/// Shapes chosen to straddle the packed driver's mc row block (128) and the
/// register tiles (4x8 up to 8x16): non-multiples, degenerate single
/// rows/columns.
struct Shape {
  std::size_t n, k, m;
};
const Shape kShapes[] = {{1, 1, 1},   {2, 3, 2},    {5, 7, 3},
                         {17, 33, 9}, {64, 64, 64}, {65, 129, 67},
                         {1, 200, 5}, {128, 1, 31}, {33, 70, 130}};

TEST(GemmTest, MatMulIntoMatchesNaive) {
  core::Rng rng(11);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.n, s.k, rng);
    const Matrix b = RandomMatrix(s.k, s.m, rng);
    Matrix out;
    MatMulInto(a, b, &out);
    ExpectNear(out, NaiveMatMul(a, b));
  }
}

TEST(GemmTest, MatMulTransposedAIntoMatchesNaive) {
  core::Rng rng(12);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.k, s.n, rng);  // used as a^T
    const Matrix b = RandomMatrix(s.k, s.m, rng);
    Matrix out;
    MatMulTransposedAInto(a, b, &out);
    ExpectNear(out, NaiveMatMul(Transpose(a), b));
  }
}

TEST(GemmTest, MatMulTransposedBIntoMatchesNaive) {
  core::Rng rng(13);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.n, s.k, rng);
    const Matrix b = RandomMatrix(s.m, s.k, rng);  // used as b^T
    Matrix out;
    MatMulTransposedBInto(a, b, &out);
    ExpectNear(out, NaiveMatMul(a, Transpose(b)));
  }
}

TEST(GemmTest, TransposedAIntoAccumulates) {
  core::Rng rng(14);
  const Matrix a = RandomMatrix(37, 19, rng);
  const Matrix b = RandomMatrix(37, 23, rng);
  Matrix acc = RandomMatrix(19, 23, rng);
  const Matrix base = acc;
  MatMulTransposedAInto(a, b, &acc, /*accumulate=*/true);
  const Matrix expected = Add(base, NaiveMatMul(Transpose(a), b));
  ExpectNear(acc, expected);
}

TEST(GemmTest, IntoReusesCapacityAcrossShapes) {
  core::Rng rng(15);
  Matrix out;
  // Shrinking then regrowing within capacity must still produce correct
  // shapes and values (Resize leaves contents unspecified, kernels overwrite).
  for (const std::size_t n : {40u, 8u, 33u}) {
    const Matrix a = RandomMatrix(n, 21, rng);
    const Matrix b = RandomMatrix(21, n + 3, rng);
    MatMulInto(a, b, &out);
    ExpectNear(out, NaiveMatMul(a, b));
  }
}

TEST(GemmTest, TransposeIntoMatchesElementwise) {
  core::Rng rng(16);
  // Straddles the 32x32 transpose tile.
  const Matrix m = RandomMatrix(70, 33, rng);
  Matrix out;
  TransposeInto(m, &out);
  ASSERT_EQ(out.rows(), m.cols());
  ASSERT_EQ(out.cols(), m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      EXPECT_EQ(out(c, r), m(r, c));
    }
  }
}

TEST(GemmTest, ShapeMismatchesAndAliasingAreChecked) {
  core::Rng rng(21);
  const Matrix a = RandomMatrix(4, 5, rng);
  const Matrix b = RandomMatrix(6, 7, rng);  // inner dims disagree
  Matrix out;
  EXPECT_DEATH(MatMulInto(a, b, &out), "");
  EXPECT_DEATH(MatMulTransposedAInto(a, b, &out), "");
  EXPECT_DEATH(MatMulTransposedBInto(a, b, &out), "");
  // Accumulate requires a correctly pre-shaped output.
  Matrix wrong_shape(1, 1);
  const Matrix c = RandomMatrix(4, 7, rng);
  EXPECT_DEATH(
      MatMulTransposedAInto(a, c, &wrong_shape, /*accumulate=*/true), "");
  // Output must not alias an input.
  Matrix square = RandomMatrix(5, 5, rng);
  EXPECT_DEATH(MatMulInto(square, square, &square), "");
}

TEST(GemmTest, AllocatingWrappersStillWork) {
  core::Rng rng(17);
  const Matrix a = RandomMatrix(9, 31, rng);
  const Matrix b = RandomMatrix(31, 6, rng);
  ExpectNear(MatMul(a, b), NaiveMatMul(a, b));
  ExpectNear(Transpose(Transpose(a)), a, 0.0);
}

TEST(GemmTest, BitIdenticalAcrossThreadCounts) {
  // The kernels promise ascending-k accumulation per output element for any
  // row partition, so forcing different thread counts over a
  // threshold-crossing size must give equal bits.
  core::Rng rng(18);
  const Matrix a = RandomMatrix(300, 220, rng);
  const Matrix b = RandomMatrix(220, 260, rng);

  SetNumThreads(1);
  Matrix serial;
  MatMulInto(a, b, &serial);
  Matrix serial_tb;
  MatMulTransposedBInto(a, Transpose(b), &serial_tb);

  SetNumThreads(4);
  Matrix parallel;
  MatMulInto(a, b, &parallel);
  Matrix parallel_tb;
  MatMulTransposedBInto(a, Transpose(b), &parallel_tb);
  SetNumThreads(1);

  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial_tb, parallel_tb);
}

/// out(i, j) (+)= sum_p op_a(a)(i, p) * op_b(b)(p, j) exactly as the driver
/// computes it: per k block of kGemmBlockK steps, one ascending chain from
/// zero (std::fma on the SIMD tiers, multiply-then-add on generic), then
/// one store (first block without accumulate) or one add to C.
void ReferenceGemm(const Matrix& a, bool trans_a, const Matrix& b,
                   bool trans_b, bool fused, bool accumulate, Matrix* out) {
  const std::size_t k = trans_a ? a.rows() : a.cols();
  for (std::size_t i = 0; i < out->rows(); ++i) {
    for (std::size_t j = 0; j < out->cols(); ++j) {
      double c = (*out)(i, j);
      for (std::size_t pc = 0; pc < k; pc += internal::kGemmBlockK) {
        const std::size_t pe = std::min(k, pc + internal::kGemmBlockK);
        double chain = 0.0;
        for (std::size_t p = pc; p < pe; ++p) {
          const double av = trans_a ? a(p, i) : a(i, p);
          const double bv = trans_b ? b(j, p) : b(p, j);
          chain = fused ? std::fma(av, bv, chain) : chain + av * bv;
        }
        c = pc == 0 && !accumulate ? chain : c + chain;
      }
      if (k == 0 && !accumulate) c = 0.0;
      (*out)(i, j) = c;
    }
  }
}

std::vector<KernelPath> HostPaths() {
  std::vector<KernelPath> paths;
  for (const KernelPath p :
       {KernelPath::kGeneric, KernelPath::kAvx2, KernelPath::kAvx512}) {
    if (CpuSupportsKernelPath(p)) paths.push_back(p);
  }
  return paths;
}

TEST(GemmTest, EveryOrientationMatchesPerElementReferenceBitForBit) {
  // m and n off every tier's mr/nr grid (4x8, 6x8, 8x16); k = 700 spans
  // three k blocks, so in-place panels are read from k offsets 320 and 640.
  // n = 4100 crosses the 4096-column block. Row ranges start mid-panel and
  // end inside the matrix, so a packed row-tail panel sits mid-operand.
  struct Case {
    std::size_t m, k, n;
  };
  const Case cases[] = {{37, 700, 45}, {19, 333, 16}, {9, 5, 4100},
                        {1, 41, 11}};
  core::Rng rng(19);
  for (const KernelPath path : HostPaths()) {
    const internal::GemmMicrokernel& uk = *internal::MicrokernelForPath(path);
    const bool fused = path != KernelPath::kGeneric;
    for (const Case& c : cases) {
      for (const bool trans_a : {false, true}) {
        for (const bool trans_b : {false, true}) {
          const Matrix a = trans_a ? RandomMatrix(c.k, c.m, rng)
                                   : RandomMatrix(c.m, c.k, rng);
          const Matrix b = trans_b ? RandomMatrix(c.n, c.k, rng)
                                   : RandomMatrix(c.k, c.n, rng);
          const Matrix base = RandomMatrix(c.m, c.n, rng);
          for (const bool accumulate : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << KernelPathName(path) << " " << c.m << "x" << c.k
                         << "x" << c.n << " trans_a=" << trans_a
                         << " trans_b=" << trans_b
                         << " accumulate=" << accumulate);
            Matrix want = base;
            ReferenceGemm(a, trans_a, b, trans_b, fused, accumulate, &want);
            // Whole range, then a split whose pieces start mid-panel.
            const std::size_t cut1 = std::min<std::size_t>(3, c.m);
            const std::size_t cut2 = std::min(c.m, cut1 + 2 * uk.mr + 1);
            const std::vector<std::vector<std::size_t>> splits = {
                {0, c.m}, {0, cut1, cut2, c.m}};
            for (const std::vector<std::size_t>& split : splits) {
              Matrix got = base;
              for (std::size_t s = 0; s + 1 < split.size(); ++s) {
                internal::PackedGemmRowRange(a, trans_a, b, trans_b, &got,
                                             accumulate, uk, split[s],
                                             split[s + 1]);
              }
              EXPECT_EQ(got, want);
            }
          }
        }
      }
    }
  }
}

TEST(GemmTest, EntryPointsMatchPerElementReferenceOnEveryTier) {
  // The public entry points on the dispatched tier, at a size that crosses
  // the parallel threshold: the row split must not show in the bits.
  core::Rng rng(23);
  const Matrix x = RandomMatrix(131, 340, rng);
  const Matrix w = RandomMatrix(340, 70, rng);
  const Matrix dy = RandomMatrix(131, 70, rng);
  for (const KernelPath path : HostPaths()) {
    ASSERT_EQ(SetKernelPath(path), path);
    SCOPED_TRACE(KernelPathName(path).data());
    const bool fused = path != KernelPath::kGeneric;
    for (const std::size_t threads : {1u, 4u}) {
      SetNumThreads(threads);
      Matrix got;
      MatMulInto(x, w, &got);
      Matrix want(131, 70);
      ReferenceGemm(x, false, w, false, fused, false, &want);
      EXPECT_EQ(got, want);

      MatMulTransposedBInto(dy, w, &got);  // dY * W^T
      want = Matrix(131, 340);
      ReferenceGemm(dy, false, w, true, fused, false, &want);
      EXPECT_EQ(got, want);

      Matrix grad = RandomMatrix(340, 70, rng);  // dW += X^T * dY
      want = grad;
      MatMulTransposedAInto(x, dy, &grad, /*accumulate=*/true);
      ReferenceGemm(x, true, dy, false, fused, true, &want);
      EXPECT_EQ(grad, want);
    }
  }
  ResetKernelPathToAuto();
  SetNumThreads(1);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  serve::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(997);
  pool.ParallelFor(0, hits.size(), /*min_chunk=*/10,
                   [&](std::size_t b, std::size_t e) {
                     for (std::size_t i = b; i < e; ++i) {
                       hits[i].fetch_add(1);
                     }
                   });
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyAndSingleRanges) {
  serve::ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(5, 5, 1, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);

  std::atomic<int> sum{0};
  pool.ParallelFor(7, 8, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 7);
}

TEST(ParallelForTest, RunsInlineAfterShutdown) {
  serve::ThreadPool pool(2);
  pool.Shutdown();
  std::vector<int> hits(50, 0);
  // No workers left: chunks must still execute (on the calling thread).
  pool.ParallelFor(0, hits.size(), 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i] += 1;
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(LaParallelForTest, NestedCallsFallBackToSerial) {
  SetNumThreads(4);
  std::vector<std::atomic<int>> hits(512);
  ParallelFor(0, hits.size(), 1, [&](std::size_t b, std::size_t e) {
    // A nested ParallelFor inside a chunk must not deadlock the shared
    // pool; it runs the nested range serially on this thread.
    ParallelFor(b, e, 1, [&](std::size_t nb, std::size_t ne) {
      for (std::size_t i = nb; i < ne; ++i) hits[i].fetch_add(1);
    });
  });
  SetNumThreads(1);
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace vfl::la
