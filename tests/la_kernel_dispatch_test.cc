// Tests for the runtime GEMM kernel dispatch (la/cpu_features.h) and the
// packed microkernel path every product takes: exactness vs a naive
// reference over awkward shapes on EVERY dispatch tier the host supports
// (generic and — hardware permitting — avx2/avx512), accumulate and k=0
// semantics, bit-identity across thread counts and row counts, tier name
// parsing, and the la.kernel_path observability gauge. Runs under
// ASan/UBSan in CI so packing-buffer or tail-handling overruns surface here.
#include <gtest/gtest.h>

#include <vector>

#include "core/rng.h"
#include "la/cpu_features.h"
#include "la/matrix.h"
#include "la/matrix_ops.h"
#include "la/parallel.h"
#include "obs/metrics.h"

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

std::vector<KernelPath> SupportedPaths() {
  std::vector<KernelPath> paths;
  for (const KernelPath p :
       {KernelPath::kGeneric, KernelPath::kAvx2, KernelPath::kAvx512}) {
    if (CpuSupportsKernelPath(p)) paths.push_back(p);
  }
  return paths;
}

/// Restores auto dispatch and single-threaded kernels no matter how a test
/// exits, so a failing case can't poison the rest of the suite.
class DispatchTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ResetKernelPathToAuto();
    SetNumThreads(1);
  }
};

/// Shapes chosen to hit every edge of the packed path: 1x1, prime dims,
/// tails narrower/shorter than the widest register tile (8x16), degenerate
/// single rows/columns, exact tile multiples, and sizes big enough to cross
/// the kc/mc cache blocks and the parallel threshold.
struct Shape {
  std::size_t n, k, m;
};
const Shape kShapes[] = {{1, 1, 1},     {2, 3, 2},     {5, 7, 3},
                         {7, 13, 15},   {17, 33, 9},   {64, 64, 64},
                         {65, 129, 67}, {1, 200, 5},   {128, 1, 31},
                         {33, 70, 130}, {96, 320, 96}, {128, 384, 144}};

TEST_F(DispatchTest, EveryPathMatchesNaiveOnAwkwardShapes) {
  for (const KernelPath path : SupportedPaths()) {
    ASSERT_EQ(SetKernelPath(path), path);
    core::Rng rng(31 + static_cast<unsigned>(path));
    for (const Shape& s : kShapes) {
      SCOPED_TRACE(testing::Message()
                   << KernelPathName(path) << " " << s.n << "x" << s.k << "x"
                   << s.m);
      const Matrix a = RandomMatrix(s.n, s.k, rng);
      const Matrix b = RandomMatrix(s.k, s.m, rng);
      Matrix out;
      MatMulInto(a, b, &out);
      ExpectNear(out, NaiveMatMul(a, b));

      const Matrix at = Transpose(a);  // at is used as a^T: at^T * b == a * b
      Matrix out_ta;
      MatMulTransposedAInto(at, b, &out_ta);
      ExpectNear(out_ta, NaiveMatMul(a, b));

      const Matrix bt = Transpose(b);
      Matrix out_tb;
      MatMulTransposedBInto(a, bt, &out_tb);
      ExpectNear(out_tb, NaiveMatMul(a, b));
    }
  }
}

TEST_F(DispatchTest, AccumulateAddsOnEveryPath) {
  for (const KernelPath path : SupportedPaths()) {
    SetKernelPath(path);
    core::Rng rng(47);
    // Crosses the mc row block and leaves edge tiles on every tier.
    const Matrix a = RandomMatrix(96, 70, rng);
    const Matrix b = RandomMatrix(96, 133, rng);
    Matrix acc = RandomMatrix(70, 133, rng);
    const Matrix base = acc;
    MatMulTransposedAInto(a, b, &acc, /*accumulate=*/true);
    SCOPED_TRACE(KernelPathName(path).data());
    ExpectNear(acc, Add(base, NaiveMatMul(Transpose(a), b)));
  }
}

TEST_F(DispatchTest, KZeroZeroFillsOrKeepsAccumulateBase) {
  for (const KernelPath path : SupportedPaths()) {
    SetKernelPath(path);
    SCOPED_TRACE(KernelPathName(path).data());
    const Matrix a(5, 0);
    const Matrix b(0, 9);
    Matrix out(5, 9);
    for (std::size_t i = 0; i < out.size(); ++i) out.data()[i] = 123.0;
    // Without accumulate, an empty inner dimension must overwrite with 0.
    MatMulInto(a, b, &out);
    ASSERT_EQ(out.rows(), 5u);
    ASSERT_EQ(out.cols(), 9u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out.data()[i], 0.0);

    // With accumulate, the base survives untouched (X^T * dY with 0 rows).
    const Matrix a0(0, 5);
    const Matrix b0(0, 9);
    core::Rng rng(53);
    Matrix acc = RandomMatrix(5, 9, rng);
    const Matrix base = acc;
    MatMulTransposedAInto(a0, b0, &acc, /*accumulate=*/true);
    EXPECT_EQ(acc, base);
  }
}

TEST_F(DispatchTest, BitIdenticalAcrossThreadCountsOnEveryPath) {
  // The packed microkernels promise one shape-dependent ascending-k
  // accumulation chain per output element, independent of the ParallelFor
  // row partition — so equal bits for any thread count, on every tier.
  core::Rng rng(59);
  const Matrix a = RandomMatrix(300, 220, rng);
  const Matrix b = RandomMatrix(220, 260, rng);
  const Matrix bt = Transpose(b);
  for (const KernelPath path : SupportedPaths()) {
    SetKernelPath(path);
    SCOPED_TRACE(KernelPathName(path).data());

    SetNumThreads(1);
    Matrix serial, serial_ta, serial_tb;
    MatMulInto(a, b, &serial);
    MatMulTransposedAInto(Transpose(a), b, &serial_ta);
    MatMulTransposedBInto(a, bt, &serial_tb);

    SetNumThreads(4);
    Matrix parallel, parallel_ta, parallel_tb;
    MatMulInto(a, b, &parallel);
    MatMulTransposedAInto(Transpose(a), b, &parallel_ta);
    MatMulTransposedBInto(a, bt, &parallel_tb);
    SetNumThreads(1);

    EXPECT_EQ(serial, parallel);
    EXPECT_EQ(serial_ta, parallel_ta);
    EXPECT_EQ(serial_tb, parallel_tb);
  }
}

TEST_F(DispatchTest, EveryRowMatchesTheSameRowComputedAlone) {
  // A served prediction row must not depend on how many requests the batcher
  // fused with it: every row of a product equals, bit for bit, the product
  // of that row alone — on every tier and every shape.
  for (const KernelPath path : SupportedPaths()) {
    ASSERT_EQ(SetKernelPath(path), path);
    core::Rng rng(61 + static_cast<unsigned>(path));
    for (const Shape& s : kShapes) {
      SCOPED_TRACE(testing::Message()
                   << KernelPathName(path) << " " << s.n << "x" << s.k << "x"
                   << s.m);
      const Matrix a = RandomMatrix(s.n, s.k, rng);
      const Matrix b = RandomMatrix(s.k, s.m, rng);
      const Matrix bt = Transpose(b);
      Matrix whole, whole_tb, row, row_tb;
      MatMulInto(a, b, &whole);
      MatMulTransposedBInto(a, bt, &whole_tb);
      for (std::size_t i = 0; i < s.n; ++i) {
        const Matrix a_row = Matrix::RowVector(a.Row(i));
        MatMulInto(a_row, b, &row);
        MatMulTransposedBInto(a_row, bt, &row_tb);
        ASSERT_EQ(row.Row(0), whole.Row(i)) << "MatMulInto row " << i;
        ASSERT_EQ(row_tb.Row(0), whole_tb.Row(i))
            << "MatMulTransposedBInto row " << i;
      }
    }
  }
}

TEST_F(DispatchTest, ParseKernelPathRoundTripsAndRejects) {
  for (const KernelPath p :
       {KernelPath::kGeneric, KernelPath::kAvx2, KernelPath::kAvx512}) {
    const auto parsed = ParseKernelPath(KernelPathName(p));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, p);
  }
  // The retired deterministic tier's names select generic, the
  // reproducibility tier that replaced it.
  EXPECT_EQ(ParseKernelPath("deterministic"), KernelPath::kGeneric);
  EXPECT_EQ(ParseKernelPath("det"), KernelPath::kGeneric);
  EXPECT_FALSE(ParseKernelPath("").has_value());
  EXPECT_FALSE(ParseKernelPath("auto").has_value());
  EXPECT_FALSE(ParseKernelPath("sse9").has_value());
}

TEST_F(DispatchTest, SetKernelPathClampsToSupported) {
  // Forcing a tier the host can't run must clamp down, never crash later.
  const KernelPath got = SetKernelPath(KernelPath::kAvx512);
  EXPECT_TRUE(CpuSupportsKernelPath(got));
  EXPECT_EQ(got, ActiveKernelPath());
  // Generic is always supported, so never clamped.
  EXPECT_EQ(SetKernelPath(KernelPath::kGeneric), KernelPath::kGeneric);
}

TEST_F(DispatchTest, KernelPathGaugeTracksActivePath) {
  // Every dispatch resolution publishes the numeric tier as the
  // la.kernel_path gauge — the value vflfia_cli --metrics and the kGetStats
  // wire scrape read.
  for (const KernelPath path : SupportedPaths()) {
    SetKernelPath(path);
    const auto snapshot = obs::MetricsRegistry::Global().Snapshot();
    EXPECT_EQ(snapshot.ValueOf("la.kernel_path"),
              static_cast<std::int64_t>(path));
  }
  const KernelPath auto_path = ResetKernelPathToAuto();
  EXPECT_EQ(obs::MetricsRegistry::Global().Snapshot().ValueOf("la.kernel_path"),
            static_cast<std::int64_t>(auto_path));
}

TEST_F(DispatchTest, AutoResolvesToASupportedTier) {
  EXPECT_TRUE(CpuSupportsKernelPath(DetectBestKernelPath()));
}

}  // namespace
}  // namespace vfl::la
