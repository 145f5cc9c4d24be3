// Tests for the runtime kernel dispatch (la/cpu_features.h), the packed
// microkernel path every product takes and the elementwise kernels
// (la/elementwise.h): GEMM exactness vs a naive reference over awkward
// shapes on EVERY dispatch tier the host supports (generic and — hardware
// permitting — avx2/avx512), accumulate and k=0 semantics, bit-identity
// across thread counts and row counts; every elementwise kernel on every
// tier bit-identical to its scalar loop (this TU is built with
// -ffp-contract=off so the references below are those loops); tier name
// parsing and the la.kernel_path observability gauge. Runs under ASan/UBSan
// in CI so packing-buffer or tail-handling overruns surface here.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/rng.h"
#include "la/cpu_features.h"
#include "la/elementwise.h"
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

// ---------------------------------------------------------------------------
// Elementwise kernels: every tier against the scalar loop, bit for bit.
// ---------------------------------------------------------------------------

const std::size_t kLengths[] = {0, 1, 7, 8, 9, 17, 1000};

/// Uniform values in (-2, 2) with the IEEE corner cases spliced in: +-0,
/// NaN, subnormals and infinities of both signs.
Matrix ValuesWithSpecials(std::size_t rows, std::size_t cols, core::Rng& rng) {
  Matrix m = RandomMatrix(rows, cols, rng);
  const double kSpecials[] = {0.0,
                              -0.0,
                              std::numeric_limits<double>::quiet_NaN(),
                              -std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::denorm_min(),
                              -std::numeric_limits<double>::denorm_min(),
                              1e-310,
                              -1e-310,
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()};
  for (std::size_t i = 0; i < m.size(); i += 3) {
    m.data()[i] = kSpecials[(i / 3) % std::size(kSpecials)];
  }
  return m;
}

void ExpectSameBits(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.data()[i]),
              std::bit_cast<std::uint64_t>(want.data()[i]))
        << "element " << i << ": " << got.data()[i] << " vs "
        << want.data()[i];
  }
}

Matrix AsRow(const std::vector<double>& v) {
  return Matrix::FromFlat(1, v.size(), v);
}

TEST_F(DispatchTest, ReluKernelsMatchScalarBitsOnEveryPath) {
  for (const KernelPath path : SupportedPaths()) {
    ASSERT_EQ(SetKernelPath(path), path);
    core::Rng rng(67);
    for (const std::size_t n : kLengths) {
      SCOPED_TRACE(testing::Message() << KernelPathName(path) << " n=" << n);
      const Matrix x = ValuesWithSpecials(1, n, rng);
      const Matrix grad_in = ValuesWithSpecials(1, n, rng);
      Matrix want_y(1, n), want_grad(1, n);
      for (std::size_t i = 0; i < n; ++i) {
        const double xi = x.data()[i];
        want_y.data()[i] = xi > 0.0 ? xi : 0.0;
        want_grad.data()[i] = xi > 0.0 ? grad_in.data()[i] : 0.0;
      }
      Matrix y;
      Relu(x, &y);
      ExpectSameBits(y, want_y);
      // The backward mask is the same whether taken from input or output.
      Matrix grad = grad_in;
      ReluBackwardInPlace(x, &grad);
      ExpectSameBits(grad, want_grad);
      grad = grad_in;
      ReluBackwardInPlace(y, &grad);
      ExpectSameBits(grad, want_grad);
    }
  }
}

TEST_F(DispatchTest, SigmoidBackwardMatchesScalarBitsOnEveryPath) {
  for (const KernelPath path : SupportedPaths()) {
    ASSERT_EQ(SetKernelPath(path), path);
    core::Rng rng(71);
    for (const std::size_t n : kLengths) {
      SCOPED_TRACE(testing::Message() << KernelPathName(path) << " n=" << n);
      const Matrix s = RandomMatrix(1, n, rng);
      const Matrix grad_in = RandomMatrix(1, n, rng);
      Matrix want(1, n);
      for (std::size_t i = 0; i < n; ++i) {
        const double si = s.data()[i];
        want.data()[i] = grad_in.data()[i] * (si * (1.0 - si));
      }
      Matrix grad = grad_in;
      SigmoidBackwardInPlace(s, &grad);
      ExpectSameBits(grad, want);
    }
  }
}

TEST_F(DispatchTest, RowKernelsMatchScalarBitsOnEveryPath) {
  constexpr std::size_t kRows = 5;
  for (const KernelPath path : SupportedPaths()) {
    ASSERT_EQ(SetKernelPath(path), path);
    core::Rng rng(73);
    for (const std::size_t n : kLengths) {
      SCOPED_TRACE(testing::Message() << KernelPathName(path) << " n=" << n);
      const Matrix a = RandomMatrix(kRows, n, rng);
      const Matrix b = RandomMatrix(kRows, n, rng);
      const Matrix row = RandomMatrix(1, n, rng);
      Matrix want_broadcast = a;
      Matrix want_sums = row, want_dots = row;
      for (std::size_t r = 0; r < kRows; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
          want_broadcast(r, c) += row(0, c);
          want_sums(0, c) += a(r, c);
          want_dots(0, c) += a(r, c) * b(r, c);
        }
      }
      Matrix broadcast = a;
      AddRowBroadcastInPlace(&broadcast, row.data());
      ExpectSameBits(broadcast, want_broadcast);
      Matrix sums = row, dots = row;
      AccumulateColSums(a, sums.data());
      ExpectSameBits(sums, want_sums);
      AccumulateColDots(a, b, dots.data());
      ExpectSameBits(dots, want_dots);
    }
  }
}

TEST_F(DispatchTest, LayerNormKernelsMatchScalarBitsOnEveryPath) {
  constexpr std::size_t kRows = 4;
  constexpr double kEpsilon = 1e-5;
  for (const KernelPath path : SupportedPaths()) {
    ASSERT_EQ(SetKernelPath(path), path);
    core::Rng rng(79);
    for (const std::size_t d : kLengths) {
      if (d == 0) continue;  // a row of no features has no mean
      SCOPED_TRACE(testing::Message() << KernelPathName(path) << " d=" << d);
      const Matrix x = RandomMatrix(kRows, d, rng);
      const Matrix gain = RandomMatrix(1, d, rng);
      const Matrix bias = RandomMatrix(1, d, rng);
      const Matrix grad_in = RandomMatrix(kRows, d, rng);

      Matrix want_norm(kRows, d), want_out(kRows, d), want_grad = grad_in;
      std::vector<double> want_inv(kRows);
      const double inv_d = 1.0 / static_cast<double>(d);
      for (std::size_t r = 0; r < kRows; ++r) {
        double mean = 0.0;
        for (std::size_t c = 0; c < d; ++c) mean += x(r, c);
        mean /= static_cast<double>(d);
        double var = 0.0;
        for (std::size_t c = 0; c < d; ++c) {
          const double diff = x(r, c) - mean;
          var += diff * diff;
        }
        var /= static_cast<double>(d);
        want_inv[r] = 1.0 / std::sqrt(var + kEpsilon);
        for (std::size_t c = 0; c < d; ++c) {
          want_norm(r, c) = (x(r, c) - mean) * want_inv[r];
          want_out(r, c) = want_norm(r, c) * gain(0, c) + bias(0, c);
        }
        double mean_h = 0.0, mean_h_norm = 0.0;
        for (std::size_t c = 0; c < d; ++c) {
          const double h = grad_in(r, c) * gain(0, c);
          mean_h += h;
          mean_h_norm += h * want_norm(r, c);
        }
        mean_h *= inv_d;
        mean_h_norm *= inv_d;
        for (std::size_t c = 0; c < d; ++c) {
          const double h = grad_in(r, c) * gain(0, c);
          want_grad(r, c) =
              want_inv[r] * (h - mean_h - want_norm(r, c) * mean_h_norm);
        }
      }

      Matrix norm, out;
      std::vector<double> inv;
      LayerNormForward(x, gain.data(), bias.data(), kEpsilon, &norm, &inv,
                       &out);
      ExpectSameBits(norm, want_norm);
      ExpectSameBits(out, want_out);
      ExpectSameBits(AsRow(inv), AsRow(want_inv));
      Matrix grad = grad_in;
      LayerNormBackwardInPlace(norm, inv, gain.data(), &grad);
      ExpectSameBits(grad, want_grad);
    }
  }
}

TEST_F(DispatchTest, AdamUpdateMatchesScalarBitsOnEveryPath) {
  const AdamCoefficients k{1e-3, 0.9, 0.999, 1e-8, 1e-2,
                           1.0 - std::pow(0.9, 3), 1.0 - std::pow(0.999, 3)};
  for (const KernelPath path : SupportedPaths()) {
    ASSERT_EQ(SetKernelPath(path), path);
    core::Rng rng(83);
    for (const std::size_t n : kLengths) {
      SCOPED_TRACE(testing::Message() << KernelPathName(path) << " n=" << n);
      const Matrix grad = RandomMatrix(1, n, rng);
      const Matrix m0 = RandomMatrix(1, n, rng);
      Matrix v0 = RandomMatrix(1, n, rng);
      for (std::size_t i = 0; i < n; ++i) v0.data()[i] *= v0.data()[i];
      const Matrix value0 = RandomMatrix(1, n, rng);

      Matrix want_m = m0, want_v = v0, want_value = value0;
      for (std::size_t j = 0; j < n; ++j) {
        const double g = grad.data()[j] + k.weight_decay * want_value.data()[j];
        double& m = want_m.data()[j];
        double& v = want_v.data()[j];
        m = k.beta1 * m + (1.0 - k.beta1) * g;
        v = k.beta2 * v + (1.0 - k.beta2) * g * g;
        const double m_hat = m / k.bias1;
        const double v_hat = v / k.bias2;
        want_value.data()[j] -=
            k.learning_rate * m_hat / (std::sqrt(v_hat) + k.epsilon);
      }
      Matrix m = m0, v = v0, value = value0;
      AdamUpdate(k, grad, &m, &v, &value);
      ExpectSameBits(m, want_m);
      ExpectSameBits(v, want_v);
      ExpectSameBits(value, want_value);
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
