// Microbenchmark for the la/ math core: GFLOP/s of the runtime-dispatched
// packed microkernels (MatMulInto, MatMulTransposedAInto/BInto) against two
// frozen in-file references — the naive ikj loop and the cache-blocked
// kernel that was the library's MatMul before the packed microkernels —
// plus Transpose bandwidth: the numbers every future kernel change has to
// beat. Results append into BENCH_perf.json (see exp::BenchJsonSink):
//   la_gemm_<n>_naive    — the naive reference
//   la_gemm_<n>_matmul   — the frozen blocked reference (pre-SIMD MatMul)
//   la_gemm_<n>_kernel*  — dispatched packed microkernels
//   la_gemm_train_<op>   — the small products the fig7 grid's training loops
//                          run (surrogate and generator layers), in GFLOP/s
//   la_kernel_path       — numeric dispatch tier the packed path resolved to
//
// Usage:
//   bench_la [--smoke] [--threads=N] [--json=PATH] [--assert-speedup=X]
//
// --smoke shrinks sizes/repetitions to CI scale and doubles as a Release
// (-O3 -DNDEBUG) correctness gate: every timed kernel result — square and
// training shapes, on every dispatch path the host supports — is checked
// against the naive reference and any mismatch exits non-zero, so UB that
// only bites with optimizations on shows up here, not in production runs.
//
// --assert-speedup=X exits non-zero unless the packed microkernels beat the
// blocked reference by at least X (geometric mean over the MatMul ratios at
// sizes >= 128, both measured in this same run so machine throttling
// cancels out) — the release-perf CI gate.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/rng.h"
#include "core/timer.h"
#include "exp/bench_json.h"
#include "la/cpu_features.h"
#include "la/matrix.h"
#include "la/matrix_ops.h"
#include "la/parallel.h"

namespace {

using vfl::la::KernelPath;
using vfl::la::Matrix;

Matrix RandomMatrix(std::size_t rows, std::size_t cols, vfl::core::Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = rng.Uniform(-1.0, 1.0);
  }
  return m;
}

/// The pre-optimization MatMul, verbatim (scalar ikj with a zero-skip
/// branch): both the correctness reference and the "before" timing column.
Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  const std::size_t n = a.rows(), k = a.cols(), m = b.cols();
  for (std::size_t i = 0; i < n; ++i) {
    const double* arow = a.RowPtr(i);
    double* orow = out.RowPtr(i);
    for (std::size_t p = 0; p < k; ++p) {
      const double aval = arow[p];
      if (aval == 0.0) continue;
      const double* brow = b.RowPtr(p);
      for (std::size_t j = 0; j < m; ++j) orow[j] += aval * brow[j];
    }
  }
  return out;
}

/// The cache-blocked MatMul the library ran before the packed microkernels,
/// frozen here as the --assert-speedup baseline: a kBlockK x kBlockJ panel
/// of b stays L2-resident, the reduction unrolls 4-way with one ascending-k
/// chain per element, and rows split over la::ParallelFor exactly as the
/// library's MatMulInto did (same FLOP threshold and row grain).
void BlockedMatMulRowRange(const Matrix& a, const Matrix& b, Matrix* out,
                           std::size_t r0, std::size_t r1) {
  constexpr std::size_t kBlockK = 64;
  constexpr std::size_t kBlockJ = 128;
  const std::size_t k = a.cols();
  const std::size_t m = b.cols();
  for (std::size_t i = r0; i < r1; ++i) {
    double* orow = out->RowPtr(i);
    std::fill(orow, orow + m, 0.0);
  }
  for (std::size_t j0 = 0; j0 < m; j0 += kBlockJ) {
    const std::size_t j1 = std::min(j0 + kBlockJ, m);
    for (std::size_t p0 = 0; p0 < k; p0 += kBlockK) {
      const std::size_t p1 = std::min(p0 + kBlockK, k);
      for (std::size_t i = r0; i < r1; ++i) {
        const double* arow = a.RowPtr(i);
        double* orow = out->RowPtr(i);
        std::size_t p = p0;
        for (; p + 4 <= p1; p += 4) {
          const double a0 = arow[p];
          const double a1 = arow[p + 1];
          const double a2 = arow[p + 2];
          const double a3 = arow[p + 3];
          const double* b0 = b.RowPtr(p);
          const double* b1 = b.RowPtr(p + 1);
          const double* b2 = b.RowPtr(p + 2);
          const double* b3 = b.RowPtr(p + 3);
          for (std::size_t j = j0; j < j1; ++j) {
            double t = orow[j];
            t += a0 * b0[j];
            t += a1 * b1[j];
            t += a2 * b2[j];
            t += a3 * b3[j];
            orow[j] = t;
          }
        }
        for (; p < p1; ++p) {
          const double aval = arow[p];
          const double* brow = b.RowPtr(p);
          for (std::size_t j = j0; j < j1; ++j) orow[j] += aval * brow[j];
        }
      }
    }
  }
}

void BlockedMatMulInto(const Matrix& a, const Matrix& b, Matrix* out) {
  out->Resize(a.rows(), b.cols());
  const std::size_t rows = a.rows();
  const std::size_t flops_per_row = a.cols() * b.cols();
  const auto kernel = [&](std::size_t r0, std::size_t r1) {
    BlockedMatMulRowRange(a, b, out, r0, r1);
  };
  if (rows * flops_per_row >= (std::size_t{1} << 21)) {
    const std::size_t grain = std::clamp<std::size_t>(
        (std::size_t{1} << 19) / std::max<std::size_t>(flops_per_row, 1), 1,
        rows);
    vfl::la::ParallelFor(0, rows, grain, kernel);
  } else {
    kernel(0, rows);
  }
}

/// Max |x - y| over two equal-shaped matrices, as a fraction of the largest
/// magnitude involved (0-safe).
double RelErr(const Matrix& x, const Matrix& y) {
  double max_abs = 1e-30;
  for (std::size_t i = 0; i < x.size(); ++i) {
    max_abs = std::max({max_abs, std::abs(x.data()[i]),
                        std::abs(y.data()[i])});
  }
  return vfl::la::MaxAbsDiff(x, y) / max_abs;
}

struct Options {
  bool smoke = false;
  std::size_t threads = 0;  // 0 = library default
  std::string json_path;
  double assert_speedup = 0.0;  // 0 = no gate
};

bool failed = false;

void CheckClose(const Matrix& got, const Matrix& want, const char* what) {
  const double err = RelErr(got, want);
  if (err > 1e-12) {
    std::fprintf(stderr, "FAIL: %s deviates from naive reference (rel err %g)\n",
                 what, err);
    failed = true;
  }
}

/// Times `fn` (which must fully recompute its result) and returns the best
/// seconds over `reps` runs — the standard microbenchmark estimator.
template <typename Fn>
double BestSeconds(std::size_t reps, Fn fn) {
  double best = 1e100;
  for (std::size_t r = 0; r < reps; ++r) {
    vfl::core::Timer timer;
    fn();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

/// GFLOP/s of the three GEMM ops on the currently active kernel path,
/// verifying each result against the naive reference.
struct GemmGflops {
  double mm = 0.0;
  double ta = 0.0;
  double tb = 0.0;
};

GemmGflops TimeGemms(const Matrix& a, const Matrix& b, const Matrix& naive_out,
                     std::size_t reps, const char* label) {
  const std::size_t n = a.rows();
  const double flops = 2.0 * static_cast<double>(n) * n * n;
  char what[64];
  GemmGflops g;

  Matrix out;
  const double mm = BestSeconds(reps, [&] { vfl::la::MatMulInto(a, b, &out); });
  std::snprintf(what, sizeof(what), "MatMulInto[%s]", label);
  CheckClose(out, naive_out, what);
  g.mm = flops / mm / 1e9;

  Matrix out_ta;
  const double ta = BestSeconds(
      reps, [&] { vfl::la::MatMulTransposedAInto(a, b, &out_ta); });
  std::snprintf(what, sizeof(what), "MatMulTransposedAInto[%s]", label);
  CheckClose(out_ta, NaiveMatMul(vfl::la::Transpose(a), b), what);
  g.ta = flops / ta / 1e9;

  Matrix out_tb;
  const double tb = BestSeconds(
      reps, [&] { vfl::la::MatMulTransposedBInto(a, b, &out_tb); });
  std::snprintf(what, sizeof(what), "MatMulTransposedBInto[%s]", label);
  CheckClose(out_tb, NaiveMatMul(a, vfl::la::Transpose(b)), what);
  g.tb = flops / tb / 1e9;
  return g;
}

/// Per-size measurement: ratios feed the --assert-speedup gate.
struct SizeResult {
  std::size_t n = 0;
  double blocked_mm = 0.0;
  double kernel_mm = 0.0;
};

SizeResult BenchGemmSize(std::size_t n, std::size_t reps, bool smoke,
                         vfl::exp::BenchJsonSink& sink) {
  vfl::core::Rng rng(7 + n);
  const Matrix a = RandomMatrix(n, n, rng);
  const Matrix b = RandomMatrix(n, n, rng);
  const double flops = 2.0 * static_cast<double>(n) * n * n;

  Matrix naive_out;
  const double naive =
      BestSeconds(std::max<std::size_t>(reps / 2, 1),
                  [&] { naive_out = NaiveMatMul(a, b); });
  const double naive_gflops = flops / naive / 1e9;

  // Frozen blocked reference: the baseline the gate divides by, timed in the
  // same run as the packed path.
  Matrix blocked_out;
  const double blocked_s =
      BestSeconds(reps, [&] { BlockedMatMulInto(a, b, &blocked_out); });
  CheckClose(blocked_out, naive_out, "BlockedMatMulInto");
  const double blocked_gflops = flops / blocked_s / 1e9;

  // Dispatched packed microkernels (VFLFIA_LA_KERNEL still applies: reset
  // re-reads the environment, so a forced-generic CI run times generic).
  const KernelPath fast = vfl::la::ResetKernelPathToAuto();
  const GemmGflops kernel =
      TimeGemms(a, b, naive_out, reps, vfl::la::KernelPathName(fast).data());

  // In smoke mode, additionally verify every other supported dispatch tier
  // against the naive reference (timing only the tiers above).
  if (smoke) {
    for (const KernelPath path : {KernelPath::kGeneric, KernelPath::kAvx2,
                                  KernelPath::kAvx512}) {
      if (path == fast || !vfl::la::CpuSupportsKernelPath(path)) continue;
      vfl::la::SetKernelPath(path);
      TimeGemms(a, b, naive_out, 1, vfl::la::KernelPathName(path).data());
    }
    vfl::la::ResetKernelPathToAuto();
  }

  Matrix out_t;
  const double tr = BestSeconds(reps, [&] { vfl::la::TransposeInto(a, &out_t); });
  const double tr_gbps = 2.0 * static_cast<double>(a.size()) * sizeof(double) /
                         tr / 1e9;

  std::printf("%4zu  %8.3f  %9.3f  %9.3f  %8.2f\n", n, naive_gflops,
              blocked_gflops, kernel.mm, tr_gbps);
  const std::string prefix = "la_gemm_" + std::to_string(n);
  sink.Record(prefix + "_naive", naive_gflops, "gflops");
  sink.Record(prefix + "_matmul", blocked_gflops, "gflops");
  sink.Record(prefix + "_kernel", kernel.mm, "gflops");
  sink.Record(prefix + "_kernel_ta", kernel.ta, "gflops");
  sink.Record(prefix + "_kernel_tb", kernel.tb, "gflops");
  sink.Record("la_transpose_" + std::to_string(n), tr_gbps, "GB/s");
  return {n, blocked_gflops, kernel.mm};
}

/// One product of the training loops at CI ("small") scale: the RF
/// surrogate's first layer on drive (128-row batches, 48 features, 128
/// hidden units) forward, weight gradient X^T*dY and input gradient dY*W^T,
/// and the GRNA generator's 64-row layers (48 -> 64 -> 32 -> 24 target
/// features at a 50% split).
struct TrainShape {
  const char* name;
  std::size_t m, k, n;  // op_a(A) is m x k, op_b(B) is k x n
  bool trans_a;
  bool trans_b;
};
constexpr TrainShape kTrainShapes[] = {
    {"surrogate_fwd", 128, 48, 128, false, false},
    {"surrogate_xtdy", 48, 128, 128, true, false},
    {"surrogate_dywt", 128, 128, 48, false, true},
    {"gen_l1_fwd", 64, 48, 64, false, false},
    {"gen_l2_fwd", 64, 64, 32, false, false},
    {"gen_out_fwd", 64, 32, 24, false, false},
};

/// Runs one training-shape product through its public entry point.
void RunTrainShape(const TrainShape& s, const Matrix& a, const Matrix& b,
                   Matrix* out) {
  if (s.trans_a) {
    vfl::la::MatMulTransposedAInto(a, b, out);
  } else if (s.trans_b) {
    vfl::la::MatMulTransposedBInto(a, b, out);
  } else {
    vfl::la::MatMulInto(a, b, out);
  }
}

/// Times every training shape on the active tier (best of `reps` batches of
/// back-to-back calls, since one call takes microseconds), checks each
/// result against the naive reference on every supported tier, and records
/// `la_gemm_train_<name>`.
void BenchTrainShapes(std::size_t reps, bool smoke,
                      vfl::exp::BenchJsonSink& sink) {
  constexpr std::size_t kCallsPerRep = 200;
  std::printf("training shapes (m x k x n)          GFLOP/s\n");
  vfl::core::Rng rng(99);
  for (const TrainShape& s : kTrainShapes) {
    const Matrix a = s.trans_a ? RandomMatrix(s.k, s.m, rng)
                               : RandomMatrix(s.m, s.k, rng);
    const Matrix b = s.trans_b ? RandomMatrix(s.n, s.k, rng)
                               : RandomMatrix(s.k, s.n, rng);
    const Matrix want =
        NaiveMatMul(s.trans_a ? vfl::la::Transpose(a) : a,
                    s.trans_b ? vfl::la::Transpose(b) : b);
    Matrix out;
    const double seconds = BestSeconds(reps, [&] {
      for (std::size_t c = 0; c < kCallsPerRep; ++c) RunTrainShape(s, a, b, &out);
    });
    char what[96];
    std::snprintf(what, sizeof(what), "train %s[%s]", s.name,
                  vfl::la::KernelPathName(vfl::la::ActiveKernelPath()).data());
    CheckClose(out, want, what);
    if (smoke) {
      for (const KernelPath path : {KernelPath::kGeneric, KernelPath::kAvx2,
                                    KernelPath::kAvx512}) {
        if (!vfl::la::CpuSupportsKernelPath(path)) continue;
        vfl::la::SetKernelPath(path);
        RunTrainShape(s, a, b, &out);
        std::snprintf(what, sizeof(what), "train %s[%s]", s.name,
                      vfl::la::KernelPathName(path).data());
        CheckClose(out, want, what);
      }
      vfl::la::ResetKernelPathToAuto();
    }
    const double gflops = 2.0 * static_cast<double>(s.m * s.k * s.n) *
                          kCallsPerRep / seconds / 1e9;
    std::printf("  %-16s %4zu x %3zu x %3zu  %9.3f\n", s.name, s.m, s.k, s.n,
                gflops);
    sink.Record(std::string("la_gemm_train_") + s.name, gflops, "gflops");
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      options.smoke = true;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      options.threads = static_cast<std::size_t>(std::atol(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      options.json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--assert-speedup=", 17) == 0) {
      options.assert_speedup = std::atof(argv[i] + 17);
    } else {
      std::fprintf(stderr,
                   "usage: bench_la [--smoke] [--threads=N] [--json=PATH] "
                   "[--assert-speedup=X]\n");
      return 2;
    }
  }
  if (options.threads > 0) vfl::la::SetNumThreads(options.threads);

  vfl::exp::BenchJsonSink sink(options.json_path);
  const KernelPath auto_path = vfl::la::ResetKernelPathToAuto();
  std::printf("la/ math-core microbenchmark (threads=%zu, dispatch=%s%s)\n",
              vfl::la::NumThreads(),
              vfl::la::KernelPathName(auto_path).data(),
              options.smoke ? ", smoke" : "");
  std::printf("   n     naive    blocked     kernel  transpose\n");
  std::printf("       GFLOP/s    GFLOP/s    GFLOP/s       GB/s\n");

  const std::vector<std::size_t> sizes =
      options.smoke ? std::vector<std::size_t>{33, 64, 96}
                    : std::vector<std::size_t>{64, 128, 256, 384, 512};
  const std::size_t reps = options.smoke ? 3 : 7;
  std::vector<SizeResult> results;
  for (const std::size_t n : sizes) {
    results.push_back(BenchGemmSize(n, reps, options.smoke, sink));
  }
  BenchTrainShapes(reps, options.smoke, sink);
  sink.Record("la_kernel_path", static_cast<double>(auto_path), "tier");

  if (failed) {
    std::fprintf(stderr, "bench_la: kernel/naive mismatch detected\n");
    return 1;
  }
  if (options.assert_speedup > 0.0) {
    // Geometric mean of the per-size kernel/blocked MatMul ratios, over
    // sizes large enough (>= 128) that packing overhead is amortized; falls
    // back to all sizes when the run has none (smoke).
    double log_sum = 0.0;
    std::size_t count = 0;
    for (const SizeResult& r : results) {
      if (r.n < 128 && results.back().n >= 128) continue;
      log_sum += std::log(r.kernel_mm / r.blocked_mm);
      ++count;
    }
    const double geomean = std::exp(log_sum / static_cast<double>(count));
    std::printf("packed-kernel speedup over blocked: %.2fx (gate %.2fx)\n",
                geomean, options.assert_speedup);
    if (geomean < options.assert_speedup) {
      std::fprintf(stderr,
                   "bench_la: packed microkernels %.2fx over blocked kernels, "
                   "below the %.2fx gate\n",
                   geomean, options.assert_speedup);
      return 3;
    }
  }
  const vfl::core::Status status = sink.Flush();
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", sink.path().c_str());
  return 0;
}
