// AVX2/FMA microkernel TU. Built with -mavx2 -mfma regardless of the global
// -march (see the set_source_files_properties block in the root
// CMakeLists.txt); the code is only ever executed after cpuid-based dispatch
// confirms the host supports AVX2+FMA, so nothing here may leak into a
// static initializer or inline header function.
#include "la/gemm_packed.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace vfl::la::internal {
namespace {

// 6x8 doubles of accumulators: 12 YMM accumulator registers plus two B loads
// and one rotating broadcast leave headroom in the 16-register file. Each
// accumulator is one ascending-k FMA chain; with 2 FMAs issued per cycle and
// 4-cycle latency, 12 independent chains keep both FMA ports saturated.
constexpr std::size_t kMr = 6;
constexpr std::size_t kNr = 8;

void Avx2Kernel6x8(std::size_t kc, const double* a, std::size_t rs_a,
                   std::size_t cs_a, const double* b, std::size_t rs_b,
                   double* c, std::size_t ldc, bool accumulate) {
  __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
  __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
  __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
  __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
  __m256d c40 = _mm256_setzero_pd(), c41 = _mm256_setzero_pd();
  __m256d c50 = _mm256_setzero_pd(), c51 = _mm256_setzero_pd();

  // Row i of the A panel at p is a[i*rs_a + p*cs_a]: one base pointer per
  // row, indexed by p*cs_a. B rows load unaligned.
  const double* a0 = a;
  const double* a1 = a0 + rs_a;
  const double* a2 = a1 + rs_a;
  const double* a3 = a2 + rs_a;
  const double* a4 = a3 + rs_a;
  const double* a5 = a4 + rs_a;
  for (std::size_t p = 0; p < kc; ++p) {
    const std::size_t o = p * cs_a;
    const __m256d b0 = _mm256_loadu_pd(b);
    const __m256d b1 = _mm256_loadu_pd(b + 4);
    __m256d av;
    av = _mm256_broadcast_sd(a0 + o);
    c00 = _mm256_fmadd_pd(av, b0, c00);
    c01 = _mm256_fmadd_pd(av, b1, c01);
    av = _mm256_broadcast_sd(a1 + o);
    c10 = _mm256_fmadd_pd(av, b0, c10);
    c11 = _mm256_fmadd_pd(av, b1, c11);
    av = _mm256_broadcast_sd(a2 + o);
    c20 = _mm256_fmadd_pd(av, b0, c20);
    c21 = _mm256_fmadd_pd(av, b1, c21);
    av = _mm256_broadcast_sd(a3 + o);
    c30 = _mm256_fmadd_pd(av, b0, c30);
    c31 = _mm256_fmadd_pd(av, b1, c31);
    av = _mm256_broadcast_sd(a4 + o);
    c40 = _mm256_fmadd_pd(av, b0, c40);
    c41 = _mm256_fmadd_pd(av, b1, c41);
    av = _mm256_broadcast_sd(a5 + o);
    c50 = _mm256_fmadd_pd(av, b0, c50);
    c51 = _mm256_fmadd_pd(av, b1, c51);
    b += rs_b;
  }

  const auto store_row = [accumulate](double* crow, __m256d lo, __m256d hi) {
    if (accumulate) {
      lo = _mm256_add_pd(_mm256_loadu_pd(crow), lo);
      hi = _mm256_add_pd(_mm256_loadu_pd(crow + 4), hi);
    }
    _mm256_storeu_pd(crow, lo);
    _mm256_storeu_pd(crow + 4, hi);
  };
  store_row(c + 0 * ldc, c00, c01);
  store_row(c + 1 * ldc, c10, c11);
  store_row(c + 2 * ldc, c20, c21);
  store_row(c + 3 * ldc, c30, c31);
  store_row(c + 4 * ldc, c40, c41);
  store_row(c + 5 * ldc, c50, c51);
}

constexpr GemmMicrokernel kAvx2Microkernel{&Avx2Kernel6x8, kMr, kNr};

}  // namespace

const GemmMicrokernel* Avx2Microkernel() { return &kAvx2Microkernel; }

}  // namespace vfl::la::internal

#else  // !(__AVX2__ && __FMA__)

namespace vfl::la::internal {
const GemmMicrokernel* Avx2Microkernel() { return nullptr; }
}  // namespace vfl::la::internal

#endif
