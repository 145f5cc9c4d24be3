// AVX-512F microkernel TU. Built with -mavx512f -mavx512dq regardless of the
// global -march (root CMakeLists.txt); executed only after cpuid-based
// dispatch confirms AVX-512F plus OS ZMM state, so nothing here may leak
// into a static initializer or inline header function.
#include "la/gemm_packed.h"

#if defined(__AVX512F__)

#include <immintrin.h>

namespace vfl::la::internal {
namespace {

// 8x16 doubles of accumulators: 16 ZMM accumulators + 2 B loads + rotating
// broadcasts fit the 32-register file. Per k step: 2 unaligned B loads, 8
// strided scalar broadcasts, 16 FMAs — FMA-bound at 8 cycles for 256 flops,
// i.e. the machine's full 32 double flops/cycle when both 512-bit FMA ports
// exist.
constexpr std::size_t kMr = 8;
constexpr std::size_t kNr = 16;

void Avx512Kernel8x16(std::size_t kc, const double* a, std::size_t rs_a,
                      std::size_t cs_a, const double* b, std::size_t rs_b,
                      double* c, std::size_t ldc, bool accumulate) {
  __m512d c00 = _mm512_setzero_pd(), c01 = _mm512_setzero_pd();
  __m512d c10 = _mm512_setzero_pd(), c11 = _mm512_setzero_pd();
  __m512d c20 = _mm512_setzero_pd(), c21 = _mm512_setzero_pd();
  __m512d c30 = _mm512_setzero_pd(), c31 = _mm512_setzero_pd();
  __m512d c40 = _mm512_setzero_pd(), c41 = _mm512_setzero_pd();
  __m512d c50 = _mm512_setzero_pd(), c51 = _mm512_setzero_pd();
  __m512d c60 = _mm512_setzero_pd(), c61 = _mm512_setzero_pd();
  __m512d c70 = _mm512_setzero_pd(), c71 = _mm512_setzero_pd();

  // Row i of the A panel at p is a[i*rs_a + p*cs_a]: one base pointer per
  // row, indexed by p*cs_a.
  const double* a0 = a;
  const double* a1 = a0 + rs_a;
  const double* a2 = a1 + rs_a;
  const double* a3 = a2 + rs_a;
  const double* a4 = a3 + rs_a;
  const double* a5 = a4 + rs_a;
  const double* a6 = a5 + rs_a;
  const double* a7 = a6 + rs_a;
  for (std::size_t p = 0; p < kc; ++p) {
    const std::size_t o = p * cs_a;
    const __m512d b0 = _mm512_loadu_pd(b);
    const __m512d b1 = _mm512_loadu_pd(b + 8);
    __m512d av;
    av = _mm512_set1_pd(a0[o]);
    c00 = _mm512_fmadd_pd(av, b0, c00);
    c01 = _mm512_fmadd_pd(av, b1, c01);
    av = _mm512_set1_pd(a1[o]);
    c10 = _mm512_fmadd_pd(av, b0, c10);
    c11 = _mm512_fmadd_pd(av, b1, c11);
    av = _mm512_set1_pd(a2[o]);
    c20 = _mm512_fmadd_pd(av, b0, c20);
    c21 = _mm512_fmadd_pd(av, b1, c21);
    av = _mm512_set1_pd(a3[o]);
    c30 = _mm512_fmadd_pd(av, b0, c30);
    c31 = _mm512_fmadd_pd(av, b1, c31);
    av = _mm512_set1_pd(a4[o]);
    c40 = _mm512_fmadd_pd(av, b0, c40);
    c41 = _mm512_fmadd_pd(av, b1, c41);
    av = _mm512_set1_pd(a5[o]);
    c50 = _mm512_fmadd_pd(av, b0, c50);
    c51 = _mm512_fmadd_pd(av, b1, c51);
    av = _mm512_set1_pd(a6[o]);
    c60 = _mm512_fmadd_pd(av, b0, c60);
    c61 = _mm512_fmadd_pd(av, b1, c61);
    av = _mm512_set1_pd(a7[o]);
    c70 = _mm512_fmadd_pd(av, b0, c70);
    c71 = _mm512_fmadd_pd(av, b1, c71);
    b += rs_b;
  }

  const auto store_row = [accumulate](double* crow, __m512d lo, __m512d hi) {
    if (accumulate) {
      lo = _mm512_add_pd(_mm512_loadu_pd(crow), lo);
      hi = _mm512_add_pd(_mm512_loadu_pd(crow + 8), hi);
    }
    _mm512_storeu_pd(crow, lo);
    _mm512_storeu_pd(crow + 8, hi);
  };
  store_row(c + 0 * ldc, c00, c01);
  store_row(c + 1 * ldc, c10, c11);
  store_row(c + 2 * ldc, c20, c21);
  store_row(c + 3 * ldc, c30, c31);
  store_row(c + 4 * ldc, c40, c41);
  store_row(c + 5 * ldc, c50, c51);
  store_row(c + 6 * ldc, c60, c61);
  store_row(c + 7 * ldc, c70, c71);
}

constexpr GemmMicrokernel kAvx512Microkernel{&Avx512Kernel8x16, kMr, kNr};

}  // namespace

const GemmMicrokernel* Avx512Microkernel() { return &kAvx512Microkernel; }

}  // namespace vfl::la::internal

#else  // !__AVX512F__

namespace vfl::la::internal {
const GemmMicrokernel* Avx512Microkernel() { return nullptr; }
}  // namespace vfl::la::internal

#endif
