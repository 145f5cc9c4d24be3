#ifndef VFLFIA_LA_GEMM_PACKED_H_
#define VFLFIA_LA_GEMM_PACKED_H_

#include <cstddef>

#include "la/cpu_features.h"
#include "la/matrix.h"

/// Internal API of the packed BLIS-style GEMM, the only GEMM implementation:
/// panel packing into aligned thread-local scratch, the blocked driver, and
/// the per-ISA register-blocked microkernels it dispatches among. Callers use
/// the MatMul*Into entry points in matrix_ops.h, which send every shape here;
/// this header exists for the kernel TUs and the dispatch tests.
namespace vfl::la::internal {

/// One register-blocked microkernel. It multiplies a packed A panel
/// (`kc` x `mr`, k-major: ap[p*mr + i]) by a packed B panel (`kc` x `nr`,
/// k-major: bp[p*nr + j]) into an `mr` x `nr` tile of C with row stride
/// `ldc`. Accumulator registers always start at zero and run one ascending-k
/// chain per output element; `accumulate` selects whether the finished chain
/// overwrites the C tile or adds to it. That "chain from zero, then one
/// store/add" contract makes interior tiles and (temp-buffered) edge tiles
/// bit-identical, which in turn makes results invariant to how ParallelFor
/// partitions the rows.
struct GemmMicrokernel {
  using Fn = void (*)(std::size_t kc, const double* ap, const double* bp,
                      double* c, std::size_t ldc, bool accumulate);
  Fn kernel = nullptr;
  std::size_t mr = 0;
  std::size_t nr = 0;
};

/// Portable scalar microkernel (4x8); never null.
const GemmMicrokernel* GenericMicrokernel();

/// AVX2/FMA 6x8 microkernel; null when this binary was built without AVX2
/// support for its TU (non-x86 targets).
const GemmMicrokernel* Avx2Microkernel();

/// AVX-512F 8x16 microkernel; null when not compiled in.
const GemmMicrokernel* Avx512Microkernel();

/// Microkernel for a dispatch tier, falling back toward generic when a tier
/// is not compiled in.
const GemmMicrokernel* MicrokernelForPath(KernelPath path);

/// Rows [r0, r1) of out = op_a(a) * op_b(b) (+= with `accumulate`), where
/// op_x transposes when the flag is set. Shapes are the *operand* shapes:
/// op_a(a) is out->rows() x k and op_b(b) is k x out->cols(). Transposition
/// is absorbed by the packing routines — no transpose is materialized.
///
/// Packing scratch lives in thread-local aligned buffers that grow once and
/// are reused across calls and blocks (no per-call allocation in steady
/// state). Safe to call concurrently from ParallelFor workers on disjoint
/// row ranges; per-element arithmetic is a pure function of the operand
/// shapes and the microkernel, never of (r0, r1): a row computed alone is
/// bit-identical to the same row inside any larger product.
void PackedGemmRowRange(const Matrix& a, bool trans_a, const Matrix& b,
                        bool trans_b, Matrix* out, bool accumulate,
                        const GemmMicrokernel& uk, std::size_t r0,
                        std::size_t r1);

}  // namespace vfl::la::internal

#endif  // VFLFIA_LA_GEMM_PACKED_H_
