#ifndef VFLFIA_LA_GEMM_PACKED_H_
#define VFLFIA_LA_GEMM_PACKED_H_

#include <cstddef>

#include "la/cpu_features.h"
#include "la/matrix.h"

/// Internal API of the BLIS-style GEMM, the only GEMM implementation: the
/// blocked driver, its edge-panel packing into aligned thread-local scratch,
/// and the per-ISA register-blocked microkernels it dispatches among. Callers
/// use the MatMul*Into entry points in matrix_ops.h, which send every shape
/// here; this header exists for the kernel TUs and the dispatch tests.
namespace vfl::la::internal {

/// Depth of the driver's k blocks. Each output element is one ascending-k
/// chain from zero per block of this many k steps, and the block results
/// are added to C in ascending order, so this depth is part of every tier's
/// bit pattern.
inline constexpr std::size_t kGemmBlockK = 320;

/// One register-blocked microkernel. It multiplies an `mr` x `kc` A panel by
/// a `kc` x `nr` B panel into an `mr` x `nr` tile of C with row stride `ldc`.
/// The panels are read through strides: A(i, p) is a[i*rs_a + p*cs_a] and
/// B(p, j) is b[p*rs_b + j], so a panel can be read where it lies in the
/// operand (rs_a = lda, cs_a = 1; transposed A: rs_a = 1, cs_a = lda;
/// B: rs_b = ldb) or from a packed k-major copy (rs_a = 1, cs_a = mr,
/// rs_b = nr). B rows need no alignment. Accumulator registers always start
/// at zero and run one ascending-k chain per output element; `accumulate`
/// selects whether the finished chain overwrites the C tile or adds to it.
/// That "chain from zero, then one store/add" contract makes in-place,
/// packed and (temp-buffered) edge tiles bit-identical, which in turn makes
/// results invariant to how ParallelFor partitions the rows.
struct GemmMicrokernel {
  using Fn = void (*)(std::size_t kc, const double* a, std::size_t rs_a,
                      std::size_t cs_a, const double* b, std::size_t rs_b,
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
/// op_a(a) is out->rows() x k and op_b(b) is k x out->cols(). No transpose
/// is materialized.
///
/// Full `mr`-row A panels (either orientation) and full `nr`-column B panels
/// of an untransposed B are read in place. Only three cases are packed,
/// zero-padded, into thread-local aligned buffers that grow once and are
/// reused across calls: all of a transposed B (its columns are strided), the
/// column-tail B panel (once per k block), and the row-tail A panel (once
/// per row block) — the only panels a full-width in-place read would run
/// past the operand. Safe to call concurrently from ParallelFor workers on
/// disjoint row ranges; per-element arithmetic is a pure function of the
/// operand shapes and the microkernel, never of (r0, r1): a row computed
/// alone is bit-identical to the same row inside any larger product.
void PackedGemmRowRange(const Matrix& a, bool trans_a, const Matrix& b,
                        bool trans_b, Matrix* out, bool accumulate,
                        const GemmMicrokernel& uk, std::size_t r0,
                        std::size_t r1);

}  // namespace vfl::la::internal

#endif  // VFLFIA_LA_GEMM_PACKED_H_
