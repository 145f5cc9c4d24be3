#include "la/gemm_packed.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <new>

namespace vfl::la::internal {

namespace {

// Cache blocking, shared by every microkernel tier. A kc x nr B panel
// (kGemmBlockK = 320 x 8/16 doubles = 20/40 KiB) stays close to L1 across
// the whole row block; an mc x kc A block (<= ~320 KiB) stays in L2 while it
// streams against every B panel of the column block; nc bounds the packed-B
// footprint of a transposed B for very wide outputs.
constexpr std::size_t kBlockKc = kGemmBlockK;
constexpr std::size_t kBlockMc = 128;
constexpr std::size_t kBlockNc = 4096;

/// 64-byte-aligned grow-only scratch. Ensure() reallocates only when the
/// requested count exceeds capacity, so steady-state GEMM traffic performs
/// zero allocations.
class AlignedBuffer {
 public:
  double* Ensure(std::size_t count) {
    if (count > capacity_) {
      const std::size_t want = std::max(count, capacity_ * 2);
      data_.reset(static_cast<double*>(
          ::operator new[](want * sizeof(double), std::align_val_t{64})));
      capacity_ = want;
    }
    return data_.get();
  }

 private:
  struct AlignedDelete {
    void operator()(double* p) const {
      ::operator delete[](p, std::align_val_t{64});
    }
  };
  std::unique_ptr<double, AlignedDelete> data_;
  std::size_t capacity_ = 0;
};

/// Per-thread packing scratch: ParallelFor workers are long-lived, so each
/// lane's buffers warm up once and are reused for every subsequent call.
struct PackScratch {
  AlignedBuffer a;
  AlignedBuffer b;
  AlignedBuffer c_tile;
};

thread_local PackScratch t_scratch;

/// Packs the row-tail A panel: rows [row0, row0+rows) (rows < mr) x k-range
/// [pc, pc+kc) of operand A into one k-major panel of kc*mr doubles, rows
/// past `rows` zero-filled. With trans, operand element A(i, p) is a(p, i).
void PackTailPanelA(const Matrix& a, bool trans, std::size_t row0,
                    std::size_t rows, std::size_t pc, std::size_t kc,
                    std::size_t mr, double* dst) {
  for (std::size_t p = 0; p < kc; ++p) {
    double* out = dst + p * mr;
    for (std::size_t i = 0; i < rows; ++i) {
      out[i] = trans ? a(pc + p, row0 + i) : a(row0 + i, pc + p);
    }
    for (std::size_t i = rows; i < mr; ++i) out[i] = 0.0;
  }
}

/// Packs k-range [pc, pc+kc) x columns [col0, col0+nc) of operand B into
/// ceil(nc/nr) consecutive k-major panels of kc*nr doubles, zero-padding the
/// column tail. With trans, operand element B(p, j) is b(j, p).
void PackPanelsB(const Matrix& b, bool trans, std::size_t pc, std::size_t kc,
                 std::size_t col0, std::size_t nc, std::size_t nr,
                 double* dst) {
  for (std::size_t jp = 0; jp < nc; jp += nr) {
    const std::size_t nre = std::min(nr, nc - jp);
    if (trans) {
      for (std::size_t j = 0; j < nre; ++j) {
        const double* src = b.RowPtr(col0 + jp + j) + pc;
        for (std::size_t p = 0; p < kc; ++p) dst[p * nr + j] = src[p];
      }
      for (std::size_t j = nre; j < nr; ++j) {
        for (std::size_t p = 0; p < kc; ++p) dst[p * nr + j] = 0.0;
      }
    } else {
      for (std::size_t p = 0; p < kc; ++p) {
        const double* src = b.RowPtr(pc + p) + col0 + jp;
        double* out = dst + p * nr;
        for (std::size_t j = 0; j < nre; ++j) out[j] = src[j];
        for (std::size_t j = nre; j < nr; ++j) out[j] = 0.0;
      }
    }
    dst += kc * nr;
  }
}

/// Portable 4x8 microkernel. Each row of the accumulator tile is four
/// two-lane vectors (GCC/Clang vector extension, lowered to whatever the
/// target has: SSE2 in the portable x86 build). A plain scalar loop over
/// strided operands gets vectorized across k by the compiler, which spills
/// the whole tile; explicit lanes keep the one-chain-per-element shape.
/// This TU is built with -ffp-contract=off, so every lane is a plain
/// multiply-then-add: the same bits as the scalar chain on every machine.
constexpr std::size_t kGenericMr = 4;
constexpr std::size_t kGenericNr = 8;

void GenericKernel4x8(std::size_t kc, const double* a, std::size_t rs_a,
                      std::size_t cs_a, const double* b, std::size_t rs_b,
                      double* c, std::size_t ldc, bool accumulate) {
  using Lanes = double __attribute__((vector_size(2 * sizeof(double))));
  constexpr std::size_t kVecs = kGenericNr / 2;
  Lanes acc[kGenericMr][kVecs] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const double* ak = a + p * cs_a;
    const double* bk = b + p * rs_b;
    Lanes bv[kVecs];
    for (std::size_t j = 0; j < kVecs; ++j) {
      std::memcpy(&bv[j], bk + 2 * j, sizeof(Lanes));
    }
    for (std::size_t i = 0; i < kGenericMr; ++i) {
      const double av = ak[i * rs_a];
      for (std::size_t j = 0; j < kVecs; ++j) acc[i][j] += av * bv[j];
    }
  }
  for (std::size_t i = 0; i < kGenericMr; ++i) {
    double* crow = c + i * ldc;
    for (std::size_t j = 0; j < kVecs; ++j) {
      for (std::size_t l = 0; l < 2; ++l) {
        crow[2 * j + l] = accumulate ? crow[2 * j + l] + acc[i][j][l]
                                     : acc[i][j][l];
      }
    }
  }
}

constexpr GemmMicrokernel kGenericMicrokernel{&GenericKernel4x8, kGenericMr,
                                              kGenericNr};

}  // namespace

const GemmMicrokernel* GenericMicrokernel() { return &kGenericMicrokernel; }

const GemmMicrokernel* MicrokernelForPath(KernelPath path) {
  if (path == KernelPath::kAvx512) {
    if (const GemmMicrokernel* uk = Avx512Microkernel()) return uk;
    path = KernelPath::kAvx2;
  }
  if (path == KernelPath::kAvx2) {
    if (const GemmMicrokernel* uk = Avx2Microkernel()) return uk;
  }
  return GenericMicrokernel();
}

void PackedGemmRowRange(const Matrix& a, bool trans_a, const Matrix& b,
                        bool trans_b, Matrix* out, bool accumulate,
                        const GemmMicrokernel& uk, std::size_t r0,
                        std::size_t r1) {
  const std::size_t k = trans_a ? a.rows() : a.cols();
  const std::size_t n = out->cols();
  const std::size_t ldc = n;
  const std::size_t mr = uk.mr;
  const std::size_t nr = uk.nr;
  if (r0 >= r1) return;
  if (k == 0 || n == 0) {
    if (!accumulate) {
      for (std::size_t i = r0; i < r1; ++i) {
        double* orow = out->RowPtr(i);
        std::fill(orow, orow + n, 0.0);
      }
    }
    return;
  }

  // Operand A(i, p) lies at a[i*a_rs + p*a_cs]; operand B(p, j) of an
  // untransposed B at b[p*ldb + j].
  const std::size_t a_rs = trans_a ? 1 : a.cols();
  const std::size_t a_cs = trans_a ? a.cols() : 1;
  const std::size_t ldb = b.cols();
  PackScratch& s = t_scratch;
  const std::size_t mc_block = std::max(mr, kBlockMc / mr * mr);
  double* c_tmp = s.c_tile.Ensure(mr * nr);

  for (std::size_t jc = 0; jc < n; jc += kBlockNc) {
    const std::size_t nc = std::min(kBlockNc, n - jc);
    const std::size_t nc_padded = (nc + nr - 1) / nr * nr;
    // Columns [0, n_full) of the block are read in place; the rest (all of
    // a transposed B, else the column tail) is packed per k block.
    const std::size_t n_full = trans_b ? 0 : nc / nr * nr;
    for (std::size_t pc = 0; pc < k; pc += kBlockKc) {
      const std::size_t kc = std::min(kBlockKc, k - pc);
      // The first k block either overwrites C or (with accumulate) adds to
      // the caller's contents; later k blocks always add. One add per block
      // per element, blocks ascending — deterministic for any row split.
      const bool first = pc == 0 && !accumulate;
      double* bp = nullptr;
      if (n_full < nc) {
        bp = s.b.Ensure(kc * (nc_padded - n_full));
        PackPanelsB(b, trans_b, pc, kc, jc + n_full, nc - n_full, nr, bp);
      }
      for (std::size_t ic = r0; ic < r1; ic += mc_block) {
        const std::size_t mc = std::min(mc_block, r1 - ic);
        // Rows [0, m_full) of the block are read in place; a row tail is
        // packed.
        const std::size_t m_full = mc / mr * mr;
        double* ap = nullptr;
        if (m_full < mc) {
          ap = s.a.Ensure(kc * mr);
          PackTailPanelA(a, trans_a, ic + m_full, mc - m_full, pc, kc, mr,
                         ap);
        }
        for (std::size_t jp = 0; jp < nc; jp += nr) {
          const std::size_t nre = std::min(nr, nc - jp);
          const bool b_in_place = jp < n_full;
          const double* bpanel = b_in_place
                                     ? b.data() + pc * ldb + jc + jp
                                     : bp + (jp - n_full) / nr * kc * nr;
          const std::size_t rs_b = b_in_place ? ldb : nr;
          for (std::size_t ip = 0; ip < mc; ip += mr) {
            const std::size_t mre = std::min(mr, mc - ip);
            const bool a_in_place = ip < m_full;
            const double* apanel =
                a_in_place ? a.data() + (ic + ip) * a_rs + pc * a_cs : ap;
            const std::size_t rs_a = a_in_place ? a_rs : 1;
            const std::size_t cs_a = a_in_place ? a_cs : mr;
            if (mre == mr && nre == nr) {
              uk.kernel(kc, apanel, rs_a, cs_a, bpanel, rs_b,
                        out->RowPtr(ic + ip) + jc + jp, ldc, !first);
            } else {
              // Edge tile: compute the full (zero-padded) mr x nr tile into
              // scratch, then copy/add only the valid region. Same per-
              // element arithmetic as the interior store.
              uk.kernel(kc, apanel, rs_a, cs_a, bpanel, rs_b, c_tmp, nr,
                        false);
              for (std::size_t i = 0; i < mre; ++i) {
                double* crow = out->RowPtr(ic + ip + i) + jc + jp;
                const double* trow = c_tmp + i * nr;
                if (first) {
                  for (std::size_t j = 0; j < nre; ++j) crow[j] = trow[j];
                } else {
                  for (std::size_t j = 0; j < nre; ++j) crow[j] += trow[j];
                }
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace vfl::la::internal
