// Elementwise kernels, AVX-512 tier. Built with -mavx512f only (the
// dispatcher checks for nothing more), -ffp-contract=off and 512-bit vectors
// preferred, regardless of the global -march (root CMakeLists.txt); executed
// only after cpuid-based dispatch confirms AVX-512F plus OS ZMM state, so
// nothing here may leak into a static initializer or inline header function.
#include "la/elementwise.h"

#if defined(__AVX512F__)

#include <cmath>

namespace vfl::la::internal {
namespace {
#include "la/elementwise_loops.h"
}  // namespace

const ElementwiseKernels* Avx512Elementwise() { return &kElementwiseLoops; }

}  // namespace vfl::la::internal

#else  // !__AVX512F__

namespace vfl::la::internal {
const ElementwiseKernels* Avx512Elementwise() { return nullptr; }
}  // namespace vfl::la::internal

#endif
