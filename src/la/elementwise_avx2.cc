// Elementwise kernels, AVX2 tier. Built with -mavx2 -ffp-contract=off
// regardless of the global -march (root CMakeLists.txt) and executed only
// after cpuid-based dispatch confirms AVX2, so nothing here may leak into a
// static initializer or inline header function.
#include "la/elementwise.h"

#if defined(__AVX2__)

#include <cmath>

namespace vfl::la::internal {
namespace {
#include "la/elementwise_loops.h"
}  // namespace

const ElementwiseKernels* Avx2Elementwise() { return &kElementwiseLoops; }

}  // namespace vfl::la::internal

#else  // !__AVX2__

namespace vfl::la::internal {
const ElementwiseKernels* Avx2Elementwise() { return nullptr; }
}  // namespace vfl::la::internal

#endif
