#ifndef VFLFIA_LA_CPU_FEATURES_H_
#define VFLFIA_LA_CPU_FEATURES_H_

#include <optional>
#include <string_view>

namespace vfl::la {

/// Kernel tiers (GEMM microkernels and the elementwise loops of
/// la/elementwise.h), ordered by preference. Runtime `cpuid`-based
/// detection picks the widest tier the host CPU (and this build) supports;
/// the choice is overridable per process (VFLFIA_LA_KERNEL) or per call site
/// (SetKernelPath) so tests exercise every tier on one machine. The values
/// are what the `la.kernel_path` gauge publishes, so they stay fixed.
enum class KernelPath {
  /// BLIS-style microkernel in portable C++ (4x8, two-lane GCC/Clang vector
  /// extension). Always available; the floor every other tier falls back
  /// to. Its TU is built with -ffp-contract=off (root CMakeLists.txt), so
  /// even under -march=native each output element is a plain
  /// multiply-then-add chain: bit-identical across machines, and the tier
  /// to force (VFLFIA_LA_KERNEL=generic) for cross-machine reproducibility.
  kGeneric = 1,
  /// Explicit AVX2/FMA 6x8 register-blocked microkernel.
  kAvx2 = 2,
  /// Explicit AVX-512F 8x16 register-blocked microkernel.
  kAvx512 = 3,
};

/// Lower-case tier name ("generic", "avx2", "avx512").
std::string_view KernelPathName(KernelPath path);

/// Parses a tier name (as accepted in VFLFIA_LA_KERNEL); nullopt when the
/// name is unknown. "deterministic" and "det" name the generic tier, the
/// reproducibility tier under its former name. "auto" is not a path —
/// callers handle it separately.
std::optional<KernelPath> ParseKernelPath(std::string_view name);

/// True when `path` can execute here: the host CPU advertises the ISA (with
/// OS state support, checked via cpuid + xgetbv) and this binary compiled
/// the tier in. kGeneric is always supported.
bool CpuSupportsKernelPath(KernelPath path);

/// The widest supported tier — what "auto" resolves to.
KernelPath DetectBestKernelPath();

/// The tier the GEMM and elementwise entry points dispatch to. Resolution
/// order: the last SetKernelPath() override, else VFLFIA_LA_KERNEL (a tier
/// name or "auto"; unsupported/unknown values clamp down to the best
/// supported tier), else DetectBestKernelPath(). Resolved once and cached
/// (one relaxed atomic load per call after that); every resolution
/// publishes the numeric tier to the process metrics registry as the
/// `la.kernel_path` gauge.
KernelPath ActiveKernelPath();

/// Forces the dispatch tier (clamped down to a supported one; the clamp
/// result is returned). Intended for benches and tests — call it between
/// kernel invocations, not concurrently with them.
KernelPath SetKernelPath(KernelPath path);

/// Drops any SetKernelPath() override and re-resolves from the environment /
/// CPU, returning the new active path.
KernelPath ResetKernelPathToAuto();

}  // namespace vfl::la

#endif  // VFLFIA_LA_CPU_FEATURES_H_
