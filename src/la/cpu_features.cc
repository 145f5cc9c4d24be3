#include "la/cpu_features.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "la/gemm_packed.h"
#include "obs/metrics.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace vfl::la {

namespace {

/// ISA bits relevant to the double-precision microkernels, read once.
struct CpuIsa {
  bool avx2_fma = false;
  bool avx512f = false;
};

#if defined(__x86_64__) || defined(__i386__)

/// XCR0 via xgetbv, raw-encoded so no -mxsave build flag is needed. Only
/// called after cpuid confirms OSXSAVE.
std::uint64_t ReadXcr0() {
  std::uint32_t eax = 0;
  std::uint32_t edx = 0;
  __asm__ __volatile__(".byte 0x0f, 0x01, 0xd0"  // xgetbv
                       : "=a"(eax), "=d"(edx)
                       : "c"(0));
  return (static_cast<std::uint64_t>(edx) << 32) | eax;
}

CpuIsa DetectCpuIsa() {
  CpuIsa isa;
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return isa;
  const bool osxsave = (ecx & bit_OSXSAVE) != 0;
  const bool avx = (ecx & bit_AVX) != 0;
  const bool fma = (ecx & bit_FMA) != 0;
  if (!osxsave || !avx) return isa;

  const std::uint64_t xcr0 = ReadXcr0();
  const bool os_ymm = (xcr0 & 0x6) == 0x6;          // XMM + YMM state
  const bool os_zmm = (xcr0 & 0xe6) == 0xe6;        // + opmask, ZMM, hi-ZMM
  if (!os_ymm) return isa;

  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return isa;
  const bool avx2 = (ebx & bit_AVX2) != 0;
  const bool avx512f = (ebx & bit_AVX512F) != 0;
  isa.avx2_fma = avx2 && fma;
  isa.avx512f = avx512f && os_zmm;
  return isa;
}

#else

CpuIsa DetectCpuIsa() { return {}; }

#endif

const CpuIsa& HostIsa() {
  static const CpuIsa isa = DetectCpuIsa();
  return isa;
}

/// Active path cache: -1 = unresolved. Writes under g_path_mu; hot readers
/// use one relaxed load.
std::atomic<int> g_active_path{-1};
std::mutex g_path_mu;

void PublishKernelPathGauge(KernelPath path) {
  // Registry-owned gauge: survives for the process lifetime, shows up in
  // `vflfia_cli --metrics` dumps and kGetStats wire scrapes.
  obs::MetricsRegistry::Global()
      .GetGauge("la.kernel_path", "tier")
      ->Set(static_cast<std::int64_t>(path));
}

/// Largest supported tier that is <= `path` (kGeneric as the floor).
KernelPath ClampToSupported(KernelPath path) {
  if (path == KernelPath::kAvx512 && CpuSupportsKernelPath(KernelPath::kAvx512))
    return path;
  if (path >= KernelPath::kAvx2 && CpuSupportsKernelPath(KernelPath::kAvx2))
    return KernelPath::kAvx2;
  return KernelPath::kGeneric;
}

/// Resolves the environment request ("auto"/unset -> best; unknown names
/// warn once and fall back to best).
KernelPath ResolveFromEnvironment() {
  const char* env = std::getenv("VFLFIA_LA_KERNEL");
  if (env == nullptr || env[0] == '\0' ||
      std::string_view(env) == "auto") {
    return DetectBestKernelPath();
  }
  if (const std::optional<KernelPath> parsed = ParseKernelPath(env)) {
    return ClampToSupported(*parsed);
  }
  std::fprintf(stderr,
               "VFLFIA_LA_KERNEL=%s is not a kernel path "
               "(generic|avx2|avx512|auto); using auto\n",
               env);
  return DetectBestKernelPath();
}

KernelPath StoreAndPublish(KernelPath path) {
  g_active_path.store(static_cast<int>(path), std::memory_order_release);
  PublishKernelPathGauge(path);
  return path;
}

}  // namespace

std::string_view KernelPathName(KernelPath path) {
  switch (path) {
    case KernelPath::kGeneric:
      return "generic";
    case KernelPath::kAvx2:
      return "avx2";
    case KernelPath::kAvx512:
      return "avx512";
  }
  return "generic";
}

std::optional<KernelPath> ParseKernelPath(std::string_view name) {
  if (name == "generic" || name == "deterministic" || name == "det") {
    return KernelPath::kGeneric;
  }
  if (name == "avx2") return KernelPath::kAvx2;
  if (name == "avx512") return KernelPath::kAvx512;
  return std::nullopt;
}

bool CpuSupportsKernelPath(KernelPath path) {
  switch (path) {
    case KernelPath::kGeneric:
      return true;
    case KernelPath::kAvx2:
      return HostIsa().avx2_fma && internal::Avx2Microkernel() != nullptr;
    case KernelPath::kAvx512:
      return HostIsa().avx512f && internal::Avx512Microkernel() != nullptr;
  }
  return false;
}

KernelPath DetectBestKernelPath() {
  if (CpuSupportsKernelPath(KernelPath::kAvx512)) return KernelPath::kAvx512;
  if (CpuSupportsKernelPath(KernelPath::kAvx2)) return KernelPath::kAvx2;
  return KernelPath::kGeneric;
}

KernelPath ActiveKernelPath() {
  const int cached = g_active_path.load(std::memory_order_acquire);
  if (cached >= 0) return static_cast<KernelPath>(cached);
  std::lock_guard<std::mutex> lock(g_path_mu);
  const int raced = g_active_path.load(std::memory_order_acquire);
  if (raced >= 0) return static_cast<KernelPath>(raced);
  return StoreAndPublish(ResolveFromEnvironment());
}

KernelPath SetKernelPath(KernelPath path) {
  std::lock_guard<std::mutex> lock(g_path_mu);
  return StoreAndPublish(ClampToSupported(path));
}

KernelPath ResetKernelPathToAuto() {
  std::lock_guard<std::mutex> lock(g_path_mu);
  return StoreAndPublish(ResolveFromEnvironment());
}

}  // namespace vfl::la
