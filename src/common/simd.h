// Runtime ISA dispatch for the branch-free merge kernels.
//
// A dispatch Level names a kernel tier: kScalar is the portable
// fallback (always available, and the baseline the benches compare
// against), kSSE42 and kAVX2 select the 2- and 4-lane int64 vector
// variants. Detect() probes CPUID once (cached); Resolve() turns a
// requested level — usually kAuto from JoinOptions — into a concrete
// supported level, honoring the STANDOFF_SIMD environment
// override ("scalar" | "sse4.2" | "avx2" | "auto", read once) so CI
// legs and local runs can force the fallback without a rebuild. A
// forced level the CPU cannot run is clamped down, never trusted.
//
// Every vector kernel is an exact drop-in for its scalar counterpart
// (same results on every input, unaligned pointers included), so the
// level is a pure performance knob — the differential suite sweeps all
// of them against the oracle.
#ifndef STANDOFF_COMMON_SIMD_H_
#define STANDOFF_COMMON_SIMD_H_

#include <cstdlib>
#include <cstring>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define STANDOFF_SIMD_X86 1
#include <cpuid.h>
#else
#define STANDOFF_SIMD_X86 0
#endif

#if defined(__GNUC__) || defined(__clang__)
#define STANDOFF_PREFETCH(addr) __builtin_prefetch(addr)
#else
#define STANDOFF_PREFETCH(addr) ((void)(addr))
#endif

namespace standoff {
namespace simd {

enum class Level {
  kScalar = 0,
  kSSE42 = 1,
  kAVX2 = 2,
  kAuto = 3,  // resolve to the best supported (or env-overridden) level
};

inline const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kSSE42: return "sse4.2";
    case Level::kAVX2: return "avx2";
    case Level::kAuto: return "auto";
  }
  return "?";
}

namespace internal {

inline Level DetectUncached() {
#if STANDOFF_SIMD_X86
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return Level::kScalar;
  const bool sse42 = (ecx & (1u << 20)) != 0;
  const bool popcnt = (ecx & (1u << 23)) != 0;
  const bool osxsave = (ecx & (1u << 27)) != 0;
  const bool avx = (ecx & (1u << 28)) != 0;
  bool avx2 = false;
  if (osxsave && avx) {
    // xgetbv(0): the OS must save/restore the xmm AND ymm state.
    unsigned xcr_lo = 0, xcr_hi = 0;
    __asm__ volatile("xgetbv" : "=a"(xcr_lo), "=d"(xcr_hi) : "c"(0));
    if ((xcr_lo & 0x6u) == 0x6u) {
      unsigned eax7 = 0, ebx7 = 0, ecx7 = 0, edx7 = 0;
      if (__get_cpuid_count(7, 0, &eax7, &ebx7, &ecx7, &edx7)) {
        avx2 = (ebx7 & (1u << 5)) != 0;
      }
    }
  }
  if (avx2 && popcnt) return Level::kAVX2;
  if (sse42 && popcnt) return Level::kSSE42;
  return Level::kScalar;
#else
  return Level::kScalar;
#endif
}

inline Level EnvOverrideUncached() {
  const char* value = std::getenv("STANDOFF_SIMD");
  if (value == nullptr) return Level::kAuto;
  if (std::strcmp(value, "scalar") == 0) return Level::kScalar;
  if (std::strcmp(value, "sse4.2") == 0 || std::strcmp(value, "sse42") == 0) {
    return Level::kSSE42;
  }
  if (std::strcmp(value, "avx2") == 0) return Level::kAVX2;
  return Level::kAuto;  // unknown values (and "auto") mean: detect
}

}  // namespace internal

/// The highest level this CPU supports. Probed once, cached.
inline Level Detect() {
  static const Level level = internal::DetectUncached();
  return level;
}

/// The STANDOFF_SIMD environment override, kAuto when unset/unknown.
/// Read once — changing the variable mid-process has no effect.
inline Level EnvOverride() {
  static const Level level = internal::EnvOverrideUncached();
  return level;
}

/// True if `level` can execute on this CPU.
inline bool Supported(Level level) {
  return level == Level::kAuto ||
         static_cast<int>(level) <= static_cast<int>(Detect());
}

/// Resolves a requested level to the concrete level to run: kAuto takes
/// the env override (then detection); anything else is an explicit
/// request (tests, benches). Either way the result is clamped to what
/// the CPU supports — never above Detect().
inline Level Resolve(Level requested) {
  Level want = requested;
  if (want == Level::kAuto) want = EnvOverride();
  if (want == Level::kAuto) want = Detect();
  if (static_cast<int>(want) > static_cast<int>(Detect())) want = Detect();
  return want;
}

}  // namespace simd
}  // namespace standoff

#endif  // STANDOFF_COMMON_SIMD_H_
