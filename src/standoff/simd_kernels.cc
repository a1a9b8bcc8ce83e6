#include "standoff/simd_kernels.h"

#if STANDOFF_SIMD_X86
#include <immintrin.h>
#endif

namespace standoff {
namespace so {
namespace simdk {

namespace {

// ---------------------------------------------------------------------
// Scalar tier. These are the reference semantics; the vector tiers must
// reproduce them bit for bit. Written branch-free (count/overwrite
// accumulation) so even the fallback avoids the unpredictable-branch
// penalty the per-row merge loop pays.

size_t CountLessI64Scalar(const int64_t* a, size_t n, int64_t v) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) count += a[i] < v ? 1u : 0u;
  return count;
}

size_t CompactLeI64Scalar(const int64_t* end, const uint32_t* id, size_t n,
                          int64_t bound, uint64_t key_base, uint64_t* out) {
  size_t count = 0;
  for (size_t k = 0; k < n; ++k) {
    out[count] = key_base | id[k];
    count += end[k] <= bound ? 1u : 0u;
  }
  return count;
}

void EmitKeysScalar(const uint32_t* id, size_t n, uint64_t key_base,
                    uint64_t* out) {
  for (size_t k = 0; k < n; ++k) out[k] = key_base | id[k];
}

#if STANDOFF_SIMD_X86

// ---------------------------------------------------------------------
// SSE4.2 tier: 2 × int64 lanes (pcmpgtq is the SSE4.2 instruction the
// tier is named for). Compiled with per-function target
// attributes so the translation unit itself needs no -msse4.2; the
// functions are only ever CALLED through a table selected after CPUID.

__attribute__((target("sse4.2,popcnt")))
size_t CountLessI64Sse42(const int64_t* a, size_t n, int64_t v) {
  const __m128i vv = _mm_set1_epi64x(v);
  size_t count = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i lt = _mm_cmpgt_epi64(vv, x);  // a[i] < v, per lane
    count += static_cast<size_t>(
        _mm_popcnt_u32(static_cast<unsigned>(
            _mm_movemask_pd(_mm_castsi128_pd(lt)))));
  }
  for (; i < n; ++i) count += a[i] < v ? 1u : 0u;
  return count;
}

__attribute__((target("sse4.2,popcnt")))
size_t CompactLeI64Sse42(const int64_t* end, const uint32_t* id, size_t n,
                         int64_t bound, uint64_t key_base, uint64_t* out) {
  const __m128i vbound = _mm_set1_epi64x(bound);
  const __m128i vkey = _mm_set1_epi64x(static_cast<long long>(key_base));
  size_t count = 0;
  size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    const __m128i e =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(end + k));
    // end[k] <= bound  <=>  !(end[k] > bound)
    const unsigned gt = static_cast<unsigned>(
        _mm_movemask_pd(_mm_castsi128_pd(_mm_cmpgt_epi64(e, vbound))));
    const unsigned le = ~gt & 0x3u;
    const __m128i ids32 = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(id + k));  // 2 × u32, rest zero
    const __m128i keys = _mm_or_si128(vkey, _mm_cvtepu32_epi64(ids32));
    if (le == 0x3u) {  // dense runs: both lanes kept, straight store
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + count), keys);
      count += 2;
    } else {
      alignas(16) uint64_t buf[2];
      _mm_store_si128(reinterpret_cast<__m128i*>(buf), keys);
      out[count] = buf[0];
      count += le & 1u;
      out[count] = buf[1];
      count += (le >> 1) & 1u;
    }
  }
  for (; k < n; ++k) {
    out[count] = key_base | id[k];
    count += end[k] <= bound ? 1u : 0u;
  }
  return count;
}

__attribute__((target("sse4.2,popcnt")))
void EmitKeysSse42(const uint32_t* id, size_t n, uint64_t key_base,
                   uint64_t* out) {
  const __m128i vkey = _mm_set1_epi64x(static_cast<long long>(key_base));
  size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    const __m128i ids32 =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(id + k));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + k),
                     _mm_or_si128(vkey, _mm_cvtepu32_epi64(ids32)));
  }
  for (; k < n; ++k) out[k] = key_base | id[k];
}

// ---------------------------------------------------------------------
// AVX2 tier: 4 × int64 lanes.

__attribute__((target("avx2,popcnt")))
size_t CountLessI64Avx2(const int64_t* a, size_t n, int64_t v) {
  const __m256i vv = _mm256_set1_epi64x(v);
  size_t count = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i lt = _mm256_cmpgt_epi64(vv, x);
    count += static_cast<size_t>(
        _mm_popcnt_u32(static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_castsi256_pd(lt)))));
  }
  for (; i < n; ++i) count += a[i] < v ? 1u : 0u;
  return count;
}

__attribute__((target("avx2,popcnt")))
size_t CompactLeI64Avx2(const int64_t* end, const uint32_t* id, size_t n,
                        int64_t bound, uint64_t key_base, uint64_t* out) {
  const __m256i vbound = _mm256_set1_epi64x(bound);
  const __m256i vkey = _mm256_set1_epi64x(static_cast<long long>(key_base));
  size_t count = 0;
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256i e =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(end + k));
    const unsigned gt = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(e, vbound))));
    const unsigned le = ~gt & 0xFu;
    const __m128i ids32 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(id + k));
    const __m256i keys = _mm256_or_si256(vkey, _mm256_cvtepu32_epi64(ids32));
    if (le == 0xFu) {  // the dense-merge common case: all four kept
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + count), keys);
      count += 4;
    } else {
      alignas(32) uint64_t buf[4];
      _mm256_store_si256(reinterpret_cast<__m256i*>(buf), keys);
      for (unsigned l = 0; l < 4; ++l) {  // branch-free mask compaction
        out[count] = buf[l];
        count += (le >> l) & 1u;
      }
    }
  }
  for (; k < n; ++k) {
    out[count] = key_base | id[k];
    count += end[k] <= bound ? 1u : 0u;
  }
  return count;
}

__attribute__((target("avx2,popcnt")))
void EmitKeysAvx2(const uint32_t* id, size_t n, uint64_t key_base,
                  uint64_t* out) {
  const __m256i vkey = _mm256_set1_epi64x(static_cast<long long>(key_base));
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m128i ids32 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(id + k));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k),
                        _mm256_or_si256(vkey, _mm256_cvtepu32_epi64(ids32)));
  }
  for (; k < n; ++k) out[k] = key_base | id[k];
}

#endif  // STANDOFF_SIMD_X86

constexpr KernelOps kScalarOps = {
    CountLessI64Scalar, CompactLeI64Scalar,
    EmitKeysScalar, "scalar",
};

#if STANDOFF_SIMD_X86
constexpr KernelOps kSse42Ops = {
    CountLessI64Sse42, CompactLeI64Sse42,
    EmitKeysSse42, "sse4.2",
};

constexpr KernelOps kAvx2Ops = {
    CountLessI64Avx2, CompactLeI64Avx2,
    EmitKeysAvx2, "avx2",
};
#endif

}  // namespace

const KernelOps& Ops(simd::Level level) {
#if STANDOFF_SIMD_X86
  switch (level) {
    case simd::Level::kAVX2: return kAvx2Ops;
    case simd::Level::kSSE42: return kSse42Ops;
    default: return kScalarOps;
  }
#else
  (void)level;
  return kScalarOps;
#endif
}

}  // namespace simdk
}  // namespace so
}  // namespace standoff
