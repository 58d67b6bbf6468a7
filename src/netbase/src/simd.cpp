#include "orion/netbase/simd.hpp"

#include <atomic>
#include <cstdlib>

#if ORION_SIMD_ENABLED && defined(__x86_64__)
#include <immintrin.h>
#endif
#if ORION_SIMD_ENABLED && defined(__aarch64__)
#include <arm_neon.h>
#if defined(__linux__)
#include <sys/auxv.h>
#endif
#endif

namespace orion::net::simd {

namespace {

Level probe_hardware() {
#if !ORION_SIMD_ENABLED
  return Level::Scalar;
#elif defined(__x86_64__)
  // The CRC fold needs PCLMULQDQ alongside SSE4.2, so the Sse42 tier
  // requires both; AVX2 machines all have them.
  const bool sse42 = __builtin_cpu_supports("sse4.2") != 0 &&
                     __builtin_cpu_supports("pclmul") != 0;
  if (sse42 && __builtin_cpu_supports("avx2") != 0) return Level::Avx2;
  if (sse42) return Level::Sse42;
  return Level::Scalar;
#elif defined(__aarch64__)
  // NEON (ASIMD) is architecturally mandatory on AArch64.
  return Level::Neon;
#else
  return Level::Scalar;
#endif
}

/// Clamps a requested tier to what this process can run: a foreign-ISA or
/// too-high request degrades to the detected tier, never above it.
Level clamp_to_detected(Level requested, Level detected) {
  if (requested == Level::Scalar) return Level::Scalar;
#if defined(__aarch64__)
  return requested == Level::Neon ? detected : Level::Scalar;
#else
  if (requested == Level::Neon) return detected;  // foreign ISA: best local
  return requested <= detected ? requested : detected;
#endif
}

/// One-time initialization: hardware probe, then the ORION_SIMD_LEVEL
/// clamp. The atomic holds the active tier for the process; set_level()
/// rewrites it (relaxed — tiers only change from single-threaded test and
/// bench harness code, and every value is a valid tier).
struct Dispatch {
  Level detected;
  std::atomic<Level> active;

  Dispatch() : detected(probe_hardware()), active(detected) {
    if (const char* env = std::getenv("ORION_SIMD_LEVEL")) {
      Level requested;
      if (parse_level(env, requested)) {
        active.store(clamp_to_detected(requested, detected),
                     std::memory_order_relaxed);
      }
    }
  }
};

Dispatch& dispatch() {
  static Dispatch d;
  return d;
}

}  // namespace

const char* to_string(Level level) {
  switch (level) {
    case Level::Scalar: return "scalar";
    case Level::Sse42: return "sse42";
    case Level::Avx2: return "avx2";
    case Level::Neon: return "neon";
  }
  return "?";
}

bool parse_level(const std::string& text, Level& out) {
  if (text == "scalar") out = Level::Scalar;
  else if (text == "sse42") out = Level::Sse42;
  else if (text == "avx2") out = Level::Avx2;
  else if (text == "neon") out = Level::Neon;
  else return false;
  return true;
}

Level detected_level() { return dispatch().detected; }

Level active_level() {
  return dispatch().active.load(std::memory_order_relaxed);
}

Level set_level(Level level) {
  const Level installed = clamp_to_detected(level, dispatch().detected);
  dispatch().active.store(installed, std::memory_order_relaxed);
  return installed;
}

std::vector<Level> available_levels() {
  std::vector<Level> levels{Level::Scalar};
  const Level detected = dispatch().detected;
#if defined(__aarch64__)
  if (detected == Level::Neon) levels.push_back(Level::Neon);
#else
  if (detected >= Level::Sse42 && detected != Level::Neon) {
    levels.push_back(Level::Sse42);
  }
  if (detected == Level::Avx2) levels.push_back(Level::Avx2);
#endif
  return levels;
}

std::string feature_string() {
  if (!compiled_in()) return "scalar-only build (ORION_ENABLE_SIMD=OFF)";
  std::string features;
#if defined(__x86_64__)
  features = "x86-64";
  if (__builtin_cpu_supports("sse4.2")) features += " sse4.2";
  if (__builtin_cpu_supports("pclmul")) features += " pclmul";
  if (__builtin_cpu_supports("popcnt")) features += " popcnt";
  if (__builtin_cpu_supports("avx2")) features += " avx2";
#elif defined(__aarch64__)
  features = "aarch64 neon";
#if defined(__linux__) && defined(HWCAP_CRC32)
  if (getauxval(AT_HWCAP) & HWCAP_CRC32) features += " crc32";
#endif
#else
  features = "unknown ISA";
#endif
  return features;
}

// --- prefix-membership kernel -----------------------------------------------

void accumulate_masked_eq_u32_scalar(const std::uint32_t* v, std::size_t n,
                                     std::uint32_t mask, std::uint32_t expect,
                                     std::uint8_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] |= static_cast<std::uint8_t>((v[i] & mask) == expect);
  }
}

#if ORION_SIMD_ENABLED && defined(__x86_64__)

namespace {

/// 32 lanes of (v & mask) == expect per iteration: four 8-lane compares
/// packed down to one byte vector (packs interleave 128-bit lanes, the
/// permute restores source order), OR-merged into the output column.
__attribute__((target("avx2"))) void masked_eq_avx2(const std::uint32_t* v,
                                                    std::size_t n,
                                                    std::uint32_t mask,
                                                    std::uint32_t expect,
                                                    std::uint8_t* out) {
  const __m256i vmask = _mm256_set1_epi32(static_cast<int>(mask));
  const __m256i vexpect = _mm256_set1_epi32(static_cast<int>(expect));
  const __m256i fix = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  const __m256i one = _mm256_set1_epi8(1);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    // GCC refuses to inline AVX2 intrinsics into lambdas declared inside a
    // target("avx2") function, so the four compares are spelled out.
#define ORION_CMP8(off)                                                       \
  _mm256_cmpeq_epi32(                                                         \
      _mm256_and_si256(_mm256_loadu_si256(                                    \
                           reinterpret_cast<const __m256i*>(v + i + (off))),  \
                       vmask),                                                \
      vexpect)
    const __m256i ab = _mm256_packs_epi32(ORION_CMP8(0), ORION_CMP8(8));
    const __m256i cd = _mm256_packs_epi32(ORION_CMP8(16), ORION_CMP8(24));
#undef ORION_CMP8
    __m256i bytes = _mm256_packs_epi16(ab, cd);
    bytes = _mm256_permutevar8x32_epi32(bytes, fix);
    bytes = _mm256_and_si256(bytes, one);
    __m256i prev =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_or_si256(prev, bytes));
  }
  accumulate_masked_eq_u32_scalar(v + i, n - i, mask, expect, out + i);
}

/// 16 lanes per iteration with SSE2 packs (no cross-lane shuffle needed).
void masked_eq_sse(const std::uint32_t* v, std::size_t n, std::uint32_t mask,
                   std::uint32_t expect, std::uint8_t* out) {
  const __m128i vmask = _mm_set1_epi32(static_cast<int>(mask));
  const __m128i vexpect = _mm_set1_epi32(static_cast<int>(expect));
  const __m128i one = _mm_set1_epi8(1);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const auto cmp = [&](std::size_t off) {
      const __m128i x =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i + off));
      return _mm_cmpeq_epi32(_mm_and_si128(x, vmask), vexpect);
    };
    const __m128i ab = _mm_packs_epi32(cmp(0), cmp(4));
    const __m128i cd = _mm_packs_epi32(cmp(8), cmp(12));
    __m128i bytes = _mm_packs_epi16(ab, cd);
    bytes = _mm_and_si128(bytes, one);
    const __m128i prev =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(out + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_or_si128(prev, bytes));
  }
  accumulate_masked_eq_u32_scalar(v + i, n - i, mask, expect, out + i);
}

}  // namespace

#endif  // x86-64

#if ORION_SIMD_ENABLED && defined(__aarch64__)

namespace {

void masked_eq_neon(const std::uint32_t* v, std::size_t n, std::uint32_t mask,
                    std::uint32_t expect, std::uint8_t* out) {
  const uint32x4_t vmask = vdupq_n_u32(mask);
  const uint32x4_t vexpect = vdupq_n_u32(expect);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const auto cmp = [&](std::size_t off) {
      return vceqq_u32(vandq_u32(vld1q_u32(v + i + off), vmask), vexpect);
    };
    const uint16x8_t ab = vcombine_u16(vmovn_u32(cmp(0)), vmovn_u32(cmp(4)));
    const uint16x8_t cd = vcombine_u16(vmovn_u32(cmp(8)), vmovn_u32(cmp(12)));
    const uint8x16_t bytes =
        vandq_u8(vcombine_u8(vmovn_u16(ab), vmovn_u16(cd)), vdupq_n_u8(1));
    vst1q_u8(out + i, vorrq_u8(vld1q_u8(out + i), bytes));
  }
  accumulate_masked_eq_u32_scalar(v + i, n - i, mask, expect, out + i);
}

}  // namespace

#endif  // aarch64

void accumulate_masked_eq_u32(const std::uint32_t* v, std::size_t n,
                              std::uint32_t mask, std::uint32_t expect,
                              std::uint8_t* out) {
#if ORION_SIMD_ENABLED && defined(__x86_64__)
  const Level level = active_level();
  if (level == Level::Avx2) return masked_eq_avx2(v, n, mask, expect, out);
  if (level == Level::Sse42) return masked_eq_sse(v, n, mask, expect, out);
#elif ORION_SIMD_ENABLED && defined(__aarch64__)
  if (active_level() == Level::Neon) {
    return masked_eq_neon(v, n, mask, expect, out);
  }
#endif
  accumulate_masked_eq_u32_scalar(v, n, mask, expect, out);
}

}  // namespace orion::net::simd
