#include "orion/netbase/simd.hpp"

#include <atomic>
#include <cstdlib>

#if ORION_SIMD_ENABLED && defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
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

}  // namespace orion::net::simd
