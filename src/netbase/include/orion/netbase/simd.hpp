// Runtime-dispatched SIMD tier selection (DESIGN.md §14).
//
// The one kernel that dispatches on the tier is the CRC-32 fold
// (Crc32::update, crc32.hpp): a PCLMUL fold on the x86-64 tiers, the
// ARMv8 CRC32 instructions on Neon, and slicing-by-8 on Scalar. Every
// other per-packet loop in the tree (classification, prefix membership,
// the RFC 1071 checksum, FlatMap probing) has one portable form.
//
//   * detected_level() probes the hardware once — CPUID on x86-64
//     (AVX2 / SSE4.2+PCLMUL), HWCAP on aarch64 (NEON is baseline, the CRC
//     extension is probed) — and is immutable for the process lifetime.
//   * active_level() is the tier the CRC uses: the detected tier,
//     clamped down by the ORION_SIMD_LEVEL environment variable
//     ("scalar" | "sse42" | "avx2" | "neon") or by set_level() (tests and
//     benches force each tier to fuzz the equivalence contract). Neither
//     can raise the tier above what the hardware supports or what the
//     build compiled in (-DORION_ENABLE_SIMD=OFF pins everything to
//     Scalar).
//
// Dispatch granularity is one branch per update() call, never per byte;
// the level is a relaxed atomic so sanitizer builds stay clean when
// benches flip tiers around worker threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#ifndef ORION_SIMD_ENABLED
#define ORION_SIMD_ENABLED 0
#endif

namespace orion::net::simd {

/// Dispatch tiers, ordered so that a numeric comparison means "at least
/// this capable" within one architecture. Sse42 and Avx2 are x86-64 tiers
/// (Sse42 implies PCLMUL for the CRC fold); Neon is the aarch64 tier
/// (implies the ARMv8 CRC32 extension when detected). Scalar is the
/// table-driven reference and the only tier on other ISAs.
enum class Level : std::uint8_t { Scalar = 0, Sse42 = 1, Avx2 = 2, Neon = 3 };

const char* to_string(Level level);
/// Parses "scalar" / "sse42" / "avx2" / "neon"; returns false on anything
/// else (the caller decides whether to ignore or report).
bool parse_level(const std::string& text, Level& out);

/// Best tier the hardware (and this build) supports. Probed once.
Level detected_level();
/// The tier kernels dispatch on right now.
Level active_level();
/// Forces the active tier, clamped to detected_level() (requesting an
/// unsupported or foreign-ISA tier degrades to the best supported one,
/// never up). Returns the tier actually installed. Intended for tests and
/// benches; production processes use ORION_SIMD_LEVEL instead.
Level set_level(Level level);
/// Every tier this process can actually run, ascending (always starts
/// with Scalar). The CRC tests iterate this to cover every tier.
std::vector<Level> available_levels();

/// Human-readable feature summary for bug reports and bench JSONs, e.g.
/// "x86-64 sse4.2 pclmul avx2" or "scalar-only build (ORION_ENABLE_SIMD=OFF)".
std::string feature_string();
/// True when the build compiled the hardware CRC paths in at all.
constexpr bool compiled_in() { return ORION_SIMD_ENABLED != 0; }

}  // namespace orion::net::simd
