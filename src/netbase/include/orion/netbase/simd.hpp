// Runtime-dispatched SIMD tier selection and the prefix-membership kernel
// (DESIGN.md §14).
//
// Every hot-loop kernel in the tree (classification, CRC folding, RFC 1071
// checksum, FlatMap tag probing, prefix membership) keeps its scalar form
// as the pinned equivalence reference and consults one process-global
// dispatch tier chosen here:
//
//   * detected_level() probes the hardware once — CPUID on x86-64
//     (AVX2 / SSE4.2+PCLMUL), HWCAP on aarch64 (NEON is baseline, the CRC
//     extension is probed) — and is immutable for the process lifetime.
//   * active_level() is the tier the kernels actually use: the detected
//     tier, clamped down by the ORION_SIMD_LEVEL environment variable
//     ("scalar" | "sse42" | "avx2" | "neon") or by set_level() (tests and
//     benches force each tier to fuzz the equivalence contract). Neither
//     can raise the tier above what the hardware supports or what the
//     build compiled in (-DORION_ENABLE_SIMD=OFF pins everything to
//     Scalar).
//
// Dispatch granularity is one branch per kernel call (per batch / buffer /
// probe), never per element; the level is a relaxed atomic so sanitizer
// builds stay clean when benches flip tiers around worker threads.
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
/// (implies the ARMv8 CRC32 extension when detected). Scalar is every
/// kernel's reference implementation and the only tier on other ISAs.
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
/// with Scalar). bench_hotpath iterates this to fill the cross-ISA matrix.
std::vector<Level> available_levels();

/// Human-readable feature summary for bug reports and bench JSONs, e.g.
/// "x86-64 sse4.2 pclmul avx2" or "scalar-only build (ORION_ENABLE_SIMD=OFF)".
std::string feature_string();
/// True when the build compiled the vector kernels in at all.
constexpr bool compiled_in() { return ORION_SIMD_ENABLED != 0; }

// --- prefix-membership kernel -----------------------------------------------
// The *_scalar form is the pinned reference.

/// Prefix-membership accumulator: out[i] |= ((v[i] & mask) == expect) for
/// every lane. PrefixSet::contains_batch calls this once per member prefix
/// over the destination column; `out` must hold n bytes and is OR-updated
/// so disjoint prefixes compose.
void accumulate_masked_eq_u32(const std::uint32_t* v, std::size_t n,
                              std::uint32_t mask, std::uint32_t expect,
                              std::uint8_t* out);
void accumulate_masked_eq_u32_scalar(const std::uint32_t* v, std::size_t n,
                                     std::uint32_t mask, std::uint32_t expect,
                                     std::uint8_t* out);

}  // namespace orion::net::simd
