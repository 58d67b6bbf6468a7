// Shared vocabulary of the end-to-end benchmark: options, the result a
// workload hands back, and small timing/statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace orionbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

enum class Size { Paper, Tiny };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Size size = Size::Paper;
  /// Scratch directory for archives; removed when the run ends.
  std::string work_dir;
  /// Where the traced run writes its spans (empty: not written).
  std::string trace_out;
};

/// What a workload reports. Metric names are the ones BENCHMARK.json
/// declares; run.py checks every end-to-end metric is present.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Input sizes and other facts for the run record (numbers only).
  std::map<std::string, double> record;
  /// Human-readable notes for each failed check (printed to stderr).
  std::vector<std::string> failures;

  void fail(std::string why) {
    ++failed;
    failures.push_back(std::move(why));
  }
  /// Counts one gate outcome.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
};

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Returns freed heap to the system and restarts the process's peak
/// resident set from its current size, so that peak_rss_mb() covers only
/// what runs after this call (not set-up or the reference replays).
void reset_peak_rss();
/// Peak resident set size (VmHWM) since the last reset_peak_rss(), in MB.
double peak_rss_mb();

/// Runs `make` `reps` times, timing each call; keeps the last result and
/// reports the median time. Every set-up builds its inputs from the seed,
/// so the repetitions must agree on `fingerprint`; a disagreement is a
/// failed check.
template <typename T, typename Make, typename Fingerprint>
T repeated_setup(int reps, Result& result, Make make, Fingerprint fingerprint) {
  std::vector<double> times;
  T kept{};
  std::uint64_t first = 0;
  for (int r = 0; r < reps; ++r) {
    kept = T{};  // free the previous inputs before building the next
    const auto t0 = Clock::now();
    kept = make();
    times.push_back(seconds_between(t0, Clock::now()));
    const std::uint64_t fp = fingerprint(kept);
    if (r == 0) first = fp;
    result.check(fp == first, "set-up repetition built different inputs");
  }
  result.metrics["setup_s"] = median(times);
  return kept;
}

/// FNV-1a over raw bytes, for input fingerprints.
inline std::uint64_t fnv1a(const void* data, std::size_t size,
                           std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace orionbench
