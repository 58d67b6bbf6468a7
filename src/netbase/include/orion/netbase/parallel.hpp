// Fork-join over a fixed number of threads, and the thread budget the
// analysis scans draw from. Every parallel pass in the library is a
// deterministic partition plus an ordered merge on the calling thread, so
// results never depend on how many threads ran them; these helpers only
// decide how many do.
#pragma once

#include <sched.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

namespace orion::net {

/// CPUs this process may run on: the size of its affinity mask, so
/// `taskset` and cpusets bound it, falling back to hardware_concurrency()
/// when the mask cannot be read. At least 1.
inline std::size_t available_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<std::size_t>(count);
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// Threads for one scan over `rows` rows: one per 2^16 rows, capped by
/// available_threads(), at least 1 — small inputs stay serial, where a
/// thread spawn would cost more than it saves.
inline std::size_t scan_threads(std::size_t rows) {
  constexpr std::size_t kRowsPerThread = std::size_t{1} << 16;
  return std::clamp<std::size_t>(rows / kRowsPerThread, 1, available_threads());
}

/// First index of part `t` when [0, n) is cut into `parts` contiguous,
/// near-equal parts (part t is [part_begin(n, parts, t),
/// part_begin(n, parts, t + 1))).
inline std::size_t part_begin(std::size_t n, std::size_t parts, std::size_t t) {
  return n / parts * t + n % parts * t / parts;  // = n * t / parts, no overflow
}

/// The part of [0, parts) that owns `key` when keys, not rows, are split
/// among threads. The murmur3 finalizer spreads runs of adjacent keys
/// (ports, addresses) evenly, and it is unrelated to FlatMap's Fibonacci
/// slot index: a Fibonacci split would crowd each part's keys into one
/// slice of that part's table.
inline std::size_t key_part(std::uint32_t key, std::size_t parts) {
  key ^= key >> 16;
  key *= 0x85EBCA6Bu;
  key ^= key >> 13;
  key *= 0xC2B2AE35u;
  key ^= key >> 16;
  return static_cast<std::size_t>((std::uint64_t{key} * parts) >> 32);
}

/// Runs fn(t) for every t in [0, n_threads): t = 0 on the calling thread,
/// the rest on threads of their own, and returns once all have finished.
/// If any fn throws, the exception of the lowest such t is rethrown after
/// the join, so failures are reported the same way at every thread count.
template <typename Fn>
void fork_join(std::size_t n_threads, Fn&& fn) {
  if (n_threads <= 1) {
    if (n_threads == 1) fn(std::size_t{0});
    return;
  }
  std::vector<std::exception_ptr> errors(n_threads);
  const auto run = [&](std::size_t t) {
    try {
      fn(t);
    } catch (...) {
      errors[t] = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> threads;
    threads.reserve(n_threads - 1);
    for (std::size_t t = 1; t < n_threads; ++t) threads.emplace_back(run, t);
    run(0);
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace orion::net
