// Spans around the benchmark's calls into each layer, kept in memory and
// written out when the run ends. A span has a name, start, end, the span
// that caused it and the repetition ("run") it belongs to. The ledger
// reads self times from them: a span's duration minus the part its
// children on the same thread cover.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace orionbench {

class Tracer {
 public:
  explicit Tracer(bool enabled)
      : enabled_(enabled), recording_(enabled), epoch_(Clock::now()) {}

  /// True for a traced run (--trace 1).
  bool enabled() const { return enabled_; }
  /// A traced run pauses recording for the untraced repetitions it times
  /// to measure the tracing overhead. Call only while no other thread
  /// opens spans.
  void set_recording(bool on) { recording_ = enabled_ && on; }
  /// Tags the spans opened from now on with repetition `run`.
  void set_run(std::uint32_t run) { run_ = run; }

  /// Opens a span on the calling thread, as a child of the thread's open
  /// span. Returns -1 (and records nothing) when tracing is off.
  int open(const char* name);
  void close(int id);
  /// Records a finished span whose start and end were taken elsewhere
  /// (requests in flight across threads or sockets).
  void record(const char* name, Clock::time_point start,
              Clock::time_point end, int parent = -1);
  /// The calling thread's innermost open span, or -1.
  static int current();

  /// Per run, the summed self time (s) of spans named `name`.
  std::map<std::uint32_t, double> self_seconds_by_run(const std::string& name) const;
  /// Per run, the summed duration (s) of spans named `name`.
  std::map<std::uint32_t, double> seconds_by_run(const std::string& name) const;
  /// Median over runs of the summed self time; NaN when no span has that
  /// name, so a renamed or lost span reads as unmeasured, not as free.
  double median_self_seconds(const std::string& name) const;

  /// Writes every span as one JSON document.
  void write_json(const std::string& path) const;

 private:
  struct SpanRecord {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    int parent = -1;
    std::uint32_t run = 0;
    std::thread::id thread;
  };
  std::int64_t ns_of(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }
  /// Self time (ns) of each span.
  std::vector<std::int64_t> self_ns() const;

  const bool enabled_;
  bool recording_;
  const Clock::time_point epoch_;
  std::uint32_t run_ = 0;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// RAII span; free when tracing is off.
class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~Span() { tracer_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  const int id_;
};

}  // namespace orionbench
