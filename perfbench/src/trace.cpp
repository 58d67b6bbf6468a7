#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <map>
#include <stdexcept>

namespace orionbench {

namespace {
thread_local int t_current = -1;
}

int Tracer::current() { return t_current; }

int Tracer::open(const char* name) {
  if (!recording_) return -1;
  const std::int64_t now = ns_of(Clock::now());
  int id = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    spans_.push_back({name, now, -1, t_current, run_, std::this_thread::get_id()});
  }
  t_current = id;
  return id;
}

void Tracer::close(int id) {
  if (id < 0) return;
  const std::int64_t now = ns_of(Clock::now());
  const std::lock_guard<std::mutex> lock(mu_);
  SpanRecord& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = now;
  t_current = span.parent;
}

void Tracer::record(const char* name, Clock::time_point start,
                    Clock::time_point end, int parent) {
  if (!recording_) return;
  const std::lock_guard<std::mutex> lock(mu_);
  // Recorded spans overlap each other and run beside their parent, so
  // they carry no thread and never count against the parent's self time.
  spans_.push_back({name, ns_of(start), ns_of(end), parent, run_, std::thread::id()});
}

std::vector<std::int64_t> Tracer::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const SpanRecord& span : spans_) {
    if (span.parent < 0) continue;
    const auto p = static_cast<std::size_t>(span.parent);
    // A child on another thread runs beside its parent, not inside it.
    if (spans_[p].thread == span.thread) {
      self[p] -= span.end_ns - span.start_ns;
    }
  }
  return self;
}

std::map<std::uint32_t, double> Tracer::self_seconds_by_run(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::vector<std::int64_t> self = self_ns();
  std::map<std::uint32_t, double> per_run;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      per_run[spans_[i].run] += 1e-9 * static_cast<double>(self[i]);
    }
  }
  return per_run;
}

std::map<std::uint32_t, double> Tracer::seconds_by_run(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<std::uint32_t, double> per_run;
  for (const SpanRecord& span : spans_) {
    if (name == span.name) {
      per_run[span.run] += 1e-9 * static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  return per_run;
}

double Tracer::median_self_seconds(const std::string& name) const {
  std::vector<double> values;
  for (const auto& [run, seconds] : self_seconds_by_run(name)) values.push_back(seconds);
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  return median(values);
}

void Tracer::write_json(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const std::vector<std::int64_t> self = self_ns();
  std::map<std::thread::id, int> threads;
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const int thread =
        threads.emplace(s.thread, static_cast<int>(threads.size())).first->second;
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"self_ns\": " << self[i] << ", \"parent\": " << s.parent
        << ", \"run\": " << s.run << ", \"thread\": " << thread << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

}  // namespace orionbench
