// ODE1 vs ODE2 scan throughput — the ISSUE-3 acceptance bench.
//
// Writes one synthesized dataset in both on-disk formats, then measures
// events/sec of three read paths over the same scan workload (fold every
// event's packets / unique_dests / day into a checksum):
//
//   ode1_load_scan : ifstream + read_events_binary, then scan the vector
//   ode2_cold      : MappedEventStore open (mmap + footer parse) + scan
//   ode2_warm      : scan through an already-open store
//   ode2_parallel  : parallel_scan() at hardware_concurrency threads
//
// All four paths must produce the identical checksum — the bench aborts
// if they disagree. Acceptance: ode2 mmap scan >= 5x the events/sec of
// the ODE1 load+scan path.
//
//   $ ./bench_store_scan [--scenario tiny|paper] [--reps R] [--json PATH]
//                        [--smoke]
//
// Each path reports the best-of-R seconds per scan; a rep repeats its
// scan until the timed region is >= 50 ms.
//
// --json writes the machine-readable BENCH_store.json; --smoke is the
// ctest mode (tiny scenario, 1 rep of one scan, correctness checks only).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/store/mapped.hpp"
#include "orion/store/ode2.hpp"
#include "orion/telescope/capture.hpp"
#include "orion/telescope/store.hpp"

namespace {

using namespace orion;

/// The per-event fold all read paths share: cheap enough that the
/// measurement is dominated by how the bytes reach the CPU, stateful
/// enough that dead-code elimination can't skip the scan.
struct ScanState {
  std::uint64_t packets = 0;
  std::uint64_t dests = 0;
  std::uint64_t day_weighted = 0;
  std::uint64_t events = 0;

  template <typename Event>
  void fold(const Event& e) {
    packets += e.packets;
    dests += e.unique_dests;
    day_weighted += static_cast<std::uint64_t>(e.day()) * (e.key.dst_port + 1);
    ++events;
  }
  void merge(const ScanState& other) {
    packets += other.packets;
    dests += other.dests;
    day_weighted += other.day_weighted;
    events += other.events;
  }
  std::uint64_t checksum() const {
    return packets ^ (dests << 1) ^ (day_weighted << 2) ^ (events << 3);
  }
};

/// Best-of-`reps` seconds per scan. Each rep repeats `run` until its
/// timed region reaches `min_region_s`, so sub-millisecond scans are
/// timed far above the clock's resolution.
double seconds_per_scan(int reps, double min_region_s,
                        const std::function<void()>& run) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t scans = 0;
    double elapsed = 0;
    do {
      run();
      ++scans;
      elapsed = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    } while (elapsed < min_region_s);
    best = std::min(best, elapsed / static_cast<double>(scans));
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::string which = "tiny";
  int reps = 3;
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scenario" && i + 1 < argc) {
      which = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::stoi(argv[++i]);
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      std::cerr << "usage: bench_store_scan [--scenario tiny|paper] [--reps R] "
                   "[--json PATH] [--smoke]\n";
      return 1;
    }
  }
  if (smoke) reps = 1;
  // --smoke checks correctness only, so one scan per path suffices.
  const double min_region_s = smoke ? 0.0 : 0.05;
  if (which != "tiny" && which != "paper") {
    std::cerr << "error: --scenario must be tiny or paper\n";
    return 1;
  }

  bench::print_header(
      "ODE2 columnar store scan vs ODE1 row load (events/sec)",
      "ISSUE 3 acceptance: ODE2 mmap scan >= 5x the events/sec of the "
      "ODE1 load+scan path; identical checksums on every path.");

  const scangen::Scenario scenario{which == "paper" ? scangen::paper_scaled()
                                                    : scangen::tiny()};
  const telescope::EventDataset dataset(
      scangen::synthesize_events(
          scenario.population_2021(),
          {.darknet_size = scenario.darknet().total_addresses(),
           .seed = scenario.config().seed}),
      scenario.darknet().total_addresses());

  const auto dir = std::filesystem::temp_directory_path();
  const std::string ode1_path = (dir / "bench_store_scan.ode1").string();
  const std::string ode2_path = (dir / "bench_store_scan.ode2").string();
  std::uint64_t ode1_bytes = 0;
  {
    std::ofstream out(ode1_path, std::ios::binary | std::ios::trunc);
    ode1_bytes = telescope::write_events_binary(dataset, out);
  }
  const std::uint64_t ode2_bytes =
      store::write_events_ode2_file(dataset, ode2_path);

  const unsigned hw = std::thread::hardware_concurrency();
  const auto n = static_cast<double>(dataset.event_count());
  std::cout << "dataset: " << dataset.event_count() << " events ("
            << which << " scenario); ODE1 " << ode1_bytes << " bytes, ODE2 "
            << ode2_bytes << " bytes; hardware_concurrency = " << hw << "\n\n";

  // Reference checksum straight off the in-memory dataset.
  ScanState reference;
  for (const auto& e : dataset.events()) reference.fold(e);

  struct Run {
    std::string name;
    double seconds = 0;
    double eps = 0;
  };
  std::vector<Run> runs;
  bool checksums_ok = true;
  const auto check = [&](const char* name, const ScanState& state) {
    if (state.checksum() != reference.checksum()) {
      std::cerr << "CHECKSUM MISMATCH in " << name << ": " << state.checksum()
                << " != " << reference.checksum() << "\n";
      checksums_ok = false;
    }
  };

  {
    ScanState last;
    const double s = seconds_per_scan(reps, min_region_s, [&]() {
      std::ifstream in(ode1_path, std::ios::binary);
      const telescope::EventDataset d = telescope::read_events_binary(in);
      ScanState state;
      for (const auto& e : d.events()) state.fold(e);
      last = state;
    });
    check("ode1_load_scan", last);
    runs.push_back({"ode1_load_scan", s, n / s});
  }
  {
    ScanState last;
    const double s = seconds_per_scan(reps, min_region_s, [&]() {
      const store::MappedEventStore st(ode2_path);
      ScanState state;
      st.for_each_event([&](const store::EventRow& e) { state.fold(e); });
      last = state;
    });
    check("ode2_cold", last);
    runs.push_back({"ode2_cold", s, n / s});
  }
  const store::MappedEventStore st(ode2_path);
  {
    ScanState last;
    const double s = seconds_per_scan(reps, min_region_s, [&]() {
      ScanState state;
      st.for_each_event([&](const store::EventRow& e) { state.fold(e); });
      last = state;
    });
    check("ode2_warm", last);
    runs.push_back({"ode2_warm", s, n / s});
  }
  {
    ScanState last;
    const double s = seconds_per_scan(reps, min_region_s, [&]() {
      last = st.parallel_scan<ScanState>(
          hw == 0 ? 1 : hw,
          [](ScanState& state, const store::BlockView& view) {
            for (std::size_t i = 0; i < view.rows(); ++i) {
              state.packets += view.packets[i];
              state.dests += view.unique_dests[i];
              state.day_weighted +=
                  static_cast<std::uint64_t>(
                      net::SimTime::at(net::Duration::nanos(view.start_ns[i]))
                          .day()) *
                  (static_cast<std::uint64_t>(view.dst_port[i]) + 1);
              ++state.events;
            }
          },
          [](ScanState& into, ScanState&& from) { into.merge(from); });
    });
    check("ode2_parallel", last);
    runs.push_back({"ode2_parallel", s, n / s});
  }

  const double ode1_eps = runs[0].eps;
  report::Table table(
      {"path", "seconds per scan (best)", "events/sec", "vs ode1"});
  for (const Run& r : runs) {
    char sec_buf[64], eps_buf[64], spd_buf[64];
    std::snprintf(sec_buf, sizeof sec_buf, "%.3g", r.seconds);
    std::snprintf(eps_buf, sizeof eps_buf, "%.0f", r.eps);
    std::snprintf(spd_buf, sizeof spd_buf, "%.2fx", r.eps / ode1_eps);
    table.add_row({r.name, sec_buf, eps_buf, spd_buf});
  }
  std::cout << table.to_ascii();
  std::cout << "\nchecksums identical on all paths:  "
            << (checksums_ok ? "yes" : "NO") << "\n"
            << "acceptance (ode2 warm >= 5x ode1):  "
            << (runs[2].eps >= 5.0 * ode1_eps ? "yes" : "NO") << "\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    out << "{\n"
        << "  \"bench\": \"store_scan\",\n"
        << "  \"scenario\": \"" << which << "\",\n"
        << "  \"events\": " << dataset.event_count() << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"hardware_concurrency\": " << hw << ",\n"
        << "  \"ode1_bytes\": " << ode1_bytes << ",\n"
        << "  \"ode2_bytes\": " << ode2_bytes << ",\n"
        << "  \"checksums_ok\": " << (checksums_ok ? "true" : "false") << ",\n"
        << "  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      out << "    {\"path\": \"" << runs[i].name
          << "\", \"seconds\": " << runs[i].seconds
          << ", \"events_per_sec\": " << runs[i].eps
          << ", \"speedup_vs_ode1\": " << runs[i].eps / ode1_eps << "}"
          << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"speedup_cold_vs_ode1\": " << runs[1].eps / ode1_eps << ",\n"
        << "  \"speedup_warm_vs_ode1\": " << runs[2].eps / ode1_eps << ",\n"
        << "  \"speedup_parallel_vs_ode1\": " << runs[3].eps / ode1_eps << "\n"
        << "}\n";
    std::cout << "wrote " << json_path << "\n";
  }

  std::filesystem::remove(ode1_path);
  std::filesystem::remove(ode2_path);
  return checksums_ok ? 0 : 1;
}
