// Single-core hot-path throughput: scalar per-packet observe() vs the
// batched SoA engine (PacketBatch + EventAggregator::observe_batch).
//
// One fixed scangen packet stream (tiny scenario, deterministic seed) is
// pre-chunked into columnar batches outside the timed region, so both
// paths time exactly the aggregation work. Before any timing, the batch
// path is checked byte-identical to the scalar path — same event dataset
// AND same checkpoint bytes (compared via CRC-32 of the serialized
// snapshot) — for every benchmarked batch size plus a ragged
// random-size chunking; a mismatch fails the run.
//
//   $ ./bench_hotpath [--days N] [--reps R] [--json PATH] [--smoke]
//
// --json writes the machine-readable BENCH_hotpath.json recording the
// acceptance number (>= 2x pps at the best batch size) alongside
// checksums_ok, hardware_concurrency, and the active SIMD tier (which
// only the checkpoint CRC consults). --smoke runs the
// equivalence checks only (fast, used by the ctest "hotpath" label).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "orion/netbase/crc32.hpp"
#include "orion/netbase/simd.hpp"
#include "orion/packet/batch.hpp"
#include "orion/scangen/packet_gen.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/telescope/capture.hpp"
#include "orion/telescope/checkpoint.hpp"

namespace {

using namespace orion;

double best_seconds(int reps, const std::function<void()>& run) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    run();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

std::vector<pkt::PacketBatch> chunk(const std::vector<pkt::Packet>& packets,
                                    std::size_t batch_size) {
  std::vector<pkt::PacketBatch> batches;
  for (std::size_t i = 0; i < packets.size(); i += batch_size) {
    pkt::PacketBatch b(batch_size);
    for (std::size_t j = i; j < i + batch_size && j < packets.size(); ++j) {
      b.push_back(packets[j]);
    }
    batches.push_back(std::move(b));
  }
  return batches;
}

struct CaptureResult {
  std::uint32_t checkpoint_crc = 0;
  std::vector<telescope::DarknetEvent> events;
};

/// Runs a full capture through `feed`, snapshotting before finish() so
/// both the mid-stream state (checkpoint bytes) and the final output
/// (event list) are compared.
CaptureResult run_capture(
    const scangen::Scenario& scenario, const telescope::AggregatorConfig& cfg,
    const std::function<void(telescope::TelescopeCapture&)>& feed) {
  telescope::TelescopeCapture capture(scenario.darknet(), cfg);
  feed(capture);
  telescope::CheckpointWriter writer;
  capture.checkpoint(writer);
  std::ostringstream snapshot;
  writer.finish(snapshot);
  const std::string bytes = snapshot.str();
  CaptureResult result;
  result.checkpoint_crc = net::Crc32::of(
      {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
  result.events = capture.finish().events();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t days = 3;
  int reps = 5;
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--days" && i + 1 < argc) {
      days = std::stoll(argv[++i]);
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::stoi(argv[++i]);
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
      days = 1;
      reps = 1;
    } else {
      std::cerr << "usage: bench_hotpath [--days N] [--reps R] [--json PATH] "
                   "[--smoke]\n";
      return 1;
    }
  }

  bench::print_header(
      "Batched SoA hot path (packets/sec, scalar vs observe_batch)",
      "Acceptance: >= 2x single-core pps at the best batch size, with the "
      "batch path byte-identical to scalar (same events, same checkpoint "
      "bytes) at every batch size.");

  const scangen::Scenario scenario{scangen::tiny()};
  std::vector<pkt::Packet> packets;
  {
    scangen::PacketStreamGenerator generator(
        scenario.population_2021().scanners, scenario.darknet(),
        net::SimTime::epoch(),
        net::SimTime::epoch() + net::Duration::days(days),
        {.seed = 17, .exact_targets = true, .stable_streams = true});
    while (auto packet = generator.next()) packets.push_back(*packet);
  }
  telescope::AggregatorConfig config;
  config.timeout = scenario.event_timeout();
  std::cout << "stream: " << packets.size() << " packets over " << days
            << " days\n\n";

  // --- Equivalence gate (always runs; the timing numbers are meaningless
  // if the two paths do not produce identical state).
  const CaptureResult scalar_ref =
      run_capture(scenario, config, [&](telescope::TelescopeCapture& cap) {
        for (const pkt::Packet& p : packets) cap.observe(p);
      });
  const std::vector<std::size_t> batch_sizes = {64, 256, 1024};
  bool checksums_ok = true;
  const auto check = [&](const std::string& label, const CaptureResult& r) {
    const bool ok = r.checkpoint_crc == scalar_ref.checkpoint_crc &&
                    r.events == scalar_ref.events;
    checksums_ok = checksums_ok && ok;
    std::cout << "equivalence @ " << label << ": " << (ok ? "ok" : "MISMATCH")
              << "\n";
  };
  for (const std::size_t size : batch_sizes) {
    const auto batches = chunk(packets, size);
    check("batch " + std::to_string(size),
          run_capture(scenario, config, [&](telescope::TelescopeCapture& cap) {
            for (const pkt::PacketBatch& b : batches) cap.observe_batch(b);
          }));
  }
  {
    // Ragged chunking: random sizes in [1, 512], including size-1 batches.
    std::mt19937 rng(99);
    check("ragged random chunking",
          run_capture(scenario, config, [&](telescope::TelescopeCapture& cap) {
            pkt::PacketBatch b(512);
            std::size_t i = 0;
            while (i < packets.size()) {
              const std::size_t size = 1 + rng() % 512;
              b.clear();
              for (std::size_t j = 0; j < size && i < packets.size(); ++j, ++i) {
                b.push_back(packets[i]);
              }
              cap.observe_batch(b);
            }
          }));
  }
  std::cout << (checksums_ok ? "\nbatch path byte-identical to scalar\n\n"
                             : "\nBATCH PATH DIVERGED FROM SCALAR\n\n");
  if (smoke) {
    std::cout << (checksums_ok ? "SMOKE OK\n" : "SMOKE FAILED\n");
    return checksums_ok ? 0 : 1;
  }

  // --- Timing. Batches are pre-chunked outside the timed region so both
  // paths time pure aggregation work on one core.
  struct Run {
    std::string config;
    double seconds = 0;
    double pps = 0;
  };
  std::vector<Run> runs;
  {
    Run run;
    run.config = "scalar";
    run.seconds = best_seconds(reps, [&] {
      telescope::TelescopeCapture cap(scenario.darknet(), config);
      for (const pkt::Packet& p : packets) cap.observe(p);
    });
    run.pps = static_cast<double>(packets.size()) / run.seconds;
    runs.push_back(run);
  }
  for (const std::size_t size : batch_sizes) {
    const auto batches = chunk(packets, size);
    Run run;
    run.config = "batch" + std::to_string(size);
    run.seconds = best_seconds(reps, [&] {
      telescope::TelescopeCapture cap(scenario.darknet(), config);
      for (const pkt::PacketBatch& b : batches) cap.observe_batch(b);
    });
    run.pps = static_cast<double>(packets.size()) / run.seconds;
    runs.push_back(run);
  }

  const double scalar_pps = runs[0].pps;
  double best_speedup = 0;
  std::string best_config;
  report::Table table({"configuration", "seconds (best)", "packets/sec",
                       "speedup vs scalar"});
  for (const Run& run : runs) {
    const double speedup = run.pps / scalar_pps;
    if (run.config != "scalar" && speedup > best_speedup) {
      best_speedup = speedup;
      best_config = run.config;
    }
    char sec_buf[64], pps_buf[64], spd_buf[64];
    std::snprintf(sec_buf, sizeof sec_buf, "%.4f", run.seconds);
    std::snprintf(pps_buf, sizeof pps_buf, "%.0f", run.pps);
    std::snprintf(spd_buf, sizeof spd_buf, "%.2fx", speedup);
    table.add_row({run.config, sec_buf, pps_buf, spd_buf});
  }
  std::cout << table.to_ascii();
  std::cout << "\nbest: " << best_config << " at ";
  std::printf("%.2fx", best_speedup);
  std::cout << (best_speedup >= 2.0 ? " (acceptance >= 2x met)\n"
                                    : " (below the 2x acceptance bar)\n");

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    out << "{\n"
        << "  \"bench\": \"hotpath\",\n"
        << "  \"scenario\": \"tiny\",\n"
        << "  \"days\": " << days << ",\n"
        << "  \"packets\": " << packets.size() << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
        << ",\n"
        << "  \"simd_tier\": \""
        << net::simd::to_string(net::simd::active_level()) << "\",\n"
        << "  \"checksums_ok\": " << (checksums_ok ? "true" : "false") << ",\n"
        << "  \"checkpoint_crc32\": " << scalar_ref.checkpoint_crc << ",\n"
        << "  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      out << "    {\"config\": \"" << runs[i].config
          << "\", \"seconds\": " << runs[i].seconds
          << ", \"pps\": " << runs[i].pps
          << ", \"speedup_vs_scalar\": " << runs[i].pps / scalar_pps << "}"
          << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"best_config\": \"" << best_config << "\",\n"
        << "  \"speedup\": " << best_speedup << "\n"
        << "}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return checksums_ok ? 0 : 1;
}
