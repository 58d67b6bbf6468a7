// orionbench — the orionscan end-to-end benchmark driver.
//
//   orionbench --workload ingest|study --seed N --seconds S --trace 0|1
//              --work-dir DIR [--size paper|tiny] [--trace-out FILE]
//
// Prints one JSON line: {"attempted", "failed", "build_type", "simd",
// "layers", "metrics", "record"}, where "layers" names the per-layer
// metrics a traced run measured.
// perfbench/run.py builds this binary, runs it and turns that line into
// the benchmark's result. Failed checks are listed on stderr.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "orion/netbase/simd.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace orionbench;

struct Workload {
  const char* name;
  Result (*run)(const Options&, Tracer&);
  /// The per-layer metrics a traced run of this workload measures. A
  /// traced run that misses one of them fails; every per-layer metric
  /// that another workload owns reads an explicit 0.
  std::vector<std::string> layers;
};

const std::vector<Workload> kWorkloads = {
    {"ingest", run_ingest,
     {"pipeline.observe_batch_s", "pipeline.checkpoint_s", "pipeline.checkpoint_bytes",
      "pipeline.finish_s", "pipeline.dropped_share", "telescope.capture_pps",
      "packet.classify_ns_per_pkt", "netbase.contains_batch_ns_per_pkt",
      "scangen.scenario_s", "scangen.packet_gen_s", "trace.overhead_share",
      "failed_share"}},
    {"study", run_study,
     {"telescope.dataset_build_s", "store.publish_s", "store.open_s", "store.ode2_bytes",
      "store.fde1_bytes", "detect.detect_mmap_s", "detect.detect_mem_s",
      "impact.prebuild_s", "impact.table_s", "charact.top_ports_s", "charact.temporal_s",
      "charact.origins_s", "study.ledger_coverage", "scangen.scenario_s",
      "scangen.synth_s", "flowsim.generate_s", "trace.overhead_share", "failed_share",
      // From probe_serve.
      "serve.codec_us", "serve.engine_us_p50", "serve.engine_us_p99", "impact.query_us",
      "serve.wait_us", "serve.shared_share", "serve.swap_visible_ms",
      "store.swap_publish_s", "serve.max_qps", "serve.query_p50_ms", "serve.query_p99_ms",
      "loadgen.late_p99_ms", "serve.start_s"}},
};

void usage() {
  std::cerr << "usage: orionbench --workload ingest|study --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--size paper|tiny] [--trace-out FILE]\n";
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--size") {
      if (value != "paper" && value != "tiny") return false;
      options.size = value == "tiny" ? Size::Tiny : Size::Paper;
    } else if (key == "--work-dir") {
      options.work_dir = value;
    } else if (key == "--trace-out") {
      options.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options.workload.empty() && !options.work_dir.empty() &&
         options.seconds > 0;
}

void print_number_map(const std::map<std::string, double>& values) {
  std::printf("{");
  bool first = true;
  for (const auto& [name, value] : values) {
    std::printf("%s\"%s\": ", first ? "" : ", ", name.c_str());
    if (std::isfinite(value)) {
      std::printf("%.17g", value);
    } else {
      std::printf("null");
    }
    first = false;
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    if (!parse(argc, argv, options)) {
      usage();
      return 2;
    }
  } catch (const std::exception&) {
    usage();
    return 2;
  }

  const auto workload = std::find_if(kWorkloads.begin(), kWorkloads.end(),
                                     [&](const Workload& w) { return options.workload == w.name; });
  if (workload == kWorkloads.end()) {
    usage();
    return 2;
  }
  Tracer tracer(options.trace);
  Result result;
  try {
    std::filesystem::remove_all(options.work_dir);
    std::filesystem::create_directories(options.work_dir);
    result = workload->run(options, tracer);
    std::filesystem::remove_all(options.work_dir);
    if (!options.trace_out.empty() && options.trace) {
      tracer.write_json(options.trace_out);
    }
  } catch (const std::exception& err) {
    std::cerr << "orionbench: " << err.what() << "\n";
    std::error_code ignored;
    std::filesystem::remove_all(options.work_dir, ignored);
    return 1;
  }

  if (options.trace) {
    for (const std::string& name : workload->layers) {
      if (name == "failed_share") continue;
      const auto it = result.metrics.find(name);
      result.check(it != result.metrics.end() && std::isfinite(it->second),
                   "layer metric " + name + " was not measured");
    }
    for (const Workload& other : kWorkloads) {
      for (const std::string& name : other.layers) result.metrics.try_emplace(name, 0.0);
    }
  }
  result.metrics["failed_share"] =
      static_cast<double>(result.failed) /
      static_cast<double>(std::max<std::uint64_t>(result.attempted, 1));
  result.record["hardware_concurrency"] = std::thread::hardware_concurrency();
  for (std::size_t i = 0; i < result.failures.size() && i < 20; ++i) {
    std::cerr << "FAILED: " << result.failures[i] << "\n";
  }
  if (result.failures.size() > 20) {
    std::cerr << "FAILED: ... and " << result.failures.size() - 20 << " more\n";
  }

  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"build_type\": \"%s\", "
              "\"simd\": \"%s\", \"layers\": [",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), ORIONBENCH_BUILD_TYPE,
              orion::net::simd::to_string(orion::net::simd::active_level()));
  if (options.trace) {
    for (std::size_t i = 0; i < workload->layers.size(); ++i) {
      std::printf("%s\"%s\"", i > 0 ? ", " : "", workload->layers[i].c_str());
    }
  }
  std::printf("], \"metrics\": ");
  print_number_map(result.metrics);
  std::printf(", \"record\": ");
  print_number_map(result.record);
  std::printf("}\n");
  return 0;
}
