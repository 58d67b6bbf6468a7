// study: the paper's batch analysis from input to tables on one Darknet-2
// year. Each chain builds the EventDataset, publishes ODE2 + two FDE1
// flow windows in one manifest commit, opens the mmap stores, detects
// D1-D3 from the ODE2 store, builds the flow indexes and impact tables,
// and runs the characterization tables for every definition. The gate
// compares mmap detection with in-memory detection and mmap impact tables
// with tables from the in-memory FlowDataset.
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "orion/charact/origins.hpp"
#include "orion/charact/portfig.hpp"
#include "orion/charact/temporal.hpp"
#include "orion/impact/flow_join.hpp"
#include "orion/store/archive.hpp"
#include "orion/store/mapped.hpp"
#include "orion/store/mapped_flow.hpp"
#include "setup.hpp"
#include "workloads.hpp"

namespace orionbench {

namespace {

using namespace orion;

struct Inputs {
  std::unique_ptr<scangen::Scenario> scenario;
  std::vector<telescope::DarknetEvent> events;
  std::unique_ptr<flowsim::FlowDataset> flows1;
  std::unique_ptr<flowsim::FlowDataset> flows2;
};

std::unique_ptr<Inputs> make_inputs(const Plan& plan, Tracer& tracer) {
  auto in = std::make_unique<Inputs>();
  const std::uint64_t seed = plan.scenario.seed;
  {
    Span span(tracer, "scangen.scenario");
    in->scenario = std::make_unique<scangen::Scenario>(plan.scenario);
  }
  {
    Span span(tracer, "scangen.synth");
    in->events = synth_events(*in->scenario, seed + 1);
  }
  Span span(tracer, "flowsim.generate");
  in->flows1 = std::make_unique<flowsim::FlowDataset>(
      merit_flows(*in->scenario, plan.flows1_start, plan.flows1_end, seed + 2));
  in->flows2 = std::make_unique<flowsim::FlowDataset>(
      merit_flows(*in->scenario, plan.flows2_start, plan.flows2_end, seed + 3));
  return in;
}

using ImpactTables = std::vector<std::vector<impact::RouterDayImpact>>;

struct ChainOut {
  double seconds = 0;
  detect::DetectionResult detection;
  /// flows1 D1-D3, then flows2 D1-D3.
  ImpactTables tables;
  std::uint64_t ode2_bytes = 0;
  std::uint64_t fde1_bytes = 0;
  std::size_t table_rows = 0;
};

ChainOut run_chain(const Inputs& in, std::vector<telescope::DarknetEvent> events,
                   const std::string& dir, Tracer& tracer) {
  const scangen::Scenario& scenario = *in.scenario;
  const detect::AggressiveScannerDetector detector(detector_config(scenario));
  ChainOut out;
  // Declared before the chain span so unmapping happens after it closes.
  std::optional<telescope::EventDataset> dataset;
  std::optional<store::MappedEventStore> event_store;
  std::vector<store::MappedFlowStore> flow_stores;

  const auto t0 = Clock::now();
  {
    Span chain(tracer, "study.chain");
    {
      Span span(tracer, "telescope.dataset_build");
      dataset.emplace(std::move(events), scenario.darknet().total_addresses());
    }
    {
      Span span(tracer, "store.publish");
      store::ArchiveDir archive(dir);
      const auto entries = archive.publish_many(
          {{"events", store::events_ode2_writer(*dataset)},
           {"flows1", store::flows_fde1_writer(*in.flows1)},
           {"flows2", store::flows_fde1_writer(*in.flows2)}});
      for (const store::ManifestEntry& e : entries) {
        (e.name == "events" ? out.ode2_bytes : out.fde1_bytes) += e.bytes;
      }
    }
    {
      Span span(tracer, "store.open");
      const store::ArchiveDir archive(dir);
      event_store.emplace(store::open_mapped_events(archive, "events"));
      flow_stores.push_back(store::open_mapped_flows(archive, "flows1"));
      flow_stores.push_back(store::open_mapped_flows(archive, "flows2"));
    }
    {
      Span span(tracer, "detect.detect_mmap");
      out.detection = detector.detect(*event_store);
    }
    for (const store::MappedFlowStore& flows : flow_stores) {
      const impact::FlowImpactAnalyzer analyzer(&flows);
      {
        Span span(tracer, "impact.prebuild");
        analyzer.prebuild_indexes();
      }
      Span span(tracer, "impact.table");
      for (const detect::Definition d : detect::kAllDefinitions) {
        out.tables.push_back(analyzer.impact_table(out.detection.of(d).ips));
      }
    }
    for (const detect::Definition d : detect::kAllDefinitions) {
      const detect::IpSet& ah = out.detection.of(d).ips;
      {
        Span span(tracer, "charact.top_ports");
        out.table_rows += charact::top_ports(*dataset, ah).size();
      }
      {
        Span span(tracer, "charact.temporal");
        out.table_rows += charact::temporal_trends(*dataset, out.detection, d,
                                                   noise_series(scenario, out.detection))
                              .active_ah.size();
      }
      {
        Span span(tracer, "charact.origins");
        out.table_rows += charact::origin_table(*dataset, ah, scenario.registry(),
                                                nullptr, nullptr)
                              .rows.size();
      }
    }
  }
  out.seconds = seconds_between(t0, Clock::now());
  return out;
}

bool same_detection(const detect::DetectionResult& a, const detect::DetectionResult& b) {
  if (a.first_day != b.first_day || a.last_day != b.last_day ||
      a.total_events != b.total_events || a.darknet_size != b.darknet_size ||
      a.total_event_packets_per_day != b.total_event_packets_per_day) {
    return false;
  }
  for (const detect::Definition d : detect::kAllDefinitions) {
    const detect::DefinitionResult& x = a.of(d);
    const detect::DefinitionResult& y = b.of(d);
    if (x.ips != y.ips || x.threshold != y.threshold ||
        x.qualifying_events != y.qualifying_events || x.daily != y.daily ||
        x.active != y.active || x.daily_ah_packets != y.daily_ah_packets) {
      return false;
    }
  }
  return true;
}

bool same_tables(const ImpactTables& a, const ImpactTables& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t t = 0; t < a.size(); ++t) {
    if (a[t].size() != b[t].size()) return false;
    for (std::size_t i = 0; i < a[t].size(); ++i) {
      const impact::RouterDayImpact& x = a[t][i];
      const impact::RouterDayImpact& y = b[t][i];
      if (x.router != y.router || x.day != y.day ||
          x.matched_packets != y.matched_packets ||
          x.total_packets != y.total_packets ||
          x.matched_sources != y.matched_sources) {
        return false;
      }
    }
  }
  return true;
}

/// The in-memory side of the gate: detection on the EventDataset and
/// impact tables on the in-memory FlowDatasets.
struct Reference {
  detect::DetectionResult detection;
  ImpactTables tables;
};

Reference reference(const Inputs& in, Tracer& tracer) {
  const scangen::Scenario& scenario = *in.scenario;
  const telescope::EventDataset dataset(in.events, scenario.darknet().total_addresses());
  Reference ref;
  {
    Span span(tracer, "detect.detect_mem");
    ref.detection = detect::AggressiveScannerDetector(detector_config(scenario))
                        .detect(dataset);
  }
  for (const flowsim::FlowDataset* flows : {in.flows1.get(), in.flows2.get()}) {
    const impact::FlowImpactAnalyzer analyzer(flows);
    for (const detect::Definition d : detect::kAllDefinitions) {
      ref.tables.push_back(analyzer.impact_table(ref.detection.of(d).ips));
    }
  }
  return ref;
}

}  // namespace

Result run_study(const Options& options, Tracer& tracer) {
  const Plan plan = plan_for(options.size, options.seed);
  Result result;
  std::uint32_t run = 0;
  const auto in = repeated_setup<std::unique_ptr<Inputs>>(
      3, result,
      [&] {
        tracer.set_run(run++);
        return make_inputs(plan, tracer);
      },
      [](const std::unique_ptr<Inputs>& i) {
        return fingerprint(i->events) ^ (fingerprint(*i->flows1) * 31) ^
               (fingerprint(*i->flows2) * 131);
      });
  result.record["events"] = static_cast<double>(in->events.size());
  result.record["flow_cells"] = static_cast<double>(
      flowsim::kRouterCount * static_cast<std::size_t>(
                                  (in->flows1->end_day() - in->flows1->start_day()) +
                                  (in->flows2->end_day() - in->flows2->start_day())));

  tracer.set_run(run++);
  const Reference ref = reference(*in, tracer);

  std::vector<double> untraced_s, traced_s, coverage;
  std::uint64_t ode2_bytes = 0, fde1_bytes = 0;
  reset_peak_rss();
  const auto start = Clock::now();
  for (std::size_t rep = 0;
       rep < 3 || seconds_between(start, Clock::now()) < options.seconds; ++rep) {
    const bool traced = options.trace && rep % 2 == 1;
    const std::string dir = options.work_dir + "/study-" + std::to_string(rep);
    std::vector<telescope::DarknetEvent> events = in->events;  // the chain's input
    tracer.set_recording(traced);
    tracer.set_run(run);
    const ChainOut out = run_chain(*in, std::move(events), dir, tracer);
    tracer.set_recording(true);
    result.check(same_detection(out.detection, ref.detection),
                 "study: detect(MappedEventStore) differs from detect(EventDataset)");
    result.check(same_tables(out.tables, ref.tables),
                 "study: mmap impact tables differ from the in-memory FlowDataset");
    result.check(out.table_rows > 0, "study: characterization tables are empty");
    (traced ? traced_s : untraced_s).push_back(out.seconds);
    if (traced) {
      const double chain = tracer.seconds_by_run("study.chain").at(run);
      const double gap = tracer.self_seconds_by_run("study.chain").at(run);
      coverage.push_back(1.0 - gap / chain);
    }
    ode2_bytes = out.ode2_bytes;
    fde1_bytes = out.fde1_bytes;
    std::filesystem::remove_all(dir);
    ++run;
  }
  result.metrics["peak_rss_mb"] = peak_rss_mb();
  result.record["chains"] = static_cast<double>(untraced_s.size() + traced_s.size());

  std::vector<double> chain_ms;
  for (const double s : untraced_s) chain_ms.push_back(1000.0 * s);
  result.metrics["throughput_per_s"] =
      static_cast<double>(in->events.size()) / median(untraced_s);
  result.metrics["latency_p50_ms"] = percentile(chain_ms, 0.50);
  result.metrics["latency_p90_ms"] = percentile(chain_ms, 0.90);

  if (options.trace) {
    for (const char* stage :
         {"telescope.dataset_build", "store.publish", "store.open", "detect.detect_mmap",
          "detect.detect_mem", "impact.prebuild", "impact.table", "charact.top_ports",
          "charact.temporal", "charact.origins", "scangen.scenario", "scangen.synth",
          "flowsim.generate"}) {
      result.metrics[std::string(stage) + "_s"] = tracer.median_self_seconds(stage);
    }
    result.metrics["store.ode2_bytes"] = static_cast<double>(ode2_bytes);
    result.metrics["store.fde1_bytes"] = static_cast<double>(fde1_bytes);
    result.metrics["study.ledger_coverage"] = median(coverage);
    result.metrics["trace.overhead_share"] = median(traced_s) / median(untraced_s) - 1.0;

    // The serve layers are measured here, on the study's traced run: a
    // serve workload's end-to-end numbers were not steady enough on a
    // shared machine to be one of the benchmark's workloads (README.md).
    Options serve_options = options;
    serve_options.seconds = options.seconds / 2;
    probe_serve(serve_options, result);
  }
  return result;
}

}  // namespace orionbench
