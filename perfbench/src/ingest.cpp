// ingest: Darknet-1 packets for a few simulated days, generated and cut
// at UTC day edges during set-up, replayed closed-loop into a 2-shard
// telescope::ParallelPipeline. At each day edge the pipeline is
// checkpointed into an in-memory CheckpointWriter (as live_monitor does);
// finish() closes the replay. The gate replays the same batches through
// the serial TelescopeCapture + StreamingDetector path.
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "orion/detect/streaming.hpp"
#include "orion/packet/batch.hpp"
#include "orion/packet/classify.hpp"
#include "orion/scangen/packet_gen.hpp"
#include "orion/telescope/capture.hpp"
#include "orion/telescope/checkpoint.hpp"
#include "orion/telescope/parallel.hpp"
#include "setup.hpp"
#include "workloads.hpp"

namespace orionbench {

namespace {

using namespace orion;

constexpr std::size_t kBatch = 256;
constexpr std::size_t kShards = 2;
constexpr std::int64_t kDayNanos = 86400000000000LL;

struct Inputs {
  std::unique_ptr<scangen::Scenario> scenario;
  /// Batches per simulated day; no batch crosses a UTC day edge.
  std::vector<std::vector<pkt::PacketBatch>> days;
  std::uint64_t packets = 0;
  std::uint64_t batches = 0;
};

template <typename Column>
std::uint64_t hash_column(const Column& column, std::uint64_t h) {
  return fnv1a(column.data(), column.size() * sizeof(column[0]), h);
}

std::uint64_t fingerprint(const Inputs& inputs) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const auto& day : inputs.days) {
    for (const pkt::PacketBatch& b : day) {
      h = hash_column(b.ts_ns(), h);
      h = hash_column(b.src_col(), h);
      h = hash_column(b.dst_col(), h);
      h = hash_column(b.src_port_col(), h);
      h = hash_column(b.dst_port_col(), h);
      h = hash_column(b.proto_col(), h);
      h = hash_column(b.tcp_flags_col(), h);
      h = hash_column(b.icmp_type_col(), h);
      h = hash_column(b.ip_id_col(), h);
      h = hash_column(b.tcp_seq_col(), h);
    }
  }
  return h;
}

std::unique_ptr<Inputs> make_inputs(const Plan& plan, Tracer& tracer) {
  auto inputs = std::make_unique<Inputs>();
  {
    Span span(tracer, "scangen.scenario");
    inputs->scenario = std::make_unique<scangen::Scenario>(plan.scenario);
  }
  Span span(tracer, "scangen.packet_gen");
  const scangen::Scenario& scenario = *inputs->scenario;
  scangen::PacketStreamGenerator generator(
      scenario.population_2021().scanners, scenario.darknet(),
      net::SimTime::epoch(),
      net::SimTime::epoch() + net::Duration::days(plan.ingest_days),
      {.seed = plan.scenario.seed, .exact_targets = true, .stable_streams = true});
  inputs->days.resize(static_cast<std::size_t>(plan.ingest_days));
  while (const auto next_ns = generator.peek_time()) {
    const std::int64_t day = *next_ns / kDayNanos;
    const std::int64_t day_end_ns = (day + 1) * kDayNanos;
    pkt::PacketBatch batch(kBatch);
    while (batch.size() < kBatch) {
      const auto t = generator.peek_time();
      if (!t || *t >= day_end_ns) break;
      generator.next_batch(batch, 1);
    }
    inputs->packets += batch.size();
    ++inputs->batches;
    inputs->days.at(static_cast<std::size_t>(day)).push_back(std::move(batch));
  }
  return inputs;
}

/// What the serial reference path produces for the same batches.
struct Reference {
  std::vector<telescope::DarknetEvent> events;
  std::vector<detect::StreamingDayResult> days;
  std::array<detect::IpSet, 3> ips;
  double capture_s = 0;
};

Reference serial_reference(const Inputs& inputs, Tracer& tracer) {
  const scangen::Scenario& scenario = *inputs.scenario;
  telescope::AggregatorConfig aggregator;
  aggregator.timeout = scenario.event_timeout();
  telescope::TelescopeCapture capture(scenario.darknet(), aggregator);
  Reference ref;
  {
    Span span(tracer, "telescope.capture_replay");
    const auto t0 = Clock::now();
    for (const auto& day : inputs.days) {
      for (const pkt::PacketBatch& batch : day) capture.observe_batch(batch);
    }
    ref.capture_s = seconds_between(t0, Clock::now());
  }
  const telescope::EventDataset dataset = capture.finish();
  ref.events = dataset.events();
  detect::StreamingDetector detector(streaming_config(scenario),
                                     scenario.darknet().total_addresses());
  for (const telescope::DarknetEvent& e : dataset.events()) {
    for (auto& day : detector.observe(e)) ref.days.push_back(std::move(day));
  }
  if (auto last = detector.finish()) ref.days.push_back(std::move(*last));
  for (std::size_t d = 0; d < 3; ++d) {
    ref.ips[d] = detector.ips(static_cast<detect::Definition>(d));
  }
  return ref;
}

struct Replay {
  double seconds = 0;
  std::vector<double> batch_latency_ms;
  std::vector<std::uint32_t> checkpoint_crcs;
  std::uint64_t checkpoint_bytes = 0;
  std::optional<telescope::ParallelResult> result;
};

Replay replay(const Inputs& inputs, Tracer& tracer) {
  const scangen::Scenario& scenario = *inputs.scenario;
  telescope::ParallelConfig config;
  config.shards = kShards;
  config.aggregator.timeout = scenario.event_timeout();
  config.detector = streaming_config(scenario);
  telescope::ParallelPipeline pipeline(scenario.darknet(), config);

  Replay out;
  out.batch_latency_ms.reserve(inputs.batches);
  Span span(tracer, "ingest.replay");
  const auto t0 = Clock::now();
  // Closed loop: a batch is ready as soon as the previous call returned,
  // so a day-edge checkpoint delays the first batch of the next day.
  auto ready = t0;
  for (std::size_t d = 0; d < inputs.days.size(); ++d) {
    if (d > 0) {
      Span checkpoint(tracer, "pipeline.checkpoint");
      telescope::CheckpointWriter writer;
      pipeline.checkpoint(writer);
      std::ostringstream frame;
      out.checkpoint_bytes += writer.finish(frame);
      const std::string bytes = frame.str();
      std::uint32_t crc = 0;  // the frame's trailing CRC-32 of its payload
      for (std::size_t i = 0; i < 4 && i < bytes.size(); ++i) {
        crc |= static_cast<std::uint32_t>(
                   static_cast<unsigned char>(bytes[bytes.size() - 4 + i]))
               << (8 * i);
      }
      out.checkpoint_crcs.push_back(crc);
    }
    for (const pkt::PacketBatch& batch : inputs.days[d]) {
      {
        Span observe(tracer, "pipeline.observe_batch");
        pipeline.observe_batch(batch);
      }
      const auto now = Clock::now();
      out.batch_latency_ms.push_back(1000.0 * seconds_between(ready, now));
      ready = now;
    }
  }
  {
    Span finish(tracer, "pipeline.finish");
    out.result = pipeline.finish();
  }
  out.seconds = seconds_between(t0, Clock::now());
  return out;
}

void check_replay(const Replay& r, const Reference& ref,
                  const std::vector<std::uint32_t>& first_crcs,
                  std::uint64_t packets, Result& result) {
  const telescope::ParallelResult& p = *r.result;
  result.check(p.dataset.events() == ref.events,
               "ingest: pipeline events differ from the serial capture");
  result.check(p.days == ref.days,
               "ingest: per-day results differ from the serial detector");
  result.check(p.ips == ref.ips, "ingest: AH sets differ from the serial detector");
  result.check(p.health.ingested == packets && p.health.delivered == packets &&
                   p.health.dropped() == 0 && p.health.consistent(),
               "ingest: pipeline dropped or lost packets");
  result.check(r.checkpoint_crcs == first_crcs,
               "ingest: checkpoint CRCs differ between replays");
}

/// Times one public batch call over every input batch; ns per packet.
template <typename Call>
double ns_per_packet(const Inputs& inputs, Tracer& tracer, const char* name,
                     Call call) {
  std::vector<std::uint8_t> out(kBatch);
  Span span(tracer, name);
  const auto t0 = Clock::now();
  for (const auto& day : inputs.days) {
    for (const pkt::PacketBatch& batch : day) call(batch, out.data());
  }
  return 1e9 * seconds_between(t0, Clock::now()) /
         static_cast<double>(inputs.packets);
}

}  // namespace

Result run_ingest(const Options& options, Tracer& tracer) {
  const Plan plan = plan_for(options.size, options.seed);
  Result result;
  std::uint32_t run = 0;
  const auto inputs = repeated_setup<std::unique_ptr<Inputs>>(
      3, result,
      [&] {
        tracer.set_run(run++);
        return make_inputs(plan, tracer);
      },
      [](const std::unique_ptr<Inputs>& in) { return fingerprint(*in); });
  result.record["packets"] = static_cast<double>(inputs->packets);
  result.record["batches"] = static_cast<double>(inputs->batches);
  result.record["days"] = static_cast<double>(inputs->days.size());

  tracer.set_run(run++);
  const Reference ref = serial_reference(*inputs, tracer);
  result.record["events"] = static_cast<double>(ref.events.size());

  // A traced run alternates untraced and traced replays so the tracing
  // overhead is measured inside one process.
  std::vector<double> untraced_s, traced_s, latency_ms;
  std::vector<std::uint32_t> first_crcs;
  std::uint64_t checkpoint_bytes = 0, dropped = 0, ingested = 0;
  reset_peak_rss();
  const auto start = Clock::now();
  for (std::size_t rep = 0;
       rep < 2 || seconds_between(start, Clock::now()) < options.seconds; ++rep) {
    const bool traced = options.trace && rep % 2 == 1;
    tracer.set_recording(traced);
    tracer.set_run(run++);
    Replay r = replay(*inputs, tracer);
    tracer.set_recording(true);
    if (rep == 0) first_crcs = r.checkpoint_crcs;
    check_replay(r, ref, first_crcs, inputs->packets, result);
    (traced ? traced_s : untraced_s).push_back(r.seconds);
    if (!traced) {
      latency_ms.insert(latency_ms.end(), r.batch_latency_ms.begin(),
                        r.batch_latency_ms.end());
    }
    checkpoint_bytes = r.checkpoint_bytes;
    dropped += r.result->health.dropped();
    ingested += r.result->health.ingested;
  }
  result.metrics["peak_rss_mb"] = peak_rss_mb();
  result.record["replays"] = static_cast<double>(untraced_s.size() + traced_s.size());
  result.record["latency_samples"] = static_cast<double>(latency_ms.size());
  result.record["checkpoint_crc0"] =
      first_crcs.empty() ? 0 : static_cast<double>(first_crcs.front());

  const double packets = static_cast<double>(inputs->packets);
  result.metrics["throughput_per_s"] = packets / median(untraced_s);
  result.metrics["latency_p50_ms"] = percentile(latency_ms, 0.50);
  result.metrics["latency_p90_ms"] = percentile(latency_ms, 0.90);

  if (options.trace) {
    result.metrics["pipeline.observe_batch_s"] =
        tracer.median_self_seconds("pipeline.observe_batch");
    result.metrics["pipeline.checkpoint_s"] =
        tracer.median_self_seconds("pipeline.checkpoint");
    result.metrics["pipeline.checkpoint_bytes"] = static_cast<double>(checkpoint_bytes);
    result.metrics["pipeline.finish_s"] = tracer.median_self_seconds("pipeline.finish");
    result.metrics["pipeline.dropped_share"] =
        static_cast<double>(dropped) / static_cast<double>(ingested);
    result.metrics["telescope.capture_pps"] = packets / ref.capture_s;
    tracer.set_run(run++);
    result.metrics["packet.classify_ns_per_pkt"] = ns_per_packet(
        *inputs, tracer, "packet.classify",
        [](const pkt::PacketBatch& batch, std::uint8_t* out) {
          pkt::classify_traffic_batch(batch, out);
          pkt::classify_tool_batch(batch, out);
        });
    const net::PrefixSet& darknet = inputs->scenario->darknet();
    result.metrics["netbase.contains_batch_ns_per_pkt"] = ns_per_packet(
        *inputs, tracer, "netbase.contains_batch",
        [&](const pkt::PacketBatch& batch, std::uint8_t* out) {
          darknet.contains_batch(batch.dst_col().data(), batch.size(), out);
        });
    result.metrics["trace.overhead_share"] =
        median(traced_s) / median(untraced_s) - 1.0;
    result.metrics["scangen.scenario_s"] = tracer.median_self_seconds("scangen.scenario");
    result.metrics["scangen.packet_gen_s"] =
        tracer.median_self_seconds("scangen.packet_gen");
  }
  return result;
}

}  // namespace orionbench
