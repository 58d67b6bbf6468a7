// Live telescope monitoring: the raw darknet packet feed runs through the
// sharded ParallelPipeline — packets are sharded by source IP over N
// worker threads, aggregated into events, and fed to per-shard detector
// slices — and the merged result publishes daily AH lists with thresholds
// calibrated only on past data, the deployment mode behind the paper's
// plan to share daily scanner lists with the community. The merged lists
// are byte-identical to a serial TelescopeCapture + StreamingDetector run:
// both run the one per-event update and the one incremental day-close
// in detect/shard_detector.hpp.
//
// Supervised mode: --supervise runs the pipeline with self-healing
// workers (panic capture + snapshot/replay restart).
//
// Crash-safe persistence: --archive DIR snapshots the whole pipeline
// (every shard, recorded shard count) at each UTC day edge and publishes
// the final event dataset, each as an atomic generation swap behind the
// CRC-guarded MANIFEST. Startup runs the recover_archive() sweep and then
// resumes from the live checkpoint generation, skipping the
// already-ingested prefix of the deterministic packet feed.
//
//   $ ./live_monitor
//   $ ./live_monitor --shards 2 --archive /tmp/telescope.archive   # crash...
//   $ ./live_monitor --shards 2 --archive /tmp/telescope.archive   # resumes
//   $ ./live_monitor --supervise --archive /tmp/telescope.archive
#include <charconv>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "orion/detect/list_diff.hpp"
#include "orion/detect/streaming.hpp"
#include "orion/netbase/io.hpp"
#include "orion/report/table.hpp"
#include "orion/scangen/packet_gen.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/store/archive.hpp"
#include "orion/telescope/checkpoint.hpp"
#include "orion/telescope/parallel.hpp"

namespace {

// A refused resume is an operator error, not a corrupt snapshot: the
// checkpoint's config echo does not match the current flags. Distinct
// exit code so scripts can tell "fix your flags" from "snapshot is bad".
constexpr int kExitConfigMismatch = 2;

int refuse_config_mismatch(const char* what) {
  std::cerr << "resume refused: the checkpoint was written under a different "
               "configuration than the current flags (" << what << ").\n"
            << "rerun with the settings the checkpoint was taken under "
               "(e.g. the same --shards N), or start from a fresh --archive "
               "directory.\n";
  return kExitConfigMismatch;
}

/// A positive shard count, or nullopt for anything else ("abc", "0",
/// "4x", "-1", out of range).
std::optional<std::size_t> parse_shards(const std::string& text) {
  std::size_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || value == 0) return std::nullopt;
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace orion;

  const auto usage = [] {
    std::cerr << "usage: live_monitor [--shards N] [--supervise] "
                 "[--archive DIR]\n";
    return 1;
  };
  std::string archive_dir;
  bool supervise = false;
  std::size_t shards = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--shards" && i + 1 < argc) {
      const auto parsed = parse_shards(argv[++i]);
      if (!parsed) return usage();
      shards = *parsed;
    } else if (arg == "--supervise") {
      supervise = true;
    } else if (arg == "--archive" && i + 1 < argc) {
      archive_dir = argv[++i];
    } else {
      return usage();
    }
  }

  const scangen::Scenario scenario{scangen::tiny()};

  telescope::ParallelConfig pconfig;
  pconfig.shards = shards;
  pconfig.aggregator.timeout = scenario.event_timeout();
  pconfig.detector.base = {
      .dispersion_threshold = scenario.config().def1_dispersion,
      .packet_volume_alpha = scenario.config().def2_alpha,
      .port_count_alpha = scenario.config().def3_alpha};
  pconfig.detector.warmup_samples = 500;
  pconfig.supervisor.enabled = supervise;
  telescope::ParallelPipeline pipeline(scenario.darknet(), pconfig);

  // Crash-safe archive mode: sweep partial generations first, then open
  // through the recovered manifest.
  std::optional<store::ArchiveDir> archive;
  std::uint64_t skip_packets = 0;
  if (!archive_dir.empty()) {
    const store::RecoverReport swept = store::recover_archive(archive_dir);
    if (!swept.clean()) {
      std::cout << "archive recovery: swept " << swept.removed_temporaries
                << " temporaries, " << swept.removed_orphans << " orphans, "
                << swept.quarantined << " quarantined ("
                << (swept.detail.empty() ? "no detail" : swept.detail)
                << ")\n";
    }
    archive.emplace(archive_dir);

    // Resume automatically from the live checkpoint generation, if one
    // was ever published; orphaned temporaries are invisible here.
    if (const auto live = archive->find("checkpoint")) {
      const auto bytes = net::io::read_file(archive->path_of(*live));
      std::istringstream in(std::string(bytes.begin(), bytes.end()));
      try {
        telescope::CheckpointReader reader(in);
        pipeline.restore(reader);
      } catch (const telescope::ConfigMismatchError& err) {
        return refuse_config_mismatch(err.what());
      } catch (const std::exception& err) {
        std::cerr << "resume failed: " << err.what() << "\n";
        return 1;
      }
      skip_packets = pipeline.packets_ingested();
      std::cout << "resumed from archive generation " << live->generation
                << " (" << skip_packets << " packets already ingested)\n";
    }
  }

  std::uint64_t checkpoints_written = 0;
  const auto save_checkpoint = [&]() {
    if (!archive) return;
    telescope::CheckpointWriter writer;
    pipeline.checkpoint(writer);
    archive->publish("checkpoint",
                     [&](net::io::File& out) { writer.finish(out); });
    ++checkpoints_written;
  };

  // The same deterministic packet feed on every run: resume just skips
  // the already-ingested prefix.
  const net::SimTime t0 = net::SimTime::epoch();
  const net::SimTime t1 = t0 + net::Duration::days(14);
  scangen::PacketStreamGenerator generator(
      scenario.population_2021().scanners, scenario.darknet(), t0, t1,
      {.seed = 17, .exact_targets = true, .stable_streams = true});
  for (std::uint64_t i = 0; i < skip_packets; ++i) {
    if (!generator.next()) break;
  }

  // Batched ingest: packets are generated straight into a reused columnar
  // arena and fed to the pipeline's batch dispatcher. Batches are cut at
  // UTC day boundaries so the day-boundary snapshot happens before any
  // packet of the new day is observed (publish-then-persist order).
  constexpr std::size_t kIngestBatch = 256;
  constexpr std::int64_t kDayNanos = 86400000000000LL;
  std::int64_t open_day = -1;
  pkt::PacketBatch batch(kIngestBatch);
  while (auto next_ns = generator.peek_time()) {
    const std::int64_t day = *next_ns / kDayNanos;
    if (open_day >= 0 && day != open_day) save_checkpoint();
    open_day = day;
    const std::int64_t day_end_ns = (day + 1) * kDayNanos;
    batch.clear();
    while (batch.size() < kIngestBatch) {
      const auto t = generator.peek_time();
      if (!t || *t >= day_end_ns) break;
      generator.next_batch(batch, 1);
    }
    pipeline.observe_batch(batch);
  }
  const std::uint64_t ingested = pipeline.packets_ingested();
  save_checkpoint();
  const telescope::ParallelResult result = pipeline.finish();
  if (archive) {
    // The closed dataset becomes the live "events" generation: an atomic
    // swap, so a concurrent reader sees the old complete dataset or the
    // new complete one, never a partial file.
    const store::ManifestEntry entry =
        store::publish_events_ode2(*archive, "events", result.dataset);
    std::cout << "published " << entry.file << " (" << entry.bytes
              << " bytes) to " << archive->dir() << "\n";
  }

  std::cout << "sharded " << ingested << " darknet packets over " << shards
            << " worker shards" << (supervise ? " (supervised)" : "")
            << " -> " << result.dataset.event_count() << " events\n\n";

  report::Table table({"date", "status", "D1 new", "D2 new", "D3 new",
                       "D2 thresh (pkts)", "D3 thresh (ports)"});
  std::vector<detect::DailyListEntry> published;
  for (const detect::StreamingDayResult& day : result.days) {
    for (const net::Ipv4Address ip : day.daily[0]) {
      published.push_back({day.day, ip, 1});
    }
    table.add_row({net::day_label(day.day),
                   day.calibrated ? "published" : "warming up",
                   std::to_string(day.daily[0].size()),
                   std::to_string(day.daily[1].size()),
                   std::to_string(day.daily[2].size()),
                   day.calibrated ? report::fmt_count(day.packet_threshold) : "-",
                   day.calibrated ? report::fmt_count(day.port_threshold) : "-"});
  }
  std::cout << table.to_ascii() << "\n";

  // What a list subscriber would apply day over day.
  double churn_sum = 0;
  std::size_t churn_days = 0;
  for (const auto& [day, diff] : detect::churn_series(published)) {
    churn_sum += diff.churn();
    ++churn_days;
  }
  if (churn_days > 0) {
    std::cout << "mean day-over-day list churn: "
              << report::fmt_percent(
                     churn_sum / static_cast<double>(churn_days), 1)
              << " (across " << churn_days << " day pairs)\n";
  }

  std::cout << "cumulative AH discovered online: D1 " << result.ips[0].size()
            << ", D2 " << result.ips[1].size() << ", D3 "
            << result.ips[2].size() << "\n";
  std::cout << "health: " << result.health.to_string() << "\n";
  if (checkpoints_written > 0) {
    std::cout << "checkpoints written to " << archive->dir() << ": "
              << checkpoints_written << "\n";
  }
  return 0;
}
