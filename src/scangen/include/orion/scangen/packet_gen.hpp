// Packet-fidelity traffic generation: a time-ordered stream of the probe
// packets a scanner population delivers into one monitored address space
// over a time window. Uses the same binomial-thinning model as the event
// synthesizer, but materializes every arrival as a crafted packet
// (fingerprints included), via a lazy per-session order-statistics
// iterator. Contiguous ranges of sub-streams generate one simulated-time
// window at a time on threads of their own, and the window's runs are
// merged by (time, range) as they are served (DESIGN.md §5.2): the stream
// is the same at every thread count, and memory stays O(streams + one
// window), not O(packets).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "orion/netbase/prefix.hpp"
#include "orion/packet/batch.hpp"
#include "orion/packet/builder.hpp"
#include "orion/scangen/population.hpp"

namespace orion::scangen {

struct PacketGenConfig {
  std::uint64_t seed = 11;
  /// Exact mode samples each session's distinct targets up front so
  /// unique-destination semantics match the event synthesizer (needed when
  /// the stream feeds the darknet aggregator). Non-exact mode draws
  /// destinations uniformly per packet — cheaper, used for ISP spaces
  /// where only packet counts matter.
  bool exact_targets = true;
  /// Opt-in deterministic per-scanner sub-stream seeding: session
  /// sub-streams fork from a scanner-LOCAL stream index instead of the
  /// global sub-stream count, so a scanner's packets are bit-identical
  /// no matter which other scanners are generated alongside it. Required
  /// for shard_count > 1; off by default to keep legacy streams stable.
  bool stable_streams = false;
  /// With shard_count > 1, generate only the scanners whose source IP
  /// hashes to `shard` (net::shard_of — the ParallelPipeline partition),
  /// letting N generators independently produce the N shard inputs.
  std::size_t shard = 0;
  std::size_t shard_count = 1;
};

namespace detail {
struct PacketGenShape;
}

class PacketStreamGenerator {
 public:
  /// Throws std::invalid_argument when shard_count is 0, shard is not
  /// below shard_count, or shard_count > 1 without stable_streams.
  PacketStreamGenerator(const std::vector<ScannerProfile>& scanners,
                        net::PrefixSet space, net::SimTime window_start,
                        net::SimTime window_end, PacketGenConfig config);
  /// The same stream with an explicit thread count and window size
  /// (packet_gen_core.hpp, internal to the scangen module).
  PacketStreamGenerator(const std::vector<ScannerProfile>& scanners,
                        net::PrefixSet space, net::SimTime window_start,
                        net::SimTime window_end, PacketGenConfig config,
                        const detail::PacketGenShape& shape);

  /// Next packet in timestamp order; nullopt when the stream is drained.
  std::optional<pkt::Packet> next();

  /// Timestamp (ns since epoch) of the next packet without emitting it;
  /// nullopt when the stream is drained. Lets batching callers cut a
  /// batch cleanly at a boundary (e.g. a UTC day edge) before it is
  /// crossed.
  std::optional<std::int64_t> peek_time() const;

  /// Appends up to `max` packets in timestamp order directly onto `out`
  /// (the batch is NOT cleared first) and returns how many were emitted —
  /// 0 when the stream is drained. The columnar append performs no
  /// per-packet allocations once the batch's arena is warm.
  std::size_t next_batch(pkt::PacketBatch& out, std::size_t max);

  /// Drains the stream into a sink; returns the packet count.
  std::uint64_t run(const std::function<void(const pkt::Packet&)>& sink);

  /// Drains the stream batch-wise: fills a reused arena with up to
  /// `batch_size` packets per sink call. Returns the packet count.
  std::uint64_t run_batched(
      std::size_t batch_size,
      const std::function<void(const pkt::PacketBatch&)>& sink);

  std::uint64_t packets_emitted() const { return packets_emitted_; }

 private:
  /// The time of an arrival that will never come.
  static constexpr std::int64_t kDrained = std::numeric_limits<std::int64_t>::max();

  struct SubStream {
    const ScannerProfile* scanner = nullptr;
    pkt::ProbeBuilder builder;
    net::Rng rng;
    PortSpec port;
    int repeats = 1;
    std::vector<std::uint64_t> targets;  // exact mode only
    std::uint64_t emitted = 0;
    std::uint64_t remaining = 0;
    double window_end_s = 0;  // overlap end, seconds since epoch
    double current_s = 0;     // time of the pending arrival
    std::int64_t next_ns = 0;  // the pending arrival in ns; kDrained if none

    SubStream(const ScannerProfile* s, net::Rng stream_rng, net::Rng builder_rng)
        : scanner(s),
          builder(s->source, s->tool, builder_rng),
          rng(stream_rng) {}
  };

  /// (arrival time in ns, stream index): the order of the stream.
  using HeapEntry = std::pair<std::int64_t, std::size_t>;

  /// One range's packets of the current window in stream order, how many
  /// of them were served, and its heap. Both buffers are reserved by the
  /// calling thread; a cache line each, so the workers do not share one.
  struct alignas(64) Run {
    std::vector<pkt::Packet> packets;
    std::size_t served = 0;
    std::vector<HeapEntry> heap;
  };

  void add_session_streams(const ScannerProfile& scanner,
                           const SessionSpec& session, net::Rng& scanner_rng,
                           std::uint64_t& scanner_streams);
  void plan_windows(std::size_t window_packets);
  static void advance(SubStream& stream);
  pkt::Packet make_packet(SubStream& stream, std::int64_t nanos);
  bool generate_window();
  void drain(std::size_t first, std::size_t last, std::int64_t end_ns, Run& run);
  void pick_head();
  void pop_head();

  net::PrefixSet space_;
  net::SimTime window_start_;
  net::SimTime window_end_;
  PacketGenConfig config_;

  std::vector<SubStream> streams_;
  std::vector<std::int64_t> window_ends_;  // exclusive, ascending
  std::size_t next_window_ = 0;
  std::vector<Run> runs_;              // one per range
  std::vector<std::int64_t> heads_;    // per run: its next time, or kDrained
  std::size_t head_ = 0;               // the run with the lowest head
  std::uint64_t packets_emitted_ = 0;
};

}  // namespace orion::scangen
