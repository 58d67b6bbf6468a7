#include "orion/scangen/packet_gen.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "orion/netbase/parallel.hpp"
#include "orion/netbase/shard.hpp"
#include "orion/scangen/arrivals.hpp"
#include "orion/scangen/target_sampler.hpp"
#include "packet_gen_core.hpp"

namespace orion::scangen {

PacketStreamGenerator::PacketStreamGenerator(
    const std::vector<ScannerProfile>& scanners, net::PrefixSet space,
    net::SimTime window_start, net::SimTime window_end, PacketGenConfig config)
    : PacketStreamGenerator(scanners, std::move(space), window_start, window_end,
                            config, detail::PacketGenShape{}) {}

PacketStreamGenerator::PacketStreamGenerator(
    const std::vector<ScannerProfile>& scanners, net::PrefixSet space,
    net::SimTime window_start, net::SimTime window_end, PacketGenConfig config,
    const detail::PacketGenShape& shape)
    : space_(std::move(space)),
      window_start_(window_start),
      window_end_(window_end),
      config_(config) {
  if (config_.shard_count == 0) {
    throw std::invalid_argument("PacketStreamGenerator: shard_count must be >= 1");
  }
  if (config_.shard_count > 1 && !config_.stable_streams) {
    // Sharded generation only makes sense when a scanner's sub-streams
    // don't depend on the rest of the population.
    throw std::invalid_argument(
        "PacketStreamGenerator: shard_count > 1 requires stable_streams");
  }
  if (config_.shard >= config_.shard_count) {
    throw std::invalid_argument("PacketStreamGenerator: shard out of range");
  }
  for (const ScannerProfile& scanner : scanners) {
    if (config_.shard_count > 1 &&
        net::shard_of(scanner.source, config_.shard_count) != config_.shard) {
      continue;
    }
    net::Rng scanner_rng = net::Rng(config.seed).fork(scanner.rng_stream);
    std::uint64_t scanner_streams = 0;
    for (const SessionSpec& session : scanner.sessions) {
      if (session.end() <= window_start_ || session.start >= window_end_) continue;
      add_session_streams(scanner, session, scanner_rng, scanner_streams);
    }
  }

  plan_windows(std::max<std::size_t>(1, shape.window_packets));
  std::uint64_t packets = 0;
  for (SubStream& stream : streams_) {
    packets += stream.remaining;
    advance(stream);
  }
  const std::size_t threads =
      shape.threads > 0 ? shape.threads : net::scan_threads(packets);
  runs_.resize(
      std::clamp<std::size_t>(threads, 1, std::max<std::size_t>(1, streams_.size())));
  heads_.assign(runs_.size(), kDrained);
  pick_head();
}

void PacketStreamGenerator::add_session_streams(const ScannerProfile& scanner,
                                                const SessionSpec& session,
                                                net::Rng& scanner_rng,
                                                std::uint64_t& scanner_streams) {
  const std::uint64_t space_size = space_.total_addresses();

  // Overlap of the session with the generation window.
  const net::SimTime a = std::max(session.start, window_start_);
  const net::SimTime b = std::min(session.end(), window_end_);
  const double overlap_s = (b - a).total_seconds();
  const double session_s = session.duration.total_seconds();
  if (overlap_s <= 0 || session_s <= 0) return;
  const double frac = std::min(1.0, overlap_s / session_s);

  // Materialize the session's port list (explicit ports, or the sweep).
  std::vector<PortSpec> ports = session.ports;
  if (session.sweep_port_count > 0) {
    const std::uint64_t count =
        std::min<std::uint64_t>(session.sweep_port_count, 65535);
    for (const std::uint64_t p :
         sample_distinct_offsets(65535, count, scanner_rng)) {
      ports.push_back({static_cast<std::uint16_t>(p + 1), pkt::TrafficType::TcpSyn});
    }
  }

  for (const PortSpec& port : ports) {
    const std::uint64_t uniques =
        sample_unique_targets(space_size, session.coverage, scanner_rng);
    if (uniques == 0) continue;
    const std::uint64_t session_total =
        session_packets_for_port(uniques, session.repeats);
    const std::uint64_t in_window =
        frac >= 1.0 ? session_total : scanner_rng.binomial(session_total, frac);
    if (in_window == 0) continue;

    // Legacy seeding forks from the global sub-stream count, which ties a
    // scanner's packets to the whole population; stable mode forks from
    // the scanner-local index so per-scanner streams survive filtering.
    const std::uint64_t stream_id =
        config_.stable_streams ? scanner_streams : streams_.size();
    ++scanner_streams;
    // Each fork draws from scanner_rng, so their order is part of the
    // stream: the builder's first, the order the pinned streams
    // (scangen_test) were generated in.
    const net::Rng builder_rng = scanner_rng.fork(stream_id + 0x10000);
    SubStream stream(&scanner, scanner_rng.fork(stream_id + 1), builder_rng);
    stream.port = port;
    stream.repeats = std::max(1, session.repeats);
    stream.remaining = in_window;
    stream.current_s = (a - net::SimTime::epoch()).total_seconds();
    stream.window_end_s = (b - net::SimTime::epoch()).total_seconds();
    if (config_.exact_targets) {
      stream.targets = sample_distinct_offsets(space_size, uniques, stream.rng);
    }
    streams_.push_back(std::move(stream));
  }
}

void PacketStreamGenerator::plan_windows(std::size_t window_packets) {
  // The expected count of packets before time t is piecewise linear: each
  // stream's arrivals are uniform over its overlap, so it adds a rate of
  // `remaining / span` between its knees. Window edges fall where that
  // count crosses each multiple of window_packets; the output does not
  // depend on them, only the window's memory and balance do.
  struct Knee {
    double t;
    double rate;
  };
  std::vector<Knee> knees;
  knees.reserve(2 * streams_.size());
  for (const SubStream& stream : streams_) {
    const double span = std::max(stream.window_end_s - stream.current_s, 1e-9);
    const double rate = static_cast<double>(stream.remaining) / span;
    knees.push_back({stream.current_s, rate});
    knees.push_back({stream.current_s + span, -rate});
  }
  std::sort(knees.begin(), knees.end(),
            [](const Knee& a, const Knee& b) { return a.t < b.t; });
  const double per_window = static_cast<double>(window_packets);
  double t = knees.empty() ? 0.0 : knees.front().t;
  double rate = 0;
  double expected = 0;
  double edge = per_window;
  for (const Knee& knee : knees) {
    const double gained = rate * (knee.t - t);
    while (rate > 0 && expected + gained >= edge) {
      const auto end_ns =
          static_cast<std::int64_t>((t + (edge - expected) / rate) * 1e9);
      if (window_ends_.empty() || end_ns > window_ends_.back()) {
        window_ends_.push_back(end_ns);
      }
      edge += per_window;
    }
    expected += gained;
    t = knee.t;
    rate += knee.rate;
  }
  window_ends_.push_back(kDrained);
}

void PacketStreamGenerator::advance(SubStream& stream) {
  if (stream.remaining == 0) {
    stream.next_ns = kDrained;
    return;
  }
  // Conditional uniform order statistic: with k arrivals left, uniform in
  // (t, end), the minimum is t + (end - t) * (1 - U^(1/k)).
  const double span = stream.window_end_s - stream.current_s;
  const double u = stream.rng.uniform();
  const double step =
      span * (1.0 - std::pow(u, 1.0 / static_cast<double>(stream.remaining)));
  stream.current_s += std::max(step, 0.0);
  --stream.remaining;
  stream.next_ns = static_cast<std::int64_t>(stream.current_s * 1e9);
}

pkt::Packet PacketStreamGenerator::make_packet(SubStream& stream,
                                               std::int64_t nanos) {
  net::Ipv4Address dst;
  if (!stream.targets.empty()) {
    dst = space_.address_at(
        stream.targets[stream.emitted % stream.targets.size()]);
  } else {
    dst = space_.address_at(stream.rng.bounded(space_.total_addresses()));
  }
  ++stream.emitted;
  return stream.builder.probe(net::SimTime::at(net::Duration::nanos(nanos)), dst,
                              stream.port.port, stream.port.type);
}

bool PacketStreamGenerator::generate_window() {
  for (Run& run : runs_) {
    run.packets.clear();
    run.served = 0;
  }
  std::fill(heads_.begin(), heads_.end(), kDrained);
  const std::size_t n_runs = runs_.size();
  std::vector<double> prefix(streams_.size() + 1, 0.0);
  std::vector<std::size_t> first(n_runs + 1, streams_.size());
  while (next_window_ < window_ends_.size()) {
    const std::int64_t end_ns = window_ends_[next_window_++];
    // prefix[i]: the expected packets of streams [0, i) in this window.
    // Ranges are cut at equal shares of it, so a sweeper's burst is spread
    // over the threads instead of landing on one.
    const double end_s = static_cast<double>(end_ns) / 1e9;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      const SubStream& s = streams_[i];
      double expected = 0;
      if (s.next_ns < end_ns) {
        const double span = s.window_end_s - s.current_s;
        const double share =
            span > 0 ? std::clamp((end_s - s.current_s) / span, 0.0, 1.0) : 1.0;
        expected = 1.0 + static_cast<double>(s.remaining) * share;
      }
      prefix[i + 1] = prefix[i] + expected;
    }
    if (prefix.back() == 0) continue;
    for (std::size_t t = 0; t < n_runs; ++t) {
      const double target = prefix.back() * static_cast<double>(t) /
                            static_cast<double>(n_runs);
      first[t] = static_cast<std::size_t>(
          std::lower_bound(prefix.begin(), prefix.end(), target) - prefix.begin());
    }
    // Reserved here, not in the workers: the workers' malloc arenas would
    // keep the buffers resident after set-up (DESIGN.md §5.1).
    for (std::size_t t = 0; t < n_runs; ++t) {
      const double expected = prefix[first[t + 1]] - prefix[first[t]];
      runs_[t].packets.reserve(static_cast<std::size_t>(expected * 1.25) + 64);
      runs_[t].heap.reserve(first[t + 1] - first[t]);
    }
    net::fork_join(n_runs, [&](std::size_t t) {
      drain(first[t], first[t + 1], end_ns, runs_[t]);
    });
    bool any = false;
    for (std::size_t t = 0; t < n_runs; ++t) {
      if (runs_[t].packets.empty()) continue;
      heads_[t] = runs_[t].packets.front().timestamp.since_epoch().total_nanos();
      any = true;
    }
    if (any) return true;
  }
  return false;
}

void PacketStreamGenerator::drain(std::size_t first, std::size_t last,
                                  std::int64_t end_ns, Run& run) {
  // A min-heap of this range's pending arrivals, drained up to the
  // window's end: the range's packets in (time, stream index) order. The
  // emitting stream's next arrival replaces the top and sifts down, one
  // pass per packet.
  std::vector<HeapEntry>& heap = run.heap;
  heap.clear();
  for (std::size_t i = first; i < last; ++i) {
    if (streams_[i].next_ns < end_ns) heap.emplace_back(streams_[i].next_ns, i);
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  while (!heap.empty()) {
    const auto [nanos, index] = heap.front();
    SubStream& stream = streams_[index];
    run.packets.push_back(make_packet(stream, nanos));
    advance(stream);
    HeapEntry moved{stream.next_ns, index};
    if (moved.first >= end_ns) {
      moved = heap.back();
      heap.pop_back();
      if (heap.empty()) break;
    }
    std::size_t hole = 0;
    for (std::size_t child = 1; child < heap.size(); child = 2 * hole + 1) {
      if (child + 1 < heap.size() && heap[child + 1] < heap[child]) ++child;
      if (!(heap[child] < moved)) break;
      heap[hole] = heap[child];
      hole = child;
    }
    heap[hole] = moved;
  }
}

void PacketStreamGenerator::pick_head() {
  // The runs hold disjoint, ascending ranges of stream indices, so the
  // lowest (time, run) is the lowest (time, stream index).
  for (;;) {
    head_ = static_cast<std::size_t>(
        std::min_element(heads_.begin(), heads_.end()) - heads_.begin());
    if (heads_[head_] != kDrained || !generate_window()) return;
  }
}

void PacketStreamGenerator::pop_head() {
  Run& run = runs_[head_];
  ++run.served;
  heads_[head_] = run.served < run.packets.size()
                      ? run.packets[run.served].timestamp.since_epoch().total_nanos()
                      : kDrained;
  ++packets_emitted_;
  pick_head();
}

std::optional<pkt::Packet> PacketStreamGenerator::next() {
  if (heads_[head_] == kDrained) return std::nullopt;
  const Run& run = runs_[head_];
  const pkt::Packet packet = run.packets[run.served];
  pop_head();
  return packet;
}

std::optional<std::int64_t> PacketStreamGenerator::peek_time() const {
  if (heads_[head_] == kDrained) return std::nullopt;
  return heads_[head_];
}

std::size_t PacketStreamGenerator::next_batch(pkt::PacketBatch& out,
                                              std::size_t max) {
  std::size_t emitted = 0;
  for (; emitted < max && heads_[head_] != kDrained; ++emitted) {
    const Run& run = runs_[head_];
    out.push_back(run.packets[run.served]);
    pop_head();
  }
  return emitted;
}

std::uint64_t PacketStreamGenerator::run(
    const std::function<void(const pkt::Packet&)>& sink) {
  std::uint64_t count = 0;
  while (auto packet = next()) {
    sink(*packet);
    ++count;
  }
  return count;
}

std::uint64_t PacketStreamGenerator::run_batched(
    std::size_t batch_size,
    const std::function<void(const pkt::PacketBatch&)>& sink) {
  if (batch_size == 0) batch_size = 1;
  pkt::PacketBatch batch(batch_size);
  std::uint64_t count = 0;
  for (;;) {
    batch.clear();
    const std::size_t n = next_batch(batch, batch_size);
    if (n == 0) break;
    sink(batch);
    count += n;
  }
  return count;
}

}  // namespace orion::scangen
