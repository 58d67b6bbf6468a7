#include "orion/scangen/event_synth.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "event_synth_core.hpp"
#include "orion/netbase/parallel.hpp"
#include "orion/scangen/arrivals.hpp"
#include "orion/scangen/target_sampler.hpp"

namespace orion::scangen {

namespace {

/// Event start/end: with U arrivals uniform over the session, the first
/// lands ~ duration/(U+1) after session start and the last the same margin
/// before session end (expectation of uniform order statistics).
void place_event(const SessionSpec& session, std::uint64_t arrivals,
                 net::Rng& rng, telescope::DarknetEvent& event) {
  const double span = session.duration.total_seconds();
  const double margin = span / static_cast<double>(arrivals + 1);
  const double lead = rng.exponential(1.0 / margin);
  const double tail = rng.exponential(1.0 / margin);
  double start_off = std::min(lead, span * 0.5);
  double end_off = std::min(tail, span * 0.5);
  event.start = session.start + net::Duration::from_seconds(start_off);
  event.end = session.end() - net::Duration::from_seconds(end_off);
  if (event.end < event.start) event.end = event.start;
}

void emit_event(const ScannerProfile& scanner, const SessionSpec& session,
                const PortSpec& port, std::uint64_t uniques, net::Rng& rng,
                std::vector<telescope::DarknetEvent>& out) {
  if (uniques == 0) return;
  telescope::DarknetEvent event;
  event.key.src = scanner.source;
  event.key.dst_port =
      port.type == pkt::TrafficType::IcmpEchoReq ? std::uint16_t{0} : port.port;
  event.key.type = port.type;
  event.unique_dests = uniques;
  event.packets = session_packets_for_port(uniques, session.repeats);
  event.packets_by_tool[telescope::tool_index(scanner.tool)] = event.packets;
  place_event(session, event.packets, rng, event);
  out.push_back(event);
}

/// The most events one scanner can emit: one per listed port of each
/// session, one per swept port of each sweep session. It bounds the range
/// buffers and is the cost that balances the ranges.
std::size_t event_bound(const ScannerProfile& scanner) {
  std::size_t bound = 0;
  for (const SessionSpec& session : scanner.sessions) {
    bound += session.sweep_port_count > 0
                 ? std::min<std::size_t>(session.sweep_port_count, 65535)
                 : session.ports.size();
  }
  return bound;
}

/// Where one synthesized event sits: its range buffer and index there.
/// Sorting proxies by start alone makes exactly the comparisons, and so
/// the moves, that sorting the events themselves would.
struct EventProxy {
  net::SimTime start;
  std::uint32_t range = 0;
  std::uint32_t index = 0;
};
static_assert(sizeof(EventProxy) == 16);

}  // namespace

void synthesize_scanner_events(const ScannerProfile& scanner,
                               const EventSynthConfig& config,
                               std::vector<telescope::DarknetEvent>& out) {
  // Per-scanner substream: results do not depend on scanner iteration order.
  net::Rng base(config.seed);
  net::Rng rng = base.fork(scanner.rng_stream);

  for (const SessionSpec& session : scanner.sessions) {
    if (session.sweep_port_count > 0) {
      // Port sweep: distinct random ports, each covering the (tiny)
      // address subset. Ports 1..65535; ICMP is not part of sweeps.
      const std::uint64_t port_count =
          std::min<std::uint64_t>(session.sweep_port_count, 65535);
      const auto ports = sample_distinct_offsets(65535, port_count, rng);
      for (const std::uint64_t p : ports) {
        const std::uint64_t uniques =
            sample_unique_targets(config.darknet_size, session.coverage, rng);
        emit_event(scanner, session,
                   {static_cast<std::uint16_t>(p + 1), pkt::TrafficType::TcpSyn},
                   uniques, rng, out);
      }
      continue;
    }
    for (const PortSpec& port : session.ports) {
      const std::uint64_t uniques =
          sample_unique_targets(config.darknet_size, session.coverage, rng);
      emit_event(scanner, session, port, uniques, rng, out);
    }
  }
}

std::vector<telescope::DarknetEvent> detail::synthesize_events(
    const Population& population, const EventSynthConfig& config,
    std::size_t n_threads) {
  const std::vector<ScannerProfile>& scanners = population.scanners;
  n_threads = std::max<std::size_t>(1, n_threads);

  // prefix[i]: the event bound of scanners [0, i). Range t starts at the
  // first scanner whose prefix reaches t/n_threads of the total, so one
  // port sweeper with tens of thousands of ports weighs what it costs.
  std::vector<std::size_t> prefix(scanners.size() + 1, 0);
  for (std::size_t i = 0; i < scanners.size(); ++i) {
    prefix[i + 1] = prefix[i] + event_bound(scanners[i]);
  }
  std::vector<std::size_t> first(n_threads + 1, scanners.size());
  for (std::size_t t = 0; t < n_threads; ++t) {
    const std::size_t target = net::part_begin(prefix.back(), n_threads, t);
    first[t] = static_cast<std::size_t>(
        std::lower_bound(prefix.begin(), prefix.end(), target) - prefix.begin());
  }

  // Reserved here, not in the workers: the workers' malloc arenas would
  // keep the freed buffers resident after set-up (DESIGN.md §5.1).
  std::vector<std::vector<telescope::DarknetEvent>> parts(n_threads);
  for (std::size_t t = 0; t < n_threads; ++t) {
    parts[t].reserve(prefix[first[t + 1]] - prefix[first[t]]);
  }
  net::fork_join(n_threads, [&](std::size_t t) {
    // A local handle, so the workers' push_backs do not share the cache
    // lines of the adjacent vector headers in `parts`.
    std::vector<telescope::DarknetEvent> part = std::move(parts[t]);
    for (std::size_t i = first[t]; i < first[t + 1]; ++i) {
      synthesize_scanner_events(scanners[i], config, part);
    }
    parts[t] = std::move(part);
  });

  // Proxies in scanner order, the order the serial path sorted.
  std::size_t total = 0;
  for (const auto& part : parts) {
    if (part.size() > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("synthesize_events: range exceeds 2^32 events");
    }
    total += part.size();
  }
  std::vector<EventProxy> proxies;
  proxies.reserve(total);
  for (std::size_t t = 0; t < n_threads; ++t) {
    for (std::size_t i = 0; i < parts[t].size(); ++i) {
      proxies.push_back({parts[t][i].start, static_cast<std::uint32_t>(t),
                         static_cast<std::uint32_t>(i)});
    }
  }
  std::sort(proxies.begin(), proxies.end(),
            [](const EventProxy& a, const EventProxy& b) { return a.start < b.start; });

  std::vector<telescope::DarknetEvent> out(total);
  net::fork_join(n_threads, [&](std::size_t t) {
    const std::size_t end = net::part_begin(total, n_threads, t + 1);
    for (std::size_t j = net::part_begin(total, n_threads, t); j < end; ++j) {
      out[j] = parts[proxies[j].range][proxies[j].index];
    }
  });
  return out;
}

std::vector<telescope::DarknetEvent> synthesize_events(
    const Population& population, const EventSynthConfig& config) {
  std::size_t bound = 0;
  for (const ScannerProfile& scanner : population.scanners) {
    bound += event_bound(scanner);
  }
  return detail::synthesize_events(population, config, net::scan_threads(bound));
}

}  // namespace orion::scangen
