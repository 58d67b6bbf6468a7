// The detection algorithm, templated over its event source so the
// row-oriented EventDataset path and the zero-copy ODE2 column-scan path
// run the exact same code (and therefore produce identical results —
// pinned by tests/store_test.cpp). Internal to the detect module.
#pragma once

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>
#include <vector>

#include "orion/detect/detector.hpp"
#include "orion/netbase/flat_map.hpp"
#include "orion/netbase/parallel.hpp"
#include "orion/stats/ecdf.hpp"

namespace orion::detect::detail {

/// Source must provide darknet_size(), event_count(), first_day(),
/// last_day(), day_begin(day) — the first row whose day is >= `day`, for
/// days in (first_day, last_day] — and for_each_event_in_rows(lo, hi, fn),
/// which calls fn for rows [lo, hi) in order with a DarknetEvent or any
/// type with the same read interface (key, start, end, packets,
/// unique_dests, day(), dispersion()). Rows are in dataset (start, key)
/// order, so event days are nondecreasing and lie in [first_day,
/// last_day]; a day that regresses or leaves its chunk throws
/// std::logic_error.
///
/// The year is cut at day edges into `n_threads` contiguous row ranges
/// (0: net::scan_threads(event_count)), balanced by row count. Everything
/// but the two ECDF thresholds is per event or per (source, day), so each
/// thread runs the passes over its own days, and the merges on the
/// calling thread take the chunks in row order: the result, including the
/// iteration order of every IpSet, is identical for every thread count
/// (DESIGN.md §10.3).
template <typename Source>
DetectionResult detect_core(const DetectorConfig& config, const Source& source,
                            std::size_t n_threads = 0) {
  DetectionResult result;
  result.darknet_size = source.darknet_size();
  result.total_events = source.event_count();
  result.first_day = source.first_day();
  result.last_day = source.last_day();
  if (source.event_count() == 0) return result;

  const auto day_count =
      static_cast<std::size_t>(result.last_day - result.first_day + 1);
  const auto day_index = [&](std::int64_t day) {
    return static_cast<std::size_t>(day - result.first_day);
  };

  for (DefinitionResult& def : result.by_definition) {
    def.daily.resize(day_count);
    def.active.resize(day_count);
    def.daily_ah_packets.assign(day_count, 0);
  }
  result.total_event_packets_per_day.assign(day_count, 0);

  // --- Cut points: chunk t holds days [first, end) and rows [lo, hi).
  // Each interior cut is the first day edge at or past an even row split.
  struct Chunk {
    std::int64_t first_day = 0;
    std::int64_t end_day = 0;
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
  };
  const std::uint64_t rows = source.event_count();
  if (n_threads == 0) n_threads = net::scan_threads(rows);
  n_threads = std::min(n_threads, day_count);
  const auto row_begin = [&](std::int64_t day) -> std::uint64_t {
    if (day <= result.first_day) return 0;
    if (day > result.last_day) return rows;
    return source.day_begin(day);
  };
  std::vector<Chunk> chunks(n_threads);
  std::int64_t cut_day = result.first_day;
  std::uint64_t cut_row = 0;
  for (std::size_t t = 0; t < n_threads; ++t) {
    Chunk& c = chunks[t];
    c.first_day = cut_day;
    c.lo = cut_row;
    if (t + 1 == n_threads) {
      cut_day = result.last_day + 1;
      cut_row = rows;
    } else {
      const std::uint64_t target = net::part_begin(rows, n_threads, t + 1);
      std::int64_t hi_day = result.last_day + 1;
      while (cut_day < hi_day) {
        const std::int64_t mid = cut_day + (hi_day - cut_day) / 2;
        if (row_begin(mid) >= target) {
          hi_day = mid;
        } else {
          cut_day = mid + 1;
        }
      }
      cut_row = row_begin(cut_day);
    }
    c.end_day = cut_day;
    c.hi = cut_row;
  }

  // --- Pass 1: calibrate ECDF thresholds (Definitions 2 and 3).
  // Distinct ports per (source, day) without a per-pair set: the open
  // day's (src << 16 | port) words are buffered, and when the day closes
  // they are sorted and deduplicated, so each source's run length is its
  // distinct-port count. Each chunk's counts land in day-then-source
  // order; the chunks together are that order over the whole year.
  struct SourceDay {
    net::Ipv4Address src;
    std::uint32_t day_index = 0;
    std::uint32_t ports = 0;
  };
  std::vector<std::vector<SourceDay>> source_days(n_threads);
  std::vector<std::uint64_t> packets(rows);
  net::fork_join(n_threads, [&](std::size_t t) {
    const Chunk& c = chunks[t];
    std::vector<SourceDay>& out = source_days[t];
    std::vector<std::uint64_t> day_words;
    std::int64_t open_day = c.first_day;
    std::uint64_t row = c.lo;
    const auto close_day = [&] {
      std::sort(day_words.begin(), day_words.end());
      day_words.erase(std::unique(day_words.begin(), day_words.end()),
                      day_words.end());
      const auto index = static_cast<std::uint32_t>(day_index(open_day));
      for (std::size_t i = 0; i < day_words.size();) {
        const std::uint64_t src = day_words[i] >> 16;
        std::size_t j = i + 1;
        while (j < day_words.size() && (day_words[j] >> 16) == src) ++j;
        out.push_back({net::Ipv4Address(static_cast<std::uint32_t>(src)), index,
                       static_cast<std::uint32_t>(j - i)});
        i = j;
      }
      day_words.clear();
    };
    source.for_each_event_in_rows(c.lo, c.hi, [&](const auto& e) {
      const std::int64_t day = e.day();
      if (day != open_day) {
        if (day < open_day || day >= c.end_day) {
          throw std::logic_error(
              "detect: events must come in nondecreasing day order within "
              "[first_day, last_day]");
        }
        close_day();
        open_day = day;
      }
      packets[row++] = e.packets;
      if (e.key.type != pkt::TrafficType::IcmpEchoReq) {
        day_words.push_back((std::uint64_t{e.key.src.value()} << 16) |
                            e.key.dst_port);
      }
    });
    close_day();
  });
  const stats::Ecdf packet_ecdf(std::move(packets));
  std::vector<std::uint64_t> port_counts;
  for (const auto& run : source_days) {
    for (const SourceDay& sd : run) port_counts.push_back(sd.ports);
  }
  const stats::Ecdf port_ecdf(std::move(port_counts));

  DefinitionResult& d2 = result.of(Definition::PacketVolume);
  DefinitionResult& d3 = result.of(Definition::DistinctPorts);
  d2.threshold = packet_ecdf.top_alpha_threshold(config.packet_volume_alpha);
  if (port_ecdf.sample_count() > 0) {
    d3.threshold = port_ecdf.top_alpha_threshold(config.port_count_alpha);
  }

  // --- Pass 2: event-level qualification (Definitions 1 and 2), then
  // per-(source, day) qualification (Definition 3, whose "event interval"
  // is the day itself). A thread writes only its own days' slots; active
  // days past its chunk are spilled, and the qualifying sources are kept
  // in event order for the ordered IpSet merge below.
  struct Spill {
    std::size_t def = 0;
    net::Ipv4Address src;
    std::int64_t from_day = 0;
    std::int64_t to_day = 0;
  };
  struct Qualified {
    std::array<std::vector<net::Ipv4Address>, 3> sources;  // event order
    std::vector<Spill> spills;
  };
  std::vector<Qualified> qualified(n_threads);
  const double min_dispersion = config.dispersion_threshold;
  net::fork_join(n_threads, [&](std::size_t t) {
    const Chunk& c = chunks[t];
    Qualified& q = qualified[t];
    source.for_each_event_in_rows(c.lo, c.hi, [&](const auto& e) {
      const std::int64_t start_day = e.day();
      result.total_event_packets_per_day[day_index(start_day)] += e.packets;

      const std::array<bool, 2> qualifies = {
          e.dispersion(result.darknet_size) >= min_dispersion,
          e.packets > d2.threshold};
      if (!qualifies[0] && !qualifies[1]) return;
      const std::int64_t end_day = std::min(e.end.day(), result.last_day);
      const std::int64_t own_end = std::min(end_day, c.end_day - 1);
      for (std::size_t k = 0; k < qualifies.size(); ++k) {
        if (!qualifies[k]) continue;
        DefinitionResult& def = result.by_definition[k];
        q.sources[k].push_back(e.key.src);
        def.daily[day_index(start_day)].push_back(e.key.src);
        for (std::int64_t day = start_day; day <= own_end; ++day) {
          def.active[day_index(day)].push_back(e.key.src);
        }
        if (end_day > own_end) q.spills.push_back({k, e.key.src, own_end + 1, end_day});
      }
    });
    if (d3.threshold == 0) return;
    for (const SourceDay& sd : source_days[t]) {
      if (sd.ports < d3.threshold) continue;
      q.sources[2].push_back(sd.src);
      d3.daily[sd.day_index].push_back(sd.src);
      d3.active[sd.day_index].push_back(sd.src);
    }
  });
  // Chunk by chunk, each IpSet sees the serial insertion sequence, so it
  // iterates in the serial order too.
  for (const Qualified& q : qualified) {
    for (std::size_t k = 0; k < result.by_definition.size(); ++k) {
      DefinitionResult& def = result.by_definition[k];
      def.qualifying_events += q.sources[k].size();
      for (const net::Ipv4Address src : q.sources[k]) def.ips.insert(src);
    }
    for (const Spill& s : q.spills) {
      for (std::int64_t day = s.from_day; day <= s.to_day; ++day) {
        result.by_definition[s.def].active[day_index(day)].push_back(s.src);
      }
    }
  }

  // --- Per thread, over its own days: sort_unique the daily and active
  // lists, then the daily-AH packet attribution (Fig 3 right) — all
  // packets of events starting on day d whose source is among that day's
  // daily AH. One flat map per day (source -> bit k set when it is a
  // daily AH under definition k) answers all three definitions with one
  // probe per event.
  const auto sort_unique = [](std::vector<net::Ipv4Address>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  net::fork_join(n_threads, [&](std::size_t t) {
    const Chunk& c = chunks[t];
    for (std::size_t index = day_index(c.first_day); index < day_index(c.end_day);
         ++index) {
      for (DefinitionResult& def : result.by_definition) {
        sort_unique(def.daily[index]);
        sort_unique(def.active[index]);
      }
    }
    net::FlatMap<net::Ipv4Address, std::uint8_t> daily_mask;
    std::size_t mask_index = day_count;  // no day loaded yet
    source.for_each_event_in_rows(c.lo, c.hi, [&](const auto& e) {
      const std::size_t index = day_index(e.day());
      if (index != mask_index) {
        mask_index = index;
        daily_mask.clear();
        for (std::size_t k = 0; k < result.by_definition.size(); ++k) {
          for (const net::Ipv4Address src : result.by_definition[k].daily[index]) {
            *daily_mask.try_emplace(src, std::uint8_t{0}).first |=
                static_cast<std::uint8_t>(1u << k);
          }
        }
      }
      const std::uint8_t* mask = daily_mask.find(e.key.src);
      if (mask == nullptr) return;
      for (std::size_t k = 0; k < result.by_definition.size(); ++k) {
        if ((*mask >> k) & 1u) {
          result.by_definition[k].daily_ah_packets[index] += e.packets;
        }
      }
    });
  });
  return result;
}

}  // namespace orion::detect::detail
