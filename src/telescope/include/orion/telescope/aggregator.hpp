// Streaming aggregation of darknet packets into darknet events.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "orion/netbase/flat_map.hpp"
#include "orion/netbase/prefix.hpp"
#include "orion/packet/batch.hpp"
#include "orion/stats/hyperloglog.hpp"
#include "orion/telescope/event.hpp"

namespace orion::telescope {

class CheckpointReader;
class CheckpointWriter;

struct AggregatorConfig {
  /// Inactivity period after which an event is considered ended (see
  /// timeout.hpp for the derivation used by the scenarios).
  net::Duration timeout = net::Duration::minutes(10);
  /// Unique-destination tracking stays exact up to this many distinct
  /// destinations per event, then degrades to an HLL estimate. The default
  /// keeps the Definition-1 10%-dispersion decision exact for darknets up
  /// to ~160k addresses.
  std::size_t exact_dest_limit = 16384;
  int hll_precision = 12;
  /// How often (in event time) the lazy expiry sweep runs.
  net::Duration sweep_interval = net::Duration::minutes(5);
  /// Slots pre-reserved in the live-event table (hot per-packet map);
  /// sized for the concurrent-scanner population, not total sources.
  /// Capacity only — results are unaffected, so it is not config-echoed.
  std::size_t live_reserve = 4096;
};

/// Turns a time-ordered stream of darknet packets into completed
/// DarknetEvents, keyed by (src, dst port, traffic type) and delimited by
/// the inactivity timeout. Non-scanning packets ("Other") and packets
/// outside the dark space are ignored but counted.
///
/// Expiry is lazy: a sweep over the live-event table runs every
/// `sweep_interval` of stream time. The sweep compares against packet
/// timestamps, so events are emitted with exact start/end times regardless
/// of when the sweep happens to run.
class EventAggregator {
 public:
  EventAggregator(net::PrefixSet dark_space, AggregatorConfig config,
                  EventSink sink);

  /// Feeds one packet. Timestamps must be non-decreasing; a regression
  /// throws std::invalid_argument (the pipeline always merges sorted
  /// streams, so a violation is a programming error worth failing loudly).
  void observe(const pkt::Packet& packet);

  /// Feeds a whole columnar batch. State after the call is byte-identical
  /// to calling observe() on each record in order — same events in the
  /// same order, same counters, same checkpoint bytes — for any batch
  /// size (DESIGN.md §11). The batch engine pre-classifies and pre-hashes
  /// every record, software-prefetches the live-table buckets, and skips
  /// (only) expiry sweeps it can prove would emit nothing.
  ///
  /// One deliberate strengthening: timestamps are validated for the whole
  /// batch up front, so a mid-batch regression throws *before* any record
  /// is applied (the scalar loop would have applied the valid prefix).
  void observe_batch(const pkt::PacketBatch& batch);

  /// Expires everything idle at `now` without feeding a packet (used at
  /// day boundaries by the longitudinal driver).
  void advance_to(net::SimTime now);

  /// Closes and emits all live events (end of capture).
  void finish();

  // --- capture-level counters (Table 1 inputs)
  std::uint64_t packets_seen() const { return packets_seen_; }
  std::uint64_t scanning_packets() const { return scanning_packets_; }
  std::uint64_t ignored_out_of_space() const { return ignored_out_of_space_; }
  std::uint64_t ignored_non_scanning() const { return ignored_non_scanning_; }
  std::uint64_t events_emitted() const { return events_emitted_; }
  std::size_t live_events() const { return live_.size(); }
  std::uint64_t darknet_size() const { return dark_space_.total_addresses(); }

  /// Snapshots the full aggregator state (live-event table, per-event
  /// cardinality estimators, counters, stream clock) so a killed process
  /// resumes mid-capture. Restore verifies the snapshot was taken under
  /// the same configuration and dark space (std::runtime_error
  /// otherwise); the sink is NOT serialized — the restoring caller wires
  /// its own.
  void checkpoint(CheckpointWriter& writer) const;
  void restore(CheckpointReader& reader);

 private:
  struct LiveEvent {
    net::SimTime start;
    net::SimTime last_seen;
    std::uint64_t packets = 0;
    ToolPackets packets_by_tool{};
    stats::CardinalityEstimator dests;

    explicit LiveEvent(std::size_t exact_limit, int hll_precision)
        : dests(exact_limit, hll_precision) {}
  };

  void emit(const EventKey& key, const LiveEvent& live);
  void sweep(net::SimTime now);
  void batch_sweep(net::SimTime now);
  void rebuild_aux();
  void aux_rebase(std::int64_t top_granule);
  std::size_t aux_bucket_of(std::int64_t last_seen_ns) const;

  net::PrefixSet dark_space_;
  AggregatorConfig config_;
  EventSink sink_;
  /// Open-addressing flat table: probed once per scanning packet, so it
  /// avoids unordered_map's per-node allocations and pointer chases.
  net::FlatMap<EventKey, LiveEvent, EventKeyHash> live_;

  net::SimTime last_timestamp_;
  net::SimTime next_sweep_;
  bool saw_packet_ = false;

  // --- batch-path expiry wheel (DESIGN.md §11.3) ---
  // A lazy timing wheel over last_seen, in coarse granules of
  // aux_granule_ns_: wheel bucket i holds (key, hash) stamps for events
  // whose last_seen entered granule aux_base_granule_ + i; bucket 0 also
  // absorbs everything older than the base (rebases fold entries down).
  // Stamps are append-only — touching an event leaves its old stamp
  // stale — and a sweep validates only the stamps in buckets at or below
  // the expiry cutoff against the live table. In the common case those
  // buckets are empty and the sweep is a clock update; when stamps are
  // present, the few truly-expired events are emitted in an order provably
  // identical to the scalar erase_if scan (smallest current slot index
  // first, re-queried after every erase), so the batch path never walks
  // the full live table on a sweep at all.
  // Maintained only by observe_batch; the scalar entry points just flip
  // aux_valid_ and the next batch call rebuilds from the live table.
  static constexpr std::size_t kAuxBuckets = 64;
  using AuxStamp = std::pair<EventKey, std::size_t>;  // key + its hash
  bool aux_valid_ = false;
  std::int64_t aux_granule_ns_ = 1;
  std::int64_t aux_base_granule_ = 0;
  std::array<std::vector<AuxStamp>, kAuxBuckets> aux_wheel_;
  std::vector<AuxStamp> aux_candidates_;  // sweep scratch
  // Per-record scratch columns reused across batches (kept as members so
  // a steady-state observe_batch call performs zero allocations).
  std::vector<std::uint8_t> scratch_kind_;
  std::vector<std::uint8_t> scratch_type_;    // traffic classification
  std::vector<std::uint8_t> scratch_tool_;
  std::vector<EventKey> scratch_key_;
  std::vector<std::size_t> scratch_hash_;
  std::vector<std::uint64_t> scratch_offset_;

  std::uint64_t packets_seen_ = 0;
  std::uint64_t scanning_packets_ = 0;
  std::uint64_t ignored_out_of_space_ = 0;
  std::uint64_t ignored_non_scanning_ = 0;
  std::uint64_t events_emitted_ = 0;
};

/// Convenience sink that collects events into a vector.
class EventCollector {
 public:
  EventSink sink() {
    return [this](const DarknetEvent& e) { events_.push_back(e); };
  }
  const std::vector<DarknetEvent>& events() const { return events_; }
  std::vector<DarknetEvent> take() { return std::move(events_); }
  /// Checkpoint support: reinstates the pending-event backlog.
  void restore(std::vector<DarknetEvent> events) { events_ = std::move(events); }

 private:
  std::vector<DarknetEvent> events_;
};

}  // namespace orion::telescope
