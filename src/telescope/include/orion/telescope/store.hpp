// Darknet-event persistence: a compact binary format (magic + darknet
// size + record count + fixed-width records) and a CSV export, so
// longitudinal event datasets can be archived and reloaded without
// re-simulation or re-aggregation — the role of the ORION "darknet events"
// files.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "orion/telescope/capture.hpp"
#include "orion/telescope/event.hpp"

namespace orion::telescope {

/// Writes a dataset; returns bytes written. The format is little-endian
/// and fixed-width; the "ODE1" magic is its only identifier (there is no
/// version field). Throws std::runtime_error if the stream reports a
/// write failure (short write, full disk).
std::uint64_t write_events_binary(const EventDataset& dataset, std::ostream& out);

/// Reads a dataset written by write_events_binary. Throws
/// std::runtime_error (with context) on bad magic, truncation or a record
/// count mismatch.
EventDataset read_events_binary(std::istream& in);

/// Salvage-mode read for truncated or corrupt ODE1 files: recovers every
/// complete, valid record preceding the first error instead of throwing
/// the whole file away.
struct SalvageResult {
  EventDataset dataset{{}, 0};
  /// Record count the header declared (0 when the header itself is bad).
  std::uint64_t declared_count = 0;
  /// Complete records recovered into `dataset`.
  std::uint64_t recovered_count = 0;
  /// True when the file parsed cleanly end to end.
  bool complete = false;
  /// First error encountered when !complete (same message the strict
  /// reader would have thrown).
  std::string error;
};

SalvageResult read_events_binary_salvage(std::istream& in);

/// Human-readable CSV: one row per event with start/end timestamps (ns),
/// key, packets, unique destinations and per-tool packet counts.
void write_events_csv(const EventDataset& dataset, std::ostream& out);

}  // namespace orion::telescope
