// ODE2 columnar store tests: ODE1 <-> ODE2 round-trip equivalence, the
// writer's pinned golden bytes, the EventDataset build order every reader
// relies on, the zero-copy query surface (day index, zone maps,
// parallel_scan), the corrupt-input salvage corpus mirroring
// tests/telescope_test.cpp, and
// the analysis-equivalence pins (detection and darknet mixes fed from an
// mmap'ed archive must match the materialized-dataset paths exactly).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "orion/detect/detector.hpp"
#include "orion/impact/flow_join.hpp"
#include "orion/netbase/crc32.hpp"
#include "orion/scangen/event_synth.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/store/mapped.hpp"
#include "orion/store/ode2.hpp"
#include "orion/telescope/capture.hpp"
#include "orion/telescope/store.hpp"

namespace orion::store {
namespace {

using telescope::DarknetEvent;
using telescope::EventDataset;

/// 100 events spanning ~13 days: same shape as telescope_test's sample
/// but spread across days so the day index and zone maps have structure.
EventDataset sample_dataset() {
  std::vector<DarknetEvent> events;
  for (int i = 0; i < 100; ++i) {
    DarknetEvent e;
    e.key.src = net::Ipv4Address(0xCB007100u + static_cast<std::uint32_t>(i % 37));
    e.key.dst_port = static_cast<std::uint16_t>(i % 7 == 0 ? 0 : 6379);
    e.key.type = i % 7 == 0 ? pkt::TrafficType::IcmpEchoReq
                            : pkt::TrafficType::TcpSyn;
    e.start = net::SimTime::at(net::Duration::seconds(11000 * i));
    e.end = e.start + net::Duration::seconds(40);
    e.packets = 10 + static_cast<std::uint64_t>(i);
    e.unique_dests = 5 + static_cast<std::uint64_t>(i);
    e.packets_by_tool[telescope::tool_index(pkt::ScanTool::ZMap)] = e.packets;
    events.push_back(e);
  }
  return EventDataset(std::move(events), 4096);
}

/// RAII temp file seeded with the given bytes. The path embeds the PID:
/// gtest tests run as separate concurrent ctest processes, so a bare
/// counter would collide across them.
class TempFile {
 public:
  explicit TempFile(const std::string& bytes, const char* tag = "ode2") {
    static int counter = 0;
    path_ = (std::filesystem::temp_directory_path() /
             ("orion_store_test_" + std::to_string(::getpid()) + "_" +
              std::to_string(++counter) + "_" + tag))
                .string();
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string ode2_bytes(const EventDataset& dataset,
                       std::uint64_t block_events = kOde2DefaultBlockEvents) {
  std::stringstream stream;
  write_events_ode2(dataset, stream, block_events);
  return stream.str();
}

std::string ode1_bytes(const EventDataset& dataset) {
  std::stringstream stream;
  telescope::write_events_binary(dataset, stream);
  return stream.str();
}

void expect_identical(const EventDataset& a, const EventDataset& b) {
  EXPECT_EQ(a.darknet_size(), b.darknet_size());
  ASSERT_EQ(a.event_count(), b.event_count());
  for (std::size_t i = 0; i < a.event_count(); ++i) {
    EXPECT_EQ(a.events()[i], b.events()[i]) << "event " << i;
  }
  // Byte-identical when re-serialized in ODE1 form: nothing was lost.
  EXPECT_EQ(ode1_bytes(a), ode1_bytes(b));
}

// ------------------------------------------------------------- round trip

TEST(Ode2RoundTrip, DatasetSurvivesByteIdentical) {
  const EventDataset original = sample_dataset();
  const TempFile file(ode2_bytes(original));
  const MappedEventStore store(file.path());
  EXPECT_EQ(store.event_count(), 100u);
  EXPECT_EQ(store.darknet_size(), 4096u);
  EXPECT_EQ(store.first_day(), original.first_day());
  EXPECT_EQ(store.last_day(), original.last_day());
  EXPECT_EQ(store.verify_blocks(), store.block_count());
  expect_identical(original, store.to_dataset());
}

TEST(Ode2RoundTrip, EveryBlockSizeYieldsTheSameDataset) {
  const EventDataset original = sample_dataset();
  for (const std::uint64_t block_events : {1u, 3u, 16u, 100u, 1024u}) {
    const TempFile file(ode2_bytes(original, block_events));
    const MappedEventStore store(file.path());
    const std::uint64_t expect_blocks =
        (100 + block_events - 1) / block_events;
    EXPECT_EQ(store.block_count(), expect_blocks) << block_events;
    expect_identical(original, store.to_dataset());
  }
}

TEST(Ode2RoundTrip, EmptyDatasetRoundTrips) {
  const EventDataset original({}, 512);
  const TempFile file(ode2_bytes(original));
  const MappedEventStore store(file.path());
  EXPECT_EQ(store.event_count(), 0u);
  EXPECT_EQ(store.block_count(), 0u);
  EXPECT_EQ(store.darknet_size(), 512u);
  EXPECT_EQ(store.to_dataset().event_count(), 0u);
  std::size_t visited = 0;
  store.for_each_event([&](const EventRow&) { ++visited; });
  EXPECT_EQ(visited, 0u);
}

TEST(Ode2RoundTrip, WriterRejectsBadBlockSize) {
  const EventDataset dataset = sample_dataset();
  std::stringstream out;
  EXPECT_THROW(write_events_ode2(dataset, out, 0), std::invalid_argument);
  EXPECT_THROW(write_events_ode2(dataset, out, std::uint64_t{1} << 60),
               std::invalid_argument);
}

TEST(Ode2RoundTrip, RejectedPathWriteLeavesTheFileUntouched) {
  const EventDataset dataset = sample_dataset();
  const std::string victim = "not an archive, and must stay that way";
  const TempFile file(victim, "victim");
  EXPECT_THROW(write_events_ode2_file(dataset, file.path(), 0),
               std::invalid_argument);
  std::ifstream in(file.path(), std::ios::binary);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), {}), victim);
}

// ----------------------------------------------------------- golden bytes

/// Fixed pseudo-random events (SplitMix64, no simulator dependency) with
/// three-way start ties, ten days, every traffic type and every tool
/// column populated. Keys within a tie are distinct, so (start, key) is a
/// total order and the dataset is fully determined by this function.
EventDataset golden_dataset() {
  std::uint64_t state = 0x0DE25EEDull;
  auto next = [&state] {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  std::vector<DarknetEvent> events;
  for (std::uint32_t i = 0; i < 1500; ++i) {
    DarknetEvent e;
    e.key.src = net::Ipv4Address(0x0A000000u + (i * 7919u) % 4001u);
    e.key.type = static_cast<pkt::TrafficType>(next() % 4);
    e.key.dst_port = e.key.type == pkt::TrafficType::IcmpEchoReq
                         ? 0
                         : static_cast<std::uint16_t>(next() % 65536);
    e.start = net::SimTime::at(net::Duration::seconds(1700 * (i / 3)));
    e.end = e.start + net::Duration::seconds(static_cast<std::int64_t>(next() % 3600));
    e.packets = 1 + next() % 100000;
    e.unique_dests = 1 + next() % 5000;
    for (std::uint64_t& t : e.packets_by_tool) t = next() % 1000;
    events.push_back(e);
  }
  return EventDataset(std::move(events), 1u << 16);
}

std::uint32_t crc_of(const std::string& bytes) {
  return net::Crc32::of(
      {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
}

// Pins the writer's exact output, not just reader(writer(x)) == x: a
// writer and reader that drifted together would still round-trip.
TEST(Ode2Golden, WriterBytesArePinned) {
  const EventDataset dataset = golden_dataset();
  struct Pin {
    std::uint64_t block_events;
    std::size_t size;
    std::uint32_t crc;
  };
  for (const Pin& pin : {Pin{1, 162164, 0xED3FAF6Eu},
                         Pin{7, 115904, 0x46722F5Au},
                         Pin{kOde2DefaultBlockEvents, 106740, 0x6B4469EBu}}) {
    const std::string bytes = ode2_bytes(dataset, pin.block_events);
    EXPECT_EQ(bytes.size(), pin.size) << pin.block_events;
    EXPECT_EQ(crc_of(bytes), pin.crc)
        << pin.block_events << " crc 0x" << std::hex << crc_of(bytes);
  }
}

// ------------------------------------------------ EventDataset build order

/// The dataset every input below must build: a full (start, key) sort and
/// a std::set of sources, independent of EventDataset's order-aware path.
struct ReferenceDataset {
  std::vector<DarknetEvent> events;
  std::uint64_t total_packets = 0;
  std::size_t unique_sources = 0;
  std::int64_t first_day = 0;
  std::int64_t last_day = -1;

  explicit ReferenceDataset(std::vector<DarknetEvent> input)
      : events(std::move(input)) {
    std::sort(events.begin(), events.end(),
              [](const DarknetEvent& a, const DarknetEvent& b) {
                if (a.start != b.start) return a.start < b.start;
                return a.key < b.key;
              });
    std::set<std::uint32_t> sources;
    for (const DarknetEvent& e : events) {
      total_packets += e.packets;
      sources.insert(e.key.src.value());
      last_day = std::max(last_day, e.day());
    }
    unique_sources = sources.size();
    if (!events.empty()) first_day = events.front().day();
  }
};

void expect_matches_reference(std::vector<DarknetEvent> input,
                              const char* shape) {
  const ReferenceDataset ref(input);
  const EventDataset dataset(std::move(input), 4096);
  EXPECT_EQ(dataset.events(), ref.events) << shape;
  EXPECT_EQ(dataset.total_packets(), ref.total_packets) << shape;
  EXPECT_EQ(dataset.unique_sources(), ref.unique_sources) << shape;
  EXPECT_EQ(dataset.first_day(), ref.first_day) << shape;
  EXPECT_EQ(dataset.last_day(), ref.last_day) << shape;
}

/// `count` events with unique (start, key): starts come in runs of
/// `tie` equal values spread over several days, and sources repeat
/// across runs so the distinct-source count is below the event count.
std::vector<DarknetEvent> order_events(std::uint32_t count, std::uint32_t tie,
                                       std::mt19937_64& rng) {
  std::vector<DarknetEvent> events;
  for (std::uint32_t i = 0; i < count; ++i) {
    DarknetEvent e;
    e.key.src = net::Ipv4Address(0xC6336400u + static_cast<std::uint32_t>(rng() % 97));
    e.key.dst_port = static_cast<std::uint16_t>(i % tie);  // unique within a run
    e.key.type = static_cast<pkt::TrafficType>(rng() % 4);
    e.start = net::SimTime::at(net::Duration::seconds(7000 * (i / tie)));
    e.end = e.start + net::Duration::seconds(static_cast<std::int64_t>(rng() % 600));
    e.packets = 1 + rng() % 1000;
    e.unique_dests = 1 + rng() % 100;
    e.packets_by_tool[rng() % 4] = e.packets;
    events.push_back(e);
  }
  return events;
}

TEST(EventDatasetOrder, EveryInputOrderBuildsTheReferenceDataset) {
  std::mt19937_64 rng(20231024);
  const std::vector<DarknetEvent> sorted =
      ReferenceDataset(order_events(600, 5, rng)).events;
  ASSERT_GT(sorted.back().day(), sorted.front().day());

  std::vector<DarknetEvent> shuffled = sorted;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  expect_matches_reference(shuffled, "shuffled");

  // The shape synthesize_events emits: start order, ties in any order.
  std::vector<DarknetEvent> scrambled_ties = shuffled;
  std::stable_sort(scrambled_ties.begin(), scrambled_ties.end(),
                   [](const DarknetEvent& a, const DarknetEvent& b) {
                     return a.start < b.start;
                   });
  ASSERT_NE(scrambled_ties, sorted);
  expect_matches_reference(scrambled_ties, "start-sorted, scrambled ties");

  expect_matches_reference(sorted, "total order");
  expect_matches_reference({sorted.rbegin(), sorted.rend()}, "reversed");

  // Start order broken by one late row: must take the full sort.
  std::vector<DarknetEvent> one_late = sorted;
  std::rotate(one_late.begin() + 100, one_late.begin() + 101, one_late.end());
  expect_matches_reference(one_late, "one late row");

  std::vector<DarknetEvent> one_start = order_events(300, 300, rng);
  std::shuffle(one_start.begin(), one_start.end(), rng);
  expect_matches_reference(one_start, "all starts equal");

  expect_matches_reference({}, "empty");
  expect_matches_reference({sorted[42]}, "single event");
}

// ------------------------------------------------------ zero-copy queries

TEST(MappedStore, DayRangeMatchesLinearScan) {
  const EventDataset dataset = sample_dataset();
  const TempFile file(ode2_bytes(dataset, 16));
  const MappedEventStore store(file.path());
  for (std::int64_t day = dataset.first_day() - 1;
       day <= dataset.last_day() + 1; ++day) {
    std::uint64_t lo = dataset.event_count(), hi = 0, count = 0;
    for (std::size_t i = 0; i < dataset.event_count(); ++i) {
      if (dataset.events()[i].day() != day) continue;
      lo = std::min<std::uint64_t>(lo, i);
      hi = std::max<std::uint64_t>(hi, i + 1);
      ++count;
    }
    const auto [begin, end] = store.day_range(day);
    if (count == 0) {
      EXPECT_EQ(begin, end) << "day " << day;
    } else {
      EXPECT_EQ(begin, lo) << "day " << day;
      EXPECT_EQ(end, hi) << "day " << day;
    }
    std::uint64_t visited = 0;
    std::uint64_t packets = 0;
    store.for_each_event_on_day(day, [&](const EventRow& e) {
      EXPECT_EQ(e.day(), day);
      packets += e.packets;
      ++visited;
    });
    EXPECT_EQ(visited, count) << "day " << day;
  }
}

TEST(MappedStore, EventAccessorMatchesDataset) {
  const EventDataset dataset = sample_dataset();
  const TempFile file(ode2_bytes(dataset, 7));
  const MappedEventStore store(file.path());
  for (std::size_t i = 0; i < dataset.event_count(); ++i) {
    EXPECT_EQ(store.event(i), dataset.events()[i]) << "row " << i;
  }
  EXPECT_THROW(store.event(dataset.event_count()), std::runtime_error);
}

TEST(MappedStore, ZoneMapPruningLosesNoMatchingRows) {
  const EventDataset dataset = sample_dataset();
  const TempFile file(ode2_bytes(dataset, 8));
  const MappedEventStore store(file.path());
  const std::int64_t day_lo = dataset.first_day() + 2;
  const std::int64_t day_hi = dataset.first_day() + 5;
  const std::uint32_t src_lo = 0xCB007100u + 5;
  const std::uint32_t src_hi = 0xCB007100u + 20;

  std::uint64_t expected = 0;
  for (const DarknetEvent& e : dataset.events()) {
    if (e.day() >= day_lo && e.day() <= day_hi &&
        e.key.src.value() >= src_lo && e.key.src.value() <= src_hi) {
      ++expected;
    }
  }
  ASSERT_GT(expected, 0u);

  // Blocks are a superset (zone maps prune, never filter rows); the
  // row-level predicate inside the visited blocks must find every match.
  std::uint64_t found = 0;
  store.for_each_block(day_lo, day_hi, src_lo, src_hi,
                       [&](const BlockView& view) {
                         for (std::size_t i = 0; i < view.rows(); ++i) {
                           const std::int64_t day =
                               net::SimTime::at(
                                   net::Duration::nanos(view.start_ns[i]))
                                   .day();
                           if (day >= day_lo && day <= day_hi &&
                               view.src[i] >= src_lo && view.src[i] <= src_hi) {
                             ++found;
                           }
                         }
                       });
  EXPECT_EQ(found, expected);

  // A (day, src) window matching nothing visits no blocks at all.
  std::size_t blocks_visited = 0;
  store.for_each_block(dataset.last_day() + 10, dataset.last_day() + 20, 0,
                       0xFFFFFFFFu,
                       [&](const BlockView&) { ++blocks_visited; });
  EXPECT_EQ(blocks_visited, 0u);
}

TEST(MappedStore, ParallelScanIdenticalForAnyThreadCount) {
  const EventDataset dataset = sample_dataset();
  const TempFile file(ode2_bytes(dataset, 4));  // 25 blocks
  const MappedEventStore store(file.path());

  // The state records a per-block digest in visit order, so any change in
  // partitioning or merge order shows up as a different vector.
  struct Digests {
    std::vector<std::uint64_t> per_block;
  };
  const auto scan = [&](std::size_t n_threads) {
    return store.parallel_scan<Digests>(
        n_threads,
        [](Digests& state, const BlockView& view) {
          std::uint64_t digest = view.first_row * 1000003u;
          for (std::size_t i = 0; i < view.rows(); ++i) {
            digest = digest * 31 + view.packets[i] + view.src[i];
          }
          state.per_block.push_back(digest);
        },
        [](Digests& into, Digests&& from) {
          into.per_block.insert(into.per_block.end(), from.per_block.begin(),
                                from.per_block.end());
        });
  };

  const Digests reference = scan(1);
  ASSERT_EQ(reference.per_block.size(), store.block_count());
  for (const std::size_t n : {2u, 3u, 4u, 7u, 16u, 64u}) {
    EXPECT_EQ(scan(n).per_block, reference.per_block) << n << " threads";
  }
  EXPECT_EQ(scan(0).per_block, reference.per_block);  // hardware default
}

// ------------------------------------------------- strict-open rejection

TEST(MappedStore, StrictOpenRejectsCorruption) {
  const std::string bytes = ode2_bytes(sample_dataset(), 16);
  {  // bad magic
    std::string bad = bytes;
    bad[0] = 'X';
    const TempFile file(bad);
    EXPECT_THROW(MappedEventStore{file.path()}, std::runtime_error);
  }
  {  // header payload flip breaks the header CRC
    std::string bad = bytes;
    bad[9] ^= 0x40;
    const TempFile file(bad);
    EXPECT_THROW(MappedEventStore{file.path()}, std::runtime_error);
  }
  {  // truncation anywhere breaks the geometry
    const TempFile file(bytes.substr(0, bytes.size() / 2));
    EXPECT_THROW(MappedEventStore{file.path()}, std::runtime_error);
  }
  {  // footer flip breaks the footer CRC
    std::string bad = bytes;
    bad[bad.size() - 3] ^= 0x01;
    const TempFile file(bad);
    EXPECT_THROW(MappedEventStore{file.path()}, std::runtime_error);
  }
  {  // block payload corruption is lazy: open succeeds, verify catches it
    std::string bad = bytes;
    bad[kOde2HeaderBytes + ode2_block_bytes(16) + 5] ^= 0x10;  // block 1
    const TempFile file(bad);
    const MappedEventStore store(file.path());
    EXPECT_EQ(store.verify_blocks(), 1u);
  }
}

/// Re-seals the footer CRC after a test edits footer fields, so the
/// edit reaches the checks behind the CRC — bytes a foreign writer
/// could produce.
void reseal_footer(std::string& bytes) {
  std::uint64_t footer_offset = 0;
  std::memcpy(&footer_offset, bytes.data() + 32, 8);
  const std::uint32_t crc = net::Crc32::of(
      {reinterpret_cast<const std::uint8_t*>(bytes.data()) + footer_offset,
       bytes.size() - 4 - footer_offset});
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, 4);
}

template <typename T>
void poke(std::string& bytes, std::size_t at, T value) {
  std::memcpy(bytes.data() + at, &value, sizeof(T));
}

TEST(MappedStore, StrictOpenChecksFooterCrcBeforeFooterFields) {
  const std::string bytes = ode2_bytes(sample_dataset(), 16);
  std::uint64_t footer_offset = 0;
  std::memcpy(&footer_offset, bytes.data() + 32, 8);
  const std::size_t first_day_at = static_cast<std::size_t>(footer_offset);
  const std::size_t day_count_at = first_day_at + 16;

  {  // bit 63 of first_day, CRC left stale: rejected at the CRC
    std::string bad = bytes;
    bad[first_day_at + 7] = static_cast<char>(bad[first_day_at + 7] ^ 0x80);
    const TempFile file(bad);
    EXPECT_THROW(MappedEventStore{file.path()}, std::runtime_error);
  }
  {  // the same flip re-sealed: the window check rejects it, no overflow
    std::string bad = bytes;
    bad[first_day_at + 7] = static_cast<char>(bad[first_day_at + 7] ^ 0x80);
    reseal_footer(bad);
    const TempFile file(bad);
    EXPECT_THROW(MappedEventStore{file.path()}, std::runtime_error);
    EXPECT_FALSE(read_events_ode2_salvage(file.path()).footer_intact);
  }
  {  // CRC-valid day_count = 2^61: bounded before any size arithmetic
    std::string bad = bytes;
    poke<std::uint64_t>(bad, day_count_at, std::uint64_t{1} << 61);
    reseal_footer(bad);
    const TempFile file(bad);
    EXPECT_THROW(MappedEventStore{file.path()}, std::runtime_error);
    const Ode2SalvageResult salvage = read_events_ode2_salvage(file.path());
    EXPECT_FALSE(salvage.footer_intact);
    EXPECT_EQ(salvage.recovered_count, 100u);  // structural walk keeps all
  }
}

/// Small ODE2 file for the mutation sweep: 13 events over 13 days in
/// blocks of 4 (4 + 4 + 4 + 1 rows), about 1.3 KB.
EventDataset sweep_dataset() {
  std::vector<DarknetEvent> events;
  const EventDataset full = sample_dataset();
  for (std::size_t i = 0; i < full.event_count(); i += 8) {
    events.push_back(full.events()[i]);
  }
  return EventDataset(std::move(events), 4096);
}

/// One mutated file: the strict open either succeeds — and then every
/// reader surface works — or throws std::runtime_error; salvage returns a
/// block prefix of the original and agrees with the strict open on
/// whether the footer is intact.
void expect_rejected_or_prefix(const std::string& path,
                               const EventDataset& original,
                               std::uint64_t block_events,
                               const std::string& what) {
  bool strict_ok = false;
  bool blocks_clean = false;
  try {
    const MappedEventStore store(path);
    strict_ok = true;
    blocks_clean = store.verify_blocks() == store.block_count();
    (void)store.day_range(store.first_day());
    (void)store.day_range(store.last_day());
    (void)store.to_dataset();
  } catch (const std::runtime_error&) {
  }
  const Ode2SalvageResult salvage = read_events_ode2_salvage(path);
  EXPECT_EQ(salvage.footer_intact, strict_ok) << what;
  EXPECT_EQ(salvage.complete, strict_ok && blocks_clean) << what;
  ASSERT_LE(salvage.recovered_count, original.event_count()) << what;
  if (salvage.recovered_count < original.event_count()) {
    EXPECT_EQ(salvage.recovered_count % block_events, 0u) << what;
  }
  for (std::size_t i = 0; i < salvage.recovered_count; ++i) {
    ASSERT_EQ(salvage.dataset.events()[i], original.events()[i]) << what;
  }
}

TEST(Ode2Mutation, EveryBitFlipAndCutIsRejectedOrSalvagedAsPrefix) {
  const EventDataset original = sweep_dataset();
  constexpr std::uint64_t kBlock = 4;
  const std::string clean = ode2_bytes(original, kBlock);
  std::uint64_t footer_offset = 0;
  std::memcpy(&footer_offset, clean.data() + 32, 8);
  const TempFile file("");
  const auto run = [&](const std::string& bytes, const std::string& what) {
    std::ofstream(file.path(), std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    expect_rejected_or_prefix(file.path(), original, kBlock, what);
  };
  for (std::size_t at = 0; at < clean.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = clean;
      bad[at] = static_cast<char>(bad[at] ^ (1 << bit));
      run(bad, "flip " + std::to_string(at) + "." + std::to_string(bit));
      if (at >= footer_offset && at + 4 < clean.size()) {
        reseal_footer(bad);  // a foreign footer that passes its CRC
        run(bad, "sealed flip " + std::to_string(at) + "." + std::to_string(bit));
      }
    }
  }
  for (std::size_t cut = 0; cut < clean.size(); ++cut) {
    run(clean.substr(0, cut), "cut " + std::to_string(cut));
  }
}

// --------------------------- corrupt-input corpus: truncation + bit flips

TEST(Ode2Salvage, CleanFileIsComplete) {
  const TempFile file(ode2_bytes(sample_dataset(), 16));
  const Ode2SalvageResult result = read_events_ode2_salvage(file.path());
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.footer_intact);
  EXPECT_TRUE(result.error.empty());
  EXPECT_EQ(result.declared_count, 100u);
  EXPECT_EQ(result.recovered_count, 100u);
  expect_identical(sample_dataset(), result.dataset);
}

TEST(Ode2Salvage, RecoversBlockPrefixOfTruncatedFile) {
  const EventDataset original = sample_dataset();
  const std::string bytes = ode2_bytes(original, 16);  // 6x16 + 1x4 rows
  const std::uint64_t block_bytes = ode2_block_bytes(16);
  // Sweep truncation points: block boundary, one byte in, one byte short
  // of the next boundary — salvage must recover exactly the complete
  // blocks preceding the cut, via header geometry (the footer is gone).
  for (const std::uint64_t keep_blocks : {0u, 1u, 3u, 6u}) {
    for (const std::uint64_t extra : {std::uint64_t{0}, std::uint64_t{1},
                                      block_bytes - 1}) {
      const std::uint64_t cut =
          kOde2HeaderBytes + keep_blocks * block_bytes + extra;
      if (cut >= bytes.size()) continue;
      const TempFile file(bytes.substr(0, cut));
      const Ode2SalvageResult result = read_events_ode2_salvage(file.path());
      EXPECT_FALSE(result.complete);
      EXPECT_FALSE(result.footer_intact);
      EXPECT_FALSE(result.error.empty());
      EXPECT_EQ(result.declared_count, 100u);
      EXPECT_EQ(result.recovered_count, keep_blocks * 16) << "cut at " << cut;
      // Recovered prefix is the original's, byte for byte.
      for (std::size_t i = 0; i < result.recovered_count; ++i) {
        EXPECT_EQ(result.dataset.events()[i], original.events()[i]);
      }
      // The strict reader throws the whole archive away on the same input.
      EXPECT_THROW(MappedEventStore{file.path()}, std::runtime_error);
    }
  }
}

TEST(Ode2Salvage, FooterLossAloneStillRecoversEverything) {
  const std::string bytes = ode2_bytes(sample_dataset(), 16);
  const std::uint64_t data_end =
      kOde2HeaderBytes + 6 * ode2_block_bytes(16) + ode2_block_bytes(4);
  const TempFile file(bytes.substr(0, data_end));
  const Ode2SalvageResult result = read_events_ode2_salvage(file.path());
  EXPECT_FALSE(result.complete);
  EXPECT_FALSE(result.footer_intact);
  EXPECT_EQ(result.recovered_count, 100u);  // all blocks, no footer
  expect_identical(sample_dataset(), result.dataset);
}

TEST(Ode2Salvage, FooterCrcCatchesBlockBitFlip) {
  std::string bytes = ode2_bytes(sample_dataset(), 16);
  // Flip one payload byte of block 2: the footer is intact, so the
  // per-block CRCs stop recovery exactly there.
  bytes[kOde2HeaderBytes + 2 * ode2_block_bytes(16) + 11] ^= 0x04;
  const TempFile file(bytes);
  const Ode2SalvageResult result = read_events_ode2_salvage(file.path());
  EXPECT_FALSE(result.complete);
  EXPECT_TRUE(result.footer_intact);
  EXPECT_EQ(result.recovered_count, 32u);
  EXPECT_NE(result.error.find("CRC"), std::string::npos);
}

TEST(Ode2Salvage, StopsAtBitFlippedTrafficTypeWithoutFooter) {
  std::string bytes = ode2_bytes(sample_dataset(), 16);
  // No footer (truncated off) AND a type-column byte of block 1 flipped
  // out of range: geometry-mode salvage keeps block 0 only.
  const std::uint64_t block_bytes = ode2_block_bytes(16);
  const std::uint64_t type_col = kOde2HeaderBytes + block_bytes + 70 * 16;
  bytes[type_col + 3] = static_cast<char>(0x7F);
  const std::uint64_t data_end = kOde2HeaderBytes + 6 * block_bytes +
                                 ode2_block_bytes(4);
  const TempFile file(bytes.substr(0, data_end));
  const Ode2SalvageResult result = read_events_ode2_salvage(file.path());
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.recovered_count, 16u);
  EXPECT_NE(result.error.find("traffic type"), std::string::npos);
}

TEST(Ode2Salvage, BadMagicRecoversNothing) {
  std::string bytes = ode2_bytes(sample_dataset());
  bytes[1] = '!';
  const TempFile file(bytes);
  const Ode2SalvageResult result = read_events_ode2_salvage(file.path());
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.declared_count, 0u);
  EXPECT_EQ(result.recovered_count, 0u);
  EXPECT_NE(result.error.find("magic"), std::string::npos);
}

TEST(Ode2Salvage, TruncatedHeaderRecoversNothing) {
  const std::string bytes = ode2_bytes(sample_dataset());
  for (const std::size_t cut : {0u, 2u, 4u, 17u, 39u}) {
    const TempFile file(bytes.substr(0, cut));
    const Ode2SalvageResult result = read_events_ode2_salvage(file.path());
    EXPECT_FALSE(result.complete);
    EXPECT_EQ(result.recovered_count, 0u) << "cut at " << cut;
  }
}

// ------------------------------------------------ format sniffing / auto

TEST(Ode2Auto, SniffsAndLoadsBothFormats) {
  const EventDataset original = sample_dataset();
  const TempFile f1(ode1_bytes(original), "ode1");
  const TempFile f2(ode2_bytes(original), "ode2");
  const TempFile junk("not an event archive at all", "junk");
  EXPECT_EQ(sniff_event_format(f1.path()), "ODE1");
  EXPECT_EQ(sniff_event_format(f2.path()), "ODE2");
  EXPECT_EQ(sniff_event_format(junk.path()), "?");
  expect_identical(original, load_events_auto(f1.path()));
  expect_identical(original, load_events_auto(f2.path()));
  EXPECT_THROW(load_events_auto(junk.path()), std::runtime_error);
}

// ------------------------------------- analysis equivalence (zero-copy)

EventDataset synthesized_dataset() {
  const scangen::Scenario scenario{scangen::tiny()};
  return EventDataset(
      scangen::synthesize_events(
          scenario.population_2021(),
          {.darknet_size = scenario.darknet().total_addresses(),
           .seed = scenario.config().seed}),
      scenario.darknet().total_addresses());
}

TEST(ZeroCopyAnalysis, DetectionMatchesDatasetPath) {
  const EventDataset dataset = synthesized_dataset();
  const TempFile file(ode2_bytes(dataset));
  const MappedEventStore store(file.path());

  const detect::AggressiveScannerDetector detector(
      {.dispersion_threshold = 0.10,
       .packet_volume_alpha = 0.028,
       .port_count_alpha = 2e-4});
  const detect::DetectionResult a = detector.detect(dataset);
  const detect::DetectionResult b = detector.detect(store);

  EXPECT_EQ(a.first_day, b.first_day);
  EXPECT_EQ(a.last_day, b.last_day);
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.darknet_size, b.darknet_size);
  EXPECT_EQ(a.total_event_packets_per_day, b.total_event_packets_per_day);
  for (const detect::Definition d : detect::kAllDefinitions) {
    const detect::DefinitionResult& ra = a.of(d);
    const detect::DefinitionResult& rb = b.of(d);
    EXPECT_EQ(ra.ips, rb.ips) << to_string(d);
    EXPECT_EQ(ra.threshold, rb.threshold) << to_string(d);
    EXPECT_EQ(ra.qualifying_events, rb.qualifying_events) << to_string(d);
    EXPECT_EQ(ra.daily, rb.daily) << to_string(d);
    EXPECT_EQ(ra.active, rb.active) << to_string(d);
    EXPECT_EQ(ra.daily_ah_packets, rb.daily_ah_packets) << to_string(d);
  }
}

TEST(ZeroCopyAnalysis, DarknetMixesMatchDatasetPath) {
  const EventDataset dataset = synthesized_dataset();
  const TempFile file(ode2_bytes(dataset));
  const MappedEventStore store(file.path());

  detect::IpSet sources;
  for (std::size_t i = 0; i < dataset.event_count(); i += 3) {
    sources.insert(dataset.events()[i].key.src);
  }

  const impact::DailyDarknetMix from_dataset(dataset, sources);
  const impact::DailyDarknetMix from_store(store, sources);
  EXPECT_EQ(from_dataset.first_day(), from_store.first_day());
  EXPECT_EQ(from_dataset.last_day(), from_store.last_day());
  for (std::int64_t day = dataset.first_day() - 1;
       day <= dataset.last_day() + 1; ++day) {
    EXPECT_EQ(from_dataset.protocols(day), from_store.protocols(day))
        << "day " << day;
    EXPECT_EQ(from_dataset.ports(day).counts(), from_store.ports(day).counts())
        << "day " << day;
    // The one-shot per-day queries agree with both.
    EXPECT_EQ(impact::darknet_protocol_mix(dataset, day, sources),
              impact::darknet_protocol_mix(store, day, sources));
    EXPECT_EQ(impact::darknet_port_mix(dataset, day, sources).counts(),
              impact::darknet_port_mix(store, day, sources).counts());
  }
}

}  // namespace
}  // namespace orion::store
