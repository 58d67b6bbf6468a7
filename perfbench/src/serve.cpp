// The serve layer probe, run at the end of every traced study run: an
// in-process serve::Daemon (default config: 2 workers, admission off)
// over a Darknet-2 ODE2 + FDE1 archive, driven by a single-thread
// open-loop OQP1 generator over 4 persistent connections. The mix is
// mostly FlowImpact for one (router, day) cell, with Zipf-skewed cell
// popularity so identical queries sometimes arrive together, against the
// D1, D2, D3 or a 32-source cloud list; a few StoreInfo and Ping requests
// ride along. A doubling ladder of offered rates finds the highest rate
// the daemon keeps up with (see rung_ok); a reference phase at a fixed
// rate gives the query latency an operator sees, and a second thread
// publishes a new generation halfway through it. The gate replays every
// response on the generation it claims with serve::execute_query_bytes
// and compares the bytes.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "orion/flowsim/routing.hpp"
#include "orion/impact/flow_join.hpp"
#include "orion/serve/daemon.hpp"
#include "orion/serve/engine.hpp"
#include "orion/serve/protocol.hpp"
#include "orion/serve/store_cache.hpp"
#include "orion/store/archive.hpp"
#include "setup.hpp"
#include "workloads.hpp"

namespace orionbench {

namespace {

using namespace orion;

constexpr std::size_t kConnections = 4;
constexpr std::size_t kLists = 4;  // D1, D2, D3, cloud
constexpr std::size_t kCloudSources = 32;
/// A ladder rung keeps up while its typical median latency stays under
/// this limit and its backlog under kBacklogS of arrivals.
constexpr double kKneeP50Ms = 1.0;
constexpr double kBacklogS = 0.05;
/// Offered rate (queries/s) of the reference phase. It is fixed so that
/// runs compare with each other, and set well below the capacity knee the
/// ladder finds on a 4-core machine (16-32 thousand/s), so the phase
/// measures latency at moderate load rather than queueing.
constexpr double kReferenceRate = 4000;

struct Inputs {
  std::unique_ptr<scangen::Scenario> scenario;
  std::unique_ptr<telescope::EventDataset> dataset;
  std::unique_ptr<flowsim::FlowDataset> flows;       // generation 1
  std::unique_ptr<flowsim::FlowDataset> next_flows;  // published mid-run
  std::array<std::vector<net::Ipv4Address>, kLists> lists;
  std::string archive_dir;
  std::shared_ptr<const serve::StoreSnapshot> snapshot;  // generation 1
  /// Declared last: stopped before the archive it serves goes away.
  std::unique_ptr<serve::Daemon> daemon;
};

std::vector<net::Ipv4Address> sorted_list(const detect::IpSet& ips) {
  std::vector<net::Ipv4Address> out(ips.begin(), ips.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::unique_ptr<Inputs> make_inputs(const Plan& plan, const std::string& dir,
                                    Tracer& tracer) {
  auto in = std::make_unique<Inputs>();
  const std::uint64_t seed = plan.scenario.seed;
  {
    Span span(tracer, "scangen.scenario");
    in->scenario = std::make_unique<scangen::Scenario>(plan.scenario);
  }
  const scangen::Scenario& scenario = *in->scenario;
  std::vector<telescope::DarknetEvent> events;
  {
    Span span(tracer, "scangen.synth");
    events = synth_events(scenario, seed + 1);
  }
  {
    Span span(tracer, "telescope.dataset_build");
    in->dataset = std::make_unique<telescope::EventDataset>(
        std::move(events), scenario.darknet().total_addresses());
  }
  {
    Span span(tracer, "detect.detect_mem");
    const detect::DetectionResult detection =
        detect::AggressiveScannerDetector(detector_config(scenario)).detect(*in->dataset);
    for (std::size_t d = 0; d < 3; ++d) {
      in->lists[d] = sorted_list(detection.by_definition[d].ips);
    }
  }
  for (const scangen::ScannerProfile& s : scenario.population_2022().scanners) {
    if (s.category != scangen::Category::CloudScanner) continue;
    in->lists[3].push_back(s.source);
    if (in->lists[3].size() == kCloudSources) break;
  }
  {
    Span span(tracer, "flowsim.generate");
    in->flows = std::make_unique<flowsim::FlowDataset>(
        merit_flows(scenario, plan.flows1_start, plan.flows1_end, seed + 2));
    in->next_flows = std::make_unique<flowsim::FlowDataset>(
        merit_flows(scenario, plan.flows1_start, plan.flows1_end, seed + 4));
  }
  in->archive_dir = dir;
  std::filesystem::remove_all(dir);
  {
    Span span(tracer, "store.publish");
    store::ArchiveDir archive(dir);
    archive.publish_many({{"events", store::events_ode2_writer(*in->dataset)},
                          {"flows", store::flows_fde1_writer(*in->flows)}});
    in->snapshot = serve::load_snapshot(archive, "flows", "events");
  }
  Span span(tracer, "serve.start");
  serve::DaemonConfig config;
  config.archive_dir = dir;
  in->daemon = std::make_unique<serve::Daemon>(config);
  in->daemon->start();
  return in;
}

// ---- the request mix -----------------------------------------------------

struct Catalog {
  std::vector<serve::QueryRequest> requests;
  /// Each request framed for the wire (length prefix + payload).
  std::vector<std::vector<std::uint8_t>> frames;
  std::size_t cells = 0;
  std::uint32_t store_info = 0;
  std::uint32_t ping = 0;
};

Catalog make_catalog(const Inputs& in) {
  Catalog c;
  const flowsim::FlowDataset& flows = *in.flows;
  for (std::size_t router = 0; router < flowsim::kRouterCount; ++router) {
    for (std::int64_t day = flows.start_day(); day < flows.end_day(); ++day) {
      ++c.cells;
      for (std::size_t l = 0; l < kLists; ++l) {
        serve::QueryRequest r;
        r.kind = serve::QueryKind::FlowImpact;
        r.tenant = "bench";
        r.router = static_cast<std::uint32_t>(router);
        r.day = day;
        r.sources = in.lists[l];
        c.requests.push_back(std::move(r));
      }
    }
  }
  serve::QueryRequest info;
  info.kind = serve::QueryKind::StoreInfo;
  info.tenant = "bench";
  c.store_info = static_cast<std::uint32_t>(c.requests.size());
  c.requests.push_back(info);
  serve::QueryRequest ping;
  ping.kind = serve::QueryKind::Ping;
  ping.tenant = "bench";
  c.ping = static_cast<std::uint32_t>(c.requests.size());
  c.requests.push_back(ping);
  for (const serve::QueryRequest& r : c.requests) {
    std::vector<std::uint8_t> frame;
    serve::append_frame(frame, serve::encode_request(r));
    c.frames.push_back(std::move(frame));
  }
  return c;
}

/// splitmix64: a portable seeded stream, so schedules do not depend on
/// the standard library's distributions.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

struct Arrival {
  double offset_s = 0;
  std::uint32_t request = 0;
};

/// Poisson arrivals at `rate` for `seconds`. 5% Ping, 5% StoreInfo, the
/// rest FlowImpact on a Zipf(1.1)-popular cell with a uniformly chosen
/// list. Popularity follows cell order (router-major, then day), the same
/// for every seed, so seeds vary arrivals and data but not which cells
/// are hot.
std::vector<Arrival> make_schedule(const Catalog& c, double rate, double seconds,
                                   std::uint64_t seed) {
  Rng rng{seed};
  std::vector<double> cdf;
  double total = 0;
  for (std::size_t rank = 1; rank <= c.cells; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank), 1.1);
    cdf.push_back(total);
  }
  std::vector<Arrival> out;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    const double kind = rng.uniform();
    Arrival a;
    a.offset_s = t;
    if (kind < 0.05) {
      a.request = c.ping;
    } else if (kind < 0.10) {
      a.request = c.store_info;
    } else {
      const double u = rng.uniform() * total;
      const auto rank = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      const std::size_t cell = std::min(rank, c.cells - 1);
      a.request = static_cast<std::uint32_t>(cell * kLists + rng.next() % kLists);
    }
    out.push_back(a);
  }
  return out;
}

// ---- the open-loop generator --------------------------------------------

struct Response {
  std::uint32_t request = 0;
  std::vector<std::uint8_t> raw;
};

struct PhaseResult {
  std::vector<double> latency_ms;  // from each request's due time
  std::vector<double> due_s;       // each answered request's due offset
  std::vector<double> late_ms;     // how late each request was sent
  std::vector<Response> responses;
  std::uint64_t sent = 0;
  std::uint64_t missing = 0;
  /// Sending stopped because the backlog passed the phase's limit.
  bool overloaded = false;
  /// From the first send until the last answer (or giving up).
  double seconds = 0;
};

class LoadGenerator {
 public:
  explicit LoadGenerator(std::uint16_t port) {
    for (std::size_t i = 0; i < kConnections; ++i) {
      Conn c;
      c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (c.fd < 0) throw std::runtime_error("loadgen: socket failed");
      const int one = 1;
      ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(c.fd);
        throw std::runtime_error("loadgen: connection refused");
      }
      ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
      conns_.push_back(std::move(c));
    }
  }
  ~LoadGenerator() {
    for (const Conn& c : conns_) ::close(c.fd);
  }
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Sends `schedule` from this thread, each request at its due time,
  /// and collects every response. When more than `max_outstanding` (0: no
  /// limit) await an answer the backlog is growing, so sending stops and
  /// the phase only drains. Requests still unanswered 10 s after sending
  /// stopped count as missing.
  PhaseResult run(const Catalog& catalog, const std::vector<Arrival>& schedule,
                  Tracer& tracer, std::size_t max_outstanding = 0) {
    constexpr double drain_s = 10.0;
    PhaseResult out;
    if (schedule.empty()) return out;
    out.latency_ms.reserve(schedule.size());
    out.due_s.reserve(schedule.size());
    out.late_ms.reserve(schedule.size());
    out.responses.reserve(schedule.size());
    const auto t0 = Clock::now() + std::chrono::milliseconds(1);
    const auto at = [&](double offset_s) {
      return t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(offset_s));
    };
    const auto drain = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(drain_s));
    auto give_up = at(schedule.back().offset_s) + drain;
    std::size_t end = schedule.size();
    const int phase = Tracer::current();
    std::size_t next = 0;
    std::size_t outstanding = 0;
    pollfd fds[kConnections];
    for (;;) {
      const auto now = Clock::now();
      while (next < end && at(schedule[next].offset_s) <= now) {
        if (max_outstanding > 0 && outstanding > max_outstanding) {
          out.overloaded = true;
          end = next;
          give_up = now + drain;
          break;
        }
        const Arrival& a = schedule[next];
        const auto due = at(a.offset_s);
        Conn& c = conns_[next % kConnections];
        const auto& frame = catalog.frames[a.request];
        c.out.insert(c.out.end(), frame.begin(), frame.end());
        c.pending.push_back({a.request, due, seconds_between(t0, due)});
        out.late_ms.push_back(1000.0 * seconds_between(due, now));
        ++outstanding;
        ++next;
        flush(c);
      }
      if (next == end && outstanding == 0) break;
      if (now > give_up) break;
      for (std::size_t i = 0; i < kConnections; ++i) {
        fds[i].fd = conns_[i].fd;
        fds[i].events = static_cast<short>(
            POLLIN | (conns_[i].out.size() > conns_[i].out_off ? POLLOUT : 0));
        fds[i].revents = 0;
      }
      // The generator polls without sleeping: waking a sleeping thread on a
      // shared virtual machine costs up to milliseconds, which would be
      // charged to the daemon as latency.
      if (::poll(fds, kConnections, 0) < 0 && errno != EINTR) {
        throw std::runtime_error("loadgen: poll failed");
      }
      for (std::size_t i = 0; i < kConnections; ++i) {
        Conn& c = conns_[i];
        if (fds[i].revents & POLLOUT) flush(c);
        if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
          outstanding -= receive(c, out, tracer, phase);
        }
      }
    }
    out.sent = next;
    out.missing = outstanding;
    out.seconds = seconds_between(t0, Clock::now());
    // Unanswered requests would pair with the next phase's responses:
    // a missing response ends the generator's usefulness.
    if (outstanding > 0) broken_ = true;
    return out;
  }

  bool broken() const { return broken_; }

 private:
  struct Pending {
    std::uint32_t request = 0;
    Clock::time_point due;
    double due_s = 0;
  };
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
    std::vector<std::uint8_t> in;
    std::deque<Pending> pending;
  };

  void flush(Conn& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      throw std::runtime_error("loadgen: send failed");
    }
    c.out.clear();
    c.out_off = 0;
  }

  /// Reads what is available; returns the number of responses completed.
  std::size_t receive(Conn& c, PhaseResult& out, Tracer& tracer, int phase) {
    std::size_t done = 0;
    std::uint8_t buf[65536];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      if (n == 0) throw std::runtime_error("loadgen: daemon closed a connection");
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        throw std::runtime_error("loadgen: recv failed");
      }
      const auto now = Clock::now();
      c.in.insert(c.in.end(), buf, buf + n);
      for (;;) {
        std::size_t begin = 0, end = 0;
        const int got = serve::try_extract_frame(c.in, &begin, &end);
        if (got < 0) throw std::runtime_error("loadgen: bad frame from daemon");
        if (got == 0) break;
        if (c.pending.empty()) throw std::runtime_error("loadgen: unsolicited response");
        const Pending p = c.pending.front();
        c.pending.pop_front();
        out.latency_ms.push_back(1000.0 * seconds_between(p.due, now));
        out.due_s.push_back(p.due_s);
        const auto first = c.in.begin();
        out.responses.push_back(
            {p.request, std::vector<std::uint8_t>(first + static_cast<std::ptrdiff_t>(begin),
                                                  first + static_cast<std::ptrdiff_t>(end))});
        c.in.erase(first, first + static_cast<std::ptrdiff_t>(end));
        tracer.record("serve.request", p.due, now, phase);
        ++done;
      }
    }
    return done;
  }

  std::vector<Conn> conns_;
  bool broken_ = false;
};

// ---- phases ----------------------------------------------------------------

/// A ladder rung passes when every request is answered, the backlog
/// never passed kBacklogS of arrivals, and the median latency of the
/// median 100 ms window stays under kKneeP50Ms. Past capacity the queue
/// grows and every window's median climbs; a stall of the shared machine
/// (7-20 ms, several per 10 s) moves tail percentiles and single windows
/// but neither the median window nor a 50 ms backlog limit.
bool rung_ok(const PhaseResult& r) {
  if (r.missing > 0 || r.overloaded || r.latency_ms.empty()) return false;
  std::map<long, std::vector<double>> windows;
  for (std::size_t i = 0; i < r.latency_ms.size(); ++i) {
    windows[static_cast<long>(r.due_s[i] / 0.1)].push_back(r.latency_ms[i]);
  }
  std::vector<double> p50s;
  for (const auto& [w, latency] : windows) p50s.push_back(percentile(latency, 0.50));
  return median(p50s) <= kKneeP50Ms;
}

/// The second thread of the reference phase: publishes the next
/// generation at `at`, then waits for the daemon to serve it.
struct Swap {
  double publish_s = 0;
  double visible_ms = 0;
  std::uint64_t generation = 0;
  std::string error;
};

void publish_swap(const Inputs& in, Clock::time_point at, Tracer& tracer, Swap& out) {
  try {
    std::this_thread::sleep_until(at);
    const auto t0 = Clock::now();
    {
      Span span(tracer, "store.swap_publish");
      store::ArchiveDir archive(in.archive_dir);
      archive.publish_many({{"events", store::events_ode2_writer(*in.dataset)},
                            {"flows", store::flows_fde1_writer(*in.next_flows)}});
      out.generation = archive.generation();
    }
    const auto published = Clock::now();
    out.publish_s = seconds_between(t0, published);
    Span span(tracer, "serve.swap_visible");
    while (in.daemon->generation() < out.generation) {
      if (seconds_between(published, Clock::now()) > 10) {
        out.error = "the daemon did not adopt the new generation within 10 s";
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    out.visible_ms = 1000.0 * seconds_between(published, Clock::now());
  } catch (const std::exception& err) {
    out.error = err.what();
  }
}

/// Byte-identity gate: every response equals execute_query_bytes on the
/// generation it claims; non-Ok answers fail too. Returns the number of
/// responses per generation.
std::map<std::uint64_t, std::size_t> check_responses(
    const std::vector<Response>& responses, const Catalog& catalog,
    const std::map<std::uint64_t, std::shared_ptr<const serve::StoreSnapshot>>& snapshots,
    Result& result) {
  std::map<std::pair<std::uint64_t, std::uint32_t>, std::vector<std::uint8_t>> expected;
  std::map<std::uint64_t, std::size_t> per_generation;
  for (const Response& r : responses) {
    ++result.attempted;
    serve::QueryResponse decoded;
    std::string error;
    if (!serve::decode_response(r.raw, decoded, error)) {
      result.fail("serve: undecodable response: " + error);
      continue;
    }
    if (decoded.status != serve::Status::Ok) {
      result.fail(std::string("serve: non-Ok response: ") + serve::to_string(decoded.status) +
                  " " + decoded.error);
      continue;
    }
    const auto snap = snapshots.find(decoded.generation);
    if (snap == snapshots.end()) {
      result.fail("serve: response claims unknown generation " +
                  std::to_string(decoded.generation));
      continue;
    }
    ++per_generation[decoded.generation];
    auto [it, fresh] = expected.try_emplace({decoded.generation, r.request});
    if (fresh) {
      it->second =
          serve::execute_query_bytes(catalog.requests[r.request], snap->second->backend());
    }
    if (it->second != r.raw) {
      result.fail("serve: response bytes differ from execute_query_bytes on generation " +
                  std::to_string(decoded.generation));
    }
  }
  return per_generation;
}

/// Per-request p50/p99 (µs) of a direct call over the schedule's requests.
template <typename Call>
std::pair<double, double> call_us(const std::vector<Arrival>& schedule, std::size_t n,
                                  Tracer& tracer, const char* name, Call call) {
  std::vector<double> us;
  for (std::size_t i = 0; i < std::min(n, schedule.size()); ++i) {
    const auto t0 = Clock::now();
    {
      Span span(tracer, name);
      call(schedule[i].request);
    }
    us.push_back(1e6 * seconds_between(t0, Clock::now()));
  }
  return {percentile(us, 0.50), percentile(us, 0.99)};
}

}  // namespace

void probe_serve(const Options& options, Result& result) {
  const Plan plan = plan_for(options.size, options.seed);
  Tracer tracer(true);
  const std::unique_ptr<Inputs> in = make_inputs(plan, options.work_dir + "/serve", tracer);
  const Catalog catalog = make_catalog(*in);
  std::map<std::uint64_t, std::shared_ptr<const serve::StoreSnapshot>> snapshots;
  snapshots[in->snapshot->generation] = in->snapshot;
  result.record["serve.events"] = static_cast<double>(in->dataset->event_count());
  result.record["serve.cells"] = static_cast<double>(catalog.cells);
  result.record["serve.d1_sources"] = static_cast<double>(in->lists[0].size());
  result.record["serve.d2_sources"] = static_cast<double>(in->lists[1].size());
  result.record["serve.d3_sources"] = static_cast<double>(in->lists[2].size());

  LoadGenerator loadgen(in->daemon->port());
  // Each phase's responses are checked as soon as it ends, outside the
  // timed phases, so memory does not grow with the number of requests.
  std::uint64_t sent = 0, missing = 0, answered = 0, response_bytes = 0;
  std::map<std::uint64_t, std::size_t> per_generation;
  std::uint64_t phase_seed = options.seed * 1000003ull;
  const auto keep = [&](const PhaseResult& r) {
    sent += r.sent;
    missing += r.missing;
    answered += r.responses.size();
    for (const Response& resp : r.responses) response_bytes += resp.raw.size();
    for (const auto& [generation, n] : check_responses(r.responses, catalog, snapshots, result)) {
      per_generation[generation] += n;
    }
  };

  // Warm-up: the first queries fault in the mapped stores and index
  // caches; their responses are checked but not timed.
  keep(loadgen.run(catalog,
                   make_schedule(catalog, kReferenceRate, 0.05 * options.seconds, ++phase_seed),
                   tracer));

  // Ladder: double the offered rate until a rung fails, then bisect
  // geometrically between the last pass and the fail.
  std::size_t rungs = 0;
  const double min_s = 0.04 * options.seconds, max_s = 0.08 * options.seconds;
  // A rung that fails is tried once more, so one transient stall of the
  // shared machine does not end the ladder.
  const auto attempt = [&](double rate) {
    const double seconds = std::clamp(1200.0 / rate, min_s, max_s);
    const auto backlog = static_cast<std::size_t>(std::max(200.0, rate * kBacklogS));
    PhaseResult r = loadgen.run(catalog, make_schedule(catalog, rate, seconds, ++phase_seed),
                                tracer, backlog);
    const bool ok = rung_ok(r);
    std::fprintf(stderr, "serve ladder: %.0f/s for %.2f s: p50 %.3f ms, p99 %.3f ms, "
                 "late p99 %.3f ms, missing %llu%s -> %s\n",
                 rate, seconds, percentile(r.latency_ms, 0.5), percentile(r.latency_ms, 0.99),
                 percentile(r.late_ms, 0.99), static_cast<unsigned long long>(r.missing),
                 r.overloaded ? ", backlog limit hit" : "", ok ? "pass" : "fail");
    keep(r);
    ++rungs;
    return ok;
  };
  const auto rung = [&](double rate) {
    return attempt(rate) || (!loadgen.broken() && attempt(rate));
  };
  double pass = 0, fail = 0;
  for (double rate = 2000; rate <= 256000 && !loadgen.broken(); rate *= 2) {
    if (!rung(rate)) {
      fail = rate;
      break;
    }
    pass = rate;
  }
  // Below the first rung: halve until a rate keeps up.
  for (double rate = fail / 2; pass == 0 && rate >= 125 && !loadgen.broken(); rate /= 2) {
    (rung(rate) ? pass : fail) = rate;
  }
  for (int step = 0; step < 4 && pass > 0 && fail > 0 && !loadgen.broken(); ++step) {
    const double mid = std::sqrt(pass * fail);
    (rung(mid) ? pass : fail) = mid;
  }
  if (pass == 0) result.fail("serve: the daemon kept up with no ladder rate");

  // Reference phase at the fixed rate, with a generation swap halfway.
  const double ref_s = 0.4 * options.seconds;
  const serve::ServeStats before = in->daemon->stats();
  Swap swap;
  PhaseResult ref;
  if (!loadgen.broken()) {
    tracer.set_run(1);
    Span phase(tracer, "serve.reference_phase");
    const std::vector<Arrival> schedule =
        make_schedule(catalog, kReferenceRate, ref_s, ++phase_seed);
    const auto swap_at = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                            std::chrono::duration<double>(ref_s / 2));
    std::thread publisher(publish_swap, std::cref(*in), swap_at, std::ref(tracer),
                          std::ref(swap));
    try {
      ref = loadgen.run(catalog, schedule, tracer);
    } catch (...) {
      publisher.join();
      throw;
    }
    publisher.join();
  }
  const serve::ServeStats after = in->daemon->stats();
  if (!swap.error.empty()) result.fail("serve: swap: " + swap.error);
  if (swap.generation > 0) {
    snapshots[swap.generation] =
        serve::load_snapshot(store::ArchiveDir(in->archive_dir), "flows", "events");
  }
  keep(ref);
  result.record["serve.requests"] = static_cast<double>(sent);
  result.record["serve.mean_response_bytes"] =
      static_cast<double>(response_bytes) / std::max<double>(1, static_cast<double>(answered));
  result.record["serve.reference_requests"] = static_cast<double>(ref.latency_ms.size());
  result.record["serve.ladder_rungs"] = static_cast<double>(rungs);
  result.record["serve.reference_rate"] = kReferenceRate;

  in->daemon->stop();
  result.attempted += missing;
  if (missing > 0) {
    result.failed += missing;
    result.failures.push_back(std::to_string(missing) + " serve requests never answered");
  }
  result.check(swap.generation > 0 && per_generation.count(swap.generation) > 0,
               "serve: no response came from the swapped-in generation");

  // Direct calls into the layers under the daemon, on the same mix.
  const serve::EngineBackend backend = in->snapshot->backend();
  const std::vector<Arrival> sample =
      make_schedule(catalog, kReferenceRate, 0.3 * options.seconds, ++phase_seed);
  std::vector<std::vector<std::uint8_t>> answers;
  for (const serve::QueryRequest& r : catalog.requests) {
    answers.push_back(serve::execute_query_bytes(r, backend));
  }
  const auto [engine_p50, engine_p99] =
      call_us(sample, 4000, tracer, "serve.engine", [&](std::uint32_t id) {
        serve::execute_query_bytes(catalog.requests[id], backend);
      });
  const auto codec = call_us(sample, 4000, tracer, "serve.codec", [&](std::uint32_t id) {
    serve::QueryResponse decoded;
    std::string error;
    serve::encode_request(catalog.requests[id]);
    serve::decode_response(answers[id], decoded, error);
  });
  std::array<impact::SourceSet, kLists> sets;
  for (std::size_t l = 0; l < kLists; ++l) sets[l] = impact::SourceSet(in->lists[l]);
  const auto query = call_us(sample, 4000, tracer, "impact.query", [&](std::uint32_t id) {
    if (id >= catalog.store_info) return;
    const serve::QueryRequest& r = catalog.requests[id];
    in->snapshot->analyzer->query(r.router, r.day, sets[id % kLists]);
  });

  const double query_p50_ms = percentile(ref.latency_ms, 0.50);
  result.metrics["serve.engine_us_p50"] = engine_p50;
  result.metrics["serve.engine_us_p99"] = engine_p99;
  result.metrics["serve.codec_us"] = codec.first;
  result.metrics["impact.query_us"] = query.first;
  result.metrics["serve.wait_us"] = 1000.0 * query_p50_ms - engine_p50 - codec.first;
  const double requests = static_cast<double>(after.requests - before.requests);
  result.metrics["serve.shared_share"] =
      static_cast<double>(after.shared_computations - before.shared_computations) /
      std::max(requests, 1.0);
  result.metrics["serve.swap_visible_ms"] = swap.visible_ms;
  result.metrics["store.swap_publish_s"] = swap.publish_s;
  result.metrics["loadgen.late_p99_ms"] = percentile(ref.late_ms, 0.99);
  result.metrics["serve.max_qps"] = pass;
  result.metrics["serve.query_p50_ms"] = query_p50_ms;
  result.metrics["serve.query_p99_ms"] = percentile(ref.latency_ms, 0.99);
  result.metrics["serve.start_s"] = tracer.median_self_seconds("serve.start");
  if (!options.trace_out.empty()) tracer.write_json(options.trace_out + ".serve.json");
}

}  // namespace orionbench
