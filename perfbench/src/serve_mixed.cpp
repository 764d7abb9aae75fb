// serve_mixed: serve::FleetServer on a 2 000-server scaled fleet, driven by
// one generator thread over 3 query connections plus 1 admin connection,
// multiplexed with ppoll.
//
// The mix is place 60 %, guide 10 %, powercap 10 %, stats 20 %, with policy,
// demand and cap drawn from the seed; caps lie between the fleet's idle and
// peak watts, so every powercap is satisfiable and failed_precondition is a
// defect. Admin add/retire requests alternate at 10 swaps/s through every
// phase; the added records are the same population beyond index 2 000.
//
// run_s is the time to answer one fixed closed burst of 1 000 requests over
// the 3 query connections, 8 outstanding on each, while swaps run beside
// it: the daemon's capacity. Slices of bursts alternate with the open-loop
// phases: Poisson arrivals at the fixed light and heavy rates, then a ladder
// from the light rate up to 4x the heavy rate, bisected for max_rps.
// Open-loop latency is timed from when a request was due, so a stall also
// charges the requests queued behind it; a failed or unanswered request
// counts as missing every limit.
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <utility>

#include "cluster/fleet.h"
#include "dataset/generator.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "stats.h"
#include "util/socket.h"
#include "util/telemetry.h"
#include "workload.h"

namespace perfbench {

namespace {

namespace net = epserve::net;
namespace serve = epserve::serve;

constexpr std::size_t kFleetServers = 2000;
constexpr std::size_t kSpareServers = 512;
constexpr std::size_t kQueryConnections = 3;
constexpr std::size_t kServerThreads = 4;  // one per client connection
constexpr std::uint64_t kSwapPeriodNs = 100'000'000;  // 10 swaps/s
// Fixed open-loop rates, set once to about 1/4 and 3/4 of max_rps measured
// on the commit that introduced this benchmark. Like SPECpower's target
// loads they stay put when the server gets faster.
constexpr double kLightRps = 650.0;
constexpr double kHeavyRps = 1950.0;
constexpr double kLadderTop = 4.0;      // ladder spans light .. 4 x heavy
constexpr double kLadderRatio = 1.05;   // steps at most 5 % apart
constexpr LadderLimits kLimits{};
constexpr int kSetupsAtStart = 5;
constexpr int kSetupsPerSlice = 3;  // extra daemons started and stopped
constexpr std::size_t kBurstRequests = 1000;
constexpr double kBurstSlice = 0.06;  // of --seconds, before each open loop
constexpr double kBurstTotal = 0.5;   // of --seconds, at least, over the run
constexpr std::size_t kBurstWindow = 8;  // outstanding per connection
constexpr double kTailSamples = 1100.0;  // enough for a p99 by the rule
constexpr std::uint64_t kSampleNs = 10'000'000;  // backlog sampling period
constexpr std::uint64_t kDrainNs = 5'000'000'000;
constexpr std::size_t kReplayPerKind = 1000;
constexpr double kInf = std::numeric_limits<double>::infinity();

enum Kind : std::size_t { kPlace, kGuide, kPowercap, kStats, kAdmin, kKinds };
constexpr const char* kKindNames[kKinds] = {"place", "guide", "powercap",
                                            "stats", "admin"};
constexpr const char* kPolicies[] = {"pack-to-full", "balanced",
                                     "optimal-region"};

// Everything measured over one phase (a burst or an open-loop rate step).
struct Step {
  double rate = 0.0;
  std::vector<double> latency_ms;  // per query request; kInf when failed
  std::vector<double> lag_ms;      // generator lateness per query request
  std::vector<double> backlog;     // sampled outstanding query requests
  std::size_t failed = 0;
};

struct Pending {
  std::uint64_t id = 0;
  Kind kind = kStats;
  std::uint64_t due_ns = 0;
  std::uint64_t sent_ns = 0;
  Step* step = nullptr;  // nullptr for admin requests
  bool abandoned = false;
};

struct Connection {
  net::Socket socket;
  std::string out;  // framed bytes not yet written
  std::string in;   // received bytes not yet parsed into frames
  std::deque<Pending> pending;
  std::uint64_t last_epoch = 0;
  bool closed = false;  // the server closed it; no longer polled
};

struct Request {
  Kind kind = kStats;
  std::string payload;
};

double unit(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

// The seeded request stream. Keeps the first kReplayPerKind payloads of each
// kind for the handle_payload replay of the traced run, which cycles through
// them when a short run generated fewer.
class RequestMix {
 public:
  RequestMix(std::uint64_t seed, double idle_watts, double peak_watts)
      : rng_(seed), idle_watts_(idle_watts), peak_watts_(peak_watts) {}

  /// The next open-loop request, its kind drawn by the mix's shares.
  Request next() {
    const double u = unit(rng_);
    const Kind kind = u < 0.6   ? kPlace
                      : u < 0.7 ? kGuide
                      : u < 0.8 ? kPowercap
                                : kStats;
    return {kind, payload(kind, unit(rng_), rng_() % 3)};
  }

  /// A burst of `count` requests holding the mix's shares exactly, in a
  /// seeded order, so every burst of a run does the same work. Each kind's
  /// parameter (demand, threshold, cap) is stratified over its range and
  /// the policies take turns, so the burst's cost depends little on the
  /// seed even though powercap's cost depends strongly on the cap.
  std::vector<Request> fixed_burst(std::size_t count) {
    std::vector<Request> requests;
    const std::pair<Kind, std::size_t> shares[] = {
        {kPlace, 6}, {kGuide, 1}, {kPowercap, 1}, {kStats, 2}};
    for (const auto& [kind, share] : shares) {
      const std::size_t n = count * share / 10;
      for (std::size_t i = 0; i < n; ++i) {
        const double u = (static_cast<double>(i) + unit(rng_)) /
                         static_cast<double>(n);
        requests.push_back({kind, payload(kind, u, i % 3)});
      }
    }
    for (std::size_t i = requests.size(); i > 1; --i) {
      std::swap(requests[i - 1], requests[rng_() % i]);
    }
    return requests;
  }

  /// Exponential inter-arrival gap for a Poisson stream at `rate` per second.
  std::uint64_t gap_ns(double rate) {
    return static_cast<std::uint64_t>(-std::log1p(-unit(rng_)) / rate * 1e9);
  }

  [[nodiscard]] const std::vector<std::string>& kept(Kind kind) const {
    return kept_[kind];
  }

 private:
  // The payload of one request; `u` in [0, 1) places its parameter within
  // the parameter's range.
  std::string payload(Kind kind, double u, std::size_t policy_index) {
    const char* policy = kPolicies[policy_index];
    std::string text = "{\"type\":\"stats\"}";
    if (kind == kPlace) {
      text = format("{\"type\":\"place\",\"demand\":%.6f,\"policy\":\"%s\"}",
                    0.05 + 0.9 * u, policy);
    } else if (kind == kGuide) {
      text = format(
          "{\"type\":\"guide\",\"ee_threshold\":%.4f,\"ep_bucket_width\":0.1}",
          0.85 + 0.1 * u);
    } else if (kind == kPowercap) {
      // At least 10 % of the idle-to-peak range above idle: an added
      // server cannot push the fleet's idle draw past the cap.
      const double cap =
          idle_watts_ + (0.1 + 0.9 * u) * (peak_watts_ - idle_watts_);
      text = format(
          "{\"type\":\"powercap\",\"cap_watts\":%.3f,\"policy\":\"%s\"}", cap,
          policy);
    }
    if (kept_[kind].size() < kReplayPerKind) kept_[kind].push_back(text);
    return text;
  }

  std::mt19937_64 rng_;
  double idle_watts_;
  double peak_watts_;
  std::vector<std::string> kept_[kKinds];
};

std::string frame(std::string_view payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  std::string out;
  out.reserve(payload.size() + 4);
  out += static_cast<char>((len >> 24) & 0xff);
  out += static_cast<char>((len >> 16) & 0xff);
  out += static_cast<char>((len >> 8) & 0xff);
  out += static_cast<char>(len & 0xff);
  out += payload;
  return out;
}

// The "epoch" member of a success response; responses begin
// {"ok":true,"type":...,"epoch":N, so the scan stays in the first bytes.
std::optional<std::uint64_t> response_epoch(std::string_view payload) {
  const auto at = payload.substr(0, 96).find("\"epoch\":");
  if (at == std::string_view::npos) return std::nullopt;
  std::uint64_t epoch = 0;
  std::size_t i = at + 8;
  if (i >= payload.size()) return std::nullopt;
  for (; i < payload.size() && payload[i] >= '0' && payload[i] <= '9'; ++i) {
    epoch = epoch * 10 + static_cast<std::uint64_t>(payload[i] - '0');
  }
  return epoch;
}

bool response_ok(std::string_view payload) {
  return payload.starts_with("{\"ok\":true");
}

// One generator thread driving every connection. Query connections
// 0..kQueryConnections-1 carry the mix; the last connection carries admin
// swaps, one outstanding at a time.
class Generator {
 public:
  Generator(std::vector<Connection> connections, RequestMix& mix,
            std::vector<epserve::dataset::ServerRecord> spares, Tracer& tracer,
            Outcome& out)
      : connections_(std::move(connections)),
        mix_(mix),
        spares_(std::move(spares)),
        tracer_(tracer),
        out_(out) {
    for (auto& connection : connections_) {
      const int fd = connection.socket.fd();
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    }
  }

  [[nodiscard]] std::uint64_t now() const { return tracer_.now_ns(); }

  /// Closed burst: `requests` in order over the query connections, at most
  /// kBurstWindow outstanding on each. Returns the wall time in seconds.
  double burst(const std::vector<Request>& requests) {
    const std::size_t count = requests.size();
    Step step;
    const std::uint64_t start = now();
    std::size_t sent = 0;
    while (step.latency_ms.size() < count) {
      const std::uint64_t t = now();
      for (std::size_t c = 0; c < kQueryConnections; ++c) {
        while (connections_[c].pending.size() < kBurstWindow && sent < count) {
          send_payload(c, requests[sent].kind, requests[sent].payload, t, t,
                       &step);
          ++sent;
        }
      }
      tick_admin(t);
      if (t - start > kDrainNs) {
        abandon(step);
        break;
      }
      pump(std::min(admin_due(), t + kSampleNs));
    }
    finish_step(step);
    return static_cast<double>(now() - start) / 1e9;
  }

  /// Open loop: Poisson arrivals at `rate` for `seconds`, then a drain.
  Step open_loop(double rate, double seconds) {
    Step step;
    step.rate = rate;
    const std::uint64_t start = now() + 1'000'000;
    const std::uint64_t end =
        start + static_cast<std::uint64_t>(seconds * 1e9);
    std::uint64_t due = start;
    std::uint64_t next_sample = start;
    std::size_t sequence = 0;
    while (true) {
      const std::uint64_t t = now();
      while (due <= t && due < end) {
        step.lag_ms.push_back(static_cast<double>(t - due) / 1e6);
        send_query(sequence++ % kQueryConnections, due, t, step);
        due += mix_.gap_ns(rate);
      }
      if (t >= next_sample && t < end) {
        step.backlog.push_back(static_cast<double>(backlog()));
        next_sample += kSampleNs;
      }
      tick_admin(t);
      if (t >= end && due >= end) break;
      pump(std::min({due, next_sample, admin_due(), end}));
    }
    const std::uint64_t drain_end = now() + kDrainNs;
    while (backlog() > 0 && now() < drain_end) {
      tick_admin(now());
      pump(std::min(admin_due(), now() + kSampleNs));
    }
    abandon(step);
    finish_step(step);
    return step;
  }

  /// Stops scheduling swaps and waits for the one in flight.
  void stop_admin() {
    admin_enabled_ = false;
    const std::uint64_t end = now() + kDrainNs;
    while (!connections_.back().pending.empty() && now() < end) {
      pump(now() + kSampleNs);
    }
  }

  /// Sends one stats request on query connection 0 and returns its epoch.
  std::optional<std::uint64_t> final_epoch() {
    Step step;
    send_payload(0, kStats, "{\"type\":\"stats\"}", now(), now(), &step);
    const std::uint64_t end = now() + kDrainNs;
    while (!connections_[0].pending.empty() && now() < end) {
      pump(now() + kSampleNs);
    }
    abandon(step);
    finish_step(step);
    return last_stats_epoch_;
  }

  [[nodiscard]] std::uint64_t swaps() const { return swaps_; }
  [[nodiscard]] const std::vector<double>& swap_ms() const { return swap_ms_; }
  /// Admin payloads for the replay: add/retire pairs of fresh spare records.
  std::string next_admin_payload() {
    const auto& record = spares_[admin_sequence_ / 2 % spares_.size()];
    const bool add = admin_sequence_++ % 2 == 0;
    return add ? "{\"type\":\"admin\",\"action\":\"add\",\"servers\":[" +
                     serve::render_server_record(record) + "]}"
               : "{\"type\":\"admin\",\"action\":\"retire\",\"ids\":[" +
                     std::to_string(record.id) + "]}";
  }

 private:
  void send_query(std::size_t c, std::uint64_t due, std::uint64_t t,
                  Step& step) {
    const Request request = mix_.next();
    send_payload(c, request.kind, request.payload, due, t, &step);
  }

  void send_payload(std::size_t c, Kind kind, std::string_view payload,
                    std::uint64_t due, std::uint64_t t, Step* step) {
    auto& connection = connections_[c];
    connection.out += frame(payload);
    connection.pending.push_back({++next_id_, kind, due, t, step, false});
    flush(connection);
  }

  // When the next swap is due; never while one is in flight.
  [[nodiscard]] std::uint64_t admin_due() const {
    return admin_enabled_ && connections_.back().pending.empty()
               ? next_admin_ns_
               : std::numeric_limits<std::uint64_t>::max();
  }

  void tick_admin(std::uint64_t t) {
    auto& admin = connections_.back();
    if (!admin_enabled_ || !admin.pending.empty() || t < next_admin_ns_) {
      return;
    }
    send_payload(connections_.size() - 1, kAdmin, next_admin_payload(), t, t,
                 nullptr);
    next_admin_ns_ = std::max(next_admin_ns_ + kSwapPeriodNs, t);
  }

  [[nodiscard]] std::size_t backlog() const {
    std::size_t total = 0;
    for (std::size_t c = 0; c < kQueryConnections; ++c) {
      for (const auto& pending : connections_[c].pending) {
        total += pending.abandoned ? 0 : 1;
      }
    }
    return total;
  }

  // Requests still unanswered when a phase gives up count as failed; their
  // answers, if they ever come, are matched and dropped.
  void abandon(Step& step) {
    for (std::size_t c = 0; c < kQueryConnections; ++c) {
      for (auto& pending : connections_[c].pending) {
        if (pending.abandoned || pending.step != &step) continue;
        pending.abandoned = true;
        step.latency_ms.push_back(kInf);
        step.failed += 1;
      }
    }
  }

  void finish_step(const Step& step) {
    out_.attempted += step.latency_ms.size();
    out_.failed += step.failed;
    out_.check(step.failed == 0,
               format("serve_mixed.requests: %zu of %zu requests failed or "
                      "timed out at %.0f req/s",
                      step.failed, step.latency_ms.size(), step.rate));
  }

  void flush(Connection& connection) {
    while (!connection.out.empty()) {
      const ssize_t n = ::send(connection.socket.fd(), connection.out.data(),
                               connection.out.size(), MSG_NOSIGNAL);
      if (n > 0) {
        connection.out.erase(0, static_cast<std::size_t>(n));
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
          out_.check(false, "serve_mixed.transport: send failed");
          connection.out.clear();
        }
        return;
      }
    }
  }

  // Waits for socket readiness until `deadline` (tracer clock), then does
  // all the reading and writing that is possible without blocking.
  void pump(std::uint64_t deadline) {
    std::vector<pollfd> fds(connections_.size());
    for (std::size_t c = 0; c < connections_.size(); ++c) {
      fds[c].fd = connections_[c].closed ? -1 : connections_[c].socket.fd();
      fds[c].events = static_cast<short>(
          POLLIN | (connections_[c].out.empty() ? 0 : POLLOUT));
    }
    const std::uint64_t t = now();
    const std::uint64_t wait = deadline > t ? deadline - t : 0;
    const timespec timeout{static_cast<time_t>(wait / 1'000'000'000),
                           static_cast<long>(wait % 1'000'000'000)};
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) return;
    for (std::size_t c = 0; c < connections_.size(); ++c) {
      if ((fds[c].revents & POLLOUT) != 0) flush(connections_[c]);
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) != 0) read(c);
    }
  }

  void read(std::size_t c) {
    auto& connection = connections_[c];
    char buffer[65536];
    while (true) {
      const ssize_t n =
          ::recv(connection.socket.fd(), buffer, sizeof buffer, 0);
      if (n > 0) {
        connection.in.append(buffer, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n == 0) {
        connection.closed = true;
        out_.check(false, "serve_mixed.transport: server closed a connection");
      }
      break;
    }
    const std::uint64_t t = now();
    std::size_t offset = 0;
    while (connection.in.size() - offset >= 4) {
      const auto* p =
          reinterpret_cast<const unsigned char*>(connection.in.data() + offset);
      const std::size_t len = (std::size_t{p[0]} << 24) |
                              (std::size_t{p[1]} << 16) |
                              (std::size_t{p[2]} << 8) | std::size_t{p[3]};
      if (connection.in.size() - offset - 4 < len) break;
      answer(c, std::string_view(connection.in).substr(offset + 4, len), t);
      offset += 4 + len;
    }
    connection.in.erase(0, offset);
  }

  void answer(std::size_t c, std::string_view payload, std::uint64_t t) {
    auto& connection = connections_[c];
    if (connection.pending.empty()) {
      out_.check(false, "serve_mixed.transport: unsolicited response");
      return;
    }
    const Pending request = connection.pending.front();
    connection.pending.pop_front();
    const bool ok = response_ok(payload);
    const auto epoch = response_epoch(payload);
    if (ok && epoch) {
      if (*epoch < connection.last_epoch) {
        out_.check(false, format("serve_mixed.epoch: connection %zu went from "
                                 "epoch %llu back to %llu",
                                 c,
                                 static_cast<unsigned long long>(
                                     connection.last_epoch),
                                 static_cast<unsigned long long>(*epoch)));
      }
      connection.last_epoch = std::max(connection.last_epoch, *epoch);
      if (request.kind == kStats) last_stats_epoch_ = *epoch;
    } else {
      out_.check(false, std::string("serve_mixed.response: ") +
                            kKindNames[request.kind] + " answered " +
                            std::string(payload.substr(0, 200)));
    }
    if (tracer_.enabled()) {
      tracer_.record(std::string("serve.request.") + kKindNames[request.kind],
                     request.sent_ns, t, request.id);
    }
    if (request.kind == kAdmin) {
      out_.attempted += 1;
      if (ok) {
        swaps_ += 1;
        swap_ms_.push_back(static_cast<double>(t - request.sent_ns) / 1e6);
      } else {
        out_.failed += 1;
      }
      return;
    }
    if (request.abandoned || request.step == nullptr) return;
    request.step->latency_ms.push_back(
        ok ? static_cast<double>(t - request.due_ns) / 1e6 : kInf);
    request.step->failed += ok ? 0 : 1;
  }

  std::vector<Connection> connections_;
  RequestMix& mix_;
  std::vector<epserve::dataset::ServerRecord> spares_;
  Tracer& tracer_;
  Outcome& out_;
  std::uint64_t next_id_ = 0;
  std::uint64_t next_admin_ns_ = 0;
  bool admin_enabled_ = true;
  std::size_t admin_sequence_ = 0;
  std::uint64_t swaps_ = 0;
  std::vector<double> swap_ms_;
  std::optional<std::uint64_t> last_stats_epoch_;
};

struct Served {
  std::unique_ptr<serve::FleetServer> server;
  std::vector<Connection> connections;
};

// Set-up proper: generation through the first answered request.
epserve::Result<Served> start_serving(
    const std::vector<epserve::dataset::ServerRecord>& initial) {
  serve::ServeOptions options;
  options.threads = kServerThreads;
  auto server = serve::FleetServer::start(initial, options);
  if (!server.ok()) return server.error();
  Served served{std::move(server).take(), {}};
  for (std::size_t c = 0; c <= kQueryConnections; ++c) {
    auto socket = net::connect_tcp(served.server->port());
    if (!socket.ok()) return socket.error();
    served.connections.push_back({std::move(socket).take(), {}, {}, {}, 0, false});
  }
  const auto& first = served.connections.front().socket;
  if (auto sent = net::write_frame(first, "{\"type\":\"stats\"}"); !sent.ok()) {
    return sent.error();
  }
  auto reply = net::read_frame(first);
  if (!reply.ok()) return reply.error();
  if (reply.value().eof || !response_ok(reply.value().payload)) {
    return epserve::Error::io("first request was not answered");
  }
  return served;
}

LadderStep ladder_step(const Step& step) {
  return {step.rate, tail_percentile(step.latency_ms, 0.99),
          backlog_growing(step.backlog), step.failed, lag_p99_ms(step.lag_ms)};
}

std::string step_note(const char* label, const Step& step) {
  const LadderStep ladder = ladder_step(step);
  const auto p50 = tail_percentile(step.latency_ms, 0.5);
  double backlog_max = 0.0;
  for (const double b : step.backlog) backlog_max = std::max(backlog_max, b);
  const char* verdict[] = {"pass", "fail", "INVALID (generator late)"};
  return format(
      "%s %.0f req/s: n=%zu p50=%s ms p99=%s ms failed=%zu backlog_max=%.0f "
      "growing=%s gen_lag_p99=%.3f ms -> %s",
      label, step.rate, step.latency_ms.size(),
      p50 ? format("%.3f", *p50).c_str() : "n/a",
      ladder.p99_ms ? format("%.3f", *ladder.p99_ms).c_str() : "n/a",
      step.failed, backlog_max, ladder.backlog_growing ? "yes" : "no",
      ladder.gen_lag_p99_ms,
      verdict[static_cast<int>(judge_step(ladder, kLimits))]);
}

}  // namespace

Outcome run_serve_mixed(const Options& options, Tracer& tracer) {
  namespace dataset = epserve::dataset;
  Outcome out;
  // The library's own telemetry stays off: every serve metric here is timed
  // by the benchmark, and per-request spans inside the daemon would slow
  // the open-loop steps whose latencies the traced run reports.
  epserve::telemetry::set_enabled(false);
  const double seconds = options.seconds;

  // --- Set-up: fleet generation to the first answered request ------------
  // A few at the start; the rest run between the burst slices below, so the
  // samples spread over the whole run.
  std::vector<double> setup_times;
  std::vector<dataset::ServerRecord> records;
  const auto set_up = [&]() -> std::optional<Served> {
    const double start = now_s();
    dataset::ScaledConfig config;
    config.seed = derive_seed(options.seed, 3);
    config.servers = kFleetServers + kSpareServers;
    // Serial: a pool forked for 2 500 records mostly times thread start-up.
    config.threads = 1;
    auto generated = [&] {
      const Span span(tracer, "dataset.generate_scaled_population");
      return dataset::generate_scaled_population(config);
    }();
    if (!generated.ok()) {
      out.check(false, "serve_mixed.setup: " + generated.error().message);
      return std::nullopt;
    }
    records = std::move(generated).take();
    const std::vector<dataset::ServerRecord> initial(
        records.begin(),
        records.begin() + static_cast<std::ptrdiff_t>(kFleetServers));
    auto started = [&] {
      const Span span(tracer, "serve.start");
      return start_serving(initial);
    }();
    setup_times.push_back(now_s() - start);
    if (!started.ok()) {
      out.check(false, "serve_mixed.setup: " + started.error().message);
      return std::nullopt;
    }
    return std::move(started).take();
  };
  std::optional<Served> served;
  for (int i = 0; i < kSetupsAtStart; ++i) {
    served.reset();  // closes the clients, then stops the previous server
    served = set_up();
    if (!served) return out;
  }
  const std::vector<dataset::ServerRecord> initial(
      records.begin(),
      records.begin() + static_cast<std::ptrdiff_t>(kFleetServers));
  auto fleet = epserve::cluster::Fleet::build(initial);
  if (!fleet.ok()) {
    out.check(false, "serve_mixed.fleet: " + fleet.error().message);
    return out;
  }
  double peak_watts = 0.0;
  for (const double w : fleet.value().peak_watts()) peak_watts += w;
  RequestMix mix(derive_seed(options.seed, 4), fleet.value().total_idle_watts(),
                 peak_watts);
  Generator generator(
      std::move(served->connections), mix,
      {records.begin() + static_cast<std::ptrdiff_t>(kFleetServers),
       records.end()},
      tracer, out);
  auto& server = *served->server;

  // --- Closed bursts (run_s), interleaved with the open-loop steps --------
  // Slices of bursts (and extra set-ups) run before every open-loop step and
  // once at the end, so the samples spread over the whole run instead of
  // one stretch of it: on a shared machine the speed of this path drifts
  // over seconds, and it drifts per CPU, which the 3 connections' workers
  // average over.
  std::vector<double> burst_times;
  std::vector<double> untraced_burst_times;
  const std::vector<Request> burst_requests = mix.fixed_burst(kBurstRequests);
  int bursts = 0;
  double burst_seconds = 0.0;
  const auto burst_slice = [&] {
    for (int i = 0; i < kSetupsPerSlice; ++i) set_up();
    const double start = now_s();
    do {
      const bool traced_burst = options.traced && bursts++ % 2 == 0;
      tracer.set_enabled(traced_burst);
      const double elapsed = generator.burst(burst_requests);
      burst_seconds += elapsed;
      (options.traced && !traced_burst ? untraced_burst_times : burst_times)
          .push_back(elapsed);
    } while (now_s() - start < kBurstSlice * seconds);
    tracer.set_enabled(options.traced);
  };

  // --- Open loop: the light and heavy steps, then the max_rps ladder ------
  const auto step_seconds = [&](double rate) {
    return std::max(0.05 * seconds, kTailSamples / rate);
  };
  burst_slice();
  const Step light = generator.open_loop(kLightRps, step_seconds(kLightRps));
  out.notes.push_back(step_note("light", light));
  burst_slice();
  const Step heavy = generator.open_loop(kHeavyRps, step_seconds(kHeavyRps));
  out.notes.push_back(step_note("heavy", heavy));
  // The ladder starts at the light rate, whose step is already measured.
  const std::vector<double> rates =
      ladder_rates(kLightRps, kLadderTop * kHeavyRps, kLadderRatio);
  bool light_measured = true;
  const auto probed = bisect_ladder(
      rates,
      [&](double rate) {
        if (std::exchange(light_measured, false)) return ladder_step(light);
        burst_slice();
        const Step step = generator.open_loop(rate, step_seconds(rate));
        out.notes.push_back(step_note("ladder", step));
        return ladder_step(step);
      },
      kLimits);
  // Top up, so that a ladder cut short leaves as many samples as any other.
  do {
    burst_slice();
  } while (burst_seconds < kBurstTotal * seconds);
  const double max_rps = max_passing_rate(probed, kLimits);
  generator.stop_admin();

  // --- Final checks: every swap landed, epochs add up ----------------------
  const auto epoch = generator.final_epoch();
  out.check(epoch.has_value() && *epoch == generator.swaps() + 1,
            format("serve_mixed.final_epoch: %llu after %llu swaps",
                   static_cast<unsigned long long>(epoch.value_or(0)),
                   static_cast<unsigned long long>(generator.swaps())));
  out.check(server.swaps() == generator.swaps(),
            "serve_mixed.swaps: server and client swap counts differ");

  // --- Metrics --------------------------------------------------------------
  const auto light_p50 = tail_percentile(light.latency_ms, 0.5);
  const auto light_p99 = tail_percentile(light.latency_ms, 0.99);
  const bool light_valid =
      judge_step(ladder_step(light), kLimits) != StepVerdict::kInvalid;
  const auto heavy_p99 = tail_percentile(heavy.latency_ms, 0.99);
  const bool heavy_valid =
      judge_step(ladder_step(heavy), kLimits) != StepVerdict::kInvalid;
  const auto swap_p50 = tail_percentile(generator.swap_ms(), 0.5);
  std::vector<double> lags = light.lag_ms;
  lags.insert(lags.end(), heavy.lag_ms.begin(), heavy.lag_ms.end());
  double backlog_max = 0.0;
  for (const Step* step : {&light, &heavy}) {
    for (const double b : step->backlog) backlog_max = std::max(backlog_max, b);
  }

  out.end_to_end["setup_s"] = median(setup_times);
  out.end_to_end["run_s"] = median(burst_times);
  out.end_to_end["peak_rss_mb"] = peak_rss_mb();
  out.notes.push_back("setup_s: " + describe(setup_times));
  out.notes.push_back(format("run_s bursts of %zu requests, window %zu per "
                             "connection: ",
                             kBurstRequests, kBurstWindow) +
                      describe(burst_times));
  out.notes.push_back(format(
      "p50_ms.light = %s ms, p99_ms.light = %s ms (n=%zu at %.0f req/s)",
      light_valid && light_p50 ? format("%.4f", *light_p50).c_str() : "invalid",
      light_valid && light_p99 ? format("%.4f", *light_p99).c_str() : "invalid",
      light.latency_ms.size(), kLightRps));
  out.notes.push_back(format(
      "p99_ms.heavy = %s ms (n=%zu at %.0f req/s)",
      heavy_valid && heavy_p99 ? format("%.4f", *heavy_p99).c_str() : "invalid",
      heavy.latency_ms.size(), kHeavyRps));
  out.notes.push_back(format(
      "max_rps = %.0f req/s (%zu ladder probes, %zu steps %.0f..%.0f, p99 <= "
      "%.0f ms, no growing backlog, no failures)",
      max_rps, probed.size(), rates.size(), rates.front(), rates.back(),
      kLimits.p99_ms));
  out.notes.push_back(format("swap_ms.p50 = %s ms (n=%zu swaps)",
                             swap_p50 ? format("%.4f", *swap_p50).c_str()
                                      : "n/a",
                             generator.swap_ms().size()));
  if (!options.traced) return out;

  const auto valid_or_zero = [](bool valid, std::optional<double> value) {
    return valid && value ? *value : 0.0;
  };
  out.per_layer["serve.p50_ms.light"] = valid_or_zero(light_valid, light_p50);
  out.per_layer["serve.p99_ms.light"] = valid_or_zero(light_valid, light_p99);
  out.per_layer["serve.p99_ms.heavy"] = valid_or_zero(heavy_valid, heavy_p99);
  out.per_layer["serve.max_rps"] = max_rps;
  out.per_layer["serve.swap_ms.p50"] = swap_p50.value_or(0.0);
  out.per_layer["serve.gen_lag_ms.p99"] = lag_p99_ms(lags);
  out.per_layer["serve.backlog_max"] = backlog_max;
  out.per_layer["trace.overhead_s"] =
      median(burst_times) - median(untraced_burst_times);

  // handle_payload replayed on the workload's own payloads, no load.
  std::vector<double> handle_us[kKinds];
  for (std::size_t kind = 0; kind < kKinds; ++kind) {
    for (std::size_t i = 0; i < kReplayPerKind; ++i) {
      const auto& kept = mix.kept(static_cast<Kind>(kind));
      if (kind != kAdmin && kept.empty()) break;
      const std::string payload = kind == kAdmin
                                      ? generator.next_admin_payload()
                                      : kept[i % kept.size()];
      const Span span(tracer, std::string("serve.handle_payload.") +
                                  kKindNames[kind]);
      const double start = now_s();
      const std::string response = server.handle_payload(payload);
      handle_us[kind].push_back((now_s() - start) * 1e6);
      out.check(response_ok(response),
                std::string("serve_mixed.replay: ") + kKindNames[kind] +
                    " answered " + response.substr(0, 200));
    }
    const std::string base = std::string("serve.handle_us.") + kKindNames[kind];
    out.per_layer[base + ".p50"] =
        tail_percentile(handle_us[kind], 0.5).value_or(0.0);
    out.per_layer[base + ".p99"] =
        tail_percentile(handle_us[kind], 0.99).value_or(0.0);
  }
  // Transport: light-step latency minus handling, with handling pooled in
  // the mix's proportions (6 place : 1 guide : 1 powercap : 2 stats).
  std::vector<double> pooled;
  const std::size_t shares[] = {6, 1, 1, 2};
  for (std::size_t kind = 0; kind < kAdmin; ++kind) {
    const std::size_t take =
        std::min(handle_us[kind].size(), shares[kind] * 100);
    pooled.insert(pooled.end(), handle_us[kind].begin(),
                  handle_us[kind].begin() + static_cast<std::ptrdiff_t>(take));
  }
  out.per_layer["serve.transport_ms.p50"] =
      light_valid && light_p50 ? *light_p50 - median(pooled) / 1e3 : 0.0;

  // FleetState::create at the serving size: what every swap rebuilds.
  std::vector<double> build_ms;
  for (int i = 0; i < 20; ++i) {
    std::vector<dataset::ServerRecord> copy = initial;
    const Span span(tracer, "serve.FleetState.create");
    const double start = now_s();
    auto state = serve::FleetState::create(std::move(copy));
    build_ms.push_back((now_s() - start) * 1e3);
    out.check(state.ok(), "serve_mixed.fleet_build: FleetState::create failed");
  }
  out.per_layer["fleet.build_ms"] = median(build_ms);
  return out;
}

}  // namespace perfbench
