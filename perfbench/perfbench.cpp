// perfbench — the repository's end-to-end benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S [--trace 0|1]
//             [--trace-out PATH] [--setup-only]
//
// Starts an in-process transport::TransportServer on loopback TCP and
// drives it from this one load thread through the public
// transport::Client (send_frame / recv_frame plus the wire.h codecs) and
// channel::ChannelEndpoint. The server configuration is the same for
// every workload: 1 shard, ServiceOptions::threads = 2 and every other
// option at its default (batch verify on, 5 ms batch deadline, channels
// on, obs and health off); a KTY group with kTest parameters; Scheme 1,
// traceable handshakes of m = 4. With the load thread, the pump worker,
// one pool thread and the event loop the process runs 4 busy threads.
//
// Workloads (all closed loops: a member waits for its handshake or record
// before it sends the next):
//   handshake_rtt   one session in flight on one connection
//   handshake_load  16 sessions in flight on one connection
//   channel_relay   one m = 4 clique after one handshake; member 0 sends
//                   16 KiB records, one in flight, and the relay fans each
//                   to the 3 other members' connections, which open it
//
// Every input (session seeds, member picks, record payloads) derives
// from --seed. Warm-up runs before timing. The timed span lasts
// --seconds; with --trace 1 it is split into an untraced half and a
// traced half, and the traced half yields the per-layer metrics (the
// difference between the halves is reported as tracing overhead).
//
// Output: a "record" line with the full result (host and build
// fingerprint, load-generator sanity, failure counters, every figure),
// then, as the last line, {"correct", "attempted", "failed", "metrics"}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). --setup-only stops after set-up and prints its time.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "bigint/montgomery.h"
#include "channel/endpoint.h"
#include "channel/keys.h"
#include "channel/record.h"
#include "common/errors.h"
#include "core/authority.h"
#include "core/handshake.h"
#include "core/member.h"
#include "host.h"
#include "spans.h"
#include "transport/client.h"
#include "transport/server.h"
#include "transport/wire.h"

namespace perfbench {
namespace {

using namespace shs;

// Set during static initialization: the closest this program gets to its
// process start, which is where setup_s begins.
const Clock::time_point kProcessStart = Clock::now();

constexpr std::uint32_t kM = 4;
// Members admitted at set-up; each session hosts kM of them. A realistic
// roster makes set-up about a second of work, long enough to repeat.
constexpr std::size_t kRoster = 24;
constexpr std::size_t kRecordBytes = 16 * 1024;
constexpr std::size_t kPayloads = 8;

struct Workload {
  const char* name;
  std::uint32_t window;  // operations in flight
  bool channel;
  std::uint64_t warm_ops;  // completed before timing starts
};

constexpr Workload kWorkloads[] = {
    {"handshake_rtt", 1, false, 3},
    {"handshake_load", 16, false, 32},
    {"channel_relay", 1, true, 64},
};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
  bool setup_only = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "handshake_rtt|handshake_load|channel_relay --seed N "
               "--seconds S [--trace 0|1] [--trace-out PATH] "
               "[--setup-only]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--setup-only") {
      args.setup_only = true;
      continue;
    }
    if (value == nullptr) usage(("missing value for " + flag).c_str());
    ++i;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) args.workload = &w;
      }
      if (args.workload == nullptr) usage("unknown workload");
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      usage(("unknown argument " + flag).c_str());
    }
  }
  if (args.workload == nullptr || !have_seed) usage("missing arguments");
  if (!args.setup_only && !(args.seconds > 0)) usage("--seconds must be > 0");
  return args;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------
// Inputs

/// Session seed of operation `op` (op 0 is the channel set-up handshake).
Bytes session_seed(std::uint64_t seed, std::uint64_t op) {
  return to_bytes("perfbench/" + std::to_string(seed) + "/" +
                  std::to_string(op));
}

/// The operation id a session seed encodes (for the factory's spans).
std::uint64_t op_of(BytesView session_seed) {
  const std::string s(session_seed.begin(), session_seed.end());
  const auto slash = s.rfind('/');
  return slash == std::string::npos ? 0
                                    : std::strtoull(s.c_str() + slash + 1,
                                                    nullptr, 10);
}

/// kM distinct roster indices, drawn from the session seed.
std::vector<std::size_t> pick_members(BytesView session_seed) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const std::uint8_t b : session_seed) {
    h = (h ^ b) * 1099511628211ull;
  }
  std::mt19937_64 rng(h);
  std::vector<std::size_t> idx(kRoster);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  for (std::size_t i = 0; i < kM; ++i) {
    std::swap(idx[i], idx[i + rng() % (kRoster - i)]);
  }
  idx.resize(kM);
  return idx;
}

struct Group {
  std::unique_ptr<core::GroupAuthority> authority;
  std::vector<std::unique_ptr<core::Member>> members;
};

/// The deployment under test: one group with a fixed key (parameter
/// generation time varies with the key, and the group is the system, not
/// an input), admitting kRoster members.
Group admit_roster(SpanLog& spans) {
  Group group;
  group.authority = std::make_unique<core::GroupAuthority>(
      "perfbench", core::GroupConfig{}, to_bytes("perfbench-group"));
  for (std::size_t i = 0; i < kRoster; ++i) {
    const auto t0 = Clock::now();
    group.members.push_back(group.authority->admit(i + 1));
    spans.record("gsig.admit", 0, 0, t0, Clock::now());
  }
  for (auto& m : group.members) (void)m->update();
  return group;
}

std::vector<std::unique_ptr<core::HandshakeParticipant>> build_parties(
    const Group& group, const transport::OpenRequest& request) {
  if (request.m != kM) throw ProtocolError("perfbench: unexpected m");
  core::HandshakeOptions options;
  options.self_distinction = request.self_distinction;
  options.traceable = request.traceable;
  const std::vector<std::size_t> picks = pick_members(request.seed);
  std::vector<std::unique_ptr<core::HandshakeParticipant>> parts;
  for (std::size_t i = 0; i < kM; ++i) {
    parts.push_back(group.members[picks[i]]->handshake_party(
        i, kM, options, request.seed));
  }
  return parts;
}

transport::OpenRequest open_request(std::uint64_t seed, std::uint64_t op) {
  transport::OpenRequest request;
  request.m = kM;
  request.traceable = true;
  request.seed = session_seed(seed, op);
  return request;
}

// ---------------------------------------------------------------------
// Measurement windows

/// Server-side counters sampled at the edges of a timed segment.
struct Counters {
  std::uint64_t frames = 0;     // service frames in + out
  std::uint64_t tcp_bytes = 0;  // socket bytes in + out
  std::uint64_t failures = 0;   // failed + expired + rejected + bisections
  std::uint64_t batch_jobs = 0;
  std::uint64_t batch_flushes = 0;
  std::uint64_t batch_deadline = 0;
  std::uint64_t channel_bytes_relayed = 0;
  std::uint64_t records_unowned = 0;
  std::uint64_t channel_rekeys = 0;
  std::uint64_t modexp = 0;
  std::uint64_t precomp_hits = 0;
  std::uint64_t precomp_misses = 0;
  std::uint64_t phase_count[4] = {};  // phase 1, 2, 3, whole session
  std::uint64_t phase_sum_us[4] = {};
};

Counters sample_counters(transport::TransportServer& server) {
  const service::ServiceMetrics& m = server.service().metrics();
  const service::ServiceMetrics::Gauges g = server.service().gauges();
  Counters c;
  c.frames = m.frames_in.load() + m.frames_out.load();
  c.tcp_bytes = m.tcp_bytes_in.load() + m.tcp_bytes_out.load();
  c.failures = m.sessions_failed.load() + m.sessions_expired.load() +
               m.frames_rejected.load() + m.batch_bisections.load();
  c.batch_jobs = m.batch_jobs.load();
  c.batch_flushes = m.batch_flushes.load();
  c.batch_deadline = m.batch_flushes_deadline.load();
  c.channel_bytes_relayed = m.channel_bytes_relayed.load();
  c.records_unowned = m.channel_records_unowned.load();
  c.channel_rekeys = m.channel_rekeys.load();
  c.modexp = num::modexp_count();
  c.precomp_hits = g.precomp_hits;
  c.precomp_misses = g.precomp_misses;
  const service::LatencyHistogram* hist[4] = {
      &m.phase1_latency, &m.phase2_latency, &m.phase3_latency,
      &m.session_latency};
  for (int i = 0; i < 4; ++i) {
    c.phase_count[i] = hist[i]->count();
    c.phase_sum_us[i] = hist[i]->sum_us();
  }
  return c;
}

/// One timed segment of the closed loop.
struct Segment {
  bool traced = false;
  Clock::time_point t0, t1;
  double cpu0 = 0, cpu1 = 0;            // process CPU
  double load_cpu0 = 0, load_cpu1 = 0;  // the load thread's CPU
  Counters c0, c1;
  std::vector<double> latency_ms;  // verified operations only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;           // failures seen by the clients
  std::uint64_t plaintext_bytes = 0;  // channel: once per record
  std::uint64_t channel_rejects = 0;
  std::uint64_t min_in_flight = std::numeric_limits<std::uint64_t>::max();
  double relay_ms = 0;  // channel: summed relay time (traced segment)

  void begin(transport::TransportServer& server) {
    c0 = sample_counters(server);
    cpu0 = process_cpu_s();
    load_cpu0 = thread_cpu_s();
    t0 = Clock::now();
  }
  void end(transport::TransportServer& server) {
    t1 = Clock::now();
    load_cpu1 = thread_cpu_s();
    cpu1 = process_cpu_s();
    c1 = sample_counters(server);
  }
  void add_latency(Clock::time_point start, Clock::time_point done) {
    latency_ms.push_back(
        std::chrono::duration<double, std::milli>(done - start).count());
  }
  [[nodiscard]] double wall_s() const { return seconds_between(t0, t1); }
  [[nodiscard]] std::uint64_t ops() const { return attempted - failed; }
  /// Failing operations: the larger of what the clients saw and what the
  /// server's failure counters recorded, so each failure counts once.
  [[nodiscard]] std::uint64_t failures() const {
    const std::uint64_t server = (c1.failures - c0.failures) +
                                 (c1.records_unowned - c0.records_unowned);
    return std::max(failed, server);
  }
};

// ---------------------------------------------------------------------
// Handshake workloads

/// Keeps `window` hosted handshakes open on one connection: every kDone
/// is answered with the next kOpen before the next frame is read, and
/// every inbound session frame is relayed back verbatim (the thin-client
/// contract of transport::Client::run).
class HandshakeDriver {
 public:
  HandshakeDriver(transport::Client& client, SpanLog& spans,
                  std::uint64_t seed, std::uint32_t window)
      : client_(client), spans_(spans), seed_(seed), window_(window) {}

  void warm_up(std::uint64_t completions) {
    loop(nullptr, true, [&] { return completions_ >= completions; });
  }

  void run(Segment& seg, transport::TransportServer& server,
           Clock::duration length) {
    seg.begin(server);
    const auto deadline = seg.t0 + length;
    loop(&seg, true, [&] { return Clock::now() >= deadline; });
    seg.end(server);
  }

  /// Lets the sessions in flight finish without opening more.
  void drain() {
    loop(nullptr, false, [] { return false; });
  }

  [[nodiscard]] std::uint64_t failures() const noexcept { return failures_; }

 private:
  struct Pending {
    std::uint64_t op = 0;
    std::uint64_t span = 0;  // reserved id of the op's root span
    Clock::time_point opened;
  };

  [[nodiscard]] std::size_t in_flight() const {
    return opening_.size() + running_.size();
  }

  template <typename Stop>
  void loop(Segment* seg, bool refill, Stop stop) {
    while (!stop()) {
      if (refill) {
        while (in_flight() < window_) open_one();
      }
      if (in_flight() == 0) return;
      if (seg != nullptr) {
        seg->min_in_flight =
            std::min<std::uint64_t>(seg->min_in_flight, in_flight());
      }
      step(seg);
    }
  }

  void open_one() {
    const std::uint64_t op = next_op_++;
    const std::uint32_t tag = next_tag_++;
    const Pending pending{op, spans_.next_id(), Clock::now()};
    client_.send_frame(transport::make_open(
        tag, transport::encode_open_request(open_request(seed_, op))));
    opening_.emplace(tag, pending);
  }

  void fail(Segment* seg) {
    ++failures_;
    if (seg != nullptr) {
      ++seg->attempted;
      ++seg->failed;
    }
  }

  /// Reads one frame and handles it.
  void step(Segment* seg) {
    const auto wait0 = Clock::now();
    std::optional<service::Frame> frame = client_.recv_frame();
    const auto wait1 = Clock::now();
    if (!frame.has_value()) {
      throw TransportError("perfbench: server closed the connection");
    }
    if (!transport::is_control(*frame)) {
      // Session traffic: relay it back untouched.
      client_.send_frame(*frame);
      const Pending* p = find_running(frame->session_id);
      spans_.record("transport.recv_wait", p ? p->op : 0, p ? p->span : 0,
                    wait0, wait1);
      return;
    }
    switch (static_cast<transport::ControlOp>(frame->round)) {
      case transport::ControlOp::kOpenOk: {
        const auto it = opening_.find(frame->position);
        if (it == opening_.end()) {
          throw ProtocolError("perfbench: kOpenOk for an unknown tag");
        }
        const Pending p = it->second;
        opening_.erase(it);
        running_.emplace(transport::decode_open_ok(*frame), p);
        spans_.record("transport.recv_wait", p.op, p.span, wait0, wait1);
        spans_.record("transport.open_ack", p.op, p.span, p.opened, wait1);
        return;
      }
      case transport::ControlOp::kOpenErr: {
        const auto it = opening_.find(frame->position);
        if (it == opening_.end()) {
          throw ProtocolError("perfbench: kOpenErr for an unknown tag");
        }
        std::fprintf(stderr, "perfbench: open rejected: %s\n",
                     transport::decode_open_err(*frame).c_str());
        opening_.erase(it);
        fail(seg);
        return;
      }
      case transport::ControlOp::kDone: {
        const transport::SessionSummary summary =
            transport::decode_done(*frame);
        const auto it = running_.find(summary.session_id);
        if (it == running_.end()) {
          throw ProtocolError("perfbench: kDone for an unknown session");
        }
        const Pending p = it->second;
        running_.erase(it);
        ++completions_;
        spans_.record("transport.recv_wait", p.op, p.span, wait0, wait1);
        spans_.record(p.span, "op", p.op, 0, p.opened, wait1);
        bool verified = summary.state == service::SessionState::kDone &&
                        summary.confirmed.size() == kM;
        for (const std::uint32_t c : summary.confirmed) {
          verified = verified && c == kM;
        }
        if (!verified) {
          fail(seg);
        } else if (seg != nullptr) {
          ++seg->attempted;
          seg->add_latency(p.opened, wait1);
        }
        return;
      }
      case transport::ControlOp::kShutdown:
        throw TransportError("perfbench: server shut down mid-run");
      default:
        throw ProtocolError("perfbench: unexpected control frame");
    }
  }

  const Pending* find_running(std::uint64_t sid) const {
    const auto it = running_.find(sid);
    return it == running_.end() ? nullptr : &it->second;
  }

  transport::Client& client_;
  SpanLog& spans_;
  std::uint64_t seed_;
  std::uint32_t window_;
  std::uint64_t next_op_ = 1;
  std::uint32_t next_tag_ = 1;
  std::uint64_t completions_ = 0;
  std::uint64_t failures_ = 0;
  std::unordered_map<std::uint32_t, Pending> opening_;  // by open tag
  std::unordered_map<std::uint64_t, Pending> running_;  // by session id
};

// ---------------------------------------------------------------------
// Channel workload

struct Receiver {
  std::unique_ptr<transport::Client> client;
  std::unique_ptr<channel::ChannelEndpoint> end;
};

/// Member 0 seals one 16 KiB record, sends it to the relay, and waits
/// until each of the 3 other members has received and opened it.
class ChannelDriver {
 public:
  ChannelDriver(transport::Client& sender, const channel::ChannelKeys& keys,
                std::vector<Receiver>& receivers, SpanLog& spans,
                std::uint64_t seed)
      : sender_(sender),
        sender_end_(keys, 0),
        receivers_(receivers),
        spans_(spans) {
    std::mt19937_64 rng(seed ^ 0x7265636f7264ull);
    for (std::size_t i = 0; i < kPayloads; ++i) {
      Bytes payload(kRecordBytes);
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
      payloads_.push_back(std::move(payload));
    }
  }

  void warm_up(std::uint64_t records) {
    for (std::uint64_t i = 0; i < records; ++i) one_record(nullptr);
  }

  void run(Segment& seg, transport::TransportServer& server,
           Clock::duration length) {
    seg.begin(server);
    seg.min_in_flight = 1;  // each record completes before the next
    const auto deadline = seg.t0 + length;
    while (Clock::now() < deadline) one_record(&seg);
    seg.end(server);
  }

  [[nodiscard]] std::uint64_t failures() const noexcept { return failures_; }

 private:
  void one_record(Segment* seg) {
    const std::uint64_t op = next_op_++;
    const std::uint64_t op_span = spans_.next_id();
    const Bytes& payload = payloads_[op % kPayloads];

    const auto t_send = Clock::now();
    const std::vector<service::Frame> frames = sender_end_.send(payload);
    const auto t_sealed = Clock::now();
    spans_.record("channel.seal", op, op_span, t_send, t_sealed);
    for (const auto& frame : frames) sender_.send_frame(frame);
    const auto t_sent = Clock::now();
    spans_.record("transport.send", op, op_span, t_sealed, t_sent);

    bool verified = true;
    std::uint64_t rejects = 0;
    double open_ms = 0;         // opens so far
    double open_ms_before = 0;  // opens before the last receive returned
    Clock::time_point last_recv = t_sent;
    for (Receiver& r : receivers_) {
      while (true) {
        const auto w0 = Clock::now();
        std::optional<service::Frame> frame = r.client->recv_frame();
        last_recv = Clock::now();
        open_ms_before = open_ms;
        spans_.record("transport.recv_wait", op, op_span, w0, last_recv);
        if (!frame.has_value()) {
          throw TransportError("perfbench: relay closed a member");
        }
        if (!channel::is_channel_frame(*frame)) {
          if (transport::is_control(*frame) &&
              static_cast<transport::ControlOp>(frame->round) ==
                  transport::ControlOp::kShutdown) {
            throw TransportError("perfbench: server shut down mid-run");
          }
          continue;
        }
        const auto o0 = Clock::now();
        const channel::RecordResult res = r.end->open(*frame);
        const auto o1 = Clock::now();
        spans_.record("channel.open", op, op_span, o0, o1);
        open_ms += std::chrono::duration<double, std::milli>(o1 - o0).count();
        if (res.verdict == channel::RecordVerdict::kRekeyed) continue;
        if (res.verdict != channel::RecordVerdict::kDelivered) {
          std::fprintf(stderr, "perfbench: record not delivered (%s)\n",
                       channel::to_string(res.reason));
          ++rejects;
          verified = false;
        } else if (res.plaintext != payload) {
          verified = false;
        }
        break;
      }
    }
    const auto t_done = Clock::now();
    spans_.record(op_span, "op", op, 0, t_send, t_done);

    if (!verified) ++failures_;
    if (seg == nullptr) return;
    ++seg->attempted;
    seg->channel_rejects += rejects;
    if (!verified) {
      ++seg->failed;
      return;
    }
    seg->plaintext_bytes += payload.size();
    seg->add_latency(t_send, t_done);
    if (seg->traced) {
      seg->relay_ms +=
          std::chrono::duration<double, std::milli>(last_recv - t_sent)
              .count() -
          open_ms_before;
    }
  }

  transport::Client& sender_;
  channel::ChannelEndpoint sender_end_;
  std::vector<Receiver>& receivers_;
  SpanLog& spans_;
  std::vector<Bytes> payloads_;
  std::uint64_t next_op_ = 1;
  std::uint64_t failures_ = 0;
};

// ---------------------------------------------------------------------
// Reporting

/// Minimal JSON object writer; numbers keep every digit (shortest
/// round-trip form).
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    if (!std::isfinite(v)) v = 0;
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return raw(key, std::string(buf, res.ptr));
  }
  JsonObject& num(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + json;
    return *this;
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Nearest-rank quantile of an ascending sample (0 when empty).
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

/// End-to-end metrics of one (untraced) segment.
std::vector<Metric> end_to_end(const Segment& seg, double setup_s,
                               double rss_mb) {
  std::vector<double> lat = seg.latency_ms;
  std::sort(lat.begin(), lat.end());
  const double ops = static_cast<double>(seg.ops());
  return {
      {"setup_s", "s", setup_s},
      {"ops_per_s", "1/s", ratio(ops, seg.wall_s())},
      {"latency_p50_ms", "ms", quantile(lat, 0.5)},
      {"latency_p90_ms", "ms", quantile(lat, 0.9)},
      {"verified_frac", "frac",
       ratio(static_cast<double>(
                 seg.attempted - std::min(seg.attempted, seg.failures())),
             static_cast<double>(seg.attempted))},
      {"cpu_ms_per_op", "ms", ratio(1000.0 * (seg.cpu1 - seg.cpu0), ops)},
      {"peak_rss_mb", "MiB", rss_mb},
  };
}

/// Per-layer metrics of the traced segment.
std::vector<Metric> per_layer(const Segment& seg, const Segment& untraced,
                              const SpanLog& spans,
                              std::uint64_t write_queue_hwm) {
  const auto totals = spans.totals();
  const auto total_ms = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_ms;
  };
  const auto mean_ms = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end()
               ? 0.0
               : ratio(it->second.total_ms,
                       static_cast<double>(it->second.count));
  };
  const Counters& a = seg.c0;
  const Counters& b = seg.c1;
  const auto delta = [](std::uint64_t x0, std::uint64_t x1) {
    return static_cast<double>(x1 - x0);
  };
  const double ops = static_cast<double>(std::max<std::uint64_t>(seg.ops(), 1));
  const double wall = seg.wall_s();
  const double load_cpu = seg.load_cpu1 - seg.load_cpu0;
  const double server_cpu = (seg.cpu1 - seg.cpu0) - load_cpu;
  const auto phase_ms = [&](int i) {
    return ratio(delta(a.phase_sum_us[i], b.phase_sum_us[i]),
                 delta(a.phase_count[i], b.phase_count[i])) /
           1000.0;
  };
  const double plain = static_cast<double>(seg.plaintext_bytes);
  const double relayed_plain = plain * (kM - 1);
  const double aead_bytes = plain * kM;  // one seal + kM - 1 opens
  const double aead_ms = total_ms("channel.seal") + total_ms("channel.open");
  // The cache is consulted when tables are first needed, which is before
  // timing starts, so its hit rate is a process-lifetime figure.
  const double hits = static_cast<double>(b.precomp_hits);
  const double misses = static_cast<double>(b.precomp_misses);
  const double untraced_rate =
      ratio(static_cast<double>(untraced.ops()), untraced.wall_s());
  const double traced_rate = ratio(static_cast<double>(seg.ops()), wall);
  return {
      {"core.party_build_ms", "ms", mean_ms("core.party_build")},
      {"transport.open_ack_ms", "ms", mean_ms("transport.open_ack")},
      {"transport.recv_wait_ms_per_op", "ms",
       total_ms("transport.recv_wait") / ops},
      {"transport.frames_per_op", "count", delta(a.frames, b.frames) / ops},
      {"transport.wire_kb_per_op", "KiB",
       delta(a.tcp_bytes, b.tcp_bytes) / 1024.0 / ops},
      {"transport.write_queue_hwm_bytes", "B",
       static_cast<double>(write_queue_hwm)},
      {"service.phase1_ms", "ms", phase_ms(0)},
      {"service.phase2_ms", "ms", phase_ms(1)},
      {"service.phase3_ms", "ms", phase_ms(2)},
      {"service.session_ms", "ms", phase_ms(3)},
      {"service.batch_jobs_per_flush", "count",
       ratio(delta(a.batch_jobs, b.batch_jobs),
             delta(a.batch_flushes, b.batch_flushes))},
      {"service.batch_deadline_flush_frac", "frac",
       ratio(delta(a.batch_deadline, b.batch_deadline),
             delta(a.batch_flushes, b.batch_flushes))},
      {"service.failures", "count", delta(a.failures, b.failures)},
      {"bigint.modexp_per_op", "count", delta(a.modexp, b.modexp) / ops},
      {"bigint.precomp_hit_frac", "frac", ratio(hits, hits + misses)},
      {"gsig.admit_ms", "ms", mean_ms("gsig.admit")},
      {"channel.seal_us", "us", 1000.0 * mean_ms("channel.seal")},
      {"channel.open_us", "us", 1000.0 * mean_ms("channel.open")},
      {"channel.aead_mb_s", "MB/s",
       ratio(aead_bytes / 1e6, aead_ms / 1000.0)},
      {"channel.relay_us", "us",
       1000.0 * ratio(seg.relay_ms, static_cast<double>(seg.ops()))},
      {"channel.wire_overhead_frac", "frac",
       ratio(delta(a.channel_bytes_relayed, b.channel_bytes_relayed) -
                 relayed_plain,
             relayed_plain)},
      {"channel.rekeys", "count",
       delta(a.channel_rekeys, b.channel_rekeys)},
      {"channel.failures", "count",
       delta(a.records_unowned, b.records_unowned) +
           static_cast<double>(seg.channel_rejects)},
      {"server.cpu_ms_per_op", "ms", 1000.0 * server_cpu / ops},
      {"loadgen.cpu_ms_per_op", "ms", 1000.0 * load_cpu / ops},
      {"server.busy_frac", "frac", ratio(server_cpu, wall)},
      {"trace.overhead_frac", "frac",
       untraced_rate > 0 ? 1.0 - traced_rate / untraced_rate : 0.0},
  };
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  JsonObject out;
  for (const Metric& m : metrics) {
    out.raw(m.name,
            JsonObject().num("value", m.value).str("unit", m.unit).text());
  }
  return out.text();
}

/// Load-generator and host figures of one segment.
std::string segment_json(const Segment& seg, std::uint32_t window) {
  std::vector<double> lat = seg.latency_ms;
  std::sort(lat.begin(), lat.end());
  const std::uint64_t n = lat.size();
  const auto beyond = [n](double q) {
    return n - static_cast<std::uint64_t>(
                   std::ceil(q * static_cast<double>(n)));
  };
  return JsonObject()
      .boolean("traced", seg.traced)
      .num("wall_s", seg.wall_s())
      .num("attempted", seg.attempted)
      .num("failed", seg.failures())
      .num("samples", n)
      .num("samples_beyond_p90", beyond(0.9))
      .num("samples_beyond_p99", beyond(0.99))
      .num("latency_p99_ms", quantile(lat, 0.99))
      .num("goodput_mb_s",
           ratio(static_cast<double>(seg.plaintext_bytes) / 1e6,
                 seg.wall_s()))
      .num("loadgen_cpu_frac",
           ratio(seg.load_cpu1 - seg.load_cpu0, seg.wall_s()))
      .boolean("window_held", seg.min_in_flight == window)
      .text();
}

int run(const Args& args) {
  if (const std::string why = build_refusal(); !why.empty()) {
    std::fprintf(stderr, "perfbench: refusing to report from a %s\n",
                 why.c_str());
    return 3;
  }
  const Workload& wl = *args.workload;
  const StatSample stat0 = read_stat();
  const double load0 = load_average();

  // Set-up: admit the roster, start the server, connect; for the channel
  // workload also run the clique's handshake and attach every member.
  SpanLog spans;
  spans.set_enabled(args.trace);
  const Group group = admit_roster(spans);
  spans.set_enabled(false);

  transport::ServerOptions server_options;
  service::ServiceOptions service_options;
  service_options.threads = 2;
  transport::TransportServer server(
      server_options, service_options, [&group, &spans](BytesView payload) {
        const auto t0 = Clock::now();
        const transport::OpenRequest request =
            transport::decode_open_request(payload);
        auto parts = build_parties(group, request);
        spans.record("core.party_build", op_of(request.seed), 0, t0,
                     Clock::now());
        return parts;
      });
  server.start();

  transport::ClientOptions client_options;
  client_options.port = server.port();
  transport::Client client(client_options);
  client.connect();

  std::unique_ptr<channel::ChannelKeys> keys;
  std::vector<Receiver> receivers;
  if (wl.channel) {
    const transport::OpenRequest request = open_request(args.seed, 0);
    const std::uint64_t sid = client.open(request);
    const auto& summaries = client.run();
    if (summaries.size() != 1 ||
        summaries[0].state != service::SessionState::kDone) {
      throw ProtocolError("perfbench: set-up handshake did not complete");
    }
    // Client-side key recovery: the handshake is seed-deterministic, so a
    // local twin of the same members and seed yields the session key the
    // server's clique holds. Attach tokens prove that both agree.
    auto parts = build_parties(group, request);
    std::vector<core::HandshakeParticipant*> ptrs;
    for (auto& p : parts) ptrs.push_back(p.get());
    const auto outcomes = core::run_handshake(ptrs);
    if (!outcomes[0].full_success) {
      throw ProtocolError("perfbench: local twin handshake failed");
    }
    keys = std::make_unique<channel::ChannelKeys>(
        outcomes[0].session_key, sid, outcomes[0].clique_positions());
    if (client.attach(sid, 0, keys->attach_token(0)).members.size() != kM) {
      throw ProtocolError("perfbench: clique smaller than m");
    }
    for (std::uint32_t pos = 1; pos < kM; ++pos) {
      Receiver r;
      r.client = std::make_unique<transport::Client>(client_options);
      r.client->connect();
      (void)r.client->attach(sid, pos, keys->attach_token(pos));
      r.end = std::make_unique<channel::ChannelEndpoint>(*keys, pos);
      receivers.push_back(std::move(r));
    }
  }
  const double setup_s = seconds_between(kProcessStart, Clock::now());
  if (args.setup_only) {
    std::printf("%s\n", JsonObject().num("setup_s", setup_s).text().c_str());
    return 0;
  }

  // Warm-up, then the timed segments: one untraced, or an untraced and a
  // traced half.
  std::vector<Segment> segments(args.trace ? 2 : 1);
  if (args.trace) segments[1].traced = true;
  const auto length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(args.seconds /
                                    static_cast<double>(segments.size())));
  std::uint64_t client_failures = 0;
  if (wl.channel) {
    ChannelDriver driver(client, *keys, receivers, spans, args.seed);
    driver.warm_up(wl.warm_ops);
    for (Segment& seg : segments) {
      spans.set_enabled(seg.traced);
      driver.run(seg, server, length);
    }
    spans.set_enabled(false);
    client_failures = driver.failures();
  } else {
    HandshakeDriver driver(client, spans, args.seed, wl.window);
    driver.warm_up(wl.warm_ops);
    for (Segment& seg : segments) {
      spans.set_enabled(seg.traced);
      driver.run(seg, server, length);
    }
    spans.set_enabled(false);
    driver.drain();
    client_failures = driver.failures();
  }
  const Counters final_counters = sample_counters(server);
  const std::uint64_t write_queue_hwm =
      server.service().metrics().write_queue_hwm.load();
  client.close();
  receivers.clear();
  server.shutdown();
  const StatSample stat1 = read_stat();

  // The result record.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Segment& seg : segments) {
    attempted += seg.attempted;
    failed += seg.failures();
  }
  const std::uint64_t server_failures =
      final_counters.failures + final_counters.records_unowned;
  const bool correct = attempted > 0 && failed == 0 && client_failures == 0 &&
                       server_failures == 0;
  const std::vector<Metric> e2e =
      end_to_end(segments[0], setup_s, peak_rss_mb());
  const std::vector<Metric> metrics =
      args.trace ? per_layer(segments[1], segments[0], spans, write_queue_hwm)
                 : e2e;

  std::string segs = "[";
  for (const Segment& seg : segments) {
    segs += (segs.size() > 1 ? "," : "") + segment_json(seg, wl.window);
  }
  segs += "]";
  const double ticks = static_cast<double>(stat1.total - stat0.total);
  const std::string record =
      JsonObject()
          .str("workload", wl.name)
          .num("seed", args.seed)
          .num("seconds", args.seconds)
          .boolean("trace", args.trace)
          .raw("host", host_json())
          .raw("build", build_json())
          .num("load_avg_start", load0)
          .num("load_avg_end", load_average())
          .num("steal_frac",
               ratio(static_cast<double>(stat1.steal - stat0.steal), ticks))
          .raw("segments", segs)
          .raw("end_to_end", metrics_json(e2e))
          .raw("server_failures",
               JsonObject()
                   .num("failed_expired_rejected_bisected",
                        final_counters.failures)
                   .num("records_unowned", final_counters.records_unowned)
                   .text())
          .num("client_failures", client_failures)
          .text();
  std::printf("record %s\n", record.c_str());

  if (args.trace && !args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    out << JsonObject()
               .str("workload", wl.name)
               .num("seed", args.seed)
               .raw("per_layer", metrics_json(metrics))
               .raw("trace", spans.to_json(kProcessStart))
               .text()
        << "\n";
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
  }

  std::printf("%s\n", JsonObject()
                          .boolean("correct", correct)
                          .num("attempted", attempted)
                          .num("failed", failed)
                          .raw("metrics", metrics_json(metrics))
                          .text()
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
