#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

void SpanLog::record(std::uint64_t id, const char* name, std::uint64_t op,
                     std::uint64_t parent, Clock::time_point start,
                     Clock::time_point end) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{id, parent, op, name, start, end});
}

std::uint64_t SpanLog::record(const char* name, std::uint64_t op,
                              std::uint64_t parent, Clock::time_point start,
                              Clock::time_point end) {
  const std::uint64_t id = next_id();
  record(id, name, op, parent, start, end);
  return id;
}

std::vector<Span> SpanLog::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
  const std::vector<Span> all = spans();
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : all) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, Totals> out;
  for (const Span& s : all) {
    // Covered = the union of the children's intervals, clipped to s.
    double covered_ms = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
      for (const Span* c : it->second) {
        const auto lo = std::max(c->start, s.start);
        const auto hi = std::min(c->end, s.end);
        if (lo < hi) iv.emplace_back(lo, hi);
      }
      std::sort(iv.begin(), iv.end());
      Clock::time_point run_lo{};
      Clock::time_point run_hi{};
      bool open = false;
      for (const auto& [lo, hi] : iv) {
        if (open && lo <= run_hi) {
          run_hi = std::max(run_hi, hi);
          continue;
        }
        if (open) {
          covered_ms +=
              std::chrono::duration<double, std::milli>(run_hi - run_lo)
                  .count();
        }
        run_lo = lo;
        run_hi = hi;
        open = true;
      }
      if (open) {
        covered_ms +=
            std::chrono::duration<double, std::milli>(run_hi - run_lo).count();
      }
    }
    Totals& t = out[s.name];
    ++t.count;
    t.total_ms += s.ms();
    t.self_ms += s.ms() - covered_ms;
  }
  return out;
}

std::string SpanLog::to_json(Clock::time_point origin) const {
  const auto us = [origin](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  std::string out = "{\"spans\":[";
  char buf[256];
  bool first = true;
  for (const Span& s : spans()) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"id\":%llu,\"parent\":%llu,\"op\":%llu,\"name\":\"%s\","
                  "\"start_us\":%.3f,\"end_us\":%.3f}",
                  first ? "" : ",", static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.op), s.name, us(s.start),
                  us(s.end));
    out += buf;
    first = false;
  }
  out += "],\"totals\":{";
  first = true;
  for (const auto& [name, t] : totals()) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"count\":%llu,\"total_ms\":%.6f,"
                  "\"self_ms\":%.6f}",
                  first ? "" : ",", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_ms,
                  t.self_ms);
    out += buf;
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
