// In-memory span log for the traced perfbench run.
//
// Spans are drawn by the benchmark around its own calls into each
// layer's public functions (nothing inside src/ is instrumented). A span
// carries its name, start and end, the span that caused it, and the id
// of the operation (handshake or channel record) it belongs to. Spans
// stay in memory while the workload runs and are written out once, as
// one JSON document, when it ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t op = 0;      // 0 = set-up, not part of any operation
  const char* name = "";     // static string, e.g. "channel.seal"
  Clock::time_point start;
  Clock::time_point end;

  [[nodiscard]] double ms() const {
    return std::chrono::duration<double, std::milli>(end - start).count();
  }
};

/// Thread-safe: the session factory records from the server's pump
/// worker while the load thread records everything else.
class SpanLog {
 public:
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Reserves an id for a span whose children end before it does.
  [[nodiscard]] std::uint64_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records a finished span under a reserved id (no-op while disabled).
  void record(std::uint64_t id, const char* name, std::uint64_t op,
              std::uint64_t parent, Clock::time_point start,
              Clock::time_point end);
  /// Reserves an id and records in one step; returns the id.
  std::uint64_t record(const char* name, std::uint64_t op,
                       std::uint64_t parent, Clock::time_point start,
                       Clock::time_point end);

  [[nodiscard]] std::vector<Span> spans() const;

  /// Per-name totals: how many spans, summed duration, and summed self
  /// time (duration minus the part covered by the span's children).
  struct Totals {
    std::uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  /// One JSON object: every span (times in us from `origin`) plus the
  /// per-name totals.
  [[nodiscard]] std::string to_json(Clock::time_point origin) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

}  // namespace perfbench
