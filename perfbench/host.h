// Host and build probes for perfbench result records: CPU clocks, peak
// RSS, the /proc/stat steal counter, load average, CPU flags and the
// build fingerprint.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// CPU seconds (user + sys) of every thread of this process.
[[nodiscard]] double process_cpu_s();
/// CPU seconds of the calling thread.
[[nodiscard]] double thread_cpu_s();
/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Aggregate "cpu" line of /proc/stat, in clock ticks.
struct StatSample {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
[[nodiscard]] StatSample read_stat();
/// 1-minute load average (-1 when unreadable).
[[nodiscard]] double load_average();

/// JSON object describing the host: nproc, the CPU flags the hot paths
/// could use, and the CPU model.
[[nodiscard]] std::string host_json();
/// JSON object describing this binary's build.
[[nodiscard]] std::string build_json();
/// Empty when the build may report; otherwise why it may not (Debug,
/// unoptimized or sanitizer builds distort every figure).
[[nodiscard]] std::string build_refusal();

}  // namespace perfbench
