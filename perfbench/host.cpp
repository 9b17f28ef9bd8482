#include "host.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// The value of the first "key : value" line of /proc/cpuinfo.
std::string cpuinfo_field(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) != 0) continue;
    const auto value = line.find_first_not_of(' ', line.find(':') + 1);
    return value == std::string::npos ? std::string() : line.substr(value);
  }
  return {};
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

StatSample read_stat() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  StatSample sample;
  if (cpu != "cpu") return sample;
  // user nice system idle iowait irq softirq steal guest guest_nice; the
  // guest fields are already folded into user/nice.
  for (int field = 0; field < 8; ++field) {
    std::uint64_t ticks = 0;
    if (!(in >> ticks)) break;
    sample.total += ticks;
    if (field == 7) sample.steal = ticks;
  }
  return sample;
}

double load_average() {
  std::ifstream in("/proc/loadavg");
  double one = -1;
  in >> one;
  return one;
}

std::string host_json() {
  std::istringstream flags(" " + cpuinfo_field("flags") + " ");
  bool have[4] = {false, false, false, false};
  const char* wanted[4] = {"aes", "adx", "bmi2", "avx512ifma"};
  for (std::string flag; flags >> flag;) {
    for (int i = 0; i < 4; ++i) have[i] = have[i] || flag == wanted[i];
  }
  std::string out =
      "{\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
      ",\"cpu_model\":\"" + json_escape(cpuinfo_field("model name")) +
      "\",\"cpu_flags\":{";
  for (int i = 0; i < 4; ++i) {
    out += std::string(i ? "," : "") + "\"" + wanted[i] +
           "\":" + (have[i] ? "true" : "false");
  }
  return out + "}}";
}

std::string build_json() {
  return std::string("{\"compiler\":\"") + PERFBENCH_COMPILER +
         "\",\"build_type\":\"" + PERFBENCH_BUILD_TYPE + "\",\"cxx_flags\":\"" +
         json_escape(PERFBENCH_CXX_FLAGS) + "\"}";
}

std::string build_refusal() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  const std::string flags = PERFBENCH_CXX_FLAGS;
  if (type == "Debug") return "Debug build";
  if (flags.find("-fsanitize") != std::string::npos) return "sanitizer build";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#if !defined(__OPTIMIZE__)
  return "unoptimized build";
#endif
  return {};
}

}  // namespace perfbench
