#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <algorithm>

#include "stats.h"
#include "workload.h"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double cpu_utilization(double cpu_s, double wall_s) {
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  if (wall_s <= 0.0 || cpus <= 0) return 0.0;
  return cpu_s / (wall_s * static_cast<double>(cpus));
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the image the process replaced at exec (the launching interpreter).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  return format("%016llx", static_cast<unsigned long long>(value));
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string describe(const std::vector<double>& values) {
  if (values.empty()) return "n=0";
  const Quartiles q = quartiles(values);
  return format("n=%zu min %.6g q1 %.6g median %.6g q3 %.6g max %.6g",
                values.size(), *std::min_element(values.begin(), values.end()),
                q.q1, q.q2, q.q3,
                *std::max_element(values.begin(), values.end()));
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int size = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(static_cast<std::size_t>(size > 0 ? size : 0), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

}  // namespace perfbench
