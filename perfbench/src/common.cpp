#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>

namespace bench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace {

[[noreturn]] void bad_param(const std::string& key, const std::string& why) {
  std::cerr << "mwbench: workload constant --" << key << " " << why << "\n";
  std::exit(2);
}

}  // namespace

double Options::num(const std::string& key) const {
  auto it = params.find(key);
  if (it == params.end()) bad_param(key, "is missing");
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0')
    bad_param(key, "is not a number: " + it->second);
  return v;
}

std::int64_t Options::integer(const std::string& key) const {
  const double v = num(key);
  if (v != static_cast<double>(static_cast<std::int64_t>(v)))
    bad_param(key, "is not a whole number");
  return static_cast<std::int64_t>(v);
}

void Options::require_only(std::initializer_list<const char*> keys) const {
  for (const auto& [key, value] : params) {
    bool known = false;
    for (const char* k : keys) known = known || key == k;
    if (!known) bad_param(key, "is not a constant of " + workload);
  }
}

void Report::violation(const std::string& what, std::uint64_t count) {
  violations.push_back(what);
  failed += count;
}

namespace {

double cpu_seconds(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

}  // namespace

double cpu_seconds_self() { return cpu_seconds(RUSAGE_SELF); }
double cpu_seconds_children() { return cpu_seconds(RUSAGE_CHILDREN); }

namespace {

/// A "Vm...:  <n> kB" line of /proc/self/status in MiB; -1 if absent.
double status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind(field, 0) == 0)
      return std::strtod(line.c_str() + field.size(), nullptr) / 1024.0;
  return -1;
}

}  // namespace

double peak_rss_mb_self() {
  // VmHWM, unlike ru_maxrss, restarts at reset_peak_rss().
  const double hwm = status_mb("VmHWM:");
  if (hwm >= 0) return hwm;
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

double rss_mb_self() { return std::max(0.0, status_mb("VmRSS:")); }

void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

HostCpu HostCpu::now() {
  HostCpu h;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double f[8] = {};  // user nice system idle iowait irq softirq steal
  if (!(stat >> cpu) || cpu != "cpu") return h;
  for (double& x : f)
    if (!(stat >> x)) return HostCpu{};
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  h.busy = (f[0] + f[1] + f[2] + f[5] + f[6]) / tick;
  h.steal = f[7] / tick;
  h.total = (f[0] + f[1] + f[2] + f[3] + f[4] + f[5] + f[6] + f[7]) / tick;
  return h;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  return 1;
}

SpanLog& SpanLog::get() {
  static SpanLog log;
  return log;
}

SpanLog::Buffer& SpanLog::local() {
  thread_local Buffer* mine = nullptr;
  if (mine == nullptr) {
    std::lock_guard<std::mutex> lk(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    mine = buffers_.back().get();
    mine->tid = static_cast<std::uint32_t>(buffers_.size());
  }
  return *mine;
}

void SpanLog::record(const char* name, std::uint64_t id,
                     std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled()) return;
  if (kept_.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Buffer& b = local();
  b.spans.push_back({name, id, start_ns, end_ns, b.tid});
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t n = 0;
  for (const auto& b : buffers_) n += b->spans.size();
  return n;
}


bool SpanLog::write_chrome(const std::string& path, int pid) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lk(mu_);
  out << "{\"traceEvents\":[";
  bool first = true;
  out << std::fixed << std::setprecision(3);
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      out << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << s.tid
          << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ",\"args\":{\"id\":" << s.id << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace bench
