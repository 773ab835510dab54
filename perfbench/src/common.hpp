// Shared pieces of the repository benchmark: the seeded input generator,
// sample statistics, the run report, and the benchmark's own span log.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace bench {

/// Monotonic nanoseconds (steady_clock), the one clock every span and
/// latency in the benchmark is stamped with.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The benchmark's input generator. Kept separate from the library's Rng so
/// that a change to the program can never change the inputs of a seed.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// A stateless 64-bit mix, for values derived from (seed, index) pairs.
inline std::uint64_t mix64(std::uint64_t a, std::uint64_t b = 0) {
  SplitMix m(a ^ (b * 0xd1b54a32d192ed03ull));
  return m.next();
}

/// Linear-interpolated percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double q);

/// Parsed command line: the driver's four flags plus the workload
/// constants run.py forwards from perfbench/workloads.json as --key=value.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  bool inputs_digest = false;  // print the seed's input digest, run nothing
  std::map<std::string, std::string> params;

  /// A required workload constant; a missing or malformed one is fatal.
  double num(const std::string& key) const;
  std::int64_t integer(const std::string& key) const;
  bool has(const std::string& key) const { return params.count(key) != 0; }
  /// Fails on any constant outside `keys`.
  void require_only(std::initializer_list<const char*> keys) const;
};

/// What a run prints: report lines, metrics and the correctness ledger.
struct Report {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  std::vector<std::string> violations;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Records a correctness violation; `count` operations failed with it.
  void violation(const std::string& what, std::uint64_t count = 1);
};

/// User + system CPU seconds of this process (all threads).
double cpu_seconds_self();
/// The same for this process's children that have been waited for.
double cpu_seconds_children();
/// Peak resident set of this process in MiB since start or the last
/// reset_peak_rss().
double peak_rss_mb_self();
void reset_peak_rss();
/// Current resident set of this process in MiB.
double rss_mb_self();
/// Usable CPUs (the affinity mask).
int nproc();

/// Machine-wide CPU time from /proc/stat, in seconds summed over CPUs:
/// `busy` (user, nice, system, irq, softirq), `steal` (taken by the
/// hypervisor) and `total` (all of it, idle included). Zero if unreadable.
struct HostCpu {
  double busy = 0, steal = 0, total = 0;
  static HostCpu now();
};

/// The benchmark's own spans, recorded around calls into each layer. Held
/// in per-thread memory and written as one Chrome-trace file at the end.
/// Recording is a no-op unless enabled.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;      // request / race identifier shared by a tree
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t tid = 0;
};

class SpanLog {
 public:
  static SpanLog& get();
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void record(const char* name, std::uint64_t id, std::int64_t start_ns,
              std::int64_t end_ns);
  std::size_t size() const;
  /// Spans not kept: the log keeps the first kMaxSpans, so a fast
  /// workload's trace stays a few tens of MB in memory and on disk.
  std::size_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  static constexpr std::size_t kMaxSpans = 500'000;
  /// Writes every recorded span as Chrome-trace JSON ("X" events, µs).
  /// `pid` separates processes when several files are merged.
  bool write_chrome(const std::string& path, int pid) const;

 private:
  struct Buffer {
    std::uint32_t tid = 0;
    std::vector<Span> spans;
  };
  Buffer& local();
  std::atomic<bool> enabled_{false};
  std::atomic<std::size_t> kept_{0};
  std::atomic<std::size_t> dropped_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace bench
