// mwbench: the repository benchmark's measuring program. perfbench/run.py
// builds it, forwards the workload constants from perfbench/workloads.json
// and validates its output; see perfbench/README.md.
//
//   mwbench --workload <svc_socket|race_cow|race_prune> --seed <n>
//           --seconds <s> --trace <0|1> --out-dir <dir> [--<constant>=<v>...]
//   mwbench ... --inputs_digest=1   prints a digest of the seed's inputs
//
// Prints report lines starting with '#', then one JSON line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exit status: 0 when every output check passed, 1 on a correctness
// violation, 2 on a usage error, 3 when the system could not be set up.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using namespace bench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "mwbench: " << why << "\n"
            << "usage: mwbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>] [--<constant>=<value>...]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) usage("unexpected argument " + a);
    std::string key = a.substr(2), value;
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else {
      if (i + 1 >= argc) usage("--" + key + " needs a value");
      value = argv[++i];
    }
    try {
      if (key == "workload") {
        o.workload = value;
        have_workload = true;
      } else if (key == "seed") {
        o.seed = std::stoull(value);
      } else if (key == "seconds") {
        o.seconds = std::stod(value);
      } else if (key == "trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (key == "out-dir") {
        o.out_dir = value;
      } else if (key == "inputs_digest") {
        o.inputs_digest = value == "1";
      } else {
        o.params[key] = value;
      }
    } catch (const std::exception&) {
      usage("bad value for --" + key + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (o.seconds <= 0) usage("--seconds must be positive");
  return o;
}

/// Effective parallelism: one fixed amount of dependent-multiply work run
/// on 1 thread, then split over nproc threads; the ratio of wall times.
double effective_cores(int threads) {
  constexpr std::uint64_t kSteps = 40'000'000;
  auto work = [](std::uint64_t n) {
    std::uint64_t x = 1;
    for (std::uint64_t i = 0; i < n; ++i) x = x * 6364136223846793005ull + i;
    asm volatile("" : : "r"(x));
  };
  auto timed = [&](int t) {
    const std::int64_t t0 = now_ns();
    std::vector<std::thread> pool;
    for (int i = 0; i < t; ++i)
      pool.emplace_back(work, kSteps / static_cast<std::uint64_t>(t));
    for (auto& th : pool) th.join();
    return static_cast<double>(now_ns() - t0);
  };
  const double one = timed(1);
  const double many = timed(threads);
  return many > 0 ? one / many : 0;
}

void print_json(const Report& rep) {
  const bool correct = rep.violations.empty() && rep.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const auto& m = rep.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (o.inputs_digest) {
    // Prints what the seed generates and runs nothing.
    std::uint64_t h = 0;
    if (o.workload == "svc_socket") {
      h = svc_inputs_digest(o);
    } else if (o.workload == "race_cow" || o.workload == "race_prune") {
      h = race_inputs_digest(o);
    } else {
      usage("unknown workload " + o.workload);
    }
    std::printf("inputs %016llx\n", static_cast<unsigned long long>(h));
    return 0;
  }
  Report rep;
  const int cores = nproc();
  std::printf("# host: nproc %d, effective cores %.2f (compute control, 1 vs "
              "%d threads)\n",
              cores, effective_cores(cores), cores);
  std::fflush(stdout);

  const HostCpu host0 = HostCpu::now();
  const double own0 = cpu_seconds_self() + cpu_seconds_children();
  int rc = 0;
  if (o.workload == "svc_socket") {
    rc = run_svc(o, rep);
  } else if (o.workload == "race_cow" || o.workload == "race_prune") {
    rc = run_races(o, rep);
  } else {
    usage("unknown workload " + o.workload);
  }
  const HostCpu host1 = HostCpu::now();
  const double all = host1.total - host0.total;
  if (all > 0) {
    // How much of the machine the run did not have: the hypervisor's
    // steal, and CPU that processes other than this run's used.
    const double own = cpu_seconds_self() + cpu_seconds_children() - own0;
    rep.note("host during the run: steal " +
             std::to_string(100 * (host1.steal - host0.steal) / all) +
             " % of CPU time; other processes " +
             std::to_string(std::max(0.0, 100 * (host1.busy - host0.busy -
                                                 own) / all)) +
             " %");
  }
  for (const std::string& n : rep.notes) std::printf("# %s\n", n.c_str());
  for (const std::string& v : rep.violations)
    std::printf("# VIOLATION: %s\n", v.c_str());
  std::fflush(stdout);
  if (rc != 0) return rc;
  if (rep.attempted == 0) {
    std::fprintf(stderr, "mwbench: no operation was attempted\n");
    return 3;
  }
  print_json(rep);
  return rep.violations.empty() && rep.failed == 0 ? 0 : 1;
}
