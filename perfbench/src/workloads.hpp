// Entry points of the benchmark's workloads (see perfbench/README.md).
#pragma once

#include "common.hpp"

namespace bench {

/// race_cow and race_prune (races.cpp).
int run_races(const Options& o, Report& rep);
/// svc_socket (svc_socket.cpp).
int run_svc(const Options& o, Report& rep);

/// A digest of the inputs a seed generates (the first 1000 races per
/// driver; every request of a run of o.seconds), for the same-seed test.
std::uint64_t race_inputs_digest(const Options& o);
std::uint64_t svc_inputs_digest(const Options& o);

/// dist.timer_late_us.p50/p99: how late SocketTransport::schedule timers
/// fire, over `timers` seeded delays in [0, span_us). Workload-independent.
void add_timer_probe(Report& rep, std::uint64_t seed);

}  // namespace bench
