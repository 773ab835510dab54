// SpecProfile: speculation-efficiency metrics derived from the raw trace
// stream. The paper's core trade is throughput burned as wasted speculative
// work in exchange for response time; this aggregator makes the burn rate a
// number. Grouped per race (alt group id) and totalled:
//
//   * worlds spawned vs. survived (committed) vs. eliminated/aborted;
//   * wasted-work ratio — losing alternatives' execution time over all
//     alternatives' execution time (0 = no speculation overhead,
//     (k-1)/k = perfectly balanced k-way race);
//   * pages copied by losers — COW traffic thrown away at elimination;
//   * time-to-first-win vs. time-to-quiesce — how long before the block
//     had its answer vs. how long until the last loser stopped burning
//     cycles (identical in the DES backends, which eliminate losers
//     instantly; they diverge on the threaded pool backend).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace mw::trace {

/// Per-race (per alt-group) speculation accounting.
struct RaceProfile {
  std::uint64_t group = 0;
  Pid parent = kNoPid;
  std::size_t spawned = 0;     // worlds forked for this race
  std::size_t survived = 0;    // worlds that won their sync (committed)
  std::size_t eliminated = 0;  // losers killed by a sibling's win
  std::size_t aborted = 0;     // self-aborts (guard/body/accept failure)
  std::size_t splits = 0;      // receiver splits charged to this race
  VDuration work_total = 0;    // sum of all alternatives' execution time
  VDuration work_wasted = 0;   // execution time of non-surviving worlds
  std::uint64_t pages_copied_total = 0;
  std::uint64_t pages_copied_losers = 0;
  /// Pool backend: losers revoked while still queued — their bodies never
  /// ran and they copied zero pages. Counted inside `eliminated` too.
  std::size_t revoked = 0;
  /// COW pages the revoked siblings had copied when pruned. The pruning
  /// guarantee is that this is always 0; the bench asserts it.
  std::uint64_t revoked_pages = 0;
  VTime first_win = kNoTraceTime;  // earliest kAltSync timestamp
  VTime quiesce = kNoTraceTime;    // latest child-end/eliminate timestamp
  bool timed_out = false;          // block ended with no winner

  /// Fraction of alternative execution time spent in worlds that lost.
  double wasted_ratio() const {
    return work_total > 0
               ? static_cast<double>(work_wasted) /
                     static_cast<double>(work_total)
               : 0.0;
  }
};

/// One PagePool shard's counters at profile time. The trace layer defines
/// only the carrier struct (it cannot depend on the pagestore); the pool
/// fills it via PagePool::fold_into, typically through TraceSession's
/// profile hook. hits/misses/steal_refills are attributed to the shard the
/// allocating thread was homed to, recycled/overflows to the shard the
/// frame landed in.
struct PoolShardCounters {
  std::size_t shard = 0;  // 0 = the unbound-thread global fallback shard
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t recycled = 0;
  std::uint64_t dropped = 0;
  std::uint64_t steal_refills = 0;
  std::uint64_t overflows = 0;
  std::uint64_t frames_held = 0;
};

/// Whole-run aggregation over a trace stream.
struct SpecProfile {
  std::vector<RaceProfile> races;  // in first-seen order
  std::uint64_t events = 0;        // trace records consumed
  std::uint64_t dropped = 0;       // ring drops (metrics are lower bounds)
  std::uint64_t page_copies = 0;   // all kPageCopy events
  std::uint64_t page_copy_bytes = 0;
  std::uint64_t msg_accepted = 0;
  std::uint64_t msg_ignored = 0;
  std::uint64_t msg_split = 0;
  std::uint64_t gate_deferred = 0;
  std::uint64_t gate_released = 0;
  std::uint64_t gate_dropped = 0;
  std::uint64_t restarts = 0;   // supervisor restarts + dist failovers
  // Speculation-scheduler traffic (kPool backend).
  std::uint64_t sched_enqueued = 0;
  std::uint64_t sched_steals = 0;
  std::uint64_t sched_admission_deferred = 0;
  // Transport health (Sim/Socket backends + reliable channel): how many
  // frames moved, how hard the retry discipline worked, and whether peers
  // went suspect/dead — the observable shape of a partition or a slow link.
  std::uint64_t net_sends = 0;
  std::uint64_t net_send_bytes = 0;
  std::uint64_t net_delivered = 0;
  std::uint64_t net_retransmits = 0;
  VDuration net_backoff_total = 0;   // RTO ticks paid across retransmits
  std::uint64_t net_timeouts = 0;    // transfers that gave up
  std::uint64_t net_deadline_expired = 0;  // subset: per-request deadline
  std::uint64_t net_peer_suspects = 0;
  std::uint64_t net_peer_deaths = 0;
  std::uint64_t net_partition_drops = 0;
  // Hedged-speculation service (src/service: HedgedServer).
  std::uint64_t svc_requests = 0;         // executable arrivals admitted
  std::uint64_t svc_ok = 0;               // OK responses committed
  std::uint64_t svc_replays = 0;          // duplicates answered from cache
  std::uint64_t svc_sheds = 0;            // requests refused at admission
  std::uint64_t svc_hedges = 0;           // hedge attempts dispatched
  std::uint64_t svc_failovers = 0;        // attempts re-dispatched after a
                                          //   backend went dead/broke
  std::uint64_t svc_brownout_enters = 0;  // hedging disabled under load
  std::uint64_t svc_breaker_opens = 0;    // circuit-breaker open transitions
  std::uint64_t svc_local_fallbacks = 0;  // degraded to the local kPool race
  // Cluster layer (src/service/cluster.hpp: ClusterNode).
  std::uint64_t svc_cluster_evictions = 0;  // nodes dropped from the ring
  std::uint64_t svc_cluster_rejoins = 0;    // nodes re-added after probation
  std::uint64_t svc_cluster_handoffs = 0;   // kSvcHandoff frames sent
  std::uint64_t svc_cluster_misroutes = 0;  // requests refused as non-owner
  // Adaptive speculation policy (src/core/spec_policy.hpp). All zero in
  // kStatic mode, which emits no policy events.
  std::uint64_t policy_width_updates = 0;  // admission-width moves
  std::uint64_t policy_orders = 0;         // race plans with a ranked order
  std::uint64_t policy_defers = 0;         // last-ranked picks + split vetoes
  std::uint64_t policy_explores = 0;       // floor/epsilon boosts
  std::uint64_t policy_hedges = 0;         // p95-derived hedge delays
  // Per-shard frame-pool counters (empty unless a caller folded them in;
  // see PagePool::fold_into and TraceSession::set_profile_hook).
  std::vector<PoolShardCounters> pool_shards;

  std::size_t worlds_spawned() const;
  std::size_t worlds_survived() const;
  std::size_t worlds_eliminated() const;
  VDuration work_total() const;
  VDuration work_wasted() const;
  std::uint64_t pages_copied_losers() const;
  std::size_t worlds_revoked() const;
  std::uint64_t revoked_pages() const;
  double wasted_ratio() const;

  /// Compact multi-line text summary for benches and altc_tool.
  std::string to_string() const;
};

/// Builds the profile from a trace stream (as returned by collect()).
/// `dropped` is the collector's dropped() counter at snapshot time; when
/// non-zero the derived metrics are lower bounds and to_string says so.
SpecProfile build_spec_profile(const std::vector<TraceEvent>& events,
                               std::uint64_t dropped = 0);

}  // namespace mw::trace
