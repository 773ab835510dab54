// The two in-process race workloads: closed loops of kPool alternative
// blocks (run_alternatives) with bodies owned by the benchmark.
//
//   race_cow   — one driver, 3-way races over a 1024-page world; every
//                alternative COW-writes 64 seeded pages, then runs a fixed
//                recurrence. Fork, copy and commit carry most of the cost.
//   race_prune — two driver loops, each a task on its own pool worker,
//                run races of one short, high-priority alternative and slow
//                siblings that write nothing. The worker runs the winner
//                itself and the siblings are revoked unstarted, so world
//                fork, submit, revoke and commit carry most of the cost,
//                with no cross-thread wake-up in a race.
//
// Every layer is timed from outside: the driver stamps the call and return
// of run_alternatives, each body stamps its own entry and exit (and, when
// traced, each first store to a page), and the library's counters
// (OverheadBreakdown, SchedStats, PagePool stats) are read as deltas.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "core/alt_context.hpp"
#include "core/runtime.hpp"
#include "core/runtime_auditor.hpp"
#include "pagestore/page_pool.hpp"
#include "trace/trace_cli.hpp"
#include "util/cli.hpp"
#include "workloads.hpp"

namespace bench {

namespace {

constexpr std::uint64_t kStepMultiplier = 6364136223846793005ull;
constexpr std::size_t kMaxAlts = 8;
// Shared by both race workloads; what differs between them comes from
// perfbench/workloads.json.
constexpr std::size_t kPageSize = 4096;
constexpr std::size_t kWorldPages = 1024;
constexpr std::size_t kSetups = 7;  // time shares of a run
constexpr std::uint64_t kSegmentRaces = 60'000;  // a segment's race cap

inline void keep(std::uint64_t v) { asm volatile("" : : "r"(v) : "memory"); }

/// The checkable work every body ends with.
/// A body passes a cancellation checkpoint every `checkpoint_every` steps;
/// the driver's recomputation passes none.
std::uint64_t recurrence(std::uint64_t acc, std::uint64_t iters,
                         mw::AltContext* ctx, std::uint64_t checkpoint_every) {
  for (std::uint64_t i = 0; i < iters;) {
    const std::uint64_t stop = std::min(iters, i + checkpoint_every);
    for (; i < stop; ++i) acc = acc * kStepMultiplier + i;
    if (ctx != nullptr) ctx->checkpoint();
  }
  return acc;
}

struct RaceParams {
  std::size_t alternatives = 3;
  std::size_t pages_per_alt = 64;
  std::uint64_t work_iters = 0;  // every alternative's checkable work
  std::uint64_t slow_pad_iters = 0;  // extra work of alternatives 2..n
  double fast_priority = 0;      // priority of alternative 1
  std::size_t drivers = 1;
  std::size_t warmup_races = 100;
  std::uint64_t checkpoint_every = 4096;
  std::uint64_t rss_after_races = 0;
  bool pool_drivers = false;  // driver loops run as tasks on the pool

  static RaceParams from(const Options& o) {
    o.require_only({"alternatives", "pages_per_alt", "work_iters",
                    "slow_pad_iters", "fast_priority", "drivers",
                    "warmup_races", "checkpoint_every", "rss_after_races",
                    "pool_drivers"});
    RaceParams p;
    p.alternatives = static_cast<std::size_t>(o.integer("alternatives"));
    p.pages_per_alt = static_cast<std::size_t>(o.integer("pages_per_alt"));
    p.work_iters = static_cast<std::uint64_t>(o.integer("work_iters"));
    p.slow_pad_iters = static_cast<std::uint64_t>(o.integer("slow_pad_iters"));
    p.fast_priority = o.num("fast_priority");
    p.drivers = static_cast<std::size_t>(o.integer("drivers"));
    p.warmup_races = static_cast<std::size_t>(o.integer("warmup_races"));
    p.checkpoint_every =
        static_cast<std::uint64_t>(o.integer("checkpoint_every"));
    p.rss_after_races = static_cast<std::uint64_t>(o.integer("rss_after_races"));
    p.pool_drivers = o.integer("pool_drivers") != 0;
    return p;
  }
};

/// One race's inputs, made from (seed, driver, race number) alone.
struct RaceInput {
  std::uint64_t key = 0;
  // pages[a] = the distinct pages alternative a writes; value of its j-th
  // write is written_value(key, a, j).
  std::vector<std::vector<std::uint32_t>> pages;
};

std::uint64_t written_value(std::uint64_t key, std::size_t alt,
                            std::size_t j) {
  return mix64(key, (alt << 32) | j) | 1;  // never 0: a zero page reads 0
}

void make_input(const RaceParams& p, std::uint64_t seed, std::size_t driver,
                std::uint64_t race, RaceInput& in,
                std::vector<std::uint8_t>& taken) {
  in.key = mix64(seed, (static_cast<std::uint64_t>(driver) << 40) | race);
  in.pages.resize(p.alternatives);
  SplitMix rng(in.key);
  for (std::size_t a = 0; a < p.alternatives; ++a) {
    auto& pages = in.pages[a];
    pages.clear();
    std::fill(taken.begin(), taken.end(), 0);
    while (pages.size() < p.pages_per_alt) {
      const auto pg = static_cast<std::uint32_t>(rng.below(kWorldPages));
      if (taken[pg]) continue;
      taken[pg] = 1;
      pages.push_back(pg);
    }
  }
}

/// Offset of alternative a's j-th write: a seeded page, a slot that
/// differs per write so alternatives sharing a page still differ.
std::uint64_t write_offset(std::uint32_t page, std::size_t j) {
  return static_cast<std::uint64_t>(page) * kPageSize +
         (j * sizeof(std::uint64_t)) % kPageSize;
}

std::uint64_t expected_result(const RaceParams& p, const RaceInput& in,
                              std::size_t alt) {
  std::uint64_t acc = in.key ^ alt;
  for (std::size_t j = 0; j < in.pages[alt].size(); ++j)
    acc ^= written_value(in.key, alt, j);
  return recurrence(acc, p.work_iters, nullptr, p.work_iters + 1);
}

/// Stamps written by the bodies of the current race; each body owns its
/// slot, and run_alternatives returns only after every body is terminal.
struct RaceStamps {
  std::int64_t entry[kMaxAlts] = {};
  std::int64_t exit[kMaxAlts] = {};
  std::int64_t cow_ns[kMaxAlts] = {};
  std::uint64_t cow_writes[kMaxAlts] = {};
};

/// A race whose result is checked after the timed loop; its inputs are
/// made again from (seed, driver, race number).
struct Pending {
  std::uint64_t race_no = 0;
  std::size_t winner = 0;
  std::uint64_t result = 0;
};

/// Stamps a body's exit however it ends (a cancelled loser unwinds), and
/// records its span in a traced pass.
struct ExitStamp {
  std::int64_t& slot;
  bool traced;
  std::uint64_t id;
  std::int64_t entry;
  ~ExitStamp() {
    slot = now_ns();
    if (traced) SpanLog::get().record("body", id, entry, slot);
  }
};

/// Everything a pass records, merged across drivers.
struct PassLog {
  std::vector<double> latency_us;
  std::uint64_t races = 0;
  std::uint64_t verified = 0;
  // Layer parts, summed over races (µs).
  double elapsed_us = 0, queue_wait_us = 0, winner_body_us = 0,
         sync_to_return_us = 0, setup_us = 0, elim_us = 0, commit_us = 0;
  double body_ns = 0, loser_body_ns = 0;
  std::uint64_t spawned = 0, revoked = 0;
  std::uint64_t pages_copied = 0, loser_pages_copied = 0;
  double cow_ns = 0;
  std::uint64_t cow_writes = 0;
  double seconds = 0;
  double cpu_s = 0;

  void merge(const PassLog& o) {
    latency_us.insert(latency_us.end(), o.latency_us.begin(),
                      o.latency_us.end());
    races += o.races;
    verified += o.verified;
    elapsed_us += o.elapsed_us;
    queue_wait_us += o.queue_wait_us;
    winner_body_us += o.winner_body_us;
    sync_to_return_us += o.sync_to_return_us;
    setup_us += o.setup_us;
    elim_us += o.elim_us;
    commit_us += o.commit_us;
    body_ns += o.body_ns;
    loser_body_ns += o.loser_body_ns;
    spawned += o.spawned;
    revoked += o.revoked;
    pages_copied += o.pages_copied;
    loser_pages_copied += o.loser_pages_copied;
    cow_ns += o.cow_ns;
    cow_writes += o.cow_writes;
  }
};

/// One set-up: a kPool runtime, one populated root world per driver, and
/// the auditor that must find it clean at the end.
struct Rig {
  const RaceParams& p;
  std::unique_ptr<mw::RuntimeAuditor> auditor;
  std::unique_ptr<mw::Runtime> rt;
  std::vector<std::unique_ptr<mw::World>> roots;
  std::vector<std::uint64_t> next_race;  // per driver
  // Peak RSS is sampled once the drivers together have run rss_after_races
  // measured races: memory at a fixed amount of work, so a faster system
  // is not charged for the process-table growth of the extra races it ran.
  std::atomic<std::uint64_t> measured_races{0};
  std::atomic<bool> rss_sampled{false};
  double rss_mb = 0;

  Rig(const RaceParams& params, std::uint64_t seed, std::size_t workers,
      std::uint64_t first_race)
      : p(params) {
    auditor = std::make_unique<mw::RuntimeAuditor>();
    mw::RuntimeConfig cfg;
    cfg.backend = mw::AltBackend::kPool;
    cfg.page_size = kPageSize;
    cfg.num_pages = kWorldPages;
    cfg.seed = seed;
    cfg.pool.workers = workers;
    rt = std::make_unique<mw::Runtime>(cfg);
    rt->scheduler();  // start the workers now, not inside the first race
    for (std::size_t d = 0; d < p.drivers; ++d) {
      roots.push_back(std::make_unique<mw::World>(
          rt->make_root("driver-" + std::to_string(d))));
      // Materialize every page so alternatives' writes are COW breaks.
      for (std::size_t pg = 0; pg < kWorldPages; ++pg)
        roots.back()->space().store<std::uint64_t>(pg * kPageSize, pg);
      auditor->add_world(*roots.back());
    }
    next_race.assign(p.drivers, first_race);
  }
};

/// Runs races on driver `d` until `deadline_ns` (or `max_races`), logging
/// into `log`. Result checks are deferred to `pending` so the loop times
/// only the system; page checks run right after the commit they test.
void drive(Rig& rig, std::size_t d, std::uint64_t seed,
           std::int64_t deadline_ns, std::uint64_t max_races, bool traced,
           bool count_for_rss, PassLog& log, std::vector<std::string>& errors,
           std::vector<Pending>& pending) {
  const RaceParams& p = rig.p;
  mw::World& root = *rig.roots[d];
  RaceInput in;
  std::vector<std::uint8_t> taken(kWorldPages, 0);
  RaceStamps st;
  SpanLog& spans = SpanLog::get();

  std::vector<mw::Alternative> alts(p.alternatives);
  for (std::size_t a = 0; a < p.alternatives; ++a) {
    alts[a].name = "alt" + std::to_string(a + 1);
    alts[a].priority = a == 0 ? p.fast_priority : 0.0;
    alts[a].body = [&, a](mw::AltContext& ctx) {
      const std::int64_t t_in = now_ns();
      st.entry[a] = t_in;
      ExitStamp out{st.exit[a], traced, in.key, t_in};
      std::uint64_t acc = in.key ^ a;
      const auto& pages = in.pages[a];
      for (std::size_t j = 0; j < pages.size(); ++j) {
        const std::uint64_t v = written_value(in.key, a, j);
        const std::uint64_t off = write_offset(pages[j], j);
        if (traced) {
          const std::int64_t t0 = now_ns();
          ctx.space().store<std::uint64_t>(off, v);
          st.cow_ns[a] += now_ns() - t0;
          ++st.cow_writes[a];
        } else {
          ctx.space().store<std::uint64_t>(off, v);
        }
        acc ^= v;
      }
      if (a != 0 && p.slow_pad_iters > 0)
        keep(recurrence(in.key, p.slow_pad_iters, &ctx, p.checkpoint_every));
      const std::uint64_t r =
          recurrence(acc, p.work_iters, &ctx, p.checkpoint_every);
      ctx.set_result(std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(&r), sizeof r));
    };
  }

  while (log.races < max_races && now_ns() < deadline_ns) {
    const std::uint64_t race_no = rig.next_race[d]++;
    make_input(p, seed, d, race_no, in, taken);
    st = RaceStamps{};
    const std::int64_t t_call = now_ns();
    const mw::AltOutcome out = mw::run_alternatives(*rig.rt, root, alts);
    const std::int64_t t_ret = now_ns();
    if (traced) spans.record("run_alternatives", in.key, t_call, t_ret);

    ++log.races;
    if (count_for_rss &&
        rig.measured_races.fetch_add(1) + 1 == p.rss_after_races) {
      rig.rss_mb = peak_rss_mb_self();
      rig.rss_sampled = true;
    }
    if (out.failed || !out.winner || out.result.size() != sizeof(std::uint64_t)) {
      errors.push_back("race failed without a winner");
      continue;
    }
    const std::size_t w = *out.winner;
    // The committed pages must hold the winner's writes.
    bool pages_ok = true;
    for (std::size_t j = 0; j < in.pages[w].size(); ++j) {
      const auto got = root.space().load<std::uint64_t>(
          write_offset(in.pages[w][j], j));
      if (got != written_value(in.key, w, j)) pages_ok = false;
    }
    if (!pages_ok) {
      errors.push_back("committed pages do not hold the winner's writes");
      continue;
    }
    std::uint64_t result = 0;
    std::memcpy(&result, out.result.data(), sizeof result);
    pending.push_back({race_no, w, result});

    const double lat = static_cast<double>(t_ret - t_call) / 1e3;
    log.latency_us.push_back(lat);
    log.elapsed_us += lat;
    std::int64_t first = 0;
    for (std::size_t a = 0; a < p.alternatives; ++a) {
      if (st.entry[a] == 0) continue;
      if (first == 0 || st.entry[a] < first) first = st.entry[a];
      const double body = static_cast<double>(st.exit[a] - st.entry[a]);
      log.body_ns += body;
      if (a != w) log.loser_body_ns += body;
      log.cow_ns += static_cast<double>(st.cow_ns[a]);
      log.cow_writes += st.cow_writes[a];
    }
    log.queue_wait_us += static_cast<double>(first - t_call) / 1e3;
    log.winner_body_us +=
        static_cast<double>(st.exit[w] - st.entry[w]) / 1e3;
    log.sync_to_return_us += static_cast<double>(t_ret - st.exit[w]) / 1e3;
    log.setup_us += static_cast<double>(out.overhead.setup);
    log.elim_us += static_cast<double>(out.overhead.elimination);
    log.commit_us += static_cast<double>(out.overhead.commit);
    for (const mw::AltReport& r : out.alts) {
      if (!r.spawned) continue;
      ++log.spawned;
      if (r.revoked) ++log.revoked;
      log.pages_copied += r.pages_copied;
      if (!r.success) log.loser_pages_copied += r.pages_copied;
    }
  }
}

struct PassResult {
  PassLog log;
  mw::SchedStats sched_delta;
  std::uint64_t pool_hits = 0, pool_misses = 0;
};

/// One measured pass of `seconds` over an existing rig.
PassResult run_pass(Rig& rig, std::uint64_t seed, double seconds, bool traced,
                    Report& rep, std::uint64_t max_races_per_driver,
                    bool count_for_rss = false) {
  const RaceParams& p = rig.p;
  const mw::SchedStats s0 = rig.rt->scheduler().stats();
  const auto pool0 = mw::PagePool::global().stats();
  const double cpu0 = cpu_seconds_self();
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline =
      t0 + static_cast<std::int64_t>(seconds * 1e9);

  std::vector<PassLog> logs(p.drivers);
  std::vector<std::vector<std::string>> errors(p.drivers);
  std::vector<std::vector<Pending>> pending(p.drivers);
  auto run_driver = [&](std::size_t d) {
    drive(rig, d, seed, deadline, max_races_per_driver, traced,
          count_for_rss, logs[d], errors[d], pending[d]);
  };
  if (p.pool_drivers) {
    // Each driver loop is a task on its own pool worker, so its races are
    // nested in a worker: the worker runs its own alternatives while it
    // waits (the scheduler's helping path). No driver starts racing until
    // every driver task has a worker, so a helping worker never picks up
    // another driver's loop.
    std::mutex mu;
    std::condition_variable cv;
    std::size_t started = 0, finished = 0;
    for (std::size_t d = 0; d < p.drivers; ++d)
      rig.rt->scheduler().submit(
          [&, d] {
            {
              std::unique_lock<std::mutex> lk(mu);
              ++started;
              cv.notify_all();
              cv.wait(lk, [&] { return started == p.drivers; });
            }
            // An exception must not leave the pass waiting forever.
            try {
              run_driver(d);
            } catch (const std::exception& e) {
              errors[d].push_back(std::string("driver failed: ") + e.what());
            }
            std::lock_guard<std::mutex> lk(mu);
            ++finished;
            cv.notify_all();
          },
          0.0, 0, mw::kNoPid);
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return finished == p.drivers; });
  } else {
    std::vector<std::thread> threads;
    for (std::size_t d = 0; d < p.drivers; ++d)
      threads.emplace_back(run_driver, d);
    for (auto& t : threads) t.join();
  }

  PassResult res;
  res.log.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  res.log.cpu_s = cpu_seconds_self() - cpu0;
  const mw::SchedStats s1 = rig.rt->scheduler().stats();
  res.sched_delta.executed = s1.executed - s0.executed;
  res.sched_delta.stolen = s1.stolen - s0.stolen;
  res.sched_delta.revoked = s1.revoked - s0.revoked;
  res.sched_delta.admission_deferred =
      s1.admission_deferred - s0.admission_deferred;
  const auto pool1 = mw::PagePool::global().stats();
  res.pool_hits = pool1.hits - pool0.hits;
  res.pool_misses = pool1.misses - pool0.misses;

  for (std::size_t d = 0; d < p.drivers; ++d) {
    res.log.merge(logs[d]);
    for (const std::string& e : errors[d]) rep.violation(e);
    // Deferred result checks: the winner's result equals the recomputed
    // expected value of that alternative.
    RaceInput in;
    std::vector<std::uint8_t> taken(kWorldPages, 0);
    for (const Pending& w : pending[d]) {
      make_input(p, seed, d, w.race_no, in, taken);
      if (expected_result(p, in, w.winner) == w.result) {
        ++res.log.verified;
      } else {
        rep.violation("winner result differs from the expected value");
      }
    }
  }
  rep.attempted += res.log.races;
  return res;
}

void audit(Rig& rig, Report& rep) {
  const mw::AuditReport a = rig.auditor->run(rig.rt->processes());
  if (!a.clean()) {
    std::istringstream lines(a.to_string());
    std::string line;
    while (std::getline(lines, line)) rep.note("audit: " + line);
    rep.violation("RuntimeAuditor is not clean");
  }
}

/// One set-up; segment k numbers its races from k << 32, so no two
/// segments of a run repeat an input.
std::unique_ptr<Rig> set_up(const RaceParams& p, std::uint64_t seed,
                            std::size_t workers, std::uint64_t segment,
                            Report& rep) {
  auto rig = std::make_unique<Rig>(p, seed, workers, segment << 32);
  // Warm-up races fill the page pool and the scheduler before timing.
  run_pass(*rig, seed, 1e9, false, rep, p.warmup_races / p.drivers + 1);
  return rig;
}

/// Set-ups measured back to back for `seconds`, and what they recorded.
struct Stretch {
  std::vector<double> setup_s, goodput, p50, p99, cpu;  // one per segment
  double rss_mb = 0;
  PassResult total;  // logs, scheduler and pool deltas summed over segments
  std::size_t segments = 0;
};

/// Runs segments on fresh set-ups (new runtime, new worker threads) until
/// `seconds` have passed. A segment lasts 1/kSetups of the time or
/// kSegmentRaces races, whichever ends first: each metric is the median
/// over segments, so a host hiccup spoils a segment, not the run, and a
/// fast workload's process table (which keeps every pid) stays bounded.
/// Segment numbers start at `first_segment`; a stretch that starts at 0
/// samples peak RSS in its first segment, in a process that has run
/// nothing else (later segments inherit a heap the earlier ones
/// fragmented, and their peak drifted up by segment index).
Stretch measure(const RaceParams& p, std::uint64_t seed, double seconds,
                bool traced, std::size_t workers, std::uint64_t first_segment,
                Report& rep) {
  Stretch s;
  const double share = seconds / static_cast<double>(kSetups);
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  const bool sample_rss = first_segment == 0;
  if (sample_rss) reset_peak_rss();
  for (std::uint64_t k = first_segment;; ++k) {
    const double left = static_cast<double>(end - now_ns()) / 1e9;
    if (s.segments > 0 && left < share / 2) break;
    const bool first = s.segments == 0;
    const std::int64_t t0 = now_ns();
    auto rig = set_up(p, seed, workers, k, rep);
    s.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    const PassResult r =
        run_pass(*rig, seed, std::min(share, left), traced, rep,
                 kSegmentRaces / p.drivers, sample_rss && first);
    audit(*rig, rep);
    if (sample_rss && first) {
      if (!rig->rss_sampled) {
        rep.note("the first segment ran fewer than rss_after_races races; "
                 "its RSS is sampled at its end");
        rig->rss_mb = peak_rss_mb_self();
      }
      s.rss_mb = rig->rss_mb;
    }
    const PassLog& S = r.log;
    s.goodput.push_back(static_cast<double>(S.verified) / S.seconds);
    s.p50.push_back(percentile(S.latency_us, 0.50));
    s.p99.push_back(percentile(S.latency_us, 0.99));
    s.cpu.push_back(S.cpu_s * 1e6 /
                    std::max<double>(1, static_cast<double>(S.verified)));
    PassResult& t = s.total;
    t.log.merge(S);
    t.log.seconds += S.seconds;
    t.sched_delta.executed += r.sched_delta.executed;
    t.sched_delta.stolen += r.sched_delta.stolen;
    t.sched_delta.revoked += r.sched_delta.revoked;
    t.sched_delta.admission_deferred += r.sched_delta.admission_deferred;
    t.pool_hits += r.pool_hits;
    t.pool_misses += r.pool_misses;
    ++s.segments;
  }
  return s;
}

}  // namespace

std::uint64_t race_inputs_digest(const Options& o) {
  const RaceParams p = RaceParams::from(o);
  RaceInput in;
  std::vector<std::uint8_t> taken(kWorldPages, 0);
  std::uint64_t h = 0;
  for (std::size_t d = 0; d < p.drivers; ++d)
    for (std::uint64_t race = 0; race < 1000; ++race) {
      make_input(p, o.seed, d, race, in, taken);
      h = mix64(h ^ in.key);
      for (const auto& pages : in.pages)
        for (std::uint32_t pg : pages) h = mix64(h, pg);
    }
  return h;
}

int run_races(const Options& o, Report& rep) {
  const RaceParams p = RaceParams::from(o);
  if (p.alternatives < 1 || p.alternatives > kMaxAlts || p.drivers < 1 ||
      p.pages_per_alt > kWorldPages || p.checkpoint_every < 1) {
    std::cerr << "mwbench: race constants out of range\n";
    return 2;
  }
  const int cores = nproc();
  // Driver loops on the pool need exactly one worker each; drivers on
  // their own threads share the rest of the cores with the workers.
  const std::size_t workers =
      p.pool_drivers ? p.drivers
                     : static_cast<std::size_t>(
                           std::max(1, cores - static_cast<int>(p.drivers)));
  rep.note("threads: " + std::to_string(p.drivers) + " driver(s)" +
           (p.pool_drivers ? " running as tasks on " : " + ") +
           std::to_string(workers) + " pool worker(s) (budget nproc=" +
           std::to_string(cores) + ")");

  if (!o.trace) {
    const Stretch s = measure(p, o.seed, o.seconds, false, workers, 0, rep);
    rep.add("goodput_ops_s", percentile(s.goodput, 0.5), "1/s");
    rep.add("latency_p50_us", percentile(s.p50, 0.5), "us");
    rep.add("latency_p99_us", percentile(s.p99, 0.5), "us");
    rep.add("overload_p99_us", percentile(s.p99, 0.5), "us");
    rep.add("cpu_us_per_op", percentile(s.cpu, 0.5), "us");
    rep.add("peak_rss_mb", s.rss_mb, "MB");
    rep.add("setup_s", percentile(s.setup_s, 0.5), "s");
    const std::size_t n = s.total.log.races;
    rep.note("races: " + std::to_string(n) + " over " +
             std::to_string(s.segments) + " segments (p99 per segment over " +
             std::to_string(n / std::max<std::size_t>(1, s.segments)) +
             " on average); overload_p99_us repeats latency_p99_us: a "
             "closed loop has no overload phase");
    return 0;
  }

  // Traced run: an untraced stretch and a traced one, half the time each;
  // per-layer numbers come from the traced one.
  const Stretch plain_run =
      measure(p, o.seed, o.seconds / 2, false, workers, 1 << 16, rep);
  SpanLog::get().set_enabled(true);
  std::vector<std::string> args = {"mwbench", "--profile"};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  mw::Cli cli(static_cast<int>(argv.size()), argv.data());
  mw::trace::TraceSession session(cli);
  const Stretch traced_run =
      measure(p, o.seed, o.seconds / 2, true, workers, 1 << 17, rep);
  std::ostringstream profile_text;
  session.finish(profile_text);
  SpanLog::get().set_enabled(false);
  const PassResult& plain = plain_run.total;
  const PassResult& traced = traced_run.total;

  const PassLog& L = traced.log;
  const double races = std::max<double>(1, static_cast<double>(L.races));
  const double gp_plain =
      static_cast<double>(plain.log.verified) / plain.log.seconds;
  const double gp_traced = static_cast<double>(L.verified) / L.seconds;
  const double parts = L.queue_wait_us + L.winner_body_us +
                       L.sync_to_return_us;

  add_timer_probe(rep, o.seed);
  rep.add("core.queue_wait_us", L.queue_wait_us / races, "us");
  rep.add("core.winner_body_us", L.winner_body_us / races, "us");
  rep.add("core.sync_to_return_us", L.sync_to_return_us / races, "us");
  rep.add("core.setup_us", L.setup_us / races, "us");
  rep.add("core.elim_us", L.elim_us / races, "us");
  rep.add("core.commit_us", L.commit_us / races, "us");
  rep.add("core.unattributed_share",
          L.elapsed_us > 0 ? (L.elapsed_us - parts) / L.elapsed_us : 0,
          "ratio");
  rep.add("core.waste_ratio", L.body_ns > 0 ? L.loser_body_ns / L.body_ns : 0,
          "ratio");
  rep.add("core.revoked_share",
          L.spawned ? static_cast<double>(L.revoked) /
                          static_cast<double>(L.spawned)
                    : 0,
          "ratio");
  rep.add("sched.stolen_per_race",
          static_cast<double>(traced.sched_delta.stolen) / races, "count");
  rep.add("sched.revoked_per_race",
          static_cast<double>(traced.sched_delta.revoked) / races, "count");
  rep.add("sched.executed_per_race",
          static_cast<double>(traced.sched_delta.executed) / races, "count");
  rep.add("sched.admission_deferred",
          static_cast<double>(traced.sched_delta.admission_deferred),
          "count");
  rep.add("pagestore.pages_copied_per_race",
          static_cast<double>(L.pages_copied) / races, "count");
  rep.add("pagestore.loser_pages_copied_per_race",
          static_cast<double>(L.loser_pages_copied) / races, "count");
  rep.add("pagestore.cow_write_us",
          L.cow_writes ? L.cow_ns / 1e3 / static_cast<double>(L.cow_writes)
                       : 0,
          "us");
  const double pool_ops =
      static_cast<double>(traced.pool_hits + traced.pool_misses);
  rep.add("pagestore.pool_hit_share",
          pool_ops > 0 ? static_cast<double>(traced.pool_hits) / pool_ops : 0,
          "ratio");
  rep.add("trace.overhead_share", gp_plain > 0 ? 1 - gp_traced / gp_plain : 0,
          "ratio");

  const std::string spans_path = o.out_dir + "/spans_" + o.workload + "_" +
                                 std::to_string(o.seed) + ".json";
  SpanLog::get().write_chrome(spans_path, 1);
  const auto& prof = session.profile();
  rep.note("trace: " + std::to_string(SpanLog::get().size()) +
           " spans written to " + spans_path + " (" +
           std::to_string(SpanLog::get().dropped()) +
           " more not kept); runtime trace " +
           std::to_string(prof.events) + " events (" +
           std::to_string(prof.dropped) + " dropped), " +
           std::to_string(prof.worlds_spawned()) + " worlds spawned");
  rep.note("traced: " + std::to_string(L.races) + " races over " +
           std::to_string(traced_run.segments) + " segments; untraced " +
           std::to_string(plain.log.races) + " over " +
           std::to_string(plain_run.segments));
  return 0;
}

}  // namespace bench
