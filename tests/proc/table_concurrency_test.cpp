// Thread-safety of the process table: the wall-clock backend's worker
// threads create processes and publish status transitions concurrently.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>

#include "core/alt.hpp"
#include "core/alt_context.hpp"
#include "core/runtime.hpp"
#include "core/runtime_auditor.hpp"
#include "proc/process_table.hpp"

namespace mw {
namespace {

TEST(TableConcurrency, ParallelCreatesYieldUniquePids) {
  ProcessTable table;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::vector<Pid>> pids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i)
        pids[static_cast<std::size_t>(t)].push_back(table.create(kNoPid));
    });
  }
  for (auto& th : threads) th.join();
  std::set<Pid> all;
  for (const auto& v : pids) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(table.process_count(), all.size());
}

TEST(TableConcurrency, RacingTerminalTransitionsAtMostOneWins) {
  // Many threads race to terminate the same process with different
  // terminal states: exactly one transition may succeed.
  for (int round = 0; round < 20; ++round) {
    ProcessTable table;
    const Pid p = table.create(kNoPid);
    table.set_status(p, ProcStatus::kRunning);
    std::atomic<int> wins{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 6; ++t) {
      threads.emplace_back([&, t] {
        const ProcStatus status =
            t % 2 ? ProcStatus::kSynced : ProcStatus::kEliminated;
        if (table.set_status(p, status)) wins.fetch_add(1);
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(wins.load(), 1);
    EXPECT_TRUE(is_terminal(table.status(p)));
  }
}

TEST(TableConcurrency, ListenersSeeEveryAcceptedTransition) {
  ProcessTable table;
  std::atomic<int> events{0};
  table.subscribe([&](Pid, ProcStatus, ProcStatus) { events.fetch_add(1); });
  constexpr int kProcs = 100;
  std::vector<Pid> pids;
  for (int i = 0; i < kProcs; ++i) pids.push_back(table.create(kNoPid));
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = t; i < kProcs; i += 4) {
        table.set_status(pids[static_cast<std::size_t>(i)],
                         ProcStatus::kRunning);
        table.set_status(pids[static_cast<std::size_t>(i)],
                         ProcStatus::kSynced);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(events.load(), kProcs * 2);
}

TEST(TableConcurrency, CompletionOracleStableUnderReads) {
  ProcessTable table;
  const Pid p = table.create(kNoPid);
  std::atomic<bool> stop{false};
  std::atomic<int> flips{0};
  std::thread reader([&] {
    Completion last = Completion::kIndeterminate;
    while (!stop.load()) {
      const Completion c = table.complete(p);
      // Completion may change at most once: indeterminate -> true/false.
      if (c != last) {
        flips.fetch_add(1);
        last = c;
      }
    }
  });
  table.set_status(p, ProcStatus::kRunning);
  table.set_status(p, ProcStatus::kSynced);
  stop = true;
  reader.join();
  EXPECT_LE(flips.load(), 1);
  EXPECT_EQ(table.complete(p), Completion::kTrue);
}

TEST(TableConcurrency, ConcurrentChildrenOfOneParentAreCompleteAndAscending) {
  ProcessTable table;
  const Pid parent = table.create(kNoPid);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 150;
  std::vector<std::vector<Pid>> made(kThreads);
  std::atomic<bool> done{false};
  std::atomic<int> unordered{0};
  std::thread reader([&] {
    std::size_t seen = 0;
    while (!done.load()) {
      const std::vector<Pid> kids = table.get(parent).children;
      if (!std::is_sorted(kids.begin(), kids.end()) || kids.size() < seen)
        unordered.fetch_add(1);
      seen = kids.size();
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i)
        made[static_cast<std::size_t>(t)].push_back(table.create(parent));
    });
  }
  for (auto& th : threads) th.join();
  done = true;
  reader.join();
  std::vector<Pid> all;
  for (const auto& v : made) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(table.get(parent).children, all);
  EXPECT_EQ(unordered.load(), 0);
  for (Pid c : all) EXPECT_EQ(table.parent(c), parent);
}

TEST(TableConcurrency, ReadersRaceCreatesAcrossSegmentBoundaries) {
  // Enough pids to allocate several geometric segments while readers walk
  // the growing table: a published record is whole and stays published.
  ProcessTable table;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 600;
  std::atomic<int> writers_left{kWriters};
  std::atomic<int> bad{0};
  auto check_record = [&](const ProcessRecord& rec) {
    if (rec.alt_group < 1 || rec.alt_group > kWriters ||
        rec.label != "w" + std::to_string(rec.alt_group) ||
        is_terminal(rec.status)) {
      bad.fetch_add(1);
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::vector<bool> seen;
      while (writers_left.load() > 0) {
        const Pid hi = static_cast<Pid>(table.process_count() + 8);
        seen.resize(hi + 1, false);
        for (Pid p = 1; p <= hi; ++p) {
          if (!table.exists(p)) {
            if (seen[p]) bad.fetch_add(1);  // published, then vanished
            continue;
          }
          seen[p] = true;
          const ProcStatus st = table.status(p);
          if (st != ProcStatus::kReady && st != ProcStatus::kRunning)
            bad.fetch_add(1);
          const ProcessRecord rec = table.get(p);
          if (rec.pid != p || rec.alt_group != table.alt_group(p))
            bad.fetch_add(1);
          check_record(rec);
        }
        if (r == 0) {
          const std::vector<ProcessRecord> snap = table.snapshot();
          for (std::size_t i = 0; i < snap.size(); ++i) {
            if (i > 0 && snap[i].pid <= snap[i - 1].pid) bad.fetch_add(1);
            check_record(snap[i]);
          }
        }
      }
    });
  }
  std::vector<std::thread> writers;
  for (int w = 1; w <= kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const Pid p = table.create(kNoPid, static_cast<std::uint64_t>(w),
                                   "w" + std::to_string(w));
        table.set_status(p, ProcStatus::kRunning);
      }
      writers_left.fetch_sub(1);
    });
  }
  for (auto& th : writers) th.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(bad.load(), 0);
  const std::vector<ProcessRecord> snap = table.snapshot();
  ASSERT_EQ(snap.size(), static_cast<std::size_t>(kWriters * kPerWriter));
  for (std::size_t i = 0; i < snap.size(); ++i)
    EXPECT_EQ(snap[i].pid, static_cast<Pid>(i + 1));
  EXPECT_EQ(table.live_count(), snap.size());
}

TEST(TableConcurrency, ReservedAndUnallocatedPidsDoNotExist) {
  ProcessTable table;
  EXPECT_FALSE(table.exists(kNoPid));
  EXPECT_FALSE(table.exists(1));
  const Pid a = table.create(kNoPid);
  const Pid b = table.create(a);
  EXPECT_TRUE(table.exists(a));
  EXPECT_TRUE(table.exists(b));
  EXPECT_FALSE(table.exists(kNoPid));
  EXPECT_FALSE(table.exists(b + 1));  // same segment, not yet handed out
  EXPECT_FALSE(table.exists(1000));   // segment not allocated
  EXPECT_FALSE(table.exists(~Pid{0}));
  EXPECT_EQ(table.process_count(), 2u);
  EXPECT_EQ(table.create(kNoPid), b + 1);  // numbering continues densely
}

TEST(TableConcurrency, NestedPoolRacesBalanceSchedulerCounters) {
  // Two workers, outer races driven from this thread through the inbox and
  // inner races submitted from the workers to their own deques: once every
  // race has returned, each submitted task either ran, was revoked or was
  // faulted, and nothing is left running.
  RuntimeConfig cfg;
  cfg.backend = AltBackend::kPool;
  cfg.page_size = 256;
  cfg.num_pages = 16;
  cfg.pool.workers = 2;
  Runtime rt(cfg);
  RuntimeAuditor auditor;
  World root = rt.make_root("root");
  auditor.add_world(root);
  auto inner = [&rt](AltContext& ctx, int r) {
    const AltOutcome in = run_alternatives(
        rt, ctx.world(),
        {Alternative{"win", nullptr,
                     [r](AltContext& c) { c.space().store<int>(0, r); },
                     nullptr, 1.0},
         Alternative{"lose", nullptr,
                     [](AltContext& c) { c.fail("scripted"); }, nullptr,
                     0.0},
         Alternative{"other", nullptr,
                     [](AltContext& c) { c.space().store<int>(0, -1); },
                     nullptr, 0.0}});
    if (in.failed) ctx.fail("inner race failed");
  };
  for (int r = 1; r <= 100; ++r) {
    const AltOutcome out = run_alternatives(
        rt, root,
        {Alternative{"a", nullptr, [&, r](AltContext& c) { inner(c, r); },
                     nullptr, 1.0},
         Alternative{"b", nullptr, [&, r](AltContext& c) { inner(c, r); },
                     nullptr, 0.5}});
    ASSERT_FALSE(out.failed) << "race " << r;
  }
  const SchedStats s = rt.scheduler().stats();
  EXPECT_GT(s.submitted, 200u);
  EXPECT_EQ(s.submitted, s.executed + s.revoked + s.faulted);
  EXPECT_EQ(rt.scheduler().live_worlds(), 0u);
  const AuditReport audit = auditor.run(rt.processes());
  EXPECT_TRUE(audit.clean()) << audit.to_string();
}

}  // namespace
}  // namespace mw
