// Unit tests for the work-stealing speculation scheduler and the kPool
// backend built on it: priority order, queued-task revocation, bounded
// admission, helping waits, blocks run from a non-worker thread on real
// worker threads, and the bounded straggler reap.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/alt.hpp"
#include "core/alt_context.hpp"
#include "core/runtime.hpp"
#include "core/runtime_auditor.hpp"
#include "core/spec_scheduler.hpp"
#include "fault/fault.hpp"
#include "util/stopwatch.hpp"

namespace mw {
namespace {

SchedConfig det_config(std::uint64_t seed = 7) {
  SchedConfig cfg;
  cfg.deterministic_seed = seed;
  cfg.workers = 2;
  return cfg;
}

TEST(SpecScheduler, DeterministicDrainRunsEverySubmittedTask) {
  SpecScheduler sched(det_config());
  std::atomic<int> ran{0};
  for (int i = 0; i < 5; ++i)
    sched.submit([&] { ++ran; }, 0.0, 1, kNoPid);
  sched.drain();
  EXPECT_EQ(ran.load(), 5);
  EXPECT_EQ(sched.stats().submitted, 5u);
  EXPECT_EQ(sched.stats().executed, 5u);
}

TEST(SpecScheduler, HigherPriorityRunsFirstRegardlessOfSeed) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SpecScheduler sched(det_config(seed));
    std::vector<double> order;
    for (double p : {0.1, 0.9, 0.5})
      sched.submit([&order, p] { order.push_back(p); }, p, 1, kNoPid);
    sched.drain();
    EXPECT_EQ(order, (std::vector<double>{0.9, 0.5, 0.1})) << "seed=" << seed;
  }
}

TEST(SpecScheduler, RevokedTaskNeverRunsAndSkipCallbackFiresOnce) {
  SpecScheduler sched(det_config());
  std::atomic<int> ran{0};
  std::atomic<int> skipped{0};
  SchedTaskRef keep = sched.submit([&] { ++ran; }, 0.0, 1, kNoPid);
  SchedTaskRef drop = sched.submit([&] { ++ran; }, 0.0, 1, kNoPid,
                                   [&](SchedTask&) { ++skipped; });
  EXPECT_TRUE(sched.revoke(drop));
  EXPECT_FALSE(sched.revoke(drop));  // second attempt lost: already terminal
  sched.drain();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(skipped.load(), 1);
  EXPECT_EQ(keep->state(), SchedTask::State::kDone);
  EXPECT_EQ(drop->state(), SchedTask::State::kRevoked);
  EXPECT_TRUE(drop->never_ran());
  EXPECT_EQ(sched.stats().revoked, 1u);
  EXPECT_EQ(sched.stats().executed, 1u);
}

TEST(SpecScheduler, RevokeAfterExecutionFails) {
  SpecScheduler sched(det_config());
  SchedTaskRef t = sched.submit([] {}, 0.0, 1, kNoPid);
  sched.drain();
  EXPECT_EQ(t->state(), SchedTask::State::kDone);
  EXPECT_FALSE(sched.revoke(t));
}

TEST(SpecScheduler, DeterministicAdmissionRejectsOverBudgetImmediately) {
  SchedConfig cfg = det_config();
  cfg.max_live_worlds = 4;
  SpecScheduler sched(cfg);
  EXPECT_TRUE(sched.admit(3, kNoPid, 1));
  EXPECT_EQ(sched.live_worlds(), 3u);
  // Nothing can release capacity in single-threaded mode: defer resolves
  // to an immediate reject.
  EXPECT_FALSE(sched.admit(2, kNoPid, 2));
  EXPECT_EQ(sched.stats().admission_deferred, 1u);
  EXPECT_EQ(sched.stats().admission_rejected, 1u);
  sched.release(3);
  EXPECT_TRUE(sched.admit(2, kNoPid, 3));
  sched.release(2);
  EXPECT_EQ(sched.live_worlds(), 0u);
}

TEST(SpecScheduler, UnboundedAdmissionAlwaysAdmits) {
  SpecScheduler sched(det_config());
  EXPECT_TRUE(sched.admit(1000, kNoPid, 1));
  sched.release(1000);
}

TEST(SpecScheduler, ShouldHelpOnlyInDeterministicModeOrOnWorkers) {
  SpecScheduler det(det_config());
  EXPECT_TRUE(det.should_help());  // single-threaded: waiting would wedge

  SchedConfig threaded;
  threaded.workers = 1;
  SpecScheduler pool(threaded);
  EXPECT_FALSE(pool.should_help());  // external thread: block on the cv
}

TEST(SpecScheduler, ThreadedWorkersDrainTheInbox) {
  SchedConfig cfg;
  cfg.workers = 2;
  SpecScheduler sched(cfg);
  std::atomic<int> ran{0};
  std::vector<SchedTaskRef> tasks;
  for (int i = 0; i < 64; ++i)
    tasks.push_back(sched.submit([&] { ++ran; }, 0.0, 1, kNoPid));
  for (const SchedTaskRef& t : tasks) {
    while (t->state() != SchedTask::State::kDone)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  EXPECT_EQ(ran.load(), 64);
  EXPECT_EQ(sched.stats().executed, 64u);
  // External submission means every execution went through the steal path.
  EXPECT_EQ(sched.stats().stolen, 64u);
}

TEST(SpecScheduler, ThreadedAdmissionWaitsForRelease) {
  SchedConfig cfg;
  cfg.workers = 1;
  cfg.max_live_worlds = 2;
  cfg.admission_wait = 2'000'000;  // generous: the release arrives first
  SpecScheduler sched(cfg);
  ASSERT_TRUE(sched.admit(2, kNoPid, 1));
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sched.release(2);
  });
  EXPECT_TRUE(sched.admit(1, kNoPid, 2));  // blocks until the release
  releaser.join();
  EXPECT_GE(sched.stats().admission_deferred, 1u);
  sched.release(1);
}

TEST(SpecScheduler, ThreadedAdmissionRejectsAtDeadline) {
  SchedConfig cfg;
  cfg.workers = 1;
  cfg.max_live_worlds = 1;
  cfg.admission_wait = 2'000;  // 2 ms: nobody will release
  SpecScheduler sched(cfg);
  ASSERT_TRUE(sched.admit(1, kNoPid, 1));
  EXPECT_FALSE(sched.admit(1, kNoPid, 2));
  EXPECT_EQ(sched.stats().admission_rejected, 1u);
  sched.release(1);
}

// ---- kPool backend over the scheduler --------------------------------

RuntimeConfig pool_config(std::uint64_t det_seed) {
  RuntimeConfig cfg;
  cfg.backend = AltBackend::kPool;
  cfg.page_size = 256;
  cfg.num_pages = 16;
  cfg.pool.deterministic_seed = det_seed;
  cfg.pool.workers = 2;
  return cfg;
}

TEST(AltPool, UniqueWinnerCommitsIntoParent) {
  Runtime rt(pool_config(11));
  RuntimeAuditor auditor;
  World root = rt.make_root("pool");
  auditor.add_world(root);
  const AltOutcome out =
      AltBlock(rt, root)
          .alt("loser-a", [](AltContext& ctx) { ctx.fail("no"); })
          .alt("winner",
               [](AltContext& ctx) {
                 ctx.space().store<int>(0, 424242);
                 ctx.set_result_string("w");
               })
          .alt("loser-b", [](AltContext& ctx) { ctx.fail("no"); })
          .run();
  ASSERT_FALSE(out.failed);
  EXPECT_EQ(out.winner_name, "winner");
  EXPECT_EQ(root.space().load<int>(0), 424242);
  EXPECT_EQ(rt.stats().blocks_won, 1u);
  const AuditReport audit = auditor.run(rt.processes());
  EXPECT_TRUE(audit.clean()) << audit.to_string();
}

TEST(AltPool, QueuedSiblingsAreRevokedWithZeroCopiedPages) {
  // The high-priority winner runs first (priority order is seed-invariant)
  // and syncs before any sibling is taken; the pruning pass revokes both
  // while still queued — their bodies never run, their worlds copy nothing.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Runtime rt(pool_config(seed));
    World root = rt.make_root("prune");
    std::vector<Alternative> race;
    race.push_back({"win", nullptr,
                    [](AltContext& ctx) { ctx.space().store<int>(0, 1); },
                    nullptr, /*priority=*/1.0});
    for (int i = 0; i < 2; ++i) {
      race.push_back({"lose" + std::to_string(i), nullptr,
                      [](AltContext& ctx) {
                        ctx.space().store<int>(64, 2);  // would copy a page
                        ctx.checkpoint();
                      },
                      nullptr, /*priority=*/0.0});
    }
    const AltOutcome out = run_alternatives(rt, root, race, {});
    ASSERT_FALSE(out.failed) << "seed=" << seed;
    EXPECT_EQ(out.winner_name, "win");
    for (std::size_t i = 1; i <= 2; ++i) {
      EXPECT_TRUE(out.alts[i].revoked) << "seed=" << seed << " alt=" << i;
      EXPECT_FALSE(out.alts[i].ran);
      EXPECT_EQ(out.alts[i].pages_copied, 0u);
    }
    EXPECT_EQ(rt.stats().alternatives_revoked, 2u);
  }
}

TEST(AltPool, AdmissionRejectionFailsTheBlockWithoutSpawning) {
  RuntimeConfig cfg = pool_config(3);
  cfg.pool.max_live_worlds = 2;  // a three-way race cannot fit
  Runtime rt(cfg);
  RuntimeAuditor auditor;
  World root = rt.make_root("reject");
  auditor.add_world(root);
  const AltOutcome out =
      AltBlock(rt, root)
          .alt("a", [](AltContext&) {})
          .alt("b", [](AltContext&) {})
          .alt("c", [](AltContext&) {})
          .run();
  EXPECT_TRUE(out.failed);
  EXPECT_EQ(out.failure, AltFailure::kAdmissionRejected);
  for (const AltReport& rep : out.alts) {
    EXPECT_FALSE(rep.spawned);
    EXPECT_EQ(rep.pid, kNoPid);
  }
  EXPECT_EQ(rt.scheduler().live_worlds(), 0u);
  const AuditReport audit = auditor.run(rt.processes());
  EXPECT_TRUE(audit.clean()) << audit.to_string();
}

TEST(AltPool, BudgetAdmitsSequentialRacesThatFitOneAtATime) {
  RuntimeConfig cfg = pool_config(5);
  cfg.pool.max_live_worlds = 2;
  Runtime rt(cfg);
  World root = rt.make_root("fit");
  for (int r = 0; r < 4; ++r) {
    const AltOutcome out =
        AltBlock(rt, root)
            .alt("w", [r](AltContext& ctx) { ctx.space().store<int>(0, r); })
            .alt("l", [](AltContext& ctx) { ctx.fail("no"); })
            .run();
    ASSERT_FALSE(out.failed) << "race " << r;
  }
  EXPECT_EQ(rt.scheduler().live_worlds(), 0u);
  EXPECT_EQ(root.space().load<int>(0), 3);
}

TEST(AltPool, ThreadedPoolRunsManyRacesCleanly) {
  RuntimeConfig cfg;
  cfg.backend = AltBackend::kPool;
  cfg.page_size = 256;
  cfg.num_pages = 16;
  Runtime rt(cfg);
  RuntimeAuditor auditor;
  World root = rt.make_root("pool-t");
  auditor.add_world(root);
  for (int r = 0; r < 50; ++r) {
    const AltOutcome out =
        AltBlock(rt, root)
            .alt("w",
                 [r](AltContext& ctx) { ctx.space().store<int>(0, r + 1); })
            .alt("l", [](AltContext& ctx) { ctx.fail("no"); })
            .run();
    ASSERT_FALSE(out.failed) << "race " << r;
    EXPECT_EQ(root.space().load<int>(0), r + 1);
  }
  const AuditReport audit = auditor.run(rt.processes());
  EXPECT_TRUE(audit.clean()) << audit.to_string();
}

// ---- Real worker threads, non-worker parent -------------------------
//
// AltThread: blocks run from the test thread on two pool workers, so the
// parent blocks on the block's condition variable instead of helping, and
// the alternatives run in parallel with it.

RuntimeConfig threaded_config() {
  RuntimeConfig cfg;
  cfg.backend = AltBackend::kPool;
  cfg.page_size = 64;
  cfg.num_pages = 64;
  cfg.pool.workers = 2;
  return cfg;
}

class AltThread : public ::testing::Test {
 protected:
  Runtime rt{threaded_config()};
  World root = rt.make_root();
};

// Waits for `flag` without a cancellation checkpoint. Used by a winner to
// hold its sync until a sibling has started, so the sibling runs instead
// of being revoked while still queued.
void spin_until(const std::atomic<bool>& flag) {
  while (!flag.load())
    std::this_thread::sleep_for(std::chrono::microseconds(100));
}

TEST_F(AltThread, SingleAlternativeWins) {
  const AltOutcome out =
      AltBlock(rt, root)
          .alt("only", [](AltContext& ctx) { ctx.space().store<int>(0, 42); })
          .run();
  EXPECT_FALSE(out.failed);
  EXPECT_EQ(out.winner, 0u);
  EXPECT_EQ(root.space().load<int>(0), 42);
}

TEST_F(AltThread, FirstSuccessfulSyncWins) {
  // One alternative finishes at once; the other spins until eliminated.
  const AltOutcome out =
      AltBlock(rt, root)
          .alt("quick", [](AltContext& ctx) { ctx.space().store<int>(0, 1); })
          .alt("spin", [](AltContext& ctx) { for (;;) ctx.checkpoint(); })
          .run();
  EXPECT_FALSE(out.failed);
  EXPECT_EQ(out.winner, 0u);
  EXPECT_EQ(root.space().load<int>(0), 1);
}

TEST_F(AltThread, AllAbortIsFailure) {
  const AltOutcome out =
      AltBlock(rt, root)
          .alt("a", [](AltContext& ctx) { ctx.fail("x"); })
          .alt("b", [](AltContext&) { throw std::runtime_error("y"); })
          .run();
  EXPECT_TRUE(out.failed);
  EXPECT_EQ(out.failure, AltFailure::kAllFailed);
}

TEST_F(AltThread, TimeoutKillsSpinners) {
  const AltOutcome out =
      AltBlock(rt, root)
          .alt("spin", [](AltContext& ctx) { for (;;) ctx.checkpoint(); })
          .timeout(50'000)  // 50 ms
          .run();
  EXPECT_EQ(out.failure, AltFailure::kTimeout);
  EXPECT_FALSE(out.alts[0].straggler);
  EXPECT_EQ(rt.processes().status(out.alts[0].pid), ProcStatus::kEliminated);
}

TEST_F(AltThread, LoserWorldDiscarded) {
  root.space().store<int>(0, 5);
  const AltOutcome out = AltBlock(rt, root)
                             .alt("winner", [](AltContext&) {})
                             .alt("loser",
                                  [](AltContext& ctx) {
                                    ctx.space().store<int>(0, 666);
                                    for (;;) ctx.checkpoint();
                                  })
                             .run();
  EXPECT_EQ(out.winner, 0u);
  EXPECT_EQ(root.space().load<int>(0), 5);
}

TEST_F(AltThread, GuardAndAcceptApply) {
  const AltOutcome out = run_alternatives(
      rt, root,
      {Alternative{"rejected-by-guard", [](const World&) { return false; },
                   [](AltContext& ctx) { ctx.space().store<int>(0, 1); },
                   nullptr},
       Alternative{"rejected-by-accept", nullptr,
                   [](AltContext& ctx) { ctx.space().store<int>(0, 2); },
                   [](const World&) { return false; }},
       Alternative{"accepted", nullptr,
                   [](AltContext& ctx) { ctx.space().store<int>(0, 3); },
                   [](const World& w) { return w.space().load<int>(0) == 3; }}});
  EXPECT_EQ(out.winner, 2u);
  EXPECT_EQ(root.space().load<int>(0), 3);
}

TEST_F(AltThread, ResultBytesDelivered) {
  const AltOutcome out =
      AltBlock(rt, root)
          .alt("r", [](AltContext& ctx) { ctx.set_result_string("worlds"); })
          .run();
  EXPECT_EQ(std::string(out.result.begin(), out.result.end()), "worlds");
}

TEST_F(AltThread, SynchronousEliminationWaitsForLosers) {
  std::atomic<bool> loser_started{false};
  std::atomic<bool> loser_exited{false};
  const AltOutcome out =
      AltBlock(rt, root)
          .alt("w", [&](AltContext&) { spin_until(loser_started); })
          .alt("l",
               [&](AltContext& ctx) {
                 struct OnExit {
                   std::atomic<bool>* flag;
                   ~OnExit() { *flag = true; }
                 } guard{&loser_exited};
                 loser_started = true;
                 for (;;) ctx.checkpoint();
               })
          .elimination(Elimination::kSynchronous)
          .run();
  EXPECT_EQ(out.winner, 0u);
  // Synchronous elimination: the loser terminated before the block
  // returned.
  EXPECT_TRUE(loser_exited.load());
  EXPECT_FALSE(out.alts[1].straggler);
}

TEST_F(AltThread, ManyAlternativesStress) {
  std::vector<Alternative> alts;
  for (int i = 0; i < 16; ++i) {
    alts.push_back(Alternative{"alt" + std::to_string(i), nullptr,
                               [i](AltContext& ctx) {
                                 ctx.space().store<int>(0, i);
                                 if (i != 7) ctx.fail("only 7 succeeds");
                               },
                               nullptr});
  }
  const AltOutcome out = run_alternatives(rt, root, alts);
  EXPECT_EQ(out.winner, 7u);
  EXPECT_EQ(root.space().load<int>(0), 7);
}

TEST_F(AltThread, StatusesAfterBlock) {
  std::atomic<bool> failer_started{false};
  const AltOutcome out =
      AltBlock(rt, root)
          .alt("w", [&](AltContext&) { spin_until(failer_started); })
          .alt("f",
               [&](AltContext& ctx) {
                 failer_started = true;
                 ctx.fail("");
               })
          .run();
  ASSERT_TRUE(out.winner.has_value());
  EXPECT_EQ(rt.processes().status(out.alts[0].pid), ProcStatus::kSynced);
  EXPECT_EQ(rt.processes().status(out.alts[1].pid), ProcStatus::kFailed);
}

// ---- Bounded straggler reap -------------------------------------------
//
// AltThreadReap: a loser that never checks its cancel token must not wedge
// the parent. Elimination is cooperative, so the block waits at most
// reap_deadline (10 ms here) for its losers and returns with the rest
// marked straggler. The deaf body ignores cancellation until the test
// releases it, or 5 s pass so a failed assertion cannot hang the
// Runtime's worker join.

class AltThreadReap : public ::testing::Test {
 protected:
  AltThreadReap() { opts.reap_deadline = 10'000; }

  // Runs `race` and checks that the block came back while the deaf body
  // still ran, then releases it.
  AltOutcome run(const std::vector<Alternative>& race) {
    Stopwatch sw;
    const AltOutcome out = run_alternatives(rt, root, race, opts);
    EXPECT_LT(sw.elapsed_ms(), 1000.0);
    EXPECT_FALSE(deaf_done.load());
    release = true;
    return out;
  }

  void stay_deaf() {
    for (int i = 0; i < 5000 && !release; ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Alternative deaf() {
    return {"deaf", nullptr,
            [this](AltContext&) {
              started = true;
              stay_deaf();
              deaf_done = true;
            },
            nullptr};
  }
  Alternative winner_after_start() {
    return {"win", nullptr,
            [this](AltContext& ctx) {
              spin_until(started);
              ctx.set_result_string("w");
            },
            nullptr};
  }

  // Declared before the Runtime: its destructor joins the workers, so the
  // flags must outlive any straggler.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::atomic<bool> deaf_done{false};
  Runtime rt{threaded_config()};
  RuntimeAuditor auditor;
  World root = rt.make_root("reap");
  AltOptions opts;
};

TEST_F(AltThreadReap, DeafLoserIsDetachedAsStragglerAtTheDeadline) {
  const AltOutcome out = run({winner_after_start(), deaf()});
  ASSERT_FALSE(out.failed);
  EXPECT_EQ(out.winner_name, "win");
  EXPECT_FALSE(out.alts[0].straggler);
  EXPECT_TRUE(out.alts[1].straggler);
  EXPECT_TRUE(out.alts[1].ran);
  EXPECT_EQ(rt.processes().status(out.alts[1].pid), ProcStatus::kEliminated);
}

TEST_F(AltThreadReap, TimeoutPathIsBounded) {
  opts.timeout = 200'000;  // the deaf body has long started by then
  const AltOutcome out = run({deaf()});
  EXPECT_EQ(out.failure, AltFailure::kTimeout);
  EXPECT_TRUE(out.alts[0].straggler);
}

TEST_F(AltThreadReap, SynchronousEliminationIsBounded) {
  opts.elimination = Elimination::kSynchronous;
  const AltOutcome out = run({winner_after_start(), deaf()});
  EXPECT_EQ(out.winner_name, "win");
  EXPECT_TRUE(out.alts[1].straggler);
}

TEST_F(AltThreadReap, StragglerHoldsItsAdmissionGrantUntilItUnwinds) {
  auditor.add_world(root);
  const AltOutcome out = run({winner_after_start(), deaf()});
  ASSERT_TRUE(out.alts[1].straggler);
  // The winner's grant came back with the block; the straggler keeps its
  // world, and with it its grant, until its task ends.
  EXPECT_EQ(rt.scheduler().live_worlds(), 1u);
  for (int i = 0; i < 5000 && rt.scheduler().live_worlds() != 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(rt.scheduler().live_worlds(), 0u);
  const AuditReport audit = auditor.run(rt.processes());
  EXPECT_TRUE(audit.clean()) << audit.to_string();
}

TEST_F(AltThreadReap, QueuedStragglerNeverRunsItsBody) {
  // Every revoke misses, one worker is held busy, and the winner leaves
  // the other a blocking task to run next, so the loser is still queued at
  // the reap deadline. When it is finally taken the block has returned and
  // the caller's alternatives are gone: its body must not run, and it
  // still frees its world and grant.
  FaultInjector inj(3);
  inj.arm("sched.revoke", FaultSpec::always(FaultKind::kFailAlternative));
  FaultScope scope(inj);
  std::atomic<bool> busy{false};
  rt.scheduler().submit(
      [&] {
        busy = true;
        stay_deaf();
      },
      0.0, 0, kNoPid);
  spin_until(busy);
  std::atomic<bool> late_ran{false};
  const AltOutcome out = run(
      {{"win", nullptr,
        [this](AltContext&) {
          // From a worker, submit() goes to this worker's own deque, which
          // it serves before the shared inbox holding the loser.
          rt.scheduler().submit([this] { stay_deaf(); }, 0.0, 0, kNoPid);
        },
        nullptr, 1.0},
       {"late", nullptr, [&](AltContext&) { late_ran = true; }, nullptr,
        0.0}});
  ASSERT_EQ(out.winner_name, "win");
  EXPECT_TRUE(out.alts[1].straggler);
  EXPECT_FALSE(out.alts[1].ran);
  for (int i = 0; i < 5000 && rt.scheduler().live_worlds() != 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(rt.scheduler().live_worlds(), 0u);
  EXPECT_FALSE(late_ran.load());
}

TEST_F(AltThreadReap, CooperativeLosersJoinWithoutStragglers) {
  const AltOutcome out = run_alternatives(
      rt, root,
      {winner_after_start(),
       {"coop", nullptr,
        [this](AltContext& ctx) {
          started = true;
          for (int i = 0; i < 200; ++i) ctx.sleep_for(1'000);
          ctx.fail("never");
        },
        nullptr}});
  ASSERT_FALSE(out.failed);
  EXPECT_TRUE(out.alts[1].ran);
  for (const AltReport& rep : out.alts) EXPECT_FALSE(rep.straggler);
}

}  // namespace
}  // namespace mw
