// Timeout-path coverage across substrates (virtual time, pool worker
// threads, forked processes): when every child hangs, alt_wait's deadline
// must still fire and select the failure alternative — "choose a
// value clearly unacceptable to the application" (§2.2) only works if a
// wedged child cannot wedge the parent.
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/alt.hpp"
#include "core/alt_context.hpp"
#include "core/fork_backend.hpp"
#include "core/runtime.hpp"

namespace mw {
namespace {

Runtime make_runtime(AltBackend backend) {
  RuntimeConfig cfg;
  cfg.backend = backend;
  return Runtime(cfg);
}

TEST(AltTimeoutVirtual, AllHungSelectsFailureAtDeadline) {
  Runtime rt = make_runtime(AltBackend::kVirtual);
  World root = rt.make_root();
  const AltOutcome out = AltBlock(rt, root)
                             .alt("h1", [](AltContext& ctx) { ctx.hang(); })
                             .alt("h2", [](AltContext& ctx) { ctx.hang(); })
                             .timeout(vt_ms(50))
                             .run();
  EXPECT_TRUE(out.failed);
  EXPECT_EQ(out.failure, AltFailure::kTimeout);
  EXPECT_GE(out.elapsed, vt_ms(50));
  for (const AltReport& r : out.alts)
    EXPECT_EQ(rt.processes().status(r.pid), ProcStatus::kEliminated);
}

TEST(AltTimeoutVirtual, HungSiblingDoesNotDelayWinner) {
  Runtime rt = make_runtime(AltBackend::kVirtual);
  World root = rt.make_root();
  const AltOutcome out =
      AltBlock(rt, root)
          .alt("worker", [](AltContext& ctx) { ctx.work(vt_ms(5)); })
          .alt("hanger", [](AltContext& ctx) { ctx.hang(); })
          .timeout(vt_ms(100))
          .run();
  ASSERT_FALSE(out.failed);
  EXPECT_EQ(out.winner_name, "worker");
  EXPECT_LT(out.elapsed, vt_ms(100));
}

TEST(AltTimeoutVirtual, InfiniteTimeoutWithAllHungStillReturns) {
  // No deadline: the hung tasks are modelled with a finite (huge) duration,
  // so the block still resolves — as a failure — instead of wedging.
  Runtime rt = make_runtime(AltBackend::kVirtual);
  World root = rt.make_root();
  const AltOutcome out = AltBlock(rt, root)
                             .alt("h", [](AltContext& ctx) { ctx.hang(); })
                             .run();
  EXPECT_TRUE(out.failed);
}

TEST(AltTimeoutVirtual, MixOfHangAndFailTimesOut) {
  // The failer aborts early; the hanger outlives the deadline: the parent
  // must not report kAllFailed (a child was still nominally running).
  Runtime rt = make_runtime(AltBackend::kVirtual);
  World root = rt.make_root();
  const AltOutcome out =
      AltBlock(rt, root)
          .alt("failer", [](AltContext& ctx) { ctx.fail("nope"); })
          .alt("hanger", [](AltContext& ctx) { ctx.hang(); })
          .timeout(vt_ms(50))
          .run();
  EXPECT_TRUE(out.failed);
  EXPECT_EQ(out.failure, AltFailure::kTimeout);
}

TEST(AltTimeoutThread, AllHungSelectsFailureAtDeadline) {
  Runtime rt = make_runtime(AltBackend::kPool);
  World root = rt.make_root();
  const AltOutcome out = AltBlock(rt, root)
                             .alt("h1", [](AltContext& ctx) { ctx.hang(); })
                             .alt("h2", [](AltContext& ctx) { ctx.hang(); })
                             .timeout(vt_ms(200))  // µs of wall time
                             .run();
  EXPECT_TRUE(out.failed);
  EXPECT_EQ(out.failure, AltFailure::kTimeout);
  // The hung children were eliminated; the block returned (we are here),
  // so alt_wait did not wedge.
  for (const AltReport& r : out.alts)
    EXPECT_TRUE(is_terminal(rt.processes().status(r.pid)));
}

TEST(AltTimeoutThread, HungSiblingIsEliminatedByWinner) {
  Runtime rt = make_runtime(AltBackend::kPool);
  World root = rt.make_root();
  const AltOutcome out =
      AltBlock(rt, root)
          .alt("worker",
               [](AltContext& ctx) {
                 ctx.sleep_for(vt_ms(2));
                 ctx.set_result_string("w");
               })
          .alt("hanger", [](AltContext& ctx) { ctx.hang(); })
          .timeout(vt_sec(10))
          .run();
  ASSERT_FALSE(out.failed);
  EXPECT_EQ(out.winner_name, "worker");
}

TEST(AltTimeoutPosix, SpinningChildrenCannotOutliveTheDeadline) {
  // Two children that never sync and never abort: the deadline selects the
  // failure alternative and the spinners are killed.
  const ForkAlternative spinner{"spin", [](std::vector<std::uint8_t>&) {
                                  for (;;) ::usleep(10'000);
                                  return true;
                                }};
  const ForkOutcome out = run_alternatives_fork(
      {spinner, spinner}, ForkOptions{.timeout_us = 150'000});
  EXPECT_TRUE(out.failed);  // failure alternative selected
  EXPECT_FALSE(out.winner.has_value());
  EXPECT_LT(out.elapsed_sec, 5.0);
}

}  // namespace
}  // namespace mw
