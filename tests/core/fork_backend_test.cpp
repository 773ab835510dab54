#include "core/fork_backend.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstring>
#include <string>

namespace mw {
namespace {

TEST(ForkBackend, SingleWinner) {
  auto out = run_alternatives_fork(
      {ForkAlternative{"only", [](std::vector<std::uint8_t>& r) {
                         r = {1, 2, 3};
                         return true;
                       }}});
  EXPECT_FALSE(out.failed);
  EXPECT_EQ(out.winner, 0u);
  EXPECT_EQ(out.result, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(ForkBackend, FastChildBeatsSlowChild) {
  auto out = run_alternatives_fork(
      {ForkAlternative{"slow",
                       [](std::vector<std::uint8_t>& r) {
                         ::usleep(300'000);
                         r = {9};
                         return true;
                       }},
       ForkAlternative{"fast", [](std::vector<std::uint8_t>& r) {
                         r = {7};
                         return true;
                       }}});
  EXPECT_FALSE(out.failed);
  EXPECT_EQ(out.winner, 1u);
  EXPECT_EQ(out.result, (std::vector<std::uint8_t>{7}));
}

TEST(ForkBackend, AbortingChildrenYieldFailure) {
  auto out = run_alternatives_fork(
      {ForkAlternative{"a", [](std::vector<std::uint8_t>&) { return false; }},
       ForkAlternative{"b", [](std::vector<std::uint8_t>&) { return false; }}});
  EXPECT_TRUE(out.failed);
  EXPECT_FALSE(out.winner.has_value());
}

TEST(ForkBackend, TimeoutOnHangingChild) {
  auto out = run_alternatives_fork(
      {ForkAlternative{"hang",
                       [](std::vector<std::uint8_t>&) {
                         ::usleep(10'000'000);
                         return true;
                       }}},
      ForkOptions{.timeout_us = 100'000});
  EXPECT_TRUE(out.failed);
  EXPECT_LT(out.elapsed_sec, 5.0);
}

TEST(ForkBackend, ChildStateChangesAreIsolated) {
  // The child's address space is a COW copy: parent memory is untouched.
  static int shared_value = 10;
  auto out = run_alternatives_fork(
      {ForkAlternative{"mutator", [](std::vector<std::uint8_t>& r) {
                         shared_value = 999;
                         r = {static_cast<std::uint8_t>(shared_value == 999)};
                         return true;
                       }}});
  EXPECT_FALSE(out.failed);
  EXPECT_EQ(out.result[0], 1);      // the child saw its own write
  EXPECT_EQ(shared_value, 10);      // the parent never did
}

TEST(ForkBackend, ResultTruncatedToCapacity) {
  ForkOptions opts;
  opts.result_bytes = 4;
  auto out = run_alternatives_fork(
      {ForkAlternative{"big", [](std::vector<std::uint8_t>& r) {
                         r.assign(100, 5);
                         return true;
                       }}},
      opts);
  EXPECT_EQ(out.result.size(), 4u);
}

TEST(ForkBackend, EmptyBlockFails) {
  auto out = run_alternatives_fork({});
  EXPECT_TRUE(out.failed);
}

TEST(ForkBackend, SynchronousEliminationAlsoWins) {
  ForkOptions opts;
  opts.synchronous_elimination = true;
  auto out = run_alternatives_fork(
      {ForkAlternative{"fast",
                       [](std::vector<std::uint8_t>& r) {
                         r = {1};
                         return true;
                       }},
       ForkAlternative{"hang", [](std::vector<std::uint8_t>&) {
                         ::usleep(10'000'000);
                         return true;
                       }}},
      opts);
  EXPECT_FALSE(out.failed);
  EXPECT_EQ(out.winner, 0u);
  EXPECT_LT(out.elapsed_sec, 5.0);
}

TEST(ForkBackend, MeasureForkLatencyIsPositive) {
  const double sec = measure_fork_latency(32, 4096);
  EXPECT_GT(sec, 0.0);
  EXPECT_LT(sec, 1.0);
}

TEST(ForkBackend, MeasureCowCopyRateIsPositive) {
  const double rate = measure_cow_copy_rate(64, 4096);
  EXPECT_GT(rate, 0.0);
}

TEST(ForkBackend, LeavesOtherChildrenOfTheCallerAlone) {
  // A child the caller forked for its own purposes exits while the block
  // waits: the block must neither reap it nor count it as one of its own.
  const pid_t other = ::fork();
  ASSERT_GE(other, 0);
  if (other == 0) ::_exit(7);
  const ForkOutcome out = run_alternatives_fork(
      {ForkAlternative{"slow", [](std::vector<std::uint8_t>& r) {
                         ::usleep(50'000);
                         r = {1};
                         return true;
                       }}});
  EXPECT_FALSE(out.failed);
  EXPECT_EQ(out.winner, 0u);
  int status = 0;
  ASSERT_EQ(::waitpid(other, &status, 0), other);  // still ours to reap
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 7);
}

// ---- The paper's §2.2 block over processes ---------------------------
//
// PosixAlt: each alternative changes the caller's state in its own COW
// copy and publishes it as its result; the caller absorbs the winner's
// copy — the explicit-copy form of the page-pointer swap.

template <typename T>
void publish(std::vector<std::uint8_t>& r, const T& state) {
  r.resize(sizeof state);
  std::memcpy(r.data(), &state, sizeof state);
}

template <typename T>
void absorb(const ForkOutcome& out, T& state) {
  ASSERT_EQ(out.result.size(), sizeof state);
  std::memcpy(&state, out.result.data(), sizeof state);
}

// An alternative that, after `delay_us`, sets the caller's `state` to
// `value` in its own copy and publishes it.
ForkAlternative writer(int& state, int value, useconds_t delay_us = 0) {
  return {"write" + std::to_string(value),
          [&state, value, delay_us](std::vector<std::uint8_t>& r) {
            ::usleep(delay_us);
            state = value;
            publish(r, state);
            return true;
          }};
}

TEST(PosixAlt, PaperStyleBlockWinnerAbsorbed) {
  int result = 0;
  const ForkOutcome out = run_alternatives_fork(
      {writer(result, 100), writer(result, 200), writer(result, 300)},
      ForkOptions{.timeout_us = 5'000'000});
  ASSERT_FALSE(out.failed);
  absorb(out, result);
  EXPECT_EQ(result, static_cast<int>(*out.winner + 1) * 100);
}

TEST(PosixAlt, FastChildWins) {
  int result = 0;
  const ForkOutcome out = run_alternatives_fork(
      {writer(result, 11, 400'000), writer(result, 22)},
      ForkOptions{.timeout_us = 10'000'000});
  ASSERT_EQ(out.winner, 1u);
  absorb(out, result);
  EXPECT_EQ(result, 22);
}

TEST(PosixAlt, AllAbortSelectsFailure) {
  const ForkAlternative abort{"abort",
                              [](std::vector<std::uint8_t>&) { return false; }};
  const ForkOutcome out = run_alternatives_fork(
      {abort, abort}, ForkOptions{.timeout_us = 5'000'000});
  EXPECT_TRUE(out.failed);  // run the failure alternative
  EXPECT_FALSE(out.winner.has_value());
}

TEST(PosixAlt, TimeoutEliminatesHangingChildren) {
  int result = 0;
  const ForkOutcome out = run_alternatives_fork(
      {writer(result, 1, 30'000'000), writer(result, 2, 30'000'000)},
      ForkOptions{.timeout_us = 100'000});
  EXPECT_TRUE(out.failed);
  EXPECT_LT(out.elapsed_sec, 5.0);
  EXPECT_EQ(result, 0);
}

TEST(PosixAlt, LoserSideEffectsInvisible) {
  // Every child writes its COW copy; only the winner's writes are
  // absorbed into the caller.
  struct State {
    int value;
    int scribbles;
  } state{0, 0};
  auto scribble = [&state](int value, useconds_t delay_us) {
    return [&state, value, delay_us](std::vector<std::uint8_t>& r) {
      ::usleep(delay_us);
      state.value = value;
      state.scribbles += 1;
      publish(r, state);
      return true;
    };
  };
  const ForkOutcome out = run_alternatives_fork(
      {{"first", scribble(1, 0)}, {"second", scribble(2, 300'000)}},
      ForkOptions{.timeout_us = 5'000'000});
  ASSERT_FALSE(out.failed);
  absorb(out, state);
  EXPECT_EQ(state.scribbles, 1);  // exactly one child's writes
  EXPECT_EQ(state.value, static_cast<int>(*out.winner) + 1);
}

TEST(PosixAlt, SynchronousEliminationAlsoWorks) {
  int result = 0;
  const ForkOutcome out = run_alternatives_fork(
      {writer(result, 7), writer(result, 9, 20'000'000)},
      ForkOptions{.timeout_us = 5'000'000, .synchronous_elimination = true});
  ASSERT_FALSE(out.failed);
  absorb(out, result);
  EXPECT_EQ(result, 7);
}

}  // namespace
}  // namespace mw
