#include "core/fork_backend.hpp"

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>

#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace mw {

namespace {

/// Header of the MAP_SHARED arbitration region. Lock-free atomics are
/// process-shared on every platform this library targets.
struct SharedSlot {
  std::atomic<int> winner;
  std::atomic<std::uint32_t> result_len;  // 0 until the winner publishes
  // result bytes follow
};
static_assert(std::atomic<int>::is_always_lock_free);
static_assert(std::atomic<std::uint32_t>::is_always_lock_free);

void* map_shared(std::size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  MW_CHECK(p != MAP_FAILED);
  return p;
}

}  // namespace

ForkOutcome run_alternatives_fork(const std::vector<ForkAlternative>& alts,
                                  const ForkOptions& opts) {
  ForkOutcome out;
  if (alts.empty()) return out;

  const std::size_t region_bytes = sizeof(SharedSlot) + opts.result_bytes;
  auto* slot = static_cast<SharedSlot*>(map_shared(region_bytes));
  new (&slot->winner) std::atomic<int>(-1);
  new (&slot->result_len) std::atomic<std::uint32_t>(0);
  auto* result_buf = reinterpret_cast<std::uint8_t*>(slot + 1);

  Stopwatch block_clock;
  std::vector<pid_t> kids(alts.size(), -1);
  for (std::size_t i = 0; i < alts.size(); ++i) {
    const pid_t pid = ::fork();
    MW_CHECK(pid >= 0);
    if (pid == 0) {
      // Child: the OS gave us a COW copy of the entire parent address
      // space — the paper's world fork, for free.
      std::vector<std::uint8_t> result;
      bool success = false;
      try {
        success = alts[i].body(result);
      } catch (...) {
        success = false;
      }
      if (success) {
        int expected = -1;
        if (slot->winner.compare_exchange_strong(expected,
                                                 static_cast<int>(i))) {
          const std::size_t n = std::min(result.size(), opts.result_bytes);
          std::memcpy(result_buf, result.data(), n);
          slot->result_len.store(static_cast<std::uint32_t>(n) + 1,
                                 std::memory_order_release);
        }
      }
      ::_exit(success ? 0 : 1);
    }
    kids[i] = pid;
  }

  // alt_wait: poll for a winner, reap aborted children, enforce timeout.
  std::size_t alive = alts.size();
  Stopwatch wait_clock;
  int winner = -1;
  for (;;) {
    winner = slot->winner.load(std::memory_order_acquire);
    if (winner >= 0) break;
    if (alive == 0) break;  // everyone aborted
    if (opts.timeout_us != 0 &&
        wait_clock.elapsed_us() > static_cast<double>(opts.timeout_us)) {
      break;
    }
    // Poll this block's own children only: waitpid(-1) would also reap,
    // and count as ours, a child the caller forked for something else.
    bool reaped = false;
    for (auto& k : kids) {
      if (k > 0 && ::waitpid(k, nullptr, WNOHANG) == k) {
        k = -1;
        --alive;
        reaped = true;
      }
    }
    // A child that synchronized just before exiting counts as a winner on
    // the next loop iteration.
    if (!reaped) ::usleep(100);
  }
  // Catch a child that won between the last poll and an exit we reaped.
  if (winner < 0) winner = slot->winner.load(std::memory_order_acquire);

  Stopwatch elim_clock;
  if (winner >= 0) {
    // Wait for the winner's publication and exit, then collect the result.
    while (slot->result_len.load(std::memory_order_acquire) == 0) ::usleep(50);
    out.failed = false;
    out.winner = static_cast<std::size_t>(winner);
    const std::uint32_t len =
        slot->result_len.load(std::memory_order_acquire) - 1;
    out.result.assign(result_buf, result_buf + len);
  } else {
    out.failed = true;
  }
  out.elapsed_sec = block_clock.elapsed_sec();

  // Sibling elimination: SIGKILL the survivors. Synchronous mode waits for
  // each termination before the measurement point; asynchronous issues the
  // kills, records the time, and reaps afterwards (zombies are still
  // collected before returning — the reap is off the response path).
  for (std::size_t i = 0; i < kids.size(); ++i) {
    if (kids[i] > 0 && static_cast<int>(i) != winner) ::kill(kids[i], SIGKILL);
  }
  auto reap = [&](bool winner_too) {
    for (std::size_t i = 0; i < kids.size(); ++i) {
      if (kids[i] > 0 && (winner_too || static_cast<int>(i) != winner)) {
        ::waitpid(kids[i], nullptr, 0);
        kids[i] = -1;
      }
    }
  };
  if (opts.synchronous_elimination) reap(false);
  out.elimination_sec = elim_clock.elapsed_sec();
  reap(true);

  ::munmap(slot, region_bytes);
  return out;
}

double measure_fork_latency(std::size_t touched_pages, std::size_t page_size) {
  // Dirty `touched_pages` pages so the kernel has that many page-table
  // entries to duplicate; the paper's 320 KB address spaces correspond to
  // 80–160 pages.
  std::vector<std::uint8_t> arena(touched_pages * page_size);
  for (std::size_t p = 0; p < touched_pages; ++p) arena[p * page_size] = 1;

  Stopwatch sw;
  const pid_t pid = ::fork();
  MW_CHECK(pid >= 0);
  if (pid == 0) ::_exit(0);
  const double sec = sw.elapsed_sec();  // latency of fork() in the parent
  ::waitpid(pid, nullptr, 0);
  // Keep the arena alive past the fork.
  volatile std::uint8_t sink = arena[0];
  (void)sink;
  return sec;
}

double measure_cow_copy_rate(std::size_t pages, std::size_t page_size) {
  struct Shared {
    std::atomic<double> seconds;
    std::atomic<int> done;
  };
  auto* sh = static_cast<Shared*>(map_shared(sizeof(Shared)));
  new (&sh->seconds) std::atomic<double>(0.0);
  new (&sh->done) std::atomic<int>(0);

  std::vector<std::uint8_t> arena(pages * page_size);
  for (std::size_t p = 0; p < pages; ++p) arena[p * page_size] = 1;

  const pid_t pid = ::fork();
  MW_CHECK(pid >= 0);
  if (pid == 0) {
    // Child: every write faults and copies one shared page.
    Stopwatch sw;
    for (std::size_t p = 0; p < pages; ++p) arena[p * page_size] = 2;
    sh->seconds.store(sw.elapsed_sec(), std::memory_order_release);
    sh->done.store(1, std::memory_order_release);
    ::_exit(0);
  }
  ::waitpid(pid, nullptr, 0);
  MW_CHECK(sh->done.load(std::memory_order_acquire) == 1);
  const double sec = sh->seconds.load(std::memory_order_acquire);
  ::munmap(sh, sizeof(Shared));
  if (sec <= 0.0) return 0.0;
  return static_cast<double>(pages) / sec;
}

}  // namespace mw
