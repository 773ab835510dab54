// kPool: alternative blocks as work-stealing tasks. See alt_pool.hpp for
// the contract: admission before any world is forked, alternatives
// submitted as prioritized tasks, winner-side revocation of queued
// siblings at the sync point, and a bounded reap of losers that ignore
// cancellation.
#include "core/alt_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>

#include "core/alt_context.hpp"
#include "core/runtime.hpp"
#include "core/spec_scheduler.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace mw {

namespace internal {

namespace {

// How a spawned alternative's task ended. Besides the outcomes of a body
// that ran, the scheduler adds two terminals for a body that never ran.
enum class End {
  kPending,
  kSynced,
  kAborted,
  kCancelled,
  kRevoked,  // pruned while queued: body never ran, zero pages copied
  kFaulted,  // killed by sched.steal fault injection: body never ran
};

// Value of Block::race once the parent has timed out: no child can sync
// into a block that has already selected its failure alternative.
constexpr int kRaceClosed = -2;

// One spawned alternative. A slot is written by the parent before its
// task is submitted and afterwards only by that task, except `end`,
// `task` and `detached`, which are guarded by Block::mu.
struct Slot {
  // The task's own copy of its alternative, taken when the task starts:
  // callers pass temporaries, and a straggler runs past the block's return.
  // A sibling revoked unstarted never pays for the copy.
  Alternative alt;
  std::size_t index = 0;  // 0-based position in the caller's vector
  Rng rng;
  CancelToken cancel;
  Bytes result;
  SchedTaskRef task;
  End end = End::kPending;
  // A straggler: still pending at the reap deadline. Its own task frees
  // its world and admission grant when it ends; the parent frees the rest.
  bool detached = false;
};

// Everything a task can touch. Heap-allocated and shared by the parent and
// every task closure, so the block can return while a straggler still
// runs: once it has, nothing of the caller or of the Runtime is reachable
// from a task, except the scheduler, which outlives every task it runs.
struct Block {
  SpecScheduler* sched = nullptr;
  // The caller's alternatives; cleared under `mu` before the block returns.
  const std::vector<Alternative>* source = nullptr;
  std::vector<Slot> slots;
  std::vector<Pid> pids;
  std::vector<World> worlds;
  unsigned guard_phases = 0;
  bool virtual_bodies = false;
  Pid parent_pid = kNoPid;
  std::uint64_t group = 0;
  Stopwatch clock;

  std::mutex mu;
  std::condition_variable cv;
  // At-most-once sync arbiter (§2.2.1). The parent waits on `synced`,
  // which the winning task publishes under the mutex after its result is
  // in place.
  std::atomic<int> race{-1};
  int synced = -1;
  std::size_t terminal = 0;  // slots whose end is no longer kPending

  VTime now() const { return static_cast<VTime>(clock.elapsed_us()); }
};

// Prunes every queued sibling of `self` and requests cooperative
// cancellation of the running ones. Called by the winning task at sync
// time (before the parent wakes: the window in which another worker could
// start a doomed sibling is the CAS-to-revoke gap, not the
// sync-to-parent-wakeup gap) and again by the parent, which sweeps any
// sibling submitted after the winner's pass.
void prune_siblings(Block& b, std::size_t self) {
  std::vector<SchedTaskRef> snapshot;
  {
    std::lock_guard<std::mutex> lk(b.mu);
    snapshot.reserve(b.slots.size());
    for (const Slot& s : b.slots) snapshot.push_back(s.task);
  }
  for (std::size_t j = 0; j < snapshot.size(); ++j) {
    if (j == self || !snapshot[j]) continue;
    b.sched->revoke(snapshot[j]);
    b.slots[j].cancel.request();
  }
}

// Publishes slot k's end. A detached straggler frees its own world and
// admission grant here, after the parent has returned.
void finish(const std::shared_ptr<Block>& blk, std::size_t k, End end) {
  bool detached;
  {
    std::lock_guard<std::mutex> lk(blk->mu);
    blk->slots[k].end = end;
    if (end == End::kSynced) blk->synced = static_cast<int>(k);
    ++blk->terminal;
    detached = blk->slots[k].detached;
  }
  blk->cv.notify_all();
  if (detached) {
    { World gone(std::move(blk->worlds[k])); }
    blk->sched->release(1);
  }
}

void run_task(const std::shared_ptr<Block>& blk, std::size_t k) {
  Block& b = *blk;
  Slot& slot = b.slots[k];
  World& child = b.worlds[k];
  bool started;
  {
    std::lock_guard<std::mutex> lk(b.mu);
    started = b.source != nullptr;
    if (started) slot.alt = (*b.source)[slot.index];
  }
  if (!started) {
    // A loser whose revoke missed, first taken after the block returned:
    // the caller's alternative may be gone, so its body never runs.
    finish(blk, k, End::kCancelled);
    return;
  }
  End end = End::kAborted;
  {
    AltContext ctx(child, slot.index + 1, slot.rng, &slot.cancel,
                   b.virtual_bodies);
    MW_TRACE_EVENT(trace::EventKind::kAltChildBegin, b.pids[k], kNoPid,
                   b.group, 0, b.now());
    const Alternative& alt = slot.alt;
    try {
      bool success = true;
      if ((b.guard_phases & kGuardInChild) && alt.guard && !alt.guard(child)) {
        success = false;
      } else {
        alt.body(ctx);
      }
      if (success && (b.guard_phases & kGuardAtSync) && alt.guard &&
          !alt.guard(child)) {
        success = false;
      }
      if (success && alt.accept && !alt.accept(child)) success = false;
      if (success) {
        slot.result = ctx.result();
        int expected = -1;
        end = b.race.compare_exchange_strong(expected, static_cast<int>(k))
                  ? End::kSynced
                  : End::kCancelled;  // lost the race: eliminated
      }
    } catch (const CancelledError&) {
      end = End::kCancelled;
    } catch (...) {
      // AltFailed, or any foreign exception (e.g. an injected crash), fails
      // the alternative without taking down the pool worker executing it.
      end = End::kAborted;
    }
    MW_TRACE_EVENT(trace::EventKind::kAltChildEnd, b.pids[k], kNoPid,
                   b.group, child.space().table().stats().pages_copied,
                   b.now());
  }
  if (end == End::kSynced) {
    MW_TRACE_EVENT(trace::EventKind::kAltSync, b.pids[k], b.parent_pid,
                   b.group, 0, b.now());
    // Cancellation-aware pruning: kill the queued siblings while they have
    // copied zero pages, before the parent even wakes.
    prune_siblings(b, k);
  }
  finish(blk, k, end);
}

}  // namespace

AltOutcome run_alternatives_pool(Runtime& rt, World& parent,
                                 const std::vector<Alternative>& alts,
                                 const AltOptions& opts) {
  const std::size_t n = alts.size();
  AltOutcome out;
  out.alts.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.alts[i].index = i + 1;
    out.alts[i].name = alts[i].name;
  }
  if (n == 0) {
    out.failed = true;
    out.failure = AltFailure::kNoAlternatives;
    return out;
  }

  SpecScheduler& sched = rt.scheduler();
  const std::uint64_t group = rt.next_alt_group();
  ProcessTable& table = rt.processes();
  auto blk = std::make_shared<Block>();

  std::vector<std::size_t> spawned;
  for (std::size_t i = 0; i < n; ++i) {
    if ((opts.guard_phases & kGuardPreSpawn) && alts[i].guard &&
        !alts[i].guard(parent)) {
      continue;
    }
    spawned.push_back(i);
    out.alts[i].spawned = true;
  }
  if (spawned.empty()) {
    out.failed = true;
    out.failure = AltFailure::kAllFailed;
    return out;
  }
  const std::size_t m = spawned.size();

  // Admission: fit the race inside the global speculation budget before a
  // single world exists. A rejected race spawns nothing — the block fails
  // the same way an all-guards-false block does, and the caller decides
  // whether to retry sequentially.
  if (!sched.admit(m, parent.pid(), group)) {
    for (std::size_t i = 0; i < n; ++i) out.alts[i].spawned = false;
    out.failed = true;
    out.failure = AltFailure::kAdmissionRejected;
    out.elapsed = static_cast<VDuration>(blk->now());
    return out;
  }

  blk->sched = &sched;
  blk->source = &alts;
  blk->guard_phases = opts.guard_phases;
  blk->virtual_bodies = sched.deterministic();
  blk->parent_pid = parent.pid();
  blk->group = group;
  blk->slots = std::vector<Slot>(m);
  blk->pids.reserve(m);
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t i = spawned[k];
    Slot& s = blk->slots[k];
    s.index = i;
    s.rng = rt.rng_for(group, i + 1);
    blk->pids.push_back(table.create(parent.pid(), group, alts[i].name));
  }
  const std::vector<Pid>& sibling_pids = blk->pids;

  MW_TRACE_EVENT(trace::EventKind::kAltBlockBegin, parent.pid(), kNoPid,
                 group, m, 0);
  Stopwatch setup_clock;
  blk->worlds.reserve(m);
  for (std::size_t k = 0; k < m; ++k) {
    MW_TRACE_EVENT(trace::EventKind::kAltSpawn, sibling_pids[k], parent.pid(),
                   group, spawned[k] + 1, blk->now());
    blk->worlds.push_back(
        parent.fork_alternative(sibling_pids[k], sibling_pids));
    table.set_status(sibling_pids[k], ProcStatus::kRunning);
  }
  out.overhead.setup = static_cast<VDuration>(setup_clock.elapsed_us());

  // Effective priorities: in kAdaptive mode the policy engine reorders the
  // race by learned per-position win rate (with an epsilon-explore floor),
  // boosting its predicted winner to the hot end of the deque; the
  // last-ranked position is the "deferred" alternative — still submitted,
  // but the likeliest to be revoked unrun when the winner prunes. Keyed by
  // input position, matching observe_race's AltReport.index accounting.
  // kStatic mode passes the base priorities through unchanged.
  std::vector<double> base_priority(n);
  for (std::size_t i = 0; i < n; ++i) base_priority[i] = alts[i].priority;
  const PolicyPlan plan = rt.policy().plan_race(group, base_priority);

  // Submit hottest-first (plan.order): priorities alone cannot reorder a
  // race when workers start popping the inbox before the last sibling is
  // enqueued. Static plans carry the identity order, so this loop walks
  // `spawned` exactly as before.
  std::vector<std::size_t> submit_seq(m);
  for (std::size_t k = 0; k < m; ++k) submit_seq[k] = k;
  if (plan.order.size() == n) {
    std::vector<std::size_t> rank(n, 0);
    for (std::size_t r = 0; r < n; ++r) rank[plan.order[r]] = r;
    std::stable_sort(submit_seq.begin(), submit_seq.end(),
                     [&](std::size_t a, std::size_t b) {
                       return rank[spawned[a]] < rank[spawned[b]];
                     });
  }

  for (const std::size_t k : submit_seq) {
    // The task handle is published under blk->mu: a task can win and
    // prune while later siblings are still being submitted.
    SchedTaskRef task = sched.submit(
        [blk, k] { run_task(blk, k); }, plan.priority[spawned[k]], group,
        sibling_pids[k],
        [blk, k](SchedTask& t) {
          finish(blk, k, t.faulted() ? End::kFaulted : End::kRevoked);
        },
        parent.pid(), spawned[k] + 1);
    std::lock_guard<std::mutex> lk(blk->mu);
    blk->slots[k].task = std::move(task);
  }

  // Waits until `pred` holds or `bound` µs pass (kVTimeMax: no bound). The
  // predicate is checked before the clock is read, so a wait that already
  // holds costs one lock. A helping parent (pool worker or deterministic
  // driver) runs tasks between checks instead of sleeping — a fully
  // subscribed pool with nested races must never deadlock on its own
  // parents.
  auto wait_for_pred = [&](auto pred, VDuration bound) -> bool {
    std::optional<std::chrono::steady_clock::time_point> deadline;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(blk->mu);
        if (pred()) return true;
      }
      if (bound != kVTimeMax) {
        const auto now = std::chrono::steady_clock::now();
        if (!deadline) {
          deadline = now + std::chrono::microseconds(bound);
        } else if (now >= *deadline) {
          return false;
        }
      }
      if (sched.should_help()) {
        if (sched.run_one()) continue;
        if (sched.deterministic()) {
          // Single-threaded and nothing runnable: every task of this block
          // is terminal, so the predicate must hold now.
          std::unique_lock<std::mutex> lk(blk->mu);
          MW_CHECK(pred());
          return true;
        }
        std::unique_lock<std::mutex> lk(blk->mu);
        blk->cv.wait_for(lk, std::chrono::microseconds(200), pred);
      } else {
        std::unique_lock<std::mutex> lk(blk->mu);
        if (!deadline) {
          blk->cv.wait(lk, pred);
        } else if (!blk->cv.wait_until(lk, *deadline, pred)) {
          return false;
        }
        return true;
      }
    }
  };

  auto decided = [&] { return blk->synced >= 0 || blk->terminal == m; };
  auto winner = [&] {
    std::lock_guard<std::mutex> lk(blk->mu);
    return blk->synced;
  };
  auto all_terminal = [&] { return blk->terminal == m; };

  // Bounded reap: losers get opts.reap_deadline µs to reach a terminal
  // state; whoever has not is detached as a straggler. Deterministic mode
  // runs every task on this thread, so nothing can straggle there.
  std::size_t stragglers = 0;
  bool reaped = false;
  auto reap = [&] {
    if (reaped) return;
    reaped = true;
    const VDuration bound =
        sched.deterministic() ? kVTimeMax : opts.reap_deadline;
    if (wait_for_pred(all_terminal, bound)) return;
    std::lock_guard<std::mutex> lk(blk->mu);
    for (Slot& s : blk->slots) {
      if (s.end != End::kPending) continue;
      s.detached = true;
      ++stragglers;
    }
  };

  // alt_wait.
  MW_TRACE_EVENT(trace::EventKind::kAltWait, parent.pid(), kNoPid, group, 0,
                 blk->now());
  const bool decided_in_time = wait_for_pred(decided, opts.timeout);
  int wk = winner();

  if (!decided_in_time && wk < 0) {
    // Timeout. Close the race so no child can sync into a block that has
    // selected its failure alternative, then revoke what never started,
    // cancel what did and reap. A child that won its CAS before the close
    // keeps its at-most-once win and is honoured below once published.
    int expected = -1;
    if (blk->race.compare_exchange_strong(expected, kRaceClosed)) {
      prune_siblings(*blk, m);  // no winner: prune everyone
      reap();
      out.failed = true;
      out.failure = AltFailure::kTimeout;
    } else {
      wait_for_pred([&] { return blk->synced >= 0; }, kVTimeMax);
      wk = winner();
    }
  }

  if (wk >= 0) {
    // The winner already pruned its queued siblings; sweep again from the
    // parent to catch any sibling submitted after the winner's pass, then
    // honour the elimination mode. Synchronous elimination waits for the
    // losers' termination (§2.2.1), bounded by the reap deadline.
    Stopwatch elim_clock;
    prune_siblings(*blk, static_cast<std::size_t>(wk));
    if (opts.elimination == Elimination::kSynchronous) reap();
    out.overhead.elimination = static_cast<VDuration>(elim_clock.elapsed_us());

    const auto wku = static_cast<std::size_t>(wk);
    const std::size_t wi = spawned[wku];
    out.winner = wi;
    out.winner_name = alts[wi].name;
    out.alts[wi].pages_copied =
        blk->worlds[wku].space().table().stats().pages_copied;

    Stopwatch commit_clock;
    table.set_status(sibling_pids[wku], ProcStatus::kSynced);
    out.result = std::move(blk->slots[wku].result);
    parent.commit_from(std::move(blk->worlds[wku]));
    out.overhead.commit = static_cast<VDuration>(commit_clock.elapsed_us());
  } else if (decided_in_time) {
    out.failed = true;
    out.failure = AltFailure::kAllFailed;
  }
  out.elapsed = static_cast<VDuration>(blk->now());

  // The pool's equivalent of joining the threads. Running losers unwind at
  // their next checkpoint and revoked ones are already terminal; a loser
  // that ignores its cancel token past the reap deadline is a straggler.
  reap();

  for (std::size_t k = 0; k < m; ++k) {
    const Slot& s = blk->slots[k];
    AltReport& rep = out.alts[spawned[k]];
    rep.pid = sibling_pids[k];
    rep.success = static_cast<int>(k) == wk;
    // A straggler's slot still belongs to its task: its end is unknown and
    // its page counters are not sampled (left 0).
    rep.straggler = s.detached;
    const End end = s.detached ? End::kPending : s.end;
    if (!s.detached && !rep.success)
      rep.pages_copied = blk->worlds[k].space().table().stats().pages_copied;
    switch (end) {
      case End::kSynced:
        rep.ran = true;
        break;
      case End::kAborted:
      case End::kFaulted:
        // kFaulted: killed by an injected fault at the steal point before
        // its body ran. Failed, not eliminated — a supervisor watching this
        // pid must see a crash to recover.
        rep.ran = end == End::kAborted;
        table.set_status(sibling_pids[k], ProcStatus::kFailed);
        MW_TRACE_EVENT(trace::EventKind::kAltAbort, sibling_pids[k], kNoPid,
                       group, 0, blk->now());
        break;
      case End::kRevoked:
        rep.revoked = true;
        MW_TRACE_EVENT(trace::EventKind::kSchedRevoke, sibling_pids[k],
                       kNoPid, group, rep.pages_copied, blk->now());
        [[fallthrough]];
      case End::kPending:
      case End::kCancelled:
        rep.ran = end == End::kCancelled ||
                  (s.detached &&
                   s.task->state() != SchedTask::State::kQueued);
        table.set_status(sibling_pids[k], ProcStatus::kEliminated);
        MW_TRACE_EVENT(trace::EventKind::kAltEliminate, sibling_pids[k],
                       kNoPid, group, 0, blk->now());
        break;
    }
  }
  MW_TRACE_EVENT(trace::EventKind::kAltBlockEnd, parent.pid(), kNoPid, group,
                 static_cast<std::uint64_t>(out.failure), blk->now());

  // Drop terminal task records of this race still parked in the deques,
  // the block's own handles (a queued straggler's closure holds the block)
  // and its view of the caller's alternatives. Then destroy this block's
  // worlds (the losers' pages die here) before giving the grant back —
  // releasing first would let a new race admit while the old one's pages
  // are still resident, transiently blowing the
  // max_live_worlds/max_resident_pages budget. A straggler's world and
  // grant stay with its task until it ends.
  sched.scrub(group);
  {
    std::lock_guard<std::mutex> lk(blk->mu);
    blk->source = nullptr;
    for (Slot& s : blk->slots) s.task.reset();
  }
  for (std::size_t k = 0; k < m; ++k) {
    if (!blk->slots[k].detached) World gone(std::move(blk->worlds[k]));
  }
  sched.release(m - stragglers);
  return out;
}

}  // namespace internal

}  // namespace mw
