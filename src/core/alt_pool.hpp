// The kPool backend: the wall-clock engine for alternative blocks. Each
// alternative is a task on the shared work-stealing SpecScheduler (one
// worker per hardware thread), so many concurrent races never ask the OS
// for more runnable threads than cores.
//
//   * Admission — the block asks the scheduler's speculation budget for
//     room *before* forking any world; a rejected block fails with
//     AltFailure::kAdmissionRejected and spawns nothing.
//   * Pruning — when a winner synchronizes it immediately revokes its
//     still-queued siblings, inside the winning task and before the parent
//     even wakes. A revoked alternative's body never runs and its world
//     never breaks a COW page (AltReport::revoked, pages_copied == 0).
//   * Helping — a parent that is itself a pool worker (nested races) or a
//     deterministic-mode driver executes tasks while it waits instead of
//     blocking, so a fully subscribed pool cannot deadlock on nesting.
//   * Bounded reap — elimination is cooperative, so a loser that never
//     checks its cancel token would wedge the parent. The block waits at
//     most AltOptions::reap_deadline for its losers to end, then returns
//     with the rest marked AltReport::straggler. A straggler keeps its
//     world and its admission grant until its own task ends.
//
// Semantics (winner selection, guards, accept, commit, elimination of
// running losers) are those of the kVirtual reference backend.
#pragma once

#include <vector>

#include "core/alt.hpp"

namespace mw {

class Runtime;

namespace internal {

AltOutcome run_alternatives_pool(Runtime& rt, World& parent,
                                 const std::vector<Alternative>& alts,
                                 const AltOptions& opts);

}  // namespace internal

}  // namespace mw
