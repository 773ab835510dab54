// ProcessTable: the registry of speculative processes — pid allocation,
// parent/child links, status lifecycle, and status-change notification.
//
// Predicate resolution is event-driven: the predicated message layer and
// the Multiple Worlds runtime subscribe here, and react when a process
// reaches a terminal status ("we can update the value of these elements as
// processes change status ... much less frequently than they make memory
// references", §2.3).
//
// The table is dense and indexed by pid, and the race path takes no lock:
//   * Pids come from an atomic counter, from 1 upward, never reused.
//   * Records live in segments of geometrically growing size (kFirstSegment,
//     then twice the last), so a record never moves and a small table stays
//     small. A segment is zero-filled on allocation and only its touched
//     pages become resident; adding one takes `grow_mu_`, which is rare.
//   * A record's status is an atomic byte; 0 means "not yet published".
//     The creator fills in parent, group and label, then publishes the
//     record by storing kReady with release, so every lock-free reader that
//     sees the record sees its fields.
//   * Children form an intrusive list of pids (first_child / next_sibling),
//     pushed by CAS.
//   * Listeners are an append-only list published with release.
//   * Labels may change after publication (`set_label`), so reading or
//     replacing one takes `label_mu_`; only get(), snapshot() and set_label()
//     do that, none of them on a race's path.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "proc/status.hpp"
#include "util/ids.hpp"

namespace mw {

struct ProcessRecord {
  Pid pid = kNoPid;
  Pid parent = kNoPid;
  ProcStatus status = ProcStatus::kReady;
  std::uint64_t alt_group = 0;  // alt_spawn group id, 0 = none
  std::string label;            // diagnostic only
  std::vector<Pid> children;    // ascending
};

class ProcessTable {
 public:
  using StatusListener =
      std::function<void(Pid, ProcStatus /*old*/, ProcStatus /*new*/)>;

  ProcessTable();
  ~ProcessTable();

  ProcessTable(const ProcessTable&) = delete;
  ProcessTable& operator=(const ProcessTable&) = delete;

  /// Creates a process; pids are never reused within one table.
  Pid create(Pid parent, std::uint64_t alt_group = 0, std::string label = {});

  /// Snapshot of the record (by value: the live record may change). Copies
  /// the label and the children list; prefer the O(1) accessors below when
  /// one field is enough.
  ProcessRecord get(Pid pid) const;
  bool exists(Pid pid) const;

  ProcStatus status(Pid pid) const;
  Pid parent(Pid pid) const;
  std::uint64_t alt_group(Pid pid) const;

  /// Transitions `pid`; enforces that terminal states are never left.
  /// Returns false (no-op, no notification) if the process was already
  /// terminal — e.g. an elimination racing a self-initiated failure.
  bool set_status(Pid pid, ProcStatus next);

  /// The completion oracle complete(P) over live table state.
  Completion complete(Pid pid) const;

  /// Replaces a process's diagnostic label — how the supervision layer
  /// annotates a pid with its fate ("quarantined after N restarts").
  void set_label(Pid pid, std::string label);

  /// Registers a listener invoked (outside any lock) once after every
  /// accepted status transition. Listeners cannot be removed — the
  /// subsystems that subscribe live as long as the table.
  void subscribe(StatusListener fn);

  /// Pids handed out so far.
  std::size_t process_count() const;

  /// Number of processes currently in a non-terminal state.
  std::size_t live_count() const;

  /// Copy of every record, ordered by pid — the auditor's view.
  std::vector<ProcessRecord> snapshot() const;

 private:
  // Zero-filled storage is a valid, unpublished record: the fields are
  // plain integers reached through std::atomic_ref, and the label is
  // constructed in place by the creator before publication.
  struct Slot {
    alignas(std::string) unsigned char label[sizeof(std::string)];
    std::uint64_t alt_group;
    Pid parent;
    Pid first_child;
    Pid next_sibling;
    std::uint8_t status;  // 0 = unpublished, else ProcStatus + 1
  };

  struct Listener {
    StatusListener fn;
    std::atomic<Listener*> next{nullptr};
  };

  static constexpr std::size_t kFirstSegment = 64;
  static constexpr std::size_t kSegments = 32;  // covers every 32-bit pid

  /// The published record of `pid`, or null.
  Slot* find(Pid pid) const;
  /// The published record of `pid`; fails if there is none.
  Slot& at(Pid pid) const;
  /// The slot `pid` will occupy, allocating its segment if needed.
  Slot& reserve(Pid pid);
  /// Calls fn(pid, slot) for every published record, in pid order.
  template <typename Fn>
  void for_each_record(Fn fn) const;
  static ProcStatus status_of(Slot& s);
  static std::string& label_of(Slot& s);
  std::vector<Pid> children_of(Slot& s) const;
  /// Caller holds label_mu_.
  ProcessRecord record_of(Pid pid, Slot& s) const;

  std::atomic<Pid> next_pid_{1};
  std::array<std::atomic<Slot*>, kSegments> segments_{};
  std::atomic<Listener*> listeners_{nullptr};

  std::mutex grow_mu_;         // adding a segment or a listener
  Listener* last_listener_ = nullptr;  // guarded by grow_mu_
  mutable std::mutex label_mu_;  // labels after publication
};

}  // namespace mw
