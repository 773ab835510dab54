#include "proc/process_table.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <memory>
#include <new>

#include "util/check.hpp"

namespace mw {

namespace {

constexpr std::uint8_t kUnpublished = 0;

std::uint8_t encode(ProcStatus s) { return static_cast<std::uint8_t>(s) + 1; }
ProcStatus decode(std::uint8_t v) { return static_cast<ProcStatus>(v - 1); }

struct Loc {
  std::size_t segment;
  std::size_t offset;
};

// Segment k holds first << k slots and starts at first * (2^k - 1).
Loc locate(Pid pid, std::size_t first) {
  const std::size_t i = pid - 1;
  const auto seg = static_cast<std::size_t>(std::bit_width(i / first + 1)) - 1;
  return {seg, i - first * ((std::size_t{1} << seg) - 1)};
}

}  // namespace

template <typename Fn>
void ProcessTable::for_each_record(Fn fn) const {
  const Pid end = next_pid_.load(std::memory_order_acquire);
  for (Pid pid = 1; pid < end; ++pid)
    if (Slot* s = find(pid)) fn(pid, *s);
}

ProcessTable::ProcessTable() = default;

ProcessTable::~ProcessTable() {
  for_each_record([](Pid, Slot& s) { std::destroy_at(&label_of(s)); });
  for (auto& seg : segments_) std::free(seg.load(std::memory_order_relaxed));
  Listener* l = listeners_.load(std::memory_order_relaxed);
  while (l != nullptr) {
    Listener* next = l->next.load(std::memory_order_relaxed);
    delete l;
    l = next;
  }
}

ProcessTable::Slot* ProcessTable::find(Pid pid) const {
  if (pid == kNoPid) return nullptr;
  const Loc loc = locate(pid, kFirstSegment);
  Slot* base = segments_[loc.segment].load(std::memory_order_acquire);
  if (base == nullptr) return nullptr;
  Slot& s = base[loc.offset];
  if (std::atomic_ref<std::uint8_t>(s.status).load(
          std::memory_order_acquire) == kUnpublished) {
    return nullptr;
  }
  return &s;
}

ProcessTable::Slot& ProcessTable::at(Pid pid) const {
  Slot* s = find(pid);
  MW_CHECK(s != nullptr);
  return *s;
}

ProcessTable::Slot& ProcessTable::reserve(Pid pid) {
  const Loc loc = locate(pid, kFirstSegment);
  Slot* base = segments_[loc.segment].load(std::memory_order_acquire);
  if (base == nullptr) {
    std::lock_guard<std::mutex> lk(grow_mu_);
    base = segments_[loc.segment].load(std::memory_order_relaxed);
    if (base == nullptr) {
      // calloc: large segments come straight from the kernel's zero pages,
      // so only the slots actually used become resident.
      base = static_cast<Slot*>(
          std::calloc(kFirstSegment << loc.segment, sizeof(Slot)));
      MW_CHECK(base != nullptr);
      segments_[loc.segment].store(base, std::memory_order_release);
    }
  }
  return base[loc.offset];
}

std::string& ProcessTable::label_of(Slot& s) {
  return *std::launder(reinterpret_cast<std::string*>(s.label));
}

std::vector<Pid> ProcessTable::children_of(Slot& s) const {
  // Each push is a release CAS on first_child that read the previous head,
  // so one acquire load of the head makes every older link visible.
  std::vector<Pid> out;
  Pid c = std::atomic_ref<Pid>(s.first_child).load(std::memory_order_acquire);
  while (c != kNoPid) {
    out.push_back(c);
    Slot& child = *find(c);
    c = std::atomic_ref<Pid>(child.next_sibling)
            .load(std::memory_order_relaxed);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Pid ProcessTable::create(Pid parent, std::uint64_t alt_group,
                         std::string label) {
  const Pid pid = next_pid_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = reserve(pid);
  ::new (static_cast<void*>(s.label)) std::string(std::move(label));
  s.alt_group = alt_group;
  s.parent = parent;
  std::atomic_ref<std::uint8_t>(s.status).store(encode(ProcStatus::kReady),
                                                std::memory_order_release);
  if (Slot* p = find(parent)) {
    std::atomic_ref<Pid> head(p->first_child);
    std::atomic_ref<Pid> next(s.next_sibling);
    Pid first = head.load(std::memory_order_relaxed);
    do {
      next.store(first, std::memory_order_relaxed);
    } while (!head.compare_exchange_weak(first, pid,
                                         std::memory_order_release,
                                         std::memory_order_relaxed));
  }
  return pid;
}

ProcessRecord ProcessTable::record_of(Pid pid, Slot& s) const {
  ProcessRecord rec;
  rec.pid = pid;
  rec.parent = s.parent;
  rec.status = status_of(s);
  rec.alt_group = s.alt_group;
  rec.label = label_of(s);
  rec.children = children_of(s);
  return rec;
}

ProcessRecord ProcessTable::get(Pid pid) const {
  Slot& s = at(pid);
  std::lock_guard<std::mutex> lk(label_mu_);
  return record_of(pid, s);
}

bool ProcessTable::exists(Pid pid) const { return find(pid) != nullptr; }

ProcStatus ProcessTable::status_of(Slot& s) {
  return decode(
      std::atomic_ref<std::uint8_t>(s.status).load(std::memory_order_acquire));
}

ProcStatus ProcessTable::status(Pid pid) const { return status_of(at(pid)); }

Pid ProcessTable::parent(Pid pid) const { return at(pid).parent; }

std::uint64_t ProcessTable::alt_group(Pid pid) const {
  return at(pid).alt_group;
}

bool ProcessTable::set_status(Pid pid, ProcStatus next) {
  std::atomic_ref<std::uint8_t> st(at(pid).status);
  std::uint8_t cur = st.load(std::memory_order_acquire);
  do {
    if (is_terminal(decode(cur))) return false;
  } while (!st.compare_exchange_weak(cur, encode(next),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire));
  for (Listener* l = listeners_.load(std::memory_order_acquire); l != nullptr;
       l = l->next.load(std::memory_order_acquire)) {
    l->fn(pid, decode(cur), next);
  }
  return true;
}

Completion ProcessTable::complete(Pid pid) const {
  return completion_of(status(pid));
}

void ProcessTable::set_label(Pid pid, std::string label) {
  Slot& s = at(pid);
  std::lock_guard<std::mutex> lk(label_mu_);
  label_of(s) = std::move(label);
}

void ProcessTable::subscribe(StatusListener fn) {
  auto* l = new Listener{std::move(fn)};
  std::lock_guard<std::mutex> lk(grow_mu_);
  (last_listener_ != nullptr ? last_listener_->next : listeners_)
      .store(l, std::memory_order_release);
  last_listener_ = l;
}

std::size_t ProcessTable::process_count() const {
  return next_pid_.load(std::memory_order_acquire) - 1;
}

std::size_t ProcessTable::live_count() const {
  std::size_t n = 0;
  for_each_record([&](Pid, Slot& s) {
    if (!is_terminal(status_of(s))) ++n;
  });
  return n;
}

std::vector<ProcessRecord> ProcessTable::snapshot() const {
  std::vector<ProcessRecord> out;
  out.reserve(process_count());
  std::lock_guard<std::mutex> lk(label_mu_);
  for_each_record(
      [&](Pid pid, Slot& s) { out.push_back(record_of(pid, s)); });
  return out;
}

}  // namespace mw
