// svc_socket: open-loop requests over loopback UDP into a 2-node
// ClusterNode cluster of forked processes sharing one FileEffectLog.
//
// The generator is this process's one thread. It sends on an absolute
// schedule (request i is due at phase_start + i / rate) and times every
// request from that intended send time, so a stalled generator or a slow
// system shows up in latency instead of thinning the offered load (the
// coordinated-omission correction of wrk2). It waits for the next due time
// in ppoll() on the transport's own socket, so replies are read the moment
// they arrive.
//
// Each node process is benchmark code around the library's ClusterNode: a
// Transport interpose times on_message, a FileEffectLog subclass times
// append, and at exit the node writes its ServiceStats, ClusterStats,
// TransportStats, scheduler counters, CPU time and peak RSS to a pipe.
#include <fcntl.h>
#include <malloc.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "core/runtime_auditor.hpp"
#include "dist/socket_transport.hpp"
#include "pagestore/page_pool.hpp"
#include "proc/process_table.hpp"
#include "service/cluster.hpp"
#include "trace/spec_profile.hpp"
#include "workloads.hpp"

namespace bench {

namespace {

using mw::NodeId;

constexpr NodeId kFirstNode = 100;
constexpr NodeId kGeneratorNode = 199;
constexpr NodeId kFirstClient = 10'000;
constexpr NodeId kFirstProbeClient = 1'000;
constexpr std::uint64_t kRingSeed = 7;
constexpr std::size_t kVnodes = 8;

// The workload's fixed shape. Only the offered rates come from
// perfbench/workloads.json; the tests may also override `setups`,
// `steady_rps` and `stall_ms`.
constexpr double kSteadyShare = 0.5;  // of each segment's seconds
constexpr std::uint64_t kWork = 100'000;
constexpr std::size_t kClients = 8192;
constexpr std::size_t kNodes = 2;
constexpr double kDeadlineMs = 1000;
// A long modeled service time keeps the nodes' timer lateness, which a
// host's vCPU steal raises by milliseconds, a small share of latency and
// of the cluster's capacity (kMaxInflight / kServiceMeanUs per node).
constexpr mw::VDuration kServiceMeanUs = 40'000;
constexpr std::size_t kMaxInflight = 32;
constexpr std::size_t kQueueCapacity = 64;
constexpr int kLocalReplicas = 2;
constexpr double kDrainMs = 1000;
constexpr std::size_t kSetups = 7;
// The run's checks.
constexpr double kLatencyLimitMs = 500;   // a kOk later than this is a miss
constexpr double kLossBudget = 0.005;     // unanswered share allowed (UDP)
constexpr double kMinAchievedShare = 0.95;  // of the offered rate, per phase

struct SvcParams {
  double steady_rps = 0;
  double overload_rps = 0;
  std::size_t setups = kSetups;
  double stall_ms = 0;  // deliberate generator stall (self-test only)

  static SvcParams from(const Options& o) {
    o.require_only({"steady_rps", "overload_rps", "setups", "stall_ms"});
    SvcParams p;
    p.steady_rps = o.num("steady_rps");
    p.overload_rps = o.num("overload_rps");
    if (o.has("setups")) p.setups = static_cast<std::size_t>(o.integer("setups"));
    if (o.has("stall_ms")) p.stall_ms = o.num("stall_ms");
    return p;
  }
};

bool read_full(int fd, void* buf, std::size_t len) {
  auto* p = static_cast<std::uint8_t*>(buf);
  while (len > 0) {
    const ssize_t n = ::read(fd, p, len);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool write_full(int fd, const void* buf, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool write_samples(int fd, const std::vector<double>& v) {
  const std::uint64_t n = v.size();
  return write_full(fd, &n, sizeof n) &&
         write_full(fd, v.data(), n * sizeof(double));
}

bool read_samples(int fd, std::vector<double>& out) {
  std::uint64_t n = 0;
  if (!read_full(fd, &n, sizeof n) || n > (1ull << 28)) return false;
  std::vector<double> v(n);
  if (!read_full(fd, v.data(), n * sizeof(double))) return false;
  out.insert(out.end(), v.begin(), v.end());
  return true;
}

// ---------------------------------------------------------------------------
// Node process

/// What a node reports at exit (fixed layout, sent over a pipe).
struct NodeReport {
  mw::ServiceStats svc;
  std::uint64_t misroutes = 0;
  std::uint64_t fence_sheds = 0;
  std::uint64_t evictions = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t races = 0;
  std::uint64_t alts_spawned = 0;
  std::uint64_t alts_revoked = 0;
  mw::SchedStats sched;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;  // above the node's resident set at its start
  std::int64_t leaked_pages = 0;  // RuntimeAuditor after the node's teardown
};

/// Times FileEffectLog::append from outside the library.
class TimedEffectLog final : public mw::FileEffectLog {
 public:
  TimedEffectLog(const std::string& path, NodeId writer, bool timed)
      : FileEffectLog(path, writer), timed_(timed) {}
  void append(const mw::Effect& e) override {
    if (!timed_) {
      FileEffectLog::append(e);
      return;
    }
    const std::int64_t t0 = now_ns();
    FileEffectLog::append(e);
    const std::int64_t t1 = now_ns();
    samples.push_back(static_cast<double>(t1 - t0) / 1e3);
    SpanLog::get().record("effect_log.append", e.seq, t0, t1);
  }
  std::vector<double> samples;

 private:
  bool timed_;
};

/// Transport interpose: bound over the ClusterNode, times its on_message.
class TimedReceiver final : public mw::TransportReceiver {
 public:
  TimedReceiver(mw::TransportReceiver& inner, bool timed)
      : inner_(inner), timed_(timed) {}
  void on_message(NodeId from,
                  std::span<const std::uint8_t> payload) override {
    if (!timed_) {
      inner_.on_message(from, payload);
      return;
    }
    const std::int64_t t0 = now_ns();
    inner_.on_message(from, payload);
    const std::int64_t t1 = now_ns();
    samples.push_back(static_cast<double>(t1 - t0) / 1e3);
    SpanLog::get().record("service.on_message", from, t0, t1);
  }
  std::vector<double> samples;

 private:
  mw::TransportReceiver& inner_;
  bool timed_;
};

mw::ClusterConfig node_config(std::uint64_t seed, NodeId self) {
  mw::ClusterConfig c;
  c.seed = kRingSeed;
  c.vnodes = kVnodes;
  c.service.seed = seed * 1000 + self;
  c.service.max_inflight = kMaxInflight;
  c.service.queue_capacity = kQueueCapacity;
  c.service.default_deadline =
      static_cast<mw::VDuration>(kDeadlineMs * 1000);
  c.service.service_mean = kServiceMeanUs;
  c.service.tail_prob = 0;  // no modeled slow tail
  c.service.local_replicas = kLocalReplicas;
  // One pool worker: the main thread blocks while the local race runs,
  // so a node keeps at most one thread busy and the nodes' busy threads
  // stay within nproc.
  c.service.pool.workers = 1;
  return c;
}

struct NodePipes {
  int up_wr = -1;    // node -> generator: port, then the exit report
  int table_rd = -1; // generator -> node: the port table
  int ctrl_rd = -1;  // generator -> node: 'Q' (or EOF) ends the node
};

[[noreturn]] void node_main(std::uint64_t seed, NodeId self,
                            const std::vector<NodeId>& members,
                            NodePipes pipes, const std::string& log_path,
                            bool traced, const std::string& spans_path) {
  // The fork copied the generator's resident heap into this process. Give
  // its free part back and count only what the node adds above the rest.
  ::malloc_trim(0);
  reset_peak_rss();
  const double base_rss_mb = rss_mb_self();

  mw::SocketTransport transport(self);
  const std::uint16_t port = transport.port();
  if (!write_full(pipes.up_wr, &port, sizeof port)) ::_exit(1);
  for (std::size_t i = 0; i < members.size(); ++i) {
    std::uint64_t id = 0;
    std::uint16_t peer_port = 0;
    if (!read_full(pipes.table_rd, &id, sizeof id) ||
        !read_full(pipes.table_rd, &peer_port, sizeof peer_port))
      ::_exit(1);
    if (id != self) transport.add_peer(id, peer_port);
  }
  ::close(pipes.table_rd);
  ::fcntl(pipes.ctrl_rd, F_SETFL, O_NONBLOCK);

  SpanLog::get().set_enabled(traced);
  if (traced) {
    mw::trace::reset();
    mw::trace::set_enabled(true);
  }
  // Built before the node, so its page baseline excludes the node's pages.
  const mw::RuntimeAuditor auditor;
  NodeReport r;
  std::vector<double> handle_us, append_us;
  {
    TimedEffectLog effects(log_path, self, traced);
    if (!effects.valid()) ::_exit(1);
    mw::ClusterNode node(transport, self, members, effects,
                         node_config(seed, self));
    TimedReceiver interpose(node, traced);
    transport.bind(self, interpose);
    const char ready = 'R';
    if (!write_full(pipes.up_wr, &ready, 1)) ::_exit(1);
    const auto pool0 = mw::PagePool::global().stats();
    const double cpu0 = cpu_seconds_self();

    // Serve until told to stop (or the generator is gone); a hard budget
    // keeps an orphaned node from outliving its run.
    const std::int64_t give_up = now_ns() + 170'000'000'000;
    for (;;) {
      transport.run_until(transport.now() + 2000);
      char c = 0;
      const ssize_t n = ::read(pipes.ctrl_rd, &c, 1);
      if (n == 0 || (n == 1 && c == 'Q')) break;
      if (now_ns() > give_up) ::_exit(1);
    }

    r.svc = node.server().stats();
    r.misroutes = node.stats().misroutes;
    r.fence_sheds = node.stats().fence_sheds;
    r.evictions = node.stats().evictions;
    r.frames_sent = transport.stats().messages_sent;
    const mw::RuntimeStats& rs = node.server().runtime().stats();
    r.races = rs.blocks_run;
    r.alts_spawned = rs.alternatives_spawned;
    r.alts_revoked = rs.alternatives_revoked;
    r.sched = node.server().runtime().scheduler().stats();
    const auto pool1 = mw::PagePool::global().stats();
    r.pool_hits = pool1.hits - pool0.hits;
    r.pool_misses = pool1.misses - pool0.misses;
    if (traced) {
      mw::trace::set_enabled(false);
      r.trace_dropped = mw::trace::dropped();
      const auto events = mw::trace::drain();
      r.trace_events =
          mw::trace::build_spec_profile(events, r.trace_dropped).events;
      SpanLog::get().write_chrome(spans_path, static_cast<int>(self));
    }
    r.cpu_s = cpu_seconds_self() - cpu0;
    r.peak_rss_mb = peak_rss_mb_self() - base_rss_mb;
    handle_us = std::move(interpose.samples);
    append_us = std::move(effects.samples);
    transport.unbind(self);
  }
  // The node and its runtime are gone: every page they made must be too.
  const mw::ProcessTable empty;
  r.leaked_pages = auditor.run(empty).leaked_pages;
  const bool ok = write_full(pipes.up_wr, &r, sizeof r) &&
                  write_samples(pipes.up_wr, handle_us) &&
                  write_samples(pipes.up_wr, append_us);
  ::_exit(ok ? 0 : 1);
}

// ---------------------------------------------------------------------------
// Generator

/// Finds the UDP socket a SocketTransport bound, by its port, so the
/// generator can wait on it with ppoll().
int find_socket_fd(std::uint16_t port) {
  for (int fd = 3; fd < 1024; ++fd) {
    sockaddr_in a{};
    socklen_t len = sizeof a;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&a), &len) == 0 &&
        a.sin_family == AF_INET && ntohs(a.sin_port) == port)
      return fd;
  }
  return -1;
}

/// Blocks until `fd` is readable or `until_ns` (monotonic) passes.
void wait_readable(int fd, std::int64_t until_ns) {
  const std::int64_t d = until_ns - now_ns();
  if (d <= 0) return;
  pollfd pfd{fd, POLLIN, 0};
  timespec ts{static_cast<time_t>(d / 1'000'000'000),
              static_cast<long>(d % 1'000'000'000)};
  ::ppoll(&pfd, 1, &ts, nullptr);
}

struct Request {
  std::int64_t offset_ns = 0;  // due time within its phase
  std::int64_t intended_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t recv_ns = 0;
  std::uint64_t payload = 0;
  double send_us = 0;
  mw::SvcStatus status = mw::SvcStatus::kOk;
  std::uint64_t value = 0;
  bool sent = false;
  bool answered = false;
};

/// A segment's requests: steady ones first, then overload ones.
struct Plan {
  std::vector<Request> reqs;
  std::size_t n_steady = 0;
  double steady_s = 0;
  double overload_s = 0;
};

/// Makes every request of a `seconds`-long segment from the seed: its
/// payload and its due time within its phase. Arrivals are Poisson at the
/// phase's rate — many independent users — so no fixed phase lines up
/// with the nodes' timer ticks.
Plan make_plan(const SvcParams& p, std::uint64_t seed, double seconds) {
  Plan plan;
  plan.steady_s = seconds * kSteadyShare;
  plan.overload_s = seconds - plan.steady_s;
  plan.n_steady = static_cast<std::size_t>(p.steady_rps * plan.steady_s);
  const auto n_over = static_cast<std::size_t>(p.overload_rps * plan.overload_s);
  plan.reqs.resize(plan.n_steady + n_over);
  SplitMix gaps(mix64(seed, 0xa771e5ull));
  double t = 0;
  for (std::size_t i = 0; i < plan.reqs.size(); ++i) {
    if (i == plan.n_steady) t = 0;
    const double rate = i < plan.n_steady ? p.steady_rps : p.overload_rps;
    const double u =
        (static_cast<double>(gaps.next() >> 11) + 0.5) / 9007199254740992.0;
    plan.reqs[i].offset_ns = static_cast<std::int64_t>(t);
    t += -std::log(u) * 1e9 / rate;
    plan.reqs[i].payload = mix64(seed, 0x5eed0000ull + i);
  }
  return plan;
}

/// Segment k of a run draws its inputs from its own seed.
std::uint64_t segment_seed(std::uint64_t seed, std::size_t k) {
  return mix64(seed, 0x5e6000ull + k);
}

/// One cluster instance: forked nodes, the generator transport and the
/// request ledger. Every request i is client kFirstClient + i % clients
/// with seq i / clients + 1, so each client has one request outstanding
/// at a time (the session protocol's rule) as long as clients / rate is
/// longer than the deadline.
class Cluster final : public mw::TransportReceiver {
 public:
  Cluster(std::uint64_t seed, bool traced, const std::string& dir)
      : seed_(seed), traced_(traced),
        gen_(kGeneratorNode) {
    for (std::size_t i = 0; i < kNodes; ++i)
      members_.push_back(kFirstNode + static_cast<NodeId>(i));
    for (NodeId id : members_) ring_.add(id);
    static int instance = 0;
    log_path_ = dir + "/effects_" + std::to_string(::getpid()) + "_" +
                std::to_string(instance++) + ".bin";
    spans_prefix_ = dir + "/spans_svc_socket_" + std::to_string(seed);
    ::unlink(log_path_.c_str());
    fd_ = find_socket_fd(gen_.port());
  }
  ~Cluster() override {
    stop_nodes(nullptr);
    ::unlink(log_path_.c_str());
  }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const std::string& log_path() const { return log_path_; }
  std::int64_t ready_ns() const { return ready_ns_; }
  std::vector<Request>& requests() { return reqs_; }
  const mw::TransportStats& gen_stats() const { return gen_.stats(); }

  /// Forks the nodes, wires the port table, and waits until every node
  /// has answered a probe request. On failure the nodes are killed.
  /// ready_ns() is when every node had bound and reported ready; the probe
  /// after it waits out a modeled service delay, which is not set-up.
  bool start(std::string& why) {
    if (launch(why)) return true;
    for (pid_t pid : pids_) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
    pids_.clear();
    for (int fd : up_rd_) ::close(fd);
    for (int fd : ctrl_wr_) ::close(fd);
    up_rd_.clear();
    ctrl_wr_.clear();
    return false;
  }

 private:
  bool launch(std::string& why) {
    if (fd_ < 0) {
      why = "the generator's socket was not found";
      return false;
    }
    std::vector<std::uint16_t> ports(kNodes, 0);
    std::vector<int> table_wr;
    for (std::size_t i = 0; i < kNodes; ++i) {
      int up[2], down[2], ctrl[2];
      if (::pipe(up) != 0 || ::pipe(down) != 0 || ::pipe(ctrl) != 0) {
        why = "pipe failed";
        return false;
      }
      std::fflush(stdout);  // the child must not repeat buffered lines
      const pid_t pid = ::fork();
      if (pid < 0) {
        why = "fork failed";
        return false;
      }
      if (pid == 0) {
        ::close(up[0]);
        ::close(down[1]);
        ::close(ctrl[1]);
        for (int fd : ctrl_wr_) ::close(fd);
        for (int fd : table_wr) ::close(fd);
        node_main(seed_, members_[i], members_, {up[1], down[0], ctrl[0]},
                  log_path_, traced_,
                  spans_prefix_ + "_node" + std::to_string(members_[i]) +
                      ".json");
      }
      ::close(up[1]);
      ::close(down[0]);
      ::close(ctrl[0]);
      pids_.push_back(pid);
      up_rd_.push_back(up[0]);
      ctrl_wr_.push_back(ctrl[1]);
      table_wr.push_back(down[1]);
      if (!read_full(up[0], &ports[i], sizeof ports[i])) {
        why = "node did not report its port";
        return false;
      }
    }
    bool ok = true;
    for (int fd : table_wr) {
      for (std::size_t i = 0; i < kNodes && ok; ++i) {
        const std::uint64_t id = members_[i];
        ok = ok && write_full(fd, &id, sizeof id) &&
             write_full(fd, &ports[i], sizeof ports[i]);
      }
      ::close(fd);
    }
    if (!ok) {
      why = "port table write failed";
      return false;
    }
    for (std::size_t i = 0; i < kNodes; ++i) {
      gen_.add_peer(members_[i], ports[i]);
      char ready = 0;
      if (!read_full(up_rd_[i], &ready, 1) || ready != 'R') {
        why = "node did not come up";
        return false;
      }
    }
    ready_ns_ = now_ns();
    return probe(why);
  }

  /// Sends one request per node from a client that node owns, retrying
  /// until each is answered kOk with the right value.
  bool probe(std::string& why) {
    for (NodeId node : members_) {
      NodeId c = kFirstProbeClient;
      while (ring_.owner_of(c) != node) ++c;
      probe_clients_.push_back(c);
      gen_.bind(c, *this);
    }
    probe_ok_.assign(probe_clients_.size(), false);
    const std::int64_t give_up = now_ns() + 10'000'000'000;
    std::int64_t next_send = 0;
    for (;;) {
      bool all = true;
      for (bool b : probe_ok_) all = all && b;
      if (all) return true;
      const std::int64_t t = now_ns();
      if (t > give_up) {
        why = "a node did not answer its probe within 10 s";
        return false;
      }
      if (t >= next_send) {
        for (std::size_t k = 0; k < probe_clients_.size(); ++k) {
          if (probe_ok_[k]) continue;
          mw::SvcRequest r;
          r.client = probe_clients_[k];
          r.seq = 1;
          r.deadline = static_cast<mw::VDuration>(kDeadlineMs * 1000);
          r.work = kWork;
          r.payload = probe_payload(k);
          const mw::Bytes frame = mw::encode_request(r);
          gen_.send(r.client, ring_.owner_of(r.client), frame);
        }
        next_send = t + 5'000'000;
      }
      wait_readable(fd_, std::min(next_send, give_up));
      gen_.poll();
    }
  }

 public:
  /// Sends requests [first, last) on the absolute schedule starting at
  /// `start_ns`, then drains replies until all are in or the drain time
  /// passes. Returns the achieved send rate as a share of the offered one.
  double run_phase(std::size_t first, std::size_t last,
                   std::int64_t start_ns, std::int64_t stall_at_ns,
                   double stall_ms) {
    for (std::size_t i = first; i < last; ++i)
      reqs_[i].intended_ns = start_ns + reqs_[i].offset_ns;
    std::size_t next = first;
    bool stalled = stall_ms <= 0;
    while (next < last) {
      std::int64_t t = now_ns();
      if (!stalled && t >= stall_at_ns) {
        // Self-test hook: the generator stops sending for stall_ms.
        stalled = true;
        const std::int64_t until =
            t + static_cast<std::int64_t>(stall_ms * 1e6);
        while (now_ns() < until) wait_readable(-1, until);
        t = now_ns();
      }
      while (next < last && reqs_[next].intended_ns <= t) {
        send(next);
        ++next;
        t = now_ns();
      }
      gen_.poll();
      if (next < last) wait_readable(fd_, reqs_[next].intended_ns);
    }
    drain(first, last);
    // Offered: the phase's requests over their planned span; achieved: the
    // same requests over the span it actually took to send them.
    const auto planned = static_cast<double>(reqs_[last - 1].intended_ns -
                                             start_ns);
    const auto actual = static_cast<double>(reqs_[last - 1].sent_ns -
                                            start_ns);
    return actual > 0 ? planned / actual : 1.0;
  }

  /// Ends every node and collects its report (when `reports` is given).
  bool stop_nodes(std::vector<NodeReport>* reports,
                  std::vector<double>* handle_us = nullptr,
                  std::vector<double>* append_us = nullptr) {
    bool ok = true;
    for (int fd : ctrl_wr_) {
      const char q = 'Q';
      write_full(fd, &q, 1);
      ::close(fd);
    }
    ctrl_wr_.clear();
    for (std::size_t i = 0; i < up_rd_.size(); ++i) {
      NodeReport r;
      std::vector<double> h, a;
      const bool got = read_full(up_rd_[i], &r, sizeof r) &&
                       read_samples(up_rd_[i], h) &&
                       read_samples(up_rd_[i], a);
      if (reports != nullptr) {
        if (!got) ok = false;
        reports->push_back(r);
        if (handle_us) handle_us->insert(handle_us->end(), h.begin(), h.end());
        if (append_us) append_us->insert(append_us->end(), a.begin(), a.end());
      }
      ::close(up_rd_[i]);
    }
    up_rd_.clear();
    for (pid_t pid : pids_) {
      int status = 0;
      ::waitpid(pid, &status, 0);
      if (reports != nullptr &&
          !(WIFEXITED(status) && WEXITSTATUS(status) == 0))
        ok = false;
    }
    pids_.clear();
    return ok;
  }

  /// Takes the generated requests and binds every load client.
  void plan(std::vector<Request> reqs) {
    reqs_ = std::move(reqs);
    for (std::size_t c = 0; c < kClients; ++c)
      gen_.bind(kFirstClient + static_cast<NodeId>(c), *this);
  }

  void on_message(NodeId, std::span<const std::uint8_t> payload) override {
    const std::int64_t t = now_ns();
    const auto resp = mw::decode_response(payload);
    if (!resp || resp->seq == 0) return;
    if (resp->client < kFirstClient) {
      for (std::size_t k = 0; k < probe_clients_.size(); ++k)
        if (probe_clients_[k] == resp->client &&
            resp->status == mw::SvcStatus::kOk &&
            resp->value == mw::service_reference(probe_payload(k), kWork))
          probe_ok_[k] = true;
      return;
    }
    const std::uint64_t c = resp->client - kFirstClient;
    if (c >= kClients) return;
    const std::uint64_t i = (resp->seq - 1) * kClients + c;
    if (i >= reqs_.size() || !reqs_[i].sent || reqs_[i].answered) return;
    Request& r = reqs_[i];
    r.answered = true;
    r.recv_ns = t;
    r.status = resp->status;
    r.value = resp->value;
    if (traced_) SpanLog::get().record("request", i, r.intended_ns, t);
  }

 private:
  std::uint64_t probe_payload(std::size_t k) const {
    return mix64(seed_, 0x9b0be000ull + k);
  }

  void send(std::size_t i) {
    Request& r = reqs_[i];
    mw::SvcRequest q;
    q.client = kFirstClient + static_cast<NodeId>(i % kClients);
    q.seq = i / kClients + 1;
    q.deadline = static_cast<mw::VDuration>(kDeadlineMs * 1000);
    q.work = kWork;
    q.payload = r.payload;
    const mw::Bytes frame = mw::encode_request(q);
    const NodeId to = ring_.owner_of(q.client);
    const std::int64_t t0 = now_ns();
    gen_.send(q.client, to, frame);
    const std::int64_t t1 = now_ns();
    r.sent_ns = t0;
    r.send_us = static_cast<double>(t1 - t0) / 1e3;
    r.sent = true;
  }

  void drain(std::size_t first, std::size_t last) {
    const std::int64_t until =
        now_ns() + static_cast<std::int64_t>(kDrainMs * 1e6);
    std::size_t i = first;
    for (;;) {
      gen_.poll();
      while (i < last && reqs_[i].answered) ++i;
      if (i == last || now_ns() >= until) return;
      wait_readable(fd_, until);
    }
  }

  std::uint64_t seed_;
  bool traced_;
  mw::SocketTransport gen_;
  int fd_ = -1;
  std::vector<NodeId> members_;
  mw::HashRing ring_{kRingSeed, kVnodes};
  std::string log_path_;
  std::string spans_prefix_;
  std::vector<pid_t> pids_;
  std::vector<int> up_rd_;
  std::vector<int> ctrl_wr_;
  std::int64_t ready_ns_ = 0;
  std::vector<NodeId> probe_clients_;
  std::vector<bool> probe_ok_;
  std::vector<Request> reqs_;
};

/// One measured cluster run: steady then overload.
struct SvcResult {
  std::size_t segments = 0;
  double steady_achieved = 0, overload_achieved = 0;  // lowest segment
  std::vector<double> steady_lat_us, overload_lat_us;
  std::uint64_t overload_good = 0;
  double overload_seconds = 0;
  std::uint64_t sent = 0, ok = 0, shed = 0, failed_status = 0, stale = 0,
                unanswered = 0, wrong = 0, unlogged = 0;
  std::size_t duplicates = 0;
  std::vector<double> lateness_us, send_us;
  std::vector<NodeReport> nodes;
  std::vector<double> handle_us, append_us;
  std::uint64_t gen_frames = 0;
  /// The end-to-end metrics of each absorbed segment.
  struct Segment {
    double goodput = 0, p50 = 0, p99 = 0, overload_p99 = 0, cpu_per_op = 0,
           rss_mb = 0;
  };
  std::vector<Segment> per_segment;

  /// Folds one segment into a run's total.
  void absorb(SvcResult&& s) {
    auto cat = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    steady_achieved = segments ? std::min(steady_achieved, s.steady_achieved)
                               : s.steady_achieved;
    overload_achieved = segments
                            ? std::min(overload_achieved, s.overload_achieved)
                            : s.overload_achieved;
    ++segments;
    double rss = 0, cpu = 0;
    for (const NodeReport& n : s.nodes) {
      rss += n.peak_rss_mb;
      cpu += n.cpu_s;
    }
    per_segment.push_back(
        {static_cast<double>(s.overload_good) / s.overload_seconds,
         percentile(s.steady_lat_us, 0.50), percentile(s.steady_lat_us, 0.99),
         percentile(s.overload_lat_us, 0.99),
         s.ok ? cpu * 1e6 / static_cast<double>(s.ok) : 0, rss});
    cat(steady_lat_us, s.steady_lat_us);
    cat(overload_lat_us, s.overload_lat_us);
    cat(lateness_us, s.lateness_us);
    cat(send_us, s.send_us);
    cat(handle_us, s.handle_us);
    cat(append_us, s.append_us);
    nodes.insert(nodes.end(), s.nodes.begin(), s.nodes.end());
    overload_good += s.overload_good;
    overload_seconds += s.overload_seconds;
    sent += s.sent;
    ok += s.ok;
    shed += s.shed;
    failed_status += s.failed_status;
    stale += s.stale;
    unanswered += s.unanswered;
    wrong += s.wrong;
    unlogged += s.unlogged;
    duplicates += s.duplicates;
    gen_frames += s.gen_frames;
  }
};

/// Runs one segment on a started cluster and checks its outputs.
/// `stall_ms` > 0 stalls the generator mid-way through the steady phase.
bool run_cluster(Plan plan, double stall_ms, Cluster& cl,
                 SvcResult& res, Report& rep) {
  const std::size_t n_steady = plan.n_steady;
  const std::size_t n_total = plan.reqs.size();
  const double overload_s = plan.overload_s;
  const std::int64_t stall_after =
      static_cast<std::int64_t>(plan.steady_s * 5e8);
  cl.plan(std::move(plan.reqs));

  const std::int64_t s0 = now_ns() + 1'000'000;
  res.steady_achieved =
      cl.run_phase(0, n_steady, s0, s0 + stall_after, stall_ms);
  const std::int64_t s1 = now_ns() + 1'000'000;
  res.overload_achieved = cl.run_phase(n_steady, n_total, s1, 0, 0);
  res.overload_seconds = overload_s;
  res.gen_frames = cl.gen_stats().messages_sent;

  if (!cl.stop_nodes(&res.nodes, &res.handle_us, &res.append_us)) {
    rep.violation("a node process failed or sent no report");
    return false;
  }

  // The cluster-wide effect log: no duplicates, and every acknowledged
  // effect is in it with the acknowledged value.
  const std::vector<mw::Effect> all = mw::FileEffectLog::read_all(cl.log_path());
  mw::EffectLog combined;
  std::map<std::pair<NodeId, std::uint64_t>, std::uint64_t> logged;
  for (const mw::Effect& e : all) {
    combined.append(e);
    logged[{e.client, e.seq}] = e.value;
  }
  res.duplicates = combined.duplicates();

  const auto limit_us = kLatencyLimitMs * 1000;
  auto& reqs = cl.requests();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Request& r = reqs[i];
    const bool steady = i < n_steady;
    ++res.sent;
    res.lateness_us.push_back(static_cast<double>(r.sent_ns - r.intended_ns) /
                              1e3);
    res.send_us.push_back(r.send_us);
    if (!r.answered) {
      ++res.unanswered;
      continue;
    }
    const double lat = static_cast<double>(r.recv_ns - r.intended_ns) / 1e3;
    switch (r.status) {
      case mw::SvcStatus::kOk: {
        if (r.value != mw::service_reference(r.payload, kWork)) {
          ++res.wrong;
          break;
        }
        const NodeId client = kFirstClient + static_cast<NodeId>(i % kClients);
        auto it = logged.find({client, i / kClients + 1});
        if (it == logged.end() || it->second != r.value) {
          ++res.unlogged;
          break;
        }
        ++res.ok;
        if (steady) {
          res.steady_lat_us.push_back(lat);
        } else {
          res.overload_lat_us.push_back(lat);
          if (lat <= limit_us) ++res.overload_good;
        }
        break;
      }
      case mw::SvcStatus::kShed:
        ++res.shed;  // a goodput miss, not a failure
        break;
      case mw::SvcStatus::kStale:
        ++res.stale;
        break;
      case mw::SvcStatus::kFailed:
        ++res.failed_status;
        break;
    }
  }

  // The failure ledger.
  rep.attempted += res.sent;
  if (res.wrong) rep.violation("kOk values differ from service_reference", res.wrong);
  if (res.unlogged)
    rep.violation("kOk responses whose effect is not in the log",
                  res.unlogged);
  if (res.duplicates)
    rep.violation("duplicate effects in the shared log", res.duplicates);
  if (res.failed_status)
    rep.violation("kFailed responses", res.failed_status);
  if (res.stale) rep.violation("kStale responses", res.stale);
  const auto budget = static_cast<std::uint64_t>(
      kLossBudget * static_cast<double>(res.sent));
  if (res.unanswered > budget)
    rep.violation("unanswered requests beyond the UDP loss budget (" +
                      std::to_string(res.unanswered) + " > " +
                      std::to_string(budget) + ")",
                  res.unanswered - budget);
  for (const auto& [name, share] :
       {std::pair<const char*, double>{"steady", res.steady_achieved},
        {"overload", res.overload_achieved}}) {
    if (share < kMinAchievedShare)
      rep.violation(std::string("phase ") + name +
                        " invalid: achieved " + std::to_string(share) +
                        " of the offered rate",
                    0);
  }
  std::int64_t leaked = 0;
  for (const NodeReport& n : res.nodes) leaked += n.leaked_pages;
  if (leaked != 0)
    rep.violation("RuntimeAuditor: the nodes leaked " +
                  std::to_string(leaked) + " page(s)");
  // A peer declared dead (its beats starved) is not a wrong answer, but
  // it changes the ring mid-run: report it beside the metrics.
  for (const NodeReport& n : res.nodes)
    if (n.evictions || n.fence_sheds)
      rep.note("a node evicted a peer " + std::to_string(n.evictions) +
               " time(s) and shed " + std::to_string(n.fence_sheds) +
               " request(s) while fenced");
  return true;
}

double goodput(const SvcResult& r) {
  return static_cast<double>(r.overload_good) / r.overload_seconds;
}

}  // namespace

void add_timer_probe(Report& rep, std::uint64_t seed) {
  // 1000 timers due at seeded instants over half a second, fired by the
  // transport's own run loop: the lateness the nodes' modeled service
  // delays see.
  constexpr int kTimers = 1000;
  constexpr std::int64_t kSpanUs = 500'000;
  mw::SocketTransport t(1);
  SplitMix rng(mix64(seed, 0x7173e));
  std::vector<double> late;
  late.reserve(kTimers);
  const std::int64_t base = now_ns();
  for (int i = 0; i < kTimers; ++i) {
    const auto delay = static_cast<mw::VDuration>(rng.below(kSpanUs));
    const std::int64_t due = base + delay * 1000;
    t.schedule(delay, [&late, due] {
      late.push_back(static_cast<double>(now_ns() - due) / 1e3);
    });
  }
  t.run();
  rep.add("dist.timer_late_us.p50", percentile(late, 0.5), "us");
  rep.add("dist.timer_late_us.p99", percentile(late, 0.99), "us");
}

std::uint64_t svc_inputs_digest(const Options& o) {
  const SvcParams p = SvcParams::from(o);
  const std::size_t segments = std::max<std::size_t>(1, p.setups);
  std::uint64_t h = 0;
  for (std::size_t k = 0; k < segments; ++k) {
    const Plan plan =
        make_plan(p, segment_seed(o.seed, k), o.seconds / segments);
    for (const Request& r : plan.reqs)
      h = mix64(h ^ r.payload, static_cast<std::uint64_t>(r.offset_ns));
  }
  return h;
}

int run_svc(const Options& o, Report& rep) {
  const SvcParams p = SvcParams::from(o);
  if (p.steady_rps <= 0 || p.overload_rps <= 0 || p.setups < 1) {
    std::cerr << "mwbench: svc_socket constants out of range\n";
    return 2;
  }
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  std::signal(SIGPIPE, SIG_IGN);
  rep.note("threads: 1 generator; " + std::to_string(kNodes) +
           " node processes, each 1 main thread + 1 pool worker (nproc=" +
           std::to_string(nproc()) + ")");
  rep.note("offered: steady " + std::to_string(p.steady_rps) +
           " req/s, overload " + std::to_string(p.overload_rps) + " req/s");

  // A run is `segments` cluster instances, each set up afresh (timed) and
  // loaded for an equal share of the time, so set-up is timed several
  // times and no one process placement decides the run.
  auto measure = [&](double seconds, bool traced, std::size_t segments,
                     SvcResult& total, std::vector<double>* setup_s) {
    for (std::size_t k = 0; k < segments; ++k) {
      const std::uint64_t seed = segment_seed(o.seed, k);
      const std::int64_t t0 = now_ns();
      Cluster cl(seed, traced, o.out_dir);
      std::string why;
      if (!cl.start(why)) {
        std::cerr << "mwbench: cluster set-up failed: " << why << "\n";
        return false;
      }
      if (setup_s)
        setup_s->push_back(static_cast<double>(cl.ready_ns() - t0) / 1e9);
      SpanLog::get().set_enabled(traced);
      SvcResult seg;
      const bool ok = run_cluster(make_plan(p, seed, seconds / segments),
                                  k == 0 ? p.stall_ms : 0, cl, seg, rep);
      SpanLog::get().set_enabled(false);
      if (!ok) return false;
      total.absorb(std::move(seg));
    }
    return true;
  };

  auto phase_notes = [&](const SvcResult& r, const char* tag) {
    rep.note(std::string(tag) + "steady: achieved " +
             std::to_string(r.steady_achieved) + " of offered; " +
             std::to_string(r.steady_lat_us.size()) + " latency samples");
    rep.note(std::string(tag) + "overload: achieved " +
             std::to_string(r.overload_achieved) + " of offered; " +
             std::to_string(r.overload_lat_us.size()) + " admitted samples, " +
             std::to_string(r.shed) + " shed (goodput misses)");
    rep.note(std::string(tag) + "generator lateness p50 " +
             std::to_string(percentile(r.lateness_us, 0.5)) + " us, p99 " +
             std::to_string(percentile(r.lateness_us, 0.99)) + " us");
    rep.note(std::string(tag) + "requests " + std::to_string(r.sent) +
             ": ok " + std::to_string(r.ok) + ", shed " +
             std::to_string(r.shed) + ", unanswered " +
             std::to_string(r.unanswered) + ", kFailed " +
             std::to_string(r.failed_status) + ", wrong " +
             std::to_string(r.wrong) + ", duplicate effects " +
             std::to_string(r.duplicates));
    std::int64_t leaked = 0;
    for (const NodeReport& n : r.nodes) leaked += n.leaked_pages;
    rep.note(std::string(tag) + "RuntimeAuditor after node teardown: " +
             std::to_string(leaked) + " leaked page(s) over " +
             std::to_string(r.nodes.size()) + " node run(s)");
  };

  if (!o.trace) {
    SvcResult r;
    std::vector<double> setup_s;
    if (!measure(o.seconds, false, std::max<std::size_t>(1, p.setups), r,
                 &setup_s))
      return 3;
    phase_notes(r, "");
    // Each metric is the median over segments: a host hiccup spoils one
    // segment, not the run.
    auto median = [&](double SvcResult::Segment::*field) {
      std::vector<double> v;
      for (const auto& seg : r.per_segment) v.push_back(seg.*field);
      return percentile(v, 0.5);
    };
    using Seg = SvcResult::Segment;
    rep.add("goodput_ops_s", median(&Seg::goodput), "1/s");
    rep.add("latency_p50_us", median(&Seg::p50), "us");
    rep.add("latency_p99_us", median(&Seg::p99), "us");
    rep.add("overload_p99_us", median(&Seg::overload_p99), "us");
    rep.add("cpu_us_per_op", median(&Seg::cpu_per_op), "us");
    rep.add("peak_rss_mb", median(&Seg::rss_mb), "MB");
    rep.add("setup_s", percentile(setup_s, 0.5), "s");
    return 0;
  }

  // Traced run: an untraced cluster run and a traced one, half the time
  // each; the per-layer numbers come from the traced one.
  add_timer_probe(rep, o.seed);
  SvcResult plain, traced;
  if (!measure(o.seconds / 2, false, 1, plain, nullptr)) return 3;
  if (!measure(o.seconds / 2, true, 1, traced, nullptr)) return 3;
  phase_notes(plain, "untraced ");
  phase_notes(traced, "traced ");

  const SvcResult& r = traced;
  mw::ServiceStats sum;
  std::uint64_t misroutes = 0, evictions = 0, frames = r.gen_frames, races = 0,
                spawned = 0, revoked = 0, hits = 0, misses = 0, events = 0;
  mw::SchedStats sched;
  double max_ok = 0, total_ok = 0;
  for (const NodeReport& n : r.nodes) {
    sum.requests += n.svc.requests;
    sum.shed += n.svc.shed;
    sum.queued += n.svc.queued;
    sum.queue_peak = std::max(sum.queue_peak, n.svc.queue_peak);
    misroutes += n.misroutes;
    evictions += n.evictions;
    frames += n.frames_sent;
    races += n.races;
    spawned += n.alts_spawned;
    revoked += n.alts_revoked;
    sched.stolen += n.sched.stolen;
    sched.revoked += n.sched.revoked;
    sched.executed += n.sched.executed;
    sched.admission_deferred += n.sched.admission_deferred;
    hits += n.pool_hits;
    misses += n.pool_misses;
    events += n.trace_events;
    max_ok = std::max(max_ok, static_cast<double>(n.svc.ok));
    total_ok += static_cast<double>(n.svc.ok);
  }
  const double reqs = std::max<double>(1, static_cast<double>(sum.requests));
  const double nraces = std::max<double>(1, static_cast<double>(races));
  rep.add("dist.send_us", percentile(r.send_us, 0.5), "us");
  rep.add("dist.frames_per_op",
          static_cast<double>(frames) /
              std::max<double>(1, static_cast<double>(r.sent)),
          "count");
  rep.add("service.handle_us.p50", percentile(r.handle_us, 0.5), "us");
  rep.add("service.handle_us.p99", percentile(r.handle_us, 0.99), "us");
  rep.add("service.shed_share", static_cast<double>(sum.shed) / reqs, "ratio");
  rep.add("service.queued_share", static_cast<double>(sum.queued) / reqs,
          "ratio");
  rep.add("service.queue_peak", static_cast<double>(sum.queue_peak), "count");
  rep.add("cluster.misroutes", static_cast<double>(misroutes), "count");
  rep.add("cluster.evictions", static_cast<double>(evictions), "count");
  rep.add("cluster.node_ok_imbalance",
          total_ok > 0 ? max_ok / (total_ok / static_cast<double>(
                                                  r.nodes.size()))
                       : 0,
          "ratio");
  rep.add("effect_log.append_us.p50", percentile(r.append_us, 0.5), "us");
  rep.add("effect_log.append_us.p99", percentile(r.append_us, 0.99), "us");
  rep.add("core.revoked_share",
          spawned ? static_cast<double>(revoked) /
                        static_cast<double>(spawned)
                  : 0,
          "ratio");
  rep.add("sched.stolen_per_race", static_cast<double>(sched.stolen) / nraces,
          "count");
  rep.add("sched.revoked_per_race",
          static_cast<double>(sched.revoked) / nraces, "count");
  rep.add("sched.executed_per_race",
          static_cast<double>(sched.executed) / nraces, "count");
  rep.add("sched.admission_deferred",
          static_cast<double>(sched.admission_deferred), "count");
  rep.add("pagestore.pool_hit_share",
          hits + misses ? static_cast<double>(hits) /
                              static_cast<double>(hits + misses)
                        : 0,
          "ratio");
  rep.add("gen.lateness_us.p50", percentile(r.lateness_us, 0.5), "us");
  rep.add("gen.lateness_us.p99", percentile(r.lateness_us, 0.99), "us");
  rep.add("gen.achieved_share.steady", r.steady_achieved, "ratio");
  rep.add("gen.achieved_share.overload", r.overload_achieved, "ratio");
  const double gp_plain = goodput(plain);
  rep.add("trace.overhead_share",
          gp_plain > 0 ? 1 - goodput(traced) / gp_plain : 0, "ratio");
  const std::string spans_path =
      o.out_dir + "/spans_svc_socket_" + std::to_string(o.seed) + ".json";
  SpanLog::get().write_chrome(spans_path, static_cast<int>(kGeneratorNode));
  rep.note("trace: generator spans in " + spans_path +
           ", node spans in spans_svc_socket_" +
           std::to_string(segment_seed(o.seed, 0)) +
           "_node<id>.json beside it; node runtime trace " +
           std::to_string(events) + " events; " +
           std::to_string(races) + " local races on the nodes");
  return 0;
}

}  // namespace bench
