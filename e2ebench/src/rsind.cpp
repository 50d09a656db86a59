// rsind-omega64: a forked rsind daemon (non-durable, Unix socket) with one
// Omega-64 tenant on the default breaker scheduler, driven by one
// closed-loop svc::Client. The command script is a pure function of the
// seed: ~58% req, 35% cycle, 5% reads (stats, sometimes metrics), 2%
// inject-fault/repair, every id unique. An op is one command. A rep is one
// fresh daemon serving the whole script.
//
// An in-process svc::Service replays the same script: its final stats must
// equal the daemon's bitwise (the determinism contract). With --trace 1 the
// replay runs four times, alternating plain and traced; the traced replays
// record spans around parse_command, execute (per verb class), commit and a
// sampled Domain::state_hash probe.
#include <sched.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/transform.hpp"
#include "svc/client.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "topo/builders.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using namespace rsin;

constexpr std::int32_t kFabric = 64;
constexpr int kMinReps = 3;
/// Commands per rep (the --ops value overrides it).
constexpr std::int64_t kCommands = 20000;
/// One state-hash probe per this many cycle commands in the traced replay.
constexpr std::int64_t kHashProbeEvery = 16;

std::string tenant_command(std::uint64_t seed) {
  return "tenant name=t0 topology=omega n=" + std::to_string(kFabric) +
         " seed=" + std::to_string(seed % 1000003 + 1) + " scheduler=breaker";
}

enum class Verb { kReq, kCycle, kRead, kFault };

/// The seeded command script.
class Script {
 public:
  explicit Script(std::uint64_t seed)
      : rng_(seed ^ 0x5eed0064ULL),
        fabric_links_(fabric_links(topo::make_named("omega", kFabric))) {}

  std::string next(Verb& verb) {
    const std::int64_t roll = rng_.uniform_int(0, 999);
    if (roll < 580) {
      verb = Verb::kReq;
      return "req tenant=t0 id=" + std::to_string(next_id_++) + " proc=" +
             std::to_string(rng_.uniform_int(0, kFabric - 1));
    }
    if (roll < 930) {
      verb = Verb::kCycle;
      return "cycle tenant=t0 id=" + std::to_string(next_id_++);
    }
    if (roll < 980) {
      verb = Verb::kRead;
      return roll < 932 ? "metrics tenant=t0" : "stats tenant=t0";
    }
    verb = Verb::kFault;
    // Switch-to-switch links only, and repairs outpace faults once a few
    // links are down, so the fabric stays mostly healthy.
    if (failed_.empty() || (failed_.size() < 4 && rng_.bernoulli(0.5))) {
      const auto pick = rng_.uniform_int(
          0, static_cast<std::int64_t>(fabric_links_.size()) - 1);
      const topo::LinkId link = fabric_links_[static_cast<std::size_t>(pick)];
      failed_.push_back(link);
      return "inject-fault tenant=t0 link=" + std::to_string(link);
    }
    const auto pick = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(failed_.size()) - 1));
    const topo::LinkId link = failed_[pick];
    failed_.erase(failed_.begin() + static_cast<long>(pick));
    return "repair tenant=t0 link=" + std::to_string(link);
  }

 private:
  static std::vector<topo::LinkId> fabric_links(const topo::Network& net) {
    std::vector<topo::LinkId> links;
    for (topo::LinkId id = 0; id < net.link_count(); ++id) {
      if (net.link(id).from.kind == topo::NodeKind::kSwitch &&
          net.link(id).to.kind == topo::NodeKind::kSwitch) {
        links.push_back(id);
      }
    }
    return links;
  }

  util::Rng rng_;
  std::vector<topo::LinkId> fabric_links_;
  std::uint64_t next_id_ = 1;
  std::vector<topo::LinkId> failed_;
};

/// A forked rsind on a private socket and data directory. The destructor
/// kills and reaps a daemon that was not drained.
class Daemon {
 public:
  Daemon(const char* binary, const std::string& dir) : dir_(dir) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    socket_ = dir_ + "/s.sock";
    std::cout.flush();
    pid_ = ::fork();
    if (pid_ == 0) {
      // Never outlive the benchmark, even if it is killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      // The daemon's own log must not reach the benchmark's stdout.
      const std::string log = dir_ + "/rsind.log";
      if (std::freopen(log.c_str(), "w", stdout) == nullptr ||
          std::freopen(log.c_str(), "a", stderr) == nullptr) {
        ::_exit(126);
      }
      const char* argv[] = {binary, "--socket", socket_.c_str(), "--dir",
                            dir_.c_str(), nullptr};
      ::execv(binary, const_cast<char* const*>(argv));
      ::_exit(127);
    }
    if (pid_ < 0) throw std::runtime_error("fork failed");
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] svc::ClientOptions client_options() const {
    svc::ClientOptions options;
    options.socket_path = socket_;
    options.timeout_ms = 20000;
    options.retries = 14;  // 1 ms first backoff: covers daemon start-up.
    options.backoff_ms = 1;
    return options;
  }
  [[nodiscard]] pid_t pid() const { return pid_; }

  /// SIGTERM: the graceful drain. True when the daemon exited 0.
  bool drain() {
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  std::string dir_;
  std::string socket_;
  pid_t pid_ = -1;
};

/// grant_ratio and sim_response_mean from a `stats` reply.
struct StatsView {
  double grant_ratio = 0.0;
  double response = 0.0;
};

StatsView parse_stats(const std::string& body) {
  const svc::Command stats = svc::parse_command("stats " + body);
  return StatsView{1.0 - stats.f64("blocking"), stats.f64("response")};
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Pins this process, and so the daemon it forks next, to one CPU: client
/// and daemon then hand each request over on one core. Across cores every
/// hand-over wakes an idle vCPU, whose latency on a shared host swings
/// between ~7 and ~18 µs for minutes at a time.
void pin_to(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  (void)::sched_setaffinity(0, sizeof(one), &one);
}

std::string dir_for(const Options& options, const std::string& tag) {
  return options.work_dir + "/rsind." + std::to_string(::getpid()) + "." + tag;
}

/// A rep: one fresh daemon serving the whole script.
struct DaemonRep {
  double setup_s = 0.0;  ///< Daemon spawn plus tenant create.
  std::vector<double> latency_s;
  std::int64_t failed = 0;
  std::string final_stats;
  std::vector<std::string> metrics;  ///< Final `metrics tenant=t0` body.
  double peak_rss_mb = 0.0;
  bool drained = false;
};

DaemonRep drive_daemon(const Options& options, const char* binary,
                       const std::vector<std::string>& commands) {
  DaemonRep rep;
  const std::int64_t setup_start = now_ns();
  Daemon daemon(binary, dir_for(options, "run"));
  svc::Client client(daemon.client_options());
  const svc::Response created = client.request(tenant_command(options.seed));
  if (!created.ok) {
    throw std::runtime_error("tenant create refused: " + created.body);
  }
  rep.setup_s = seconds_between(setup_start, now_ns());
  rep.latency_s.reserve(commands.size());
  for (const std::string& command : commands) {
    const std::int64_t start = now_ns();
    const svc::Response reply = client.request(command);
    rep.latency_s.push_back(seconds_between(start, now_ns()));
    if (!reply.ok || reply.body.find("status=shed") != std::string::npos) {
      ++rep.failed;
    }
  }
  const svc::Response stats = client.request("stats tenant=t0");
  rep.final_stats = stats.ok ? stats.body : "";
  rep.metrics = client.request("metrics tenant=t0").extra;
  rep.peak_rss_mb = peak_rss_mb(daemon.pid());
  rep.drained = daemon.drain();
  return rep;
}

/// Daemon reps over one script until the time budget is spent.
struct DaemonPass {
  DaemonPass(const Options& options, double seconds)
      : reps(options, seconds, kMinReps) {}

  Reps reps;
  std::vector<double> setup_seconds;
  std::vector<std::string> commands;
  std::vector<Verb> verbs;
  DaemonRep first;  ///< Stats, metrics and memory of the first rep.
  std::int64_t failed = 0;
};

void run_daemon_pass(const Options& options, const char* binary,
                     DaemonPass& pass, Result& result) {
  Script script(options.seed);
  const std::int64_t size = work_size(options, kCommands);
  for (std::int64_t i = 0; i < size; ++i) {
    Verb verb = Verb::kRead;
    pass.commands.push_back(script.next(verb));
    pass.verbs.push_back(verb);
  }
  // Reps rotate over the CPUs: one vCPU can run slow for seconds while the
  // host schedules a neighbour beside it, and the per-op minimum then comes
  // from the reps that ran elsewhere.
  const std::vector<int> cpus = allowed_cpus();
  while (!pass.reps.done()) {
    if (!cpus.empty()) {
      pin_to(cpus[static_cast<std::size_t>(pass.reps.count()) % cpus.size()]);
    }
    DaemonRep rep = drive_daemon(options, binary, pass.commands);
    pass.setup_seconds.push_back(rep.setup_s);
    pass.failed += rep.failed;
    result.check(rep.drained, "rsind: SIGTERM drain did not exit 0");
    if (pass.reps.count() == 0) {
      pass.first = rep;
    } else {
      result.check(rep.final_stats == pass.first.final_stats,
                   "rsind: two daemons served the same script differently");
    }
    pass.reps.add(std::move(rep.latency_s));
  }
}

/// An in-process Service replaying a served command list.
struct Replay {
  double wall_s = 0.0;
  std::vector<double> op_seconds;  ///< Per command.
  std::string final_stats;
  std::int64_t journal_bytes = 0;
  double snapshot_us = 0.0;
  std::int64_t snapshot_bytes = 0;
};

Replay replay(const Options& options, const DaemonPass& served, Tracer* tracer,
              const std::string& tag) {
  Replay out;
  const std::string dir = dir_for(options, tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    svc::ServiceConfig config;
    config.dir = dir;
    svc::Service service(config);
    service.start_fresh();
    (void)service.execute(tenant_command(options.seed));
    (void)service.commit();
    std::int64_t cycles = 0;
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i < served.commands.size(); ++i) {
      const auto op = static_cast<std::int64_t>(i);
      const std::string& line = served.commands[i];
      const std::int64_t op_start = now_ns();
      Scope root(tracer, "bench.command", op);
      if (tracer != nullptr) {
        Scope span(tracer, "svc.parse", op);
        (void)svc::parse_command(line);
      }
      const Verb verb = served.verbs[i];
      {
        Scope span(tracer,
                   verb == Verb::kReq     ? "svc.exec_req"
                   : verb == Verb::kCycle ? "svc.exec_cycle"
                   : verb == Verb::kRead  ? "svc.exec_read"
                                          : "svc.exec_fault",
                   op);
        (void)service.execute(line);
      }
      {
        Scope span(tracer, "svc.commit", op);
        (void)service.commit();
      }
      if (tracer != nullptr && verb == Verb::kCycle &&
          cycles++ % kHashProbeEvery == 0) {
        Scope span(tracer, "svc.state_hash", op);
        (void)service.tenant("t0").state_hash();
      }
      out.op_seconds.push_back(seconds_between(op_start, now_ns()));
    }
    out.wall_s = seconds_between(start, now_ns());
    out.final_stats = service.execute("stats tenant=t0").body;
    out.journal_bytes = static_cast<std::int64_t>(
        std::filesystem::file_size(service.journal_path()));
    const std::int64_t snap_start = now_ns();
    (void)service.snapshot();
    out.snapshot_us = seconds_between(snap_start, now_ns()) * 1e6;
    out.snapshot_bytes = static_cast<std::int64_t>(
        std::filesystem::file_size(service.snapshot_path()));
  }
  std::filesystem::remove_all(dir);
  return out;
}

double prometheus_value(const std::vector<std::string>& lines,
                        const std::string& name) {
  for (const std::string& line : lines) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::stod(line.substr(name.size() + 1));
    }
  }
  return 0.0;
}

void check_daemon(Result& result, const DaemonPass& pass,
                  const Replay& replayed) {
  result.check(pass.failed == 0, "rsind: " + std::to_string(pass.failed) +
                                     " commands were refused or shed");
  result.check(!pass.first.final_stats.empty() &&
                   pass.first.final_stats == replayed.final_stats,
               "rsind: daemon stats differ from the in-process replay:\n"
               "  daemon: " + pass.first.final_stats +
                   "\n  replay: " + replayed.final_stats);
}

}  // namespace

void run_rsind(const Options& options, Result& result, const char* rsind_path) {
  std::filesystem::create_directories(options.work_dir);

  if (!options.trace) {
    DaemonPass pass(options, options.seconds);
    run_daemon_pass(options, rsind_path, pass, result);
    const Replay replayed = replay(options, pass, nullptr, "replay");
    check_daemon(result, pass, replayed);
    const StatsView stats = parse_stats(pass.first.final_stats);
    result.set("setup_s", median(pass.setup_seconds));
    report_op_times(result, pass.reps.best());
    result.set("peak_rss_mb", pass.first.peak_rss_mb);
    result.set("grant_ratio", stats.grant_ratio);
    result.set("sim_response_mean", stats.response);
    result.attempted =
        static_cast<std::int64_t>(pass.commands.size()) * pass.reps.count();
    result.failed = pass.failed;
    result.note("reps=" + std::to_string(pass.reps.count()) +
                " commands per rep=" + std::to_string(pass.commands.size()) +
                " replay s=" + std::to_string(replayed.wall_s));
    return;
  }

  DaemonPass pass(options, options.seconds / 2);
  run_daemon_pass(options, rsind_path, pass, result);
  // Plain and traced replays alternate, so a burst of interference hits
  // both kinds alike; per-command times are the minimum of each kind.
  Reps plain_reps(options, 0.0, 2);
  Reps traced_reps(options, 0.0, 2);
  std::optional<Replay> traced;
  std::unique_ptr<Tracer> tracer;
  for (int round = 0; round < 2; ++round) {
    const Replay plain = replay(options, pass, nullptr, "plain");
    plain_reps.add(plain.op_seconds);
    auto round_tracer = std::make_unique<Tracer>(pass.commands.size() * 5 + 64);
    Replay round_replay = replay(options, pass, round_tracer.get(), "traced");
    traced_reps.add(round_replay.op_seconds);
    result.check(plain.final_stats == round_replay.final_stats,
                 "rsind: traced and untraced replays differ");
    if (!traced || round_replay.wall_s < traced->wall_s) {
      traced = std::move(round_replay);
      tracer = std::move(round_tracer);
    }
  }
  check_daemon(result, pass, *traced);

  const auto self = tracer->self_times();
  const auto per_call = [&](const char* name) {
    const auto it = self.find(name);
    if (it == self.end() || it->second.count == 0) return 0.0;
    return it->second.self_ns * 1e-3 / static_cast<double>(it->second.count);
  };
  result.set("svc.parse_us", per_call("svc.parse"));
  result.set("svc.exec_req_us", per_call("svc.exec_req"));
  result.set("svc.exec_cycle_us", per_call("svc.exec_cycle"));
  result.set("svc.exec_read_us", per_call("svc.exec_read"));
  result.set("svc.commit_us", per_call("svc.commit"));
  result.set("svc.exec_cycle_growth",
             quarter_growth(tracer->durations_us("svc.exec_cycle")));
  const std::vector<double> hashes = tracer->durations_us("svc.state_hash");
  result.set("svc.state_hash_first_us", first_quarter_median(hashes));
  result.set("svc.state_hash_last_us", last_quarter_median(hashes));

  // Transport: what the socket round trip adds to execute + commit.
  const std::vector<double> served_us = tracer->op_durations_us(
      {"svc.exec_req", "svc.exec_cycle", "svc.exec_read", "svc.exec_fault",
       "svc.commit"},
      pass.commands.size());
  result.set("svc.transport_us", percentile(pass.reps.best(), 50) * 1e6 -
                                     percentile(served_us, 50));
  const auto n = static_cast<double>(pass.commands.size());
  result.set("svc.journal_bytes_per_cmd",
             static_cast<double>(traced->journal_bytes) / n);
  result.set("svc.snapshot_us", traced->snapshot_us);
  result.set("svc.snapshot_bytes", static_cast<double>(traced->snapshot_bytes));

  const std::vector<std::string>& metrics = pass.first.metrics;
  const double operations = prometheus_value(metrics, "flow_operations");
  const double augmentations = prometheus_value(metrics, "flow_augmentations");
  core::PersistentTransform skeleton;
  skeleton.build(topo::make_named("omega", kFabric));
  result.set("flow.operations", operations / n);
  const auto arcs = static_cast<double>(skeleton.result().net.arc_count());
  result.set("flow.ops_per_arc", operations / n / arcs);
  result.set("flow.bfs_phases",
             prometheus_value(metrics, "flow_bfs_phases") / n);
  result.set("flow.augmentations", augmentations / n);
  const double cancelled = prometheus_value(metrics, "flow_repair_cancelled");
  result.set("flow.repair_waste",
             augmentations > 0.0 ? cancelled / augmentations : 0.0);
  report_trace_health(result, *tracer, traced->wall_s,
                      ops_per_second(traced_reps.best()),
                      ops_per_second(plain_reps.best()));
  result.attempted =
      static_cast<std::int64_t>(pass.commands.size()) * pass.reps.count();
  result.failed = pass.failed;
  result.note("daemon reps=" + std::to_string(pass.reps.count()) +
              " commands per rep=" + std::to_string(pass.commands.size()) +
              " traced replay s=" + std::to_string(traced->wall_s));
  save_trace(*tracer, options, "spans");
}

}  // namespace e2e
