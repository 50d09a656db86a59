// des-omega256: the discrete-event simulator on a 256x256 Omega fabric with
// the warm scheduler and transient link faults (E17b: MTTF 60, MTTR 2).
//
// A set-up plus one run of simulate_system over a fixed horizon is a "rep";
// reps repeat with the same seed until the time budget is spent, so every
// rep must produce bitwise the same SystemMetrics. An op is one scheduling
// cycle; its time is the interval since the previous cycle ended (simulation
// work plus the solve), minimum over the reps. A decorator around the
// scheduler stamps each cycle's exit (untraced) or records a core.schedule
// span (traced); simulate_system itself is the sim.simulate_system span.
#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/scheduler.hpp"
#include "core/transform.hpp"
#include "core/zoo.hpp"
#include "fault/fault_injector.hpp"
#include "obs/obs.hpp"
#include "sim/system_sim.hpp"
#include "topo/builders.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using namespace rsin;

constexpr std::int32_t kFabric = 256;
constexpr int kMinReps = 3;

sim::SystemConfig des_config(std::uint64_t seed) {
  sim::SystemConfig config;
  config.arrival_rate = 0.5;
  config.warmup_time = 10.0;
  config.measure_time = 100.0;
  config.seed = seed;
  config.faults.link_mttf = 60.0;
  config.faults.link_mttr = 2.0;
  config.faults.seed = seed ^ 0x17b17b17bULL;
  return config;
}

/// Stamps the end of every scheduling cycle; with a tracer, also records
/// the schedule() call as a core.schedule span. Observation only.
class StampingScheduler final : public core::Scheduler {
 public:
  StampingScheduler(std::unique_ptr<core::Scheduler> inner, Tracer* tracer,
                    std::vector<std::int64_t>& exits)
      : inner_(std::move(inner)), tracer_(tracer), exits_(exits) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  core::ScheduleResult schedule(const core::Problem& problem) override {
    const auto op = static_cast<std::int64_t>(exits_.size());
    core::ScheduleResult result;
    {
      Scope span(tracer_, "core.schedule", op);
      result = inner_->schedule(problem);
    }
    exits_.push_back(now_ns());
    return result;
  }
  void reset() override { inner_->reset(); }
  void set_relaxed(bool relaxed) override { inner_->set_relaxed(relaxed); }
  void bind_obs(const obs::Handle& handle) override {
    inner_->bind_obs(handle);
  }

 private:
  std::unique_ptr<core::Scheduler> inner_;
  Tracer* tracer_;
  std::vector<std::int64_t>& exits_;
};

template <typename T>
void put(std::ostringstream& out, T value) {
  if constexpr (std::is_floating_point_v<T>) {
    out << std::bit_cast<std::uint64_t>(value) << ' ';
  } else {
    out << static_cast<std::int64_t>(value) << ' ';
  }
}

/// Every SystemMetrics field, doubles by bit pattern.
std::string fingerprint(const sim::SystemMetrics& m) {
  std::ostringstream out;
  for (const double v :
       {m.resource_utilization, m.mean_response_time, m.p99_response_time,
        m.mean_wait_time, m.blocking_probability, m.mean_queue_length,
        m.availability, m.degraded_cycle_fraction, m.overload_fraction}) {
    put(out, v);
  }
  for (const std::int64_t v :
       {m.tasks_arrived, m.tasks_completed, m.scheduling_cycles,
        m.deferred_cycles, m.requests_granted, m.grant_opportunities,
        m.faults_injected, m.repairs, m.circuits_torn_down, m.retries,
        m.tasks_dropped, m.tasks_shed, m.degradation_transitions}) {
    put(out, v);
  }
  for (const auto& [level, wait] : m.mean_wait_by_priority) {
    put(out, level);
    put(out, wait);
  }
  for (const double v : m.time_in_level) put(out, v);
  put(out, static_cast<int>(m.final_level));
  for (const std::int32_t v : m.level_path) put(out, v);
  return out.str();
}

struct Setup {
  topo::Network net;
  std::size_t skeleton_arcs = 0;
  std::size_t fault_events = 0;
  double seconds = 0.0;
};

/// Topology, scheduler with its skeleton, and the fault stream: the work a
/// DES run needs before its first event.
Setup set_up(std::uint64_t seed) {
  const std::int64_t start = now_ns();
  Setup setup{topo::make_named("omega", kFabric), 0, 0, 0.0};
  const std::unique_ptr<core::Scheduler> scheduler =
      core::make_named_scheduler("warm", seed);
  core::PersistentTransform skeleton;
  skeleton.build(setup.net);
  setup.skeleton_arcs = skeleton.result().net.arc_count();
  const sim::SystemConfig config = des_config(seed);
  fault::FaultConfig faults = config.faults;
  faults.horizon = config.warmup_time + config.measure_time;
  setup.fault_events =
      fault::FaultInjector(faults).make_schedule(setup.net).size();
  setup.seconds = seconds_between(start, now_ns());
  return setup;
}

/// One pass: reps of the same simulation until its time budget is spent.
struct Pass {
  explicit Pass(const Options& options, double seconds)
      : reps(options, seconds, kMinReps) {}

  Reps reps;  ///< Per-cycle times of every rep.
  std::vector<double> setup_seconds;
  std::size_t skeleton_arcs = 0;
  std::int64_t cycles = 0;
  std::vector<std::string> fingerprints;
  sim::SystemMetrics metrics;  ///< Of the first rep.
  double peak_rss_mb = 0.0;    ///< After the first rep.
  std::unique_ptr<Tracer> tracer;  ///< Spans of the fastest traced rep.
  double tracer_wall_s = 0.0;
  obs::Registry registry;  ///< flow.* counters of every traced rep.
};

void run_rep(const Options& options, bool traced, Pass& pass,
             Result& result) {
  const sim::SystemConfig config = des_config(options.seed);
  std::vector<std::int64_t> exits;
  const Setup setup = set_up(options.seed);
  result.check(setup.fault_events > 0, "des: set-up built no fault stream");
  pass.setup_seconds.push_back(setup.seconds);
  pass.skeleton_arcs = setup.skeleton_arcs;
  auto tracer = traced ? std::make_unique<Tracer>(1 << 14) : nullptr;
  StampingScheduler scheduler(core::make_named_scheduler("warm", options.seed),
                              tracer.get(), exits);
  if (traced) scheduler.bind_obs(obs::Handle{&pass.registry, nullptr});
  const std::int64_t start = now_ns();
  sim::SystemMetrics metrics;
  {
    Scope span(tracer.get(), "sim.simulate_system", pass.reps.count());
    metrics = sim::simulate_system(setup.net, scheduler, config);
  }
  const double wall_s = seconds_between(start, now_ns());
  std::vector<double> intervals;
  intervals.reserve(exits.size());
  std::int64_t previous = start;
  for (const std::int64_t stamp : exits) {
    intervals.push_back(seconds_between(previous, stamp));
    previous = stamp;
  }
  pass.reps.add(std::move(intervals));
  pass.cycles += static_cast<std::int64_t>(exits.size());
  if (pass.fingerprints.empty()) {
    pass.metrics = metrics;
    pass.peak_rss_mb = peak_rss_mb();
  }
  pass.fingerprints.push_back(fingerprint(metrics));
  if (tracer && (!pass.tracer || wall_s < pass.tracer_wall_s)) {
    pass.tracer = std::move(tracer);
    pass.tracer_wall_s = wall_s;
  }
}

void check_pass(Result& result, const Pass& pass, const std::string& label) {
  for (const std::string& print : pass.fingerprints) {
    result.check(print == pass.fingerprints.front(),
                 "des: same-seed reps of the " + label +
                     " pass gave different SystemMetrics");
  }
  const sim::SystemMetrics& m = pass.metrics;
  result.check(m.scheduling_cycles > 0 && m.tasks_completed > 0,
               "des: the " + label + " pass scheduled nothing");
  result.check(m.faults_injected > 0, "des: no link fault was injected");
}

}  // namespace

void run_des(const Options& options, Result& result) {
  if (!options.trace) {
    Pass pass(options, options.seconds);
    while (!pass.reps.done()) run_rep(options, false, pass, result);
    check_pass(result, pass, "untraced");
    // The traced run must not change a single simulated outcome.
    Options fixed = options;
    fixed.ops = 1;
    Pass traced(fixed, 0.0);
    while (!traced.reps.done()) run_rep(fixed, true, traced, result);
    result.check(traced.fingerprints.front() == pass.fingerprints.front(),
                 "des: traced and untraced SystemMetrics differ");

    const sim::SystemMetrics& m = pass.metrics;
    result.set("setup_s", median(pass.setup_seconds));
    report_op_times(result, pass.reps.best());
    result.set("peak_rss_mb", pass.peak_rss_mb);
    result.set("grant_ratio", static_cast<double>(m.requests_granted) /
                                  static_cast<double>(m.grant_opportunities));
    result.set("sim_response_mean", m.mean_response_time);
    result.attempted = pass.cycles;
    result.failed = m.tasks_shed + m.tasks_dropped;
    result.note("reps=" + std::to_string(pass.reps.count()) +
                " cycles per rep=" + std::to_string(pass.reps.best().size()) +
                " tasks=" + std::to_string(m.tasks_completed) +
                " faults=" + std::to_string(m.faults_injected));
    return;
  }

  Pass untraced(options, options.seconds);
  Pass traced(options, options.seconds);
  alternate(untraced.reps, traced.reps, [&](bool trace) {
    run_rep(options, trace, trace ? traced : untraced, result);
  });
  check_pass(result, untraced, "untraced");
  check_pass(result, traced, "traced");
  result.check(traced.fingerprints.front() == untraced.fingerprints.front(),
               "des: traced and untraced SystemMetrics differ");

  const Tracer& tracer = *traced.tracer;
  const auto self = tracer.self_times();
  const auto cycles = static_cast<double>(traced.reps.best().size());
  const double schedule_ns = self.at("core.schedule").self_ns;
  const double sim_self_ns = self.at("sim.simulate_system").self_ns;
  result.set("core.schedule_us", schedule_ns * 1e-3 / cycles);
  result.set("sim.cycle_us", (schedule_ns + sim_self_ns) * 1e-3 / cycles);
  result.set("sim.self_us", sim_self_ns * 1e-3 / cycles);

  const auto counter = [&](const char* name) {
    return static_cast<double>(traced.registry.counter(name).value());
  };
  const auto all_cycles = static_cast<double>(traced.cycles);
  const double operations = counter("flow.operations");
  result.set("flow.operations", operations / all_cycles);
  result.set("flow.ops_per_arc", operations / all_cycles /
                                     static_cast<double>(traced.skeleton_arcs));
  result.set("flow.bfs_phases", counter("flow.bfs_phases") / all_cycles);
  result.set("flow.augmentations", counter("flow.augmentations") / all_cycles);
  result.set("flow.repair_waste",
             counter("flow.repair_cancelled") / counter("flow.augmentations"));
  report_trace_health(result, tracer, traced.tracer_wall_s,
                      ops_per_second(traced.reps.best()),
                      ops_per_second(untraced.reps.best()));
  result.attempted = untraced.cycles + traced.cycles;
  result.failed = traced.metrics.tasks_shed + traced.metrics.tasks_dropped;
  result.note("traced reps=" + std::to_string(traced.reps.count()) +
              " untraced reps=" + std::to_string(untraced.reps.count()) +
              " skeleton arcs=" + std::to_string(traced.skeleton_arcs));
  save_trace(tracer, options, "spans");
}

}  // namespace e2e
