// solve-omega8k: the E23 stream on Omega 2^13 (69 634 flow nodes, 131 072
// arcs) through the canonical per-cycle pipeline that svc and fed run:
//
//   PersistentTransform::update -> clear_flow -> max_flow_dinic(net, ctx)
//   -> extract_schedule -> verify_schedule
//
// 50% of processors request against 70% free resources; per cycle every
// flag flips with probability 5% and 0-2 links toggle between healthy and
// failed. An op is one cycle. A rep builds the fabric, the skeleton and the
// stream (its set-up) and then runs the stream's cycles, so reps are
// identical work; the solver context, whose buffers only grow, carries over
// between reps.
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/problem.hpp"
#include "core/schedule.hpp"
#include "core/scheduler.hpp"
#include "core/transform.hpp"
#include "flow/schedule_context.hpp"
#include "topo/builders.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using namespace rsin;

constexpr std::int32_t kProcessors = 1 << 13;
constexpr double kDemand = 0.5;
constexpr double kSupply = 0.7;
constexpr double kChurn = 0.05;
constexpr int kMinReps = 3;
/// Cycles per rep (the --ops value overrides it).
constexpr std::int64_t kCycles = 4;

/// One scheduling cycle of the stream.
struct Cycle {
  core::Problem problem;
  std::vector<topo::LinkId> link_toggles;
};

/// The E23 request/free stream, generated one cycle at a time.
class Stream {
 public:
  Stream(const topo::Network& fabric, std::uint64_t seed)
      : fabric_(fabric),
        rng_(seed),
        requesting_(static_cast<std::size_t>(fabric.processor_count())),
        available_(static_cast<std::size_t>(fabric.resource_count())) {
    for (auto& r : requesting_) r = rng_.bernoulli(kDemand) ? 1 : 0;
    for (auto& a : available_) a = rng_.bernoulli(kSupply) ? 1 : 0;
  }

  Cycle next() {
    Cycle cycle;
    if (started_) {
      for (auto& r : requesting_) {
        if (rng_.bernoulli(kChurn)) r = 1 - r;
      }
      for (auto& a : available_) {
        if (rng_.bernoulli(kChurn)) a = 1 - a;
      }
      const auto toggles = rng_.uniform_int(0, 2);
      for (std::int64_t i = 0; i < toggles; ++i) {
        cycle.link_toggles.push_back(static_cast<topo::LinkId>(
            rng_.uniform_int(0, fabric_.link_count() - 1)));
      }
    }
    started_ = true;
    std::vector<topo::ProcessorId> requests;
    for (topo::ProcessorId p = 0; p < fabric_.processor_count(); ++p) {
      if (requesting_[static_cast<std::size_t>(p)]) requests.push_back(p);
    }
    std::vector<topo::ResourceId> resources;
    for (topo::ResourceId r = 0; r < fabric_.resource_count(); ++r) {
      if (available_[static_cast<std::size_t>(r)]) resources.push_back(r);
    }
    cycle.problem = core::make_problem(fabric_, std::move(requests),
                                       std::move(resources));
    return cycle;
  }

 private:
  const topo::Network& fabric_;
  util::Rng rng_;
  std::vector<char> requesting_;
  std::vector<char> available_;
  bool started_ = false;
};

/// Everything a rep needs before its first cycle.
struct Setup {
  topo::Network fabric = topo::make_omega(kProcessors);
  core::PersistentTransform skeleton;
  std::vector<Cycle> cycles;
  double seconds = 0.0;
};

std::unique_ptr<Setup> set_up(std::uint64_t seed, std::int64_t cycles) {
  const std::int64_t start = now_ns();
  auto setup = std::make_unique<Setup>();
  setup->skeleton.build(setup->fabric);
  Stream stream(setup->fabric, seed);
  for (std::int64_t c = 0; c < cycles; ++c) {
    setup->cycles.push_back(stream.next());
  }
  setup->seconds = seconds_between(start, now_ns());
  return setup;
}

/// Per-request response in cycles: a processor's request starts when its
/// flag turns on and is answered by the first cycle that grants it.
class ResponseTracker {
 public:
  explicit ResponseTracker(std::size_t processors)
      : since_(processors, -1), served_(processors, 0) {}

  void observe(std::int64_t cycle, const core::Problem& problem,
               const core::ScheduleResult& schedule) {
    std::vector<char> requesting(since_.size(), 0);
    for (const core::Request& r : problem.requests) {
      requesting[static_cast<std::size_t>(r.processor)] = 1;
    }
    for (std::size_t p = 0; p < since_.size(); ++p) {
      if (!requesting[p]) {
        since_[p] = -1;
        served_[p] = 0;
      } else if (since_[p] < 0) {
        since_[p] = cycle;
      }
    }
    for (const core::Assignment& a : schedule.assignments) {
      const auto p = static_cast<std::size_t>(a.request.processor);
      if (served_[p]) continue;
      served_[p] = 1;
      total_ += static_cast<double>(cycle - since_[p] + 1);
      ++answered_;
    }
  }

  [[nodiscard]] double mean() const {
    return answered_ > 0 ? total_ / static_cast<double>(answered_) : 0.0;
  }

 private:
  std::vector<std::int64_t> since_;
  std::vector<char> served_;
  double total_ = 0.0;
  std::int64_t answered_ = 0;
};

struct Outcome {
  flow::MaxFlowResult flow;
  core::ScheduleResult schedule;
  std::optional<std::string> violation;
};

/// One cycle of the canonical pipeline, with a span per layer when traced.
Outcome run_cycle(Setup& setup, flow::ScheduleContext& ctx, const Cycle& cycle,
                  Tracer* tracer, std::int64_t op) {
  Outcome out;
  Scope root(tracer, "bench.cycle", op);
  {
    Scope span(tracer, "topo.toggle_links", op);
    for (const topo::LinkId link : cycle.link_toggles) {
      if (setup.fabric.link_failed(link)) {
        setup.fabric.repair_link(link);
      } else {
        (void)setup.fabric.fail_link(link);
      }
    }
  }
  {
    Scope span(tracer, "core.transform_update", op);
    setup.skeleton.update(cycle.problem);
  }
  flow::FlowNetwork& net = setup.skeleton.result().net;
  {
    Scope span(tracer, "flow.clear_flow", op);
    net.clear_flow();
  }
  {
    Scope span(tracer, "flow.solve", op);
    out.flow = flow::max_flow_dinic(net, ctx);
  }
  {
    Scope span(tracer, "core.extract", op);
    out.schedule =
        core::extract_schedule(cycle.problem, setup.skeleton.result());
  }
  {
    Scope span(tracer, "core.verify", op);
    out.violation = core::verify_schedule(cycle.problem, out.schedule);
  }
  return out;
}

/// The canonical schedule must be the cold Dinic schedule, circuit for
/// circuit (same arc order, so the same flow).
bool matches_cold(const core::Problem& problem,
                  const core::ScheduleResult& schedule) {
  core::MaxFlowScheduler cold(flow::MaxFlowAlgorithm::kDinic);
  const core::ScheduleResult reference = cold.schedule(problem);
  if (reference.allocated() != schedule.allocated()) return false;
  for (std::size_t i = 0; i < schedule.assignments.size(); ++i) {
    const core::Assignment& a = schedule.assignments[i];
    const core::Assignment& b = reference.assignments[i];
    if (a.request.processor != b.request.processor ||
        a.resource.resource != b.resource.resource ||
        a.circuit.links != b.circuit.links) {
      return false;
    }
  }
  return true;
}

struct Pass {
  Pass(const Options& options, double seconds)
      : reps(options, seconds, kMinReps) {}

  Reps reps;
  std::vector<double> setup_seconds;
  std::unique_ptr<Setup> setup;             ///< Of the last rep.
  flow::ScheduleContext ctx;
  std::vector<flow::Capacity> flow_values;  ///< Per cycle, first rep.
  double opportunities = 0.0;               ///< Over the first rep.
  double response_mean = 0.0;               ///< Of the first rep.
  double operations = 0.0;                  ///< Per rep.
  double phases = 0.0;
  double augmentations = 0.0;
  std::unique_ptr<Tracer> tracer;  ///< Spans of the fastest traced rep.
  double tracer_wall_s = 0.0;
  core::ScheduleResult last_schedule;  ///< Of the last cycle run.
  double peak_rss_mb = 0.0;  ///< After the first rep.
};

void run_rep(const Options& options, bool traced, Pass& pass, Result& result) {
  const std::int64_t cycles = work_size(options, kCycles);
  const bool first_rep = pass.reps.count() == 0;
  pass.setup.reset();
  pass.setup = set_up(options.seed, cycles);
  pass.setup_seconds.push_back(pass.setup->seconds);
  auto tracer = traced ? std::make_unique<Tracer>(cycles * 8) : nullptr;
  ResponseTracker responses(static_cast<std::size_t>(kProcessors));
  std::vector<double> op_seconds;
  const std::int64_t rep_start = now_ns();
  for (std::int64_t c = 0; c < cycles; ++c) {
    const Cycle& cycle = pass.setup->cycles[static_cast<std::size_t>(c)];
    const std::int64_t start = now_ns();
    const Outcome out =
        run_cycle(*pass.setup, pass.ctx, cycle, tracer.get(), c);
    op_seconds.push_back(seconds_between(start, now_ns()));
    if (c + 1 == cycles) pass.last_schedule = out.schedule;
    // Theorem 2: one circuit per unit of flow, every circuit realizable.
    result.check(static_cast<flow::Capacity>(out.schedule.allocated()) ==
                     out.flow.value,
                 "solve: allocated count != flow value at cycle " +
                     std::to_string(c));
    result.check(!out.violation, "solve: verify_schedule failed at cycle " +
                                     std::to_string(c) + ": " +
                                     out.violation.value_or(""));
    if (first_rep) {
      pass.flow_values.push_back(out.flow.value);
      pass.opportunities += static_cast<double>(std::min(
          cycle.problem.requests.size(), cycle.problem.free_resources.size()));
      responses.observe(c, cycle.problem, out.schedule);
      pass.operations += static_cast<double>(out.flow.operations);
      pass.phases += static_cast<double>(out.flow.phases);
      pass.augmentations += static_cast<double>(out.flow.augmentations);
    } else {
      result.check(
          out.flow.value == pass.flow_values[static_cast<std::size_t>(c)],
          "solve: reps disagree on the flow of cycle " + std::to_string(c));
    }
  }
  const double wall_s = seconds_between(rep_start, now_ns());
  if (first_rep) {
    pass.response_mean = responses.mean();
    pass.peak_rss_mb = peak_rss_mb();
  }
  pass.reps.add(std::move(op_seconds));
  if (tracer && (!pass.tracer || wall_s < pass.tracer_wall_s)) {
    pass.tracer = std::move(tracer);
    pass.tracer_wall_s = wall_s;
  }
}

/// Outside timing (and after peak RSS was read, since the cold solve builds a
/// second network): the last cycle of the pass, whose fabric state is still
/// current, and the first cycle of a fresh stream must match a cold
/// MaxFlowScheduler circuit for circuit.
void check_against_cold(const Options& options, Pass& pass, Result& result) {
  result.check(
      matches_cold(pass.setup->cycles.back().problem, pass.last_schedule),
      "solve: canonical schedule differs from cold Dinic at the last cycle");
  pass.setup.reset();
  pass.setup = set_up(options.seed, 1);
  const Cycle& first = pass.setup->cycles.front();
  const Outcome out = run_cycle(*pass.setup, pass.ctx, first, nullptr, 0);
  result.check(matches_cold(first.problem, out.schedule),
               "solve: canonical schedule differs from cold Dinic at cycle 0");
}

}  // namespace

void run_solve(const Options& options, Result& result) {
  if (!options.trace) {
    Pass pass(options, options.seconds);
    while (!pass.reps.done()) run_rep(options, false, pass, result);
    const std::size_t nodes = pass.setup->skeleton.result().net.node_count();
    const std::size_t arcs = pass.setup->skeleton.result().net.arc_count();
    check_against_cold(options, pass, result);
    double flow_value = 0.0;
    for (const flow::Capacity v : pass.flow_values) {
      flow_value += static_cast<double>(v);
    }
    result.set("setup_s", median(pass.setup_seconds));
    report_op_times(result, pass.reps.best());
    result.set("peak_rss_mb", pass.peak_rss_mb);
    result.set("grant_ratio", flow_value / pass.opportunities);
    result.set("sim_response_mean", pass.response_mean);
    result.attempted =
        static_cast<std::int64_t>(pass.flow_values.size()) * pass.reps.count();
    result.note("reps=" + std::to_string(pass.reps.count()) +
                " cycles per rep=" + std::to_string(pass.flow_values.size()) +
                " flow nodes=" + std::to_string(nodes) +
                " arcs=" + std::to_string(arcs));
    return;
  }

  Pass untraced(options, options.seconds);
  Pass traced(options, options.seconds);
  alternate(untraced.reps, traced.reps, [&](bool trace) {
    run_rep(options, trace, trace ? traced : untraced, result);
  });
  const auto arcs =
      static_cast<double>(traced.setup->skeleton.result().net.arc_count());
  check_against_cold(options, traced, result);
  const Tracer& tracer = *traced.tracer;
  const auto self = tracer.self_times();
  const auto n = static_cast<double>(traced.flow_values.size());
  const auto per_op = [&](const char* name) {
    return self.at(name).self_ns * 1e-3 / n;
  };
  result.set("flow.solve_us", per_op("flow.solve"));
  result.set("flow.operations", traced.operations / n);
  result.set("flow.ops_per_arc", traced.operations / n / arcs);
  result.set("flow.bfs_phases", traced.phases / n);
  result.set("flow.augmentations", traced.augmentations / n);
  result.set("core.transform_update_us", per_op("core.transform_update"));
  result.set("core.extract_us", per_op("core.extract"));
  result.set("core.verify_us", per_op("core.verify"));
  result.set("core.schedule_us",
             per_op("core.transform_update") + per_op("flow.clear_flow") +
                 per_op("flow.solve") + per_op("core.extract"));
  report_trace_health(result, tracer, traced.tracer_wall_s,
                      ops_per_second(traced.reps.best()),
                      ops_per_second(untraced.reps.best()));
  result.attempted = static_cast<std::int64_t>(traced.flow_values.size()) *
                     (untraced.reps.count() + traced.reps.count());
  result.note("traced reps=" + std::to_string(traced.reps.count()) +
              " untraced reps=" + std::to_string(untraced.reps.count()));
  save_trace(tracer, options, "spans");
}

}  // namespace e2e
