// fed-4x64: fed::Federation of four Omega-64 clusters (warm canonical
// scheduler each), uplink capacity 2 per ordered pair, spill on.
//
// The benchmark generates the arrivals and feeds them through submit():
// per cycle a binomial number of tasks (offered load 0.45 of the pooled
// resources), each owned by one of 32 Zipf(1.2)-ranked tenants, so the
// home cluster of the top tenants runs hot and spill admission has real
// work. An op is one federation cycle: that cycle's submits plus
// run_cycle(). Arrival generation is not timed. A rep runs a fresh
// federation for a fixed number of cycles, so reps are identical work.
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/transform.hpp"
#include "fed/federation.hpp"
#include "obs/metrics.hpp"
#include "topo/builders.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using namespace rsin;

constexpr std::int32_t kClusters = 4;
constexpr std::int32_t kFabric = 64;
constexpr std::int32_t kTenants = 32;
constexpr double kZipf = 1.2;
constexpr double kLoad = 0.45;         ///< Offered busy fraction per resource.
constexpr double kMeanService = 3.0;   ///< Cycles a granted task holds.
constexpr int kMinReps = 3;
/// Federation cycles per rep (the --ops value overrides it).
constexpr std::int64_t kCycles = 2000;

fed::FederationConfig federation_config(std::uint64_t seed) {
  fed::FederationConfig config;
  config.clusters = kClusters;
  config.cluster.topology = "omega";
  config.cluster.n = kFabric;
  config.cluster.scheduler = "warm";
  config.uplink_capacity = 2;
  config.spill = true;
  config.seed = seed;
  return config;
}

/// Seeded arrival stream: tenant by inverse Zipf CDF, processor uniform in
/// the home cluster, service 1 + floor(Exp(mean - 1)) cycles.
class Arrivals {
 public:
  explicit Arrivals(std::uint64_t seed) : rng_(seed ^ 0xfed4064ULL) {
    double total = 0.0;
    for (std::int32_t t = 0; t < kTenants; ++t) {
      total += 1.0 / std::pow(static_cast<double>(t + 1), kZipf);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  /// Appends this cycle's tasks to `out` (cleared first).
  void next(std::int64_t cycle, std::vector<fed::Task>& out) {
    out.clear();
    constexpr std::int32_t slots = kClusters * kFabric;
    const double p = kLoad / kMeanService;
    for (std::int32_t s = 0; s < slots; ++s) {
      if (!rng_.bernoulli(p)) continue;
      fed::Task task;
      task.id = next_id_++;
      const double u = rng_.uniform();
      std::int32_t tenant = 0;
      while (tenant + 1 < kTenants &&
             cdf_[static_cast<std::size_t>(tenant)] <= u) {
        ++tenant;
      }
      task.tenant = tenant;
      task.processor =
          static_cast<topo::ProcessorId>(rng_.uniform_int(0, kFabric - 1));
      const double extra =
          std::floor(rng_.exponential(1.0 / (kMeanService - 1.0)));
      task.service_cycles =
          1 + static_cast<std::int32_t>(std::min(63.0, extra));
      task.birth_cycle = cycle;
      out.push_back(task);
    }
  }

 private:
  util::Rng rng_;
  std::vector<double> cdf_;
  std::uint64_t next_id_ = 0;
};

/// One pass: reps of fresh federations until its time budget is spent.
struct Pass {
  Pass(const Options& options, double seconds)
      : reps(options, seconds, kMinReps) {}

  Reps reps;
  std::vector<double> setup_seconds;  ///< Federation construction, per rep.
  std::int64_t offered = 0;  ///< Per rep.
  std::int64_t refused = 0;  ///< submit() returned false, over all reps.
  double grant_ratio = 0.0;  ///< Of the first rep.
  double response_mean = 0.0;
  std::uint64_t schedule_hash = 0;  ///< Cluster hashes folded, first rep.
  std::unique_ptr<Tracer> tracer;  ///< Spans of the fastest traced rep.
  std::unique_ptr<fed::Federation> federation;  ///< Of that rep.
  double tracer_wall_s = 0.0;
  double peak_rss_mb = 0.0;  ///< After the first rep.
};

void run_rep(const Options& options, std::int64_t cycles, bool traced,
             Pass& pass, Result& result) {
  std::vector<fed::Task> tasks;
  const std::int64_t setup_start = now_ns();
  auto federation =
      std::make_unique<fed::Federation>(federation_config(options.seed));
  pass.setup_seconds.push_back(seconds_between(setup_start, now_ns()));
  auto tracer = traced ? std::make_unique<Tracer>(cycles * 4) : nullptr;
  Arrivals arrivals(options.seed);
  std::vector<double> op_seconds;
  op_seconds.reserve(static_cast<std::size_t>(cycles));
  std::int64_t offered = 0;
  const std::int64_t rep_start = now_ns();
  for (std::int64_t cycle = 0; cycle < cycles; ++cycle) {
    arrivals.next(cycle, tasks);
    const std::int64_t start = now_ns();
    {
      Scope root(tracer.get(), "bench.cycle", cycle);
      {
        Scope span(tracer.get(), "fed.submit", cycle);
        for (const fed::Task& task : tasks) {
          if (!federation->submit(task)) ++pass.refused;
        }
      }
      Scope span(tracer.get(), "fed.run_cycle", cycle);
      federation->run_cycle();
    }
    op_seconds.push_back(seconds_between(start, now_ns()));
    offered += static_cast<std::int64_t>(tasks.size());
  }
  const double wall_s = seconds_between(rep_start, now_ns());

  // Conservation: every offered task is granted, shed, or still queued.
  std::int64_t granted = 0;
  std::int64_t shed = 0;
  std::int64_t queued = 0;
  double response_sum = 0.0;
  std::uint64_t hash = 0;
  for (std::int32_t c = 0; c < federation->clusters(); ++c) {
    const fed::Cluster& cluster = federation->cluster(c);
    granted += cluster.stats().granted;
    shed += cluster.stats().shed;
    queued += cluster.queued();
    response_sum += cluster.stats().response_sum;
    hash = hash * 1099511628211ULL ^ cluster.schedule_hash();
  }
  result.check(granted + shed + queued == offered &&
                   federation->stats().submitted == offered,
               "fed: granted " + std::to_string(granted) + " + shed " +
                   std::to_string(shed) + " + queued " +
                   std::to_string(queued) + " != offered " +
                   std::to_string(offered));
  result.check(federation->stats().spill_moved > 0,
               "fed: spill admission moved no task");
  if (pass.reps.count() == 0) {
    pass.offered = offered;
    pass.grant_ratio =
        static_cast<double>(granted) / static_cast<double>(offered);
    pass.response_mean = response_sum / static_cast<double>(granted);
    pass.schedule_hash = hash;
    pass.peak_rss_mb = peak_rss_mb();
    if (!traced) {
      result.note("cycles per rep=" + std::to_string(cycles) + " offered=" +
                  std::to_string(offered) + " granted=" +
                  std::to_string(granted) + " still queued=" +
                  std::to_string(queued) + " spill moved=" +
                  std::to_string(federation->stats().spill_moved));
    }
  } else {
    result.check(hash == pass.schedule_hash,
                 "fed: same-seed reps produced different schedules");
  }
  pass.reps.add(std::move(op_seconds));
  if (tracer && (!pass.tracer || wall_s < pass.tracer_wall_s)) {
    pass.tracer = std::move(tracer);
    pass.federation = std::move(federation);
    pass.tracer_wall_s = wall_s;
  }
}

}  // namespace

void run_fed(const Options& options, Result& result) {
  const std::int64_t cycles = work_size(options, kCycles);

  if (!options.trace) {
    Pass pass(options, options.seconds);
    while (!pass.reps.done()) run_rep(options, cycles, false, pass, result);
    result.set("setup_s", median(pass.setup_seconds));
    report_op_times(result, pass.reps.best());
    result.set("peak_rss_mb", pass.peak_rss_mb);
    result.set("grant_ratio", pass.grant_ratio);
    result.set("sim_response_mean", pass.response_mean);
    result.attempted = cycles * pass.reps.count();
    result.failed = pass.refused;
    result.note("reps=" + std::to_string(pass.reps.count()));
    return;
  }

  Pass untraced(options, options.seconds);
  Pass traced(options, options.seconds);
  alternate(untraced.reps, traced.reps, [&](bool trace) {
    run_rep(options, cycles, trace, trace ? traced : untraced, result);
  });
  result.check(traced.schedule_hash == untraced.schedule_hash,
               "fed: traced and untraced schedules differ");

  const Tracer& tracer = *traced.tracer;
  const fed::Federation& federation = *traced.federation;
  const auto self = tracer.self_times();
  const auto n = static_cast<double>(cycles);
  result.set("fed.cycle_us", self.at("fed.run_cycle").self_ns * 1e-3 / n);
  result.set("fed.submit_us", self.at("fed.submit").self_ns * 1e-3 /
                                  static_cast<double>(traced.offered));
  result.set("fed.cycle_growth",
             quarter_growth(tracer.durations_us("fed.run_cycle")));
  const fed::FederationStats& stats = federation.stats();
  result.set("fed.spill_moved_ratio",
             static_cast<double>(stats.spill_moved) /
                 static_cast<double>(stats.spill_demand));

  obs::Registry exported;
  federation.export_registry(exported);
  const auto counter = [&](const char* name) {
    return static_cast<double>(exported.counter(name).value());
  };
  core::PersistentTransform skeleton;
  skeleton.build(topo::make_named("omega", kFabric));
  const double arcs =
      static_cast<double>(skeleton.result().net.arc_count()) * kClusters;
  result.set("flow.operations", counter("flow.operations") / n);
  result.set("flow.ops_per_arc", counter("flow.operations") / n / arcs);
  result.set("flow.bfs_phases", counter("flow.bfs_phases") / n);
  result.set("flow.augmentations", counter("flow.augmentations") / n);
  result.set("flow.repair_waste",
             counter("flow.repair_cancelled") / counter("flow.augmentations"));
  report_trace_health(result, tracer, traced.tracer_wall_s,
                      ops_per_second(traced.reps.best()),
                      ops_per_second(untraced.reps.best()));
  result.attempted = cycles * (untraced.reps.count() + traced.reps.count());
  result.failed = untraced.refused + traced.refused;
  save_trace(tracer, options, "spans");
}

}  // namespace e2e
