// Shared pieces of the end-to-end benchmark binary: options, the result
// record every workload fills, order statistics, the in-memory span tracer,
// and process memory probes.
//
// Every workload reports the same metric names (see kEndToEnd / kPerLayer in
// common.cpp). A layer a workload does not run reports 0 for its per-layer
// metrics: the workload spends no time and does no work there.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <sys/types.h>

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< Measured time budget of one pass.
  bool trace = false;     ///< Report the per-layer split instead of e2e.
  /// Fixed op count instead of a time budget (0 = time-bounded). With it,
  /// every count and simulated metric is a pure function of (seed, ops).
  std::int64_t ops = 0;
  std::string work_dir = ".bench_build/work";  ///< rsind socket/journal dirs.
};

/// Monotonic nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Repeats one fixed unit of work (a "rep") and keeps the per-op times of
/// every rep. Reps are identical work, so op i's time is taken as its
/// minimum over the reps: the program's own cost, without the multi-second
/// bursts of interference that other tenants of a shared machine cause.
class Reps {
 public:
  /// Time mode: at least `min_reps` reps and until `seconds` have passed.
  /// With --ops: exactly two reps.
  Reps(const Options& options, double seconds, int min_reps);

  [[nodiscard]] bool done() const;
  /// Records one rep's per-op times (every rep must have the same count).
  void add(std::vector<double> op_seconds);
  [[nodiscard]] int count() const { return static_cast<int>(reps_.size()); }
  /// Per-op minimum over the reps.
  [[nodiscard]] std::vector<double> best() const;

 private:
  bool fixed_;
  int min_reps_;
  std::int64_t deadline_ns_;
  std::vector<std::vector<double>> reps_;
};

/// Runs reps of an untraced and a traced pass alternately until both are
/// done, so bursts of interference hit both passes alike.
template <typename RunRep>
void alternate(const Reps& untraced, const Reps& traced, RunRep run_rep) {
  while (!untraced.done() || !traced.done()) {
    if (!untraced.done()) run_rep(false);
    if (!traced.done()) run_rep(true);
  }
}

/// Ops per rep: `fallback` in time mode, the --ops value otherwise.
inline std::int64_t work_size(const Options& options, std::int64_t fallback) {
  return options.ops > 0 ? options.ops : fallback;
}

/// What one benchmark invocation prints.
class Result {
 public:
  void set(const std::string& name, double value);
  /// Records a failed correctness check (the run then exits non-zero).
  void check(bool ok, const std::string& what);
  /// A human-readable line printed before the JSON result.
  void note(const std::string& line) { notes_.push_back(line); }

  [[nodiscard]] bool correct() const { return failures_.empty(); }
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  /// Prints notes, check failures, a metric table and the final JSON line
  /// (every metric of the selected set, 0 for layers the workload skips).
  void print(bool trace) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
};

// --- order statistics ------------------------------------------------------

double median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> values, double p);

/// ops_per_s, op_p99_us and flatness of per-op times, and a note with the
/// median and the sample count.
void report_op_times(Result& result, const std::vector<double>& op_seconds);
/// Ops per second over all of `op_seconds`.
double ops_per_second(const std::vector<double>& op_seconds);
/// Ops/s of the last quarter of `op_seconds` over the first quarter.
double flatness(const std::vector<double>& op_seconds);
/// Median of the last quarter over the median of the first quarter.
double quarter_growth(const std::vector<double>& values);
double first_quarter_median(const std::vector<double>& values);
double last_quarter_median(const std::vector<double>& values);

// --- tracing ---------------------------------------------------------------

/// One timed call into a layer. `parent` indexes the enclosing span (-1 at
/// the root); spans of one op share `op`.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::int64_t op = 0;
};

/// In-memory span recorder. Spans nest through an explicit stack, so the
/// parent of a span is whatever span was open when it began.
class Tracer {
 public:
  explicit Tracer(std::size_t reserve = 1 << 16) { spans_.reserve(reserve); }

  std::int32_t begin(const char* name, std::int64_t op);
  void end(std::int32_t id);

  struct LayerTotals {
    double self_ns = 0.0;
    std::int64_t count = 0;
  };
  /// Self time (duration minus the children's durations) summed per name.
  [[nodiscard]] std::map<std::string, LayerTotals> self_times() const;
  /// Durations of every span named `name`, in recording order (µs).
  [[nodiscard]] std::vector<double> durations_us(
      const std::string& name) const;
  /// Per op id in [0, ops): summed durations of spans with one of `names`.
  [[nodiscard]] std::vector<double> op_durations_us(
      const std::vector<std::string>& names, std::size_t ops) const;
  /// Sum of self time over spans whose name starts with a layer prefix
  /// (core. flow. sim. svc. fed. topo.), in seconds.
  [[nodiscard]] double layer_self_seconds() const;
  /// Writes "op,name,parent,start_ns,end_ns" lines.
  void write_csv(const std::string& path) const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::int64_t op)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, op) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

/// Writes the tracer's spans next to the build (kept for offline analysis).
void save_trace(const Tracer& tracer, const Options& options,
                const std::string& tag);

/// Shared per-layer bookkeeping: trace.coverage and trace.overhead.
void report_trace_health(Result& result, const Tracer& tracer,
                         double traced_wall_s, double traced_ops_per_s,
                         double untraced_ops_per_s);

// --- process probes ----------------------------------------------------------

/// Peak resident set (VmHWM) of `pid` (0 = this process), in MB.
double peak_rss_mb(pid_t pid = 0);

}  // namespace e2e
