#include "common.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include <sys/stat.h>

namespace e2e {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// End-to-end metrics: what a user of the scheduler sees. None reads 0.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"ops_per_s", "op/s"},
    {"op_p99_us", "us"},     {"flatness", "ratio"},
    {"peak_rss_mb", "MB"},   {"grant_ratio", "ratio"},
    {"sim_response_mean", "sim_time"},
};

// Per-layer metrics of the traced run. Times are µs per call of the layer
// (or per op where noted in README.md); counts are per op.
constexpr MetricSpec kPerLayer[] = {
    {"flow.solve_us", "us"},
    {"flow.operations", "count"},
    {"flow.ops_per_arc", "ratio"},
    {"flow.bfs_phases", "count"},
    {"flow.augmentations", "count"},
    {"flow.repair_waste", "ratio"},
    {"core.transform_update_us", "us"},
    {"core.extract_us", "us"},
    {"core.verify_us", "us"},
    {"core.schedule_us", "us"},
    {"sim.cycle_us", "us"},
    {"sim.self_us", "us"},
    {"svc.parse_us", "us"},
    {"svc.exec_req_us", "us"},
    {"svc.exec_cycle_us", "us"},
    {"svc.exec_read_us", "us"},
    {"svc.commit_us", "us"},
    {"svc.exec_cycle_growth", "ratio"},
    {"svc.state_hash_first_us", "us"},
    {"svc.state_hash_last_us", "us"},
    {"svc.transport_us", "us"},
    {"svc.journal_bytes_per_cmd", "B"},
    {"svc.snapshot_us", "us"},
    {"svc.snapshot_bytes", "B"},
    {"fed.cycle_us", "us"},
    {"fed.submit_us", "us"},
    {"fed.cycle_growth", "ratio"},
    {"fed.spill_moved_ratio", "ratio"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

/// Shortest round-trip text of a finite double: every digit as measured.
std::string exact(double value) {
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return ec == std::errc() ? std::string(buffer, end) : std::string("0");
}

/// The first or last quarter of `values` (at least one element).
std::vector<double> quarter(const std::vector<double>& values, bool last) {
  if (values.size() < 2) return values;
  const std::size_t q = std::max<std::size_t>(1, values.size() / 4);
  return last ? std::vector<double>(values.end() - static_cast<long>(q),
                                    values.end())
              : std::vector<double>(values.begin(),
                                    values.begin() + static_cast<long>(q));
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

bool is_layer_name(std::string_view name) {
  for (const std::string_view prefix :
       {"core.", "flow.", "sim.", "svc.", "fed.", "topo."}) {
    if (name.substr(0, prefix.size()) == prefix) return true;
  }
  return false;
}

}  // namespace

Reps::Reps(const Options& options, double seconds, int min_reps)
    : fixed_(options.ops > 0),
      min_reps_(min_reps),
      deadline_ns_(now_ns() + static_cast<std::int64_t>(seconds * 1e9)) {}

bool Reps::done() const {
  if (fixed_) return count() >= 2;
  return count() >= min_reps_ && now_ns() >= deadline_ns_;
}

void Reps::add(std::vector<double> op_seconds) {
  if (!reps_.empty() && op_seconds.size() != reps_.front().size()) {
    throw std::logic_error("reps of one pass must run the same ops");
  }
  reps_.push_back(std::move(op_seconds));
}

std::vector<double> Reps::best() const {
  if (reps_.empty()) return {};
  std::vector<double> out = reps_.front();
  for (const std::vector<double>& rep : reps_) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = std::min(out[i], rep[i]);
    }
  }
  return out;
}

void Result::set(const std::string& name, double value) {
  values_[name] = value;
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void Result::print(bool trace) const {
  std::vector<std::string> failures = failures_;
  const MetricSpec* specs_begin =
      trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricSpec* specs_end =
      trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  std::ostringstream json;
  json << "\"metrics\": {";
  bool first = true;
  for (const MetricSpec* spec = specs_begin; spec != specs_end; ++spec) {
    const auto it = values_.find(spec->name);
    double value = 0.0;
    if (it != values_.end()) {
      value = it->second;
    } else if (!trace) {
      failures.push_back(std::string("end-to-end metric not measured: ") +
                         spec->name);
    }
    if (!std::isfinite(value)) {
      failures.push_back(std::string("metric is not finite: ") + spec->name);
      value = 0.0;
    }
    std::cout << "  " << std::left << std::setw(28) << spec->name << ' '
              << std::setw(22) << exact(value) << ' ' << spec->unit << '\n';
    json << (first ? "" : ", ") << '"' << spec->name << "\": {\"value\": "
         << exact(value) << ", \"unit\": \"" << spec->unit << "\"}";
    first = false;
  }
  json << "}}";
  for (const std::string& line : notes_) std::cout << "note: " << line << '\n';
  for (const std::string& line : failures) {
    std::cout << "CHECK FAILED: " << line << '\n';
  }
  std::cout << "{\"correct\": " << (failures.empty() ? "true" : "false")
            << ", \"attempted\": " << std::max<std::int64_t>(1, attempted)
            << ", \"failed\": " << failed << ", " << json.str() << std::endl;
}

double ops_per_second(const std::vector<double>& op_seconds) {
  const double total = sum(op_seconds);
  return total > 0.0 ? static_cast<double>(op_seconds.size()) / total : 0.0;
}

void report_op_times(Result& result, const std::vector<double>& op_seconds) {
  result.set("ops_per_s", ops_per_second(op_seconds));
  result.set("op_p99_us", percentile(op_seconds, 99) * 1e6);
  result.set("flatness", flatness(op_seconds));
  // The median is a note, not a metric: on rsind it is almost all socket
  // hand-over, which moves by 30% with the host's load (see README.md).
  result.note("op p50 us=" + exact(percentile(op_seconds, 50) * 1e6) +
              " p99 us=" + exact(percentile(op_seconds, 99) * 1e6) +
              " samples=" + std::to_string(op_seconds.size()));
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

double flatness(const std::vector<double>& op_seconds) {
  const std::vector<double> first = quarter(op_seconds, false);
  const std::vector<double> last = quarter(op_seconds, true);
  const double first_rate = static_cast<double>(first.size()) / sum(first);
  const double last_rate = static_cast<double>(last.size()) / sum(last);
  return first_rate > 0.0 ? last_rate / first_rate : 0.0;
}

double first_quarter_median(const std::vector<double>& values) {
  return median(quarter(values, false));
}

double last_quarter_median(const std::vector<double>& values) {
  return median(quarter(values, true));
}

double quarter_growth(const std::vector<double>& values) {
  const double first = first_quarter_median(values);
  return first > 0.0 ? last_quarter_median(values) / first : 0.0;
}

std::int32_t Tracer::begin(const char* name, std::int64_t op) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = open_.empty() ? -1 : open_.back();
  const auto id = static_cast<std::int32_t>(spans_.size());
  open_.push_back(id);
  span.start_ns = now_ns();
  spans_.push_back(span);
  return id;
}

void Tracer::end(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, Tracer::LayerTotals> Tracer::self_times() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, LayerTotals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    LayerTotals& t = totals[spans_[i].name];
    const Span& span = spans_[i];
    t.self_ns += static_cast<double>(span.end_ns - span.start_ns) - child_ns[i];
    ++t.count;
  }
  return totals;
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
    }
  }
  return out;
}

std::vector<double> Tracer::op_durations_us(
    const std::vector<std::string>& names, std::size_t ops) const {
  std::vector<double> out(ops, 0.0);
  for (const Span& span : spans_) {
    if (span.op < 0 || static_cast<std::size_t>(span.op) >= ops) continue;
    for (const std::string& name : names) {
      if (name == span.name) {
        out[static_cast<std::size_t>(span.op)] +=
            static_cast<double>(span.end_ns - span.start_ns) * 1e-3;
      }
    }
  }
  return out;
}

double Tracer::layer_self_seconds() const {
  double total = 0.0;
  for (const auto& [name, totals] : self_times()) {
    if (is_layer_name(name)) total += totals.self_ns * 1e-9;
  }
  return total;
}

void Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  out << "op,name,parent,start_ns,end_ns\n";
  for (const Span& span : spans_) {
    out << span.op << ',' << span.name << ',' << span.parent << ','
        << span.start_ns << ',' << span.end_ns << '\n';
  }
}

void save_trace(const Tracer& tracer, const Options& options,
                const std::string& tag) {
  ::mkdir(options.work_dir.c_str(), 0755);
  const std::string path = options.work_dir + "/trace." + options.workload +
                           "." + std::to_string(options.seed) + "." + tag +
                           ".csv";
  tracer.write_csv(path);
  std::cout << "spans: " << tracer.size() << " written to " << path << '\n';
}

void report_trace_health(Result& result, const Tracer& tracer,
                         double traced_wall_s, double traced_ops_per_s,
                         double untraced_ops_per_s) {
  result.set("trace.coverage", traced_wall_s > 0.0
                                   ? tracer.layer_self_seconds() / traced_wall_s
                                   : 0.0);
  result.set("trace.overhead", untraced_ops_per_s > 0.0
                                   ? 1.0 - traced_ops_per_s / untraced_ops_per_s
                                   : 0.0);
}

double peak_rss_mb(pid_t pid) {
  const std::string path = pid == 0 ? std::string("/proc/self/status")
                                     : "/proc/" + std::to_string(pid) +
                                           "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace e2e
