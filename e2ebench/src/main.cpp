// e2ebench — one end-to-end benchmark over the rsin stack.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            [--ops N] [--work-dir DIR]
//
// Workloads (README.md explains why each exists):
//   des-omega256     sim::simulate_system, warm scheduler, link faults
//   solve-omega8k    E23 stream through the canonical per-cycle pipeline
//   rsind-omega64    a forked rsind daemon driven by one closed-loop client
//   fed-4x64         fed::Federation of four Omega-64 clusters with spill
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer split.
// The last stdout line is one JSON object; the exit code is 0 only when
// every correctness check passed.
#include <unistd.h>

#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "core/scheduler.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: e2ebench --workload des-omega256|solve-omega8k|"
               "rsind-omega64|fed-4x64 --seed N --seconds S --trace 0|1 "
               "[--ops N] [--work-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Without NDEBUG the warm scheduler runs a cold differential solve on
  // every cycle (WarmMaxFlowScheduler::kVerifyDefault), which would be
  // measured as if it were the product.
#ifndef NDEBUG
  std::cerr << "e2ebench: refusing to run a build without NDEBUG\n";
  return 3;
#endif
  if (rsin::core::WarmMaxFlowScheduler::kVerifyDefault) {
    std::cerr << "e2ebench: refusing to run with per-cycle warm verification\n";
    return 3;
  }

  e2e::Options options;
  bool have_seed = false;
  bool have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = std::stoi(value) != 0;
        have_trace = true;
      } else if (arg == "--ops") {
        options.ops = std::stoll(value);
      } else if (arg == "--work-dir") {
        options.work_dir = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (options.workload.empty() || !have_seed || !have_trace ||
      options.seconds <= 0.0 || options.ops < 0) {
    return usage();
  }

  std::cout << "env: build_type=" << E2EBENCH_BUILD_TYPE
            << " ndebug=1 compiler=\"" << __VERSION__
            << "\" nproc=" << ::sysconf(_SC_NPROCESSORS_ONLN)
            << " workload=" << options.workload << " seed=" << options.seed
            << " seconds=" << options.seconds
            << " trace=" << (options.trace ? 1 : 0) << " ops=" << options.ops
            << std::endl;

  e2e::Result result;
  try {
    if (options.workload == "des-omega256") {
      e2e::run_des(options, result);
    } else if (options.workload == "solve-omega8k") {
      e2e::run_solve(options, result);
    } else if (options.workload == "rsind-omega64") {
      e2e::run_rsind(options, result, E2EBENCH_RSIND_PATH);
    } else if (options.workload == "fed-4x64") {
      e2e::run_fed(options, result);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << options.workload << " failed: " << e.what()
              << '\n';
    return 1;
  }
  result.print(options.trace);
  return result.correct() ? 0 : 1;
}
