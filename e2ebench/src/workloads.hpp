// The four workloads. Each fills `result` with the end-to-end metrics
// (options.trace == false) or the per-layer split (true), and records every
// correctness check it runs.
#pragma once

#include "common.hpp"

namespace e2e {

void run_des(const Options& options, Result& result);
void run_solve(const Options& options, Result& result);
void run_rsind(const Options& options, Result& result, const char* rsind_path);
void run_fed(const Options& options, Result& result);

}  // namespace e2e
