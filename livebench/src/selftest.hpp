// The benchmark's own self-tests (`livebench --self-test`):
//   * the open-loop generator charges a one-off stall to every request
//     scheduled during it (stub endpoint, no janusd needed);
//   * process hygiene: after a successful run, a wrong verdict, SIGTERM,
//     SIGINT and SIGKILL of the benchmark, no janusd it forked survives
//     (checked with `pgrep -f <janusd path>`, as tools/run_cluster_tests.sh
//     does).
#pragma once

#include <string>

#include "bench.hpp"

namespace livebench {

/// Environment variable that makes the verdict check reject every admitted
/// generous key; the hygiene self-test uses it to force a failed check.
inline constexpr const char* kFaultEnv = "LIVEBENCH_FAULT";

int run_self_tests(const Options& opt, const std::string& self_exe);

}  // namespace livebench
