// livebench — drive the real Janus stack (forked janusd processes on
// loopback) open-loop from this one process and print end-to-end SLO
// metrics (--trace 0) or per-layer costs from a traced run (--trace 1).
//
//   livebench --workload <http_hot|udp_hot|udp_churn|cluster_handoff>
//             --seed N --seconds S --trace 0|1 --workdir DIR [--janusd PATH]
//   livebench --self-test --workdir DIR [--janusd PATH]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}. A wrong verdict exits 3 without a result; any other failure
// exits 1. See livebench/README.md for the workloads and metrics.
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "bench.hpp"
#include "driver.hpp"
#include "keepawake.hpp"
#include "selftest.hpp"

namespace livebench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The BENCHMARK.json tables: end_to_end (printed with --trace 0) and
// per_layer (printed with --trace 1). Every workload prints every row; a
// layer a workload does not run reads 0. p99_us is measured on every run
// but sits with the unbounded rows: on a shared VM its run-to-run spread is
// set by millisecond host preemptions (README.md, Steadiness).
constexpr MetricDef kEndToEnd[] = {
    {"p50_us", "us"},
    {"cpu_us_per_req", "us"},
    {"server_rss_mb", "MB"},
    {"setup_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    {"p99_us", "us"},
    {"max_rps_at_slo", "req/s"},
    {"fail_share", "ratio"},
    {"overadmit_units", "credits"},
    {"failover_ms", "ms"},
    {"reshard_ms", "ms"},
    {"lb.self_us_p50", "us"},
    {"lb.cpu_us_per_req", "us"},
    {"lb.fallback_rr_share", "ratio"},
    {"lb.backend_errors", "count"},
    {"router.self_us_p50", "us"},
    {"router.cpu_us_per_req", "us"},
    {"router.udp_rtt_us_mean", "us"},
    {"router.retries_per_req", "ratio"},
    {"router.default_replies", "count"},
    {"router.stale_reroutes", "count"},
    {"udp.attempts_per_req", "ratio"},
    {"server.self_us_p50", "us"},
    {"server.queue_wait_us_mean", "us"},
    {"server.service_us_mean", "us"},
    {"server.cpu_us_per_req", "us"},
    {"server.drops", "count"},
    {"server.answered_share", "ratio"},
    {"server.recv_batch_mean", "count"},
    {"server.send_batch_mean", "count"},
    {"wire.encode_ns", "ns"},
    {"wire.decode_ns", "ns"},
    {"core.check_warm_ns", "ns"},
    {"core.check_cold_ns", "ns"},
    {"core.deny_share", "ratio"},
    {"db.get_ns", "ns"},
    {"db.checkpoint_ns", "ns"},
    {"db.load_s", "s"},
    {"cluster.detect_ms", "ms"},
    {"cluster.promote_to_admit_ms", "ms"},
    {"cluster.reshard_call_ms", "ms"},
    {"cluster.migrated_in", "count"},
    {"cluster.deferred", "count"},
    {"cluster.publish_errors", "count"},
    {"gen.late_us_p99", "us"},
    {"trace_overhead_us", "us"},
};

int usage() {
  std::fprintf(stderr,
               "usage: livebench --workload <http_hot|udp_hot|udp_churn|"
               "cluster_handoff> --seed N --seconds S --trace 0|1 "
               "--workdir DIR [--janusd PATH]\n"
               "       livebench --self-test --workdir DIR [--janusd PATH]\n");
  return 2;
}

std::string self_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  std::string path(buf, static_cast<std::size_t>(n));
  return path.substr(0, path.rfind('/'));
}

void print_result(const RunResult& r, bool trace) {
  std::string json = fmt("{\"correct\": %s, \"attempted\": %llu, "
                         "\"failed\": %llu, \"metrics\": {",
                         r.correct ? "true" : "false",
                         static_cast<unsigned long long>(r.attempted),
                         static_cast<unsigned long long>(r.failed));
  bool first = true;
  auto emit = [&](const MetricDef& m, bool required) {
    auto it = r.metrics.find(m.name);
    if (it == r.metrics.end() && required) {
      throw std::runtime_error(std::string("metric not measured: ") + m.name);
    }
    double v = it == r.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      throw std::runtime_error(std::string("metric not finite: ") + m.name);
    }
    std::printf("metric %-28s = %.6g %s\n", m.name, v, m.unit);
    json += fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name, v, m.unit);
    first = false;
  };
  if (trace) {
    for (const MetricDef& m : kPerLayer) emit(m, false);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m, true);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace livebench

int main(int argc, char** argv) {
  using namespace livebench;
  Options opt;
  opt.janusd = self_dir() + "/janusd";
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--trace") {
        opt.trace = value() != "0";
      } else if (a == "--workdir") {
        opt.workdir = value();
      } else if (a == "--janusd") {
        opt.janusd = value();
      } else if (a == "--self-test") {
        self_test = true;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (opt.workdir.empty() || opt.seconds <= 0) return usage();
  ::mkdir(opt.workdir.c_str(), 0755);
  if (::access(opt.janusd.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "livebench: janusd not found at %s\n",
                 opt.janusd.c_str());
    return 1;
  }
  install_signal_reaper();
  ::signal(SIGPIPE, SIG_IGN);

  if (self_test) return run_self_tests(opt, self_dir() + "/livebench");

  RunResult (*run)(const Options&) = nullptr;
  if (opt.workload == "http_hot") run = run_http_hot;
  if (opt.workload == "udp_hot") run = run_udp_hot;
  if (opt.workload == "udp_churn") run = run_udp_churn;
  if (opt.workload == "cluster_handoff") run = run_cluster_handoff;
  if (!run) return usage();

  std::printf("livebench: workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  std::fflush(stdout);
  try {
    const KeepAwake awake;
    const RunResult r = run(opt);
    note(fmt("host: cpu_speed=%.3fns/op at the end of the run",
             cpu_speed_ns()));
    print_result(r, opt.trace);
    return 0;
  } catch (const VerdictError& e) {
    std::fprintf(stderr, "livebench: WRONG VERDICT, aborting: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "livebench: %s\n", e.what());
    return 1;
  }
}
