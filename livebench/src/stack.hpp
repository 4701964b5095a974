// Process supervision for the forked janusd stack, plus the measurements
// taken from outside each process: CPU time and peak RSS from /proc, and
// counter / histogram deltas from each node's admin /metrics.
//
// Hygiene: every child is started with PR_SET_PDEATHSIG=SIGKILL (it dies
// with the benchmark even on SIGKILL of the benchmark), is listed in a
// signal-safe table that the SIGINT/SIGTERM/SIGHUP handler kills and reaps,
// and is reaped by Supervisor's destructor on every other exit path. All
// ports are ephemeral (port 0, read back from the node's banner).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/socket.hpp"

namespace livebench {

/// Install the SIGINT/SIGTERM/SIGHUP handler that SIGKILLs and reaps every
/// live child, then exits 128+signal.
void install_signal_reaper();

struct Proc {
  std::string name;
  std::string role;  // server | router | gateway
  pid_t pid = -1;
  std::string log_path;
  janus::net::SockAddr addr{"0.0.0.0", 0};     // data plane (UDP or HTTP)
  janus::net::SockAddr admin{"0.0.0.0", 0};    // /metrics, /healthz
  janus::net::SockAddr cluster{"0.0.0.0", 0};  // cluster agent (TCP)
  janus::net::SockAddr bfd{"0.0.0.0", 0};      // BFD responder
  janus::net::SockAddr ha{"0.0.0.0", 0};       // HA snapshot server
  std::vector<std::string> args;
  std::int64_t launched_ns = 0;
  std::int64_t healthy_ns = 0;  // first /healthz 200
};

struct ProcUsage {
  double cpu_s = 0;   // run time of every thread
  double hwm_mb = 0;  // VmHWM
};

/// Reads /proc/<pid>/task/*/schedstat and /proc/<pid>/status; zeros if
/// the process is gone.
ProcUsage read_usage(pid_t pid);

/// Counters, gauges and histogram _sum/_count of one /metrics page, keyed
/// by the exposition name without its "janus_" prefix ("server_received",
/// "server_service_us_sum", "server_worker_queue_reject_w0").
using Scrape = std::map<std::string, double>;

class Supervisor {
 public:
  Supervisor(std::string janusd, std::string workdir);
  ~Supervisor();
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Fork+exec `janusd <role> <args...> --admin 127.0.0.1:0`.
  Proc& launch(const std::string& name, const std::string& role,
               std::vector<std::string> args);
  /// Parse the bound addresses from a launched process's banner. Throws if
  /// it exits or stays silent.
  void await(Proc& p);
  /// launch + await.
  Proc& spawn(const std::string& name, const std::string& role,
              std::vector<std::string> args) {
    Proc& p = launch(name, role, std::move(args));
    await(p);
    return p;
  }

  /// Block until every process's /healthz answers 200. Throws on timeout.
  void wait_healthy(double timeout_s = 60);

  /// SIGKILL + reap one process (the failover primitive).
  void sigkill(Proc& p);

  /// SIGTERM every process, reap; SIGKILL stragglers. Idempotent.
  void stop_all();

  std::vector<Proc>& procs() { return procs_; }
  std::vector<Proc*> by_role(const std::string& role);

  /// Sum of CPU seconds over processes of `role` ("" = all).
  double cpu_s(const std::string& role = "");
  /// Largest VmHWM (MB) among processes of `role`.
  double max_hwm_mb(const std::string& role);

  /// /metrics of one node, and the sum over every node of `role`.
  static Scrape scrape(const Proc& p);
  Scrape scrape_role(const std::string& role);

 private:
  janus::net::SockAddr wait_banner(Proc& p, const std::string& marker,
                                   double timeout_s);

  std::string janusd_;
  std::string workdir_;
  std::vector<Proc> procs_;  // reserved up front: references stay valid
};

/// Δ of `name` between two scrapes.
double delta(const Scrape& before, const Scrape& after,
             const std::string& name);

/// Sum over keys starting with `prefix` of Δ (per-worker counter families).
double delta_prefix(const Scrape& before, const Scrape& after,
                    const std::string& prefix);

/// HTTP GET against an admin endpoint; throws on transport failure.
std::string admin_get(const janus::net::SockAddr& admin,
                      const std::string& path, int* status = nullptr);

}  // namespace livebench
