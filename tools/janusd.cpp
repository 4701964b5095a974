// janusd — run one Janus node from the command line.
//
//   janusd server --listen 127.0.0.1:9100 --rules rules.conf
//                 [--wal janus.wal] [--workers 4] [--shards 16]
//                 [--data-path auto|fallback|mmsg]
//                 [--sync-ms 5000] [--checkpoint-ms 5000]
//                 [--snapshot janus.snap --compact-ms 60000]
//                 [--default-rate R --default-capacity C]
//                 [--cluster-listen ip:port] [--bfd-listen ip:port]
//                 [--migrate-window-ms 250]
//                 [--ha-listen ip:port] [--ha-master ip:port --ha-ms 500]
//   janusd router --listen 127.0.0.1:8080
//                 --backends 127.0.0.1:9100,127.0.0.1:9101
//                 [--timeout-us 100] [--retries 5] [--default-allow]
//   janusd router --listen 127.0.0.1:8080 --cluster
//                 --members udp:port/cluster:port/bfd:port,...
//                 [--standbys udp:port/cluster:port/bfd:port|-,...]
//                 [--bfd-ms 50] [--bfd-mult 3]
//   janusd gateway --listen 127.0.0.1:8000
//                 --backends 127.0.0.1:8080,127.0.0.1:8081
//                 [--policy round-robin|least-connections|prequal]
//                 [--timeout-ms 1000] [--workers 4]
//                 [--probe-ms 5] [--probe-age-ms 250] [--probe-reuse 16]
//                 [--probe-d 3] [--probe-timeout-ms 50]
//
// The gateway role is the paper's ELB tier: an L7 balancer in front of
// router nodes. Under `--policy prequal` the probe flags tune the async
// probe pool (interval, staleness bound T, reuse budget R, power-of-d) —
// see DESIGN.md §14.
//
// Cluster mode (DESIGN.md §11): `--cluster-listen` starts the server's
// control-plane agent (EpochUpdate / MigrationBatch over TCP) and
// `--bfd-listen` its liveness responder. A `--cluster` router embeds the
// coordinator: `--members` lists each slot's data/control/BFD endpoints
// (slashes separate the three ip:port fields; the latter two may be empty),
// `--standbys` optionally pairs each slot with a standby ("-" = none). All
// bound ports are printed on stdout (and flushed) so test fixtures can
// parse them when binding port 0.
//
// Observability flags (every role):
//   --admin ip:port    mount /metrics (Prometheus), /healthz, /statusz,
//                      /tracez (flight-recorder Perfetto JSON)
//   --stats-ms N       log a one-line metrics snapshot every N ms
//   --log-level L      debug|info|warn|error|off (default info)
//   --trace-dump PATH  arm the one-shot flight-recorder auto-dump: the next
//                      chaos fault fire or stalled-worker watchdog hit
//                      writes the rings to PATH as Perfetto JSON
//
// The rules file is `key = rate capacity [credit]` per line, e.g.:
//
//   tenant-42 = 100 1000
//   10.0.0.7  = 5 20 12.5
//
// A flag the role does not read is rejected (exit 2), so a typo never
// silently falls back to a default. A SIGINT/SIGTERM stops the node cleanly.
#include <signal.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "cluster/coordinator.hpp"
#include "common/flight_recorder.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/periodic.hpp"
#include "common/string_util.hpp"
#include "db/rule_store.hpp"
#include "lb/gateway_balancer.hpp"
#include "net/bfd.hpp"
#include "router/router_node.hpp"
#include "server/cluster_agent.hpp"
#include "server/ha.hpp"
#include "server/qos_server_node.hpp"

using namespace janus;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

/// main() blocks SIGINT/SIGTERM before any thread starts, so every thread
/// inherits the block; the main thread unblocks them only inside
/// sigsuspend() and sleeps there until one arrives instead of polling.
sigset_t g_wait_mask;

void install_stop_signals() {
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  sigset_t stop;
  sigemptyset(&stop);
  sigaddset(&stop, SIGINT);
  sigaddset(&stop, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &stop, &g_wait_mask);
  sigdelset(&g_wait_mask, SIGINT);
  sigdelset(&g_wait_mask, SIGTERM);
}

void wait_for_stop_signal() {
  while (!g_stop) sigsuspend(&g_wait_mask);
}

using FlagSet = std::set<std::string, std::less<>>;

/// The flags each role reads (observability flags are added for every role).
const FlagSet kServerFlags = {
    "listen",         "rules",      "wal",           "workers",
    "shards",         "data-path",  "sync-ms",       "checkpoint-ms",
    "snapshot",       "compact-ms", "default-rate",  "default-capacity",
    "cluster-listen", "bfd-listen", "migrate-window-ms",
    "ha-listen",      "ha-master",  "ha-ms"};
const FlagSet kRouterFlags = {
    "listen",  "backends", "timeout-us", "retries", "default-allow",
    "cluster", "members",  "standbys",   "bfd-ms",  "bfd-mult"};
const FlagSet kGatewayFlags = {
    "listen",      "backends", "policy",  "timeout-ms",      "workers",
    "probe-ms",    "probe-d",  "probe-age-ms", "probe-reuse",
    "probe-timeout-ms"};
const FlagSet kObservabilityFlags = {"admin", "stats-ms", "log-level",
                                     "trace-dump"};

/// "--flag value" / "--flag=value" argument map; false (after printing) on
/// unknown syntax or a flag that `role` does not read.
bool parse_flags(int argc, char** argv, int first, const char* role,
                 const FlagSet& known,
                 std::map<std::string, std::string>& out) {
  for (int i = first; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!starts_with(arg, "--")) {
      std::fprintf(stderr, "janusd: unexpected argument '%s'\n", argv[i]);
      return false;
    }
    std::string name(arg.substr(2));
    std::optional<std::string> value;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
    }
    if (!known.contains(name) && !kObservabilityFlags.contains(name)) {
      std::fprintf(stderr, "janusd %s: unknown flag --%s\n", role,
                   name.c_str());
      return false;
    }
    if (value) {
      out[name] = *value;
      continue;
    }
    if (name == "default-allow" || name == "cluster") {  // boolean flags
      out[name] = "true";
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "janusd: --%s needs a value\n", name.c_str());
      return false;
    }
    out[name] = argv[++i];
  }
  return true;
}

Result<net::SockAddr> parse_addr(const std::string& text) {
  auto parts = split(text, ':');
  if (parts.size() != 2) return Error("expected ip:port, got " + text);
  auto port = parse_u64(parts[1]);
  if (!port || *port > 65535) return Error("bad port in " + text);
  return net::SockAddr{std::string(parts[0]),
                       static_cast<std::uint16_t>(*port)};
}

/// Shared handling of --log-level, --admin, --stats-ms for both roles.
/// `start_admin` mounts the node's admin endpoint; `registry` feeds the
/// periodic stats line. Returns false (after printing) on a bad flag value.
bool setup_observability(
    const std::map<std::string, std::string>& flags, const char* role,
    MetricsRegistry& registry,
    const std::function<Result<net::SockAddr>(const net::SockAddr&)>&
        start_admin,
    std::unique_ptr<PeriodicTask>& stats_task) {
  if (auto it = flags.find("log-level"); it != flags.end()) {
    auto level = parse_log_level(it->second);
    if (!level) {
      std::fprintf(stderr, "janusd: bad --log-level '%s'\n",
                   it->second.c_str());
      return false;
    }
    Logger::instance().set_level(*level);
  }
  if (auto it = flags.find("admin"); it != flags.end()) {
    auto addr = parse_addr(it->second);
    if (!addr.ok()) {
      std::fprintf(stderr, "janusd: --admin: %s\n",
                   addr.error().message.c_str());
      return false;
    }
    auto bound = start_admin(addr.value());
    if (!bound.ok()) {
      std::fprintf(stderr, "janusd: admin endpoint: %s\n",
                   bound.error().message.c_str());
      return false;
    }
    std::printf("janusd: %s admin endpoint on %s\n", role,
                bound.value().to_string().c_str());
    // Fixtures and scripts poll redirected logs for this banner; a
    // block-buffered stdout would hold it back indefinitely.
    std::fflush(stdout);
  }
  if (auto it = flags.find("stats-ms"); it != flags.end()) {
    const auto interval = parse_i64(it->second).value_or(0);
    if (interval <= 0) {
      std::fprintf(stderr, "janusd: bad --stats-ms '%s'\n",
                   it->second.c_str());
      return false;
    }
    stats_task = std::make_unique<PeriodicTask>(
        millis(interval), [&registry] {
          JLOG_INFO("stats: %s", format_stats_line(registry).c_str());
        });
  }
  if (auto it = flags.find("trace-dump"); it != flags.end()) {
    if (it->second.empty()) {
      std::fprintf(stderr, "janusd: --trace-dump needs a path\n");
      return false;
    }
    // One-shot: the next chaos fault fire or watchdog-detected stall dumps
    // the flight-recorder rings here as Perfetto JSON (DESIGN.md §10).
    FlightRecorder::instance().set_auto_dump_path(it->second);
    std::printf("janusd: %s trace auto-dump armed -> %s\n", role,
                it->second.c_str());
  }
  return true;
}

/// Cluster member spec: "udpip:port[/clusterip:port[/bfdip:port]]" — the
/// control-plane and BFD fields may be empty or omitted.
Result<cluster::MemberSpec> parse_member_spec(std::string_view text,
                                              std::string name) {
  auto fields = split(text, '/');
  if (fields.empty() || fields.size() > 3) {
    return Error("bad member spec: " + std::string(text));
  }
  cluster::MemberSpec spec;
  spec.member.name = std::move(name);
  auto udp = parse_addr(std::string(fields[0]));
  if (!udp.ok()) return Error(udp.error().message);
  spec.member.udp_addr = udp.value();
  spec.member.cluster_addr = net::SockAddr{"0.0.0.0", 0};
  if (fields.size() >= 2 && !fields[1].empty()) {
    auto addr = parse_addr(std::string(fields[1]));
    if (!addr.ok()) return Error(addr.error().message);
    spec.member.cluster_addr = addr.value();
  }
  if (fields.size() >= 3 && !fields[2].empty()) {
    auto addr = parse_addr(std::string(fields[2]));
    if (!addr.ok()) return Error(addr.error().message);
    spec.bfd_addr = addr.value();
  }
  return spec;
}

int run_server(const std::map<std::string, std::string>& flags) {
  auto listen_it = flags.find("listen");
  auto rules_it = flags.find("rules");
  if (listen_it == flags.end() || rules_it == flags.end()) {
    std::fprintf(stderr, "janusd server: --listen and --rules required\n");
    return 2;
  }
  auto listen = parse_addr(listen_it->second);
  if (!listen.ok()) {
    std::fprintf(stderr, "janusd: %s\n", listen.error().message.c_str());
    return 2;
  }

  db::Database database;
  db::RuleStore store(database);
  if (auto it = flags.find("wal"); it != flags.end()) {
    if (auto n = database.recover(it->second); !n.ok()) {
      std::fprintf(stderr, "janusd: WAL recovery: %s\n",
                   n.error().message.c_str());
      return 1;
    }
    if (auto s = database.enable_wal(it->second); !s.ok()) {
      std::fprintf(stderr, "janusd: %s\n", s.error().message.c_str());
      return 1;
    }
  }
  // After WAL recovery: unchanged rules keep their check-pointed credit.
  if (auto s = db::load_rules_file(store, rules_it->second); !s.ok()) {
    std::fprintf(stderr, "janusd: %s\n", s.error().message.c_str());
    return 1;
  }

  auto get_int = [&](const char* name, std::int64_t fallback) {
    auto it = flags.find(name);
    if (it == flags.end()) return fallback;
    return parse_i64(it->second).value_or(fallback);
  };
  auto get_double = [&](const char* name, double fallback) {
    auto it = flags.find(name);
    if (it == flags.end()) return fallback;
    return parse_double(it->second).value_or(fallback);
  };

  server::QosServerConfig cfg;
  cfg.worker_threads = static_cast<std::size_t>(get_int("workers", 4));
  cfg.admission.table_shards =
      static_cast<std::size_t>(get_int("shards", 16));
  if (auto it = flags.find("data-path"); it != flags.end()) {
    auto path = net::UdpSocket::data_path_from_name(it->second);
    if (!path) {
      std::fprintf(stderr,
                   "janusd: --data-path must be auto, fallback or mmsg "
                   "(got '%s')\n",
                   it->second.c_str());
      return 2;
    }
    cfg.data_path = *path;
  }
  cfg.sync_interval = millis(get_int("sync-ms", 5000));
  cfg.checkpoint_interval = millis(get_int("checkpoint-ms", 5000));
  const double default_rate = get_double("default-rate", 0.0);
  const double default_capacity = get_double("default-capacity", 0.0);
  cfg.admission.default_rule =
      core::limited_access_default(default_capacity, default_rate);

  auto node = server::QosServerNode::start(listen.value(), store, cfg);
  if (!node.ok()) {
    std::fprintf(stderr, "janusd: %s\n", node.error().message.c_str());
    return 1;
  }
  std::printf("janusd: QoS server on %s (%zu rules, %zu workers, "
              "data-path %s)\n",
              node.value()->addr().to_string().c_str(), store.size(),
              cfg.worker_threads,
              net::UdpSocket::data_path_name(
                  node.value()->resolved_data_path()));
  // Flushed line-by-line: cluster test fixtures parse bound ports from a
  // pipe, where stdout is block-buffered by default.
  std::fflush(stdout);

  std::unique_ptr<PeriodicTask> stats_task;
  server::QosServerNode& srv = *node.value();
  if (!setup_observability(
          flags, "QoS server", srv.metrics(),
          [&srv](const net::SockAddr& a) {
            return srv.start_admin(a, "server@" + srv.addr().to_string());
          },
          stats_task)) {
    return 2;
  }

  // Cluster-mode companions: the HA snapshot master/replica threads, the
  // control-plane agent, and the BFD liveness responder (DESIGN.md §11).
  // HA comes first so the agent's promotion hook can capture the replica.
  std::unique_ptr<server::HaSnapshotServer> ha_server;
  std::unique_ptr<server::HaReplicaClient> ha_replica;
  if (auto it = flags.find("ha-listen"); it != flags.end()) {
    auto addr = parse_addr(it->second);
    if (!addr.ok()) {
      std::fprintf(stderr, "janusd: --ha-listen: %s\n",
                   addr.error().message.c_str());
      return 2;
    }
    auto ha = server::HaSnapshotServer::start(addr.value(), srv.admission());
    if (!ha.ok()) {
      std::fprintf(stderr, "janusd: ha server: %s\n",
                   ha.error().message.c_str());
      return 1;
    }
    ha_server = std::move(ha).take();
    std::printf("janusd: ha snapshot server on %s\n",
                ha_server->addr().to_string().c_str());
  }
  if (auto it = flags.find("ha-master"); it != flags.end()) {
    auto addr = parse_addr(it->second);
    if (!addr.ok()) {
      std::fprintf(stderr, "janusd: --ha-master: %s\n",
                   addr.error().message.c_str());
      return 2;
    }
    ha_replica = std::make_unique<server::HaReplicaClient>(
        addr.value(), srv.admission(), SteadyClock::instance(),
        millis(get_int("ha-ms", 500)));
    std::printf("janusd: ha replica pulling from %s\n",
                it->second.c_str());
  }
  std::unique_ptr<server::ClusterAgent> cluster_agent;
  if (auto it = flags.find("cluster-listen"); it != flags.end()) {
    auto addr = parse_addr(it->second);
    if (!addr.ok()) {
      std::fprintf(stderr, "janusd: --cluster-listen: %s\n",
                   addr.error().message.c_str());
      return 2;
    }
    server::ClusterAgentOptions copts;
    copts.migrate_window = millis(get_int("migrate-window-ms", 250));
    // Promotion to active member halts snapshot restores from the old
    // master: a partitioned-but-alive master would otherwise keep handing
    // this node pre-failover credit, double-spending it (split brain).
    copts.on_promoted = [&ha_replica] {
      if (!ha_replica) return;
      ha_replica->stop();
      std::printf("janusd: ha replica stopped (promoted to active)\n");
      std::fflush(stdout);
    };
    auto agent = server::ClusterAgent::start(addr.value(), srv, copts);
    if (!agent.ok()) {
      std::fprintf(stderr, "janusd: cluster agent: %s\n",
                   agent.error().message.c_str());
      return 1;
    }
    cluster_agent = std::move(agent).take();
    std::printf("janusd: cluster agent on %s\n",
                cluster_agent->local_addr().to_string().c_str());
  }
  std::unique_ptr<net::BfdResponder> bfd;
  if (auto it = flags.find("bfd-listen"); it != flags.end()) {
    auto addr = parse_addr(it->second);
    if (!addr.ok()) {
      std::fprintf(stderr, "janusd: --bfd-listen: %s\n",
                   addr.error().message.c_str());
      return 2;
    }
    auto responder = net::BfdResponder::start(
        net::BfdResponder::Options{.listen = addr.value(),
                                   .timers = net::BfdTimers{},
                                   .local_disc = 2},
        SteadyClock::instance());
    if (!responder.ok()) {
      std::fprintf(stderr, "janusd: bfd responder: %s\n",
                   responder.error().message.c_str());
      return 1;
    }
    bfd = std::move(responder).take();
    std::printf("janusd: bfd responder on %s\n",
                bfd->local_addr().to_string().c_str());
  }
  std::fflush(stdout);

  // Optional WAL compaction: periodic snapshot + log truncation, so the
  // check-point churn does not grow the WAL without bound.
  std::unique_ptr<PeriodicTask> compactor;
  if (auto snap = flags.find("snapshot");
      snap != flags.end() && flags.count("wal")) {
    const std::string snap_path = snap->second;
    const auto compact_every = millis(get_int("compact-ms", 60000));
    compactor = std::make_unique<PeriodicTask>(
        compact_every, [&database, snap_path] {
          if (auto s = database.compact_wal(snap_path); !s.ok()) {
            JLOG_WARN("compaction failed: %s", s.error().message.c_str());
          }
        });
  }

  wait_for_stop_signal();
  std::printf("janusd: stopping\n");
  if (stats_task) stats_task->stop();
  if (compactor) compactor->stop();
  // The agent migrates entries in and out of the node's table, so it stops
  // before the node does.
  if (cluster_agent) cluster_agent->stop();
  if (bfd) bfd->stop();
  if (ha_replica) ha_replica->stop();
  if (ha_server) ha_server->stop();
  node.value()->checkpoint_now();
  return 0;
}

int run_router(const std::map<std::string, std::string>& flags) {
  const bool cluster_mode = flags.count("cluster") > 0;
  auto listen_it = flags.find("listen");
  auto backends_it = flags.find("backends");
  auto members_it = flags.find("members");
  if (listen_it == flags.end() ||
      (!cluster_mode && backends_it == flags.end()) ||
      (cluster_mode && members_it == flags.end())) {
    std::fprintf(stderr,
                 "janusd router: --listen and --backends (or --cluster "
                 "--members) required\n");
    return 2;
  }
  auto listen = parse_addr(listen_it->second);
  if (!listen.ok()) {
    std::fprintf(stderr, "janusd: %s\n", listen.error().message.c_str());
    return 2;
  }

  auto get_int = [&](const char* name, std::int64_t fallback) {
    auto it = flags.find(name);
    if (it == flags.end()) return fallback;
    return parse_i64(it->second).value_or(fallback);
  };

  auto resolver = std::make_shared<router::StaticResolver>();
  std::vector<std::string> names;
  std::vector<cluster::MemberSpec> member_specs;
  if (cluster_mode) {
    for (auto part : split(members_it->second, ',')) {
      auto spec = parse_member_spec(part,
                                    "qos-" + std::to_string(names.size()));
      if (!spec.ok()) {
        std::fprintf(stderr, "janusd: --members: %s\n",
                     spec.error().message.c_str());
        return 2;
      }
      resolver->add(spec.value().member.name, spec.value().member.udp_addr);
      names.push_back(spec.value().member.name);
      member_specs.push_back(std::move(spec).take());
    }
    if (auto it = flags.find("standbys"); it != flags.end()) {
      std::size_t slot = 0;
      for (auto part : split(it->second, ',')) {
        if (slot >= member_specs.size()) {
          std::fprintf(stderr, "janusd: more --standbys than --members\n");
          return 2;
        }
        if (part != "-" && !part.empty()) {
          auto standby = parse_member_spec(
              part, member_specs[slot].member.name + "-standby");
          if (!standby.ok()) {
            std::fprintf(stderr, "janusd: --standbys: %s\n",
                         standby.error().message.c_str());
            return 2;
          }
          member_specs[slot].standby = standby.value().member;
          member_specs[slot].standby_bfd_addr = standby.value().bfd_addr;
        }
        ++slot;
      }
    }
  } else {
    for (auto part : split(backends_it->second, ',')) {
      auto addr = parse_addr(std::string(part));
      if (!addr.ok()) {
        std::fprintf(stderr, "janusd: %s\n", addr.error().message.c_str());
        return 2;
      }
      std::string name = "backend-" + std::to_string(names.size());
      resolver->add(name, addr.value());
      names.push_back(std::move(name));
    }
  }

  router::RouterConfig cfg;
  if (auto it = flags.find("timeout-us"); it != flags.end()) {
    cfg.udp.timeout = micros(parse_i64(it->second).value_or(100));
  }
  if (auto it = flags.find("retries"); it != flags.end()) {
    cfg.udp.max_retries =
        static_cast<int>(parse_i64(it->second).value_or(5));
  }
  cfg.udp.default_allow = flags.count("default-allow") > 0;

  // Declared before the router node so the map holder outlives it (the
  // router snapshots it on every dispatch).
  cluster::ShardMapHolder holder;

  auto node = router::RouterNode::start(listen.value(), names, resolver, cfg);
  if (!node.ok()) {
    std::fprintf(stderr, "janusd: %s\n", node.error().message.c_str());
    return 1;
  }
  std::printf("janusd: request router on %s (%zu backends)\n",
              node.value()->addr().to_string().c_str(), names.size());
  std::fflush(stdout);

  std::unique_ptr<PeriodicTask> stats_task;
  router::RouterNode& rn = *node.value();
  if (!setup_observability(
          flags, "request router", rn.metrics(),
          [&rn](const net::SockAddr& a) {
            return rn.start_admin(a, "router@" + rn.addr().to_string());
          },
          stats_task)) {
    return 2;
  }

  // Embedded cluster coordinator (DESIGN.md §11.2): bootstraps the epoch-1
  // map, publishes it to every member's control port, and probes the
  // members over BFD so a dead master's standby is promoted in
  // detect_multiplier x tx_interval.
  std::unique_ptr<cluster::ClusterCoordinator> coordinator;
  if (cluster_mode) {
    cluster::CoordinatorOptions copts;
    copts.bfd.tx_interval = millis(get_int("bfd-ms", 50));
    copts.bfd.detect_multiplier =
        static_cast<std::uint8_t>(get_int("bfd-mult", 3));
    copts.metrics = &rn.metrics();
    coordinator = std::make_unique<cluster::ClusterCoordinator>(
        holder, copts, SteadyClock::instance());
    auto epoch = coordinator->bootstrap(std::move(member_specs));
    if (!epoch.ok()) {
      std::fprintf(stderr, "janusd: cluster bootstrap: %s\n",
                   epoch.error().message.c_str());
      return 1;
    }
    rn.attach_shard_map(&holder);
    std::printf("janusd: cluster epoch %llu (%zu members)\n",
                static_cast<unsigned long long>(epoch.value()), names.size());
    std::fflush(stdout);
  }

  wait_for_stop_signal();
  std::printf("janusd: stopping\n");
  if (stats_task) stats_task->stop();
  if (coordinator) coordinator->stop();
  return 0;
}

int run_gateway(const std::map<std::string, std::string>& flags) {
  auto listen_it = flags.find("listen");
  auto backends_it = flags.find("backends");
  if (listen_it == flags.end() || backends_it == flags.end()) {
    std::fprintf(stderr,
                 "janusd gateway: --listen and --backends required\n");
    return 2;
  }
  auto listen = parse_addr(listen_it->second);
  if (!listen.ok()) {
    std::fprintf(stderr, "janusd: %s\n", listen.error().message.c_str());
    return 2;
  }
  std::vector<net::SockAddr> backends;
  for (auto part : split(backends_it->second, ',')) {
    auto addr = parse_addr(std::string(part));
    if (!addr.ok()) {
      std::fprintf(stderr, "janusd: %s\n", addr.error().message.c_str());
      return 2;
    }
    backends.push_back(addr.value());
  }
  if (backends.empty()) {
    std::fprintf(stderr, "janusd gateway: --backends is empty\n");
    return 2;
  }

  auto get_int = [&](const char* name, std::int64_t fallback) {
    auto it = flags.find(name);
    if (it == flags.end()) return fallback;
    return parse_i64(it->second).value_or(fallback);
  };

  lb::GatewayConfig cfg;
  if (auto it = flags.find("policy"); it != flags.end()) {
    auto policy = lb::routing_policy_from_name(it->second);
    if (!policy) {
      std::fprintf(stderr, "janusd: bad --policy '%s'\n", it->second.c_str());
      return 2;
    }
    cfg.policy = *policy;
  }
  cfg.backend_timeout = millis(get_int("timeout-ms", 1000));
  cfg.http_workers = static_cast<std::size_t>(get_int("workers", 4));
  cfg.prequal.probe_interval = millis(get_int("probe-ms", 5));
  cfg.prequal.max_probe_age = millis(get_int("probe-age-ms", 250));
  cfg.prequal.probe_reuse_budget =
      static_cast<std::size_t>(get_int("probe-reuse", 16));
  cfg.prequal.d_choices = static_cast<std::size_t>(get_int("probe-d", 3));
  cfg.prequal.probe_timeout = millis(get_int("probe-timeout-ms", 50));

  auto gw = lb::GatewayBalancer::start(listen.value(), std::move(backends),
                                       cfg);
  if (!gw.ok()) {
    std::fprintf(stderr, "janusd: %s\n", gw.error().message.c_str());
    return 1;
  }
  lb::GatewayBalancer& g = *gw.value();
  std::printf("janusd: gateway balancer on %s (%zu backends, policy %s)\n",
              g.addr().to_string().c_str(), g.per_backend_counts().size(),
              std::string(lb::routing_policy_name(g.config().policy))
                  .c_str());
  std::fflush(stdout);

  std::unique_ptr<PeriodicTask> stats_task;
  if (!setup_observability(
          flags, "gateway", g.metrics(),
          [&g](const net::SockAddr& a) {
            return g.start_admin(a, "gateway@" + g.addr().to_string());
          },
          stats_task)) {
    return 2;
  }

  wait_for_stop_signal();
  std::printf("janusd: stopping\n");
  if (stats_task) stats_task->stop();
  g.stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Logger::instance().set_level(LogLevel::kInfo);
  install_stop_signals();

  if (argc < 2) {
    std::fprintf(stderr, "usage: janusd <server|router|gateway> --flags...\n");
    return 2;
  }
  struct Role {
    const char* name;
    const FlagSet& flags;
    int (*run)(const std::map<std::string, std::string>&);
  };
  const Role roles[] = {{"server", kServerFlags, run_server},
                        {"router", kRouterFlags, run_router},
                        {"gateway", kGatewayFlags, run_gateway}};
  for (const Role& role : roles) {
    if (std::strcmp(argv[1], role.name) != 0) continue;
    std::map<std::string, std::string> flags;
    if (!parse_flags(argc, argv, 2, role.name, role.flags, flags)) return 2;
    return role.run(flags);
  }
  std::fprintf(stderr, "janusd: unknown role '%s'\n", argv[1]);
  return 2;
}
