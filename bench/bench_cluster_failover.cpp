// Cluster failover latency + clustered decision throughput (DESIGN.md §11,
// EXPERIMENTS.md "PR7 — failover latency"). Two measurements, JSON on
// stdout for tools/run_bench_suite.sh to fold into BENCH_PR7.json:
//
//   * failover rounds: a master with a BFD responder plus a cold standby at
//     the same slot, probed by the coordinator at 20ms x 3. Each round
//     silences the master's responder (what a SIGKILL looks like to the
//     prober), then measures wall clock until a decision SUCCEEDS on the
//     promoted standby at the new epoch — detection + promotion + publish +
//     agent flip + first admitted request, the full client-visible outage.
//     Acceptance: P99 under 1000 ms (the paper's DNS-TTL failover is tens
//     of seconds; the BFD path should land in hundreds of milliseconds).
//
//   * clustered throughput: a two-member map, four client threads spending
//     v3-stamped requests round-robin over 16 keys through the shard map —
//     decisions/sec with the epoch gate in the hot path.
//
// Everything is in-process (real sockets, real agents, real coordinator) so
// the bench runs anywhere the unit tests do, with no forked janusd to leak.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.hpp"
#include "cluster/shard_map.hpp"
#include "db/rule_store.hpp"
#include "net/bfd.hpp"
#include "router/udp_qos_client.hpp"
#include "server/cluster_agent.hpp"
#include "server/qos_server_node.hpp"

namespace janus {
namespace {

using WallClock = std::chrono::steady_clock;

constexpr int kFailoverRounds = 12;
constexpr int kThroughputThreads = 4;
constexpr int kCallsPerThread = 4000;
const net::BfdTimers kBfdTimers{.tx_interval = millis(20),
                                .detect_multiplier = 3};

struct Node {
  std::unique_ptr<server::QosServerNode> node;
  std::unique_ptr<server::ClusterAgent> agent;

  static Node start(db::RuleStore& store) {
    server::QosServerConfig cfg;
    cfg.worker_threads = 2;
    cfg.sync_interval = Duration{0};
    cfg.checkpoint_interval = Duration{0};
    auto node = server::QosServerNode::start({"127.0.0.1", 0}, store, cfg);
    if (!node.ok()) {
      std::fprintf(stderr, "bench: node start: %s\n",
                   node.error().message.c_str());
      std::exit(1);
    }
    Node out;
    out.node = std::move(node).take();
    auto agent = server::ClusterAgent::start({"127.0.0.1", 0}, *out.node);
    if (!agent.ok()) {
      std::fprintf(stderr, "bench: agent start: %s\n",
                   agent.error().message.c_str());
      std::exit(1);
    }
    out.agent = std::move(agent).take();
    return out;
  }

  cluster::Member member(const std::string& name) const {
    return {.name = name,
            .udp_addr = node->addr(),
            .cluster_addr = agent->local_addr()};
  }

  void shutdown() {
    if (agent) agent->stop();
    if (node) node->stop();
  }
};

wire::QosResponse call(const net::SockAddr& addr, const std::string& key,
                       std::uint64_t epoch, Duration timeout = millis(100)) {
  router::UdpClientConfig cfg;
  cfg.timeout = timeout;
  cfg.max_retries = 1;
  router::UdpQosClient client(cfg);
  wire::QosRequest req;
  req.key = key;
  req.cost = 1;
  req.epoch = epoch;
  auto resp = client.call(addr, req);
  return resp.ok() ? resp.value() : wire::QosResponse{};
}

void provision(db::RuleStore& store, int keys) {
  for (int i = 0; i < keys; ++i) {
    auto st = store.put({.key = "t-" + std::to_string(i),
                         .refill_per_sec = 1e9,
                         .capacity = 1e9,
                         .credit = 1e9});
    if (!st.ok()) std::exit(1);
  }
}

/// One kill -> first-standby-decision round; returns latency in ms, or a
/// negative value when the standby never answered inside the budget.
double failover_round() {
  db::Database db;
  db::RuleStore store(db);
  provision(store, 4);

  Node master = Node::start(store);
  Node standby = Node::start(store);
  auto responder = net::BfdResponder::start(
      {.listen = {"127.0.0.1", 0}, .timers = kBfdTimers},
      SteadyClock::instance());
  if (!responder.ok()) std::exit(1);

  cluster::ShardMapHolder holder;
  cluster::CoordinatorOptions copts;
  copts.bfd = kBfdTimers;
  copts.enable_bfd = true;
  cluster::ClusterCoordinator coordinator(holder, copts,
                                          SteadyClock::instance());
  cluster::MemberSpec spec{
      .member = master.member("qos-0"),
      .bfd_addr = responder.value()->local_addr(),
      .standby = standby.member("qos-0"),
  };
  auto epoch = coordinator.bootstrap({spec});
  if (!epoch.ok()) std::exit(1);

  // Session established + data plane warm before the clock starts.
  const auto establish_deadline = WallClock::now() + std::chrono::seconds(5);
  while (coordinator.member_liveness(0) != net::BfdState::kUp) {
    if (WallClock::now() > establish_deadline) return -1.0;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!call(master.node->addr(), "t-0", epoch.value()).allowed) return -2.0;

  // The "kill": the master goes silent on its BFD port. (The node itself
  // keeps running — a stale NACK from a half-dead master must not confuse
  // the promoted path, which is exactly the hard case.)
  const auto t0 = WallClock::now();
  responder.value()->stop();

  double latency_ms = -3.0;
  const auto deadline = t0 + std::chrono::seconds(5);
  while (WallClock::now() < deadline) {
    const auto map = holder.snapshot();
    if (map && map->epoch > epoch.value()) {
      const auto resp =
          call(standby.node->addr(), "t-0", map->epoch, millis(50));
      if (resp.status == wire::ResponseStatus::kOk && resp.allowed) {
        latency_ms = std::chrono::duration<double, std::milli>(
                         WallClock::now() - t0)
                         .count();
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }

  coordinator.stop();
  standby.shutdown();
  master.shutdown();
  return latency_ms;
}

/// Two-member clustered decision throughput through the shard map.
double clustered_decisions_per_sec() {
  db::Database db;
  db::RuleStore store(db);
  provision(store, 16);

  Node a = Node::start(store);
  Node b = Node::start(store);
  cluster::ShardMapHolder holder;
  cluster::CoordinatorOptions copts;
  copts.enable_bfd = false;
  cluster::ClusterCoordinator coordinator(holder, copts,
                                          SteadyClock::instance());
  auto epoch = coordinator.bootstrap(
      {{.member = a.member("qos-0")}, {.member = b.member("qos-1")}});
  if (!epoch.ok()) std::exit(1);

  const auto map = holder.snapshot();
  std::atomic<std::uint64_t> ok{0};
  const auto t0 = WallClock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThroughputThreads; ++t) {
    threads.emplace_back([&, t] {
      router::UdpClientConfig cfg;
      cfg.timeout = millis(100);
      cfg.max_retries = 3;
      router::UdpQosClient client(cfg);
      for (int i = 0; i < kCallsPerThread; ++i) {
        const std::string key = "t-" + std::to_string((t * 7 + i) % 16);
        wire::QosRequest req;
        req.key = key;
        req.cost = 1;
        req.epoch = map->epoch;
        auto resp =
            client.call(map->members[map->owner_of(key)].udp_addr, req);
        if (resp.ok() && resp.value().status == wire::ResponseStatus::kOk) {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const double secs =
      std::chrono::duration<double>(WallClock::now() - t0).count();

  coordinator.stop();
  b.shutdown();
  a.shutdown();
  return secs > 0 ? static_cast<double>(ok.load()) / secs : 0.0;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return -1.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * (v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

}  // namespace
}  // namespace janus

int main() {
  using namespace janus;

  std::vector<double> rounds;
  int failures = 0;
  for (int i = 0; i < kFailoverRounds; ++i) {
    const double ms = failover_round();
    if (ms < 0) {
      ++failures;
      std::fprintf(stderr, "bench: failover round %d failed (%.0f)\n", i, ms);
      continue;
    }
    rounds.push_back(ms);
  }
  const double dps = clustered_decisions_per_sec();

  std::printf("{\n");
  std::printf("  \"bfd\": {\"tx_interval_ms\": %lld, \"detect_multiplier\": %u},\n",
              static_cast<long long>(to_millis(kBfdTimers.tx_interval)),
              kBfdTimers.detect_multiplier);
  std::printf("  \"failover_rounds\": %d,\n", kFailoverRounds);
  std::printf("  \"failover_failures\": %d,\n", failures);
  std::printf("  \"failover_round_ms\": [");
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    std::printf("%s%.2f", i ? ", " : "", rounds[i]);
  }
  std::printf("],\n");
  std::printf("  \"failover_p50_ms\": %.2f,\n", percentile(rounds, 0.5));
  std::printf("  \"failover_p99_ms\": %.2f,\n", percentile(rounds, 0.99));
  std::printf("  \"cluster_decisions_per_sec\": %.0f\n", dps);
  std::printf("}\n");
  return rounds.empty() ? 1 : 0;
}
