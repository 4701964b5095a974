// A QoS server node (paper §III-C): "the major components include (a) the
// local QoS table, (b) the UDP listener thread, (c) the worker threads, and
// (d) high-availability and system maintenance threads." Here the listener
// thread and its FIFO are folded into the kernel: the socket's receive
// queue is the FIFO and the workers read it directly (DESIGN.md §9.1).
//
//     socket ──> N workers blocked in recvmmsg (one woken per datagram)
//     any worker decides any key under the key's shard mutex ──> sendmmsg
//
// Workers answer over the same socket the requests arrive on; the server
// never tracks whether a response arrived — the router retries (§III-B).
//
// Concurrency model (DESIGN.md §8): the node itself holds no locks. Shared
// state lives behind the annotated sync layer of its parts — the table's
// `core.qos_shard` shards, the periodic threads' `common.periodic` — plus
// atomics for the stop flag and counters. Maintenance (refill, sync,
// checkpoint), HA snapshots and cluster migration all take the same shard
// locks the workers do.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/shard_map.hpp"
#include "common/clock.hpp"
#include "common/hot_path.hpp"
#include "common/metrics.hpp"
#include "common/periodic.hpp"
#include "core/admission.hpp"
#include "core/db_rule_adapter.hpp"
#include "db/rule_store.hpp"
#include "net/admin_server.hpp"
#include "net/socket.hpp"
#include "wire/cluster_codec.hpp"

namespace janus::server {

struct QosServerConfig {
  std::size_t worker_threads = 4;  // "N equals the number of vCPUs" (§III-C)
  /// Max requests a worker takes per wakeup (one recvmmsg); its replies go
  /// out in one sendmmsg. Clamped to UdpSocket::kMaxBatch. 1 = per-datagram
  /// syscalls.
  std::size_t send_batch = 32;
  core::AdmissionConfig admission;
  /// Maintenance intervals; <= 0 disables the corresponding thread.
  Duration refill_interval = millis(10);     // only used in kPeriodic mode
  Duration sync_interval = seconds(5);       // "configurable update interval"
  Duration checkpoint_interval = seconds(5); // "configurable update interval"
  /// Stalled-worker watchdog tick; <= 0 disables it. A worker with queued
  /// work and no progress across two consecutive ticks counts a
  /// server.watchdog_stalls, records a flight-recorder event, and fires the
  /// one-shot trace auto-dump (if armed).
  Duration watchdog_interval = seconds(1);
  /// Slow-request exemplar threshold (µs) for the server's queue-wait and
  /// service histograms; < 0 disables exemplar capture.
  std::int64_t slow_exemplar_us = 5000;
  /// Batched-I/O provider for the listen socket (janusd --data-path,
  /// DESIGN.md §13); server.data_path reports what actually runs.
  net::UdpSocket::DataPath data_path = net::UdpSocket::DataPath::kAuto;
};

class QosServerNode {
 public:
  /// Binds the UDP endpoint and starts all threads. `store` (the database
  /// layer) must outlive the node. The config is validated first:
  /// worker_threads == 0 and table_shards == 0 are rejected, the batch size
  /// is clamped to a sane range.
  static Result<std::unique_ptr<QosServerNode>> start(
      const net::SockAddr& listen, db::RuleStore& store,
      QosServerConfig config = {});

  /// The validation start() applies, exposed for tests: returns the
  /// clamped config or the error that start() would surface.
  static Result<QosServerConfig> validate_config(QosServerConfig config);

  ~QosServerNode();
  QosServerNode(const QosServerNode&) = delete;
  QosServerNode& operator=(const QosServerNode&) = delete;

  net::SockAddr addr() const { return addr_; }
  /// Provider the listen socket actually runs (post-probe; DESIGN.md §13).
  net::UdpSocket::DataPath resolved_data_path() const {
    return socket_.resolved_data_path();
  }
  core::AdmissionController& admission() { return *admission_; }
  MetricsRegistry& metrics() { return metrics_; }
  const QosServerConfig& config() const { return config_; }

  /// Mount the admin/observability HTTP endpoint (/metrics, /healthz,
  /// /statusz) — the QoS server's only HTTP surface. Returns the bound
  /// address.
  Result<net::SockAddr> start_admin(const net::SockAddr& addr,
                                    std::string node_name = "server");

  /// Prequal probe mirror (DESIGN.md §14): datagrams read from the socket
  /// but not yet answered, shed or deferred — the UDP tier's
  /// requests-in-flight, served as a `"probe"` row on /statusz. Derived
  /// from the existing counters so the decision path pays nothing for it.
  std::int64_t requests_in_flight() const;

  /// One maintenance pass under the shard locks; the periodic threads call
  /// these, and tests call them to avoid waiting on wall-clock.
  void sync_now();
  void checkpoint_now();

  // ---- cluster runtime hooks (DESIGN.md §11, driven by ClusterAgent) -------
  //
  // The warm-path contract: when the node is not in cluster mode
  // (cluster_epoch_ == 0 and every inbound frame carries epoch 0) the whole
  // feature costs one predictable branch per request and zero allocations
  // (tests/perf/test_hotpath_allocs.cpp pins this). In cluster mode a frame
  // stamped with a stale epoch is NACKed with kStaleEpoch + the current
  // epoch instead of being decided against the wrong partition.

  /// Flip the node's cluster epoch. Called by the ClusterAgent the moment an
  /// EpochUpdate lands — BEFORE any migration work, so stale frames start
  /// bouncing immediately.
  void set_cluster_epoch(std::uint64_t epoch);
  std::uint64_t cluster_epoch() const {
    return cluster_epoch_.load(std::memory_order_acquire);
  }

  /// Open the inbound-migration window: until it elapses, current-epoch
  /// requests for keys NOT yet in the local table are silently dropped
  /// (server.cluster_deferred) instead of first-touch-created — admitting
  /// against a fresh default bucket while the old owner's bucket is still in
  /// flight is exactly the double-spend resharding must prevent. The router
  /// retry covers the dropped requests. The window self-closes on the warm
  /// path (one clock read, only while the window is open).
  void open_migration_window(Duration window);

  /// Remove every entry whose owner under `map` is not `self_index` and
  /// return them grouped by new owner index (entries[i] -> map.members[i]).
  /// Pass wire::kNotAMember to extract everything (this node is leaving).
  /// Runs under the shard locks, beside the live workers.
  std::vector<std::vector<wire::MigrationEntry>> extract_disowned(
      const cluster::ShardMap& map, std::size_t self_index);

  /// Install entries streamed from an old owner (MigrationBatch). Existing
  /// entries are overwritten — the migrated credit is authoritative.
  std::size_t install_migrated(const std::vector<wire::MigrationEntry>& entries);

  std::uint64_t migrated_in() const {
    return migrated_in_count_.load(std::memory_order_relaxed);
  }
  std::uint64_t migrated_out() const {
    return migrated_out_count_.load(std::memory_order_relaxed);
  }
  std::uint64_t stale_epoch_nacks() const {
    return stale_nacks_count_.load(std::memory_order_relaxed);
  }

  void stop();

 private:
  QosServerNode(net::UdpSocket socket, net::SockAddr addr,
                db::RuleStore& store, QosServerConfig config);

  static constexpr std::uint64_t kTimingSampleShift = 3;  // 1-in-8

  /// What run_jobs consumes: a borrowed view of one request straight over
  /// the worker's RecvBatch slot — no per-datagram heap copy exists at all.
  /// Only sampled datagrams (sample_clock) carry a receive timestamp; the
  /// rest stay kTimeZero, so the latency histograms cost unsampled requests
  /// one branch.
  struct JobView {
    std::span<const std::uint8_t> data;
    const net::SockAddr* from = nullptr;
    TimePoint enqueued{kTimeZero};
  };

  /// Reused per-worker reply scratch: encoded frames, sendmmsg descriptors,
  /// and the per-job bookkeeping for timing records that happen after the
  /// batch flush. Sized once; warm batches allocate nothing new.
  struct ReplyBuffers {
    explicit ReplyBuffers(std::size_t batch);
    std::vector<std::vector<std::uint8_t>> outs;
    std::vector<net::UdpSocket::OutDatagram> replies;
    std::vector<TimePoint> dequeued_at;
    std::vector<std::int64_t> wait_us;
    // Per-job key/trace views for the service exemplar. They alias the
    // worker's receive slots, which outlive run_jobs.
    std::vector<std::string_view> keys;
    std::vector<std::string_view> traces;
  };

  JANUS_HOT_PATH_IO void worker_loop();

  /// Process one batch of request views: decode, decide under the shard
  /// locks, record timings, flush all replies in one batched send.
  JANUS_HOT_PATH_LOCKS void run_jobs(std::span<const JobView> jobs,
                                     ReplyBuffers& buf);

  /// Enqueue stamp for datagram `i` of a batch read when server.received
  /// stood at `first`: now() for 1 in 2^kTimingSampleShift arrivals (exact
  /// whichever thread reads), kTimeZero for the rest.
  static TimePoint sample_clock(std::int64_t first, std::size_t i);

  /// True when the migration window is open and `key` is not yet locally
  /// present — the request must be deferred (dropped) until its bucket
  /// arrives or the window elapses.
  bool defer_for_migration(std::string_view key);
  /// ",\"cluster\":{...}" /statusz fragment (empty outside cluster mode).
  std::string render_cluster_statusz() const;

  /// One watchdog tick (PeriodicTask): flags a receive queue with backlog
  /// but no answered request since the previous tick.
  void watchdog_pass();
  /// Publish the delta of the socket's monotonic drop counter into
  /// server.rx_dropped. Runs on the watchdog tick and
  /// once at stop() (no tick races stop(): the periodic tasks are joined
  /// first).
  void publish_socket_stats();
  /// Refresh server.db_rules / server.db_bytes from the rules table. Runs
  /// at construction and on every watchdog tick.
  void publish_db_stats();
  /// Hot-key top-k rendered as extra Prometheus families for /metrics.
  std::string render_hot_key_metrics(const std::string& node) const;
  /// Hot-key top-k rendered as a ",\"hot_keys\":..." /statusz fragment.
  std::string render_hot_key_statusz() const;

  QosServerConfig config_;
  net::UdpSocket socket_;
  net::SockAddr addr_;
  db::RuleStore& store_;
  core::DbRuleSource source_;
  core::DbRuleSink sink_;
  std::unique_ptr<core::AdmissionController> admission_;

  MetricsRegistry metrics_;
  Counter& received_;
  Counter& answered_;
  Counter& malformed_;
  Counter& rx_dropped_;        // server.rx_dropped (kernel queue)
  Counter& watchdog_stalls_;   // server.watchdog_stalls
  HistogramMetric& queue_wait_us_;
  HistogramMetric& service_us_;
  Exemplar& queue_wait_exemplar_;  // slowest-sample trace/key, /statusz
  Exemplar& service_exemplar_;
  // Batch-size distributions: mean(server.recv_batch) is the direct
  // syscalls-amortized signal (datagrams per worker wakeup); likewise
  // server.send_batch for worker reply bursts.
  HistogramMetric& recv_batch_size_;
  HistogramMetric& send_batch_size_;
  /// Resolved provider (UdpSocket::DataPath numeric): 1 fallback, 2 mmsg.
  Gauge& data_path_gauge_;
  Counter& stale_nacks_;       // server.stale_epoch_nacks
  Counter& cluster_deferred_;  // server.cluster_deferred (migration window)
  Counter& migrated_in_;       // server.migrated_in (entries)
  Counter& migrated_out_;      // server.migrated_out (entries)
  Gauge& cluster_epoch_gauge_; // server.cluster_epoch
  Gauge& db_rules_;            // server.db_rules (qos_rules rows)
  Gauge& db_bytes_;            // server.db_bytes (qos_rules layout bytes)

  // Watchdog bookkeeping; touched only from the watchdog's PeriodicTask
  // thread, so plain fields suffice. A stall is flagged only after TWO
  // consecutive backlog-with-no-answer ticks (strikes): one tick can sample
  // a backlog that arrived just before it.
  std::uint64_t watchdog_last_answered_ = 0;
  std::uint8_t watchdog_answered_strikes_ = 0;
  /// Last-published socket drop counter (watchdog thread + stop() only,
  /// which never overlap — the periodic tasks are joined before stop()
  /// publishes the final delta).
  std::uint64_t rx_dropped_last_ = 0;

  /// 0 = cluster mode off (every epoch check short-circuits on the first
  /// operand). Set only by the ClusterAgent under its own serialization.
  std::atomic<std::uint64_t> cluster_epoch_{0};
  /// Steady-clock ns deadline of the inbound-migration window; 0 = closed.
  std::atomic<std::int64_t> migrate_window_until_{0};
  std::atomic<std::uint64_t> migrated_in_count_{0};
  std::atomic<std::uint64_t> migrated_out_count_{0};
  std::atomic<std::uint64_t> stale_nacks_count_{0};

  std::atomic<bool> stopping_{false};
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<PeriodicTask>> maintenance_;
  std::unique_ptr<net::AdminServer> admin_;
};

}  // namespace janus::server
