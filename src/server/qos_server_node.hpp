// A QoS server node (paper §III-C): "the major components include (a) the
// local QoS table, (b) the UDP listener thread, (c) the worker threads, and
// (d) high-availability and system maintenance threads."
//
// Two threading modes (core::ThreadingMode, DESIGN.md §9):
//
//   kSharedQueue (the paper's architecture; the kernel queue is the FIFO):
//     socket ──> N workers blocked in recvmmsg (one woken per datagram)
//     any worker decides any key under the key's shard mutex ──> sendmmsg
//
//   kShardPerWorker (shared-nothing thread-per-core):
//     UDP listener ──┬─> SPSC ring w0 ──> worker 0 (owns shards 0,N,2N..)
//                    ├─> SPSC ring w1 ──> worker 1 (owns shards 1,N+1,..)
//                    └─> ...                        each flushes sendmmsg
//     the listener hashes each key once, picks the owning worker from the
//     upper hash bits, and the decision runs with NO mutex at all via the
//     ShardOwnerToken accessors; refill/sync/checkpoint are *commands*
//     delivered on each worker's maintenance queue instead of locks taken
//     by the periodic threads.
//
// Workers answer over the same socket the requests arrive on; the server
// never tracks whether a response arrived — the router retries (§III-B).
//
// Concurrency model (DESIGN.md §8): the node itself holds no locks beyond
// the per-worker park mutex (`server.worker_park`, rank kWorkerPark) that
// guards only the idle/parked handshake. Shared state lives behind the
// annotated sync layer of its parts — the table's `core.qos_shard` shards
// (shared-queue mode only), the periodic threads' `common.periodic` — plus
// atomics for the stop flag and counters. In shard-per-worker mode a table
// shard is touched only by its
// owning worker: no thread may use the locked table accessors while the
// node runs (HA snapshot replication therefore pairs with kSharedQueue).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/shard_map.hpp"
#include "common/clock.hpp"
#include "common/hot_path.hpp"
#include "common/metrics.hpp"
#include "common/mpmc_queue.hpp"
#include "common/periodic.hpp"
#include "common/spsc_queue.hpp"
#include "common/sync.hpp"
#include "core/admission.hpp"
#include "core/db_rule_adapter.hpp"
#include "db/rule_store.hpp"
#include "net/admin_server.hpp"
#include "net/socket.hpp"
#include "wire/cluster_codec.hpp"

namespace janus::server {

struct QosServerConfig {
  std::size_t worker_threads = 4;  // "N equals the number of vCPUs" (§III-C)
  /// Shard-per-worker ring depth, split across workers (shared-queue mode
  /// queues in the kernel and sheds into server.rx_dropped).
  std::size_t fifo_capacity = 65536;
  /// Max datagrams the shard-per-worker listener drains per wakeup.
  /// Clamped to UdpSocket::kMaxBatch. 1 = per-datagram syscalls.
  std::size_t recv_batch = 32;
  /// Max requests a worker takes per wakeup; its replies go out in one
  /// sendmmsg. Clamped to UdpSocket::kMaxBatch. 1 = per-datagram syscalls.
  std::size_t send_batch = 32;
  /// Decision scheduling: the paper's shared FIFO or shared-nothing
  /// shard-per-worker (see file header). janusd --threading.
  core::ThreadingMode threading = core::ThreadingMode::kSharedQueue;
  core::AdmissionConfig admission;
  /// Maintenance intervals; <= 0 disables the corresponding thread.
  Duration refill_interval = millis(10);     // only used in kPeriodic mode
  Duration sync_interval = seconds(5);       // "configurable update interval"
  Duration checkpoint_interval = seconds(5); // "configurable update interval"
  /// Stalled-worker watchdog tick; <= 0 disables it. A worker with queued
  /// work and no progress across two consecutive ticks counts a
  /// server.watchdog_stalls, records a flight-recorder event, and fires the
  /// one-shot trace auto-dump (if armed). Two ticks, not one: the fused
  /// listener's bounded park (§13) can hold a just-pushed maintenance
  /// command for up to 5 ms without that being a stall.
  Duration watchdog_interval = seconds(1);
  /// Slow-request exemplar threshold (µs) for the server's queue-wait and
  /// service histograms; < 0 disables exemplar capture.
  std::int64_t slow_exemplar_us = 5000;
  /// Batched-I/O provider for the listen socket (janusd --data-path,
  /// DESIGN.md §13). kUring combined with kShardPerWorker activates the
  /// fused run-to-completion listener: the listener thread doubles as
  /// worker 0, deciding its own shards straight out of the receive batch
  /// (no SPSC hand-off, no per-datagram payload copy). Under kSharedQueue
  /// (the ring has one consumer) or a failed kernel probe the node degrades
  /// to the kAuto rules; server.data_path reports what actually runs.
  net::UdpSocket::DataPath data_path = net::UdpSocket::DataPath::kAuto;
  /// Pin shard-per-worker threads (and the fused listener) each to its own
  /// CPU, NUMA round-robin (cpu_pinning.hpp). Advisory: a refused
  /// sched_setaffinity logs and continues unpinned.
  bool pin_workers = false;
};

class QosServerNode {
 public:
  /// Binds the UDP endpoint and starts all threads. `store` (the database
  /// layer) must outlive the node. The config is validated first:
  /// worker_threads == 0 is rejected, batch sizes and fifo_capacity are
  /// clamped to sane ranges, and kShardPerWorker requires
  /// admission.table_shards >= worker_threads (so every worker owns at
  /// least one shard under the `shard % workers` remap).
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
  /// True when the fused run-to-completion listener is active.
  bool fused() const { return fused_; }
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

  /// Force one maintenance pass (tests; avoids waiting on wall-clock).
  /// In shard-per-worker mode this enqueues the command to every worker
  /// and waits for all of them to execute their slice.
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
  /// Honors the threading mode: shard-per-worker extraction rides each
  /// owner's maintenance queue; shared-queue uses the shard locks.
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

  /// Shard-per-worker hand-off: datagram plus its enqueue timestamp, so
  /// workers can attribute latency to queue wait vs. service time (the
  /// paper's §V saturation signature is exactly queue-wait growth), plus
  /// the key's hash so the worker never rehashes. Only sampled datagrams
  /// (sample_clock) are stamped; the rest stay kTimeZero, so the latency
  /// histograms cost unsampled requests one branch.
  struct Job {
    net::UdpSocket::Datagram dg;
    TimePoint enqueued{kTimeZero};
    std::size_t key_hash = 0;
  };
  static constexpr std::uint64_t kTimingSampleShift = 3;  // 1-in-8

  /// What run_jobs actually consumes: a borrowed view of one request, over
  /// a popped Job or straight over a RecvBatch slot (shared-queue workers,
  /// fused listener) — then no per-datagram heap copy exists at all.
  struct JobView {
    std::span<const std::uint8_t> data;
    const net::SockAddr* from = nullptr;
    TimePoint enqueued{kTimeZero};
    std::size_t key_hash = 0;
  };

  /// Maintenance command delivered on a worker's queue (shard-per-worker):
  /// the worker runs the pass over its own shards, then increments `done`
  /// so dispatchers can wait for the whole fleet. kClusterFn carries an
  /// arbitrary owner-token pass (migration extract/install) — the function
  /// object outlives the command because the dispatcher blocks on `done`.
  struct MaintCmd {
    enum class Kind : std::uint8_t { kRefill, kSync, kCheckpoint, kClusterFn };
    Kind kind = Kind::kRefill;
    std::atomic<std::size_t>* done = nullptr;
    const std::function<void(const core::ShardOwnerToken&)>* fn = nullptr;
  };

  /// Everything one shard-per-worker worker owns. The park handshake: the
  /// worker sets `parked` under `park_mu` before sleeping; the listener
  /// (and maintenance dispatchers) only take the mutex when they observe
  /// parked == true. The bounded cv wait is the lost-wakeup backstop.
  struct WorkerState {
    WorkerState(std::size_t job_capacity, core::ShardOwnerToken owner)
        : jobs(job_capacity), maint(kMaintQueueCapacity), token(owner) {}

    SpscQueue<Job> jobs;        // single producer: the listener
    MpmcQueue<MaintCmd> maint;  // producers: periodic threads + test hooks
    core::ShardOwnerToken token;
    Gauge* depth = nullptr;    // server.worker_queue_depth.w<i>
    Counter* rejects = nullptr;  // server.worker_queue_reject.w<i>
    /// Batches completed; the watchdog flags a worker whose ring is
    /// non-empty while this stands still across a whole tick.
    std::atomic<std::uint64_t> progress{0};

    std::atomic<bool> parked{false};
    Mutex park_mu{LockRank::kWorkerPark, "server.worker_park"};
    CondVar park_cv;
  };
  static constexpr std::size_t kMaintQueueCapacity = 64;

  /// Reused per-worker reply scratch: encoded frames, sendmmsg descriptors,
  /// and the per-job bookkeeping for timing records that happen after the
  /// batch flush. Sized once; warm batches allocate nothing new.
  struct ReplyBuffers {
    explicit ReplyBuffers(std::size_t batch);
    std::vector<std::vector<std::uint8_t>> outs;
    std::vector<net::UdpSocket::OutDatagram> replies;
    std::vector<TimePoint> dequeued_at;
    std::vector<std::int64_t> wait_us;
    // Per-job key/trace views for the post-flush service exemplar. They
    // alias each Job's datagram buffer, which outlives the flush (the jobs
    // vector is cleared only after run_jobs returns).
    std::vector<std::string_view> keys;
    std::vector<std::string_view> traces;
  };

  JANUS_HOT_PATH_IO void listener_loop();  // kShardPerWorker
  /// Run-to-completion mode (uring + shard-per-worker, DESIGN.md §13): the
  /// listener thread IS worker 0. It drains the uring receive batch,
  /// decides the datagrams whose shards it owns inline (views over the
  /// registered buffers — zero copy, zero hand-off), fans the rest out to
  /// workers 1..N-1, and drains its own maintenance queue between batches.
  /// Busy-polls while traffic flows; after kFusedIdleSpins empty polls it
  /// parks in a bounded io_uring_enter wait instead of spinning.
  JANUS_HOT_PATH_IO void listener_loop_fused();
  JANUS_HOT_PATH_IO void worker_loop();  // kSharedQueue
  JANUS_HOT_PATH_IO void worker_loop_sharded(std::size_t index);

  /// Process one batch of request views: decode, decide (mode-appropriate),
  /// record timings, flush all replies in one batched send. Shared by both
  /// worker loops and the fused listener; `token` is null in shared-queue
  /// mode (locked decisions) and the owner's ShardOwnerToken in
  /// shard-per-worker mode (mutex-free).
  JANUS_HOT_PATH_LOCKS void run_jobs(std::span<const JobView> jobs,
                                     const core::ShardOwnerToken* token,
                                     ReplyBuffers& buf);
  static constexpr int kFusedIdleSpins = 64;

  /// Enqueue stamp for datagram `i` of a batch read when server.received
  /// stood at `first`: now() for 1 in 2^kTimingSampleShift arrivals (exact
  /// whichever thread reads), kTimeZero for the rest.
  static TimePoint sample_clock(std::int64_t first, std::size_t i);

  void wake_worker(WorkerState& w);
  /// Enqueue `kind` to every worker (retrying while queues are full) and,
  /// if `wait`, block until each accepted command was executed. Falls back
  /// to the locked maintenance pass when the workers are not running.
  void dispatch_maintenance(MaintCmd::Kind kind, bool wait);
  /// Run `fn` once per worker with that worker's owner token, on the owning
  /// worker thread (kClusterFn command), and wait for all of them. The
  /// shard-per-worker leg of the migration extract/install paths.
  void run_on_owners(const std::function<void(const core::ShardOwnerToken&)>& fn);
  /// True when the migration window is open and `key` is not yet locally
  /// present — the request must be deferred (dropped) until its bucket
  /// arrives or the window elapses.
  bool defer_for_migration(std::string_view key, std::size_t hash,
                           const core::ShardOwnerToken* token);
  /// ",\"cluster\":{...}" /statusz fragment (empty outside cluster mode).
  std::string render_cluster_statusz() const;

  /// One watchdog tick (PeriodicTask): flags workers with queued work but
  /// no progress since the previous tick.
  void watchdog_pass();
  /// Publish the deltas of the socket's monotonic counters into
  /// server.rx_dropped and server.uring_*. Runs on the watchdog tick and
  /// once at stop() (no tick races stop(): the periodic tasks are joined
  /// first).
  void publish_socket_stats();
  /// Refresh server.db_rules / server.db_bytes from the rules table. Runs
  /// at construction and on every watchdog tick.
  void publish_db_stats();
  /// Drain + execute every command on worker 0's maintenance queue; the
  /// fused listener calls this between batches (it owns worker 0's shards).
  bool drain_maintenance(WorkerState& st);
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
  std::vector<std::unique_ptr<WorkerState>> worker_state_;  // kShardPerWorker

  MetricsRegistry metrics_;
  Counter& received_;
  Counter& answered_;
  Counter& malformed_;
  Counter& dropped_;           // server.fifo_dropped (sharded rings)
  Counter& rx_dropped_;        // server.rx_dropped (kernel queue)
  Counter& maint_rejected_;    // server.maint_queue_reject
  Counter& watchdog_stalls_;   // server.watchdog_stalls
  HistogramMetric& queue_wait_us_;
  HistogramMetric& service_us_;
  Exemplar& queue_wait_exemplar_;  // slowest-sample trace/key, /statusz
  Exemplar& service_exemplar_;
  // Batch-size distributions: mean(server.recv_batch) is the direct
  // syscalls-amortized signal (datagrams per listener wakeup); likewise
  // server.send_batch for worker reply bursts.
  HistogramMetric& recv_batch_size_;
  HistogramMetric& send_batch_size_;
  Gauge& threading_mode_;  // 0 = shared-queue, 1 = shard-per-worker
  /// Resolved provider (UdpSocket::DataPath numeric): 1 fallback, 2 mmsg,
  /// 3 uring — operators see degraded-probe outcomes here, not in logs.
  Gauge& data_path_gauge_;
  // server.uring_*: deltas of the socket's monotonic uring counters,
  // published by publish_socket_stats() (all flat when the provider is off).
  Counter& uring_recv_batches_;
  Counter& uring_recv_datagrams_;
  Counter& uring_send_batches_;
  Counter& uring_send_datagrams_;
  Counter& uring_rearms_;
  Counter& uring_buf_recycles_;
  Counter& uring_send_errors_;
  Counter& stale_nacks_;       // server.stale_epoch_nacks
  Counter& cluster_deferred_;  // server.cluster_deferred (migration window)
  Counter& migrated_in_;       // server.migrated_in (entries)
  Counter& migrated_out_;      // server.migrated_out (entries)
  Gauge& cluster_epoch_gauge_; // server.cluster_epoch
  Gauge& db_rules_;            // server.db_rules (qos_rules rows)
  Gauge& db_bytes_;            // server.db_bytes (qos_rules layout bytes)

  // Watchdog bookkeeping; touched only from the watchdog's PeriodicTask
  // thread, so plain fields suffice. A worker is flagged only after TWO
  // consecutive no-progress-with-backlog ticks (strikes): the fused
  // listener parks in a bounded io_uring_enter wait that maintenance
  // pushes do not interrupt, so a command can legitimately sit queued for
  // up to the 5 ms park — one tick could sample that transient, two
  // consecutive ticks cannot.
  std::vector<std::uint64_t> watchdog_last_progress_;
  std::vector<std::uint8_t> watchdog_strikes_;
  std::uint64_t watchdog_last_answered_ = 0;
  std::uint8_t watchdog_answered_strikes_ = 0;
  /// Last-published socket counter snapshots (watchdog thread + stop() only,
  /// which never overlap — the periodic tasks are joined before stop()
  /// publishes the final delta).
  net::UdpSocket::UringStats uring_last_;
  std::uint64_t rx_dropped_last_ = 0;
  /// True when this node runs the fused run-to-completion listener (uring
  /// provider active + shard-per-worker). Set once in the constructor.
  bool fused_ = false;
  /// Planned worker CPU placements when pin_workers is on (index = worker;
  /// the fused listener uses slot 0). Empty = unpinned.
  std::vector<int> pin_cpus_;

  /// 0 = cluster mode off (every epoch check short-circuits on the first
  /// operand). Set only by the ClusterAgent under its own serialization.
  std::atomic<std::uint64_t> cluster_epoch_{0};
  /// Steady-clock ns deadline of the inbound-migration window; 0 = closed.
  std::atomic<std::int64_t> migrate_window_until_{0};
  std::atomic<std::uint64_t> migrated_in_count_{0};
  std::atomic<std::uint64_t> migrated_out_count_{0};
  std::atomic<std::uint64_t> stale_nacks_count_{0};

  std::atomic<bool> stopping_{false};
  /// Set after the listener thread is joined: shard-per-worker workers must
  /// not exit while the listener may still be pushing into their rings
  /// (tests/server/test_server_shutdown.cpp pins the no-stranded-job
  /// invariant).
  std::atomic<bool> listener_done_{false};
  std::thread listener_;  // kShardPerWorker only
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<PeriodicTask>> maintenance_;
  std::unique_ptr<net::AdminServer> admin_;
};

}  // namespace janus::server
