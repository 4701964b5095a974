// The QoS server's cluster control plane (DESIGN.md §11.3): a TCP listener
// (janusd --cluster-listen) that accepts coordinator EpochUpdates and peer
// MigrationBatches, and drives the node through an epoch flip:
//
//   1. flip the node's epoch FIRST — stale-epoch frames start bouncing the
//      instant a newer map exists, before any migration work;
//   2. extract every entry this node no longer owns under the new map
//      (grouped by new owner, under the table's shard locks);
//   3. stream the extracted entries to their new owners as MigrationBatch
//      frames over the same control port, each acked by its receiver;
//   4. ack the coordinator — the hand-off is done when the ack lands.
//
// Inbound, a MigrationBatch at the current (or a newer — publishes race
// batches between peers) epoch installs its entries; while the node's
// inbound-migration window is open, current-epoch requests for keys that
// have not arrived yet are silently deferred, so a key's bucket is never
// double-spent across the flip.
//
// Single-threaded by construction: one accept loop handles connections
// serially, so epoch handling needs no locking beyond the ShardMapHolder.
// It blocks in accept() and stop() shuts the listening socket down. The
// coordinator publishes to one member at a time, so while this member
// streams, every peer's accept loop is free to take its batch.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <thread>

#include "cluster/shard_map.hpp"
#include "common/clock.hpp"
#include "common/result.hpp"
#include "net/socket.hpp"
#include "server/qos_server_node.hpp"

namespace janus::server {

struct ClusterAgentOptions {
  /// How long inbound requests for not-yet-migrated keys are deferred
  /// after an epoch flip. Bounded: the router retry budget covers it.
  Duration migrate_window = millis(250);
  /// Per-connection read/connect budget for control-plane frames.
  Duration io_timeout = millis(500);
  /// Invoked (once, from the agent thread, before the epoch flips) the
  /// first time an EpochUpdate names this server an ACTIVE member. A
  /// standby wires this to stop its HA replica: a promoted standby that
  /// kept restoring the old master's snapshots would resurrect spent
  /// credit — the split-brain over-admission tests/cluster round 3 pins.
  std::function<void()> on_promoted;
};

class ClusterAgent {
 public:
  using Options = ClusterAgentOptions;

  /// Binds the control-plane TCP port (port 0 = ephemeral) and starts the
  /// accept loop. `node` must outlive the agent and must be stopped AFTER
  /// the agent (the agent drives migration passes through the node's worker
  /// queues).
  static Result<std::unique_ptr<ClusterAgent>> start(
      const net::SockAddr& listen, QosServerNode& node, Options options = {});

  ~ClusterAgent();
  void stop();

  const net::SockAddr& local_addr() const { return addr_; }
  std::uint64_t epoch() const { return node_.cluster_epoch(); }
  /// This node's index in the current map; wire::kNotAMember once told to
  /// leave (or before the first EpochUpdate).
  std::uint16_t self_index() const {
    return self_index_.load(std::memory_order_acquire);
  }
  std::uint64_t epoch_updates() const {
    return epoch_updates_.load(std::memory_order_relaxed);
  }
  std::uint64_t batches_received() const {
    return batches_received_.load(std::memory_order_relaxed);
  }
  std::uint64_t send_errors() const {
    return send_errors_.load(std::memory_order_relaxed);
  }

 private:
  ClusterAgent(net::TcpListener listener, net::SockAddr addr,
               QosServerNode& node, Options options);
  void loop();
  void handle(net::TcpStream stream);
  /// Flip + extract + ack + stream. Returns the ack status sent back.
  wire::ClusterAckStatus apply_epoch_update(const wire::EpochUpdate& update,
                                            net::TcpStream& stream);
  wire::ClusterAckStatus apply_migration_batch(
      const wire::MigrationBatch& batch);
  void send_ack(net::TcpStream& stream, wire::ClusterAckStatus status);
  /// Stream one MigrationBatch to `target`; counts send_errors on failure
  /// (the keys are then lost until the next sync — loud by design).
  void send_batch(const net::SockAddr& target, wire::MigrationBatch batch);

  Options options_;
  QosServerNode& node_;
  net::TcpListener listener_;
  net::SockAddr addr_;
  cluster::ShardMapHolder holder_;
  std::atomic<std::uint16_t> self_index_{wire::kNotAMember};
  /// Deliberately NOT JANUS_GUARDED_BY anything: the accept loop is the only
  /// writer and only reader (single-threaded by construction, see the header
  /// comment); the one cross-thread surface is the atomics below plus
  /// holder_, which carries its own kClusterMap lock.
  bool promoted_ = false;  // agent thread only
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> epoch_updates_{0};
  std::atomic<std::uint64_t> batches_received_{0};
  std::atomic<std::uint64_t> send_errors_{0};
  std::thread thread_;
};

}  // namespace janus::server
