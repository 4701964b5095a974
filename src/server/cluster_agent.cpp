#include "server/cluster_agent.hpp"

#include <chrono>
#include <thread>

#include "cluster/frame_io.hpp"
#include "common/flight_recorder.hpp"
#include "common/logging.hpp"
#include "testing/fault_injector.hpp"

namespace janus::server {

Result<std::unique_ptr<ClusterAgent>> ClusterAgent::start(
    const net::SockAddr& listen, QosServerNode& node, Options options) {
  auto listener = net::TcpListener::listen(listen);
  if (!listener.ok()) return Error(listener.error().message);
  auto addr = listener.value().local_addr();
  if (!addr.ok()) return Error(addr.error().message);
  return std::unique_ptr<ClusterAgent>(new ClusterAgent(
      std::move(listener).take(), addr.value(), node, options));
}

ClusterAgent::ClusterAgent(net::TcpListener listener, net::SockAddr addr,
                           QosServerNode& node, Options options)
    : options_(options),
      node_(node),
      listener_(std::move(listener)),
      addr_(std::move(addr)),
      thread_([this] { loop(); }) {}

ClusterAgent::~ClusterAgent() { stop(); }

void ClusterAgent::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  listener_.shutdown();  // fails the loop's blocked accept()
  if (thread_.joinable()) thread_.join();
}

void ClusterAgent::loop() {
  FlightRecorder::label_current_thread("server.cluster_agent");
  while (true) {
    auto conn = listener_.accept(Duration{-1});
    if (stopping_.load(std::memory_order_relaxed)) return;
    if (!conn.ok()) {
      JLOG_WARN("cluster: agent accept failed: %s",
                conn.error().message.c_str());
      continue;
    }
    handle(std::move(*conn.value()));
  }
}

void ClusterAgent::handle(net::TcpStream stream) {
  auto msg = cluster::read_cluster_frame(stream, options_.io_timeout);
  if (!msg.ok()) {
    JLOG_WARN("cluster: agent bad frame: %s", msg.error().message.c_str());
    return;
  }
  if (const auto* update = std::get_if<wire::EpochUpdate>(&msg.value())) {
    apply_epoch_update(*update, stream);
    return;
  }
  if (const auto* batch = std::get_if<wire::MigrationBatch>(&msg.value())) {
    send_ack(stream, apply_migration_batch(*batch));
    return;
  }
  JLOG_WARN("cluster: agent got unexpected ack frame");
}

wire::ClusterAckStatus ClusterAgent::apply_epoch_update(
    const wire::EpochUpdate& update, net::TcpStream& stream) {
  auto map = cluster::shard_map_from_update(update);
  if (!map.ok()) {
    JLOG_WARN("cluster: rejected epoch update: %s",
              map.error().message.c_str());
    send_ack(stream, wire::ClusterAckStatus::kError);
    return wire::ClusterAckStatus::kError;
  }
  const auto old_map = holder_.snapshot();
  if (!holder_.publish(map.value())) {
    // Late or duplicate publish: the map never rolls backwards.
    send_ack(stream, wire::ClusterAckStatus::kStaleEpoch);
    return wire::ClusterAckStatus::kStaleEpoch;
  }
  epoch_updates_.fetch_add(1, std::memory_order_relaxed);
  self_index_.store(update.self_index, std::memory_order_release);

  // Promotion hook BEFORE the flip: a standby must stop restoring its old
  // master's HA snapshots before it admits a single request at the new
  // epoch, or a late restore resurrects already-spent credit.
  if (update.self_index != wire::kNotAMember && !promoted_) {
    promoted_ = true;
    if (options_.on_promoted) options_.on_promoted();
  }

  // Flip first (DESIGN.md §11.3): from this store on, frames stamped with
  // the old epoch are NACKed and the router re-routes them against the map
  // it already holds (the coordinator installed it before publishing).
  node_.set_cluster_epoch(map.value().epoch);
  const bool leaving = update.self_index == wire::kNotAMember;
  const bool first_epoch = old_map == nullptr;
  // Open the inbound window unless this is the cluster's FIRST epoch
  // overall: at epoch 1 no bucket state exists anywhere, so deferral would
  // only add latency. The member's own first epoch is NOT enough to skip —
  // a server joining an established cluster (reshard N -> N+1) or a
  // promoted standby receives keys whose buckets are still in flight from
  // their old owners, and first-touch-creating fresh full-credit buckets
  // for those keys would over-admit (tests/cluster round 2).
  if (!leaving && update.epoch > 1) {
    node_.open_migration_window(options_.migrate_window);
  }

  std::vector<std::vector<wire::MigrationEntry>> outgoing;
  if (!first_epoch || leaving) {
    outgoing = node_.extract_disowned(
        map.value(), leaving ? wire::kNotAMember : update.self_index);
  }
  // Stream, then ack. Each batch is acked by its receiver once installed,
  // and the coordinator publishes to one member at a time, so when this ack
  // lands every bucket this member owed has arrived, and no two members
  // ever stream to each other at once. (Acking first let the coordinator
  // publish to the next member while this one streamed: two members in
  // each other's migration set then each waited, accept loop busy, for the
  // other's ack until io_timeout, and the receivers' deferral windows
  // closed first.)
  for (std::size_t owner = 0; owner < outgoing.size(); ++owner) {
    if (outgoing[owner].empty()) continue;
    const cluster::Member& target = map.value().members[owner];
    if (target.cluster_addr.port == 0) {
      send_errors_.fetch_add(1, std::memory_order_relaxed);
      JLOG_WARN("cluster: %zu entries for %s lost (no cluster port)",
                outgoing[owner].size(), target.name.c_str());
      continue;
    }
    wire::MigrationBatch batch;
    batch.epoch = map.value().epoch;
    batch.from_index =
        leaving ? wire::kNotAMember : update.self_index;
    batch.final_batch = true;
    batch.entries = std::move(outgoing[owner]);
    send_batch(target.cluster_addr, std::move(batch));
  }
  send_ack(stream, wire::ClusterAckStatus::kOk);
  stream.shutdown_write();
  JLOG_INFO("cluster: agent applied epoch %llu (self=%u%s)",
            static_cast<unsigned long long>(map.value().epoch),
            static_cast<unsigned>(update.self_index),
            leaving ? ", leaving" : "");
  return wire::ClusterAckStatus::kOk;
}

wire::ClusterAckStatus ClusterAgent::apply_migration_batch(
    const wire::MigrationBatch& batch) {
  // Accept current-or-newer epochs: the coordinator publishes serially, so
  // a fast peer's batch can outrun this node's own EpochUpdate. Installing
  // early is safe — at the old epoch no router sends this node those keys.
  if (batch.epoch < node_.cluster_epoch()) {
    return wire::ClusterAckStatus::kStaleEpoch;
  }
  batches_received_.fetch_add(1, std::memory_order_relaxed);
  node_.install_migrated(batch.entries);
  return wire::ClusterAckStatus::kOk;
}

void ClusterAgent::send_ack(net::TcpStream& stream,
                            wire::ClusterAckStatus status) {
  wire::ClusterAck ack{.epoch = node_.cluster_epoch(), .status = status};
  auto frame = wire::encode_frame(ack);
  if (auto st = stream.write_all(frame); !st.ok()) {
    JLOG_WARN("cluster: agent ack send failed: %s", st.error().message.c_str());
  }
}

void ClusterAgent::send_batch(const net::SockAddr& target,
                              wire::MigrationBatch batch) {
  auto& faults = testing::FaultInjector::instance();
  if (faults.should_fire(testing::FaultPoint::kClusterMigrateStall)) {
    // Chaos: a slow migration sender — the receiver's deferral window and
    // the router retry budget must absorb it (tests/cluster).
    std::this_thread::sleep_for(std::chrono::microseconds(
        faults.param(testing::FaultPoint::kClusterMigrateStall)));
  }
  const std::size_t count = batch.entries.size();
  auto stream = net::TcpStream::connect(target, options_.io_timeout);
  if (!stream.ok()) {
    send_errors_.fetch_add(1, std::memory_order_relaxed);
    JLOG_WARN("cluster: migrate connect %s failed: %s (%zu entries lost)",
              target.to_string().c_str(), stream.error().message.c_str(),
              count);
    return;
  }
  net::TcpStream conn = std::move(stream).take();
  auto frame = wire::encode_frame(batch);
  if (auto st = conn.write_all(frame); !st.ok()) {
    send_errors_.fetch_add(1, std::memory_order_relaxed);
    JLOG_WARN("cluster: migrate send %s failed: %s", target.to_string().c_str(),
              st.error().message.c_str());
    return;
  }
  auto reply = cluster::read_cluster_frame(conn, options_.io_timeout);
  if (!reply.ok() ||
      std::get_if<wire::ClusterAck>(&reply.value()) == nullptr) {
    send_errors_.fetch_add(1, std::memory_order_relaxed);
    JLOG_WARN("cluster: migrate to %s not acked", target.to_string().c_str());
    return;
  }
  JLOG_INFO("cluster: migrated %zu entries to %s", count,
            target.to_string().c_str());
}

}  // namespace janus::server
