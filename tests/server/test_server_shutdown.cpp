// Shutdown-ordering regression (DESIGN.md §9.1). In shard-per-worker mode
// the listener is the sole SPSC producer for the worker rings;
// QosServerNode::stop() must join it BEFORE the workers are allowed to
// exit, or a worker that saw stopping_ with a momentarily-empty ring could
// leave while the listener's final recvmmsg batch was still being fanned
// out — stranding accepted jobs that are then neither answered nor counted
// dropped. Shared-queue workers read the socket themselves and must finish
// every batch they received. The invariant that pins this down, in both
// threading modes, under a concurrent blast:
//
//   received == answered + fifo_dropped + malformed (+ cluster_deferred)
//
// Every datagram the server received is accounted for at the moment stop()
// returns; a stranded job breaks the equation.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/rule_store.hpp"
#include "net/socket.hpp"
#include "server/qos_server_node.hpp"
#include "testing/fault_injector.hpp"
#include "wire/codec.hpp"

namespace janus::server {
namespace {

class ServerShutdownTest
    : public ::testing::TestWithParam<core::ThreadingMode> {
 protected:
  void SetUp() override {
    store_ = std::make_unique<db::RuleStore>(db_);
    ASSERT_TRUE(store_->put({.key = "tenant", .refill_per_sec = 1000,
                             .capacity = 1000, .credit = 1000}).ok());
  }

  db::Database db_;
  std::unique_ptr<db::RuleStore> store_;
};

std::int64_t counter_value(QosServerNode& node, const std::string& name) {
  return node.metrics().counter(name).value();
}

class ServerOverloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_unique<db::RuleStore>(db_);
    ASSERT_TRUE(store_->put({.key = "tenant", .refill_per_sec = 1000,
                             .capacity = 1000, .credit = 1000}).ok());
  }

  db::Database db_;
  std::unique_ptr<db::RuleStore> store_;
};

TEST_P(ServerShutdownTest, StopMidBlastStrandsNoAcceptedJobs) {
  // Small rings + tiny batches widen the race window the ordering bug needs:
  // the listener keeps fanning out while workers see stopping_ early.
  for (int round = 0; round < 8; ++round) {
    QosServerConfig cfg;
    cfg.worker_threads = 4;
    cfg.fifo_capacity = 256;
    cfg.recv_batch = 8;
    cfg.send_batch = 8;
    cfg.threading = GetParam();
    cfg.sync_interval = Duration{0};
    cfg.checkpoint_interval = Duration{0};
    cfg.watchdog_interval = Duration{0};
    auto started = QosServerNode::start({"127.0.0.1", 0}, *store_, cfg);
    ASSERT_TRUE(started.ok()) << started.error().message;
    auto node = std::move(started).take();

    // Pre-encode one request; the blast re-sends the identical frame (reply
    // correlation does not matter — nobody reads the replies).
    wire::QosRequest req;
    req.key = "tenant";
    req.cost = 1;
    const std::vector<std::uint8_t> frame = wire::encode(req);

    std::atomic<bool> stop_senders{false};
    std::vector<std::thread> senders;
    for (int s = 0; s < 3; ++s) {
      senders.emplace_back([&, addr = node->addr()] {
        auto sock = net::UdpSocket::bind({"127.0.0.1", 0});
        if (!sock.ok()) return;
        while (!stop_senders.load(std::memory_order_relaxed)) {
          (void)sock.value().send_to(addr, frame);
        }
      });
    }

    // Let the blast build a backlog, then stop the node mid-flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(20 + 5 * round));
    node->stop();
    stop_senders.store(true, std::memory_order_relaxed);
    for (auto& t : senders) t.join();

    const std::int64_t received = counter_value(*node, "server.received");
    const std::int64_t answered = counter_value(*node, "server.answered");
    const std::int64_t dropped = counter_value(*node, "server.fifo_dropped");
    const std::int64_t malformed = counter_value(*node, "server.malformed");
    const std::int64_t deferred =
        counter_value(*node, "server.cluster_deferred");
    EXPECT_GT(received, 0) << "round " << round << ": blast never landed";
    EXPECT_EQ(received, answered + dropped + malformed + deferred)
        << "round " << round << ": stranded jobs (received=" << received
        << " answered=" << answered << " dropped=" << dropped
        << " malformed=" << malformed << " deferred=" << deferred << ")";
  }
}

TEST_F(ServerOverloadTest, SharedQueueBlastShedsInTheKernelQueue) {
  // Shared-queue mode has no user-space FIFO: the socket's kernel receive
  // queue buffers requests and sheds the overflow, exported as
  // server.rx_dropped. A burst of 5000 datagrams against one worker slowed
  // to 200 µs a datagram must overflow it (the default receive buffer holds
  // a few hundred) — and every datagram the worker did receive is still
  // answered.
  QosServerConfig cfg;
  cfg.worker_threads = 1;
  cfg.sync_interval = Duration{0};
  cfg.checkpoint_interval = Duration{0};
  cfg.watchdog_interval = Duration{0};  // rx_dropped is published at stop()
  auto started = QosServerNode::start({"127.0.0.1", 0}, *store_, cfg);
  ASSERT_TRUE(started.ok()) << started.error().message;
  auto node = std::move(started).take();

  wire::QosRequest req;
  req.key = "tenant";
  req.cost = 1;
  const std::vector<std::uint8_t> frame = wire::encode(req);
  testing::ScopedFault slow(testing::FaultPoint::kServerSlowService,
                            {.param = 200});
  auto sock = net::UdpSocket::bind({"127.0.0.1", 0});
  ASSERT_TRUE(sock.ok());
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(sock.value().send_to(node->addr(), frame).ok());
  }
  node->stop();

  const std::int64_t received = counter_value(*node, "server.received");
  const std::int64_t answered = counter_value(*node, "server.answered");
  const std::int64_t dropped = counter_value(*node, "server.fifo_dropped");
  const std::int64_t malformed = counter_value(*node, "server.malformed");
  const std::int64_t deferred =
      counter_value(*node, "server.cluster_deferred");
  EXPECT_GT(counter_value(*node, "server.rx_dropped"), 0)
      << "the kernel queue never overflowed (received=" << received << ")";
  EXPECT_GT(received, 0);
  EXPECT_EQ(dropped, 0) << "shared-queue mode has no user-space ring";
  EXPECT_EQ(received, answered + dropped + malformed + deferred)
      << "received=" << received << " answered=" << answered;
}

TEST_P(ServerShutdownTest, StopOnIdleServerIsCleanAndIdempotent) {
  QosServerConfig cfg;
  cfg.threading = GetParam();
  cfg.sync_interval = Duration{0};
  cfg.checkpoint_interval = Duration{0};
  auto started = QosServerNode::start({"127.0.0.1", 0}, *store_, cfg);
  ASSERT_TRUE(started.ok()) << started.error().message;
  auto node = std::move(started).take();
  node->stop();
  node->stop();  // second stop must be a no-op, not a double-join
  EXPECT_EQ(counter_value(*node, "server.received"), 0);
  EXPECT_EQ(counter_value(*node, "server.answered"), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ServerShutdownTest,
    ::testing::Values(core::ThreadingMode::kSharedQueue,
                      core::ThreadingMode::kShardPerWorker),
    [](const auto& info) {
      return info.param == core::ThreadingMode::kSharedQueue
                 ? "SharedQueue"
                 : "ShardPerWorker";
    });

}  // namespace
}  // namespace janus::server
