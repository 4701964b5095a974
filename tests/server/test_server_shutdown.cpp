// Shutdown accounting (DESIGN.md §9.1). Workers read the socket themselves
// and must finish every batch they received before stop() returns. The
// invariant that pins this down, under a concurrent blast:
//
//   received == answered + malformed (+ cluster_deferred)
//
// Every datagram the server received is accounted for at the moment stop()
// returns; a stranded request breaks the equation. What is still in the
// kernel queue at stop() was never received.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/rule_store.hpp"
#include "net/socket.hpp"
#include "server/qos_server_node.hpp"
#include "server_model.hpp"
#include "testing/fault_injector.hpp"
#include "wire/codec.hpp"

namespace janus::server {
namespace {

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

std::int64_t counter_value(QosServerNode& node, const std::string& name) {
  return node.metrics().counter(name).value();
}

/// Shutdown ordering, run once per server execution model (see
/// server_model.hpp).
class ServerShutdownTest
    : public ServerOverloadTest,
      public ::testing::WithParamInterface<testing::ServerModel> {};

TEST_P(ServerShutdownTest, StopMidBlastStrandsNoAcceptedJobs) {
  // Tiny batches widen the window in which a worker holds received but
  // unanswered requests when stop() lands.
  for (int round = 0; round < 8; ++round) {
    QosServerConfig cfg;
    cfg.worker_threads = 4;
    cfg.send_batch = 8;
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
    const std::int64_t malformed = counter_value(*node, "server.malformed");
    const std::int64_t deferred =
        counter_value(*node, "server.cluster_deferred");
    EXPECT_GT(received, 0) << "round " << round << ": blast never landed";
    EXPECT_EQ(received, answered + malformed + deferred)
        << "round " << round << ": stranded requests (received=" << received
        << " answered=" << answered << " malformed=" << malformed
        << " deferred=" << deferred << ")";
  }
}

TEST_F(ServerOverloadTest, SharedQueueBlastShedsInTheKernelQueue) {
  // The server has no user-space FIFO: the socket's kernel receive
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
  const std::int64_t malformed = counter_value(*node, "server.malformed");
  const std::int64_t deferred =
      counter_value(*node, "server.cluster_deferred");
  EXPECT_GT(counter_value(*node, "server.rx_dropped"), 0)
      << "the kernel queue never overflowed (received=" << received << ")";
  EXPECT_GT(received, 0);
  EXPECT_EQ(received, answered + malformed + deferred)
      << "received=" << received << " answered=" << answered;
}

TEST_P(ServerShutdownTest, StopOnIdleServerIsCleanAndIdempotent) {
  QosServerConfig cfg;
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
    Modes, ServerShutdownTest, testing::AllServerModels(),
    [](const auto& tpi) { return testing::server_model_name(tpi.param); });

}  // namespace
}  // namespace janus::server
