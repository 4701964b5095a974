#include "server/qos_server_node.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/flight_recorder.hpp"
#include "common/json_lint.hpp"
#include "router/udp_qos_client.hpp"
#include "server_model.hpp"
#include "testing/fault_injector.hpp"

namespace janus::server {
namespace {

class QosServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_unique<db::RuleStore>(db_);
    ASSERT_TRUE(store_->put({.key = "alice", .refill_per_sec = 100,
                             .capacity = 10, .credit = 10}).ok());
    ASSERT_TRUE(store_->put({.key = "bob", .refill_per_sec = 0,
                             .capacity = 1, .credit = 1}).ok());
  }

  std::unique_ptr<QosServerNode> start_server(QosServerConfig cfg = {}) {
    cfg.sync_interval = Duration{0};
    cfg.checkpoint_interval = Duration{0};
    auto server = QosServerNode::start({"127.0.0.1", 0}, *store_, cfg);
    EXPECT_TRUE(server.ok()) << server.error().message;
    return std::move(server).take();
  }

  wire::QosResponse call(const net::SockAddr& addr, const std::string& key,
                         wire::RequestType type = wire::RequestType::kCheck,
                         std::uint32_t cost = 1) {
    router::UdpClientConfig cfg;
    cfg.timeout = millis(100);
    router::UdpQosClient client(cfg);
    wire::QosRequest req;
    req.key = key;
    req.type = type;
    req.cost = cost;
    auto resp = client.call(addr, req);
    EXPECT_TRUE(resp.ok());
    return resp.value();
  }

  db::Database db_;
  std::unique_ptr<db::RuleStore> store_;
};

/// The end-to-end behaviors, run once per server execution model (see
/// server_model.hpp).
class QosServerModeTest
    : public QosServerTest,
      public ::testing::WithParamInterface<testing::ServerModel> {};

TEST_P(QosServerModeTest, AnswersCheckRequests) {
  auto server = start_server();
  auto resp = call(server->addr(), "alice");
  EXPECT_EQ(resp.status, wire::ResponseStatus::kOk);
  EXPECT_TRUE(resp.allowed);
  EXPECT_LE(resp.remaining_millicredits, 9999);
}

TEST_P(QosServerModeTest, EnforcesQuotaAcrossRequests) {
  auto server = start_server();
  EXPECT_TRUE(call(server->addr(), "bob").allowed);
  EXPECT_FALSE(call(server->addr(), "bob").allowed);  // capacity 1, refill 0
}

TEST_P(QosServerModeTest, UnknownKeyDenied) {
  auto server = start_server();
  auto resp = call(server->addr(), "stranger");
  EXPECT_EQ(resp.status, wire::ResponseStatus::kOk);
  EXPECT_FALSE(resp.allowed);
}

TEST_P(QosServerModeTest, ProbeLeavesCreditsIntact) {
  auto server = start_server();
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(call(server->addr(), "bob", wire::RequestType::kProbe).allowed);
  }
  EXPECT_TRUE(call(server->addr(), "bob").allowed);
}

TEST_P(QosServerModeTest, MultiCreditCost) {
  auto server = start_server();
  EXPECT_TRUE(call(server->addr(), "alice", wire::RequestType::kCheck, 10)
                  .allowed);
  EXPECT_FALSE(call(server->addr(), "alice", wire::RequestType::kCheck, 10)
                   .allowed);  // bucket drained; refill far slower than test
}

TEST_P(QosServerModeTest, MalformedDatagramGetsMalformedStatus) {
  auto server = start_server();
  auto sock = net::UdpSocket::create();
  ASSERT_TRUE(sock.ok());
  const std::uint8_t junk[] = {0x01, 0x02, 0x03};
  ASSERT_TRUE(sock.value().send_to(server->addr(), junk).ok());
  auto dg = sock.value().recv(millis(500));
  ASSERT_TRUE(dg.ok());
  ASSERT_TRUE(dg.value().has_value());
  auto resp = wire::decode_response(dg.value()->data);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().status, wire::ResponseStatus::kMalformed);
  EXPECT_EQ(server->metrics().snapshot().at("server.malformed"), 1);
}

TEST_P(QosServerModeTest, SyncRequestInvalidatesCachedRule) {
  auto server = start_server();
  EXPECT_TRUE(call(server->addr(), "bob").allowed);
  EXPECT_FALSE(call(server->addr(), "bob").allowed);
  // Operator resets bob's quota in the DB, then forces invalidation.
  ASSERT_TRUE(store_->put({.key = "bob", .refill_per_sec = 0,
                           .capacity = 5, .credit = 5}).ok());
  call(server->addr(), "bob", wire::RequestType::kSync);
  EXPECT_TRUE(call(server->addr(), "bob").allowed);  // fresh rule fetched
}

TEST_P(QosServerModeTest, SyncNowPicksUpRuleChanges) {
  auto server = start_server();
  EXPECT_TRUE(call(server->addr(), "bob").allowed);
  EXPECT_FALSE(call(server->addr(), "bob").allowed);
  ASSERT_TRUE(store_->put({.key = "bob", .refill_per_sec = 0,
                           .capacity = 3, .credit = 3}).ok());
  server->sync_now();
  EXPECT_TRUE(call(server->addr(), "bob").allowed);
}

TEST_P(QosServerModeTest, CheckpointWritesCreditsBack) {
  auto server = start_server();
  call(server->addr(), "bob");
  server->checkpoint_now();
  EXPECT_DOUBLE_EQ(store_->get("bob")->credit, 0.0);
}

TEST_P(QosServerModeTest, MetricsCountTraffic) {
  auto server = start_server();
  call(server->addr(), "alice");
  call(server->addr(), "alice");
  auto snap = server->metrics().snapshot();
  EXPECT_GE(snap.at("server.received"), 2);
  EXPECT_GE(snap.at("server.answered"), 2);
}

TEST_P(QosServerModeTest, ConcurrentClientsNeverOverAdmit) {
  ASSERT_TRUE(store_->put({.key = "shared", .refill_per_sec = 0,
                           .capacity = 100, .credit = 100}).ok());
  QosServerConfig cfg;
  cfg.worker_threads = 4;
  auto server = start_server(cfg);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::atomic<int> admitted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      router::UdpClientConfig ccfg;
      ccfg.timeout = millis(200);
      router::UdpQosClient client(ccfg);
      for (int i = 0; i < kPerThread; ++i) {
        wire::QosRequest req;
        req.key = "shared";
        auto resp = client.call(server->addr(), req);
        if (resp.ok() && resp.value().status == wire::ResponseStatus::kOk &&
            resp.value().allowed) {
          admitted.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // 200 attempts against 100 credits: exactly 100 admitted (retry duplicates
  // could consume extra credits, so never MORE than 100).
  EXPECT_LE(admitted.load(), 100);
  EXPECT_GE(admitted.load(), 90);  // allow a few retry-consumed credits
}

TEST_P(QosServerModeTest, StopIsIdempotentAndFast) {
  auto server = start_server();
  const auto start = std::chrono::steady_clock::now();
  server->stop();
  server->stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(3));
}

TEST_P(QosServerModeTest, PeriodicRefillModeWorksEndToEnd) {
  ASSERT_TRUE(store_->put({.key = "tick", .refill_per_sec = 1000,
                           .capacity = 2, .credit = 0}).ok());
  QosServerConfig cfg;
  cfg.admission.refill_mode = core::RefillMode::kPeriodic;
  cfg.refill_interval = millis(5);
  auto server = start_server(cfg);
  // First touch creates the bucket with the check-pointed credit of 0; in
  // periodic mode only the house-keeping thread (1000/s refill, 5 ms tick)
  // can raise the water level afterwards.
  EXPECT_FALSE(call(server->addr(), "tick").allowed);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_TRUE(call(server->addr(), "tick").allowed);
}

TEST_P(QosServerModeTest, TimingSamplerSamplesExactlyOneInEight) {
  // The 1-in-8 decimation keys off server.received, so a fresh server
  // samples datagrams 0, 8, 16, ... deterministically: 80 sequential
  // requests land exactly 10 observations in the latency histograms.
  auto server = start_server();
  router::UdpClientConfig ccfg;
  ccfg.timeout = millis(500);
  router::UdpQosClient client(ccfg);
  for (int i = 0; i < 80; ++i) {
    wire::QosRequest req;
    req.key = "alice";
    req.type = wire::RequestType::kProbe;
    auto resp = client.call(server->addr(), req);
    ASSERT_TRUE(resp.ok());
  }
  // Precondition: no datagram was retried or dropped, else the sample
  // phase shifts and the exact count below would be meaningless.
  ASSERT_EQ(server->metrics().snapshot().at("server.received"), 80);
  auto hists = server->metrics().snapshot_histograms();
  EXPECT_EQ(hists.at("server.queue_wait_us").count(), 10u);
  EXPECT_EQ(hists.at("server.service_us").count(), 10u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, QosServerModeTest, testing::AllServerModels(),
    [](const auto& tpi) { return testing::server_model_name(tpi.param); });

TEST_F(QosServerTest, DbGaugesReportRulesTable) {
  auto server = start_server();
  const auto snap = server->metrics().snapshot();
  EXPECT_EQ(snap.at("server.db_rules"), 2);
  EXPECT_EQ(snap.at("server.db_bytes"),
            static_cast<std::int64_t>(store_->memory_bytes()));
  EXPECT_GT(snap.at("server.db_bytes"), 0);
}

TEST_P(QosServerModeTest, WatchdogFlagsStalledWorker) {
  // A worker that sleeps through whole watchdog ticks while work is queued
  // must be flagged. The slow-service fault inflates each job by 150 ms
  // against a 20 ms watchdog tick.
  QosServerConfig cfg;
  cfg.worker_threads = 1;  // one worker: the backlog cannot drain elsewhere
  cfg.watchdog_interval = millis(20);
  cfg.admission.table_shards = 4;
  auto server = start_server(cfg);

  testing::ScopedFault slow(testing::FaultPoint::kServerSlowService,
                            {.max_fires = 4, .param = 150000});

  // Fire-and-forget: a 5 ms client timeout abandons each reply, leaving the
  // datagrams queued behind the sleeping worker.
  router::UdpClientConfig ccfg;
  ccfg.timeout = millis(5);
  ccfg.max_retries = 1;
  router::UdpQosClient client(ccfg);
  for (int i = 0; i < 4; ++i) {
    wire::QosRequest req;
    req.key = "alice";
    req.type = wire::RequestType::kCheck;
    req.cost = 1;
    (void)client.call(server->addr(), req);
  }

  auto& stalls = server->metrics().counter("server.watchdog_stalls");
  for (int i = 0; i < 300 && stalls.value() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(stalls.value(), 0)
      << "watchdog never flagged the sleeping worker";
  server->stop();
}

TEST_F(QosServerTest, ChaosFaultFireTriggersParseableAutoDump) {
  // The chaos observability loop end to end: arm the one-shot auto-dump,
  // fire a fault on the decision path, read back a valid Perfetto JSON file.
  const std::string path =
      ::testing::TempDir() + "/janus_chaos_autodump.json";
  std::remove(path.c_str());
  FlightRecorder::instance().set_auto_dump_path(path);

  QosServerConfig cfg;
  cfg.worker_threads = 1;
  auto server = start_server(cfg);
  {
    testing::ScopedFault slow(testing::FaultPoint::kServerSlowService,
                              {.max_fires = 1, .param = 1000});
    auto resp = call(server->addr(), "alice");
    EXPECT_EQ(resp.status, wire::ResponseStatus::kOk);
  }
  server->stop();

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << "fault fire did not produce the auto-dump file";
  std::string content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  FlightRecorder::instance().set_auto_dump_path("");

  std::string err;
  EXPECT_TRUE(json_lint::json_syntax_ok(content, &err)) << err;
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  // The fault fire itself is on the timeline.
  EXPECT_NE(content.find("\"name\":\"fault_fire\""), std::string::npos);
}

// --- QosServerConfig validation: start() must reject or repair nonsense
// instead of hanging loops / crashing on modulo-by-zero. ---

TEST(QosServerConfigValidation, RejectsZeroWorkers) {
  QosServerConfig cfg;
  cfg.worker_threads = 0;
  auto v = QosServerNode::validate_config(cfg);
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.error().message.find("worker_threads"), std::string::npos);
}

TEST(QosServerConfigValidation, RejectsZeroShards) {
  QosServerConfig cfg;
  cfg.admission.table_shards = 0;
  auto v = QosServerNode::validate_config(cfg);
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.error().message.find("table_shards"), std::string::npos);
}

TEST(QosServerConfigValidation, ClampsBatchSize) {
  QosServerConfig cfg;
  cfg.send_batch = 0;  // would spin recv_many(0) forever
  auto v = QosServerNode::validate_config(cfg);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().send_batch, 1u);
  cfg.send_batch = 100000;  // recvmmsg/sendmmsg cap at kMaxBatch
  EXPECT_EQ(QosServerNode::validate_config(cfg).value().send_batch,
            net::UdpSocket::kMaxBatch);
}

TEST_F(QosServerTest, StartSurfacesValidationError) {
  QosServerConfig cfg;
  cfg.worker_threads = 0;
  auto server = QosServerNode::start({"127.0.0.1", 0}, *store_, cfg);
  ASSERT_FALSE(server.ok());
  EXPECT_NE(server.error().message.find("worker_threads"), std::string::npos);
}

TEST_F(QosServerTest, StartAppliesClampedConfig) {
  QosServerConfig cfg;
  cfg.send_batch = 0;
  cfg.sync_interval = Duration{0};
  cfg.checkpoint_interval = Duration{0};
  auto server = QosServerNode::start({"127.0.0.1", 0}, *store_, cfg);
  ASSERT_TRUE(server.ok()) << server.error().message;
  EXPECT_EQ(server.value()->config().send_batch, 1u);
  // The repaired config still serves traffic.
  EXPECT_TRUE(call(server.value()->addr(), "alice").allowed);
}

}  // namespace
}  // namespace janus::server
