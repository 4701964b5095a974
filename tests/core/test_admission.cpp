#include "core/admission.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

#include "core/db_rule_adapter.hpp"
#include "db/rule_store.hpp"

namespace janus::core {
namespace {

/// In-memory rule source with fetch counting.
class FakeRuleSource : public RuleSource {
 public:
  void add(const std::string& key, double capacity, double rate,
           std::optional<double> credit = std::nullopt) {
    rules_[key] = QosRule{.key = key, .capacity = capacity,
                          .refill_per_sec = rate, .initial_credit = credit};
  }
  void remove(const std::string& key) { rules_.erase(key); }

  std::optional<QosRule> fetch(std::string_view key) override {
    ++fetches_;
    auto it = rules_.find(std::string(key));
    if (it == rules_.end()) return std::nullopt;
    return it->second;
  }

  int fetches() const { return fetches_; }

 private:
  std::map<std::string, QosRule> rules_;
  std::atomic<int> fetches_{0};
};

class FakeSink : public RuleSink {
 public:
  void checkpoint(std::string_view key, double credit) override {
    credits_[std::string(key)] = credit;
  }
  std::map<std::string, double> credits_;
};

class AdmissionTest : public ::testing::Test {
 protected:
  AdmissionConfig config() {
    AdmissionConfig cfg;
    cfg.table_shards = 4;
    return cfg;
  }

  ManualClock clock_;
  FakeRuleSource source_;
};

TEST_F(AdmissionTest, FirstTouchFetchesFromSource) {
  source_.add("alice", 10, 1);
  AdmissionController ac(clock_, source_, config());
  auto d = ac.check("alice");
  EXPECT_TRUE(d.allowed);
  EXPECT_EQ(d.origin, Decision::Origin::kFetched);
  EXPECT_EQ(source_.fetches(), 1);
  EXPECT_EQ(ac.table_size(), 1u);
}

TEST_F(AdmissionTest, SecondCheckIsCached) {
  source_.add("alice", 10, 1);
  AdmissionController ac(clock_, source_, config());
  ac.check("alice");
  auto d = ac.check("alice");
  EXPECT_EQ(d.origin, Decision::Origin::kCached);
  EXPECT_EQ(source_.fetches(), 1);  // no second DB query
}

TEST_F(AdmissionTest, UnknownKeyUsesDenyAllDefault) {
  AdmissionController ac(clock_, source_, config());  // default: deny all
  auto d = ac.check("stranger");
  EXPECT_FALSE(d.allowed);
  EXPECT_EQ(d.origin, Decision::Origin::kDefault);
  // Entry is cached so the DB is not hammered by unknown keys.
  auto d2 = ac.check("stranger");
  EXPECT_EQ(d2.origin, Decision::Origin::kCached);
  EXPECT_EQ(source_.fetches(), 1);
}

TEST_F(AdmissionTest, LimitedAccessDefaultGrantsSlowRate) {
  AdmissionConfig cfg = config();
  cfg.default_rule = limited_access_default(2.0, 1.0);
  AdmissionController ac(clock_, source_, cfg);
  EXPECT_TRUE(ac.check("guest").allowed);
  EXPECT_TRUE(ac.check("guest").allowed);
  EXPECT_FALSE(ac.check("guest").allowed);  // burst of 2 exhausted
  clock_.advance(seconds(1));
  EXPECT_TRUE(ac.check("guest").allowed);  // refilled at 1/s
}

TEST_F(AdmissionTest, CreditsDepleteAndRefill) {
  source_.add("alice", 3, 1);
  AdmissionController ac(clock_, source_, config());
  EXPECT_TRUE(ac.check("alice").allowed);
  EXPECT_TRUE(ac.check("alice").allowed);
  EXPECT_TRUE(ac.check("alice").allowed);
  EXPECT_FALSE(ac.check("alice").allowed);
  clock_.advance(seconds(2));
  EXPECT_TRUE(ac.check("alice").allowed);
  EXPECT_TRUE(ac.check("alice").allowed);
  EXPECT_FALSE(ac.check("alice").allowed);
}

TEST_F(AdmissionTest, RemainingCreditsReported) {
  source_.add("alice", 10, 0);
  AdmissionController ac(clock_, source_, config());
  auto d = ac.check("alice");
  EXPECT_EQ(d.remaining_millicredits, 9000);
  d = ac.check("alice", 4);
  EXPECT_EQ(d.remaining_millicredits, 5000);
}

TEST_F(AdmissionTest, MultiCreditCost) {
  source_.add("alice", 10, 0);
  AdmissionController ac(clock_, source_, config());
  EXPECT_TRUE(ac.check("alice", 10).allowed);
  EXPECT_FALSE(ac.check("alice", 1).allowed);
}

TEST_F(AdmissionTest, InitialCreditFromCheckpointRespected) {
  // §II-D: replacement server starts from the check-pointed credit.
  source_.add("alice", 100, 0, /*credit=*/2.0);
  AdmissionController ac(clock_, source_, config());
  EXPECT_TRUE(ac.check("alice").allowed);
  EXPECT_TRUE(ac.check("alice").allowed);
  EXPECT_FALSE(ac.check("alice").allowed);
}

TEST_F(AdmissionTest, ProbeDoesNotConsume) {
  source_.add("alice", 1, 0);
  AdmissionController ac(clock_, source_, config());
  EXPECT_TRUE(ac.probe("alice").allowed);
  EXPECT_TRUE(ac.probe("alice").allowed);
  EXPECT_TRUE(ac.check("alice").allowed);
  EXPECT_FALSE(ac.probe("alice").allowed);
}

TEST_F(AdmissionTest, PeriodicModeOnlyRefillsOnHousekeeping) {
  source_.add("alice", 2, 10);
  AdmissionConfig cfg = config();
  cfg.refill_mode = RefillMode::kPeriodic;
  AdmissionController ac(clock_, source_, cfg);
  EXPECT_TRUE(ac.check("alice").allowed);
  EXPECT_TRUE(ac.check("alice").allowed);
  EXPECT_FALSE(ac.check("alice").allowed);
  clock_.advance(seconds(10));
  // Time passed but no house-keeping pass yet.
  EXPECT_FALSE(ac.check("alice").allowed);
  ac.refill_all();
  EXPECT_TRUE(ac.check("alice").allowed);
}

TEST_F(AdmissionTest, SyncPicksUpRuleChanges) {
  source_.add("alice", 1, 0);
  AdmissionController ac(clock_, source_, config());
  EXPECT_TRUE(ac.check("alice").allowed);
  EXPECT_FALSE(ac.check("alice").allowed);
  // Operator upgrades the tenant.
  source_.add("alice", 100, 50);
  EXPECT_EQ(ac.sync_now(), 1u);
  clock_.advance(seconds(1));
  EXPECT_TRUE(ac.check("alice").allowed);  // refilled at the new 50/s
}

TEST_F(AdmissionTest, SyncWithNoChangesTouchesNothing) {
  source_.add("alice", 10, 1);
  AdmissionController ac(clock_, source_, config());
  ac.check("alice");
  EXPECT_EQ(ac.sync_now(), 0u);
}

TEST_F(AdmissionTest, SyncDemotesDeletedRulesToDefault) {
  source_.add("alice", 100, 100);
  AdmissionController ac(clock_, source_, config());
  EXPECT_TRUE(ac.check("alice").allowed);
  source_.remove("alice");
  EXPECT_EQ(ac.sync_now(), 1u);
  EXPECT_FALSE(ac.check("alice").allowed);  // deny-all default now applies
}

TEST_F(AdmissionTest, SyncPromotesDefaultWhenRuleAppears) {
  AdmissionController ac(clock_, source_, config());
  EXPECT_FALSE(ac.check("alice").allowed);  // default deny
  // "new QoS keys/rules are immediately effective as soon as they are added
  // to the database" — for already-cached entries, on the next sync.
  source_.add("alice", 10, 10);
  EXPECT_EQ(ac.sync_now(), 1u);
  EXPECT_TRUE(ac.check("alice").allowed);
}

TEST_F(AdmissionTest, CheckpointWritesCreditsForRealRulesOnly) {
  source_.add("alice", 10, 0);
  source_.add("bob", 20, 0);
  AdmissionController ac(clock_, source_, config());
  ac.check("alice");
  ac.check("alice");
  ac.check("bob");
  ac.check("unknown");  // default entry: not persisted

  FakeSink sink;
  EXPECT_EQ(ac.checkpoint_now(sink), 2u);
  EXPECT_DOUBLE_EQ(sink.credits_.at("alice"), 8.0);
  EXPECT_DOUBLE_EQ(sink.credits_.at("bob"), 19.0);
  EXPECT_EQ(sink.credits_.count("unknown"), 0u);
}

TEST_F(AdmissionTest, InvalidateForcesRefetch) {
  source_.add("alice", 10, 1);
  AdmissionController ac(clock_, source_, config());
  ac.check("alice");
  EXPECT_TRUE(ac.invalidate("alice"));
  EXPECT_FALSE(ac.invalidate("alice"));
  ac.check("alice");
  EXPECT_EQ(source_.fetches(), 2);
}

TEST_F(AdmissionTest, MetricsCountDecisions) {
  source_.add("alice", 1, 0);
  AdmissionController ac(clock_, source_, config());
  ac.check("alice");
  ac.check("alice");
  ac.check("ghost");
  auto snap = ac.metrics().snapshot();
  EXPECT_EQ(snap.at("admission.checks"), 3);
  EXPECT_EQ(snap.at("admission.allowed"), 1);
  EXPECT_EQ(snap.at("admission.denied"), 2);
  EXPECT_EQ(snap.at("admission.db_fetches"), 2);
  EXPECT_EQ(snap.at("admission.default_rules"), 1);
}

TEST_F(AdmissionTest, SingleShardConfigWorks) {
  AdmissionConfig cfg = config();
  cfg.table_shards = 1;  // the paper's global-lock setup
  source_.add("alice", 5, 0);
  AdmissionController ac(clock_, source_, cfg);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ac.check("alice").allowed);
  EXPECT_FALSE(ac.check("alice").allowed);
}

TEST_F(AdmissionTest, ConcurrentChecksNeverOverAdmit) {
  source_.add("shared", 1000, 0);
  AdmissionController ac(clock_, source_, config());
  constexpr int kThreads = 8;
  constexpr int kAttemptsPerThread = 1000;
  std::atomic<int> admitted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kAttemptsPerThread; ++i) {
        if (ac.check("shared").allowed) admitted.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  // Exactly the 1000 credits were granted — the composite read-modify-write
  // is atomic under the shard lock (the paper's core consistency claim).
  EXPECT_EQ(admitted.load(), 1000);
}

TEST_F(AdmissionTest, DbAdapterEndToEnd) {
  db::Database database;
  db::RuleStore store(database);
  ASSERT_TRUE(store.put({.key = "alice", .refill_per_sec = 0,
                         .capacity = 2, .credit = 2}).ok());
  DbRuleSource source(store);
  DbRuleSink sink(store);
  AdmissionController ac(clock_, source, config());
  EXPECT_TRUE(ac.check("alice").allowed);
  EXPECT_TRUE(ac.check("alice").allowed);
  EXPECT_FALSE(ac.check("alice").allowed);
  ac.checkpoint_now(sink);
  EXPECT_DOUBLE_EQ(store.get("alice")->credit, 0.0);

  // A replacement server warms from the checkpoint (§II-D).
  AdmissionController replacement(clock_, source, config());
  EXPECT_FALSE(replacement.check("alice").allowed);
}

}  // namespace
}  // namespace janus::core
