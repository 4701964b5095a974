#include "db/rule_store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <thread>
#include <vector>

#include "db/replication.hpp"

namespace janus::db {
namespace {

RuleRow sample_rule() {
  return RuleRow{
      .key = "alice", .refill_per_sec = 100.0, .capacity = 1000.0,
      .credit = 1000.0};
}

TEST(RuleStoreTest, CreatesTableOnConstruction) {
  Database db;
  RuleStore store(db);
  EXPECT_TRUE(db.has_table(RuleStore::kTableName));
  EXPECT_EQ(store.size(), 0u);
}

TEST(RuleStoreTest, ReusesExistingTable) {
  Database db;
  RuleStore first(db);
  ASSERT_TRUE(first.put(sample_rule()).ok());
  RuleStore second(db);  // attach, don't wipe
  EXPECT_EQ(second.size(), 1u);
}

TEST(RuleStoreTest, PutGetRoundTrip) {
  Database db;
  RuleStore store(db);
  const RuleRow rule = sample_rule();
  ASSERT_TRUE(store.put(rule).ok());
  auto got = store.get("alice");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, rule);
}

TEST(RuleStoreTest, GetMissingKeyIsEmpty) {
  Database db;
  RuleStore store(db);
  EXPECT_EQ(store.get("ghost"), std::nullopt);
}

TEST(RuleStoreTest, PutValidatesRule) {
  Database db;
  RuleStore store(db);
  RuleRow bad = sample_rule();
  bad.key.clear();
  EXPECT_FALSE(store.put(bad).ok());
  bad = sample_rule();
  bad.capacity = -1;
  EXPECT_FALSE(store.put(bad).ok());
  bad = sample_rule();
  bad.refill_per_sec = -5;
  EXPECT_FALSE(store.put(bad).ok());
  bad = sample_rule();
  bad.credit = bad.capacity + 1;  // credit beyond capacity
  EXPECT_FALSE(store.put(bad).ok());
  bad = sample_rule();
  bad.credit = -0.5;
  EXPECT_FALSE(store.put(bad).ok());
}

TEST(RuleStoreTest, ZeroRuleIsValidDenyAll) {
  Database db;
  RuleStore store(db);
  // "zero capacity and zero refill rate to deny access" (§II-D).
  RuleRow deny{.key = "blocked", .refill_per_sec = 0, .capacity = 0,
               .credit = 0};
  EXPECT_TRUE(store.put(deny).ok());
  EXPECT_EQ(store.get("blocked")->capacity, 0.0);
}

TEST(RuleStoreTest, PutOverwrites) {
  Database db;
  RuleStore store(db);
  ASSERT_TRUE(store.put(sample_rule()).ok());
  RuleRow updated = sample_rule();
  updated.refill_per_sec = 500.0;
  ASSERT_TRUE(store.put(updated).ok());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_DOUBLE_EQ(store.get("alice")->refill_per_sec, 500.0);
}

TEST(RuleStoreTest, CheckpointCreditUpdatesOnlyCredit) {
  Database db;
  RuleStore store(db);
  ASSERT_TRUE(store.put(sample_rule()).ok());
  ASSERT_TRUE(store.checkpoint_credit("alice", 123.5).ok());
  auto got = store.get("alice");
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(got->credit, 123.5);
  EXPECT_DOUBLE_EQ(got->capacity, 1000.0);
  EXPECT_DOUBLE_EQ(got->refill_per_sec, 100.0);
}

TEST(RuleStoreTest, CheckpointMissingKeyFails) {
  Database db;
  RuleStore store(db);
  EXPECT_FALSE(store.checkpoint_credit("ghost", 1.0).ok());
}

TEST(RuleStoreTest, RemoveReportsExistence) {
  Database db;
  RuleStore store(db);
  ASSERT_TRUE(store.put(sample_rule()).ok());
  EXPECT_TRUE(store.remove("alice"));
  EXPECT_FALSE(store.remove("alice"));
  EXPECT_EQ(store.get("alice"), std::nullopt);
}

TEST(RuleStoreTest, ConcurrentRemoversExactlyOneWins) {
  // remove() is one locked delete, not a lookup followed by a delete: of
  // two threads removing the same rule, exactly one may report it removed.
  Database db;
  RuleStore store(db);
  for (int round = 0; round < 300; ++round) {
    ASSERT_TRUE(store.put(sample_rule()).ok());
    std::latch start(2);
    std::atomic<int> winners{0};
    std::vector<std::thread> removers;
    for (int t = 0; t < 2; ++t) {
      removers.emplace_back([&] {
        start.arrive_and_wait();
        if (store.remove("alice")) winners.fetch_add(1);
      });
    }
    for (auto& th : removers) th.join();
    ASSERT_EQ(winners.load(), 1) << "round " << round;
    ASSERT_EQ(store.get("alice"), std::nullopt);
  }
}

TEST(RuleStoreTest, ScanVisitsEveryRule) {
  Database db;
  RuleStore store(db);
  for (int i = 0; i < 30; ++i) {
    RuleRow r = sample_rule();
    r.key = "k" + std::to_string(i);
    r.refill_per_sec = i;
    r.credit = 0;
    ASSERT_TRUE(store.put(r).ok());
  }
  double rate_sum = 0;
  store.scan([&](const RuleRow& r) { rate_sum += r.refill_per_sec; });
  EXPECT_DOUBLE_EQ(rate_sum, 29.0 * 30 / 2);
}

TEST(RuleStoreTest, SchemaMatchesPaperColumns) {
  // §III-D: "four columns — the QoS key, the refill rate, the capacity of
  // the leaky bucket, and the remaining credit in the bucket."
  Schema s = RuleStore::schema();
  ASSERT_EQ(s.columns.size(), 4u);
  EXPECT_EQ(s.columns[0].name, "key");
  EXPECT_EQ(s.columns[1].name, "refill_per_sec");
  EXPECT_EQ(s.columns[2].name, "capacity");
  EXPECT_EQ(s.columns[3].name, "credit");
}

TEST(RuleStoreTest, WorksThroughReplicatedDatabase) {
  Database master, standby;
  RuleStore master_store(master);
  RuleStore standby_store(standby);
  Replicator repl(master, standby);
  ASSERT_TRUE(master_store.put(sample_rule()).ok());
  repl.pump();
  auto got = standby_store.get("alice");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, sample_rule());
}

}  // namespace
}  // namespace janus::db
