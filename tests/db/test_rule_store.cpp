#include "db/rule_store.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <latch>
#include <string>
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

// ---------------------------------------------------- load_rules_file

class RulesFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string stem =
        ::testing::TempDir() + "janus_rules_" + std::to_string(::getpid()) +
        "_" + ::testing::UnitTest::GetInstance()->current_test_info()->name();
    rules_path_ = stem + ".conf";
    wal_path_ = stem + ".wal";
    std::remove(rules_path_.c_str());
    std::remove(wal_path_.c_str());
  }
  void TearDown() override {
    std::remove(rules_path_.c_str());
    std::remove(wal_path_.c_str());
  }

  void write_rules(const std::string& text) {
    std::FILE* f = std::fopen(rules_path_.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(text.c_str(), f);
    std::fclose(f);
  }

  std::string rules_path_;
  std::string wal_path_;
};

TEST_F(RulesFileTest, ParsesRulesCommentsAndOptionalCredit) {
  write_rules("# tenants\n\nalice = 10 20\n  bob =  1   2  1 \n");
  Database db;
  RuleStore store(db);
  ASSERT_TRUE(load_rules_file(store, rules_path_).ok());
  EXPECT_EQ(store.get("alice"), (RuleRow{.key = "alice", .refill_per_sec = 10,
                                         .capacity = 20, .credit = 20}));
  EXPECT_EQ(store.get("bob"), (RuleRow{.key = "bob", .refill_per_sec = 1,
                                       .capacity = 2, .credit = 1}));
  EXPECT_EQ(store.size(), 2u);
}

TEST_F(RulesFileTest, ErrorsNameTheLine) {
  Database db;
  RuleStore store(db);
  write_rules("alice = 10 20\nbob 1 2\n");
  auto s = load_rules_file(store, rules_path_);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().message.find("rules line 2"), std::string::npos);
  write_rules("alice = 10 20 5 1\n");
  EXPECT_NE(load_rules_file(store, rules_path_).error().message.find(
                "bad format"),
            std::string::npos);
  write_rules("alice = ten 20\n");
  EXPECT_NE(load_rules_file(store, rules_path_).error().message.find(
                "bad number"),
            std::string::npos);
  write_rules("alice = 1 2 3\n");  // credit above capacity
  EXPECT_FALSE(load_rules_file(store, rules_path_).ok());
  EXPECT_FALSE(load_rules_file(store, rules_path_ + ".missing").ok());
}

TEST_F(RulesFileTest, RestartKeepsCheckpointedCreditAndDoesNotRelog) {
  // §II-D: a restarted server starts from the last check-pointed credit.
  // Reloading the unchanged rules file after WAL recovery must neither hand
  // the spent credit back nor append to the WAL.
  write_rules("alice = 0 10\nbob = 5 8\n");
  {
    Database db;
    ASSERT_TRUE(db.enable_wal(wal_path_).ok());
    RuleStore store(db);
    ASSERT_TRUE(load_rules_file(store, rules_path_).ok());
    ASSERT_TRUE(store.checkpoint_credit("alice", 0).ok());
    ASSERT_TRUE(store.checkpoint_credit("bob", 3).ok());
  }  // crash: nothing but the WAL survives
  const auto wal_bytes = std::filesystem::file_size(wal_path_);

  // The janusd order: the table exists before recovery replays into it.
  Database db;
  RuleStore store(db);
  ASSERT_TRUE(db.recover(wal_path_).ok());
  ASSERT_TRUE(db.enable_wal(wal_path_).ok());
  ASSERT_TRUE(load_rules_file(store, rules_path_).ok());
  EXPECT_EQ(store.get("alice")->credit, 0.0);
  EXPECT_EQ(store.get("bob")->credit, 3.0);
  EXPECT_EQ(std::filesystem::file_size(wal_path_), wal_bytes)
      << "reloading unchanged rules re-logged them";
}

TEST_F(RulesFileTest, ChangedOrNewRuleOverridesRecoveredRow) {
  write_rules("alice = 0 10\n");
  {
    Database db;
    ASSERT_TRUE(db.enable_wal(wal_path_).ok());
    RuleStore store(db);
    ASSERT_TRUE(load_rules_file(store, rules_path_).ok());
    ASSERT_TRUE(store.checkpoint_credit("alice", 0).ok());
  }
  // The operator raised alice's capacity and added carol: both take the
  // file's values.
  write_rules("alice = 0 20\ncarol = 1 4\n");
  Database db;
  RuleStore store(db);
  ASSERT_TRUE(db.recover(wal_path_).ok());
  ASSERT_TRUE(load_rules_file(store, rules_path_).ok());
  EXPECT_EQ(store.get("alice"), (RuleRow{.key = "alice", .refill_per_sec = 0,
                                         .capacity = 20, .credit = 20}));
  EXPECT_EQ(store.get("carol")->credit, 4.0);
}

}  // namespace
}  // namespace janus::db
