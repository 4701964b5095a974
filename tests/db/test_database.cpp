#include "db/database.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>

namespace janus::db {
namespace {

Schema rules_schema() {
  return Schema{{{"key", ColumnType::kString},
                 {"rate", ColumnType::kDouble}}};
}

TEST(DatabaseTest, CreateTableOnce) {
  Database db;
  EXPECT_TRUE(db.create_table("t", rules_schema()).ok());
  EXPECT_FALSE(db.create_table("t", rules_schema()).ok());
  EXPECT_TRUE(db.has_table("t"));
  EXPECT_FALSE(db.has_table("u"));
}

TEST(DatabaseTest, TableAccessorThrowsOnMissing) {
  Database db;
  EXPECT_THROW(db.table("missing"), std::out_of_range);
}

TEST(DatabaseTest, UpsertGetRemove) {
  Database db;
  ASSERT_TRUE(db.create_table("t", rules_schema()).ok());
  ASSERT_TRUE(db.upsert("t", Row{std::string("a"), 1.0}).ok());
  auto got = db.get("t", "a");
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(std::get<double>((*got)[1]), 1.0);
  ASSERT_TRUE(db.remove("t", "a").ok());
  EXPECT_EQ(db.get("t", "a"), std::nullopt);
}

TEST(DatabaseTest, RemoveReportsWhetherRowExisted) {
  Database db;
  ASSERT_TRUE(db.create_table("t", rules_schema()).ok());
  ASSERT_TRUE(db.upsert("t", Row{std::string("a"), 1.0}).ok());
  std::vector<LogRecord> log;
  db.add_observer([&](const LogRecord& rec) { log.push_back(rec); });
  auto first = db.remove("t", "a");
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value());
  auto second = db.remove("t", "a");
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value());
  // Both deletes are logged: removing a missing row is a replicated no-op.
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1].op, LogRecord::Op::kRemove);
  EXPECT_EQ(log[1].pk, "a");
  EXPECT_EQ(db.lsn(), 3u);
}

TEST(DatabaseTest, MutationsOnMissingTableFail) {
  Database db;
  EXPECT_FALSE(db.upsert("nope", Row{std::string("a"), 1.0}).ok());
  EXPECT_FALSE(db.remove("nope", "a").ok());
  EXPECT_EQ(db.get("nope", "a"), std::nullopt);
}

TEST(DatabaseTest, LsnAdvancesPerCommit) {
  Database db;
  ASSERT_TRUE(db.create_table("t", rules_schema()).ok());
  EXPECT_EQ(db.lsn(), 0u);
  ASSERT_TRUE(db.upsert("t", Row{std::string("a"), 1.0}).ok());
  EXPECT_EQ(db.lsn(), 1u);
  ASSERT_TRUE(db.remove("t", "a").ok());
  EXPECT_EQ(db.lsn(), 2u);
  // Failed commits don't advance.
  ASSERT_FALSE(db.upsert("t", Row{std::string("bad")}).ok());
  EXPECT_EQ(db.lsn(), 2u);
}

TEST(DatabaseTest, ObserverSeesCommitsInOrder) {
  Database db;
  ASSERT_TRUE(db.create_table("t", rules_schema()).ok());
  std::vector<std::uint64_t> lsns;
  db.add_observer([&](const LogRecord& rec) { lsns.push_back(rec.lsn); });
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db.upsert("t", Row{std::string("k" + std::to_string(i)),
                                   1.0 * i}).ok());
  }
  ASSERT_EQ(lsns.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(lsns[i], i + 1);
}

TEST(DatabaseTest, UpdateColumnCommitsFullRow) {
  Database db;
  ASSERT_TRUE(db.create_table("t", rules_schema()).ok());
  ASSERT_TRUE(db.upsert("t", Row{std::string("a"), 1.0}).ok());
  LogRecord last;
  db.add_observer([&](const LogRecord& rec) { last = rec; });
  ASSERT_TRUE(db.update_column("t", "a", "rate", 7.5).ok());
  EXPECT_EQ(last.op, LogRecord::Op::kUpsert);
  EXPECT_EQ(last.table, "t");
  EXPECT_EQ(last.row, (Row{std::string("a"), 7.5}));
  EXPECT_DOUBLE_EQ(std::get<double>(last.row[1]), 7.5);
  EXPECT_DOUBLE_EQ(std::get<double>((*db.get("t", "a"))[1]), 7.5);
}

TEST(DatabaseTest, UpdateColumnErrors) {
  Database db;
  ASSERT_TRUE(db.create_table("t", rules_schema()).ok());
  EXPECT_FALSE(db.update_column("t", "missing", "rate", 1.0).ok());
  ASSERT_TRUE(db.upsert("t", Row{std::string("a"), 1.0}).ok());
  EXPECT_FALSE(db.update_column("t", "a", "bogus", 1.0).ok());
  EXPECT_FALSE(db.update_column("t", "a", "rate", std::int64_t{1}).ok());
  EXPECT_FALSE(db.update_column("t", "a", "key", std::string("b")).ok());
}

TEST(DatabaseTest, ApplyReplicatedRecord) {
  Database db;
  ASSERT_TRUE(db.create_table("t", rules_schema()).ok());
  LogRecord rec{.lsn = 44,
                .op = LogRecord::Op::kUpsert,
                .table = "t",
                .row = Row{std::string("x"), 2.0},
                .pk = {}};
  ASSERT_TRUE(db.apply(rec).ok());
  EXPECT_TRUE(db.get("t", "x").has_value());
  EXPECT_EQ(db.lsn(), 44u);  // follows the master's lsn
}

TEST(DatabaseTest, ScanAndSize) {
  Database db;
  ASSERT_TRUE(db.create_table("t", rules_schema()).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.upsert("t", Row{std::string("k" + std::to_string(i)),
                                   1.0}).ok());
  }
  EXPECT_EQ(db.table_size("t"), 10u);
  std::size_t visited = 0;
  db.scan("t", [&](const Row&) { ++visited; });
  EXPECT_EQ(visited, 10u);
  EXPECT_EQ(db.table_size("ghost"), 0u);
}

class DatabaseWalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "janus_dbwal_" + std::to_string(::getpid()) +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".log";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(DatabaseWalTest, RecoverRebuildsState) {
  {
    Database db;
    ASSERT_TRUE(db.create_table("t", rules_schema()).ok());
    ASSERT_TRUE(db.enable_wal(path_).ok());
    ASSERT_TRUE(db.upsert("t", Row{std::string("a"), 1.0}).ok());
    ASSERT_TRUE(db.upsert("t", Row{std::string("b"), 2.0}).ok());
    ASSERT_TRUE(db.update_column("t", "a", "rate", 9.0).ok());
    ASSERT_TRUE(db.remove("t", "b").ok());
  }
  Database recovered;
  ASSERT_TRUE(recovered.create_table("t", rules_schema()).ok());
  auto n = recovered.recover(path_);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 4u);
  EXPECT_EQ(recovered.lsn(), 4u);
  EXPECT_DOUBLE_EQ(std::get<double>((*recovered.get("t", "a"))[1]), 9.0);
  EXPECT_EQ(recovered.get("t", "b"), std::nullopt);
}

TEST_F(DatabaseWalTest, RecoverThenContinueAppending) {
  {
    Database db;
    ASSERT_TRUE(db.create_table("t", rules_schema()).ok());
    ASSERT_TRUE(db.enable_wal(path_).ok());
    ASSERT_TRUE(db.upsert("t", Row{std::string("a"), 1.0}).ok());
  }
  {
    Database db;
    ASSERT_TRUE(db.create_table("t", rules_schema()).ok());
    ASSERT_TRUE(db.recover(path_).ok());
    ASSERT_TRUE(db.enable_wal(path_).ok());
    ASSERT_TRUE(db.upsert("t", Row{std::string("b"), 2.0}).ok());
    EXPECT_EQ(db.lsn(), 2u);
  }
  Database final_db;
  ASSERT_TRUE(final_db.create_table("t", rules_schema()).ok());
  auto n = final_db.recover(path_);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 2u);
  EXPECT_TRUE(final_db.get("t", "a").has_value());
  EXPECT_TRUE(final_db.get("t", "b").has_value());
}

}  // namespace
}  // namespace janus::db
