#include "db/table.hpp"

#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <random>
#include <thread>

namespace janus::db {
namespace {

Schema test_schema() {
  return Schema{{{"key", ColumnType::kString},
                 {"rate", ColumnType::kDouble},
                 {"count", ColumnType::kInt64}}};
}

Row row(const std::string& key, double rate, std::int64_t count) {
  return Row{key, rate, count};
}

TEST(SchemaTest, ColumnIndexLookup) {
  Schema s = test_schema();
  EXPECT_EQ(s.column_index("key"), 0u);
  EXPECT_EQ(s.column_index("rate"), 1u);
  EXPECT_EQ(s.column_index("count"), 2u);
  EXPECT_THROW(s.column_index("missing"), std::out_of_range);
}

TEST(SchemaTest, MatchesValidatesArityAndTypes) {
  Schema s = test_schema();
  EXPECT_TRUE(s.matches(row("a", 1.0, 2)));
  EXPECT_FALSE(s.matches(Row{std::string("a"), 1.0}));            // too short
  EXPECT_FALSE(s.matches(Row{std::string("a"), std::int64_t{1},  // wrong type
                             std::int64_t{2}}));
  EXPECT_FALSE(s.matches(Row{}));
}

TEST(TableTest, RequiresStringPrimaryKey) {
  EXPECT_THROW(Table("bad", Schema{{{"id", ColumnType::kInt64}}}),
               std::invalid_argument);
  EXPECT_THROW(Table("empty", Schema{}), std::invalid_argument);
}

TEST(TableTest, InsertAndGet) {
  Table t("t", test_schema());
  ASSERT_TRUE(t.insert(row("a", 1.5, 10)).ok());
  auto got = t.get("a");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(std::get<double>((*got)[1]), 1.5);
  EXPECT_EQ(std::get<std::int64_t>((*got)[2]), 10);
  EXPECT_EQ(t.get("missing"), std::nullopt);
}

TEST(TableTest, InsertRejectsDuplicateKey) {
  Table t("t", test_schema());
  ASSERT_TRUE(t.insert(row("a", 1.0, 1)).ok());
  auto s = t.insert(row("a", 2.0, 2));
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.error().message.find("duplicate"), std::string::npos);
  // Original row unchanged.
  EXPECT_EQ(std::get<double>((*t.get("a"))[1]), 1.0);
}

TEST(TableTest, InsertRejectsSchemaViolation) {
  Table t("t", test_schema());
  EXPECT_FALSE(t.insert(Row{std::string("a"), std::string("oops"),
                            std::int64_t{1}}).ok());
  EXPECT_EQ(t.size(), 0u);
}

TEST(TableTest, UpsertOverwrites) {
  Table t("t", test_schema());
  ASSERT_TRUE(t.upsert(row("a", 1.0, 1)).ok());
  ASSERT_TRUE(t.upsert(row("a", 2.0, 2)).ok());
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(std::get<double>((*t.get("a"))[1]), 2.0);
}

TEST(TableTest, UpdateColumn) {
  Table t("t", test_schema());
  ASSERT_TRUE(t.insert(row("a", 1.0, 1)).ok());
  ASSERT_TRUE(t.update_column("a", "rate", 9.5).ok());
  EXPECT_EQ(std::get<double>((*t.get("a"))[1]), 9.5);
  EXPECT_EQ(std::get<std::int64_t>((*t.get("a"))[2]), 1);  // untouched
}

TEST(TableTest, UpdateColumnErrors) {
  Table t("t", test_schema());
  ASSERT_TRUE(t.insert(row("a", 1.0, 1)).ok());
  EXPECT_FALSE(t.update_column("missing", "rate", 2.0).ok());
  EXPECT_FALSE(t.update_column("a", "nocolumn", 2.0).ok());
  EXPECT_FALSE(t.update_column("a", "rate", std::int64_t{2}).ok());  // type
  EXPECT_FALSE(t.update_column("a", "key", std::string("b")).ok());  // pk
}

TEST(TableTest, RemoveReportsExistence) {
  Table t("t", test_schema());
  ASSERT_TRUE(t.insert(row("a", 1.0, 1)).ok());
  EXPECT_TRUE(t.remove("a"));
  EXPECT_FALSE(t.remove("a"));
  EXPECT_EQ(t.get("a"), std::nullopt);
}

TEST(TableTest, ScanVisitsAllRows) {
  Table t("t", test_schema());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(t.insert(row("k" + std::to_string(i), i * 1.0, i)).ok());
  }
  std::int64_t sum = 0;
  std::size_t visits = 0;
  t.scan([&](const Row& r) {
    sum += std::get<std::int64_t>(r[2]);
    ++visits;
  });
  EXPECT_EQ(visits, 50u);
  EXPECT_EQ(sum, 49 * 50 / 2);
}

TEST(TableTest, DumpAndLoadRoundTrip) {
  Table a("a", test_schema());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(a.insert(row("k" + std::to_string(i), i * 0.5, i)).ok());
  }
  Table b("b", test_schema());
  ASSERT_TRUE(b.insert(row("stale", 0.0, 0)).ok());
  ASSERT_TRUE(b.load(a.dump()).ok());
  EXPECT_EQ(b.size(), 20u);
  EXPECT_EQ(b.get("stale"), std::nullopt);  // load replaces wholesale
  EXPECT_EQ(std::get<double>((*b.get("k3"))[1]), 1.5);
}

TEST(TableTest, LoadValidatesSchema) {
  Table t("t", test_schema());
  std::vector<Row> bad{{std::string("x"), std::string("wrong"),
                        std::int64_t{0}}};
  EXPECT_FALSE(t.load(std::move(bad)).ok());
}

TEST(TableTest, ConcurrentReadersAndWriters) {
  Table t("t", test_schema());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.insert(row("k" + std::to_string(i), 0.0, 0)).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> read_errors{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        auto got = t.get("k50");
        if (!got) read_errors.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 5000; ++i) {
      (void)t.update_column("k50", "count", static_cast<std::int64_t>(i));
    }
    stop.store(true);
  });
  for (auto& th : threads) th.join();
  EXPECT_EQ(read_errors.load(), 0);
  EXPECT_EQ(std::get<std::int64_t>((*t.get("k50"))[2]), 4999);
}

// ---- Randomized model check ------------------------------------------------
//
// The packed layout (cells, out-of-line strings, open-addressing index with
// backward-shift delete, row-id reuse) is checked against a std::map
// reference over a long seeded mix of every mutation and lookup. The key pool
// is small, so the same keys are removed and re-inserted many times: probe
// runs overlap, deletes shift entries back, freed row ids are reused and the
// index grows through several doublings.

Schema model_schema() {
  return Schema{{{"key", ColumnType::kString},
                 {"rate", ColumnType::kDouble},
                 {"count", ColumnType::kInt64},
                 {"note", ColumnType::kString}}};
}

std::vector<std::string> model_keys(std::size_t n) {
  std::vector<std::string> keys{""};  // the empty key is a valid PK
  for (std::size_t i = 1; i < n; ++i) {
    char uuid[40];
    std::snprintf(uuid, sizeof(uuid), "%08zx-0000-4000-8000-%012zx", i,
                  i * 2654435761u);
    keys.push_back(i % 3 == 0 ? uuid : "k" + std::to_string(i));
  }
  return keys;
}

std::map<std::string, Row> contents(const Table& t) {
  std::map<std::string, Row> out;
  t.scan([&](const Row& r) {
    EXPECT_TRUE(out.emplace(std::get<std::string>(r[0]), r).second);
  });
  return out;
}

TEST(TableModelTest, RandomOpsMatchMapReference) {
  Table t("t", model_schema());
  std::map<std::string, Row> ref;
  const std::vector<std::string> keys = model_keys(1500);
  std::mt19937_64 rng(20180910);
  std::uniform_int_distribution<std::size_t> pick_key(0, keys.size() - 1);
  std::uniform_int_distribution<int> pick_op(0, 99);
  std::uniform_int_distribution<int> pick_len(0, 40);

  auto random_row = [&](const std::string& key) {
    return Row{key, static_cast<double>(rng() % 1000) / 8.0,
               static_cast<std::int64_t>(rng()),
               std::string(static_cast<std::size_t>(pick_len(rng)),
                           static_cast<char>('a' + rng() % 26))};
  };

  constexpr int kOps = 240'000;
  for (int op = 0; op < kOps; ++op) {
    const std::string& key = keys[pick_key(rng)];
    // Alternate insert-heavy and delete-heavy phases so the table fills,
    // drains and refills.
    const bool draining = (op / 20'000) % 2 == 1;
    const int dice = pick_op(rng);
    const auto it = ref.find(key);
    if (dice < (draining ? 10 : 25)) {
      Row row = random_row(key);
      const bool ok = t.insert(row).ok();
      ASSERT_EQ(ok, it == ref.end()) << "insert " << key << " op " << op;
      if (ok) ref.emplace(key, std::move(row));
    } else if (dice < (draining ? 20 : 45)) {
      Row row = random_row(key);
      ASSERT_TRUE(t.upsert(row).ok());
      ref[key] = std::move(row);
    } else if (dice < 60) {
      const int col = 1 + static_cast<int>(rng() % 3);
      Value v = col == 1   ? Value{static_cast<double>(op)}
                : col == 2 ? Value{static_cast<std::int64_t>(op)}
                           : Value{std::string(
                                 static_cast<std::size_t>(pick_len(rng)), 'z')};
      Row updated;
      const bool ok =
          t.update_column(key, model_schema().columns[col].name, v, &updated)
              .ok();
      ASSERT_EQ(ok, it != ref.end()) << "update " << key << " op " << op;
      if (ok) {
        it->second[col] = v;
        ASSERT_EQ(updated, it->second);
      }
    } else if (dice < (draining ? 85 : 70)) {
      ASSERT_EQ(t.remove(key), it != ref.end()) << "remove " << key;
      if (it != ref.end()) ref.erase(it);
    } else {
      const auto got = t.get(key);
      ASSERT_EQ(got.has_value(), it != ref.end()) << "get " << key;
      if (got) {
        ASSERT_EQ(*got, it->second);
      }
    }
    if (op % 10'000 == 0) {
      ASSERT_EQ(t.size(), ref.size());
      ASSERT_EQ(contents(t), ref);
    }
  }
  ASSERT_EQ(t.size(), ref.size());
  ASSERT_EQ(contents(t), ref);
  for (const auto& key : keys) {
    const auto got = t.get(key);
    ASSERT_EQ(got.has_value(), ref.count(key) == 1) << key;
    if (got) {
      EXPECT_EQ(*got, ref.at(key));
    }
  }

  // dump -> load round trip into a table holding stale rows.
  Table copy("copy", model_schema());
  ASSERT_TRUE(copy.insert(Row{std::string("stale"), 0.0, std::int64_t{0},
                              std::string("x")}).ok());
  ASSERT_TRUE(copy.load(t.dump()).ok());
  EXPECT_EQ(copy.size(), ref.size());
  EXPECT_EQ(contents(copy), ref);
  EXPECT_EQ(copy.get("stale"), std::nullopt);
}

TEST(TableModelTest, FreedRowIdsAreReused) {
  Table t("t", model_schema());
  auto fill = [&](const std::string& prefix) {
    for (int i = 0; i < 5000; ++i) {
      ASSERT_TRUE(t.insert(Row{prefix + std::to_string(10000 + i), 1.0,
                               std::int64_t{i}, std::string("note")})
                      .ok());
    }
  };
  auto drain = [&](const std::string& prefix) {
    for (int i = 0; i < 5000; ++i) {
      ASSERT_TRUE(t.remove(prefix + std::to_string(10000 + i)));
    }
    EXPECT_EQ(t.size(), 0u);
  };
  // The first cycle sizes the free-id list; after it, refilling with rows
  // of the same shape must land in the freed rows and grow nothing.
  fill("a");
  drain("a");
  fill("b");
  const std::size_t steady = t.memory_bytes();
  drain("b");
  fill("c");
  EXPECT_EQ(t.size(), 5000u);
  // A new 1024-row chunk would add 32 KiB; string blocks may come back a
  // granule larger or smaller from the allocator.
  EXPECT_LT(t.memory_bytes(), steady + 1024);
  EXPECT_EQ(std::get<std::int64_t>((*t.get("c14999"))[2]), 4999);
  EXPECT_EQ(t.get("a10000"), std::nullopt);
  EXPECT_EQ(t.get("b10000"), std::nullopt);
}

// ---- Footprint -------------------------------------------------------------
//
// The qos_rules shape (36-byte UUID key + three doubles) must stay compact:
// a 1M-rule server's memory is this table. Node-based storage (a hash map of
// std::vector<Value> rows) measured ~360 B/row and fails this bound.

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define JANUS_TEST_SANITIZED_HEAP 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define JANUS_TEST_SANITIZED_HEAP 1
#endif
#endif

#ifndef JANUS_TEST_SANITIZED_HEAP
std::size_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}
#endif

TEST(TableFootprintTest, QosRuleRowsCostAtMost120Bytes) {
#ifdef JANUS_TEST_SANITIZED_HEAP
  GTEST_SKIP() << "the sanitizer's allocator does not report through mallinfo2";
#else
  constexpr std::size_t kRows = 100'000;
  std::vector<std::string> keys;
  keys.reserve(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    char uuid[40];
    std::snprintf(uuid, sizeof(uuid), "%08zx-%04zx-4000-8000-%012zx", i,
                  i % 0xffff, i * 2654435761u);
    keys.emplace_back(uuid);
    ASSERT_EQ(keys.back().size(), 36u);
  }
  const Schema schema{{{"key", ColumnType::kString},
                       {"refill_per_sec", ColumnType::kDouble},
                       {"capacity", ColumnType::kDouble},
                       {"credit", ColumnType::kDouble}}};
  Table t("qos_rules", schema);
  const std::size_t before = heap_in_use();
  for (const auto& key : keys) {
    ASSERT_TRUE(t.insert(Row{key, 10.0, 100.0, 100.0}).ok());
  }
  const std::size_t after = heap_in_use();
  ASSERT_EQ(t.size(), kRows);
  const double per_row =
      static_cast<double>(after - before) / static_cast<double>(kRows);
  EXPECT_LE(per_row, 120.0) << "heap bytes per row";
  std::printf("qos_rules footprint: %.1f heap bytes/row, memory_bytes %.1f/row\n",
              per_row, static_cast<double>(t.memory_bytes()) / kRows);
  // memory_bytes() is what server.db_bytes reports: it must account for
  // the heap the table really holds.
  EXPECT_NEAR(static_cast<double>(t.memory_bytes()),
              static_cast<double>(after - before),
              0.1 * static_cast<double>(after - before));
#endif
}

}  // namespace
}  // namespace janus::db
