// The qos_rules table (paper §III-D): "four columns — the QoS key, the refill
// rate, the capacity of the leaky bucket, and the remaining credit in the
// bucket", keyed by the QoS key. RuleStore is the typed facade the QoS
// servers use for first-touch lookup, periodic sync, and check-pointing.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "db/database.hpp"

namespace janus::db {

/// One row of qos_rules. Rates/credits are doubles, like the paper's
/// requests-per-second quotas; credit is the last check-pointed water level.
struct RuleRow {
  std::string key;
  double refill_per_sec = 0.0;
  double capacity = 0.0;
  double credit = 0.0;

  bool operator==(const RuleRow&) const = default;
};

class RuleStore {
 public:
  static constexpr const char* kTableName = "qos_rules";

  /// Creates the qos_rules table in `db` if it does not exist yet.
  explicit RuleStore(Database& db);

  static Schema schema();

  /// SELECT * FROM qos_rules WHERE key = ? (first-touch lookup).
  std::optional<RuleRow> get(std::string_view key) const;

  /// INSERT ... ON DUPLICATE KEY UPDATE (rule provisioning). Takes the rule
  /// by value so a caller done with it moves the key all the way into the
  /// logged row.
  Status put(RuleRow rule);

  /// UPDATE qos_rules SET credit = ? WHERE key = ? (check-pointing).
  Status checkpoint_credit(std::string_view key, double credit);

  /// DELETE FROM qos_rules WHERE key = ?. True for exactly one of any
  /// number of concurrent removers of the same row.
  bool remove(std::string_view key);

  /// SELECT * FROM qos_rules (warm-up load, §III-D).
  void scan(const std::function<void(const RuleRow&)>& fn) const;

  std::size_t size() const;

  /// Bytes the qos_rules table holds (Table::memory_bytes).
  std::size_t memory_bytes() const;

  Database& database() { return db_; }

 private:
  static Row to_row(RuleRow&& rule);
  static RuleRow from_row(Row row);

  Database& db_;
  // Reads go straight to the table (tables are never dropped), skipping
  // the database's name lookup under its commit lock.
  const Table& table_;
};

/// Provision `store` from a rules file: one `key = rate capacity [credit]`
/// rule per line (credit defaults to capacity), `#` comments and blank
/// lines skipped. Errors name the offending line.
///
/// A restarted server starts from the last check-pointed credit (§II-D,
/// DbRuleSource), so when the store already holds rows — WAL recovery ran
/// first — a line whose rate and capacity match the stored row keeps that
/// row, credit and all, and is not logged again. Any other line is upserted
/// with the file's credit. An empty store (no WAL, or a fresh one) skips
/// the lookup entirely.
Status load_rules_file(RuleStore& store, const std::string& path);

}  // namespace janus::db
