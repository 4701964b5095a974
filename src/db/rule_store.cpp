#include "db/rule_store.hpp"

namespace janus::db {

namespace {

const Table& ensure_table(Database& db) {
  if (!db.has_table(RuleStore::kTableName)) {
    // Creation cannot fail here: we just checked absence and hold no lock
    // races on setup paths (RuleStore construction is a setup-time act).
    (void)db.create_table(RuleStore::kTableName, RuleStore::schema());
  }
  return db.table(RuleStore::kTableName);
}

}  // namespace

RuleStore::RuleStore(Database& db) : db_(db), table_(ensure_table(db)) {}

Schema RuleStore::schema() {
  return Schema{{
      {"key", ColumnType::kString},
      {"refill_per_sec", ColumnType::kDouble},
      {"capacity", ColumnType::kDouble},
      {"credit", ColumnType::kDouble},
  }};
}

Row RuleStore::to_row(RuleRow&& rule) {
  // Not Row{...}: an initializer list would copy the key.
  Row row;
  row.reserve(4);
  row.emplace_back(std::move(rule.key));
  row.emplace_back(rule.refill_per_sec);
  row.emplace_back(rule.capacity);
  row.emplace_back(rule.credit);
  return row;
}

RuleRow RuleStore::from_row(Row row) {
  return RuleRow{
      .key = std::get<std::string>(std::move(row[0])),
      .refill_per_sec = std::get<double>(row[1]),
      .capacity = std::get<double>(row[2]),
      .credit = std::get<double>(row[3]),
  };
}

std::optional<RuleRow> RuleStore::get(std::string_view key) const {
  auto row = table_.get(key);
  if (!row) return std::nullopt;
  return from_row(std::move(*row));
}

Status RuleStore::put(RuleRow rule) {
  if (rule.key.empty()) return Error("rule: empty key");
  if (rule.capacity < 0 || rule.refill_per_sec < 0) {
    return Error("rule: negative capacity or refill rate");
  }
  if (rule.credit < 0 || rule.credit > rule.capacity) {
    return Error("rule: credit outside [0, capacity]");
  }
  return db_.upsert(kTableName, to_row(std::move(rule)));
}

Status RuleStore::checkpoint_credit(std::string_view key, double credit) {
  return db_.update_column(kTableName, key, "credit", credit);
}

bool RuleStore::remove(std::string_view key) {
  auto removed = db_.remove(kTableName, key);
  return removed.ok() && removed.value();
}

void RuleStore::scan(const std::function<void(const RuleRow&)>& fn) const {
  table_.scan([&](const Row& row) { fn(from_row(row)); });
}

std::size_t RuleStore::size() const { return table_.size(); }

std::size_t RuleStore::memory_bytes() const { return table_.memory_bytes(); }

}  // namespace janus::db
