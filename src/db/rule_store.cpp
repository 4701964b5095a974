#include "db/rule_store.hpp"

#include <algorithm>
#include <fstream>

#include "common/string_util.hpp"

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

Status load_rules_file(RuleStore& store, const std::string& path) {
  std::ifstream in(path);
  if (!in) return Error("cannot open rules file: " + path);
  const bool recovered = store.size() > 0;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::string_view text = trim(line);
    if (text.empty() || text[0] == '#') continue;
    std::size_t eq = text.find('=');
    if (eq == std::string_view::npos) {
      return Error("rules line " + std::to_string(lineno) +
                   ": expected 'key = rate capacity [credit]'");
    }
    const std::string_view key = trim(text.substr(0, eq));
    // Up to three space-separated numbers; a fourth field is a format error.
    std::string_view fields[4];
    std::size_t nfields = 0;
    std::string_view rest = trim(text.substr(eq + 1));
    while (nfields < 4) {
      const std::size_t start = rest.find_first_not_of(' ');
      if (start == std::string_view::npos) break;
      rest.remove_prefix(start);
      const std::size_t end = std::min(rest.find(' '), rest.size());
      fields[nfields++] = rest.substr(0, end);
      rest.remove_prefix(end);
    }
    if (key.empty() || nfields < 2 || nfields > 3) {
      return Error("rules line " + std::to_string(lineno) + ": bad format");
    }
    auto rate = parse_double(fields[0]);
    auto capacity = parse_double(fields[1]);
    auto credit = nfields == 3 ? parse_double(fields[2]) : capacity;
    if (!rate || !capacity || !credit) {
      return Error("rules line " + std::to_string(lineno) + ": bad number");
    }
    if (recovered) {
      const auto row = store.get(key);
      if (row && row->refill_per_sec == *rate && row->capacity == *capacity) {
        continue;  // unchanged rule: keep the check-pointed credit
      }
    }
    if (auto s = store.put({.key = std::string(key), .refill_per_sec = *rate,
                            .capacity = *capacity, .credit = *credit});
        !s.ok()) {
      return Error("rules line " + std::to_string(lineno) + ": " +
                   s.error().message);
    }
  }
  return Status::success();
}

}  // namespace janus::db
