#include "db/database.hpp"

#include <stdexcept>

namespace janus::db {

Status Database::enable_wal(const std::string& path) {
  MutexLock lock(commit_mu_);
  auto wal = Wal::open(path);
  if (!wal.ok()) return Error(wal.error().message);
  wal_ = std::make_unique<Wal>(std::move(wal).take());
  return Status::success();
}

Result<std::size_t> Database::recover(const std::string& path) {
  std::uint64_t max_lsn = 0;
  auto applied = Wal::replay(path, [&](const LogRecord& rec) {
    Table* t = find_table(rec.table);
    if (!t) return;  // table dropped from the schema; skip its records
    if (rec.op == LogRecord::Op::kUpsert) {
      (void)t->upsert(rec.row);
    } else {
      (void)t->remove(rec.pk);
    }
    if (rec.lsn > max_lsn) max_lsn = rec.lsn;
  });
  if (!applied.ok()) return applied;
  if (max_lsn > lsn_.load()) lsn_.store(max_lsn, std::memory_order_release);
  return applied;
}

Status Database::create_table(const std::string& name, Schema schema) {
  MutexLock lock(commit_mu_);
  if (tables_.count(name)) return Error("table already exists: " + name);
  tables_[name] = std::make_unique<Table>(name, std::move(schema));
  return Status::success();
}

bool Database::has_table(std::string_view name) const {
  MutexLock lock(commit_mu_);
  return tables_.count(name) > 0;
}

const Table& Database::table(std::string_view name) const {
  const Table* t = find_table(name);
  if (!t) throw std::out_of_range("no table named " + std::string(name));
  return *t;
}

Table* Database::find_table(std::string_view name) {
  MutexLock lock(commit_mu_);
  return find_table_locked(name);
}

const Table* Database::find_table(std::string_view name) const {
  MutexLock lock(commit_mu_);
  return find_table_locked(name);
}

Table* Database::find_table_locked(std::string_view name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Database::find_table_locked(std::string_view name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Status Database::log_locked(LogRecord& rec) {
  rec.lsn = lsn_.load(std::memory_order_relaxed) + 1;
  if (wal_) {
    if (auto s = wal_->append(rec); !s.ok()) return s;
  }
  lsn_.store(rec.lsn, std::memory_order_release);
  for (const auto& obs : observers_) obs(rec);
  return Status::success();
}

Status Database::upsert(const std::string& table_name, Row row) {
  MutexLock lock(commit_mu_);
  Table* t = find_table_locked(table_name);
  if (!t) return Error("no table named " + table_name);
  // Apply first (validates schema) — only then log and announce.
  if (auto s = t->upsert(row); !s.ok()) return s;
  LogRecord rec;
  rec.op = LogRecord::Op::kUpsert;
  rec.table = table_name;
  rec.row = std::move(row);
  return log_locked(rec);
}

Result<bool> Database::remove(const std::string& table_name,
                              std::string_view pk) {
  MutexLock lock(commit_mu_);
  Table* t = find_table_locked(table_name);
  if (!t) return Error("no table named " + table_name);
  const bool existed = t->remove(pk);
  LogRecord rec;
  rec.op = LogRecord::Op::kRemove;
  rec.table = table_name;
  rec.pk = std::string(pk);
  if (auto s = log_locked(rec); !s.ok()) return s.error();
  return existed;
}

Status Database::update_column(const std::string& table_name,
                               std::string_view pk, std::string_view column,
                               Value value) {
  // Hold commit_mu_ across the write and the log: two concurrent
  // update_column calls touching different columns of the same row must log
  // rows in the order they were written, or a replayed WAL loses one update.
  MutexLock lock(commit_mu_);
  Table* t = find_table_locked(table_name);
  if (!t) return Error("no table named " + table_name);
  LogRecord rec;
  rec.op = LogRecord::Op::kUpsert;
  rec.table = table_name;
  // The full row is only materialized for a consumer: with no WAL and no
  // observer the check-point is one probe and one cell write.
  Row* logged = (wal_ || !observers_.empty()) ? &rec.row : nullptr;
  if (auto s = t->update_column(pk, column, std::move(value), logged);
      !s.ok()) {
    return s;
  }
  return log_locked(rec);
}

std::optional<Row> Database::get(std::string_view table_name,
                                 std::string_view pk) const {
  const Table* t = find_table(table_name);
  if (!t) return std::nullopt;
  return t->get(pk);
}

void Database::scan(std::string_view table_name,
                    const std::function<void(const Row&)>& fn) const {
  const Table* t = find_table(table_name);
  if (t) t->scan(fn);
}

std::size_t Database::table_size(std::string_view table_name) const {
  const Table* t = find_table(table_name);
  return t ? t->size() : 0;
}

void Database::add_observer(Observer obs) {
  MutexLock lock(commit_mu_);
  observers_.push_back(std::move(obs));
}

namespace {
constexpr std::uint32_t kSnapshotMagic = 0x4A444253;  // "JDBS"
}  // namespace

Status Database::snapshot_locked(const std::string& path) const {
  ByteWriter w;
  w.u32(kSnapshotMagic);
  w.u32(static_cast<std::uint32_t>(tables_.size()));
  for (const auto& [name, table] : tables_) {
    w.str(name);
    const auto rows = table->dump();
    w.u32(static_cast<std::uint32_t>(rows.size()));
    for (const auto& row : rows) w.row(row);
  }

  // Write-then-rename so a crash mid-snapshot never corrupts the previous
  // snapshot file.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return Error("snapshot: cannot open " + tmp);
  const auto& bytes = w.bytes();
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (!wrote || !flushed) {
    std::remove(tmp.c_str());
    return Error("snapshot: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Error("snapshot: rename to " + path + " failed");
  }
  return Status::success();
}

Status Database::snapshot_to(const std::string& path) const {
  MutexLock lock(commit_mu_);
  return snapshot_locked(path);
}

Status Database::load_snapshot(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return Error("snapshot: cannot open " + path);
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[64 * 1024];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);

  ByteReader r(bytes);
  std::uint32_t magic = 0;
  std::uint32_t table_count = 0;
  if (!r.u32(magic) || magic != kSnapshotMagic) {
    return Error("snapshot: bad magic in " + path);
  }
  if (!r.u32(table_count)) return Error("snapshot: truncated header");

  MutexLock lock(commit_mu_);
  for (std::uint32_t t = 0; t < table_count; ++t) {
    std::string name;
    std::uint32_t row_count = 0;
    if (!r.str(name) || !r.u32(row_count)) {
      return Error("snapshot: truncated table header");
    }
    auto it = tables_.find(name);
    if (it == tables_.end()) {
      return Error("snapshot: no table named " + name +
                   " (create schemas before loading)");
    }
    std::vector<Row> rows;
    rows.reserve(row_count);
    for (std::uint32_t i = 0; i < row_count; ++i) {
      Row row;
      if (!r.row(row)) return Error("snapshot: truncated row");
      rows.push_back(std::move(row));
    }
    if (auto s = it->second->load(std::move(rows)); !s.ok()) return s;
  }
  if (!r.at_end()) return Error("snapshot: trailing bytes");
  return Status::success();
}

Status Database::compact_wal(const std::string& snapshot_path) {
  MutexLock lock(commit_mu_);
  if (!wal_) return Error("compact: WAL is not enabled");
  if (auto s = snapshot_locked(snapshot_path); !s.ok()) return s;
  const std::string wal_path = wal_->path();
  wal_.reset();  // close
  if (std::remove(wal_path.c_str()) != 0) {
    return Error("compact: cannot remove " + wal_path);
  }
  auto reopened = Wal::open(wal_path);
  if (!reopened.ok()) return Error(reopened.error().message);
  wal_ = std::make_unique<Wal>(std::move(reopened).take());
  return Status::success();
}

Status Database::apply(const LogRecord& rec) {
  MutexLock lock(commit_mu_);
  auto it = tables_.find(rec.table);
  if (it == tables_.end()) return Error("apply: no table named " + rec.table);
  Table& t = *it->second;
  if (rec.op == LogRecord::Op::kUpsert) {
    if (auto s = t.upsert(rec.row); !s.ok()) return s;
  } else {
    t.remove(rec.pk);
  }
  if (rec.lsn > lsn_.load(std::memory_order_relaxed)) {
    lsn_.store(rec.lsn, std::memory_order_release);
  }
  return Status::success();
}

}  // namespace janus::db
