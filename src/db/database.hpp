// Multi-table database facade. All mutations flow through the Database so
// they are (a) WAL-logged when durability is enabled and (b) announced to
// observers — the replication stream for the Multi-AZ-style standby.
//
// Schemas are code, not data: callers re-create tables on startup and then
// recover() replays the WAL into them, mirroring how Janus provisions its
// qos_rules table (§III-D).
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/sync.hpp"
#include "db/serialize.hpp"
#include "db/table.hpp"
#include "db/wal.hpp"

namespace janus::db {

class Database {
 public:
  /// In-memory database (no durability).
  Database() = default;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Enable write-ahead logging to `path`. Call before the first mutation.
  Status enable_wal(const std::string& path);

  /// Replay an existing WAL file into the (already created) tables.
  /// Typically paired with enable_wal on the same path.
  Result<std::size_t> recover(const std::string& path);

  Status create_table(const std::string& name, Schema schema);
  bool has_table(std::string_view name) const;
  /// Read access to a table. Throws if absent (programmer error).
  const Table& table(std::string_view name) const;

  // -- Mutations (logged + replicated) --------------------------------------
  Status upsert(const std::string& table, Row row);
  /// Delete by PK. The value says whether a row existed; the delete is
  /// logged either way (removing a missing row is a replicated no-op).
  Result<bool> remove(const std::string& table, std::string_view pk);
  /// Single-column update, written in place and logged as a full-row upsert.
  Status update_column(const std::string& table, std::string_view pk,
                       std::string_view column, Value value);

  // -- Reads ----------------------------------------------------------------
  std::optional<Row> get(std::string_view table, std::string_view pk) const;
  void scan(std::string_view table,
            const std::function<void(const Row&)>& fn) const;
  std::size_t table_size(std::string_view table) const;

  /// Current log sequence number (monotonic; 0 = no mutations yet).
  std::uint64_t lsn() const { return lsn_.load(std::memory_order_acquire); }

  /// Observers see every applied mutation, in commit order, synchronously.
  using Observer = std::function<void(const LogRecord&)>;
  void add_observer(Observer obs);

  /// Apply a replicated record (standby side). Does not re-log by default.
  Status apply(const LogRecord& rec);

  // -- Snapshot / WAL compaction ---------------------------------------------
  // The check-pointing threads rewrite credits every few seconds (§II-D), so
  // the WAL grows without bound. snapshot_to() writes a point-in-time copy
  // of every table; compact_wal() additionally truncates the log, after
  // which recovery = load_snapshot() + recover(wal).

  /// Write all tables (names, schemas implied by caller, rows) to `path`.
  Status snapshot_to(const std::string& path) const;

  /// Replace the contents of already-created tables from a snapshot file.
  /// Tables present in the snapshot but not in this database are an error.
  Status load_snapshot(const std::string& path);

  /// snapshot_to(path) then truncate and reopen the WAL (requires WAL on).
  Status compact_wal(const std::string& snapshot_path);

 private:
  // Table pointers stay valid after commit_mu_ is released: tables_ maps to
  // stable unique_ptr targets and tables are never dropped once created.
  Table* find_table(std::string_view name);
  const Table* find_table(std::string_view name) const;
  Table* find_table_locked(std::string_view name)
      JANUS_REQUIRES(commit_mu_);
  const Table* find_table_locked(std::string_view name) const
      JANUS_REQUIRES(commit_mu_);
  /// Stamp the next LSN on an already-applied mutation, append it to the
  /// WAL and announce it to observers.
  Status log_locked(LogRecord& rec) JANUS_REQUIRES(commit_mu_);
  Status snapshot_locked(const std::string& path) const
      JANUS_REQUIRES(commit_mu_);

  // Serializes the WAL/observer sequence. Outermost database rank: commit
  // takes per-table locks (kDbTable) and the WAL lock (kDbWal) underneath.
  mutable Mutex commit_mu_{LockRank::kDbCommit, "db.commit"};
  // std::less<>: heterogeneous lookup, so find_table with a string literal
  // (RuleStore::kTableName on every first-touch rule fetch) never builds a
  // temporary std::string.
  std::map<std::string, std::unique_ptr<Table>, std::less<>> tables_
      JANUS_GUARDED_BY(commit_mu_);
  std::unique_ptr<Wal> wal_ JANUS_GUARDED_BY(commit_mu_);
  std::vector<Observer> observers_ JANUS_GUARDED_BY(commit_mu_);
  std::atomic<std::uint64_t> lsn_{0};
};

}  // namespace janus::db
