// In-memory table with an open-addressing primary-key index. Thread-safe: a
// shared_mutex allows concurrent point reads (the QoS servers' first-touch
// lookups) while writes (rule edits, check-points) take the exclusive lock.
// Matches the paper's observation that the DB sees only a light workload
// (§V intro).
//
// Layout (sized for the 1M-rule qos_rules table at ~90 B/row instead of the
// ~360 B a node-based hash map of std::vector<Value> rows costs):
//   - each row is ncols fixed 8-byte cells in 1024-row chunks, so growth
//     never copies existing rows: int64 and double bits inline, a string
//     column as the address of an out-of-line [u32 len][bytes] block;
//   - the primary key is stored once, as cell 0 (0 marks a freed row);
//   - the PK index is a power-of-two array of 32-bit row ids, probed
//     linearly, kept at most half full, with backward-shift delete (no
//     tombstones);
//   - freed row ids are reused before the chunks grow.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/sync.hpp"
#include "db/value.hpp"

namespace janus::db {

class Table {
 public:
  Table(std::string name, Schema schema);
  ~Table();

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Insert a new row. Fails if the PK already exists or the row does not
  /// match the schema.
  Status insert(const Row& row);

  /// Insert or overwrite by PK.
  Status upsert(const Row& row);

  /// Point lookup by primary key.
  std::optional<Row> get(std::string_view pk) const;

  /// Update a single column of an existing row in place. Fails on missing
  /// row, unknown column, or type mismatch. This is the check-pointing
  /// operation ("UPDATE qos_rules SET credit=? WHERE key=?"). When `updated`
  /// is non-null it receives the whole row as written, from the same probe
  /// under the same lock.
  Status update_column(std::string_view pk, std::string_view column,
                       Value value, Row* updated = nullptr);

  /// Delete by PK; returns false if the row did not exist.
  bool remove(std::string_view pk);

  /// Full scan ("SELECT * FROM qos_rules"); visits rows in unspecified order.
  /// The callback must not call back into the table.
  void scan(const std::function<void(const Row&)>& fn) const;

  std::size_t size() const;

  /// Bytes the layout holds: row chunks, index and free-id arrays at their
  /// capacities, plus what the allocator spends on every string block.
  std::size_t memory_bytes() const;

  /// Copy out all rows (snapshot support).
  std::vector<Row> dump() const;

  /// Replace contents wholesale (snapshot restore). Rows must match schema.
  Status load(std::vector<Row> rows);

 private:
  using Cell = std::uint64_t;
  using RowId = std::uint32_t;
  static constexpr RowId kNoRow = UINT32_MAX;  // empty index slot
  static constexpr unsigned kChunkShift = 10;
  static constexpr RowId kChunkRows = RowId{1} << kChunkShift;
  static constexpr std::size_t kMinSlots = 8;

  static std::string_view string_at(Cell cell);
  Cell store_string(std::string_view s) JANUS_REQUIRES(mu_);
  void drop_string(Cell cell) JANUS_REQUIRES(mu_);
  Cell encode(const Value& v) JANUS_REQUIRES(mu_);

  Cell* cells_of(RowId id) JANUS_REQUIRES(mu_) {
    return chunks_[id >> kChunkShift].get() + (id & (kChunkRows - 1)) * ncols_;
  }
  const Cell* cells_of(RowId id) const JANUS_REQUIRES_SHARED(mu_) {
    return chunks_[id >> kChunkShift].get() + (id & (kChunkRows - 1)) * ncols_;
  }
  std::string_view key_of(RowId id) const JANUS_REQUIRES_SHARED(mu_) {
    return string_at(cells_of(id)[0]);
  }
  void decode_into(RowId id, Row& out) const JANUS_REQUIRES_SHARED(mu_);

  /// Slot holding `pk`, or the empty slot that ends its probe chain.
  /// Requires a non-empty index.
  std::size_t find_slot(std::string_view pk) const JANUS_REQUIRES_SHARED(mu_);
  /// Rebuild the index at `slot_count` (a power of two) from the live rows.
  void rehash(std::size_t slot_count) JANUS_REQUIRES(mu_);
  /// Empty `slot` and shift later members of its probe run back into it.
  void erase_slot(std::size_t slot) JANUS_REQUIRES(mu_);

  Status put_locked(const Row& row, bool overwrite) JANUS_REQUIRES(mu_);
  void release_row(RowId id) JANUS_REQUIRES(mu_);
  void clear_locked() JANUS_REQUIRES(mu_);

  std::string name_;
  Schema schema_;
  std::size_t ncols_;
  mutable SharedMutex mu_{LockRank::kDbTable, "db.table"};
  std::vector<std::unique_ptr<Cell[]>> chunks_ JANUS_GUARDED_BY(mu_);
  RowId next_row_ JANUS_GUARDED_BY(mu_) = 0;  // ids below were handed out
  std::vector<RowId> free_ids_ JANUS_GUARDED_BY(mu_);
  std::vector<RowId> slots_ JANUS_GUARDED_BY(mu_);
  std::size_t live_ JANUS_GUARDED_BY(mu_) = 0;
  std::size_t string_bytes_ JANUS_GUARDED_BY(mu_) = 0;
};

}  // namespace janus::db
