#include "db/table.hpp"

#include <malloc.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>

#include "common/transparent_hash.hpp"

namespace janus::db {

static_assert(sizeof(void*) <= sizeof(std::uint64_t),
              "a string cell holds its block's address");

namespace {

/// What a string block costs the allocator: its usable size plus the
/// per-block size header.
std::size_t block_bytes(void* block) {
  return malloc_usable_size(block) + sizeof(std::size_t);
}

}  // namespace

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      ncols_(schema_.columns.size()) {
  if (schema_.columns.empty() ||
      schema_.columns[0].type != ColumnType::kString) {
    throw std::invalid_argument(
        "table " + name_ + ": column 0 must be a string primary key");
  }
}

Table::~Table() {
  WriterLock lock(mu_);
  clear_locked();
}

std::string_view Table::string_at(Cell cell) {
  const char* block = reinterpret_cast<const char*>(cell);
  std::uint32_t len = 0;
  std::memcpy(&len, block, sizeof(len));
  return {block + sizeof(len), len};
}

Table::Cell Table::store_string(std::string_view s) {
  if (s.size() > UINT32_MAX) throw std::length_error("db: string too long");
  const auto len = static_cast<std::uint32_t>(s.size());
  char* block = static_cast<char*>(std::malloc(sizeof(len) + s.size()));
  if (block == nullptr) throw std::bad_alloc();
  std::memcpy(block, &len, sizeof(len));
  if (!s.empty()) std::memcpy(block + sizeof(len), s.data(), s.size());
  string_bytes_ += block_bytes(block);
  return reinterpret_cast<Cell>(block);
}

void Table::drop_string(Cell cell) {
  void* block = reinterpret_cast<void*>(cell);
  string_bytes_ -= block_bytes(block);
  std::free(block);
}

Table::Cell Table::encode(const Value& v) {
  switch (type_of(v)) {
    case ColumnType::kInt64:
      return std::bit_cast<Cell>(std::get<std::int64_t>(v));
    case ColumnType::kDouble:
      return std::bit_cast<Cell>(std::get<double>(v));
    case ColumnType::kString:
      return store_string(std::get<std::string>(v));
  }
  return 0;
}

void Table::decode_into(RowId id, Row& out) const {
  out.resize(ncols_);
  const Cell* cells = cells_of(id);
  for (std::size_t c = 0; c < ncols_; ++c) {
    switch (schema_.columns[c].type) {
      case ColumnType::kInt64:
        out[c] = std::bit_cast<std::int64_t>(cells[c]);
        break;
      case ColumnType::kDouble:
        out[c] = std::bit_cast<double>(cells[c]);
        break;
      case ColumnType::kString:
        // scan() reuses one Row: assign into the string it already holds.
        if (auto* s = std::get_if<std::string>(&out[c])) {
          s->assign(string_at(cells[c]));
        } else {
          out[c].emplace<std::string>(string_at(cells[c]));
        }
        break;
    }
  }
}

std::size_t Table::find_slot(std::string_view pk) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = TransparentStringHash::hash_bytes(pk) & mask;
  while (slots_[i] != kNoRow && key_of(slots_[i]) != pk) i = (i + 1) & mask;
  return i;
}

void Table::rehash(std::size_t slot_count) {
  std::vector<RowId>().swap(slots_);  // free the old index before the new
  slots_.assign(slot_count, kNoRow);
  const std::size_t mask = slot_count - 1;
  for (RowId id = 0; id < next_row_; ++id) {
    if (cells_of(id)[0] == 0) continue;
    std::size_t i = TransparentStringHash::hash_bytes(key_of(id)) & mask;
    while (slots_[i] != kNoRow) i = (i + 1) & mask;
    slots_[i] = id;
  }
}

void Table::erase_slot(std::size_t hole) {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = (hole + 1) & mask; slots_[i] != kNoRow;
       i = (i + 1) & mask) {
    const std::size_t home =
        TransparentStringHash::hash_bytes(key_of(slots_[i])) & mask;
    // The entry may fill the hole only if the hole lies on its probe path,
    // i.e. between its home slot and where it sits now.
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole] = kNoRow;
}

Status Table::put_locked(const Row& row, bool overwrite) {
  if ((live_ + 1) * 2 > slots_.size()) {
    rehash(std::max(kMinSlots, slots_.size() * 2));
  }
  const std::string& pk = std::get<std::string>(row[0]);
  const std::size_t slot = find_slot(pk);
  if (slots_[slot] != kNoRow) {
    if (!overwrite) return Error("insert: duplicate primary key '" + pk + "'");
    Cell* cells = cells_of(slots_[slot]);
    for (std::size_t c = 1; c < ncols_; ++c) {
      const Cell fresh = encode(row[c]);
      if (schema_.columns[c].type == ColumnType::kString) {
        drop_string(cells[c]);
      }
      cells[c] = fresh;
    }
    return Status::success();
  }

  RowId id = kNoRow;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    if (next_row_ == kNoRow) return Error("table " + name_ + " is full");
    if ((next_row_ & (kChunkRows - 1)) == 0) {
      chunks_.emplace_back(new Cell[kChunkRows * ncols_]);
    }
    id = next_row_++;
  }
  Cell* cells = cells_of(id);
  for (std::size_t c = 0; c < ncols_; ++c) cells[c] = encode(row[c]);
  slots_[slot] = id;
  ++live_;
  return Status::success();
}

void Table::release_row(RowId id) {
  Cell* cells = cells_of(id);
  for (std::size_t c = 0; c < ncols_; ++c) {
    if (schema_.columns[c].type == ColumnType::kString) drop_string(cells[c]);
  }
  cells[0] = 0;
}

void Table::clear_locked() {
  for (RowId id = 0; id < next_row_; ++id) {
    if (cells_of(id)[0] != 0) release_row(id);
  }
  std::vector<std::unique_ptr<Cell[]>>().swap(chunks_);
  std::vector<RowId>().swap(free_ids_);
  std::vector<RowId>().swap(slots_);
  next_row_ = 0;
  live_ = 0;
}

Status Table::insert(const Row& row) {
  if (!schema_.matches(row)) return Error("insert: row does not match schema");
  WriterLock lock(mu_);
  return put_locked(row, /*overwrite=*/false);
}

Status Table::upsert(const Row& row) {
  if (!schema_.matches(row)) return Error("upsert: row does not match schema");
  WriterLock lock(mu_);
  return put_locked(row, /*overwrite=*/true);
}

std::optional<Row> Table::get(std::string_view pk) const {
  ReaderLock lock(mu_);
  if (live_ == 0) return std::nullopt;
  const RowId id = slots_[find_slot(pk)];
  if (id == kNoRow) return std::nullopt;
  Row row;
  decode_into(id, row);
  return row;
}

Status Table::update_column(std::string_view pk, std::string_view column,
                            Value value, Row* updated) {
  std::size_t col;
  try {
    col = schema_.column_index(column);
  } catch (const std::out_of_range&) {
    return Error("update: unknown column '" + std::string(column) + "'");
  }
  if (col == 0) return Error("update: cannot modify the primary key");
  if (type_of(value) != schema_.columns[col].type) {
    return Error("update: type mismatch for column '" + std::string(column) + "'");
  }
  WriterLock lock(mu_);
  const RowId id = live_ == 0 ? kNoRow : slots_[find_slot(pk)];
  if (id == kNoRow) {
    return Error("update: no row with key '" + std::string(pk) + "'");
  }
  Cell& cell = cells_of(id)[col];
  const Cell fresh = encode(value);
  if (schema_.columns[col].type == ColumnType::kString) drop_string(cell);
  cell = fresh;
  if (updated != nullptr) decode_into(id, *updated);
  return Status::success();
}

bool Table::remove(std::string_view pk) {
  WriterLock lock(mu_);
  if (live_ == 0) return false;
  const std::size_t slot = find_slot(pk);
  const RowId id = slots_[slot];
  if (id == kNoRow) return false;
  erase_slot(slot);
  release_row(id);
  free_ids_.push_back(id);
  --live_;
  return true;
}

void Table::scan(const std::function<void(const Row&)>& fn) const {
  ReaderLock lock(mu_);
  Row row;
  for (RowId id = 0; id < next_row_; ++id) {
    if (cells_of(id)[0] == 0) continue;
    decode_into(id, row);
    fn(row);
  }
}

std::size_t Table::size() const {
  ReaderLock lock(mu_);
  return live_;
}

std::size_t Table::memory_bytes() const {
  ReaderLock lock(mu_);
  return chunks_.size() * kChunkRows * ncols_ * sizeof(Cell) +
         chunks_.capacity() * sizeof(chunks_[0]) +
         free_ids_.capacity() * sizeof(RowId) +
         slots_.capacity() * sizeof(RowId) + string_bytes_;
}

std::vector<Row> Table::dump() const {
  ReaderLock lock(mu_);
  std::vector<Row> out;
  out.reserve(live_);
  for (RowId id = 0; id < next_row_; ++id) {
    if (cells_of(id)[0] == 0) continue;
    decode_into(id, out.emplace_back());
  }
  return out;
}

Status Table::load(std::vector<Row> rows) {
  for (const auto& row : rows) {
    if (!schema_.matches(row)) return Error("load: row does not match schema");
  }
  WriterLock lock(mu_);
  clear_locked();
  for (const auto& row : rows) {
    if (auto s = put_locked(row, /*overwrite=*/true); !s.ok()) return s;
  }
  return Status::success();
}

}  // namespace janus::db
