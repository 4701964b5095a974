#include "core/qos_table.hpp"

#include <algorithm>
#include <stdexcept>

namespace janus::core {

ShardedQosTable::ShardedQosTable(std::size_t shard_count) {
  if (shard_count == 0) {
    throw std::invalid_argument("ShardedQosTable: shard_count must be >= 1");
  }
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

bool ShardedQosTable::contains(std::string_view key) const {
  const std::size_t h = TransparentStringHash::hash_bytes(key);
  const Shard& shard = *shards_[shard_index_of(h)];
  MutexLock lock(shard.mu);
  return shard.entries.find(PrehashedKey{key, h}) != shard.entries.end();
}

bool ShardedQosTable::erase(std::string_view key) {
  const std::size_t h = TransparentStringHash::hash_bytes(key);
  Shard& shard = *shards_[shard_index_of(h)];
  MutexLock lock(shard.mu);
  auto it = shard.entries.find(PrehashedKey{key, h});
  if (it == shard.entries.end()) return false;
  shard.entries.erase(it);
  return true;
}

std::size_t ShardedQosTable::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->entries.size();
  }
  return total;
}

void ShardedQosTable::clear() {
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->entries.clear();
  }
}

void ShardedQosTable::for_each(
    const std::function<void(const std::string&, QosEntry&)>& fn) {
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    for (auto& [key, entry] : shard->entries) fn(key, entry);
  }
}

std::vector<std::pair<std::string, QosEntry>> ShardedQosTable::snapshot()
    const {
  std::vector<std::pair<std::string, QosEntry>> out;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    for (const auto& [key, entry] : shard->entries) {
      out.emplace_back(key, entry);
    }
  }
  return out;
}

std::vector<HotKeyCount> ShardedQosTable::hot_keys(bool by_rejects,
                                                   std::size_t k) const {
  std::vector<HotKeyCount> rows;
  rows.reserve(shards_.size() * HotKeySketch::kSlots);
  // No shard mutex: each slot's seqlock makes the per-shard snapshot safe
  // against a concurrent writer. Keys hash to exactly one shard, so the
  // merge has no duplicates to fold.
  for (const auto& shard : shards_) {
    shard->hot_keys.snapshot(rows);
  }
  std::sort(rows.begin(), rows.end(),
            [by_rejects](const HotKeyCount& a, const HotKeyCount& b) {
              if (by_rejects) {
                if (a.rejects != b.rejects) return a.rejects > b.rejects;
              }
              if (a.hits != b.hits) return a.hits > b.hits;
              return a.key < b.key;
            });
  if (rows.size() > k) rows.resize(k);
  return rows;
}

void ShardedQosTable::restore(
    std::vector<std::pair<std::string, QosEntry>> entries) {
  clear();
  for (auto& [key, entry] : entries) {
    Shard& shard = shard_for(key);
    MutexLock lock(shard.mu);
    shard.entries.insert_or_assign(key, std::move(entry));
  }
}

}  // namespace janus::core
