// AdmissionController — the QoS server's decision engine (paper §II-C/D).
// It owns the local QoS table and implements:
//   * check():   refill-and-consume on the key's leaky bucket,
//   * first-touch rule fetch from the database (via RuleSource),
//   * default rules for unknown keys,
//   * sync_now(): periodic re-read of cached rules from the database,
//   * checkpoint_now(): periodic write-back of current credits,
//   * refill_all(): the house-keeping refill pass (periodic-refill mode).
// Transport- and time-agnostic: the same object runs under the real UDP
// server and inside the discrete-event simulator.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/clock.hpp"
#include "common/hot_path.hpp"
#include "common/metrics.hpp"
#include "core/qos_rule.hpp"
#include "core/qos_table.hpp"

namespace janus::core {

/// Where the QoS server finds authoritative rules (the database layer).
/// Implementations: DbRuleSource (embedded db), simulator-side sources.
class RuleSource {
 public:
  virtual ~RuleSource() = default;
  /// Returns the provisioned rule for `key`, or nullopt if the key is not in
  /// the database (guest/unauthorized access, §II-D).
  virtual std::optional<QosRule> fetch(std::string_view key) = 0;
};

/// Where check-pointed credits are written (the database layer).
class RuleSink {
 public:
  virtual ~RuleSink() = default;
  virtual void checkpoint(std::string_view key, double credit) = 0;
};

enum class RefillMode {
  kOnAccess,  // lazy refill at decision time (exact)
  kPeriodic,  // refill only from refill_all() — the paper's house-keeping
              // thread (§III-C); granularity studied in ablation A3
};

struct AdmissionConfig {
  std::size_t table_shards = 16;  // 1 reproduces the paper's single lock
  RefillMode refill_mode = RefillMode::kOnAccess;
  /// Policy for keys missing from the database.
  QosRule default_rule = deny_all_default();
};

struct Decision {
  enum class Origin : std::uint8_t {
    kCached = 0,   // bucket already in the local table
    kFetched = 1,  // first touch: rule pulled from the database
    kDefault = 2,  // key unknown to the database: default rule applied
  };

  bool allowed = false;
  std::int64_t remaining_millicredits = 0;
  Origin origin = Origin::kCached;
};

class AdmissionController {
 public:
  AdmissionController(Clock& clock, RuleSource& source,
                      AdmissionConfig config = {});

  /// Decide whether to admit `cost` units for `key` (the paper's composite
  /// read-modify-write, executed under one shard lock).
  JANUS_HOT_PATH_LOCKS Decision check(std::string_view key,
                                      std::uint32_t cost = 1);

  /// Non-consuming variant (kProbe requests).
  JANUS_HOT_PATH_LOCKS Decision probe(std::string_view key,
                                      std::uint32_t cost = 1);

  /// House-keeping refill pass over every bucket (periodic mode).
  void refill_all();

  /// Re-read every cached rule from the database; reconfigures buckets whose
  /// rules changed and demotes entries whose keys were deleted to the
  /// default rule. Returns the number of entries whose rule changed.
  std::size_t sync_now();

  /// Write current credits back to the database (§II-D check-pointing).
  /// Returns the number of entries check-pointed (default entries are not
  /// persisted — the database has no row for them).
  std::size_t checkpoint_now(RuleSink& sink);

  /// Drop one key / all keys from the local table (admin, tests).
  bool invalidate(std::string_view key) { return table_.erase(key); }
  void invalidate_all() { table_.clear(); }

  std::size_t table_size() const { return table_.size(); }
  const AdmissionConfig& config() const { return config_; }
  ShardedQosTable& table() { return table_; }
  MetricsRegistry& metrics() { return metrics_; }

  /// Top-k hot keys by decision (or rejection) count, merged across shards.
  /// Lock-free; callable from any thread.
  std::vector<HotKeyCount> hot_keys(bool by_rejects = false,
                                    std::size_t k = 16) const {
    return table_.hot_keys(by_rejects, k);
  }

 private:
  Decision decide(std::string_view key, std::uint32_t cost, bool consume);
  QosEntry make_entry(std::string_view key, TimePoint now);
  /// Sampled hot-key sketch note + flight-recorder admission event.
  void note_decision_telemetry(std::string_view key, std::size_t hash,
                               const Decision& d, TimePoint now);

  Clock& clock_;
  RuleSource& source_;
  AdmissionConfig config_;
  ShardedQosTable table_;
  MetricsRegistry metrics_;
  Counter& checks_;
  Counter& allowed_;
  Counter& denied_;
  Counter& fetches_;
  Counter& defaults_;
};

}  // namespace janus::core
