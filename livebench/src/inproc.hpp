// In-process calls into the inner layers over a workload's own corpus: the
// traced run's innermost span (AdmissionController::check) and the timed
// loops behind the wire.*, core.* and db.* per-layer rows.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/admission.hpp"
#include "core/db_rule_adapter.hpp"
#include "db/database.hpp"
#include "db/rule_store.hpp"

namespace livebench {

/// A RuleStore + AdmissionController pair loaded with the corpus the
/// servers were given (same rules, same deny-all default for missing keys).
class InProcStack {
 public:
  explicit InProcStack(const std::vector<RuleLine>& corpus);

  /// Thread-safe admission check (shared-queue locking).
  bool check(const std::string& key);

  /// Timed loops; each returns nanoseconds per call.
  double encode_ns(const std::vector<std::string>& keys);
  double decode_ns(const std::vector<std::string>& keys);
  double check_warm_ns(const std::vector<std::string>& keys);
  double check_cold_ns(const std::vector<std::string>& keys);
  double db_get_ns(const std::vector<std::string>& keys);
  double db_checkpoint_ns(const std::vector<std::string>& keys);

  double load_seconds() const { return load_s_; }

 private:
  janus::db::Database db_;
  janus::db::RuleStore store_{db_};
  janus::core::DbRuleSource source_{store_};
  std::unique_ptr<janus::core::AdmissionController> admission_;
  double load_s_ = 0;
};

}  // namespace livebench
