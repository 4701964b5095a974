#include "core/admission.hpp"

#include "common/flight_recorder.hpp"

namespace janus::core {

AdmissionController::AdmissionController(Clock& clock, RuleSource& source,
                                         AdmissionConfig config)
    : clock_(clock),
      source_(source),
      config_(std::move(config)),
      table_(config_.table_shards),
      checks_(metrics_.counter("admission.checks")),
      allowed_(metrics_.counter("admission.allowed")),
      denied_(metrics_.counter("admission.denied")),
      fetches_(metrics_.counter("admission.db_fetches")),
      defaults_(metrics_.counter("admission.default_rules")) {}

QosEntry AdmissionController::make_entry(std::string_view key, TimePoint now) {
  fetches_.inc();
  if (auto rule = source_.fetch(key)) {
    rule->key = std::string(key);
    double credit = rule->initial_credit.value_or(rule->capacity);
    return QosEntry{
        .rule = *rule,
        .bucket = LeakyBucket(rule->capacity, rule->refill_per_sec, credit, now),
        .is_default = false,
    };
  }
  defaults_.inc();
  QosRule rule = config_.default_rule;
  rule.key = std::string(key);
  double credit = rule.initial_credit.value_or(rule.capacity);
  return QosEntry{
      .rule = rule,
      .bucket = LeakyBucket(rule.capacity, rule.refill_per_sec, credit, now),
      .is_default = true,
  };
}

void AdmissionController::note_decision_telemetry(std::string_view key,
                                                  std::size_t hash,
                                                  const Decision& d,
                                                  TimePoint now) {
  // 1-in-2^kDecisionSampleShift sampling keeps the armed recorder inside the
  // <3% BM_ServerDecisionContended budget (BENCH_PR6.json); the sketch adds
  // the sample stride as weight so reported counts stay approximately true.
  if (!FlightRecorder::enabled() || !FlightRecorder::decision_sampled()) {
    return;
  }
  const std::uint64_t weight = FlightRecorder::kDecisionSampleWeight;
  table_.note_decision(key, hash, d.allowed, weight);
  FlightRecorder::record(
      TraceEventType::kAdmission, TraceStage::kAdmission, hash,
      pack_admission_arg(d.allowed, static_cast<std::uint8_t>(d.origin),
                         d.remaining_millicredits),
      static_cast<std::uint64_t>(now.count()));
}

Decision AdmissionController::decide(std::string_view key, std::uint32_t cost,
                                     bool consume) {
  checks_.inc();
  const TimePoint now = clock_.now();
  const bool lazy = config_.refill_mode == RefillMode::kOnAccess;
  const std::size_t hash = TransparentStringHash::hash_bytes(key);

  // Fast path: the bucket is already cached; decide under the shard lock.
  auto cached = table_.with_entry_prehashed(key, hash, [&](QosEntry& entry) {
    Decision d;
    d.origin = Decision::Origin::kCached;
    if (lazy) entry.bucket.refill(now);
    d.allowed = consume ? entry.bucket.try_consume_no_refill(cost)
                        : entry.bucket.millicredits() >=
                              static_cast<std::int64_t>(cost) *
                                  LeakyBucket::kMillisPerCredit;
    d.remaining_millicredits = entry.bucket.millicredits();
    return d;
  });
  if (cached) {
    (cached->allowed ? allowed_ : denied_).inc();
    note_decision_telemetry(key, hash, *cached, now);
    return *cached;
  }

  // First touch: fetch the rule from the database *outside* the shard lock
  // (a slow DB round-trip must not block other keys in the shard), then
  // create-if-absent. If another thread won the race our fetched rule is
  // discarded and its entry is used — identical to the paper's behaviour
  // where concurrent first touches serialize on the table.
  // purity-ok: first-touch cold branch (DB fetch + rule/key copy)
  QosEntry fresh = make_entry(key, now);
  Decision d = table_.with_entry_or_create_prehashed(
      key, hash, [&] { return std::move(fresh); },
      [&](QosEntry& entry) {
        Decision inner;
        inner.origin = entry.is_default ? Decision::Origin::kDefault
                                        : Decision::Origin::kFetched;
        if (lazy) entry.bucket.refill(now);
        inner.allowed = consume
                            ? entry.bucket.try_consume_no_refill(cost)
                            : entry.bucket.millicredits() >=
                                  static_cast<std::int64_t>(cost) *
                                      LeakyBucket::kMillisPerCredit;
        inner.remaining_millicredits = entry.bucket.millicredits();
        return inner;
      });
  (d.allowed ? allowed_ : denied_).inc();
  note_decision_telemetry(key, hash, d, now);
  return d;
}

Decision AdmissionController::check(std::string_view key, std::uint32_t cost) {
  return decide(key, cost, /*consume=*/true);
}

Decision AdmissionController::probe(std::string_view key, std::uint32_t cost) {
  return decide(key, cost, /*consume=*/false);
}

void AdmissionController::refill_all() {
  const TimePoint now = clock_.now();
  table_.for_each(
      [&](const std::string&, QosEntry& entry) { entry.bucket.refill(now); });
}

std::size_t AdmissionController::sync_now() {
  const TimePoint now = clock_.now();
  std::size_t changed = 0;

  // Collect keys first; fetching from the DB under shard locks would stall
  // concurrent decisions on unrelated keys.
  std::vector<std::string> keys;
  keys.reserve(table_.size());
  table_.for_each(
      [&](const std::string& key, QosEntry&) { keys.push_back(key); });

  for (const auto& key : keys) {
    auto fetched = source_.fetch(key);
    table_.with_entry(key, [&](QosEntry& entry) {
      if (fetched) {
        const bool differs = entry.is_default ||
                             entry.rule.capacity != fetched->capacity ||
                             entry.rule.refill_per_sec != fetched->refill_per_sec;
        if (differs) {
          // "The corresponding leaky bucket ... is updated with the latest
          // values" (§III-C): adopt the new capacity/rate AND the database's
          // credit column, so an operator's quota reset takes effect on the
          // next sync tick rather than waiting for refill.
          entry.rule.capacity = fetched->capacity;
          entry.rule.refill_per_sec = fetched->refill_per_sec;
          entry.is_default = false;
          entry.bucket.reconfigure(fetched->capacity, fetched->refill_per_sec,
                                   now);
          entry.bucket.set_credit(
              fetched->initial_credit.value_or(fetched->capacity));
          ++changed;
        }
      } else if (!entry.is_default) {
        // Rule deleted from the database: demote to the default policy.
        entry.rule.capacity = config_.default_rule.capacity;
        entry.rule.refill_per_sec = config_.default_rule.refill_per_sec;
        entry.is_default = true;
        entry.bucket.reconfigure(config_.default_rule.capacity,
                                 config_.default_rule.refill_per_sec, now);
        ++changed;
      }
      return 0;
    });
  }
  return changed;
}

std::size_t AdmissionController::checkpoint_now(RuleSink& sink) {
  const TimePoint now = clock_.now();
  // Snapshot credits under the locks, write to the sink outside them.
  std::vector<std::pair<std::string, double>> credits;
  table_.for_each([&](const std::string& key, QosEntry& entry) {
    if (entry.is_default) return;
    entry.bucket.refill(now);
    credits.emplace_back(key, entry.bucket.credit());
  });
  for (const auto& [key, credit] : credits) sink.checkpoint(key, credit);
  return credits.size();
}

}  // namespace janus::core
