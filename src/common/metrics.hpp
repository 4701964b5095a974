// Process-local metrics: relaxed atomic counters and gauges plus striped
// latency histograms, grouped in a registry. The router, QoS server, gateway
// balancer, and simulator export request/timeout/retry counts and per-stage
// latency distributions through this; the AdminServer renders the registry
// as Prometheus text exposition, and integration tests assert on it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.hpp"
#include "common/sync.hpp"

namespace janus {

class Counter {
 public:
  /// Returns the value before the increment.
  std::int64_t inc(std::int64_t delta = 1) {
    return value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Thread-safe histogram metric: lock striping over the single-threaded
/// Histogram. Each recording thread hashes to one of kStripes independent
/// (mutex, Histogram) pairs, so the hot path pays one uncontended lock in
/// the common case; snapshot() merges the stripes. Values are unitless —
/// by convention Janus records microseconds (metric names end in `_us`).
class HistogramMetric {
 public:
  /// Defaults cover [0, 60 s] in microseconds at <=2^-7 relative error.
  explicit HistogramMetric(std::int64_t max_value = 60'000'000,
                           int sub_bucket_bits = 7);

  void record(std::int64_t value);

  /// Merged view of all stripes.
  Histogram snapshot() const;

  void reset();

 private:
  static constexpr std::size_t kStripes = 8;
  struct alignas(64) Stripe {
    mutable Mutex mu{LockRank::kMetricsStripe, "common.metrics_stripe"};
    Histogram hist JANUS_GUARDED_BY(mu);
    explicit Stripe(std::int64_t max_value, int bits)
        : hist(max_value, bits) {}
  };
  Stripe& stripe_for_thread();

  std::int64_t max_value_;
  int sub_bucket_bits_;
  std::array<std::unique_ptr<Stripe>, kStripes> stripes_;
};

/// A decoded slow-request exemplar (see Exemplar below).
struct ExemplarSample {
  bool valid = false;           // false until a sample crossed the threshold
  std::int64_t value = 0;       // the over-threshold measurement
  std::int64_t threshold = -1;  // threshold in effect at snapshot time
  std::uint64_t over_count = 0;  // how many samples ever crossed it
  std::string trace;            // X-Janus-Trace id of the slow request
  std::string key;              // QoS key (or backend) of the slow request
};

/// Slow-request exemplar: remembers the trace id + key of the most recent
/// sample above a configurable threshold, linking a histogram's tail back
/// to a concrete flight-recorder trace (DESIGN.md §10). Lock-free and
/// allocation-free on the record path: fixed atomic char arrays, a
/// version-CAS claim so concurrent slow samples never interleave their
/// strings, and relaxed early-out for the (overwhelmingly common) fast
/// samples. Threshold < 0 disables recording entirely.
class Exemplar {
 public:
  static constexpr std::size_t kTextBytes = 64;

  void set_threshold(std::int64_t threshold) {
    threshold_.store(threshold, std::memory_order_relaxed);
  }
  std::int64_t threshold() const {
    return threshold_.load(std::memory_order_relaxed);
  }

  /// Remember (value, trace, key) if value crosses the threshold. Strings
  /// are truncated to kTextBytes; no heap traffic. If two threads cross the
  /// threshold at once the CAS loser simply drops its sample — "most recent
  /// exemplar" is advisory, losing one is fine.
  void record(std::int64_t value, std::string_view trace,
              std::string_view key) {
    const std::int64_t threshold = threshold_.load(std::memory_order_relaxed);
    if (threshold < 0 || value < threshold) return;
    over_count_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t v = version_.load(std::memory_order_relaxed);
    if ((v & 1) != 0 ||
        !version_.compare_exchange_strong(v, v + 1,
                                          std::memory_order_acquire)) {
      return;  // another slow sample is mid-write; drop ours
    }
    value_.store(value, std::memory_order_relaxed);
    store_text(trace_, trace_len_, trace);
    store_text(key_, key_len_, key);
    version_.store(v + 2, std::memory_order_release);
  }

  /// Seqlock-consistent copy (allocates; reporting path only).
  ExemplarSample snapshot() const;

  void reset() {
    // Tests only; concurrent record() calls must be quiescent.
    version_.store(0, std::memory_order_relaxed);
    over_count_.store(0, std::memory_order_relaxed);
    value_.store(0, std::memory_order_relaxed);
    trace_len_.store(0, std::memory_order_relaxed);
    key_len_.store(0, std::memory_order_relaxed);
  }

 private:
  using Text = std::array<std::atomic<char>, kTextBytes>;

  static void store_text(Text& dst, std::atomic<std::uint32_t>& len,
                         std::string_view src) {
    const std::size_t n = src.size() < kTextBytes ? src.size() : kTextBytes;
    for (std::size_t i = 0; i < n; ++i) {
      dst[i].store(src[i], std::memory_order_relaxed);
    }
    len.store(static_cast<std::uint32_t>(n), std::memory_order_relaxed);
  }

  std::atomic<std::int64_t> threshold_{-1};
  std::atomic<std::uint64_t> over_count_{0};
  std::atomic<std::uint64_t> version_{0};  // 0 = no sample yet; odd mid-write
  std::atomic<std::int64_t> value_{0};
  Text trace_{};
  Text key_{};
  std::atomic<std::uint32_t> trace_len_{0};
  std::atomic<std::uint32_t> key_len_{0};
};

/// Named counters/gauges/histograms. Lookup is lock-protected and intended
/// for setup paths; callers hold the returned reference for hot-path updates.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  HistogramMetric& histogram(const std::string& name);
  /// Exemplars ride alongside the same-named histogram ("server.service_us"
  /// has both); registering one does not create the histogram or vice versa.
  Exemplar& exemplar(const std::string& name);

  /// Snapshot of all scalar metric values (name -> value), for reporting.
  std::map<std::string, std::int64_t> snapshot() const;

  /// Per-family scalar snapshots (the Prometheus renderer needs accurate
  /// TYPE lines, which the merged snapshot() cannot provide).
  std::map<std::string, std::int64_t> snapshot_counters() const;
  std::map<std::string, std::int64_t> snapshot_gauges() const;

  /// Merged snapshot of every registered histogram (name -> histogram).
  std::map<std::string, Histogram> snapshot_histograms() const;

  /// Decoded snapshot of every registered exemplar (name -> sample).
  std::map<std::string, ExemplarSample> snapshot_exemplars() const;

  void reset_all();

 private:
  mutable Mutex mu_{LockRank::kMetricsRegistry, "common.metrics_registry"};
  // unique_ptr targets are stable once created; callers hold the returned
  // references unlocked by design (hot-path updates), so only the maps
  // themselves are guarded.
  std::map<std::string, std::unique_ptr<Counter>> counters_
      JANUS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ JANUS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_
      JANUS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Exemplar>> exemplars_
      JANUS_GUARDED_BY(mu_);
};

/// Render the registry in Prometheus text exposition format (version 0.0.4).
/// Dotted Janus metric names map to `janus_<name with '.' -> '_'>`; every
/// sample carries a `node="<node>"` label (value escaped per the spec).
/// Counters become `counter` families, gauges `gauge`, and histograms
/// `histogram` families with cumulative `_bucket{le="..."}` samples over a
/// fixed log-spaced microsecond ladder plus `_sum` and `_count`.
std::string render_prometheus(const MetricsRegistry& registry,
                              const std::string& node);

/// "a=1 b=2 ..." one-line rendering of the scalar snapshot — the periodic
/// stats log line emitted by janusd --stats-ms.
std::string format_stats_line(const MetricsRegistry& registry);

}  // namespace janus
