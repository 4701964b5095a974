// Shared types of the live-stack benchmark: options, the result every
// workload fills, the seeded key mixes, the rules-file writer, verdict
// checks, and the traced run's span recorder.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "loadgen.hpp"
#include "stack.hpp"

namespace livebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 8;
  bool trace = false;
  std::string janusd;   // path of the janusd binary built beside us
  std::string workdir;  // scratch directory inside the checkout
};

/// A wrong verdict: the run aborts with a non-zero exit and no result.
struct VerdictError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// What one workload run produced. Metric names are the BENCHMARK.json
/// names; main() picks the end-to-end or the per-layer set to print.
///
/// `failed` counts requests the stack did not answer (transport error,
/// non-200 without a default-reply marker, NACK). A default reply is the
/// QoS tier's designed answer once its retry budget runs out (paper
/// §III-B); whether one happens is set by host scheduling stalls, not by
/// the inputs, so default replies and over-admitted units are SLO misses
/// counted into fail_share, not into `failed`.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t default_replies = 0;
  double overadmitted = 0;  // audited units admitted beyond allowance
  bool correct = true;
  std::map<std::string, double> metrics;

  void set(const std::string& name, double value) { metrics[name] = value; }
  /// A workload sanity check (layer exercised, one failover, ...). A false
  /// check marks the run incorrect but still prints its numbers.
  void check(bool ok, const std::string& what);
};

/// Print one report line ("  <text>") on stdout.
void note(const std::string& text);
std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// Deterministic per-(seed, stream, seq) uniform 64-bit draw: the same seed
/// gives the same request sequence whatever the thread interleaving.
std::uint64_t draw(std::uint64_t seed, std::uint64_t stream,
                   std::uint64_t seq);
inline double draw_unit(std::uint64_t seed, std::uint64_t stream,
                        std::uint64_t seq) {
  return static_cast<double>(draw(seed, stream, seq) >> 11) * 0x1.0p-53;
}

/// Zipf(s) over ranks [0, n): inverse-CDF lookup.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t sample(double u) const;

 private:
  std::vector<double> cdf_;
};

/// One rules-file line per key: `key = rate capacity`.
struct RuleLine {
  std::string key;
  double rate;
  double capacity;
};
void write_rules(const std::string& path, const std::vector<RuleLine>& rules);

/// Per-key admission audit for keys with tight quotas: admitted units may
/// not exceed capacity + refill * (last reply - first send).
class Audit {
 public:
  Audit(std::size_t keys, double capacity, double refill_per_s,
        int threads);
  void record(int thread, std::size_t key, bool admitted,
              std::int64_t sent_ns, std::int64_t done_ns);
  /// Merge per-thread tallies; returns the units admitted beyond allowance
  /// summed over keys, and the number of keys that over-admitted.
  double overadmitted(std::size_t* keys_over = nullptr) const;
  std::uint64_t admitted_total() const;
  /// Forget every tally (a new stack starts with fresh buckets).
  void reset();

 private:
  struct Tally {
    std::uint64_t admitted = 0;
    std::int64_t first_ns = 0;
    std::int64_t last_ns = 0;
  };
  double capacity_;
  double refill_;
  std::vector<std::vector<Tally>> per_thread_;
};

/// Spans recorded by the traced run around calls into each entry point.
class Spans {
 public:
  explicit Spans(std::vector<std::string> entries);
  void record(std::size_t entry, std::int64_t ns);
  std::size_t count(std::size_t entry);
  double p50_us(std::size_t entry);
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::vector<std::string> names_;
  std::mutex mu_;
  std::vector<std::vector<double>> us_;
};

/// Verdict bookkeeping shared by the generator threads: counts decisions
/// and remembers the first wrong verdict (thrown after the phase).
class Verdicts {
 public:
  void allowed() { ++allowed_; }
  void denied() { ++denied_; }
  void wrong(const std::string& what);
  void throw_if_wrong() const;
  std::uint64_t allowed_count() const { return allowed_; }
  std::uint64_t denied_count() const { return denied_; }

 private:
  std::atomic<std::uint64_t> allowed_{0};
  std::atomic<std::uint64_t> denied_{0};
  mutable std::mutex mu_;
  std::string first_wrong_;
};

/// Phase bookkeeping common to every workload: counts a phase's records
/// into the run's attempted / failed / default_replies totals.
void tally(RunResult& r, const PhaseResult& phase);

/// fail_share = (failed + default replies + over-admitted units) /
/// attempted, printed with its base counts.
void report_fail_share(RunResult& r);

/// Median of `values` (copied).
double median(std::vector<double> values);

RunResult run_http_hot(const Options& opt);
RunResult run_udp_hot(const Options& opt);
RunResult run_udp_churn(const Options& opt);
RunResult run_cluster_handoff(const Options& opt);

}  // namespace livebench
