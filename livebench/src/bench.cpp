#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace livebench {

void RunResult::check(bool ok, const std::string& what) {
  note(std::string(ok ? "check ok: " : "CHECK FAILED: ") + what);
  if (!ok) correct = false;
}

void note(const std::string& text) {
  std::printf("  %s\n", text.c_str());
  std::fflush(stdout);
}

std::string fmt(const char* format, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof(buf), format, ap);
  va_end(ap);
  return buf;
}

std::uint64_t draw(std::uint64_t seed, std::uint64_t stream,
                   std::uint64_t seq) {
  // splitmix64 finalizer over a combined key.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull ^
                    (stream + 1) * 0xD1B54A32D192ED03ull ^
                    (seq + 1) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::sample(double u) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

void write_rules(const std::string& path, const std::vector<RuleLine>& rules) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write " + path);
  for (const RuleLine& r : rules) {
    std::fprintf(f, "%s = %g %g\n", r.key.c_str(), r.rate, r.capacity);
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

Audit::Audit(std::size_t keys, double capacity, double refill_per_s,
             int threads)
    : capacity_(capacity),
      refill_(refill_per_s),
      per_thread_(threads, std::vector<Tally>(keys)) {}

void Audit::record(int thread, std::size_t key, bool admitted,
                   std::int64_t sent_ns, std::int64_t done_ns) {
  Tally& t = per_thread_[thread][key];
  if (admitted) ++t.admitted;
  if (t.first_ns == 0 || sent_ns < t.first_ns) t.first_ns = sent_ns;
  t.last_ns = std::max(t.last_ns, done_ns);
}

double Audit::overadmitted(std::size_t* keys_over) const {
  double over = 0;
  std::size_t n_over = 0;
  const std::size_t keys = per_thread_.empty() ? 0 : per_thread_[0].size();
  for (std::size_t k = 0; k < keys; ++k) {
    Tally sum;
    for (const auto& thread : per_thread_) {
      const Tally& t = thread[k];
      if (t.first_ns == 0) continue;
      sum.admitted += t.admitted;
      if (sum.first_ns == 0 || t.first_ns < sum.first_ns) {
        sum.first_ns = t.first_ns;
      }
      sum.last_ns = std::max(sum.last_ns, t.last_ns);
    }
    if (sum.first_ns == 0) continue;
    const double span_s =
        static_cast<double>(sum.last_ns - sum.first_ns) / 1e9;
    // Whole units: a bucket admits a unit only once a full credit is in.
    const double allowance = std::floor(capacity_ + refill_ * span_s);
    const double excess = static_cast<double>(sum.admitted) - allowance;
    if (excess > 0) {
      over += excess;
      ++n_over;
    }
  }
  if (keys_over) *keys_over = n_over;
  return over;
}

void Audit::reset() {
  for (auto& thread : per_thread_) std::fill(thread.begin(), thread.end(), Tally{});
}

std::uint64_t Audit::admitted_total() const {
  std::uint64_t total = 0;
  for (const auto& thread : per_thread_) {
    for (const Tally& t : thread) total += t.admitted;
  }
  return total;
}

Spans::Spans(std::vector<std::string> entries)
    : names_(std::move(entries)), us_(names_.size()) {}

void Spans::record(std::size_t entry, std::int64_t ns) {
  std::lock_guard<std::mutex> lock(mu_);
  us_[entry].push_back(static_cast<double>(ns) / 1e3);
}

std::size_t Spans::count(std::size_t entry) {
  std::lock_guard<std::mutex> lock(mu_);
  return us_[entry].size();
}

double Spans::p50_us(std::size_t entry) {
  std::lock_guard<std::mutex> lock(mu_);
  return quantile(us_[entry], 0.5);
}

void Verdicts::wrong(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  if (first_wrong_.empty()) first_wrong_ = what;
}

void Verdicts::throw_if_wrong() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!first_wrong_.empty()) throw VerdictError(first_wrong_);
}

void tally(RunResult& r, const PhaseResult& phase) {
  for (const Record& rec : phase.records) {
    ++r.attempted;
    if (rec.outcome == Outcome::kDefault) ++r.default_replies;
    if (rec.outcome == Outcome::kError) ++r.failed;
  }
}

void report_fail_share(RunResult& r) {
  const double misses = static_cast<double>(r.failed + r.default_replies) +
                        r.overadmitted;
  r.set("fail_share",
        misses / std::max(1.0, static_cast<double>(r.attempted)));
  note(fmt("fail_share = (%llu unanswered + %llu default replies + %.0f "
           "over-admitted units) / %llu attempted = %.6f",
           static_cast<unsigned long long>(r.failed),
           static_cast<unsigned long long>(r.default_replies), r.overadmitted,
           static_cast<unsigned long long>(r.attempted),
           r.metrics["fail_share"]));
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

}  // namespace livebench
