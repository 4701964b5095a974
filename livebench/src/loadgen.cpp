#include "loadgen.hpp"

#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "timing.hpp"

namespace livebench {
namespace {

/// Sleep to within ~30 µs of `due_ns`, then spin: a plain sleep overshoots
/// by tens of microseconds, which would dominate a loopback round trip.
void wait_until(std::int64_t due_ns) {
  constexpr std::int64_t kSpinNs = 30'000;
  for (;;) {
    const std::int64_t left = due_ns - now_ns();
    if (left <= 0) return;
    if (left > kSpinNs) {
      const std::int64_t wake = due_ns - kSpinNs;
      timespec ts{.tv_sec = wake / 1'000'000'000,
                  .tv_nsec = wake % 1'000'000'000};
      ::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
    } else {
      __builtin_ia32_pause();
    }
  }
}

bool decided(Outcome o) {
  return o == Outcome::kAllowed || o == Outcome::kDenied;
}

}  // namespace

PhaseResult run_open_loop(const PhaseSpec& spec, const IssueFn& issue,
                          const AfterFn& after) {
  const double interval_ns = 1e9 / spec.rate;
  const auto total = static_cast<std::uint64_t>(spec.rate * spec.seconds);
  const int threads = std::max(1, spec.threads);
  const std::int64_t start = now_ns() + 2'000'000;
  auto due_of = [&](std::uint64_t i) {
    return start + static_cast<std::int64_t>(static_cast<double>(i) *
                                             interval_ns);
  };

  std::vector<std::vector<Record>> per_thread(threads);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      std::vector<Record>& out = per_thread[t];
      out.reserve(total / threads + 1);
      std::vector<std::uint64_t> seqs;
      std::vector<std::int64_t> dues;
      std::vector<Reply> replies;
      std::uint64_t i = t;
      while (i < total) {
        wait_until(due_of(i));
        const std::int64_t sent = now_ns();
        seqs.clear();
        dues.clear();
        while (i < total && seqs.size() < std::max<std::size_t>(
                                              1, spec.max_batch)) {
          const std::int64_t due = due_of(i);
          if (due > sent) break;
          seqs.push_back(spec.first_seq + i);
          dues.push_back(due);
          i += threads;
        }
        replies.assign(seqs.size(), Reply{});
        issue(t, seqs, replies);
        const std::int64_t done = now_ns();
        for (std::size_t k = 0; k < seqs.size(); ++k) {
          out.push_back({.seq = seqs[k],
                         .latency_ns = done - dues[k],
                         .late_ns = sent - dues[k],
                         .outcome = replies[k].outcome,
                         .attempts = replies[k].attempts});
        }
        if (after) after(t, seqs.front());
      }
    });
  }
  for (auto& th : pool) th.join();

  PhaseResult result;
  result.spec = spec;
  result.records.reserve(total);
  for (auto& v : per_thread) {
    result.records.insert(result.records.end(), v.begin(), v.end());
  }
  std::sort(result.records.begin(), result.records.end(),
            [](const Record& a, const Record& b) { return a.seq < b.seq; });
  return result;
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0) return values[lo];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Summary summarize(const PhaseResult& phase, double limit_us) {
  Summary s;
  const auto& recs = phase.records;
  s.attempted = recs.size();
  if (recs.empty()) return s;
  std::vector<double> lat;
  std::vector<double> late;
  lat.reserve(recs.size());
  late.reserve(recs.size());
  double attempts = 0;
  std::size_t within = 0;
  std::vector<double> from_send;
  for (const Record& r : recs) {
    const double us = static_cast<double>(r.latency_ns) / 1e3;
    if (!decided(r.outcome)) {
      ++s.failed;
      lat.push_back(kFailedUs);
    } else {
      lat.push_back(us);
      if (us <= limit_us) ++within;
      from_send.push_back(static_cast<double>(r.latency_ns - r.late_ns) /
                          1e3);
    }
    late.push_back(static_cast<double>(r.late_ns) / 1e3);
    attempts += r.attempts;
  }
  s.mean_attempts = attempts / static_cast<double>(recs.size());
  s.within_limit_rps = static_cast<double>(within) / phase.spec.seconds;
  // Windows by schedule position (records are in seq order).
  const auto per_window = std::max<std::size_t>(
      1, static_cast<std::size_t>(phase.spec.rate * kWindowSeconds));
  std::vector<double> win_p50, win_p99;
  for (std::size_t begin = 0; begin + per_window <= lat.size();
       begin += per_window) {
    std::vector<double> w(lat.begin() + begin,
                          lat.begin() + begin + per_window);
    win_p50.push_back(quantile(w, 0.50));
    win_p99.push_back(quantile(w, 0.99));
  }
  s.windows = win_p50.size();
  s.p50_win_us = quantile(win_p50, 0.5);
  s.p99_win_us = quantile(win_p99, 0.5);
  s.p99_win_q1_us = quantile(win_p99, 0.25);
  s.p99_win_q3_us = quantile(win_p99, 0.75);
  s.p50_us = quantile(lat, 0.50);
  s.p99_us = quantile(lat, 0.99);
  const double n = static_cast<double>(recs.size());
  s.tail_q = n > 10 ? std::floor((1.0 - 10.0 / n) * 1e4) / 1e4 : 0.5;
  s.tail_us = quantile(lat, s.tail_q);
  const std::size_t quarter = recs.size() / 4;
  std::vector<double> first(late.begin(), late.begin() + quarter);
  std::vector<double> last(late.end() - quarter, late.end());
  s.late_p50_first_us = quantile(first, 0.5);
  s.late_p50_last_us = quantile(last, 0.5);
  s.late_p99_us = quantile(late, 0.99);
  s.p50_from_send_us = quantile(from_send, 0.5);
  return s;
}

std::string format_summary(const Summary& s) {
  char buf[400];
  std::snprintf(buf, sizeof(buf),
                "n=%zu failed=%zu p50=%.1fus p99=%.1fus p%.2f=%.1fus "
                "windowed(%zu) p50=%.1fus p99=%.1fus "
                "late_p99=%.1fus late_p50(first/last quarter)=%.1f/%.1fus "
                "attempts/req=%.3f",
                s.attempted, s.failed, s.p50_us, s.p99_us, s.tail_q * 100,
                s.tail_us, s.windows, s.p50_win_us, s.p99_win_us,
                s.late_p99_us, s.late_p50_first_us,
                s.late_p50_last_us, s.mean_attempts);
  return buf;
}

}  // namespace livebench
