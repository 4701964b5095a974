// Open-loop load generator. Requests are due on a fixed schedule
// (start + seq / rate) whatever the system does, and each request is timed
// from when it was DUE, not from when it was sent: a stall therefore charges
// every request scheduled behind it (no coordinated omission). How late the
// generator itself ran is reported separately as lateness.
//
// A phase runs on `threads` threads; thread t owns the sequence numbers
// s ≡ t (mod threads). When a thread falls behind it hands every request
// already due (up to `max_batch`) to the issue callback in one call, so the
// offered load keeps to the schedule even when replies are slow.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace livebench {

enum class Outcome : std::uint8_t {
  kAllowed,  // decided by a server: admit
  kDenied,   // decided by a server: reject
  kDefault,  // default reply (router or client exhausted its retries)
  kError,    // transport error, non-200, overload NACK
};

struct Reply {
  Outcome outcome = Outcome::kError;
  std::uint8_t attempts = 1;  // datagrams sent (UDP) or 1
};

struct Record {
  std::uint64_t seq = 0;
  std::int64_t latency_ns = 0;  // reply time - due time
  std::int64_t late_ns = 0;     // send time - due time
  Outcome outcome = Outcome::kError;
  std::uint8_t attempts = 1;
};

/// Issues the requests `seqs` (all due by now) from generator thread
/// `thread` and fills `out` positionally. Must not throw.
using IssueFn = std::function<void(int thread, std::span<const std::uint64_t>
                                                   seqs,
                                   std::span<Reply> out)>;

/// Called on the generator thread after each issue call, with the batch's
/// first sequence number (the traced run's sampled side stream hooks here).
using AfterFn = std::function<void(int thread, std::uint64_t seq)>;

struct PhaseSpec {
  std::string name;
  double rate = 1000;     // offered requests per second
  double seconds = 1;     // schedule length
  int threads = 4;
  std::size_t max_batch = 1;
  std::uint64_t first_seq = 0;  // sequence numbers continue across phases
};

struct PhaseResult {
  PhaseSpec spec;
  std::vector<Record> records;  // sorted by seq
};

PhaseResult run_open_loop(const PhaseSpec& spec, const IssueFn& issue,
                          const AfterFn& after = nullptr);

/// Latency a failed request is counted with: it misses every limit, and
/// stays a finite number so percentiles remain printable.
inline constexpr double kFailedUs = 1e9;

/// Latency summary of one phase. Failed requests (anything but a server
/// decision) count as missing every limit: they sort as kFailedUs.
struct Summary {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double p50_us = 0;
  double p99_us = 0;
  // Medians over consecutive windows of the phase of each window's p50 and
  // p99: robust to a rare host-level stall that lands in one window.
  std::size_t windows = 0;
  double p50_win_us = 0;
  double p99_win_us = 0;
  double p99_win_q1_us = 0;  // quartiles of the window p99s
  double p99_win_q3_us = 0;
  double tail_q = 0;     // highest quantile with >= 10 samples beyond it
  double tail_us = 0;
  double late_p99_us = 0;
  double p50_from_send_us = 0;   // decided requests, timed from the send
  double late_p50_first_us = 0;  // median lateness, first quarter of phase
  double late_p50_last_us = 0;   // median lateness, last quarter
  double mean_attempts = 0;
  double within_limit_rps = 0;   // decisions within `limit_us`, per second
};

/// Window length used for the windowed medians.
inline constexpr double kWindowSeconds = 0.25;

Summary summarize(const PhaseResult& phase, double limit_us);

/// Quantile q of `values` (sorted in place); 0 when empty.
double quantile(std::vector<double>& values, double q);

std::string format_summary(const Summary& s);

}  // namespace livebench
