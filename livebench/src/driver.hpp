// Building blocks the workloads share: repeated stack set-up, a measured
// phase (counter and CPU deltas around one open-loop phase), the seeded key
// mix with its verdict rules, the HTTP and UDP request paths, the traced
// side stream, and the per-layer rows derived from /metrics deltas.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "inproc.hpp"
#include "net/http.hpp"
#include "router/udp_qos_client.hpp"

namespace livebench {

/// Generator threads (= nproc of the reference host) and the stack's
/// latency limits: the paper's 100 µs x 5 UDP budget, 2 ms over HTTP.
inline constexpr int kThreads = 4;
/// HTTP generators use 2 keep-alive connections. janusd's HTTP tiers serve
/// connections on 4 workers each and only resume a parked connection when a
/// busy one idles for 20 ms, so more connections than workers starve. The
/// gateway opens one connection per (worker, router) plus a probe
/// connection: 4 generator connections would put 5 on each router's 4
/// workers (seen as ~1 s stalls). 2 keep every tier within its workers, with
/// room for the traced run's side stream.
inline constexpr int kHttpThreads = 2;
inline constexpr double kUdpLimitUs = 500;
inline constexpr double kHttpLimitUs = 2000;
/// A ladder step meets the SLO only under this fail share.
inline constexpr double kMaxFailShare = 0.01;

struct Measured {
  PhaseResult phase;
  Summary sum;
  std::map<std::string, Scrape> before, after;  // by role
  std::map<std::string, double> cpu_s;          // by role; "" = all
  double d(const std::string& role, const std::string& name) const {
    return delta(before.at(role), after.at(role), name);
  }
  std::size_t decided() const { return sum.attempted - sum.failed; }
};

Measured measure(Supervisor& sup, const PhaseSpec& spec, const IssueFn& issue,
                 double limit_us, const AfterFn& after = nullptr);

/// Every run starts its stack several times. Each start is timed (spawn +
/// corpus load + every /healthz OK + warm-up) and followed by one nominal
/// phase; all but the last stack are then torn down. The end-to-end rows
/// are medians over the stacks: where a fresh stack's threads land on the
/// CPUs moves its p50 and CPU per request by up to ~1.5x on a 4-vCPU VM,
/// so the hot workloads start kStacks short stacks (~2 s nominal phases at
/// --seconds 30). udp_churn starts kChurnStacks: its 1M-rule corpus takes
/// seconds to load, and each of its phases must span the servers' 5 s sync
/// and checkpoint passes.
inline constexpr int kStacks = 11;
inline constexpr int kChurnStacks = 3;

struct Stacks {
  std::unique_ptr<Supervisor> sup;  // the last stack, still running
  std::vector<double> setup_s;      // one per stack
  std::vector<double> load_s;       // per server per stack: launch->healthz
  std::vector<Measured> nominal;    // one per stack
};

Stacks run_stacks(const Options& opt, int count,
                  const std::function<void(Supervisor&)>& spawn,
                  const std::function<void(Supervisor&)>& warm,
                  const std::function<Measured(Supervisor&)>& nominal);

/// The end-to-end rows from the per-stack nominal phases: p50_us and p99_us
/// are medians over stacks of each phase's windowed medians, cpu_us_per_req
/// and setup_s medians over stacks; attempted / failed / default_replies
/// count every nominal request. Also sets gen.late_us_p99 and fail_share
/// (set r.overadmitted first).
void report_end_to_end(RunResult& r, const std::vector<double>& setup_s,
                       const std::vector<Measured>& nominal,
                       double server_rss_mb);

enum class Kind : std::uint8_t { kGenerous, kMissing, kTight };

/// The keys a workload draws from and the rules the servers load.
/// corpus[0, tight) are audited tight-quota keys; the rest are generous.
struct KeySet {
  std::vector<RuleLine> corpus;
  std::vector<std::string> missing;  // never in the DB: must be denied
  std::size_t tight = 0;
};

struct Pick {
  const std::string* key;
  Kind kind;
  std::size_t index;  // corpus index (audit slot for tight keys)
};

/// Seeded request mix over a KeySet.
class Mix {
 public:
  Mix(const KeySet& keys, std::uint64_t seed, double p_missing,
      double p_tight, double generous_zipf_s /* 0 = uniform */,
      double tight_zipf_s);
  Pick pick(std::uint64_t seq) const;
  /// A generous key for the traced side stream (own draw stream).
  const std::string& generous(std::uint64_t n) const;

 private:
  const KeySet& keys_;
  std::uint64_t seed_;
  double p_missing_, p_tight_;
  std::unique_ptr<Zipf> generous_zipf_, tight_zipf_;
};

/// Judge one server decision against the key's kind; tight keys go to the
/// audit. Returns kAllowed / kDenied.
Outcome judge(const Pick& p, bool allowed, Verdicts& v, Audit* audit,
              int thread, std::int64_t sent_ns, std::int64_t done_ns);

/// What one request got back, on any path.
struct Answer {
  bool decided = false;
  bool allowed = false;
  Outcome failure = Outcome::kError;
};
/// Classify an HTTP reply from a gateway or router.
Answer read_http(const janus::Result<janus::net::HttpResponse>& resp);

/// Classify a UDP reply (default reply, overload or stale-epoch NACK are
/// failures).
Answer read_udp(const janus::wire::QosResponse& resp);

/// The traced side stream only asks generous keys: a decided FALSE is a
/// wrong verdict; a failure shows in the span instead.
void check_side_stream(const Answer& a, const std::string& key, Verdicts& v);

/// GET /qos?key=... from per-thread keep-alive connections.
IssueFn http_issue(const Mix& mix, Verdicts& v, Audit* audit,
                   std::vector<std::unique_ptr<janus::net::HttpClient>>&
                       clients);

/// v1 UDP frames through router::UdpQosClient (one per thread), routed
/// CRC32(key) mod N like a router; due requests go out via call_many.
IssueFn udp_issue(const Mix& mix, Verdicts& v, Audit* audit,
                  const std::vector<janus::net::SockAddr>& servers,
                  std::vector<std::unique_ptr<janus::router::UdpQosClient>>&
                      clients);

std::vector<std::unique_ptr<janus::router::UdpQosClient>> udp_clients();

/// One inner entry point of the traced run.
struct Entry {
  std::string name;
  std::function<void(int thread, const std::string& key)> call;
};

/// Every `kSampleEvery`-th issue call on a generator thread also calls the
/// next entry point with a generous key and records the span.
inline constexpr int kSampleEvery = 8;
AfterFn side_stream(const Mix& mix, const std::vector<Entry>& entries,
                    Spans& spans);

/// Self time per layer from the entries' span medians (outer to inner),
/// the closure check against the traced full-path p50, and
/// trace_overhead_us (traced minus untraced windowed p50). `layer_rows[i]`
/// names the self time of entries[i] (the last entry is the innermost call
/// and is its own self time).
void report_trace(RunResult& r, Spans& spans,
                  const std::vector<std::string>& layer_rows,
                  const Summary& traced, double untraced_p50_us);

/// wire.*, core.* and db.* rows from timed in-process loops.
void report_inproc(RunResult& r, InProcStack& inproc,
                   const std::vector<std::string>& warm_keys,
                   const std::vector<std::string>& cold_keys);

/// server.* rows from the nominal phase's deltas.
void report_server_layer(RunResult& r, const Measured& m);

/// Ladder: the highest step whose p99 <= limit, fail share < kMaxFailShare,
/// and whose generator lateness did not grow.
double run_ladder(Supervisor& sup, const std::vector<double>& rates,
                  double seconds_per_step, std::uint64_t first_seq,
                  int threads, std::size_t max_batch, const IssueFn& issue,
                  double limit_us);

/// host + build context block, printed beside every result.
void print_host_context(Supervisor* sup);

/// Median time of one step of a fixed integer loop on this thread.
double cpu_speed_ns();

}  // namespace livebench
