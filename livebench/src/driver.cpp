#include "driver.hpp"

#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <thread>

#include "core/key_router.hpp"
#include "selftest.hpp"
#include "timing.hpp"

#ifndef LIVEBENCH_BUILD_TYPE
#define LIVEBENCH_BUILD_TYPE "unknown"
#endif

namespace livebench {

using janus::net::SockAddr;

Measured measure(Supervisor& sup, const PhaseSpec& spec, const IssueFn& issue,
                 double limit_us, const AfterFn& after) {
  static const char* kRoles[] = {"server", "router", "gateway"};
  Measured m;
  std::map<std::string, double> cpu0;
  for (const char* role : kRoles) m.before[role] = sup.scrape_role(role);
  for (const char* role : kRoles) cpu0[role] = sup.cpu_s(role);
  cpu0[""] = sup.cpu_s();
  m.phase = run_open_loop(spec, issue, after);
  for (const char* role : kRoles) m.cpu_s[role] = sup.cpu_s(role) - cpu0[role];
  m.cpu_s[""] = sup.cpu_s() - cpu0[""];
  for (const char* role : kRoles) m.after[role] = sup.scrape_role(role);
  m.sum = summarize(m.phase, limit_us);
  note(fmt("%s: offered %.0f/s for %.2fs: ", spec.name.c_str(), spec.rate,
           spec.seconds) +
       format_summary(m.sum));
  return m;
}

Stacks run_stacks(const Options& opt, int count,
                  const std::function<void(Supervisor&)>& spawn,
                  const std::function<void(Supervisor&)>& warm,
                  const std::function<Measured(Supervisor&)>& nominal) {
  Stacks out;
  for (int i = 0; i < count; ++i) {
    auto sup = std::make_unique<Supervisor>(opt.janusd, opt.workdir);
    const std::int64_t start = now_ns();
    spawn(*sup);
    sup->wait_healthy();
    warm(*sup);
    out.setup_s.push_back(seconds_since(start));
    for (Proc* p : sup->by_role("server")) {
      out.load_s.push_back(static_cast<double>(p->healthy_ns -
                                               p->launched_ns) /
                           1e9);
    }
    if (i == 0) print_host_context(sup.get());
    note(fmt("stack %d: set up in %.3fs", i, out.setup_s.back()));
    out.nominal.push_back(nominal(*sup));
    if (i + 1 < count) {
      sup->stop_all();
    } else {
      out.sup = std::move(sup);
    }
  }
  return out;
}

void report_end_to_end(RunResult& r, const std::vector<double>& setup_s,
                       const std::vector<Measured>& nominal,
                       double server_rss_mb) {
  std::vector<double> p50, p99, cpu, late;
  for (const Measured& m : nominal) {
    p50.push_back(m.sum.p50_win_us);
    p99.push_back(m.sum.p99_win_us);
    cpu.push_back(m.cpu_s.at("") * 1e6 /
                  std::max<double>(1, static_cast<double>(m.decided())));
    late.push_back(m.sum.late_p99_us);
    tally(r, m.phase);
    note(fmt("nominal on stack: windowed p50 %.2fus p99 %.2fus (window p99 "
             "quartiles %.0f/%.0fus) over %zu "
             "windows of %.2fs; whole phase p50 %.2fus p99 %.2fus, "
             "p%.2f=%.2fus (highest percentile with >=10 samples beyond it) "
             "over %zu samples; cpu %.2fus/req",
             m.sum.p50_win_us, m.sum.p99_win_us, m.sum.p99_win_q1_us,
             m.sum.p99_win_q3_us, m.sum.windows,
             kWindowSeconds, m.sum.p50_us, m.sum.p99_us, m.sum.tail_q * 100,
             m.sum.tail_us, m.sum.attempted, cpu.back()));
  }
  r.set("p50_us", median(p50));
  r.set("p99_us", median(p99));
  r.set("cpu_us_per_req", median(cpu));
  r.set("setup_s", median(setup_s));
  r.set("server_rss_mb", server_rss_mb);
  r.set("gen.late_us_p99", median(late));
  std::string all;
  for (double s : setup_s) all += fmt(" %.3f", s);
  note(fmt("p50_us=%.2f p99_us=%.2f cpu_us_per_req=%.2f (medians over %zu "
           "stacks); setup_s=%.3f (median of%s)",
           r.metrics["p50_us"], r.metrics["p99_us"],
           r.metrics["cpu_us_per_req"], nominal.size(), r.metrics["setup_s"],
           all.c_str()));
  report_fail_share(r);
}

Mix::Mix(const KeySet& keys, std::uint64_t seed, double p_missing,
         double p_tight, double generous_zipf_s, double tight_zipf_s)
    : keys_(keys), seed_(seed), p_missing_(p_missing), p_tight_(p_tight) {
  if (generous_zipf_s > 0) {
    generous_zipf_ = std::make_unique<Zipf>(
        keys.corpus.size() - keys.tight, generous_zipf_s);
  }
  if (keys.tight > 0) {
    tight_zipf_ = std::make_unique<Zipf>(keys.tight, tight_zipf_s);
  }
}

Pick Mix::pick(std::uint64_t seq) const {
  const double u = draw_unit(seed_, 1, seq);
  const double v = draw_unit(seed_, 2, seq);
  if (u < p_missing_ && !keys_.missing.empty()) {
    const auto i = static_cast<std::size_t>(v * keys_.missing.size());
    return {&keys_.missing[i], Kind::kMissing, i};
  }
  if (u < p_missing_ + p_tight_ && tight_zipf_) {
    const std::size_t i = tight_zipf_->sample(v);
    return {&keys_.corpus[i].key, Kind::kTight, i};
  }
  const std::size_t n = keys_.corpus.size() - keys_.tight;
  const std::size_t i =
      keys_.tight + (generous_zipf_ ? generous_zipf_->sample(v)
                                    : static_cast<std::size_t>(v * n));
  return {&keys_.corpus[i].key, Kind::kGenerous, i};
}

const std::string& Mix::generous(std::uint64_t n) const {
  const std::size_t span = keys_.corpus.size() - keys_.tight;
  return keys_.corpus[keys_.tight + draw(seed_, 3, n) % span].key;
}

Outcome judge(const Pick& p, bool allowed, Verdicts& v, Audit* audit,
              int thread, std::int64_t sent_ns, std::int64_t done_ns) {
  // Self-test hook: reject every generous verdict to force a failed check.
  static const bool flip = [] {
    const char* f = std::getenv(kFaultEnv);
    return f != nullptr && std::string(f) == "wrong_verdict";
  }();
  if (p.kind == Kind::kGenerous && (!allowed || flip)) {
    v.wrong("generous key denied: " + *p.key);
  }
  if (p.kind == Kind::kMissing && allowed) {
    v.wrong("key missing from the DB admitted: " + *p.key);
  }
  if (p.kind == Kind::kTight && audit) {
    audit->record(thread, p.index, allowed, sent_ns, done_ns);
  }
  if (allowed) {
    v.allowed();
    return Outcome::kAllowed;
  }
  v.denied();
  return Outcome::kDenied;
}

Answer read_http(const janus::Result<janus::net::HttpResponse>& resp) {
  Answer out;
  if (!resp.ok()) return out;
  const auto status = resp.value().header("X-Janus-Status");
  if (status && *status == "default-reply") {
    out.failure = Outcome::kDefault;
    return out;
  }
  if (resp.value().status != 200 || !status || *status != "ok") return out;
  out.decided = true;
  out.allowed = resp.value().body == "TRUE";
  return out;
}

Answer read_udp(const janus::wire::QosResponse& resp) {
  Answer ans;
  if (resp.status == janus::wire::ResponseStatus::kOk) {
    ans.decided = true;
    ans.allowed = resp.allowed;
  } else if (resp.status == janus::wire::ResponseStatus::kDefaultReply) {
    ans.failure = Outcome::kDefault;
  }
  return ans;
}

void check_side_stream(const Answer& a, const std::string& key, Verdicts& v) {
  if (a.decided && !a.allowed) {
    v.wrong("generous key denied (traced side stream): " + key);
  }
}

IssueFn http_issue(const Mix& mix, Verdicts& v, Audit* audit,
                   std::vector<std::unique_ptr<janus::net::HttpClient>>&
                       clients) {
  return [&mix, &v, audit, &clients](int t,
                                     std::span<const std::uint64_t> seqs,
                                     std::span<Reply> out) {
    for (std::size_t k = 0; k < seqs.size(); ++k) {
      const Pick p = mix.pick(seqs[k]);
      const std::int64_t sent = now_ns();
      const auto resp = clients[t]->get("/qos?key=" + *p.key);
      const Answer ans = read_http(resp);
      out[k].outcome = ans.decided ? judge(p, ans.allowed, v, audit, t, sent,
                                          now_ns())
                                  : ans.failure;
    }
  };
}

std::vector<std::unique_ptr<janus::router::UdpQosClient>> udp_clients() {
  std::vector<std::unique_ptr<janus::router::UdpQosClient>> out;
  for (int t = 0; t < kThreads; ++t) {
    // The paper's policy (100 µs x 5, fail closed): UdpClientConfig's
    // defaults, exactly as a router uses them.
    out.push_back(std::make_unique<janus::router::UdpQosClient>());
  }
  return out;
}

IssueFn udp_issue(const Mix& mix, Verdicts& v, Audit* audit,
                  const std::vector<SockAddr>& servers,
                  std::vector<std::unique_ptr<janus::router::UdpQosClient>>&
                      clients) {
  return [&mix, &v, audit, &servers, &clients](
             int t, std::span<const std::uint64_t> seqs,
             std::span<Reply> out) {
    janus::router::UdpQosClient& client = *clients[t];
    const janus::core::KeyRouter router(servers.size());
    std::vector<Pick> picks;
    for (std::uint64_t s : seqs) picks.push_back(mix.pick(s));
    std::vector<std::size_t> idx;
    std::vector<janus::wire::QosRequest> reqs;
    for (std::size_t s = 0; s < servers.size(); ++s) {
      idx.clear();
      reqs.clear();
      for (std::size_t k = 0; k < picks.size(); ++k) {
        if (router.index_for(*picks[k].key) != s) continue;
        idx.push_back(k);
        reqs.emplace_back();
        reqs.back().key = *picks[k].key;
      }
      if (reqs.empty()) continue;
      const std::int64_t sent = now_ns();
      std::vector<janus::wire::QosResponse> resps;
      bool transport_ok = true;
      if (reqs.size() == 1) {
        auto r = client.call(servers[s], reqs[0]);
        transport_ok = r.ok();
        if (r.ok()) resps.push_back(r.value());
      } else {
        auto r = client.call_many(servers[s], reqs);
        transport_ok = r.ok();
        if (r.ok()) resps = std::move(r).take();
      }
      const std::int64_t done = now_ns();
      const auto attempts = static_cast<std::uint8_t>(client.last_attempts());
      for (std::size_t j = 0; j < idx.size(); ++j) {
        Reply& rep = out[idx[j]];
        rep.attempts = attempts;
        if (!transport_ok) continue;  // Reply defaults to kError
        const Answer ans = read_udp(resps[j]);
        rep.outcome = ans.decided ? judge(picks[idx[j]], ans.allowed, v, audit,
                                          t, sent, done)
                                  : ans.failure;
      }
    }
  };
}

AfterFn side_stream(const Mix& mix, const std::vector<Entry>& entries,
                    Spans& spans) {
  auto counters = std::make_shared<std::vector<std::uint64_t>>(kThreads, 0);
  return [&mix, &entries, &spans, counters](int t, std::uint64_t seq) {
    const std::uint64_t c = (*counters)[t]++;
    if (c % kSampleEvery != 0) return;
    const std::size_t e = (c / kSampleEvery + t) % entries.size();
    const std::string& key = mix.generous(seq);
    const std::int64_t start = now_ns();
    entries[e].call(t, key);
    spans.record(e, now_ns() - start);
  };
}

void report_trace(RunResult& r, Spans& spans,
                  const std::vector<std::string>& layer_rows,
                  const Summary& traced, double untraced_p50_us) {
  const std::size_t n = spans.names().size();
  double sum = 0;
  std::string parts;
  for (std::size_t e = 0; e < n; ++e) {
    const double outer = spans.p50_us(e);
    const double inner = e + 1 < n ? spans.p50_us(e + 1) : 0.0;
    const double self = outer - inner;
    sum += self;
    note(fmt("span %-16s n=%zu p50=%.2fus self=%.2fus", spans.names()[e].c_str(),
             spans.count(e), outer, self));
    if (!layer_rows[e].empty()) r.set(layer_rows[e], self);
    parts += fmt("%s%.2f", e ? " + " : "", self);
  }
  // Spans are timed from their send; so is the full path compared here, as
  // the generator's own lateness is no layer. The two are different
  // samples of the same path: allow 25% or 25 µs between their medians.
  const double full = traced.p50_from_send_us;
  const double tol = std::max(0.25 * full, 25.0);
  note(fmt("closure: %s = %.2fus vs traced full-path p50 %.2fus timed from "
           "the send (%.2fus from the due time; tolerance max(25%%, 25us) = "
           "%.2fus)",
           parts.c_str(), sum, full, traced.p50_us, tol));
  r.check(std::abs(sum - full) <= tol,
          "per-layer self times add up to the traced full-path p50");
  r.set("trace_overhead_us", traced.p50_win_us - untraced_p50_us);
  note(fmt("trace_overhead_us = traced p50 %.2f - untraced p50 %.2f",
           traced.p50_win_us, untraced_p50_us));
}

void report_inproc(RunResult& r, InProcStack& inproc,
                   const std::vector<std::string>& warm_keys,
                   const std::vector<std::string>& cold_keys) {
  r.set("wire.encode_ns", inproc.encode_ns(warm_keys));
  r.set("wire.decode_ns", inproc.decode_ns(warm_keys));
  r.set("core.check_warm_ns", inproc.check_warm_ns(warm_keys));
  r.set("core.check_cold_ns", inproc.check_cold_ns(cold_keys));
  r.set("db.get_ns", inproc.db_get_ns(cold_keys));
  r.set("db.checkpoint_ns", inproc.db_checkpoint_ns(cold_keys));
  note(fmt("in-process over %zu warm / %zu cold keys: encode %.1fns decode "
           "%.1fns check warm %.1fns cold %.1fns db.get %.1fns checkpoint "
           "%.1fns",
           warm_keys.size(), cold_keys.size(), r.metrics["wire.encode_ns"],
           r.metrics["wire.decode_ns"], r.metrics["core.check_warm_ns"],
           r.metrics["core.check_cold_ns"], r.metrics["db.get_ns"],
           r.metrics["db.checkpoint_ns"]));
}

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void report_server_layer(RunResult& r, const Measured& m) {
  const double received = m.d("server", "server_received");
  const double answered = m.d("server", "server_answered");
  const double qw_sum = m.d("server", "server_queue_wait_us_sum");
  const double qw_n = m.d("server", "server_queue_wait_us_count");
  const double sv_sum = m.d("server", "server_service_us_sum");
  const double sv_n = m.d("server", "server_service_us_count");
  const double rb_sum = m.d("server", "server_recv_batch_sum");
  const double rb_n = m.d("server", "server_recv_batch_count");
  const double sb_sum = m.d("server", "server_send_batch_sum");
  const double sb_n = m.d("server", "server_send_batch_count");
  const double drops =
      m.d("server", "server_fifo_dropped") +
      delta_prefix(m.before.at("server"), m.after.at("server"),
                   "server_worker_queue_reject_w");
  r.set("server.queue_wait_us_mean", ratio(qw_sum, qw_n));
  r.set("server.service_us_mean", ratio(sv_sum, sv_n));
  r.set("server.cpu_us_per_req",
        ratio(m.cpu_s.at("server") * 1e6, static_cast<double>(m.decided())));
  r.set("server.drops", drops);
  r.set("server.answered_share", ratio(answered, received));
  r.set("server.recv_batch_mean", ratio(rb_sum, rb_n));
  r.set("server.send_batch_mean", ratio(sb_sum, sb_n));
  note(fmt("server deltas: received=%.0f answered=%.0f drops=%.0f "
           "queue_wait %.0f/%.0f service %.0f/%.0f recv_batch %.0f/%.0f "
           "send_batch %.0f/%.0f cpu=%.3fs over %zu decided",
           received, answered, drops, qw_sum, qw_n, sv_sum, sv_n, rb_sum,
           rb_n, sb_sum, sb_n, m.cpu_s.at("server"), m.decided()));
}

double run_ladder(Supervisor& sup, const std::vector<double>& rates,
                  double seconds_per_step, std::uint64_t first_seq,
                  int threads, std::size_t max_batch, const IssueFn& issue,
                  double limit_us) {
  double best = 0;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    PhaseSpec spec{.name = fmt("ladder step %zu", i),
                   .rate = rates[i],
                   .seconds = seconds_per_step,
                   .threads = threads,
                   .max_batch = max_batch,
                   .first_seq = first_seq + i * 10'000'000};
    const Measured m = measure(sup, spec, issue, limit_us);
    const double fail_share =
        ratio(static_cast<double>(m.sum.failed),
              static_cast<double>(m.sum.attempted));
    const bool lateness_grew =
        m.sum.late_p50_last_us - m.sum.late_p50_first_us > limit_us / 2;
    const bool ok = m.sum.p99_us <= limit_us &&
                    fail_share < kMaxFailShare && !lateness_grew;
    note(fmt("  step %.0f/s: p99 %.1fus (limit %.0f) fail_share %.4f "
             "(%zu/%zu) lateness %s -> %s",
             rates[i], m.sum.p99_us, limit_us, fail_share, m.sum.failed,
             m.sum.attempted, lateness_grew ? "grew" : "steady",
             ok ? "meets SLO" : "misses SLO"));
    if (ok) best = rates[i];
  }
  return best;
}

void print_host_context(Supervisor* sup) {
  utsname u{};
  ::uname(&u);
  std::string cpu_model;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      cpu_model = line.substr(line.find(':') + 2);
      break;
    }
  }
  double data_path = -1, threading = -1;
  if (sup) {
    auto servers = sup->by_role("server");
    if (!servers.empty()) {
      const Scrape s = Supervisor::scrape(*servers.front());
      if (auto it = s.find("server_data_path"); it != s.end()) {
        data_path = it->second;
      }
      if (auto it = s.find("server_threading_mode"); it != s.end()) {
        threading = it->second;
      }
    }
  }
  const char* path_name =
      data_path < 0 ? "unknown"
                    : janus::net::UdpSocket::data_path_name(
                          static_cast<janus::net::UdpSocket::DataPath>(
                              static_cast<int>(data_path)));
  const char* threading_name = threading == 0   ? "shared-queue"
                               : threading == 1 ? "shard-per-worker"
                                                : "unknown";
  note(fmt("host: cpus=%ld model=\"%s\" kernel=%s compiler=\"%s\" "
           "build_type=%s server.data_path=%.0f (%s) "
           "server.threading_mode=%.0f (%s) cpu_speed=%.3fns/op",
           ::sysconf(_SC_NPROCESSORS_ONLN), cpu_model.c_str(), u.release,
           __VERSION__, LIVEBENCH_BUILD_TYPE, data_path, path_name, threading,
           threading_name, cpu_speed_ns()));
}

double cpu_speed_ns() {
  // A fixed dependent integer chain: its time per step tracks how fast this
  // host runs right now (a shared host slows down when its neighbours are
  // busy), which explains shifts that move every latency together.
  constexpr std::uint64_t kSteps = 4'000'000;
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    std::uint64_t x = 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(rep);
    const std::int64_t start = now_ns();
    for (std::uint64_t i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    const double ns = static_cast<double>(now_ns() - start) /
                      static_cast<double>(kSteps);
    samples.push_back(ns + static_cast<double>(x & 1) * 1e-12);
  }
  return median(samples);
}

}  // namespace livebench
