// http_hot, udp_hot and udp_churn: forked janusd stacks driven open-loop
// from this process. cluster_handoff lives in cluster.cpp.
#include <cmath>
#include <cstdio>
#include <thread>

#include "driver.hpp"
#include "core/key_router.hpp"
#include "timing.hpp"
#include "workload/key_generator.hpp"

namespace livebench {
namespace {

using janus::net::SockAddr;

// Offered rates (req/s), fixed per workload so every run and every commit
// sees the same load. Chosen on a 4-vCPU host: nominal sits near half the
// knee, the ladder brackets the knee, overload is about twice it.
constexpr double kHttpNominal = 3000;
const std::vector<double> kHttpLadder = {4000, 8000, 12000, 16000, 20000};
constexpr double kUdpNominal = 6000;
const std::vector<double> kUdpLadder = {5000, 10000, 15000, 20000, 30000};
constexpr double kUdpOverload = 50000;
constexpr double kChurnNominal = 5000;

constexpr std::size_t kHotKeys = 1000;
constexpr std::size_t kMissingKeys = 10;
constexpr double kGenerous = 1e6;  // rate and capacity no run can exhaust

std::string rules_path(const Options& opt) {
  return opt.workdir + "/rules.conf";
}

std::vector<std::string> corpus_keys(const KeySet& k, std::size_t from,
                                     std::size_t count) {
  std::vector<std::string> out;
  for (std::size_t i = from; i < std::min(k.corpus.size(), from + count);
       ++i) {
    out.push_back(k.corpus[i].key);
  }
  return out;
}

/// corpus[first, first + count) once each, then (if asked) every missing
/// key, from `threads` threads, checking each verdict.
void warm_up(const KeySet& keys, std::size_t first, std::size_t count,
             bool missing_too, int threads,
             const std::function<Answer(int, const std::string&)>& ask) {
  std::vector<const std::string*> todo;
  std::vector<bool> expect;
  for (std::size_t i = first; i < std::min(keys.corpus.size(), first + count);
       ++i) {
    todo.push_back(&keys.corpus[i].key);
    expect.push_back(true);
  }
  if (missing_too) {
    for (const auto& k : keys.missing) {
      todo.push_back(&k);
      expect.push_back(false);
    }
  }
  Verdicts v;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < todo.size(); i += threads) {
        // A cold stack may miss the 500 µs UDP budget on its first
        // requests: warm-up retries those; only verdicts must be right.
        Answer ans = ask(t, *todo[i]);
        for (int retry = 0; !ans.decided && retry < 100; ++retry) {
          ans = ask(t, *todo[i]);
        }
        if (!ans.decided) {
          v.wrong("warm-up request failed for " + *todo[i]);
        } else if (ans.allowed != expect[i]) {
          v.wrong("warm-up verdict wrong for " + *todo[i]);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  v.throw_if_wrong();
}

std::string addr_list(const std::vector<Proc*>& procs) {
  std::string out;
  for (const Proc* p : procs) {
    if (!out.empty()) out += ",";
    out += p->addr.to_string();
  }
  return out;
}

/// Two QoS servers over the same rules file, loading in parallel.
void spawn_servers(Supervisor& sup, const std::string& rules) {
  Proc& s0 = sup.launch("server-0", "server",
                        {"--listen", "127.0.0.1:0", "--rules", rules});
  Proc& s1 = sup.launch("server-1", "server",
                        {"--listen", "127.0.0.1:0", "--rules", rules});
  sup.await(s0);
  sup.await(s1);
}

std::vector<SockAddr> server_addrs(Supervisor& sup) {
  std::vector<SockAddr> out;
  for (Proc* p : sup.by_role("server")) out.push_back(p->addr);
  return out;
}

/// UDP check outside the generator (warm-up, traced side stream).
Answer udp_ask(janus::router::UdpQosClient& client,
               const std::vector<SockAddr>& servers, const std::string& key) {
  const janus::core::KeyRouter router(servers.size());
  janus::wire::QosRequest req;
  req.key = key;
  auto r = client.call(servers[router.index_for(key)], req);
  return r.ok() ? read_udp(r.value()) : Answer{};
}

}  // namespace

// ---------------------------------------------------------------------------

RunResult run_http_hot(const Options& opt) {
  RunResult r;
  KeySet keys;
  // The photo app keys by REMOTE_ADDR: distinct 10.x.y.z strings, a seeded
  // bijection of the key index onto 24 bits.
  const std::uint64_t offset = draw(opt.seed, 10, 0);
  for (std::size_t i = 0; i < kHotKeys; ++i) {
    const std::uint64_t x = (i * 0x9E3779B1ull + offset) & 0xFFFFFF;
    keys.corpus.push_back({fmt("10.%llu.%llu.%llu",
                               static_cast<unsigned long long>(x >> 16),
                               static_cast<unsigned long long>((x >> 8) & 255),
                               static_cast<unsigned long long>(x & 255)),
                           kGenerous, kGenerous});
  }
  for (std::size_t i = 0; i < kMissingKeys; ++i) {
    keys.missing.push_back(fmt("192.0.2.%zu", i));  // TEST-NET-1, no rules
  }
  write_rules(rules_path(opt), keys.corpus);
  const Mix mix(keys, opt.seed, 0.01, 0, 0, 0);

  auto spawn = [&](Supervisor& sup) {
    spawn_servers(sup, rules_path(opt));
    const std::string backends = addr_list(sup.by_role("server"));
    Proc& r0 = sup.launch("router-0", "router",
                          {"--listen", "127.0.0.1:0", "--backends", backends});
    Proc& r1 = sup.launch("router-1", "router",
                          {"--listen", "127.0.0.1:0", "--backends", backends});
    sup.await(r0);
    sup.await(r1);
    sup.spawn("gateway", "gateway",
              {"--listen", "127.0.0.1:0", "--backends",
               addr_list(sup.by_role("router")), "--policy", "prequal"});
  };
  // The warm-up's connections are the ones measured: a new connection could
  // land on another gateway worker, whose own router connections would
  // push a router past its workers (see kHttpThreads).
  std::vector<std::unique_ptr<janus::net::HttpClient>> clients;
  auto warm = [&](Supervisor& sup) {
    const SockAddr gw = sup.by_role("gateway").front()->addr;
    clients.clear();
    for (int t = 0; t < kHttpThreads; ++t) {
      clients.push_back(std::make_unique<janus::net::HttpClient>(gw));
    }
    warm_up(keys, 0, keys.corpus.size(), true, kHttpThreads,
            [&](int t, const std::string& key) {
              return read_http(clients[t]->get("/qos?key=" + key));
            });
  };
  Verdicts verdicts;
  const IssueFn issue = http_issue(mix, verdicts, nullptr, clients);
  const PhaseSpec nominal_spec{.name = "nominal", .rate = kHttpNominal,
                               .seconds = 0.75 * opt.seconds / kStacks,
                               .threads = kHttpThreads};
  Stacks stacks = run_stacks(opt, kStacks, spawn, warm, [&](Supervisor& sup) {
    Measured m = measure(sup, nominal_spec, issue, kHttpLimitUs);
    verdicts.throw_if_wrong();
    const double gw_requests = m.d("gateway", "gateway_requests");
    r.check(static_cast<std::size_t>(gw_requests) == m.sum.attempted,
            fmt("gateway.requests delta %.0f equals requests attempted %zu",
                gw_requests, m.sum.attempted));
    r.check(m.d("router", "router_requests") == gw_requests,
            "every gateway request reached a router");
    return m;
  });
  Supervisor& sup = *stacks.sup;
  const Measured& nominal = stacks.nominal.back();

  const double gw_requests = nominal.d("gateway", "gateway_requests");
  const double rtt_sum = nominal.d("router", "router_udp_rtt_us_sum");
  const double rtt_n = nominal.d("router", "router_udp_rtt_us_count");
  const double rreq = nominal.d("router", "router_requests");
  const double decided = std::max<double>(1, nominal.decided());
  r.set("lb.cpu_us_per_req", nominal.cpu_s.at("gateway") * 1e6 / decided);
  r.set("lb.fallback_rr_share",
        gw_requests > 0
            ? nominal.d("gateway", "gateway_prequal_fallback_rr") / gw_requests
            : 0);
  r.set("lb.backend_errors", nominal.d("gateway", "gateway_backend_errors"));
  r.set("router.cpu_us_per_req", nominal.cpu_s.at("router") * 1e6 / decided);
  r.set("router.udp_rtt_us_mean", rtt_n > 0 ? rtt_sum / rtt_n : 0);
  r.set("router.retries_per_req",
        rreq > 0 ? nominal.d("router", "router_udp_retries") / rreq : 0);
  r.set("router.default_replies",
        nominal.d("router", "router_default_replies"));
  note(fmt("gateway deltas: requests=%.0f fallback_rr=%.0f backend_errors=%.0f"
           " cpu=%.3fs; router deltas: requests=%.0f retries=%.0f "
           "default_replies=%.0f udp_rtt %.0f/%.0f cpu=%.3fs",
           gw_requests, nominal.d("gateway", "gateway_prequal_fallback_rr"),
           r.metrics["lb.backend_errors"], nominal.cpu_s.at("gateway"), rreq,
           nominal.d("router", "router_udp_retries"),
           r.metrics["router.default_replies"], rtt_sum, rtt_n,
           nominal.cpu_s.at("router")));
  report_server_layer(r, nominal);
  report_end_to_end(r, stacks.setup_s, stacks.nominal,
                    sup.max_hwm_mb("server"));
  r.set("db.load_s", median(stacks.load_s));
  r.set("core.deny_share",
        static_cast<double>(verdicts.denied_count()) /
            std::max<double>(1, static_cast<double>(
                                    verdicts.allowed_count() +
                                    verdicts.denied_count())));

  const double max_rps =
      run_ladder(sup, kHttpLadder, 0.25 * opt.seconds / kHttpLadder.size(),
                 100'000'000, kHttpThreads, 1, issue, kHttpLimitUs);
  verdicts.throw_if_wrong();
  r.set("max_rps_at_slo", max_rps);
  note(fmt("max_rps_at_slo = %.0f req/s (limit p99 <= %.0fus)", max_rps,
           kHttpLimitUs));

  if (opt.trace) {
    InProcStack inproc(keys.corpus);
    const std::vector<Proc*> routers = sup.by_role("router");
    const std::vector<SockAddr> servers = server_addrs(sup);
    // The gateway entry reuses the thread's own connection; each thread
    // adds one router connection (see kHttpThreads).
    std::vector<std::unique_ptr<janus::net::HttpClient>> rt_side;
    auto udp_side = udp_clients();
    for (int t = 0; t < kHttpThreads; ++t) {
      rt_side.push_back(std::make_unique<janus::net::HttpClient>(
          routers[t % routers.size()]->addr));
    }
    Verdicts side;
    const std::vector<Entry> entries = {
        {"gateway.http",
         [&](int t, const std::string& k) {
           check_side_stream(read_http(clients[t]->get("/qos?key=" + k)), k,
                             side);
         }},
        {"router.http",
         [&](int t, const std::string& k) {
           check_side_stream(read_http(rt_side[t]->get("/qos?key=" + k)), k,
                             side);
         }},
        {"server.udp",
         [&](int t, const std::string& k) {
           check_side_stream(udp_ask(*udp_side[t], servers, k), k, side);
         }},
        {"admission.check",
         [&](int, const std::string& k) {
           check_side_stream({.decided = true, .allowed = inproc.check(k)}, k,
                             side);
         }},
    };
    Spans spans({entries[0].name, entries[1].name, entries[2].name,
                 entries[3].name});
    PhaseSpec traced_spec = nominal_spec;
    traced_spec.name = "traced nominal";
    traced_spec.seconds = 0.15 * opt.seconds;
    const Measured traced = measure(sup, traced_spec, issue, kHttpLimitUs,
                                    side_stream(mix, entries, spans));
    verdicts.throw_if_wrong();
    side.throw_if_wrong();
    report_trace(r, spans,
                 {"lb.self_us_p50", "router.self_us_p50", "server.self_us_p50",
                  ""},
                 traced.sum, nominal.sum.p50_win_us);
    const auto warm_keys = corpus_keys(keys, 0, kHotKeys);
    report_inproc(r, inproc, warm_keys, warm_keys);
  }
  return r;
}

// ---------------------------------------------------------------------------

namespace {

/// udp_hot and udp_churn share everything but the corpus, mix and phases.
struct UdpRun {
  explicit UdpRun(const Options& o) : opt(o) {}

  const Options& opt;
  KeySet keys;
  std::unique_ptr<Mix> mix;
  // Warm-up: corpus[warm_first, +warm_count) and maybe the missing keys.
  std::size_t warm_first = 0;
  std::size_t warm_count = SIZE_MAX;
  bool warm_missing = true;
  // Tight keys (corpus[0, keys.tight)) are audited against this quota.
  double tight_capacity = 0;
  double tight_refill = 0;
  double first_touch_share = 0;

  RunResult run(int stack_count, double nominal_rate, double nominal_s,
                const std::vector<double>& ladder, double ladder_s,
                double overload_rate, double overload_s) {
    RunResult r;
    write_rules(rules_path(opt), keys.corpus);
    std::vector<SockAddr> servers;
    auto clients = udp_clients();
    auto spawn = [&](Supervisor& sup) { spawn_servers(sup, rules_path(opt)); };
    auto warm = [&](Supervisor& sup) {
      servers = server_addrs(sup);
      warm_up(keys, warm_first, warm_count, warm_missing, kThreads,
              [&](int t, const std::string& key) {
                return udp_ask(*clients[t], servers, key);
              });
    };
    Verdicts verdicts;
    std::unique_ptr<Audit> audit;
    if (keys.tight > 0) {
      audit = std::make_unique<Audit>(keys.tight, tight_capacity,
                                      tight_refill, kThreads);
    }
    double overadmit = 0;
    const IssueFn issue =
        udp_issue(*mix, verdicts, audit.get(), servers, clients);
    const PhaseSpec nominal_spec{.name = "nominal", .rate = nominal_rate,
                                 .seconds = nominal_s, .threads = kThreads,
                                 .max_batch = 16};
    Stacks stacks =
        run_stacks(opt, stack_count, spawn, warm, [&](Supervisor& sup) {
      if (audit) audit->reset();  // each stack starts with fresh buckets
      Measured m = measure(sup, nominal_spec, issue, kUdpLimitUs);
      verdicts.throw_if_wrong();
      r.check(sup.by_role("gateway").empty() && sup.by_role("router").empty(),
              "no gateway or router process runs");
      if (audit) {
        std::size_t keys_over = 0;
        const double over = audit->overadmitted(&keys_over);
        overadmit += over;
        note(fmt("audit: %llu tight-key units admitted, %.0f beyond "
                 "allowance on %zu keys",
                 static_cast<unsigned long long>(audit->admitted_total()),
                 over, keys_over));
      }
      return m;
    });
    Supervisor& sup = *stacks.sup;
    const Measured& nominal = stacks.nominal.back();
    report_server_layer(r, nominal);
    r.set("udp.attempts_per_req", nominal.sum.mean_attempts);
    const double decided = static_cast<double>(verdicts.allowed_count() +
                                               verdicts.denied_count());
    r.set("core.deny_share",
          static_cast<double>(verdicts.denied_count()) /
              std::max(1.0, decided));
    note(fmt("verdicts: allowed=%llu denied=%llu (deny share %.3f)",
             static_cast<unsigned long long>(verdicts.allowed_count()),
             static_cast<unsigned long long>(verdicts.denied_count()),
             r.metrics["core.deny_share"]));
    first_touch_share = count_first_touches(nominal);
    // Over-admitted units count into fail_share.
    r.overadmitted = overadmit;
    r.set("overadmit_units", overadmit);
    report_end_to_end(r, stacks.setup_s, stacks.nominal,
                      sup.max_hwm_mb("server"));
    r.set("db.load_s", median(stacks.load_s));

    if (!ladder.empty()) {
      const double max_rps = run_ladder(sup, ladder, ladder_s, 100'000'000,
                                        kThreads, 64, issue, kUdpLimitUs);
      r.set("max_rps_at_slo", max_rps);
      note(fmt("max_rps_at_slo = %.0f req/s (limit p99 <= %.0fus)", max_rps,
               kUdpLimitUs));
    }
    if (overload_rate > 0) {
      const PhaseSpec spec{.name = "overload", .rate = overload_rate,
                           .seconds = overload_s, .threads = kThreads,
                           .max_batch = 64, .first_seq = 300'000'000};
      const Measured over = measure(sup, spec, issue, kUdpLimitUs);
      r.set("overload_goodput_rps", over.sum.within_limit_rps);
      note(fmt("overload_goodput_rps = %.0f decisions within %.0fus per "
               "second at %.0f/s offered; attempts/req %.3f, server drops "
               "%.0f",
               over.sum.within_limit_rps, kUdpLimitUs, overload_rate,
               over.sum.mean_attempts,
               over.d("server", "server_fifo_dropped") +
                   delta_prefix(over.before.at("server"),
                                over.after.at("server"),
                                "server_worker_queue_reject_w")));
    }
    verdicts.throw_if_wrong();

    if (opt.trace) {
      InProcStack inproc(keys.corpus);
      note(fmt("in-process corpus load: %zu rules in %.2fs",
               keys.corpus.size(), inproc.load_seconds()));
      auto side_udp = udp_clients();
      Verdicts side;
      const std::vector<Entry> entries = {
          {"server.udp",
           [&](int t, const std::string& k) {
             check_side_stream(udp_ask(*side_udp[t], servers, k), k, side);
           }},
          {"admission.check",
           [&](int, const std::string& k) {
             check_side_stream({.decided = true, .allowed = inproc.check(k)},
                               k, side);
           }},
      };
      Spans spans({entries[0].name, entries[1].name});
      PhaseSpec traced_spec = nominal_spec;
      traced_spec.name = "traced nominal";
      traced_spec.seconds = 0.15 * opt.seconds;
      traced_spec.first_seq = 200'000'000;
      const Measured traced = measure(sup, traced_spec, issue, kUdpLimitUs,
                                      side_stream(*mix, entries, spans));
      verdicts.throw_if_wrong();
      side.throw_if_wrong();
      report_trace(r, spans, {"server.self_us_p50", ""},
                   traced.sum, nominal.sum.p50_win_us);
      // Warm keys: the hot set; cold keys: distinct corpus keys this
      // process has not touched yet, spread over the whole corpus.
      const std::size_t n = keys.corpus.size() - keys.tight;
      std::vector<std::string> warm_keys, cold_keys;
      for (std::size_t i = 0; i < std::min<std::size_t>(n, kHotKeys); ++i) {
        warm_keys.push_back(keys.corpus[keys.tight + i].key);
      }
      const std::size_t cold = std::min<std::size_t>(n, 20'000);
      for (std::size_t i = 0; i < cold; ++i) {
        cold_keys.push_back(keys.corpus[keys.tight + i * (n / cold)].key);
      }
      report_inproc(r, inproc, warm_keys, cold_keys);
    }
    return r;
  }

  /// The servers export no admission counters, so first touches are
  /// counted here: requests for a key that no earlier request to this
  /// stack (warm-up included) asked about.
  double count_first_touches(const Measured& nominal) const {
    std::vector<bool> seen(keys.corpus.size() + keys.missing.size());
    for (std::size_t i = warm_first;
         i < std::min(keys.corpus.size(), warm_first + warm_count); ++i) {
      seen[i] = true;
    }
    std::size_t first = 0;
    for (const Record& rec : nominal.phase.records) {
      const Pick p = mix->pick(rec.seq);
      const std::size_t slot =
          p.kind == Kind::kMissing ? keys.corpus.size() + p.index : p.index;
      if (!seen[slot]) {
        seen[slot] = true;
        ++first;
      }
    }
    const double share =
        static_cast<double>(first) / std::max<double>(1, nominal.sum.attempted);
    note(fmt("first touches: %zu of %zu requests (share %.3f)", first,
             nominal.sum.attempted, share));
    return share;
  }
};

}  // namespace

RunResult run_udp_hot(const Options& opt) {
  UdpRun run(opt);
  // Sequential-number keys: the smallest v1 frame.
  const janus::workload::SequentialKeys seq_keys;
  for (std::size_t i = 0; i < kHotKeys; ++i) {
    run.keys.corpus.push_back({seq_keys.key(i), kGenerous, kGenerous});
  }
  for (std::size_t i = 0; i < kMissingKeys; ++i) {
    run.keys.missing.push_back(seq_keys.key(kHotKeys + i));
  }
  // Zipf skew over the hot keys; which key is hottest depends on the seed.
  std::vector<RuleLine>& c = run.keys.corpus;
  for (std::size_t i = c.size() - 1; i > 0; --i) {
    std::swap(c[i], c[draw(opt.seed, 11, i) % (i + 1)]);
  }
  run.mix = std::make_unique<Mix>(run.keys, opt.seed, 0.01, 0, 0.99, 0);
  const double R = opt.seconds;
  return run.run(kStacks, kUdpNominal, 0.6 * R / kStacks, kUdpLadder,
                 0.25 * R / kUdpLadder.size(), kUdpOverload, 0.1 * R);
}

RunResult run_udp_churn(const Options& opt) {
  constexpr std::size_t kCorpus = 1'000'000;
  constexpr std::size_t kTight = 1000;
  UdpRun run(opt);
  const janus::workload::UuidKeys uuids(opt.seed);
  run.keys.corpus.reserve(kCorpus);
  for (std::size_t i = 0; i < kCorpus; ++i) {
    // corpus[0, kTight): capacity 5, refill 1/s — a Zipf-hot subset that
    // is mostly denied. The rest: generous, drawn uniformly (first touches).
    const bool tight = i < kTight;
    run.keys.corpus.push_back(
        {uuids.key(i), tight ? 1.0 : 1000.0, tight ? 5.0 : 1000.0});
  }
  for (std::size_t i = 0; i < 10'000; ++i) {
    run.keys.missing.push_back(uuids.key(kCorpus + i));
  }
  run.keys.tight = kTight;
  run.tight_capacity = 5;
  run.tight_refill = 1;
  // Churn starts cold: warm-up only proves the stack answers, on the last
  // 2000 corpus keys (uniform draws rarely reach any one of them).
  run.warm_first = kCorpus - 2000;
  run.warm_count = 2000;
  run.warm_missing = false;
  run.mix = std::make_unique<Mix>(run.keys, opt.seed, 0.10, 0.20, 0, 0.99);
  // Each stack's nominal phase spans the servers' default 5 s sync and
  // checkpoint passes.
  RunResult r =
      run.run(kChurnStacks, kChurnNominal, std::max(6.0, 0.25 * opt.seconds),
              {}, 0, 0, 0);
  r.check(run.first_touch_share > 0.5,
          fmt("most decisions are first touches (share %.3f)",
              run.first_touch_share));
  r.check(r.metrics["core.deny_share"] > 0.05,
          fmt("deny share %.3f is well above zero",
              r.metrics["core.deny_share"]));
  return r;
}

}  // namespace livebench
