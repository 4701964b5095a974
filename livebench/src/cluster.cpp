// cluster_handoff: a cluster-mode RouterNode and ClusterCoordinator in this
// process (janusd exposes no reshard trigger), forked janusd members with
// HA standbys, open-loop HTTP at a fixed rate over zero-refill audited keys
// plus bulk keys, one live reshard 2 -> 3 members and one SIGKILL of a
// master per run.
#include <exception>
#include <thread>

#include "cluster/coordinator.hpp"
#include "cluster/shard_map.hpp"
#include "common/clock.hpp"
#include "driver.hpp"
#include "router/router_node.hpp"
#include "timing.hpp"

namespace livebench {
namespace {

using janus::net::SockAddr;

constexpr double kRate = 2000;          // offered req/s, every phase
constexpr std::size_t kAudited = 32;    // zero refill, capacity kAuditCap
constexpr double kAuditCap = 100;
constexpr std::size_t kBulk = 256;      // generous
constexpr std::size_t kMissing = 8;
constexpr std::size_t kProbeKeys = 16;  // sampled migrating keys

/// The hand-off phase runs for kHandoffShare of --seconds; the reshard and
/// the master kill happen at these shares of it.
constexpr double kHandoffShare = 0.35;
constexpr double kReshardAt = 1.0 / 3;
constexpr double kKillAt = 2.0 / 3;

struct ClusterStack {
  std::unique_ptr<Supervisor> sup;
  janus::cluster::ShardMapHolder holder;
  std::unique_ptr<janus::router::RouterNode> router;
  std::unique_ptr<janus::cluster::ClusterCoordinator> coordinator;
  std::uint64_t boot_epoch = 0;

  ~ClusterStack() { stop(); }
  void stop() {
    if (coordinator) coordinator->stop();
    if (router) router->stop();
    if (sup) sup->stop_all();
  }
  Proc& proc(const std::string& name) {
    for (Proc& p : sup->procs()) {
      if (p.name == name) return p;
    }
    throw std::runtime_error("no process " + name);
  }
};

janus::cluster::MemberSpec spec_of(const Proc& p) {
  janus::cluster::MemberSpec s;
  s.member = {.name = p.name, .udp_addr = p.addr, .cluster_addr = p.cluster};
  s.bfd_addr = p.bfd;
  return s;
}

janus::cluster::MemberSpec with_standby(const Proc& master,
                                        const Proc& standby) {
  janus::cluster::MemberSpec s = spec_of(master);
  // The standby takes over the master's slot under the master's name.
  s.standby = janus::cluster::Member{.name = master.name,
                                     .udp_addr = standby.addr,
                                     .cluster_addr = standby.cluster};
  return s;
}

std::unique_ptr<ClusterStack> start_stack(const Options& opt,
                                          const std::string& rules,
                                          const KeySet& keys) {
  auto st = std::make_unique<ClusterStack>();
  st->sup = std::make_unique<Supervisor>(opt.janusd, opt.workdir);
  Supervisor& sup = *st->sup;
  const std::vector<std::string> base = {"--listen", "127.0.0.1:0",
                                         "--rules", rules, "--cluster-listen",
                                         "127.0.0.1:0"};
  auto with = [&](std::vector<std::string> extra) {
    std::vector<std::string> a = base;
    a.insert(a.end(), extra.begin(), extra.end());
    return a;
  };
  Proc& m0 = sup.launch("qos-0", "server",
                        with({"--bfd-listen", "127.0.0.1:0", "--ha-listen",
                              "127.0.0.1:0"}));
  Proc& m1 = sup.launch("qos-1", "server",
                        with({"--bfd-listen", "127.0.0.1:0", "--ha-listen",
                              "127.0.0.1:0"}));
  Proc& m2 = sup.launch("qos-2", "server",
                        with({"--bfd-listen", "127.0.0.1:0"}));
  sup.await(m0);
  sup.await(m1);
  sup.await(m2);
  Proc& s0 = sup.launch("qos-0-standby", "server",
                        with({"--ha-master", m0.ha.to_string()}));
  Proc& s1 = sup.launch("qos-1-standby", "server",
                        with({"--ha-master", m1.ha.to_string()}));
  sup.await(s0);
  sup.await(s1);
  sup.wait_healthy();

  auto resolver = std::make_shared<janus::router::StaticResolver>();
  auto router = janus::router::RouterNode::start({"127.0.0.1", 0},
                                                 {"cluster"}, resolver);
  if (!router.ok()) throw std::runtime_error(router.error().message);
  st->router = std::move(router).take();
  st->router->attach_shard_map(&st->holder);
  janus::cluster::CoordinatorOptions copts;
  copts.metrics = &st->router->metrics();
  st->coordinator = std::make_unique<janus::cluster::ClusterCoordinator>(
      st->holder, copts, janus::SteadyClock::instance());
  auto epoch = st->coordinator->bootstrap(
      {with_standby(m0, s0), with_standby(m1, s1)});
  if (!epoch.ok()) throw std::runtime_error(epoch.error().message);
  st->boot_epoch = epoch.value();

  // Warm-up: every bulk key and every missing key once, verdicts checked.
  // A cold stack may miss the UDP budget on its first requests; those are
  // retried, only a decided verdict is judged.
  janus::net::HttpClient client(st->router->addr());
  auto ask = [&client](const std::string& key) {
    Answer ans = read_http(client.get("/qos?key=" + key));
    for (int retry = 0; !ans.decided && retry < 100; ++retry) {
      ans = read_http(client.get("/qos?key=" + key));
    }
    if (!ans.decided) throw std::runtime_error("warm-up failed for " + key);
    return ans.allowed;
  };
  for (std::size_t i = keys.tight; i < keys.corpus.size(); ++i) {
    if (!ask(keys.corpus[i].key)) {
      throw VerdictError("warm-up: bulk key denied: " + keys.corpus[i].key);
    }
  }
  for (const auto& k : keys.missing) {
    if (ask(k)) throw VerdictError("warm-up: missing key admitted: " + k);
  }
  return st;
}

/// Per-node counter deltas, tolerating a node that died mid-run: its last
/// scrape before the kill stands in for the end.
double node_delta(const std::map<std::string, Scrape>& before,
                  const std::map<std::string, Scrape>& pre_kill,
                  const std::map<std::string, Scrape>& after,
                  const std::string& name) {
  double total = 0;
  for (const auto& [node, b] : before) {
    auto it = after.find(node);
    const Scrape& end = it != after.end() ? it->second : pre_kill.at(node);
    total += delta(b, end, name);
  }
  return total;
}

std::map<std::string, Scrape> scrape_nodes(Supervisor& sup) {
  std::map<std::string, Scrape> out;
  for (Proc* p : sup.by_role("server")) out[p->name] = Supervisor::scrape(*p);
  return out;
}

}  // namespace

RunResult run_cluster_handoff(const Options& opt) {
  RunResult r;
  KeySet keys;
  const std::uint64_t tag = draw(opt.seed, 20, 0) & 0xFFFFFF;
  for (std::size_t i = 0; i < kAudited; ++i) {
    keys.corpus.push_back({fmt("audit-%06llx-%zu",
                               static_cast<unsigned long long>(tag), i),
                           0.0, kAuditCap});
  }
  for (std::size_t i = 0; i < kBulk; ++i) {
    keys.corpus.push_back({fmt("bulk-%06llx-%zu",
                               static_cast<unsigned long long>(tag), i),
                           1e6, 1e6});
  }
  for (std::size_t i = 0; i < kMissing; ++i) {
    keys.missing.push_back(
        fmt("absent-%06llx-%zu", static_cast<unsigned long long>(tag), i));
  }
  keys.tight = kAudited;
  const std::string rules = opt.workdir + "/rules.conf";
  write_rules(rules, keys.corpus);
  // 10% audited (uniform), 2% missing, the rest bulk.
  const Mix mix(keys, opt.seed, 0.02, 0.10, 0, 0);

  // The generator's connections are re-made for each stack; the issue
  // function reads `clients` at call time.
  std::vector<std::unique_ptr<janus::net::HttpClient>> clients;
  Verdicts verdicts;
  Audit audit(kAudited, kAuditCap, 0.0, kHttpThreads);
  const IssueFn issue = http_issue(mix, verdicts, &audit, clients);
  const PhaseSpec nominal_spec{.name = "nominal", .rate = kRate,
                               .seconds = 0.6 * opt.seconds / kStacks,
                               .threads = kHttpThreads};

  std::vector<double> setup_s;
  std::vector<double> load_s;  // per member: launch -> first /healthz 200
  std::vector<Measured> nominals;
  std::unique_ptr<ClusterStack> st;
  for (int i = 0; i < kStacks; ++i) {
    if (st) st->stop();
    st.reset();
    const std::int64_t start = now_ns();
    st = start_stack(opt, rules, keys);
    setup_s.push_back(seconds_since(start));
    for (Proc* p : st->sup->by_role("server")) {
      load_s.push_back(static_cast<double>(p->healthy_ns - p->launched_ns) /
                       1e9);
    }
    if (i == 0) print_host_context(st->sup.get());
    note(fmt("stack %d: set up in %.3fs", i, setup_s.back()));
    clients.clear();
    for (int t = 0; t < kHttpThreads; ++t) {
      clients.push_back(
          std::make_unique<janus::net::HttpClient>(st->router->addr()));
    }
    // Audited credit spent on a torn-down stack is gone with it: audit
    // only the last stack, which also runs the hand-off.
    audit.reset();
    nominals.push_back(measure(*st->sup, nominal_spec, issue, kHttpLimitUs));
    verdicts.throw_if_wrong();
  }
  Supervisor& sup = *st->sup;
  auto& coord = *st->coordinator;
  auto& rmetrics = st->router->metrics();

  if (opt.trace) {
    InProcStack inproc(keys.corpus);
    auto side_udp = udp_clients();
    Verdicts side;
    // The router entry reuses the thread's own connection, as the gateway
    // entry of http_hot does: a side connection would meet a colder worker.
    const std::vector<Entry> entries = {
        {"router.http",
         [&](int t, const std::string& k) {
           check_side_stream(read_http(clients[t]->get("/qos?key=" + k)), k,
                             side);
         }},
        {"server.udp",
         [&](int t, const std::string& k) {
           const auto map = st->holder.snapshot();
           janus::wire::QosRequest req;
           req.key = k;
           req.epoch = map->epoch;  // v3 frame at the live epoch
           auto resp = side_udp[t]->call(
               map->members[map->owner_of(k)].udp_addr, req);
           if (resp.ok()) check_side_stream(read_udp(resp.value()), k, side);
         }},
        {"admission.check",
         [&](int, const std::string& k) {
           check_side_stream({.decided = true, .allowed = inproc.check(k)}, k,
                             side);
         }},
    };
    Spans spans({entries[0].name, entries[1].name, entries[2].name});
    PhaseSpec traced_spec = nominal_spec;
    traced_spec.name = "traced nominal";
    traced_spec.seconds = 0.15 * opt.seconds;
    traced_spec.first_seq = 500'000'000;
    const Measured traced = measure(sup, traced_spec, issue, kHttpLimitUs,
                                    side_stream(mix, entries, spans));
    verdicts.throw_if_wrong();
    side.throw_if_wrong();
    report_trace(r, spans, {"router.self_us_p50", "server.self_us_p50", ""},
                 traced.sum, nominals.back().sum.p50_win_us);
    std::vector<std::string> warm_keys;
    for (std::size_t i = kAudited; i < keys.corpus.size(); ++i) {
      warm_keys.push_back(keys.corpus[i].key);
    }
    report_inproc(r, inproc, warm_keys, warm_keys);
  }

  // --- the measured phase: steady, reshard 2 -> 3, SIGKILL qos-0 ---------
  const auto before = scrape_nodes(sup);
  // The in-process router's registry, keyed like its /metrics page would
  // be by the dotted names (histograms as <name>_sum / <name>_count).
  auto scrape_router = [&rmetrics] {
    Scrape s;
    for (const auto& [k, v] : rmetrics.snapshot_counters()) {
      s[k] = static_cast<double>(v);
    }
    for (const auto& [k, h] : rmetrics.snapshot_histograms()) {
      s[k + "_sum"] = h.sum();
      s[k + "_count"] = static_cast<double>(h.count());
    }
    return s;
  };
  const Scrape router_before = scrape_router();
  const std::uint64_t publish_errors0 = coord.publish_errors();
  const PhaseSpec spec{.name = "handoff", .rate = kRate,
                       .seconds = kHandoffShare * opt.seconds,
                       .threads = kHttpThreads, .first_seq = 600'000'000};
  PhaseResult phase;
  const std::int64_t phase_start = now_ns();
  std::thread gen([&] { phase = run_open_loop(spec, issue); });

  double reshard_call_ms = 0, reshard_ms = 0;
  double detect_ms = 0, failover_ms = 0;
  std::map<std::string, Scrape> pre_kill;
  double hwm_pre_kill = 0;
  std::exception_ptr event_error;
  try {
    janus::net::HttpClient probe(st->router->addr());
    auto sleep_until_share = [&](double share) {
      const std::int64_t at =
          phase_start + static_cast<std::int64_t>(share * spec.seconds * 1e9);
      while (now_ns() < at) ::usleep(1000);
    };
    sleep_until_share(kReshardAt);

    // Reshard 2 -> 3 members.
    const auto old_map = st->holder.snapshot();
    const std::int64_t call = now_ns();
    auto grown = coord.reshard({with_standby(st->proc("qos-0"),
                                             st->proc("qos-0-standby")),
                                with_standby(st->proc("qos-1"),
                                             st->proc("qos-1-standby")),
                                spec_of(st->proc("qos-2"))});
    if (!grown.ok()) throw std::runtime_error(grown.error().message);
    reshard_call_ms = static_cast<double>(now_ns() - call) / 1e6;
    const auto new_map = st->holder.snapshot();
    std::vector<std::string> moving;
    for (std::size_t i = kAudited; i < keys.corpus.size(); ++i) {
      if (moving.size() < kProbeKeys &&
          janus::cluster::key_migrates(*old_map, *new_map,
                                       keys.corpus[i].key)) {
        moving.push_back(keys.corpus[i].key);
      }
    }
    for (const auto& k : moving) {
      while (true) {
        const Answer ans = read_http(probe.get("/qos?key=" + k));
        if (ans.decided) {
          if (!ans.allowed) throw VerdictError("migrated bulk key denied: " + k);
          break;
        }
        if (seconds_since(call) > 10) {
          throw std::runtime_error("migrated key never admitted: " + k);
        }
      }
    }
    reshard_ms = static_cast<double>(now_ns() - call) / 1e6;

    // SIGKILL the master of slot 0.
    sleep_until_share(kKillAt);
    const auto map3 = st->holder.snapshot();
    std::vector<std::string> owned;
    for (std::size_t i = kAudited; i < keys.corpus.size(); ++i) {
      if (map3->owner_of(keys.corpus[i].key) == 0) {
        owned.push_back(keys.corpus[i].key);
      }
    }
    pre_kill = scrape_nodes(sup);
    hwm_pre_kill = sup.max_hwm_mb("server");
    const std::uint64_t failovers0 = coord.failovers();
    const std::uint64_t epoch0 = st->holder.epoch();
    const std::int64_t killed = now_ns();
    sup.sigkill(st->proc("qos-0"));
    // Detection: the coordinator promotes the standby, installing the new
    // map here before it publishes and counts the failover.
    std::size_t n = 0;
    while (failover_ms == 0) {
      if (detect_ms == 0 && (coord.failovers() > failovers0 ||
                             st->holder.epoch() > epoch0)) {
        detect_ms = static_cast<double>(now_ns() - killed) / 1e6;
      }
      if (detect_ms != 0) {
        const std::string& k = owned[n++ % owned.size()];
        const Answer ans = read_http(probe.get("/qos?key=" + k));
        if (ans.decided && ans.allowed) {
          failover_ms = static_cast<double>(now_ns() - killed) / 1e6;
        }
      } else {
        ::usleep(100);
      }
      if (seconds_since(killed) > 10) {
        throw std::runtime_error("no admitted decision after the failover");
      }
    }
  } catch (...) {
    event_error = std::current_exception();
  }
  gen.join();
  if (event_error) std::rethrow_exception(event_error);
  verdicts.throw_if_wrong();

  // Drain every audited key to its first decided FALSE; admitted units
  // across the whole run may not exceed capacity (zero refill).
  {
    janus::net::HttpClient drain(st->router->addr());
    for (std::size_t i = 0; i < kAudited; ++i) {
      const std::string& k = keys.corpus[i].key;
      for (int tries = 0; tries < 1000; ++tries) {
        const std::int64_t sent = now_ns();
        const Answer ans = read_http(drain.get("/qos?key=" + k));
        if (!ans.decided) continue;
        audit.record(0, i, ans.allowed, sent, now_ns());
        if (!ans.allowed) break;
      }
    }
  }
  std::size_t keys_over = 0;
  const double overadmit = audit.overadmitted(&keys_over);
  const auto after = scrape_nodes(sup);

  // --- end-to-end rows: the per-stack nominal phases -------------------------
  report_server_layer(r, nominals.back());
  // fail_share covers the hand-off phase and the over-admitted units too.
  tally(r, phase);
  r.overadmitted = overadmit;
  report_end_to_end(r, setup_s, nominals,
                    std::max(hwm_pre_kill, sup.max_hwm_mb("server")));
  const Summary handoff = summarize(phase, kHttpLimitUs);
  note("hand-off phase: " + format_summary(handoff));
  r.set("failover_ms", failover_ms);
  r.set("reshard_ms", reshard_ms);
  r.set("overadmit_units", overadmit);
  r.set("cluster.detect_ms", detect_ms);
  r.set("cluster.promote_to_admit_ms", failover_ms - detect_ms);
  r.set("cluster.reshard_call_ms", reshard_call_ms);
  note(fmt("reshard: call %.2fms, all %zu sampled migrating keys admitted "
           "at the new epoch after %.2fms",
           reshard_call_ms, kProbeKeys, reshard_ms));
  note(fmt("failover: kill -> detect %.2fms -> first admitted decision at "
           "the new epoch %.2fms",
           detect_ms, failover_ms));
  note(fmt("audit: %llu audited units admitted, %.0f beyond capacity on %zu "
           "keys",
           static_cast<unsigned long long>(audit.admitted_total()), overadmit,
           keys_over));

  // --- per-layer rows ------------------------------------------------------
  const Scrape router_after = scrape_router();
  const double rreq = delta(router_before, router_after, "router.requests");
  const double rtt_n =
      delta(router_before, router_after, "router.udp_rtt_us_count");
  r.set("router.udp_rtt_us_mean",
        rtt_n > 0
            ? delta(router_before, router_after, "router.udp_rtt_us_sum") /
                  rtt_n
            : 0);
  r.set("router.retries_per_req",
        rreq > 0 ? delta(router_before, router_after, "router.udp_retries") /
                       rreq
                 : 0);
  r.set("router.default_replies",
        delta(router_before, router_after, "router.default_replies"));
  r.set("router.stale_reroutes",
        delta(router_before, router_after, "router.stale_epoch_reroutes"));
  r.set("cluster.migrated_in",
        node_delta(before, pre_kill, after, "server_migrated_in"));
  r.set("cluster.deferred",
        node_delta(before, pre_kill, after, "server_cluster_deferred"));
  const double decided = static_cast<double>(verdicts.allowed_count() +
                                             verdicts.denied_count());
  r.set("core.deny_share", static_cast<double>(verdicts.denied_count()) /
                               std::max(1.0, decided));
  r.set("db.load_s", median(load_s));
  r.set("cluster.publish_errors",
        static_cast<double>(coord.publish_errors() - publish_errors0));
  note(fmt("router deltas: requests=%.0f retries=%.0f default_replies=%.0f "
           "stale_reroutes=%.0f; servers: migrated_in=%.0f deferred=%.0f; "
           "publish_errors=%.0f",
           rreq, delta(router_before, router_after, "router.udp_retries"),
           r.metrics["router.default_replies"],
           r.metrics["router.stale_reroutes"], r.metrics["cluster.migrated_in"],
           r.metrics["cluster.deferred"], r.metrics["cluster.publish_errors"]));

  r.check(coord.failovers() == 1, fmt("exactly one failover (%llu)",
                                      static_cast<unsigned long long>(
                                          coord.failovers())));
  r.check(st->holder.epoch() == st->boot_epoch + 2,
          fmt("one reshard and one failover epoch bump (epoch %llu -> %llu)",
              static_cast<unsigned long long>(st->boot_epoch),
              static_cast<unsigned long long>(st->holder.epoch())));
  st->stop();
  return r;
}

}  // namespace livebench
