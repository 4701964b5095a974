// Allocation-count regression harness for the decision hot path (PR 4's
// zero-allocation contract, DESIGN.md §9): once a key's entry exists, a
// check/probe decision must not touch the heap — no std::string
// materialization for the lookup (transparent hash), no buffer churn in the
// wire codec (decode_request_view aliases the datagram), no per-decision
// bookkeeping allocations.
//
// Mechanism: the global operator new/delete are replaced with counting
// versions. Counting is armed per-thread around the measured region only, so
// gtest's own bookkeeping (assertion messages, test registration) never
// pollutes the count. This file must live in its own test binary — the
// replacement is program-wide.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/flight_recorder.hpp"
#include "common/metrics.hpp"
#include "core/admission.hpp"
#include "core/qos_table.hpp"
#include "db/rule_store.hpp"
#include "lb/prequal.hpp"
#include "net/socket.hpp"
#include "server/qos_server_node.hpp"
#include "wire/codec.hpp"
#include "wire/message.hpp"

namespace {

thread_local bool g_counting = false;
thread_local std::uint64_t g_alloc_count = 0;
// Process-wide counting, for paths that run on threads the test does not
// own (a live server's workers).
std::atomic<bool> g_counting_all{false};
std::atomic<std::uint64_t> g_all_count{0};

struct AllocGuard {
  AllocGuard() {
    g_alloc_count = 0;
    g_counting = true;
  }
  ~AllocGuard() { g_counting = false; }
  std::uint64_t count() const { return g_alloc_count; }
};

struct ProcessAllocGuard {
  ProcessAllocGuard() {
    g_all_count.store(0);
    g_counting_all.store(true);
  }
  ~ProcessAllocGuard() { g_counting_all.store(false); }
  std::uint64_t count() const { return g_all_count.load(); }
};

void count_alloc() {
  if (g_counting) ++g_alloc_count;
  if (g_counting_all.load(std::memory_order_relaxed)) {
    g_all_count.fetch_add(1, std::memory_order_relaxed);
  }
}

void* counted_alloc(std::size_t size) {
  count_alloc();
  void* p = std::malloc(size ? size : 1);
  if (!p) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  count_alloc();
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  count_alloc();
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace janus {
namespace {

using core::AdmissionConfig;
using core::AdmissionController;
using core::QosRule;

/// The flight recorder registers this thread's ring (one heap allocation,
/// ever) on the first recorded event. Decisions are 1-in-16 sampled into it,
/// so a guarded 64-iteration loop WILL record — pre-register the ring so the
/// guarded region only sees the steady-state (allocation-free) writes.
void warm_flight_recorder() {
  FlightRecorder::record(TraceEventType::kWatchdogStall, TraceStage::kAdmission,
                         0, 0, 0);
}

/// Minimal in-memory rule source (no allocation on the warm path because the
/// warm path never calls it — that is part of what these tests prove).
class StaticRuleSource : public core::RuleSource {
 public:
  std::optional<QosRule> fetch(std::string_view key) override {
    ++fetches_;
    return QosRule{.key = std::string(key),
                   .capacity = 1e9,
                   .refill_per_sec = 1e6,
                   .initial_credit = std::nullopt};
  }
  int fetches() const { return fetches_; }

 private:
  int fetches_ = 0;
};

TEST(HotpathAllocTest, CountingHookObservesAllocations) {
  // Sanity-check the harness itself: a deliberate allocation must register,
  // otherwise the zero-assertions below would pass vacuously.
  AllocGuard guard;
  auto* p = new std::uint64_t(42);
  EXPECT_GE(guard.count(), 1u);
  delete p;
}

TEST(HotpathAllocTest, WarmKeyAdmissionDecisionIsAllocationFree) {
  ManualClock clock;
  StaticRuleSource source;
  AdmissionConfig cfg;
  cfg.table_shards = 8;
  AdmissionController ac(clock, source, cfg);

  const std::string key = "tenant-42/upload-photo";
  ASSERT_TRUE(ac.check(key, 1).allowed);  // first touch: entry created
  ASSERT_EQ(source.fetches(), 1);
  warm_flight_recorder();

  {
    AllocGuard guard;
    for (int i = 0; i < 64; ++i) {
      auto d = ac.check(key, 1);
      ASSERT_TRUE(d.allowed);
    }
    EXPECT_EQ(guard.count(), 0u)
        << "warm-key check() allocated; transparent-hash lookup regressed";
  }
  EXPECT_EQ(source.fetches(), 1);  // still cached

  {
    AllocGuard guard;
    auto d = ac.probe(key, 1);
    ASSERT_TRUE(d.allowed);
    EXPECT_EQ(guard.count(), 0u) << "warm-key probe() allocated";
  }
}

TEST(HotpathAllocTest, WarmTableLookupIsAllocationFree) {
  core::ShardedQosTable table(8);
  const std::string key = "tenant-7/list-albums";
  auto make_entry = [] {
    return core::QosEntry{core::QosRule{},
                          core::LeakyBucket(100.0, 10.0, TimePoint{}), false};
  };
  table.with_entry_or_create(key, make_entry,
                             [](core::QosEntry&) { return true; });

  AllocGuard guard;
  for (int i = 0; i < 64; ++i) {
    auto found = table.with_entry(key, [](core::QosEntry&) { return true; });
    ASSERT_TRUE(found.has_value());
  }
  EXPECT_EQ(guard.count(), 0u)
      << "warm with_entry() allocated; PrehashedKey find regressed";
}

TEST(HotpathAllocTest, RequestViewDecodeIsAllocationFree) {
  wire::QosRequest req;
  req.request_id = 77;
  req.type = wire::RequestType::kCheck;
  req.cost = 3;
  req.key = "tenant-42/upload-photo";
  req.trace_id = "0123456789abcdef";
  std::vector<std::uint8_t> frame;
  wire::encode_to(req, frame);

  AllocGuard guard;
  for (int i = 0; i < 64; ++i) {
    auto view = wire::decode_request_view(frame);
    ASSERT_TRUE(view.ok());
    ASSERT_EQ(view.value().key, "tenant-42/upload-photo");
  }
  EXPECT_EQ(guard.count(), 0u)
      << "decode_request_view allocated; zero-copy decode regressed";
}

TEST(HotpathAllocTest, FullWarmDecisionPipelineIsAllocationFree) {
  // Datagram bytes -> view decode -> admission check, i.e. the exact worker
  // inner loop (qos_server_node.cpp) minus the socket.
  ManualClock clock;
  StaticRuleSource source;
  AdmissionConfig cfg;
  cfg.table_shards = 8;
  AdmissionController ac(clock, source, cfg);

  wire::QosRequest req;
  req.request_id = 1;
  req.type = wire::RequestType::kCheck;
  req.cost = 1;
  req.key = "tenant-9/render";
  std::vector<std::uint8_t> frame;
  wire::encode_to(req, frame);

  ASSERT_TRUE(ac.check(req.key, 1).allowed);  // warm the entry
  warm_flight_recorder();

  AllocGuard guard;
  for (int i = 0; i < 64; ++i) {
    auto view = wire::decode_request_view(frame);
    ASSERT_TRUE(view.ok());
    auto d = ac.check(view.value().key, view.value().cost);
    ASSERT_TRUE(d.allowed);
  }
  EXPECT_EQ(guard.count(), 0u)
      << "warm decode+decide pipeline allocated on the hot path";
}

TEST(HotpathAllocTest, ClusterEpochGateIsAllocationFree) {
  // DESIGN.md §11.3: in cluster mode every frame is v3 and the worker adds
  // exactly one branch — compare the frame's epoch against the node's —
  // before the unchanged warm decision path. This pins the whole clustered
  // inner loop (v3 view decode -> epoch compare -> check -> v3 response
  // encode into a reused buffer) at zero heap allocations, both when the
  // epoch matches and when it is stale (NACK encode).
  ManualClock clock;
  StaticRuleSource source;
  AdmissionConfig cfg;
  cfg.table_shards = 8;
  AdmissionController ac(clock, source, cfg);

  wire::QosRequest req;
  req.request_id = 9;
  req.type = wire::RequestType::kCheck;
  req.cost = 1;
  req.key = "tenant-11/cluster-op";
  req.epoch = 7;  // non-zero => v3 frame
  std::vector<std::uint8_t> frame;
  wire::encode_to(req, frame);

  std::atomic<std::uint64_t> node_epoch{7};  // same atomic load the server does
  ASSERT_TRUE(ac.check(req.key, 1).allowed);  // warm the entry
  warm_flight_recorder();

  wire::QosResponse resp;
  resp.epoch = 7;  // warm-up must be v3-sized, or the first real encode grows
  std::vector<std::uint8_t> out;
  wire::encode_to(resp, out);  // warm the reply buffer's capacity

  {
    AllocGuard guard;
    for (int i = 0; i < 64; ++i) {
      auto view = wire::decode_request_view(frame);
      ASSERT_TRUE(view.ok());
      ASSERT_EQ(view.value().epoch, 7u);
      const std::uint64_t current =
          node_epoch.load(std::memory_order_acquire);
      ASSERT_EQ(view.value().epoch, current);  // the one-branch epoch gate
      auto d = ac.check(view.value().key, view.value().cost);
      ASSERT_TRUE(d.allowed);
      resp.request_id = view.value().request_id;
      resp.allowed = d.allowed;
      resp.epoch = current;  // v3 reply
      out.clear();
      wire::encode_to(resp, out);
    }
    EXPECT_EQ(guard.count(), 0u)
        << "clustered warm pipeline allocated; epoch gate regressed";
  }

  {
    // Stale frame: the NACK short-circuit (status + current epoch into the
    // reused buffer, no decision) must also stay off the heap — it runs on
    // the worker thread during every reshard window.
    AllocGuard guard;
    for (int i = 0; i < 64; ++i) {
      auto view = wire::decode_request_view(frame);
      ASSERT_TRUE(view.ok());
      node_epoch.store(8, std::memory_order_release);
      const std::uint64_t current =
          node_epoch.load(std::memory_order_acquire);
      ASSERT_NE(view.value().epoch, current);
      resp.request_id = view.value().request_id;
      resp.status = wire::ResponseStatus::kStaleEpoch;
      resp.allowed = false;
      resp.epoch = current;
      out.clear();
      wire::encode_to(resp, out);
    }
    EXPECT_EQ(guard.count(), 0u)
        << "stale-epoch NACK encode allocated; reshard window would churn";
  }
}

TEST(HotpathAllocTest, WarmDecisionWithRecorderArmedIsAllocationFree) {
  // PR 6's acceptance bullet, stated directly: the recorder is ARMED (the
  // default) and the warm decision path still never touches the heap — the
  // sampled admission events and hot-key sketch notes write into
  // preallocated fixed-size structures only.
  ASSERT_TRUE(FlightRecorder::enabled());
  ManualClock clock;
  StaticRuleSource source;
  AdmissionConfig cfg;
  cfg.table_shards = 8;
  AdmissionController ac(clock, source, cfg);

  const std::string key = "tenant-3/traced-op";
  ASSERT_TRUE(ac.check(key, 1).allowed);
  warm_flight_recorder();

  AllocGuard guard;
  // 256 decisions cross the 1-in-16 sample gate ~16 times: ring writes and
  // Space-Saving sketch updates both land inside the guarded region.
  for (int i = 0; i < 256; ++i) {
    auto d = ac.check(key, 1);
    ASSERT_TRUE(d.allowed);
  }
  EXPECT_EQ(guard.count(), 0u)
      << "recorder-armed warm decision allocated; telemetry path regressed";
}

TEST(HotpathAllocTest, ExemplarRecordIsAllocationFree) {
  // Slow-request exemplar capture sits on the worker's post-decision path;
  // over-threshold samples copy trace/key into fixed byte arrays.
  Exemplar ex;
  ex.set_threshold(0);
  const std::string trace = "0123456789abcdef";
  const std::string key = "tenant-8/slow-op";

  AllocGuard guard;
  for (int i = 0; i < 64; ++i) {
    ex.record(1000 + i, trace, key);
  }
  EXPECT_EQ(guard.count(), 0u)
      << "Exemplar::record allocated; fixed-buffer capture regressed";
}

/// Runs `iters` warm send_many/recv_many cycles between `client` and
/// `server` under an AllocGuard and returns the allocation count. One
/// unguarded cycle runs first so every reusable buffer (batch arena,
/// socket-internal scratch) reaches steady-state size.
std::uint64_t measure_batch_io_allocs(net::UdpSocket& client,
                                      net::UdpSocket& server, int iters) {
  const auto addr = server.local_addr().value();
  static const std::vector<std::uint8_t> payload(64, 0xAB);
  std::vector<net::UdpSocket::OutDatagram> burst(4);
  for (auto& d : burst) d = {addr, payload};
  net::UdpSocket::RecvBatch batch(8);

  auto cycle = [&]() -> std::uint64_t {
    if (!client.send_many(burst).ok()) return ~0ull;
    std::size_t got = 0;
    for (int spins = 0; got < burst.size() && spins < 50; ++spins) {
      auto n = server.recv_many(batch, millis(200));
      if (!n.ok()) return ~0ull;
      got += n.value();
    }
    return got == burst.size() ? 0 : ~0ull;
  };
  if (cycle() != 0) return ~0ull;  // warm-up

  AllocGuard guard;
  for (int i = 0; i < iters; ++i) {
    if (cycle() != 0) return ~0ull;
  }
  return guard.count();
}

TEST(HotpathAllocTest, MmsgBatchIoIsAllocationFree) {
  // The batched provider the server runs: warm recvmmsg/sendmmsg cycles
  // stay off the heap.
  auto server = net::UdpSocket::bind({"127.0.0.1", 0});
  ASSERT_TRUE(server.ok());
  auto client = net::UdpSocket::create();
  ASSERT_TRUE(client.ok());
  server.value().set_data_path(net::UdpSocket::DataPath::kMmsg);
  client.value().set_data_path(net::UdpSocket::DataPath::kMmsg);

  const auto allocs =
      measure_batch_io_allocs(client.value(), server.value(), 8);
  ASSERT_NE(allocs, ~0ull) << "mmsg batch I/O cycle failed";
  EXPECT_EQ(allocs, 0u)
      << "warm mmsg send_many/recv_many allocated; batch path regressed";
}

TEST(HotpathAllocTest, SharedQueueWorkerWarmDecisionIsAllocationFree) {
  // The default server path end to end on the worker's side: recvmmsg into
  // the worker's own batch, decide in place under the shard mutex, sendmmsg
  // the reply. With no listener there is no per-datagram copy left, so a
  // warm request allocates nothing on any server thread. Counted process-
  // wide; the client side (send_to + recv_many into a reused batch) is
  // allocation-free too (MmsgBatchIoIsAllocationFree).
  db::Database db;
  db::RuleStore store(db);
  ASSERT_TRUE(store.put({.key = "tenant-9/render", .refill_per_sec = 1e6,
                         .capacity = 1e9, .credit = 1e9}).ok());
  server::QosServerConfig cfg;
  cfg.worker_threads = 1;
  cfg.sync_interval = Duration{0};
  cfg.checkpoint_interval = Duration{0};
  cfg.watchdog_interval = Duration{0};
  auto node = server::QosServerNode::start({"127.0.0.1", 0}, store, cfg);
  ASSERT_TRUE(node.ok()) << node.error().message;
  const net::SockAddr addr = node.value()->addr();

  auto client = net::UdpSocket::bind({"127.0.0.1", 0});
  ASSERT_TRUE(client.ok());
  wire::QosRequest req;
  req.request_id = 1;
  req.type = wire::RequestType::kCheck;
  req.cost = 1;
  req.key = "tenant-9/render";
  std::vector<std::uint8_t> frame;
  wire::encode_to(req, frame);
  net::UdpSocket::RecvBatch reply(1);
  auto round_trip = [&] {
    if (!client.value().send_to(addr, frame).ok()) return false;
    auto n = client.value().recv_many(reply, seconds(2));
    return n.ok() && n.value() == 1;
  };
  {
    // Control: the first touch allocates on the worker thread; the
    // process-wide guard must see it, or the zero below would be vacuous.
    ProcessAllocGuard guard;
    ASSERT_TRUE(round_trip());
    EXPECT_GE(guard.count(), 1u);
  }
  // Warm-up: the worker's flight-recorder ring and every lazily sized
  // scratch buffer.
  for (int i = 0; i < 128; ++i) ASSERT_TRUE(round_trip());
  warm_flight_recorder();

  std::uint64_t allocs = 0;
  {
    ProcessAllocGuard guard;
    for (int i = 0; i < 256; ++i) ASSERT_TRUE(round_trip());
    allocs = guard.count();
  }
  EXPECT_EQ(allocs, 0u)
      << "a warm decision through the shared-queue worker allocated";
  auto decoded = wire::decode_response(reply.data(0));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().allowed);
  node.value()->stop();
}

TEST(HotpathAllocTest, PrequalPickIsAllocationFree) {
  // PR 10's acceptance bullet (DESIGN.md §14): the gateway pick path —
  // d-of-n sampling, seqlocked probe reads, reuse accounting — never
  // touches the heap. The picker's only allocations are construction
  // (slot vector) and the probe pool's refresh_threshold scratch, both off
  // the request path.
  lb::PrequalConfig cfg;
  cfg.d_choices = 3;
  cfg.probe_reuse_budget = 1 << 20;
  lb::PrequalPicker picker(8, cfg);
  for (std::size_t b = 0; b < 8; ++b) {
    picker.publish(b, static_cast<std::int64_t>(b), 100, TimePoint{millis(1)});
  }
  picker.refresh_threshold(TimePoint{millis(1)});
  (void)picker.pick(TimePoint{millis(1)});  // warm the thread-local RNG

  {
    AllocGuard guard;
    for (int i = 0; i < 256; ++i) {
      lb::PrequalPickKind kind;
      const std::size_t got = picker.pick(TimePoint{millis(2)}, &kind);
      ASSERT_LT(got, 8u);
    }
    EXPECT_EQ(guard.count(), 0u)
        << "PrequalPicker::pick allocated; probe-cache read path regressed";
  }
  {
    // The fallback path (empty cache) is on the same request path.
    lb::PrequalPicker empty(8, cfg);
    AllocGuard guard;
    for (int i = 0; i < 64; ++i) {
      ASSERT_EQ(empty.pick(TimePoint{millis(2)}), lb::PrequalPicker::kNoPick);
    }
    EXPECT_EQ(guard.count(), 0u) << "PrequalPicker::pick fallback allocated";
  }
}

TEST(HotpathAllocTest, ColdKeyStillAllocatesExactlyOnFirstTouch) {
  // Negative control: creation is *supposed* to allocate (owning key copy +
  // entry). If this ever reads zero the harness is broken, not the code.
  ManualClock clock;
  StaticRuleSource source;
  AdmissionController ac(clock, source, AdmissionConfig{});

  AllocGuard guard;
  ASSERT_TRUE(ac.check("never-seen-before-key", 1).allowed);
  EXPECT_GE(guard.count(), 1u);
}

}  // namespace
}  // namespace janus
