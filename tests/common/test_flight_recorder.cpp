// Flight recorder, hot-key sketch and JSON lint coverage (DESIGN.md §10):
// ring round-trips, wraparound, the disabled fast path, concurrent
// snapshot-while-writing (the seqlock contract TSan checks), the Perfetto
// renderer's span pairing and trace filtering, the one-shot auto-dump, and
// the Space-Saving error bounds.
#include "common/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/hotkey_sketch.hpp"
#include "common/json_lint.hpp"

namespace janus {
namespace {

/// Restores the global arm switch even when an assertion bails out early.
struct EnabledGuard {
  ~EnabledGuard() { FlightRecorder::set_enabled(true); }
};

TEST(FlightRecorderTest, RecordRoundTripsThroughSnapshot) {
  FlightRecorder& fr = FlightRecorder::instance();
  fr.reset();

  const std::uint64_t trace = FlightRecorder::hash_trace("trace-rt");
  FlightRecorder::record(TraceEventType::kStageEnter,
                         TraceStage::kServerWorker, trace, 7, 1000);
  FlightRecorder::record(TraceEventType::kStageExit, TraceStage::kServerWorker,
                         trace, 1, 2000);

  bool saw_enter = false, saw_exit = false;
  for (const RingSnapshot& ring : fr.snapshot()) {
    for (const TraceEvent& ev : ring.events) {
      if (ev.trace != trace) continue;
      if (ev.type == TraceEventType::kStageEnter) {
        saw_enter = true;
        EXPECT_EQ(ev.stage, TraceStage::kServerWorker);
        EXPECT_EQ(ev.arg, 7u);
        EXPECT_EQ(ev.ts_ns, 1000u);
      }
      if (ev.type == TraceEventType::kStageExit) {
        saw_exit = true;
        EXPECT_EQ(ev.arg, 1u);
        EXPECT_EQ(ev.ts_ns, 2000u);
      }
    }
  }
  EXPECT_TRUE(saw_enter);
  EXPECT_TRUE(saw_exit);
}

TEST(FlightRecorderTest, HashTraceIsStableAndZeroForEmpty) {
  EXPECT_EQ(FlightRecorder::hash_trace(""), 0u);
  EXPECT_NE(FlightRecorder::hash_trace("abc"), 0u);
  EXPECT_EQ(FlightRecorder::hash_trace("abc"),
            FlightRecorder::hash_trace("abc"));
  EXPECT_NE(FlightRecorder::hash_trace("abc"),
            FlightRecorder::hash_trace("abd"));
}

TEST(FlightRecorderTest, PackAdmissionArgLayout) {
  const std::uint64_t arg = pack_admission_arg(true, 2, 12345);
  EXPECT_EQ(arg & 1u, 1u);                        // allowed
  EXPECT_EQ((arg >> 1) & 0x3u, 2u);               // origin
  EXPECT_EQ(arg >> 8, 12345u);                    // millicredits
  // Negative credit clamps to zero, denied clears bit 0.
  const std::uint64_t denied = pack_admission_arg(false, 1, -50);
  EXPECT_EQ(denied & 1u, 0u);
  EXPECT_EQ(denied >> 8, 0u);
}

TEST(FlightRecorderTest, RingWrapKeepsMostRecentEvents) {
  FlightRecorder& fr = FlightRecorder::instance();
  fr.reset();

  const std::size_t total = FlightRecorder::kRingCapacity + 100;
  for (std::size_t i = 0; i < total; ++i) {
    FlightRecorder::record(TraceEventType::kWatchdogStall, TraceStage::kAdmission,
                           0xABCD, i, i);
  }

  // Find this thread's ring (the one holding our marker trace).
  std::uint64_t min_arg = ~std::uint64_t{0};
  std::uint64_t max_arg = 0;
  std::size_t count = 0;
  for (const RingSnapshot& ring : fr.snapshot()) {
    for (const TraceEvent& ev : ring.events) {
      if (ev.trace != 0xABCD) continue;
      ++count;
      min_arg = std::min(min_arg, ev.arg);
      max_arg = std::max(max_arg, ev.arg);
    }
  }
  EXPECT_EQ(count, FlightRecorder::kRingCapacity);
  EXPECT_EQ(max_arg, total - 1);          // newest survived
  EXPECT_EQ(min_arg, total - count);      // oldest 100 overwritten
}

TEST(FlightRecorderTest, DisabledRecorderDropsEverything) {
  EnabledGuard restore;
  FlightRecorder& fr = FlightRecorder::instance();
  fr.reset();

  FlightRecorder::set_enabled(false);
  EXPECT_FALSE(FlightRecorder::enabled());
  FlightRecorder::record(TraceEventType::kStageEnter, TraceStage::kGateway,
                         0xDEAD, 0, 1);
  FlightRecorder::set_enabled(true);

  for (const RingSnapshot& ring : fr.snapshot()) {
    for (const TraceEvent& ev : ring.events) {
      EXPECT_NE(ev.trace, 0xDEADu);
    }
  }
}

TEST(FlightRecorderTest, ConcurrentSnapshotWhileWritingIsSafe) {
  // The seqlock contract under load: four writer threads hammer their rings
  // while the main thread snapshots. TSan (run_sanitizers.sh) verifies the
  // absence of data races; here we verify no torn garbage surfaces.
  FlightRecorder& fr = FlightRecorder::instance();
  fr.reset();

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&stop, w] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        FlightRecorder::record(TraceEventType::kWatchdogStall,
                               TraceStage::kServerWorker,
                               0xF00D0000u + static_cast<std::uint64_t>(w),
                               i, i);
        ++i;
      }
    });
  }
  for (int round = 0; round < 50; ++round) {
    for (const RingSnapshot& ring : fr.snapshot()) {
      for (const TraceEvent& ev : ring.events) {
        // read_slot validated type/stage; events must decode to real names.
        EXPECT_NE(trace_stage_name(ev.stage), "?");
        EXPECT_NE(trace_event_type_name(ev.type), "?");
      }
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
}

TEST(FlightRecorderTest, RendererPairsEnterExitIntoCompleteSpans) {
  std::vector<RingSnapshot> rings(1);
  rings[0].ring_id = 3;
  rings[0].label = "server.worker.0";
  const std::uint64_t trace = 0x1234;
  rings[0].events = {
      {0, 1'000'000, trace, 0, TraceEventType::kStageEnter,
       TraceStage::kServerWorker},
      {1, 4'000'000, trace, 1, TraceEventType::kStageExit,
       TraceStage::kServerWorker},
  };

  const std::string json = FlightRecorder::render_trace_json(rings);
  std::string err;
  EXPECT_TRUE(json_lint::json_syntax_ok(json, &err)) << err;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"server.worker\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":3000.000"), std::string::npos);  // 3 ms in us
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("server.worker.0"), std::string::npos);
}

TEST(FlightRecorderTest, RendererFiltersByTraceAndDegradesOrphans) {
  std::vector<RingSnapshot> rings(1);
  rings[0].ring_id = 1;
  rings[0].events = {
      // A kept request.
      {0, 1000, 0xAAAA, 0, TraceEventType::kStageEnter, TraceStage::kRouter},
      {1, 3000, 0xAAAA, 0, TraceEventType::kStageExit, TraceStage::kRouter},
      // A filtered-out request.
      {2, 5000, 0xBBBB, 0, TraceEventType::kStageEnter, TraceStage::kRouter},
      {3, 6000, 0xBBBB, 0, TraceEventType::kStageExit, TraceStage::kRouter},
      // An orphan exit (its enter was overwritten by ring wrap).
      {4, 7000, 0xAAAA, 0, TraceEventType::kStageExit, TraceStage::kGateway},
      // A still-open span.
      {5, 8000, 0xAAAA, 0, TraceEventType::kStageEnter,
       TraceStage::kServerWorker},
  };

  const std::string json = FlightRecorder::render_trace_json(rings, 0xAAAA);
  std::string err;
  EXPECT_TRUE(json_lint::json_syntax_ok(json, &err)) << err;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // The 0xBBBB request is gone entirely.
  EXPECT_EQ(json.find("000000000000bbbb"), std::string::npos);
  // Orphan exit and open span degrade to instants, not dropped.
  EXPECT_NE(json.find("\"name\":\"stage_exit\""), std::string::npos);
  EXPECT_NE(json.find("server.worker (open)"), std::string::npos);
}

TEST(FlightRecorderTest, RendererCarriesTimestampForwardForClockless) {
  std::vector<RingSnapshot> rings(1);
  rings[0].ring_id = 0;
  rings[0].events = {
      {0, 5000, 0, 0, TraceEventType::kWatchdogStall, TraceStage::kAdmission},
      // Fault fires pass ts=0; the renderer reuses the previous timestamp.
      {1, 0, 0, 2, TraceEventType::kFault, TraceStage::kFault},
  };
  const std::string json = FlightRecorder::render_trace_json(rings);
  std::string err;
  EXPECT_TRUE(json_lint::json_syntax_ok(json, &err)) << err;
  const std::size_t fault_pos = json.find("\"name\":\"fault_fire\"");
  ASSERT_NE(fault_pos, std::string::npos);
  EXPECT_NE(json.find("\"ts\":5.000", fault_pos), std::string::npos);
}

TEST(FlightRecorderTest, AutoDumpIsOneShotAndParseable) {
  FlightRecorder& fr = FlightRecorder::instance();
  fr.reset();
  FlightRecorder::record(TraceEventType::kStageEnter, TraceStage::kGateway,
                         0x77, 0, 100);

  const std::string path =
      ::testing::TempDir() + "/janus_autodump_test.json";
  std::remove(path.c_str());
  fr.set_auto_dump_path(path);

  const std::uint64_t dumps_before = fr.dump_count();
  EXPECT_TRUE(fr.trigger_auto_dump("unit test"));
  EXPECT_EQ(fr.dump_count(), dumps_before + 1);
  // One shot: armed flag consumed until set_auto_dump_path re-arms.
  EXPECT_FALSE(fr.trigger_auto_dump("second"));

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());

  std::string err;
  EXPECT_TRUE(json_lint::json_syntax_ok(content, &err)) << err;
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);

  fr.set_auto_dump_path("");  // leave the singleton disarmed for other tests
}

TEST(FlightRecorderTest, LabelNamesThisThreadsRing) {
  FlightRecorder& fr = FlightRecorder::instance();
  std::thread t([] {
    FlightRecorder::label_current_thread("test.labeled.thread");
    FlightRecorder::record(TraceEventType::kWatchdogStall, TraceStage::kWatchdog,
                           0x5AB, 0, 1);
  });
  t.join();
  bool found = false;
  for (const RingSnapshot& ring : fr.snapshot()) {
    if (ring.label == "test.labeled.thread") found = true;
  }
  EXPECT_TRUE(found);
}

// ---- HotKeySketch ---------------------------------------------------------

TEST(HotKeySketchTest, TracksDistinctKeysExactlyUnderCapacity) {
  HotKeySketch sketch;
  sketch.note("alpha", 1, true, 16);
  sketch.note("alpha", 1, true, 16);
  sketch.note("alpha", 1, false, 16);
  sketch.note("beta", 2, true, 16);

  std::vector<HotKeyCount> rows;
  sketch.snapshot(rows);
  ASSERT_EQ(rows.size(), 2u);
  const HotKeyCount* alpha = nullptr;
  const HotKeyCount* beta = nullptr;
  for (const auto& r : rows) {
    if (r.key == "alpha") alpha = &r;
    if (r.key == "beta") beta = &r;
  }
  ASSERT_NE(alpha, nullptr);
  ASSERT_NE(beta, nullptr);
  EXPECT_EQ(alpha->hits, 48u);
  EXPECT_EQ(alpha->rejects, 16u);
  EXPECT_EQ(alpha->overestimate, 0u);  // never evicted: exact
  EXPECT_EQ(beta->hits, 16u);
  EXPECT_EQ(beta->rejects, 0u);
}

TEST(HotKeySketchTest, EvictionInheritsMinimumAsOverestimate) {
  HotKeySketch sketch;
  // Fill all 16 slots; "key0" has the minimum count.
  sketch.note("key0", 100, true, 1);
  for (std::size_t i = 1; i < HotKeySketch::kSlots; ++i) {
    const std::uint64_t h = 100 + i;
    sketch.note("key" + std::to_string(i), h, true, 10);
  }
  // A 17th key evicts the minimum and inherits its count as the bound.
  sketch.note("newcomer", 999, true, 5);

  std::vector<HotKeyCount> rows;
  sketch.snapshot(rows);
  ASSERT_EQ(rows.size(), HotKeySketch::kSlots);
  bool saw_newcomer = false;
  for (const auto& r : rows) {
    EXPECT_NE(r.key, "key0");  // the minimum is gone
    if (r.key == "newcomer") {
      saw_newcomer = true;
      EXPECT_EQ(r.overestimate, 1u);        // inherited key0's count
      EXPECT_EQ(r.hits, 6u);                // inherited + own weight
      // Space-Saving bound: true (5) <= hits (6) <= true + overestimate (6).
      EXPECT_GE(r.hits, 5u);
      EXPECT_LE(r.hits, 5u + r.overestimate);
    }
  }
  EXPECT_TRUE(saw_newcomer);
}

TEST(HotKeySketchTest, LongKeysTruncateAtKeyBytes) {
  HotKeySketch sketch;
  const std::string long_key(100, 'x');
  sketch.note(long_key, 42, true, 1);
  std::vector<HotKeyCount> rows;
  sketch.snapshot(rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].key, std::string(HotKeySketch::kKeyBytes, 'x'));
}

TEST(HotKeySketchTest, SnapshotDuringConcurrentNotesStaysConsistent) {
  HotKeySketch sketch;
  std::atomic<bool> stop{false};
  // Single writer (the sketch's contract) churning evictions; concurrent
  // snapshots must never stitch a half-replaced slot together.
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t h = i % 64;  // 64 keys over 16 slots: constant churn
      sketch.note("churn" + std::to_string(h), h + 1, (i & 1) != 0, 16);
      ++i;
    }
  });
  for (int round = 0; round < 200; ++round) {
    std::vector<HotKeyCount> rows;
    sketch.snapshot(rows);
    for (const auto& r : rows) {
      EXPECT_GE(r.hits, r.rejects);
      if (!r.key.empty()) {
        EXPECT_EQ(r.key.substr(0, 5), "churn");
        // Key and hash move together under the seqlock.
        EXPECT_EQ(r.key, "churn" + std::to_string(r.hash - 1));
      }
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

// ---- json_lint ------------------------------------------------------------

TEST(JsonLintTest, AcceptsValidDocuments) {
  for (const char* ok : {
           "{}", "[]", "null", "true", "-1.5e3", "\"s\"",
           R"({"a":[1,2,{"b":null}],"c":"é\n"})",
           "  { \"x\" : [ ] }  ",
       }) {
    std::string err;
    EXPECT_TRUE(json_lint::json_syntax_ok(ok, &err)) << ok << ": " << err;
  }
}

TEST(JsonLintTest, RejectsMalformedDocuments) {
  for (const char* bad : {
           "", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "01", "\"\x01\"",
           "{} extra", "\"unterminated", "{\"a\":1,}", "[1 2]",
       }) {
    std::string err;
    EXPECT_FALSE(json_lint::json_syntax_ok(bad, &err)) << bad;
    EXPECT_FALSE(err.empty());
  }
}

}  // namespace
}  // namespace janus
