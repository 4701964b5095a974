#!/bin/bash
# Doc-drift guard for the deep-observability section (DESIGN.md §10).
# The flight recorder, hot-key sketch and slow-request exemplars are a
# cross-layer contract — event schema, ring sizing, sampling rate, overhead
# budget — and every piece is documented in §10. Two directions
# (dg_symbol_sync), plus the companion artifacts: BENCH_PR6.json must
# exist, carry the recorder_overhead_ratio, and stay under the 1.03x
# acceptance ceiling.
source "$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)/lib/doc_guard.sh"
dg_init check_observability_doc

dg_require_section '^## 10\. Deep observability'

# symbol -> file that must define it. Keep in lock-step with DESIGN.md §10.
dg_symbol_sync "§10" \
  "FlightRecorder:$src/common/flight_recorder.hpp" \
  "TraceStage:$src/common/flight_recorder.hpp" \
  "TraceEventType:$src/common/flight_recorder.hpp" \
  "kRingCapacity:$src/common/flight_recorder.hpp" \
  "kDecisionSampleShift:$src/common/flight_recorder.hpp" \
  "decision_sampled:$src/common/flight_recorder.hpp" \
  "hash_trace:$src/common/flight_recorder.hpp" \
  "render_trace_json:$src/common/flight_recorder.hpp" \
  "trigger_auto_dump:$src/common/flight_recorder.hpp" \
  "set_auto_dump_path:$src/common/flight_recorder.hpp" \
  "label_current_thread:$src/common/flight_recorder.hpp" \
  "HotKeySketch:$src/common/hotkey_sketch.hpp" \
  "HotKeyCount:$src/common/hotkey_sketch.hpp" \
  "note_decision:$src/core/qos_table.hpp" \
  "hot_keys:$src/core/qos_table.hpp" \
  "Exemplar:$src/common/metrics.hpp" \
  "ExemplarSample:$src/common/metrics.hpp" \
  "snapshot_exemplars:$src/common/metrics.hpp" \
  "tracez_response:$src/net/admin_server.hpp" \
  "watchdog_pass:$src/server/qos_server_node.hpp" \
  "json_syntax_ok:$src/common/json_lint.hpp"

# The metric inventory (§6) must carry the new observability rows and the
# lock-rank table (§8) the recorder's mutex.
dg_require_backticked "§6/§8" \
  server.watchdog_stalls common.flight_recorder \
  janus_server_hot_key_decisions janus_server_hot_key_rejects

dg_require_artifacts "§10" \
  "$repo_root/BENCH_PR6.json" \
  "$repo_root/tools/janus_trace_export.cpp" \
  "$repo_root/tools/run_bench_suite.sh" \
  "$repo_root/tests/common/test_flight_recorder.cpp" \
  "$repo_root/tests/perf/test_hotpath_allocs.cpp"

dg_bench_bound "$repo_root/BENCH_PR6.json" derived.recorder_overhead_ratio \
  ceiling 1.03

dg_finish
