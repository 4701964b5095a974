#!/bin/bash
# Doc-drift guard for the threading-mode section (DESIGN.md §9.1).
# Shard-per-worker correctness hangs on a small capability surface — the
# owner token, the owned accessors, the per-worker queues, the maintenance
# command plumbing. If one of those symbols is renamed or removed the
# section must follow, and if the section loses one the ownership rule is
# rotting. Two directions (dg_symbol_sync), plus the companion artifacts:
# BENCH_PR5.json must exist, carry the shard_per_worker_speedup ratio, and
# meet the 1.5x acceptance floor.
source "$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)/lib/doc_guard.sh"
dg_init check_threading_doc

dg_require_section '^### 9\.1 Threading modes'

# symbol -> file that must define it. Keep in lock-step with DESIGN.md §9.1.
dg_symbol_sync "§9.1" \
  "ThreadingMode:$src/core/admission.hpp" \
  "kShardPerWorker:$src/core/admission.hpp" \
  "ShardOwnerToken:$src/core/qos_table.hpp" \
  "claim_shards:$src/core/qos_table.hpp" \
  "shard_index_of:$src/core/qos_table.hpp" \
  "with_entry_unlocked:$src/core/qos_table.hpp" \
  "with_entry_or_create_unlocked:$src/core/qos_table.hpp" \
  "check_owned:$src/core/admission.hpp" \
  "probe_owned:$src/core/admission.hpp" \
  "refill_owned:$src/core/admission.hpp" \
  "sync_owned:$src/core/admission.hpp" \
  "checkpoint_owned:$src/core/admission.hpp" \
  "SpscQueue:$src/common/spsc_queue.hpp" \
  "MaintCmd:$src/server/qos_server_node.hpp" \
  "dispatch_maintenance:$src/server/qos_server_node.hpp" \
  "worker_loop_sharded:$src/server/qos_server_node.hpp" \
  "worker_loop:$src/server/qos_server_node.hpp" \
  "shutdown_read:$src/net/socket.hpp" \
  "rx_next_bytes:$src/net/socket.hpp" \
  "validate_config:$src/server/qos_server_node.hpp"

# The lock-rank table must carry the park handshake row (§8) and the metric
# table the mode gauge and the shared-queue mode's kernel-queue drops (§6) —
# all part of the threading contract.
dg_require_backticked "§8/§6" \
  server.worker_park server.threading_mode server.worker_queue_depth.w \
  server.rx_dropped

dg_require_artifacts "§9.1" \
  "$repo_root/BENCH_PR5.json" \
  "$repo_root/tools/run_bench_suite.sh" \
  "$repo_root/tests/perf/test_hotpath_allocs.cpp" \
  "$repo_root/tests/sim/test_deployment.cpp"

dg_bench_bound "$repo_root/BENCH_PR5.json" derived.shard_per_worker_speedup \
  floor 1.5

dg_finish
