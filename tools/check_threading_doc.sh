#!/bin/bash
# Doc-drift guard for the execution-model section (DESIGN.md §9.1).
# The QoS server has one execution model — N workers blocked on the shared
# socket, the kernel receive queue as the FIFO — and its correctness hangs
# on a small surface: the worker loop, the batch decision routine, the
# read-side shutdown that stops it, the backlog probe the watchdog reads,
# and the locked maintenance pass. If one of those symbols is renamed or
# removed the section must follow, and if the section loses one the model
# description is rotting. Two directions (dg_symbol_sync), plus the tests
# that pin the model's invariants.
source "$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)/lib/doc_guard.sh"
dg_init check_threading_doc

dg_require_section '^### 9\.1 One execution model'

# symbol -> file that must define it. Keep in lock-step with DESIGN.md §9.1.
dg_symbol_sync "§9.1" \
  "worker_loop:$src/server/qos_server_node.hpp" \
  "run_jobs:$src/server/qos_server_node.hpp" \
  "JobView:$src/server/qos_server_node.hpp" \
  "sync_now:$src/server/qos_server_node.hpp" \
  "checkpoint_now:$src/server/qos_server_node.hpp" \
  "validate_config:$src/server/qos_server_node.hpp" \
  "shard_index_of:$src/core/qos_table.hpp" \
  "shutdown_read:$src/net/socket.hpp" \
  "rx_next_bytes:$src/net/socket.hpp"

# The metric table must carry the kernel-queue drops (§6): the only place
# the model sheds load.
dg_require_backticked "§6" server.rx_dropped

dg_require_artifacts "§9.1" \
  "$repo_root/tests/server/test_server_shutdown.cpp" \
  "$repo_root/tests/perf/test_hotpath_allocs.cpp" \
  "$repo_root/tests/sim/test_deployment.cpp"

dg_finish
