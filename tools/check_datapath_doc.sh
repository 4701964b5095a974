#!/bin/bash
# Doc-drift guard for the data-path provider section (DESIGN.md §13).
# The io_uring provider's correctness story hangs on a small surface — the
# provider enum, the end-to-end capability probe, the buffer-lifecycle
# entry points, the fused run-to-completion loop, and the pinning planner.
# If one of those symbols is renamed or removed the section must follow;
# if the section loses one, the degrade/recycling contract is rotting.
# Two directions (dg_symbol_sync), plus the companion artifacts:
# BENCH_PR9.json must exist, carry the end-to-end uring-vs-mmsg decision
# speedup, and meet the 1.3x acceptance floor.
source "$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)/lib/doc_guard.sh"
dg_init check_datapath_doc

dg_require_section '^## 13\. Data-path providers'

# symbol -> file that must define it. Keep in lock-step with DESIGN.md §13.
dg_symbol_sync "§13" \
  "DataPath:$src/net/socket.hpp" \
  "set_data_path:$src/net/socket.hpp" \
  "resolved_data_path:$src/net/socket.hpp" \
  "uring_supported:$src/net/socket.hpp" \
  "UringStats:$src/net/socket.hpp" \
  "ensure_slot_bytes:$src/net/socket.hpp" \
  "recv_many_uring:$src/net/socket.hpp" \
  "send_many_uring:$src/net/socket.hpp" \
  "arm_uring_recv:$src/net/socket.hpp" \
  "probed_support:$src/net/uring.hpp" \
  "kLegacyBufs:$src/net/uring.hpp" \
  "IORING_OP_PROVIDE_BUFFERS:$src/net/uring.hpp" \
  "listener_loop_fused:$src/server/qos_server_node.hpp" \
  "fused():$src/server/qos_server_node.hpp" \
  "kFusedIdleSpins:$src/server/qos_server_node.hpp" \
  "JobView:$src/server/qos_server_node.hpp" \
  "pin_workers:$src/server/qos_server_node.hpp" \
  "plan_worker_cpus:$src/server/cpu_pinning.hpp" \
  "pin_current_thread:$src/server/cpu_pinning.hpp"

# The metric table must carry the provider gauge and uring counters (§6),
# the lock-rank table the submit mutex (§8), and the fault table the EINTR
# injection every provider's retry contract is tested through (§7).
dg_require_backticked "§6/§7/§8" \
  server.data_path server.uring_recv_batches server.uring_recv_datagrams \
  server.uring_send_batches server.uring_send_datagrams \
  server.uring_rearms server.uring_buf_recycles server.uring_send_errors \
  net.uring_submit net.udp.eintr

dg_require_artifacts "§13" \
  "$repo_root/BENCH_PR9.json" \
  "$repo_root/tools/run_bench_suite.sh" \
  "$repo_root/tests/perf/test_hotpath_allocs.cpp" \
  "$repo_root/tests/net/test_socket.cpp" \
  "$repo_root/tests/chaos/test_chaos_batching.cpp"

dg_bench_bound "$repo_root/BENCH_PR9.json" \
  derived.uring_vs_mmsg_decision_speedup floor 1.3

dg_finish
