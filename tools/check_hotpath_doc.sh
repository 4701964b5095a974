#!/bin/bash
# Doc-drift guard for the hot-path architecture section (DESIGN.md §9).
# The zero-allocation decision path is held together by a handful of
# load-bearing symbols; if one is renamed or removed in src/ the section
# must follow, and if the section loses one the contract is rotting. Two
# directions (dg_symbol_sync), plus the companion artifacts §9 points at:
# the bench evidence (BENCH_PR4.json + tools/run_bench_suite.sh) and the
# allocation harness.
source "$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)/lib/doc_guard.sh"
dg_init check_hotpath_doc

dg_require_section '^## 9\. Hot-path architecture'

# symbol -> file that must define it. Keep in lock-step with DESIGN.md §9.
dg_symbol_sync "§9" \
  "crc32_slice8:$src/common/crc32.hpp" \
  "crc32_scalar:$src/common/crc32.hpp" \
  "TransparentStringHash:$src/common/transparent_hash.hpp" \
  "PrehashedKey:$src/common/transparent_hash.hpp" \
  "decode_request_view:$src/wire/codec.hpp" \
  "recv_many:$src/net/socket.hpp" \
  "send_many:$src/net/socket.hpp" \
  "RecvBatch:$src/net/socket.hpp" \
  "set_data_path:$src/net/socket.hpp" \
  "call_many:$src/router/udp_qos_client.hpp" \
  "with_entry_or_create:$src/core/qos_table.hpp"

dg_require_artifacts "§9" \
  "$repo_root/BENCH_PR4.json" \
  "$repo_root/tools/run_bench_suite.sh" \
  "$repo_root/tests/perf/test_hotpath_allocs.cpp" \
  "$repo_root/tests/chaos/test_chaos_batching.cpp"

dg_bench_bound "$repo_root/BENCH_PR4.json" derived.crc32_slice8_speedup_64B \
  floor 2.0

dg_finish
