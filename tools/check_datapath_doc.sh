#!/bin/bash
# Doc-drift guard for the data-path provider section (DESIGN.md §13).
# The batched-I/O contract hangs on a small surface — the provider enum, the
# per-socket selection and its resolution, the batch scratch type and its
# cap. If one of those symbols is renamed or removed the section must
# follow; if the section loses one, the fallback contract is rotting. Two
# directions (dg_symbol_sync), plus the tests that run every provider.
source "$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)/lib/doc_guard.sh"
dg_init check_datapath_doc

dg_require_section '^## 13\. Data-path providers'

# symbol -> file that must define it. Keep in lock-step with DESIGN.md §13.
dg_symbol_sync "§13" \
  "DataPath:$src/net/socket.hpp" \
  "set_data_path:$src/net/socket.hpp" \
  "resolved_data_path:$src/net/socket.hpp" \
  "data_path_from_name:$src/net/socket.hpp" \
  "JANUS_HAVE_MMSG:$src/net/socket.hpp" \
  "RecvBatch:$src/net/socket.hpp" \
  "kMaxBatch:$src/net/socket.hpp"

# The metric table must carry the provider gauge (§6) and the fault table
# the EINTR injection every provider's retry contract is tested through
# (§7).
dg_require_backticked "§6/§7" server.data_path net.udp.eintr

dg_require_artifacts "§13" \
  "$repo_root/tests/perf/test_hotpath_allocs.cpp" \
  "$repo_root/tests/net/test_socket.cpp" \
  "$repo_root/tests/chaos/test_chaos_batching.cpp"

dg_finish
