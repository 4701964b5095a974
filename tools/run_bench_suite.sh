#!/bin/bash
# Regenerates the checked-in microbenchmark evidence:
#
#   BENCH_PR4.json — PR 4 hot-path acceptance (slice-by-8 CRC32,
#     transparent-hash lookups, zero-copy decode, batched UDP syscalls);
#     crc32 slice-by-8 vs scalar on 64-byte keys must be >= 2.0.
#   BENCH_PR6.json — observability acceptance: BM_ServerDecisionContended
#     (four workers drain a hot-key backlog through the shard-mutex
#     decision path) with the flight recorder armed (default) vs disarmed
#     (JANUS_DEEP_OBS=0); recorder_overhead_ratio (armed real_time /
#     disarmed real_time) must be <= 1.03.
#   BENCH_PR7.json — PR 7 cluster acceptance: bench_cluster_failover runs
#     real master/standby/coordinator failover rounds (BFD 20ms x 3) and a
#     two-member clustered throughput pass; failover_p99_ms — kill to first
#     admitted decision on the promoted standby — must be < 1000.
#   BENCH_PR10.json — PR 10 routing acceptance: bench_pr10_prequal drives
#     the three gateway policies over a lopsided simulated fleet (six
#     routers, two 2x-slow stragglers, a CPU antagonist on one) with the
#     real lb::PrequalPicker on virtual time; five seeds per policy,
#     medians compared. prequal_vs_roundrobin_p99_speedup must be >= 1.3.
#
# The recorder-overhead ratio is derived from *real time*, never items_per_second or CPU
# time: google-benchmark attributes only the main thread's CPU to the run,
# so on a contended multi-thread benchmark CPU-derived numbers mislead.
# Wall clock over a fixed op count is the honest metric.
#
# Usage:
#   tools/run_bench_suite.sh                 # writes every file at repo root
#   BUILD_DIR=build-rel tools/run_bench_suite.sh
#   OUT=/tmp/b4.json OUT6=/tmp/b6.json OUT7=/tmp/b7.json OUT10=/tmp/b10.json \
#     tools/run_bench_suite.sh
#
# See EXPERIMENTS.md ("PR4 — hot-path microbenchmarks") for the recipes and
# how to read the derived ratios.
set -euo pipefail

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${BUILD_DIR:-"$repo_root/build"}
out=${OUT:-"$repo_root/BENCH_PR4.json"}
out6=${OUT6:-"$repo_root/BENCH_PR6.json"}
out7=${OUT7:-"$repo_root/BENCH_PR7.json"}
out10=${OUT10:-"$repo_root/BENCH_PR10.json"}
bin="$build_dir/bench/bench_micro_hotpath"
cluster_bin="$build_dir/bench/bench_cluster_failover"
prequal_bin="$build_dir/bench/bench_pr10_prequal"

if [ ! -x "$bin" ]; then
  echo "run_bench_suite: $bin not built." >&2
  echo "  cmake -B $build_dir -S $repo_root && cmake --build $build_dir --target bench_micro_hotpath" >&2
  exit 1
fi
if [ ! -x "$cluster_bin" ]; then
  echo "run_bench_suite: $cluster_bin not built." >&2
  echo "  cmake --build $build_dir --target bench_cluster_failover" >&2
  exit 1
fi
if [ ! -x "$prequal_bin" ]; then
  echo "run_bench_suite: $prequal_bin not built." >&2
  echo "  cmake --build $build_dir --target bench_pr10_prequal" >&2
  exit 1
fi

filter='BM_Crc32Scalar|BM_Crc32Slice8|BM_TableLookup|BM_WireDecodeRequest|BM_UdpBatchRoundTrip'
raw=$(mktemp)
raw6=$(mktemp)
raw7=$(mktemp)
raw10=$(mktemp)
trap 'rm -f "$raw" "$raw6" "$raw7" "$raw10"' EXIT

"$bin" --benchmark_filter="$filter" \
       --benchmark_format=json \
       --benchmark_min_time=0.5 > "$raw"

# Recorder overhead (BENCH_PR6.json): the contended decision drain with the
# flight recorder armed (default) vs disarmed (JANUS_DEEP_OBS=0). Runs ALTERNATE
# armed/disarmed and the ratio is taken over each side's MINIMUM wall
# clock: on a small (often single-CPU) host the scheduler can inflate any
# individual run by tens of percent, and two multi-minute blocks measured
# back to back inherit whatever the machine was doing in between — the
# minimum of interleaved runs is the load-independent estimate of the true
# cost, which is what the 1.03x ceiling is about.
: > "$raw6"
for _rep in 1 2 3 4 5; do
  "$bin" --benchmark_filter='BM_ServerDecisionContended' \
         --benchmark_format=json --benchmark_min_time=1 2>/dev/null \
    | python3 -c 'import json,sys
for b in json.load(sys.stdin)["benchmarks"]:
    if b.get("run_type") != "aggregate":
        print("armed", b["real_time"])' >> "$raw6"
  JANUS_DEEP_OBS=0 "$bin" --benchmark_filter='BM_ServerDecisionContended' \
         --benchmark_format=json --benchmark_min_time=1 2>/dev/null \
    | python3 -c 'import json,sys
for b in json.load(sys.stdin)["benchmarks"]:
    if b.get("run_type") != "aggregate":
        print("disarmed", b["real_time"])' >> "$raw6"
done

# Failover rounds: the binary already emits JSON (it is not a
# google-benchmark suite — each datum is a full cluster lifecycle, so it
# drives its own repetitions). Coordinator WARN lines ride stderr.
"$cluster_bin" > "$raw7"

# PR 10 routing comparison: deterministic virtual-time sim, five seeds per
# policy baked into the binary (per-seed progress rides stderr).
"$prequal_bin" > "$raw10"

python3 - "$raw" "$out" <<'PY'
import json, sys

raw_path, out_path = sys.argv[1], sys.argv[2]
with open(raw_path) as f:
    report = json.load(f)

rows = {}
for b in report.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    rows[b["name"]] = {
        "real_time_ns": b["real_time"],
        "cpu_time_ns": b["cpu_time"],
        **({"bytes_per_second": b["bytes_per_second"]}
           if "bytes_per_second" in b else {}),
        **({"items_per_second": b["items_per_second"]}
           if "items_per_second" in b else {}),
    }

def t(name):
    return rows[name]["cpu_time_ns"] if name in rows else None

def ratio(slow, fast):
    a, b = t(slow), t(fast)
    return round(a / b, 2) if a and b else None

def items_ratio(batched, baseline):
    a = rows.get(batched, {}).get("items_per_second")
    b = rows.get(baseline, {}).get("items_per_second")
    return round(a / b, 2) if a and b else None

derived = {
    # Tentpole acceptance: >= 2.0 required on the 64-byte row.
    "crc32_slice8_speedup_16B": ratio("BM_Crc32Scalar/16", "BM_Crc32Slice8/16"),
    "crc32_slice8_speedup_64B": ratio("BM_Crc32Scalar/64", "BM_Crc32Slice8/64"),
    "crc32_slice8_speedup_256B": ratio("BM_Crc32Scalar/256",
                                       "BM_Crc32Slice8/256"),
    # Heterogeneous find vs temporary-std::string find, same map type.
    "lookup_transparent_speedup": ratio("BM_TableLookupOwningKey",
                                        "BM_TableLookupTransparent"),
    # decode_request_view (aliasing) vs decode_request (two string copies).
    "decode_view_speedup": ratio("BM_WireDecodeRequest",
                                 "BM_WireDecodeRequestView"),
    # Datagram throughput, batch of 32 vs per-datagram syscalls.
    "udp_batch32_vs_single_throughput": items_ratio(
        "BM_UdpBatchRoundTrip/32", "BM_UdpBatchRoundTrip/1"),
    # recvmmsg/sendmmsg vs the fallback loops at the same batch size.
    "udp_batch32_mmsg_vs_fallback": items_ratio(
        "BM_UdpBatchRoundTrip/32", "BM_UdpBatchRoundTripFallback/32"),
}

doc = {
    "generated_by": "tools/run_bench_suite.sh",
    "benchmark_binary": "bench/bench_micro_hotpath",
    "context": {
        k: report.get("context", {}).get(k)
        for k in ("host_name", "num_cpus", "mhz_per_cpu", "library_build_type")
    },
    "derived": derived,
    "benchmarks": rows,
}

speedup = derived.get("crc32_slice8_speedup_64B")
if speedup is None:
    print("run_bench_suite: missing crc32 64B rows in bench output",
          file=sys.stderr)
    sys.exit(1)
if speedup < 2.0:
    print(f"run_bench_suite: crc32 slice-by-8 speedup on 64B keys is "
          f"{speedup}x, below the 2.0x acceptance floor", file=sys.stderr)
    sys.exit(1)

with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"run_bench_suite: wrote {out_path} "
      f"(crc32 64B speedup {speedup}x)")
PY

python3 - "$raw6" "$out6" <<'PY'
import sys

raw_path, out_path = sys.argv[1], sys.argv[2]
import json

armed, disarmed = [], []
with open(raw_path) as f:
    for line in f:
        side, _, value = line.partition(" ")
        if side == "armed":
            armed.append(float(value))
        elif side == "disarmed":
            disarmed.append(float(value))

if not armed or not disarmed:
    print("run_bench_suite: missing BM_ServerDecisionContended runs "
          "for the recorder overhead ratio", file=sys.stderr)
    sys.exit(1)

# Minimum armed wall clock over minimum disarmed wall clock on the
# identical backlog: the load-independent price of always-on deep
# observability on the contended decision path (see the collection-loop
# comment for why min-of-alternating, not median-of-blocks). ISSUE 6
# acceptance requires <= 1.03.
ratio = round(min(armed) / min(disarmed), 3)

doc = {
    "generated_by": "tools/run_bench_suite.sh",
    "benchmark_binary": "bench/bench_micro_hotpath",
    "derived": {
        # PR 6 tentpole acceptance: <= 1.03 (recorder armed vs disarmed).
        "recorder_overhead_ratio": ratio,
    },
    "benchmarks": {
        "recorder_armed": {"min_real_time_ns": min(armed),
                           "real_time_ns_runs": armed},
        "recorder_disarmed": {"min_real_time_ns": min(disarmed),
                              "real_time_ns_runs": disarmed},
    },
}

if ratio > 1.03:
    print(f"run_bench_suite: recorder overhead ratio is {ratio}x, above "
          f"the 1.03x acceptance ceiling", file=sys.stderr)
    sys.exit(1)

with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"run_bench_suite: wrote {out_path} "
      f"(recorder overhead {ratio}x)")
PY

python3 - "$raw7" "$out7" <<'PY'
import json, sys

raw_path, out_path = sys.argv[1], sys.argv[2]
with open(raw_path) as f:
    raw = json.load(f)

p99 = raw.get("failover_p99_ms")
failures = raw.get("failover_failures", 0)
if p99 is None or p99 < 0:
    print("run_bench_suite: bench_cluster_failover produced no failover "
          "latency (all rounds failed?)", file=sys.stderr)
    sys.exit(1)
if failures:
    print(f"run_bench_suite: {failures} failover round(s) never promoted",
          file=sys.stderr)
    sys.exit(1)

doc = {
    "generated_by": "tools/run_bench_suite.sh",
    "benchmark_binary": "bench/bench_cluster_failover",
    "derived": {
        # PR 7 tentpole acceptance: kill -> first admitted decision on the
        # promoted standby, P99 across rounds, must land under a second.
        # The floor of the number is detection (tx_interval x multiplier)
        # plus the standby's inbound-migration window (default 250 ms).
        "failover_p99_ms": p99,
        "failover_p50_ms": raw.get("failover_p50_ms"),
        "cluster_decisions_per_sec": raw.get("cluster_decisions_per_sec"),
    },
    "raw": raw,
}

if p99 >= 1000:
    print(f"run_bench_suite: failover P99 is {p99} ms, at or above the "
          f"1000 ms acceptance ceiling", file=sys.stderr)
    sys.exit(1)

with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"run_bench_suite: wrote {out_path} "
      f"(failover P99 {p99} ms)")
PY

python3 - "$raw10" "$out10" <<'PY'
import json, sys

raw_path, out_path = sys.argv[1], sys.argv[2]
with open(raw_path) as f:
    raw = json.load(f)

rr_speedup = raw.get("prequal_vs_roundrobin_p99_speedup")
lc_speedup = raw.get("prequal_vs_leastconn_p99_speedup")
if rr_speedup is None:
    print("run_bench_suite: bench_pr10_prequal emitted no "
          "prequal_vs_roundrobin_p99_speedup", file=sys.stderr)
    sys.exit(1)

doc = {
    "generated_by": "tools/run_bench_suite.sh",
    "benchmark_binary": "bench/bench_pr10_prequal",
    "derived": {
        # PR 10 tentpole acceptance: median-of-5-seeds P99 ratio on the
        # straggler-plus-antagonist fleet must clear 1.3 vs round-robin.
        # The least-connections ratio is recorded as evidence that the
        # probe signal beats queue-length-only balancing, not gated (LC is
        # already adaptive, so its margin is scenario-dependent).
        "prequal_vs_roundrobin_p99_speedup": rr_speedup,
        "prequal_vs_leastconn_p99_speedup": lc_speedup,
    },
    "raw": raw,
}

if rr_speedup < 1.3:
    print(f"run_bench_suite: prequal vs round-robin P99 speedup is "
          f"{rr_speedup}x, below the 1.3x acceptance floor", file=sys.stderr)
    sys.exit(1)

with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"run_bench_suite: wrote {out_path} "
      f"(prequal vs round-robin P99 speedup {rr_speedup}x)")
PY
