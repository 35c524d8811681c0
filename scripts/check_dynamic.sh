#!/usr/bin/env bash
# Dynamic-update gate (DESIGN.md §17):
#   - runs dynamic_test (incremental == rebuild oracles, fault rollback,
#     write-lane semantics) and the GraphDelta fuzz suite;
#   - diffs the serve_demo SERVE_MUT digest across --threads=1/2/8: the
#     digest folds mutation receipts, generations, and every read score,
#     so any thread-count divergence in the write lane fails the gate;
#   - runs bench_dynamic at --scale=0.04 and 0.25 and validates the
#     BENCH_dynamic.json schema plus the end-to-end gate (median 10-edge
#     ApplyDelta below the median RebuildFromScratch + warm; also enforced
#     by the bench's own exit code);
#   - unless DYNAMIC_TSAN=0, re-runs dynamic_test under TSan (the write
#     lane and the generation probe are the concurrency-sensitive
#     surfaces).
# Usage:
#   scripts/check_dynamic.sh [build-dir]   (default: build)
set -eu
cd "$(dirname "$0")/.."

build_dir="${1:-build}"
cmake -B "$build_dir" -S .
cmake --build "$build_dir" -j"$(nproc 2>/dev/null || echo 2)" \
      --target dynamic_test fuzz_test serve_demo bench_dynamic

echo "########## dynamic_test ##########"
"$build_dir/tests/dynamic_test"

echo "########## GraphDelta fuzz suite ##########"
"$build_dir/tests/fuzz_test" --gtest_filter='*GraphDeltaFuzz*'

repo_root="$(pwd)"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

echo "########## serve_demo SERVE_MUT digest across thread counts ##########"
for t in 1 2 8; do
  (cd "$workdir" &&
   "$repo_root/$build_dir/examples/serve_demo" --threads="$t" \
       > "stdout_t$t.txt")
  grep '^SERVE_MUT ' "$workdir/stdout_t$t.txt" > "$workdir/mut_t$t.txt"
done
if ! diff "$workdir/mut_t1.txt" "$workdir/mut_t2.txt" ||
   ! diff "$workdir/mut_t1.txt" "$workdir/mut_t8.txt"; then
  echo "FAIL: SERVE_MUT digest differs across thread counts" >&2
  exit 1
fi
echo "SERVE_MUT identical at --threads=1/2/8:"
cat "$workdir/mut_t1.txt"

for scale in 0.04 0.25; do
  echo "########## bench_dynamic --scale=$scale ##########"
  (cd "$workdir" &&
   "$repo_root/$build_dir/bench/bench_dynamic" --scale="$scale" --iters=7 \
       --rebuilds=7 > stdout_bench.txt)
  sed -n '/delta_edges/,/^gate:/p' "$workdir/stdout_bench.txt"

  if command -v python3 >/dev/null 2>&1; then
    python3 - "$workdir/BENCH_dynamic.json" <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
assert data.get("bench") == "dynamic", "bench id must be 'dynamic'"
rows = data["rows"]
assert [r["delta_edges"] for r in rows] == [1, 10, 1000], \
    f"expected delta sizes 1/10/1000, got {[r['delta_edges'] for r in rows]}"
required = ("delta_edges", "apply_ms", "refresh_ms", "plan_ms",
            "pipeline_rebuild_ms", "pipeline_speedup", "pagerank_iters_saved")
for row in rows:
    for key in required:
        assert key in row, f"row missing {key}: {row}"
staleness = data["staleness_vs_latency"]
assert len(staleness) >= 2, "staleness tradeoff needs at least two windows"
for row in staleness:
    for key in ("window", "refreshes", "total_ms", "worst_staleness_edges"):
        assert key in row, f"staleness row missing {key}: {row}"
gate = data["gate"]
assert gate["min_pipeline_speedup_10edge"] == 1.0
ten = rows[1]
assert ten["apply_ms"] < ten["pipeline_rebuild_ms"], \
    f"10-edge apply {ten['apply_ms']} ms not below rebuild " \
    f"{ten['pipeline_rebuild_ms']} ms"
print(f"{sys.argv[1]}: schema OK, 10-edge rebuild/apply {gate['measured']}x "
      f"(1-edge {rows[0]['pipeline_speedup']}x, ungated)")
EOF
  else
    # No python3: grep for the load-bearing parts.
    grep -q '"bench": "dynamic"' "$workdir/BENCH_dynamic.json"
    grep -q '"delta_edges": 1000' "$workdir/BENCH_dynamic.json"
    grep -q '"staleness_vs_latency"' "$workdir/BENCH_dynamic.json"
    grep -q 'gate: 10-edge apply' "$workdir/stdout_bench.txt"
    echo "BENCH_dynamic.json looks structurally sound (no python3)"
  fi
done

if [ "${DYNAMIC_TSAN:-1}" = "1" ]; then
  echo "########## dynamic_test under TSan ##########"
  tsan_dir="build-threadsan"
  cmake -B "$tsan_dir" -S . -DAHNTP_SANITIZE=thread \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$tsan_dir" -j"$(nproc 2>/dev/null || echo 2)" \
        --target dynamic_test
  AHNTP_THREADS="${AHNTP_THREADS:-8}" \
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}" \
  "$tsan_dir/tests/dynamic_test"
fi

echo "dynamic checks passed"
