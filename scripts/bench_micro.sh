#!/usr/bin/env bash
# Runs the google-benchmark binaries (bench_micro_ops + bench_fabric_throughput)
# and distills the result into BENCH_micro_ops.json — one record per
# benchmark: {op, shape, ms, gflops?, counters...} — so successive PRs have
# a perf trajectory to compare against.
#
# Usage: scripts/bench_micro.sh [filter-regex]
#   BUILD_DIR  build directory (default: build)
#   OUT        output path      (default: BENCH_micro_ops.json)
#   NO_BUILD   set to skip the configure/build step (binaries must exist
#              and still must self-report a release build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
OUT=${OUT:-BENCH_micro_ops.json}
FILTER=${1:-.}

# Recorded numbers must come from a release build of the repo. Configure
# and build here (Release is the CMakeLists default); the distiller below
# double-checks the binary's own fedtrans_build_type context key and
# refuses to write JSON from anything else — the `library_build_type` key
# google-benchmark prints reflects the system libbenchmark, not this repo,
# so it is deliberately ignored.
if [ -z "${NO_BUILD:-}" ]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >&2
  cmake --build "$BUILD_DIR" -j "$(nproc 2>/dev/null || echo 2)" >&2
fi

BINS=()
for name in bench_micro_ops bench_fabric_throughput; do
  if [ -x "$BUILD_DIR/$name" ]; then
    BINS+=("$BUILD_DIR/$name")
  else
    echo "warning: $BUILD_DIR/$name not found — skipped (build first:" >&2
    echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j)" >&2
  fi
done
if [ ${#BINS[@]} -eq 0 ]; then
  echo "error: no benchmark binaries found in $BUILD_DIR" >&2
  exit 1
fi

RAWS=()
trap 'rm -f "${RAWS[@]}"' EXIT
for bin in "${BINS[@]}"; do
  RAW=$(mktemp)
  RAWS+=("$RAW")
  # The system libbenchmark predates JSON output for AddCustomContext, so
  # the binaries expose the repo-build context keys via a probe flag; the
  # distiller merges them into the recorded context and gates on them.
  "$bin" --fedtrans_context >"$RAW"
  "$bin" --benchmark_filter="$FILTER" --benchmark_format=json \
         --benchmark_out="$RAW.bench" --benchmark_out_format=json >&2
  RAWS+=("$RAW.bench")
done

python3 - "$OUT" "${RAWS[@]}" <<'PY'
import json
import os
import sys

out_path, raw_paths = sys.argv[1], sys.argv[2:]

context = {}
records = []
# google-benchmark's own per-run keys; anything else numeric is a user
# counter (msgs_per_s, bytes_per_round, ...) and passes through verbatim.
known = {
    "name", "run_name", "run_type", "repetitions", "repetition_index",
    "threads", "iterations", "real_time", "cpu_time", "time_unit",
    "items_per_second", "bytes_per_second", "label", "family_index",
    "per_family_instance_index", "aggregate_name", "aggregate_unit",
}
for raw_path in raw_paths:
    if os.path.getsize(raw_path) == 0:
        continue  # the filter matched no benchmark in this binary
    with open(raw_path) as f:
        raw = json.load(f)
    if "benchmarks" not in raw:
        # --fedtrans_context probe output: a flat {fedtrans_*: ...} object.
        # Refuse to record from a non-release repo build; the binaries
        # stamp fedtrans_build_type from their own NDEBUG state (the
        # library_build_type key google-benchmark itself prints describes
        # the system libbenchmark and is meaningless for the repo's code).
        build_type = raw.get("fedtrans_build_type")
        if build_type != "release":
            sys.exit(
                f"error: refusing to record benchmarks from a "
                f"'{build_type}' build (fedtrans_build_type). "
                f"Rebuild with -DCMAKE_BUILD_TYPE=Release and re-run.")
        context.update(raw)
        continue
    ctx = dict(raw.get("context", {}))
    ctx.update(context)
    context = ctx
    for b in raw.get("benchmarks", []):
        if b.get("error_occurred"):
            # Keep the healthy records; surface the failure on stderr.
            print(f"warning: {b.get('name', '?')} errored: "
                  f"{b.get('error_message', 'unknown')}", file=sys.stderr)
            continue
        name = b["name"]
        # UseRealTime() appends "/real_time" to the name: a timing mode,
        # not part of the shape.
        op, _, shape = name.removesuffix("/real_time").partition("/")
        unit = b.get("time_unit", "ns")
        scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}[unit]
        rec = {
            "op": op,
            "shape": shape or "-",
            "ms": round(b["real_time"] * scale, 6),
        }
        # For the compute kernels items_processed counts MACs:
        # GFLOP/s = 2 * MACs/s / 1e9. Fabric benches count messages, the
        # robust-aggregation bench counts reduced coordinates — neither is
        # a MAC, so no gflops key for them; ms is their trajectory metric.
        ips = b.get("items_per_second")
        if ips is not None and not op.startswith("BM_Fabric") and \
                not op.startswith("BM_Wire") and \
                not op.startswith("BM_Robust"):
            rec["gflops"] = round(2.0 * ips / 1e9, 3)
        for key, val in b.items():
            if key not in known and isinstance(val, (int, float)):
                rec[key] = round(val, 3)
        records.append(rec)

with open(out_path, "w") as f:
    json.dump({"context": context, "benchmarks": records}, f, indent=2)
    f.write("\n")

print(f"wrote {out_path} ({len(records)} benchmarks)")
PY
