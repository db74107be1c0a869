#!/usr/bin/env bash
# End-to-end FL benchmark (bench/e2e/README.md). Builds bench/e2e into
# .bench_build/e2e, then runs each workload in its own process:
#
#   bench/e2e/run.sh [--seed N] [--seconds S] [--trace|--check] [workload...]
#   bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# With no workload named, all four run. Every run prints its metrics and
# named checks and exits non-zero if a check fails; the last stdout line of
# a one-workload run is its JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"

seed=1
seconds=0
trace=0
check=0
workloads=()
while (($#)); do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --workload) workloads+=("$2"); shift 2 ;;
    --trace)
      if [[ "${2-}" == 0 || "${2-}" == 1 ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    --check) check=1; shift ;;
    -h|--help) sed -n '2,10p' "$0"; exit 0 ;;
    -*) echo "run.sh: unknown option $1" >&2; exit 2 ;;
    *) workloads+=("$1"); shift ;;
  esac
done
((${#workloads[@]})) || workloads=(fedtrans-cifar fedtrans-cifar-tree
                                   fedavg-pop-1m heterofl-femnist-faulty)

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: no FedTrans sources at $root, nothing to benchmark" >&2
  exit 2
fi

build="$root/.bench_build/e2e"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"  # compiler temporaries stay inside the checkout
gen=()
if command -v ninja >/dev/null 2>&1; then gen=(-G Ninja); fi
log="$build/build.log"
if ! { [[ -f "$build/CMakeCache.txt" ]] ||
       cmake -S "$here" -B "$build" "${gen[@]}" -DCMAKE_BUILD_TYPE=Release
     } >"$log" 2>&1 ||
   ! cmake --build "$build" --target fedtrans_e2e --parallel "$(nproc)" \
       >>"$log" 2>&1; then
  tail -n 40 "$log" >&2
  echo "run.sh: build failed (log: $log)" >&2
  exit 1
fi

# The library reads FEDTRANS_* at start-up (backends, tracing, reports);
# runs must not depend on the caller's environment.
unset "${!FEDTRANS_@}"
# Closed loop on a fixed pool: every round waits for its whole cohort, so
# one preempted worker stalls the round. Leave a core to everything else.
n="$(nproc)"
export FEDTRANS_THREADS=$((n < 3 ? n : 3))

status=0
for w in "${workloads[@]}"; do
  args=(--workload "$w" --seed "$seed")
  if ((check)); then
    args+=(--check)
  else
    args+=(--seconds "$seconds" --trace "$trace")
    if ((trace)); then args+=(--trace-out "$build/trace-$w.json"); fi
  fi
  "$build/fedtrans_e2e" "${args[@]}" || status=1
done
exit "$status"
