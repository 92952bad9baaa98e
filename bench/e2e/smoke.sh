#!/usr/bin/env bash
# Smoke check of the end-to-end benchmark: builds the standalone driver,
# runs every workload at smoke scale at 1 thread and at min(4, nproc)
# threads, and fails unless every run passes its correctness checks and the
# two digests of each workload agree.
#
#   bench/e2e/smoke.sh
set -euo pipefail
cd "$(dirname "$0")/../.."

threads=$(nproc)
(( threads > 4 )) && threads=4
status=0
start=$(date +%s%N)
for workload in geo_steady fleet_budget serve_outage kv_quorum; do
  digests=()
  for t in 1 "$threads"; do
    if ! out=$(python3 bench/e2e/run.py --workload "$workload" --seed 1 --seconds 0 \
                 --scale smoke --threads "$t"); then
      echo "FAIL $workload threads=$t: run failed" >&2
      status=1
      continue
    fi
    digests+=("$(awk '$1 == "digest" { print $2 }' <<< "$out")")
  done
  if (( ${#digests[@]} == 2 )) && [[ "${digests[0]}" == "${digests[1]}" ]]; then
    echo "ok   $workload digest ${digests[0]} at threads 1 and $threads"
  else
    echo "FAIL $workload digests differ across thread counts: ${digests[*]}" >&2
    status=1
  fi
done
echo "smoke: $(( ($(date +%s%N) - start) / 1000000 )) ms"
exit $status
