#!/usr/bin/env bash
# Runs every workload, timed and then traced, and prints every metric by name
# and unit. Stops at the first run that fails: a wrong answer, a policy leak,
# a drifting triple count or a broken layer ledger. Run it from the
# repository root:
#
#   bash gsacsbench/all.sh [seed] [seconds]
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
seed=${1:-1}
seconds=${2:-45}
for trace in 0 1; do
	for w in sec71_read sec71_rw mutate_batch; do
		echo "== $w trace=$trace"
		bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace"
	done
done
