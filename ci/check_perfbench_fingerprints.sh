#!/usr/bin/env bash
# Runs perfbench briefly on every workload and seed pinned in
# ci/perfbench_fingerprints.txt and fails unless each run reports
# "correct": true and the pinned fingerprint; then runs one traced pass
# set on spec-1core, one on sharing-4core (whose traced mirror ticks four
# pipelines) and one on smith-campaign (whose traced mirror drives the
# observer through the timed sink wrappers and shared sinks), whose
# fingerprints must match as well (traced-run fidelity).
#
#   ci/check_perfbench_fingerprints.sh [path/to/cleanupspec-perfbench]
set -euo pipefail
cd "$(dirname "$0")/.."
bin=${1:-}
if [[ -z "$bin" ]]; then
    cargo build --quiet --release --offline --manifest-path perfbench/Cargo.toml
    bin=perfbench/target/release/cleanupspec-perfbench
fi

status=0
check() { # workload seed want seconds trace
    local out got
    out=$("$bin" --workload "$1" --seed "$2" --seconds "$4" --trace "$5")
    got=$(awk -v w="$1" '$1 == "fingerprint" && $2 == w { print $3 }' <<<"$out")
    if [[ "$got" != "$3" ]]; then
        echo "FAIL $1 seed $2 trace $5: fingerprint ${got:-missing}, pinned $3"
        status=1
    elif ! tail -n 1 <<<"$out" | grep -q '"correct": true'; then
        echo "FAIL $1 seed $2 trace $5: run not correct"
        tail -n 1 <<<"$out"
        status=1
    else
        echo "ok   $1 seed $2 trace $5: $got"
    fi
}

while read -r workload seed want; do
    [[ -z "$workload" || "$workload" == \#* ]] && continue
    check "$workload" "$seed" "$want" 2 0
done <ci/perfbench_fingerprints.txt

for workload in spec-1core sharing-4core smith-campaign; do
    pin=$(awk -v w="$workload" '$1 == w { print $2, $3; exit }' ci/perfbench_fingerprints.txt)
    check "$workload" ${pin% *} ${pin#* } 3 1
done
exit $status
