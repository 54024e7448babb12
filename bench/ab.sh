#!/usr/bin/env bash
# A/B two checkouts the way the choosing-metrics guide (section 8) prescribes
# for a small sandbox: ten pairs of runs, alternating which side goes first,
# same benchmark code, sizes and seed on both sides of a pair; then one
# comparison over the pooled samples, with the paired win count per metric.
#
#   bench/ab.sh OLD_DIR NEW_DIR [PAIRS] [WORKLOADS]
#
# OLD_DIR and NEW_DIR are checkouts that both hold this bench/ directory
# (copy it into a parent commit that predates it). PAIRS defaults to 10,
# WORKLOADS (comma-separated) to all seven. A pair is one full run per side
# with one repeat per workload, about 25 s a side. Results land in
# $AB_OUT (default NEW_DIR/bench/out/ab). Exits non-zero if any row is worse.
set -euo pipefail

if [ $# -lt 2 ]; then
	sed -n '2,14p' "$0" >&2
	exit 2
fi
old=$(cd "$1" && pwd)
new=$(cd "$2" && pwd)
pairs=${3:-10}
only=${4:-}
out=${AB_OUT:-$new/bench/out/ab}
mkdir -p "$out"

(cd "$old" && go build -o "$out/old.bin" ./bench)
(cd "$new" && go build -o "$out/new.bin" ./bench)

run_side() { # side dir pair
	(cd "$2" && "$out/$1.bin" --repeats 1 --seed "$3" ${only:+--workloads "$only"} \
		--out-dir "$out" --out "$out/$1-$3.json" >"$out/$1-$3.txt" 2>&1)
}

olds=()
news=()
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run_side old "$old" "$i"
		run_side new "$new" "$i"
	else
		run_side new "$new" "$i"
		run_side old "$old" "$i"
	fi
	olds+=("$out/old-$i.json")
	news+=("$out/new-$i.json")
	echo "pair $i/$pairs done" >&2
done

join() { local IFS=,; echo "$*"; }
"$out/new.bin" compare "$(join "${olds[@]}")" "$(join "${news[@]}")"
