#!/usr/bin/env bash
# Interleaved parent/change pairs of one perfbench workload: the paired
# procedure behind every host-time claim (DESIGN.md Sec. 8).
#
# Usage: perf_pairs.sh <parent-tree> <change-tree> <workload> [pairs] [metric] [seed]
#
# Pair i (1..pairs, default 10) runs
#   python3 perfbench/run.py --workload <workload> --seed i --seconds 10 --trace 0
# once in each tree; given a seed, every pair runs that one seed instead
# (say, the held-out 424242). Odd pairs run the parent first, even pairs
# the change first, so a slow spell on a shared host hits both sides alike.
# The pair count must be even, so each side leads equally often: on a
# busy host the side that runs first is often the faster one, and an
# extra parent-first pair biases the median ratio.
# Each tree builds into its own .bench_build/; build output and the
# runs' stderr go to a log whose path is printed at the end.
#
# The metric (default host_ops_per_s) is any end-to-end metric of the
# change tree's BENCHMARK.json; its `better` field says which way wins.
# Prints, per pair, its seed, both sides' metric, the ratio change/parent and
# whether the two digests match; then each side's median and quartiles
# (linear interpolation), the number of pairs the change won (ties count
# for neither side) and whether every digest matched.
# Exits 1 if a run fails or any digest differs.

set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 6 ]; then
    echo "usage: $0 <parent-tree> <change-tree> <workload> [pairs] [metric] [seed]" >&2
    exit 2
fi

parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
metric=${5:-host_ops_per_s}
seed=${6:-}

if ! [[ $pairs =~ ^[0-9]+$ ]] || ((pairs == 0 || pairs % 2)); then
    echo "perf_pairs: pairs must be a positive even count (got $pairs)" >&2
    exit 2
fi
if [ -n "$seed" ] && ! [[ $seed =~ ^[0-9]+$ ]]; then
    echo "perf_pairs: seed must be a non-negative integer (got $seed)" >&2
    exit 2
fi

# The direction that wins, from the change tree's benchmark declaration.
better=$(python3 - "$change/BENCHMARK.json" "$metric" <<'EOF'
import json
import sys

path, metric = sys.argv[1:]
with open(path) as f:
    for m in json.load(f)["end_to_end"]:
        if m["name"] == metric:
            print(m["better"])
            sys.exit(0)
sys.exit(f"perf_pairs: {metric} is no end-to-end metric of {path}")
EOF
) || exit 2

out=$(mktemp -d)
log="$out/runs.log"

# run <side> <tree> <pair>: one perfbench run on the pair's seed;
# leaves its last two stdout lines (digest, JSON) in $out/<side>-<pair>.
run() {
    local s=${seed:-$3}
    echo "== $1 pair $3 seed $s" >> "$log"
    if ! (cd "$2" && python3 perfbench/run.py --workload "$workload" \
            --seed "$s" --seconds 10 --trace 0) 2>> "$log" |
            tail -n 2 > "$out/$1-$3"; then
        echo "perf_pairs: $1 run failed for seed $s (see $log)" >&2
        exit 1
    fi
}

for ((pair = 1; pair <= pairs; ++pair)); do
    if ((pair % 2)); then
        run parent "$parent" "$pair"
        run change "$change" "$pair"
    else
        run change "$change" "$pair"
        run parent "$parent" "$pair"
    fi
done

status=0
python3 - "$out" "$pairs" "$metric" "$better" "$seed" <<'EOF' || status=$?
import json
import statistics
import sys

out, pairs, metric, better, seed = (sys.argv[1], int(sys.argv[2]),
                                    *sys.argv[3:])


def load(side, pair):
    with open(f"{out}/{side}-{pair}") as f:
        digest, result = f.read().splitlines()
    value = json.loads(result)["metrics"][metric]["value"]
    return digest.split()[-1], value


def fmt(x):
    return f"{x:.1f}" if abs(x) >= 100 else f"{x:.4f}"


def summary(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return (f"median {fmt(med)}  q1 {fmt(q1)}  q3 {fmt(q3)}  "
            f"spread {fmt(q3 - q1)}")


print(f"{metric} ({better} is better)")
print(f"{'seed':>6} {'parent':>12} {'change':>12} {'ratio':>7}  digest")
parent, change, wins, same = [], [], 0, True
for pair in range(1, pairs + 1):
    pd, p = load("parent", pair)
    cd, c = load("change", pair)
    parent.append(p)
    change.append(c)
    wins += c < p if better == "lower" else c > p
    same &= pd == cd
    print(f"{seed or pair:>6} {fmt(p):>12} {fmt(c):>12} {c / p:>7.3f}  "
          f"{'same' if pd == cd else 'DIFFERS'}")
print(f"parent: {summary(parent)}")
print(f"change: {summary(change)}")
print(f"change won {wins}/{pairs} pairs; median ratio "
      f"{statistics.median(change) / statistics.median(parent):.3f}")
print(f"digests: {'all match' if same else 'MISMATCH'}")
sys.exit(0 if same else 1)
EOF
echo "log: $log"
exit $status
