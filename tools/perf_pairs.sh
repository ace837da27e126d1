#!/usr/bin/env bash
# Interleaved parent/change pairs of one perfbench workload: the paired
# procedure behind every host-time claim (DESIGN.md Sec. 8).
#
# Usage: perf_pairs.sh <parent-tree> <change-tree> <workload> [pairs]
#
# Pair i (1..pairs, default 10) runs
#   python3 perfbench/run.py --workload <workload> --seed i --seconds 10 --trace 0
# once in each tree. Odd pairs run the parent first, even pairs the
# change first, so a slow spell on a shared host hits both sides alike.
# Each tree builds into its own .bench_build/; build output and the
# runs' stderr go to a log whose path is printed at the end.
#
# Prints, per pair, both sides' host_ops_per_s, the ratio change/parent
# and whether the two digests match; then each side's median and
# quartiles (linear interpolation), the number of pairs the change won
# (ties count for neither side) and whether every digest matched.
# Exits 1 if a run fails or any digest differs.

set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 <parent-tree> <change-tree> <workload> [pairs]" >&2
    exit 2
fi

parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}

out=$(mktemp -d)
log="$out/runs.log"

# run <side> <tree> <seed>: one perfbench run; leaves its last two
# stdout lines (digest, JSON) in $out/<side>-<seed>.
run() {
    echo "== $1 seed $3" >> "$log"
    if ! (cd "$2" && python3 perfbench/run.py --workload "$workload" \
            --seed "$3" --seconds 10 --trace 0) 2>> "$log" |
            tail -n 2 > "$out/$1-$3"; then
        echo "perf_pairs: $1 run failed for seed $3 (see $log)" >&2
        exit 1
    fi
}

for ((seed = 1; seed <= pairs; ++seed)); do
    if ((seed % 2)); then
        run parent "$parent" "$seed"
        run change "$change" "$seed"
    else
        run change "$change" "$seed"
        run parent "$parent" "$seed"
    fi
done

status=0
python3 - "$out" "$pairs" <<'EOF' || status=$?
import json
import statistics
import sys

out, pairs = sys.argv[1], int(sys.argv[2])


def load(side, seed):
    with open(f"{out}/{side}-{seed}") as f:
        digest, result = f.read().splitlines()
    rate = json.loads(result)["metrics"]["host_ops_per_s"]["value"]
    return digest.split()[-1], rate


def summary(xs):
    if len(xs) < 2:
        return f"median {xs[0]:.1f}"
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return f"median {med:.1f}  q1 {q1:.1f}  q3 {q3:.1f}  spread {q3 - q1:.1f}"


print(f"{'seed':>4} {'parent':>12} {'change':>12} {'ratio':>7}  digest")
parent, change, wins, same = [], [], 0, True
for seed in range(1, pairs + 1):
    pd, p = load("parent", seed)
    cd, c = load("change", seed)
    parent.append(p)
    change.append(c)
    wins += c > p
    same &= pd == cd
    print(f"{seed:>4} {p:>12.1f} {c:>12.1f} {c / p:>7.3f}  "
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
