#!/usr/bin/env bash
# Sample one command with the SIGPROF sampler and print its profile.
#
# Usage: profile.sh <out-dir> <command> [args...]
#
# Builds sampler.cc into <out-dir>/sampler.so, runs the command with it
# preloaded (one sample of the main thread every 100 microseconds),
# then writes the symbolized tables to <out-dir>/profile.txt and prints
# them. The raw samples stay in <out-dir>/samples.txt. Nothing runs
# unless asked: the sampler is inert in any process started without
# CXLF_PROF_OUT.
#
# Build the profiled program with -g (lines) and
# -fno-omit-frame-pointer (callers), for example perfbench:
#   cmake -S perfbench -B <dir> -DCMAKE_BUILD_TYPE=Release \
#       -DCMAKE_CXX_FLAGS="-g -fno-omit-frame-pointer"
#   cmake --build <dir> --target perfbench
#   profile.sh <out-dir> <dir>/perfbench --workload restore_burst \
#       --seed 1 --seconds 10 --trace 0

set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 <out-dir> <command> [args...]" >&2
    exit 2
fi

here=$(cd "$(dirname "$0")" && pwd)
out=$1
shift
mkdir -p "$out"
out=$(cd "$out" && pwd)

"${CXX:-g++}" -std=c++20 -O2 -fPIC -shared -Wall -Wextra \
    -o "$out/sampler.so" "$here/sampler.cc"

rm -f "$out/samples.txt"
status=0
CXLF_PROF_OUT="$out/samples.txt" LD_PRELOAD="$out/sampler.so" "$@" ||
    status=$?
if [ ! -s "$out/samples.txt" ]; then
    echo "profile: no samples written (command exited $status)" >&2
    exit 1
fi
python3 "$here/symbolize.py" "$out/samples.txt" > "$out/profile.txt"
cat "$out/profile.txt"
exit "$status"
