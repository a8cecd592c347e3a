#!/usr/bin/env bash
# The repository benchmark's one command. With no arguments: every
# workload, seed 3, results in benchmark/out/results.json.
#
#   benchmark/run.sh                      all workloads (all --seed 3)
#   benchmark/run.sh --twice [all-flags]  two result sets of the same code, compared
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh compare A.json B.json
#
# Builds offline into benchmark/target (or $CARGO_TARGET_DIR); the root
# workspace's Cargo.lock and target directory are never touched.
set -euo pipefail
cd "$(dirname "$0")/.."

bench() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}

if [ "$#" -eq 0 ]; then
    bench all --seed 3
elif [ "$1" = "--twice" ]; then
    shift
    bench all "$@" --out benchmark/out/results-a.json
    bench all "$@" --out benchmark/out/results-b.json
    bench compare benchmark/out/results-a.json benchmark/out/results-b.json
else
    bench "$@"
fi
