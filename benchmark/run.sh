#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh                     every workload, untraced then traced; prints
#                                        `workload metric value unit`, writes results/latest.json,
#                                        appends results/history.jsonl, exits non-zero on a failed check
#   benchmark/run.sh --seed 2            the same on another seed
#   benchmark/run.sh --smoke             untraced only, one 1-second segment per workload, same
#                                        checks (a wiring check; the numbers mean nothing)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                        one run; the result is the last stdout line (BENCHMARK.json)
#
# Builds offline, in release mode, into $CARGO_TARGET_DIR or benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
args=()
for a in "$@"; do
  if [ "$a" = "--smoke" ]; then args+=(--seconds 1 --trace 0); else args+=("$a"); fi
done
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- ${args[@]+"${args[@]}"}
