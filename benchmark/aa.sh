#!/usr/bin/env bash
# A/A: two sets of untraced runs of the same build, compared.
#
#   benchmark/aa.sh                      seed 1 once per set
#   benchmark/aa.sh --seeds 10           seeds 1..10 per set: medians, quartile spreads, and
#                                        pass/fail against each metric's bound (the acceptance rule)
#
# Prints `workload metric median_a median_b worse_by spread_a spread_b bound verdict`
# and exits non-zero if any row fails.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- aa "$@"
