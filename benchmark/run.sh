#!/usr/bin/env bash
# The one command of the standing benchmark: builds it in release, runs it,
# prints every metric by name with its unit and, as the last line, the result
# object ({"correct", "attempted", "failed", "metrics"}) per workload.
#
#   benchmark/run.sh [--workload <name>|all] [--seed n] [--seconds s]
#                    [--trace 0|1] [--sets N] [--smoke]
#
# --trace 0  (default) end-to-end metrics, tracing off.
# --trace 1  per-layer metrics: traced pass + micro-loops (+ a shortened
#            untraced pass for the stats metrics); writes a Chrome trace to
#            benchmark/out/.
# --sets N   N end-to-end sets in one invocation, each metric's set-to-set
#            deviation beside its bound; non-zero exit if one exceeds it.
# --smoke    1 round x 200 ms of both passes with every check, all four
#            workloads, and the name self-check against BENCHMARK.json.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Only path dependencies: the build needs no network and no vendored crate.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

exec "${CARGO_TARGET_DIR:-benchmark/target}/release/nbr-benchmark" "$@"
