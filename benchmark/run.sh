#!/usr/bin/env bash
# One command for the perf ledger. Builds the `scholar` CLI from the root
# workspace and this package, then hands every argument to the harness.
#
#   benchmark/run.sh                         all five workloads, human report
#   benchmark/run.sh --workload serve-cold   one workload
#   benchmark/run.sh --traced                untraced + traced run, per-layer table, overhead
#   benchmark/run.sh --calibrate             five full rounds, min/median/max/spread per metric
#   benchmark/run.sh --smoke                 tiny corpora, every check, < 15 s
#
# Driver protocol (BENCHMARK.json): --workload NAME --seed N --seconds S --trace 0|1;
# the last line of stdout is the result object.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")

# Both builds share one target directory: the driver's CARGO_TARGET_DIR if
# set (made absolute against the invocation directory), else the root target/.
target=${CARGO_TARGET_DIR:-$root/target}
case $target in /*) ;; *) target=$PWD/$target ;; esac
export CARGO_TARGET_DIR=$target

# Cargo reports on stderr; stdout stays the harness's alone.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p scholar-cli
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"

# The driver's checkout is not a git repository; look no further up than the root.
commit=unknown
if [ -e "$root/.git" ]; then
    commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
fi

exec "$target/release/scholar-benchmark" \
    --scholar-bin "$target/release/scholar" \
    --work-dir "$here/work" --out-dir "$here/out" --commit "$commit" "$@"
