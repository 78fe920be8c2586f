#!/usr/bin/env bash
# The benchmark's one command. Builds nokbench and runs it from the
# repository root:
#
#   benchmark/run.sh                      every workload, timed and traced;
#                                         writes benchmark/out/results.json
#   benchmark/run.sh --trace 1            the traced runs only (--trace 0: timed only)
#   benchmark/run.sh --repeat N           N sets; fails if they disagree
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run; its result is the last line
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")

# Reuse the repository's target directory unless the caller chose one; a
# relative choice is relative to where the caller stands.
target=${CARGO_TARGET_DIR:-$root/target}
case $target in /*) ;; *) target=$PWD/$target ;; esac
export CARGO_TARGET_DIR=$target
cd "$root"

# The nok-* crates are path dependencies and compile under this package's
# profile: if it drifted from the repository's, the numbers would describe a
# build nobody ships.
release_profile() {
    awk '/^\[/ { inside = ($0 == "[profile.release]") } inside && NF && !/^#/' "$1"
}
if [ "$(release_profile Cargo.toml)" != "$(release_profile benchmark/Cargo.toml)" ]; then
    echo "run.sh: [profile.release] of benchmark/Cargo.toml differs from the repository's" >&2
    exit 3
fi

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/nokbench" "$@"
