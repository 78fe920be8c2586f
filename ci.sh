#!/usr/bin/env bash
# Full local CI: formatting, clippy, source-analysis lint, build, tests, and an
# integrity sweep (nokfsck) over a freshly generated corpus. Mirrors
# .github/workflows/ci.yml so the pipeline can be reproduced offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo xtask analyze (self-test, then workspace)"
cargo xtask analyze --self-test
cargo xtask analyze
# Machine-readable report for tooling; must parse and agree (zero findings).
cargo xtask analyze --json > ANALYZE.json
grep -q '"findings": \[\]' ANALYZE.json

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build -p nok-datagen --no-default-features (xorshift fallback)"
cargo build -p nok-datagen --no-default-features

echo "==> cargo test"
cargo test -q

echo "==> concurrency stress suite (release)"
cargo test -p nok-serve --release -q --test stress

echo "==> loom concurrency models (plan cache, out queue, buffer pool, mvcc)"
RUSTFLAGS="--cfg loom" cargo test -q -p nok-serve --test loom_plan_cache
RUSTFLAGS="--cfg loom" cargo test -q -p nok-serve --test loom_out_queue
RUSTFLAGS="--cfg loom" cargo test -q -p nok-pager --test loom_pool
RUSTFLAGS="--cfg loom" cargo test -q -p nok-pager --test loom_mvcc

# ThreadSanitizer over the serve stress suite and nok-core's tests, and Miri
# over the pager/btree unit tests, need nightly with rust-src / miri; the
# GitHub nightly jobs run them unconditionally (see ci.yml), locally they
# are skipped when absent.
if rustup component list --toolchain nightly 2>/dev/null \
    | grep -q '^rust-src (installed)'; then
  echo "==> ThreadSanitizer: stress suite and nok-core (nightly)"
  host="$(rustc -vV | sed -n 's/^host: //p')"
  export RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
    TSAN_OPTIONS="halt_on_error=1"
  cargo +nightly test -Zbuild-std -q -p nok-serve --release --test stress \
    --target "$host"
  cargo +nightly test -Zbuild-std -q -p nok-core --release --target "$host"
  unset RUSTFLAGS RUSTDOCFLAGS TSAN_OPTIONS
else
  echo "==> ThreadSanitizer: skipped (nightly rust-src not installed)"
fi
if cargo +nightly miri --version >/dev/null 2>&1; then
  echo "==> Miri (pager + btree unit tests, nightly)"
  cargo +nightly miri test -q -p nok-pager --lib
  cargo +nightly miri test -q -p nok-btree --lib
else
  echo "==> Miri: skipped (nightly miri not installed)"
fi

echo "==> nokfsck over a generated corpus"
corpus="$(mktemp -d)"
trap 'rm -rf "$corpus"' EXIT
for ds in author address catalog treebank dblp; do
  ./target/release/mkdb "$ds" 0.01 "$corpus/$ds"
  ./target/release/nokfsck --strict "$corpus/$ds"
  # The summary must be smaller than what it summarises, however
  # recursive the data: exact byte counts, no timing.
  [ "$(wc -c < "$corpus/$ds/stats.blk")" -le "$(wc -c < "$corpus/$ds/struct.pg")" ]
done

echo "==> nokd end-to-end (serve a corpus, ~100 queries, diff vs offline)"
./target/release/nokd "$corpus/dblp" --addr 127.0.0.1:0 \
  --port-file "$corpus/nokd.port" --workers 4 &
nokd_pid=$!
for _ in $(seq 1 50); do
  [ -s "$corpus/nokd.port" ] && break
  sleep 0.1
done
port="$(cat "$corpus/nokd.port")"
# The dblp workload is 24 queries (12 rooted + 12 descendant variants);
# five passes ≈ 120 queries through the shared pool.
./target/release/nokq --workload dblp > "$corpus/queries.txt"
for _ in 1 2 3 4 5; do cat "$corpus/queries.txt"; done > "$corpus/queries5.txt"
./target/release/nokq --offline "$corpus/dblp" < "$corpus/queries5.txt" \
  > "$corpus/offline.txt"
# One request at a time, then 8 in flight (responses reordered by id
# client-side): both must render the exact bytes offline evaluation does.
for depth in 1 8; do
  ./target/release/nokq --addr "127.0.0.1:$port" --pipeline "$depth" \
    < "$corpus/queries5.txt" > "$corpus/served-$depth.txt"
  diff "$corpus/served-$depth.txt" "$corpus/offline.txt"
done
# (Capture to a file, then grep: `nokq | grep -q` races grep's early exit
# against nokq's last stdout write, and nokq dies of EPIPE when it loses.)
./target/release/nokq --addr "127.0.0.1:$port" --stats \
  < /dev/null > "$corpus/stats.json"
grep -q '"served"' "$corpus/stats.json"
# Answers stream: some answer above one chunk went out as parts (the
# largest dblp answers are ~3.4k matches, several 4 KiB chunks).
grep -q '"answer_chunks":[1-9]' "$corpus/stats.json"
# EXPLAIN over the wire and offline both end in the sink row (the answer).
./target/release/nokq --addr "127.0.0.1:$port" --explain \
  '//article[year="1995"]//author' > "$corpus/explain-served.txt"
grep -q '^sink ' "$corpus/explain-served.txt"
./target/release/nokq --offline "$corpus/dblp" --explain \
  '//article[year="1995"]//author' > "$corpus/explain-offline.txt"
grep -q '^sink ' "$corpus/explain-offline.txt"
# Without queries on the command line nokq drains piped stdin first, so a
# scripted shutdown must pin stdin to /dev/null or it can block forever.
./target/release/nokq --addr "127.0.0.1:$port" --shutdown \
  < /dev/null > /dev/null
wait "$nokd_pid"
./target/release/nokfsck --strict "$corpus/dblp"

echo "==> planner/executor differential battery (release)"
# Every workload query x every dataset: the planned route == forced scan
# route == forced index route == the naive oracle, the scan-route edge
# cases, the selective workload's index seeds, the path summary's empty
# proof and pivot elevation as exact counts, plus the explain snapshot.
cargo test --release -q -p nok-bench --test plan_differential

echo "==> crash-recovery failpoint sweep + differential update fuzz (release)"
# Bounded k-sweep by default; NOK_FAILPOINT_FULL=1 probes every injected
# crash point (nightly CI does this).
cargo test --release -q -p nok-bench --test crash_recovery --test update_fuzz

echo "CI OK"
