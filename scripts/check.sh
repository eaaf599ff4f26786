#!/usr/bin/env bash
# Full local gate: formatting, lints, docs, and the tier-1 build + test
# suite, plus the saseval-lint static-analysis pass over the built-in
# catalogs and the example DSL documents.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings denied)"
# Explicit -p list: the vendored crates are workspace members but their
# docs are not ours to gate.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
  -p saseval -p saseval-types -p saseval-obs -p saseval-hara -p saseval-tara \
  -p saseval-threat -p saseval-core -p saseval-dsl -p vehicle-net -p vehicle-sim \
  -p security-controls -p attack-engine -p saseval-fuzz -p saseval-bench \
  -p saseval-lint -p saseval-server

echo "==> cargo bench --no-run (benches must compile)"
cargo bench --workspace --no-run -q

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> workspace tests: cargo test -q --workspace"
# Tier-1 selects only the root package; this runs every crate's unit and
# integration tests (the payload goldens, allocation budgets and fuzzer
# unit tests among them).
cargo test -q --workspace

echo "==> unread flood path: equivalence proptests in release, 256 cases"
# The properties keep proptest's default configuration, which reads
# PROPTEST_CASES; tier-1 runs them with the default 64 cases.
PROPTEST_CASES=256 cargo test -q --release --test unread_flood_equivalence

echo "==> burst flood path: equivalence proptests in release, 256 cases"
# AD14's bursts against per-message sends, and the run-carrying CAN bus
# against a copy of the frame-by-frame arbitration loop.
PROPTEST_CASES=256 cargo test -q --release --test burst_flood_equivalence

echo "==> V2X unread bursts: equivalence proptests in release, 256 cases"
# AD20's unread bursts against single unread sends and per-message
# sends, with jams and polls that cut bursts.
PROPTEST_CASES=256 cargo test -q --release --test v2x_burst_equivalence

echo "==> JSON writer: equivalence proptest in release, 1024 cases"
# The streaming writer against a copy of the Value-tree walkers it
# replaced, over random trees; default config, so PROPTEST_CASES applies.
PROPTEST_CASES=1024 cargo test -q --release --test json_writer_equivalence

echo "==> sharded fuzzing smoke: repro_tables fuzz --fuzz-shards 2"
cargo run -q --release -p saseval-bench --bin repro_tables -- fuzz --fuzz-shards 2

echo "==> regression corpus: cargo test --test corpus_replay"
cargo test -q --test corpus_replay

echo "==> regression corpus smoke: repro_tables --replay-corpus tests/fixtures/corpus"
cargo run -q --release -p saseval-bench --bin repro_tables -- --replay-corpus tests/fixtures/corpus

echo "==> campaign server smoke: repeat request is a byte-identical cache hit"
# The tier-1 release build covers only the root package; build the
# server binary the smokes below start.
cargo build --release -q -p saseval-server
SERVER_BIN=target/release/saseval-server
SERVER_ADDR=127.0.0.1:7461
SERVER_CACHE="$(mktemp -d)"
SERVER_OUT="$(mktemp -d)"
SERVER_JOB='{"Fuzz":{"scenario":{"Keyless":{"horizon_ms":300,"attack_at_ms":100}},"iterations":256,"seed":7}}'
"$SERVER_BIN" serve --addr "$SERVER_ADDR" --cache-dir "$SERVER_CACHE" &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$SERVER_CACHE" "$SERVER_OUT"' EXIT
# Wait for the listener (the bin prints its address once bound).
for _ in $(seq 1 100); do
  if (exec 3<>"/dev/tcp/127.0.0.1/7461") 2>/dev/null; then exec 3>&- 3<&-; break; fi
  sleep 0.1
done
"$SERVER_BIN" submit --addr "$SERVER_ADDR" --job "$SERVER_JOB" --expect-cache miss > "$SERVER_OUT/first.json"
"$SERVER_BIN" submit --addr "$SERVER_ADDR" --job "$SERVER_JOB" --expect-cache hit > "$SERVER_OUT/second.json"
cmp "$SERVER_OUT/first.json" "$SERVER_OUT/second.json"
echo "    cache hit payload is byte-identical"

echo "==> campaign server gate: 16 concurrent identical submits coalesce onto one execution"
# A long fresh job (~0.4 s on a 2-core Xeon host) so all 16 CLI submits
# arrive while it is still in flight; 15 of them must attach to the
# single execution, and every payload must be byte-identical.
COALESCE_JOB='{"Fuzz":{"scenario":{"Keyless":{"controls":"All","horizon_ms":300,"attack_at_ms":100}},"iterations":524288,"seed":99}}'
COALESCE_PIDS=()
for i in $(seq 1 16); do
  "$SERVER_BIN" submit --addr "$SERVER_ADDR" --id "burst$i" --job "$COALESCE_JOB" \
    > "$SERVER_OUT/burst$i.json" 2>/dev/null &
  COALESCE_PIDS+=($!)
done
for pid in "${COALESCE_PIDS[@]}"; do wait "$pid"; done
for i in $(seq 2 16); do cmp "$SERVER_OUT/burst1.json" "$SERVER_OUT/burst$i.json"; done
SERVER_STATS="$("$SERVER_BIN" stats --addr "$SERVER_ADDR")"
COALESCED="$(printf '%s' "$SERVER_STATS" | grep -o '"coalesced":[0-9]*' | cut -d: -f2)"
EXECUTED="$(printf '%s' "$SERVER_STATS" | grep -o '"executed":[0-9]*' | cut -d: -f2)"
test "$COALESCED" -ge 15
echo "    coalesced=$COALESCED executed=$EXECUTED; 16 byte-identical payloads"

echo "==> campaign server smoke: in-band shutdown exits cleanly"
"$SERVER_BIN" shutdown --addr "$SERVER_ADDR"
wait "$SERVER_PID"
echo "    clean exit after {\"control\":\"shutdown\"}"

echo "==> campaign server smoke: SIGTERM terminates (cache stays consistent)"
"$SERVER_BIN" serve --addr "$SERVER_ADDR" --cache-dir "$SERVER_CACHE" &
SERVER_PID=$!
for _ in $(seq 1 100); do
  if (exec 3<>"/dev/tcp/127.0.0.1/7461") 2>/dev/null; then exec 3>&- 3<&-; break; fi
  sleep 0.1
done
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" && SERVER_STATUS=0 || SERVER_STATUS=$?
test "$SERVER_STATUS" -ne 0  # killed by signal, not a clean 0
# Simulate a crash mid-append: garbage after the newest segment's last
# record. The restart's scan must stop there and keep every earlier record.
SERVER_NEWEST="$(ls -t "$SERVER_CACHE" | head -n 1)"
printf 'torn\0tail' >> "$SERVER_CACHE/$SERVER_NEWEST"
# The on-disk tier survives the kill: a fresh server serves the cached job.
"$SERVER_BIN" serve --addr "$SERVER_ADDR" --cache-dir "$SERVER_CACHE" &
SERVER_PID=$!
for _ in $(seq 1 100); do
  if (exec 3<>"/dev/tcp/127.0.0.1/7461") 2>/dev/null; then exec 3>&- 3<&-; break; fi
  sleep 0.1
done
"$SERVER_BIN" submit --addr "$SERVER_ADDR" --job "$SERVER_JOB" --expect-cache hit > "$SERVER_OUT/third.json"
cmp "$SERVER_OUT/first.json" "$SERVER_OUT/third.json"
"$SERVER_BIN" shutdown --addr "$SERVER_ADDR"
wait "$SERVER_PID"
trap - EXIT
rm -rf "$SERVER_CACHE" "$SERVER_OUT"
echo "    disk cache survived SIGTERM and a torn tail; payload still byte-identical"

echo "==> campaign server floor: cached-memory latency within 3x of committed BENCH_server.json"
cargo run -q --release -p saseval-bench --bin repro_tables -- --server-floor BENCH_server.json

echo "==> saseval-lint --use-cases"
cargo run -q -p saseval-lint -- --use-cases

echo "==> saseval-lint examples/*.sasedsl"
cargo run -q -p saseval-lint -- examples/*.sasedsl

echo "==> saseval-lint --trace-report: campaign analysis is error-free and deterministic"
LINT_OUT="$(mktemp -d)"
trap 'rm -rf "$LINT_OUT"' EXIT
# Zero deny findings over the built-in catalogs (with executed verdicts)
# and the example documents, twice; the two report trees must match byte
# for byte — the analyzer's determinism contract.
cargo run -q --release -p saseval-lint -- --use-cases examples/*.sasedsl \
  --trace-report "$LINT_OUT/first" > /dev/null
cargo run -q --release -p saseval-lint -- --use-cases examples/*.sasedsl \
  --trace-report "$LINT_OUT/second" > /dev/null
diff -r "$LINT_OUT/first" "$LINT_OUT/second"
test -s "$LINT_OUT/first/trace.sarif"
rm -rf "$LINT_OUT"
trap - EXIT
echo "    two trace-report runs are byte-identical"

echo "==> scenario search smoke: fixed-seed coverage and corpus pinned, guided > random"
# The bin exits non-zero unless guided coverage beats random at equal
# budget; on top of that, pin the exact deterministic numbers so any
# drift in the search loop, sampler or coverage encoding is caught.
SCN_OUT="$(cargo run -q --release -p saseval-bench --bin repro_tables -- --scenario-search 96)"
printf '%s\n' "$SCN_OUT"
printf '%s' "$SCN_OUT" | grep -q 'guided cells=16 paths=44 corpus=35 hash=0xfc6cf6195f50c1ce'
printf '%s' "$SCN_OUT" | grep -q 'cells=14 paths=44 corpus=18 hash=0xa5c07cdf41dbd83a'
echo "    guided beat random; coverage cells and corpus hashes match the pinned values"

echo "==> saseval-lint tests/fixtures/scenarios/*.scn.json"
cargo run -q -p saseval-lint -- tests/fixtures/scenarios/*.scn.json

echo "==> saseval-lint scenario deny gate: the seeded-defect file fails with exit 1"
SEEDED_SCN=tests/fixtures/scenarios/seeded/defects.scn.json
if cargo run -q -p saseval-lint -- "$SEEDED_SCN" > /dev/null 2>&1; then
  echo "seeded scenario defects were not detected" >&2
  exit 1
else
  LINT_STATUS=$?
  test "$LINT_STATUS" -eq 1  # deny findings, not a usage/parse error
fi
echo "    seeded scenario file rejected as expected"

echo "All checks passed."
