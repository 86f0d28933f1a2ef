#!/usr/bin/env sh
# CI entry point: tier-1 build + test, then the parallel-determinism suite
# twice with different harness thread counts — the golden-report guarantee
# must hold regardless of how the test harness itself schedules the runs.
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (workspace)"
cargo test --workspace -q

echo "==> determinism suite, --test-threads=1 (release, includes standard profile)"
cargo test --release -q --test parallel_determinism --test determinism -- --test-threads=1 --include-ignored

echo "==> determinism suite, --test-threads=4 (release)"
cargo test --release -q --test parallel_determinism --test determinism -- --test-threads=4 --include-ignored

echo "==> steal-determinism suite (release, includes the seeded proptest)"
cargo test --release -q --test scaling_determinism -- --include-ignored

echo "==> observability artifacts: emit (quick preset) + schema validation"
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
./target/release/openforhire study --summary --preset quick \
    --metrics-out "$OBS_TMP/metrics.json" --trace-out "$OBS_TMP/trace.jsonl" >/dev/null
cargo run --release -q --example obs_validate -- "$OBS_TMP/metrics.json" "$OBS_TMP/trace.jsonl"

echo "==> chaos smoke: hostile schedule, workers 1 vs 8, byte-for-byte"
./target/release/openforhire study --preset quick --faults hostile --workers 1 \
    > "$OBS_TMP/chaos_w1.txt"
./target/release/openforhire study --preset quick --faults hostile --workers 8 \
    > "$OBS_TMP/chaos_w8.txt"
cmp "$OBS_TMP/chaos_w1.txt" "$OBS_TMP/chaos_w8.txt"
echo "    reports identical under faults at workers 1 and 8"

echo "==> paper-scale smoke: 2^32 universe preset + event-core test suites"
# paper-smoke is the down-sampled twin of paper-scale: the full IPv4 address
# space with a CI-sized population, exercising the indexed target space, the
# timer wheel and the streaming (first-touch) host population end to end.
# Workers 1 vs 4 must still be byte-for-byte.
./target/release/openforhire study --preset paper-smoke --workers 1 \
    > "$OBS_TMP/paper_w1.txt"
./target/release/openforhire study --preset paper-smoke --workers 4 \
    > "$OBS_TMP/paper_w4.txt"
cmp "$OBS_TMP/paper_w1.txt" "$OBS_TMP/paper_w4.txt"
echo "    paper-smoke reports identical at workers 1 and 4"
cargo test --release -q -p ofh-net --test wheel_props --test lazy_hosts
cargo test --release -q --test parallel_determinism implicit_population_matches_eager

echo "==> scaling-smoke: report bytes invariant across workers at fixed shard counts"
# Shard count is a semantic knob (16 and 64 are different traces); worker
# count is a pure execution knob. Golden-diff byte-for-byte at both counts —
# at 64 the worker axis runs past the old fixed-16 partition so the
# work-stealing scheduler's chunked steals are on the tested path.
for SHARDS in 16 64; do
    ./target/release/openforhire study --preset quick --shards "$SHARDS" --workers 1 \
        > "$OBS_TMP/scale_s${SHARDS}_w1.txt"
    WORKERS_AXIS="4"
    [ "$SHARDS" = "64" ] && WORKERS_AXIS="4 8 32"
    for W in $WORKERS_AXIS; do
        ./target/release/openforhire study --preset quick --shards "$SHARDS" --workers "$W" \
            > "$OBS_TMP/scale_s${SHARDS}_w${W}.txt"
        cmp "$OBS_TMP/scale_s${SHARDS}_w1.txt" "$OBS_TMP/scale_s${SHARDS}_w${W}.txt"
    done
    echo "    shards=$SHARDS: reports identical at workers {1, $WORKERS_AXIS}"
done

echo "==> store-smoke: columnar store determinism + query engine + latency budget"
# The store file is a pure function of (seed, shards): paper-smoke written at
# workers 1 and 4 must be byte-identical. Then the query CLI runs against the
# written file, the re-rendered Tables 4, 5 and 7 must match the live study's,
# and a 10k-query mini workload must hold a (generous) point-lookup p99 budget.
./target/release/openforhire study --preset paper-smoke --workers 1 \
    --store-out "$OBS_TMP/paper_w1.store" >/dev/null
./target/release/openforhire study --preset paper-smoke --workers 4 \
    --store-out "$OBS_TMP/paper_w4.store" >/dev/null
cmp "$OBS_TMP/paper_w1.store" "$OBS_TMP/paper_w4.store"
echo "    paper-smoke stores byte-identical at workers 1 and 4"
./target/release/openforhire query --store "$OBS_TMP/paper_w1.store" info >/dev/null
for TABLE in 4 5 7; do
    ./target/release/openforhire query --store "$OBS_TMP/paper_w1.store" table "$TABLE" \
        > "$OBS_TMP/store_table$TABLE.txt"
    ./target/release/openforhire table "$TABLE" --preset paper-smoke \
        > "$OBS_TMP/live_table$TABLE.txt"
    cmp "$OBS_TMP/store_table$TABLE.txt" "$OBS_TMP/live_table$TABLE.txt"
done
echo "    store-derived Tables 4, 5 and 7 match the live study renders"
BENCH_QUERY_N=10000 BENCH_QUERY_P99_BUDGET_US=5000 \
    BENCH_QUERY_OUT="$OBS_TMP/query.json" \
    cargo bench -q -p ofh-bench --bench query
grep -q '"class": "point"' "$OBS_TMP/query.json"
echo "    10k-query mini workload within p99 budget"

echo "==> obs-gate: regression sentinel + flight recorder smoke"
# Regression sentinel: two same-seed paper-smoke runs at different worker
# counts must produce snapshots whose deterministic sections are
# byte-identical — `obsdiff` exits 0. Perturbing one deterministic counter
# must flip it to a nonzero exit. Then a fault-windowed run with the flight
# recorder armed must leave per-shard flight-*.jsonl dumps behind.
./target/release/openforhire study --preset paper-smoke --workers 1 \
    --metrics-out "$OBS_TMP/obs_a.json" >/dev/null
./target/release/openforhire study --preset paper-smoke --workers 4 \
    --metrics-out "$OBS_TMP/obs_b.json" >/dev/null
./target/release/openforhire obsdiff "$OBS_TMP/obs_a.json" "$OBS_TMP/obs_b.json"
echo "    same-seed snapshots: deterministic sections identical (exit 0)"
sed 's/"net.events_processed":[0-9]*/"net.events_processed":1/' \
    "$OBS_TMP/obs_a.json" > "$OBS_TMP/obs_perturbed.json"
if ./target/release/openforhire obsdiff "$OBS_TMP/obs_a.json" "$OBS_TMP/obs_perturbed.json" \
    > /dev/null 2>&1; then
    echo "    ERROR: obsdiff accepted a perturbed deterministic counter" >&2
    exit 1
fi
echo "    perturbed deterministic counter rejected (nonzero exit)"
./target/release/openforhire study --preset quick --faults hostile \
    --flight-dir "$OBS_TMP/flight" --summary >/dev/null 2>&1
ls "$OBS_TMP"/flight/flight-*.jsonl >/dev/null
echo "    fault-window run left flight-recorder dumps in --flight-dir"

echo "==> scaling curve, bounded mini grid (exercises the bench harness)"
BENCH_SCALING_MINI=1 BENCH_SCALING_OUT="$OBS_TMP/scaling.json" \
    cargo bench -q -p ofh-bench --bench scaling
grep -q '"preset": "quick", "shards": 64' "$OBS_TMP/scaling.json"
echo "    mini scaling grid written and well-formed"

echo "==> bench suite, smoke mode (every body runs once, no timing)"
cargo bench -p ofh-bench -- --test

echo "==> ci.sh: all green"
