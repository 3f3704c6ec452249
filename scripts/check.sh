#!/usr/bin/env bash
# The full local gate: build, test, tidy. Exits non-zero on the first
# failure. Run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> benchmark package build"
# crates/bench/perf has its own [workspace], so the build above skips it.
cargo build --release --offline --manifest-path crates/bench/perf/Cargo.toml

echo "==> cargo test"
cargo test -q --workspace

echo "==> yoda-tidy"
report="$(mktemp)"
trap 'rm -f "$report"' EXIT
tidy_ok=0
cargo run -q -p yoda-tidy -- --json > "$report" || tidy_ok=$?

# Violation-count delta against the committed baseline. One violation
# object per line in the JSON, so grep -c counts them (grep exits 1 on
# zero matches — not an error here).
current=$(grep -c '"rule"' "$report" || true)
baseline=0
if [[ -f results/tidy_baseline.json ]]; then
    baseline=$(grep -c '"rule"' results/tidy_baseline.json || true)
fi
delta=$((current - baseline))
echo "tidy: ${current} violation(s); baseline ${baseline}; delta ${delta}"
# Shard-safety categories get their own delta: these keep the engine and
# its nodes `Send` (a whole run can move to another thread), so a new one
# must be visible even when an unrelated fix keeps the overall count flat.
shard_current=$(grep -c '"rule": "shard-' "$report" || true)
shard_baseline=0
if [[ -f results/tidy_baseline.json ]]; then
    shard_baseline=$(grep -c '"rule": "shard-' results/tidy_baseline.json || true)
fi
echo "tidy: shard-safety ${shard_current} violation(s); baseline ${shard_baseline}; delta $((shard_current - shard_baseline))"
if (( shard_current > shard_baseline )); then
    echo "tidy: new shard-unsafe construct(s) — the engine core must stay Send:"
    grep '"rule": "shard-' "$report" || true
    exit 1
fi
# Effect-discipline categories gate the same way: a handler reaching a
# strict effect outside the sanctioned Ctx API breaks deterministic
# replay, so a new one must fail even when the overall count stays flat.
effect_current=$(grep -c '"rule": "effect-' "$report" || true)
effect_baseline=0
if [[ -f results/tidy_baseline.json ]]; then
    effect_baseline=$(grep -c '"rule": "effect-' results/tidy_baseline.json || true)
fi
echo "tidy: effect-discipline ${effect_current} violation(s); baseline ${effect_baseline}; delta $((effect_current - effect_baseline))"
if (( effect_current > effect_baseline )); then
    echo "tidy: new unsanctioned effect route(s) from a handler:"
    grep '"rule": "effect-' "$report" || true
    exit 1
fi
# Per-function effect signatures: report-only delta against the
# committed dump, so a silently grown signature is visible in review.
effects_json="$(mktemp)"
cargo run -q -p yoda-tidy -- --effects > "$effects_json"
if [[ -f results/tidy_effects.json ]]; then
    if cmp -s "$effects_json" results/tidy_effects.json; then
        echo "tidy: effect signatures identical to results/tidy_effects.json"
    else
        echo "tidy: effect signatures drifted from results/tidy_effects.json — review and regenerate:"
        diff results/tidy_effects.json "$effects_json" | head -20 || true
        echo "      cargo run -q -p yoda-tidy -- --effects > results/tidy_effects.json"
        rm -f "$effects_json"
        exit 1
    fi
else
    echo "tidy: no committed results/tidy_effects.json — skipping signature delta"
fi
rm -f "$effects_json"
if (( delta > 0 )); then
    echo "tidy: ${delta} new violation(s) vs results/tidy_baseline.json:"
    grep '"rule"' "$report" || true
elif (( delta < 0 )); then
    echo "tidy: $(( -delta )) violation(s) fixed — regenerate the baseline:"
    echo "      cargo run -q -p yoda-tidy -- --json > results/tidy_baseline.json"
fi
if (( tidy_ok != 0 )); then
    # Re-run in human mode so the failure output shows taint paths.
    cargo run -q -p yoda-tidy || true
    exit "$tidy_ok"
fi

echo "==> chaos repro hook (pinned seed)"
# The full seeded matrix (20 survivable + 5 unconstrained plans) already
# ran under `cargo test`; this replays one pinned seed through the
# CHAOS_SEED one-command repro hook so the hook itself can't rot.
chaos_out="$(CHAOS_SEED=7 cargo test --release -q --test chaos_matrix one_seed -- --nocapture)"
grep -m1 "ChaosPlan { seed: 7" <<< "$chaos_out" \
    || { echo "chaos repro hook produced no plan output" >&2; exit 1; }

echo "==> bench_engine (smoke)"
# Events/sec delta vs the committed BENCH_engine.json. Report-only:
# wall-clock throughput is machine-dependent, so a delta here must never
# gate. (Digest agreement is asserted inside the bench itself, across
# its repeats, as is the deterministic splice gate.)
bench_json="$(mktemp)"
trap 'rm -f "$report" "$bench_json"' EXIT
./target/release/bench_engine --smoke > "$bench_json"
if [[ -f BENCH_engine.json ]]; then
    for name in pingpong_mesh timer_churn trace_ring full_testbed; do
        # Last match is the "current" block.
        committed=$(grep "\"name\": \"$name\"" BENCH_engine.json | tail -1 \
            | grep -o '"events_per_sec": [0-9]*' | grep -o '[0-9]*' || true)
        now=$(grep "\"name\": \"$name\"" "$bench_json" | tail -1 \
            | grep -o '"events_per_sec": [0-9]*' | grep -o '[0-9]*' || true)
        if [[ -n "$committed" && -n "$now" && "$committed" -gt 0 ]]; then
            awk -v n="$name" -v c="$committed" -v x="$now" 'BEGIN {
                printf "bench: %-14s %12d events/s (committed %12d, %+.1f%%)\n",
                       n, x, c, 100.0 * (x - c) / c }'
        fi
    done
else
    echo "bench: no committed BENCH_engine.json — skipping delta"
fi

echo "==> store brownout availability delta"
# Gray-failure headline: all stores slowed 10x, none killed. The bench
# prints healthy-vs-brownout new-connection success; the delta must stay
# under 1 point (the brownout test under `cargo test` asserts the >= 99%
# floor — this readout puts the number in the gate log).
brownout_out="$(./target/release/brownout_store)"
grep -E "success|availability delta|degraded-mode entries" <<< "$brownout_out"
delta_pct=$(grep "availability delta" <<< "$brownout_out" | grep -o '[0-9.]*%' | tr -d '%')
awk -v d="$delta_pct" 'BEGIN {
    if (d > 1.0) { print "brownout: availability delta " d "% exceeds 1 point" ; exit 1 }
}' || exit 1

echo "==> figure byte-identity (spot check)"
# Engine changes must be pure perf wins: regenerating a figure must
# reproduce the committed bytes exactly. Full regeneration is
# scripts/runall.sh (~15 min); this re-runs the fastest *deterministic*
# figure binaries as a gate against behaviour drift. (fig6 and fig16
# measure host wall-clock and are excluded — they never reproduce
# byte-for-byte.)
fig_tmp="$(mktemp)"
trap 'rm -f "$report" "$bench_json" "$fig_tmp"' EXIT
for fig in fig15_cost_reduction table1_website_impact; do
    ./target/release/"$fig" > "$fig_tmp"
    if ! cmp -s "$fig_tmp" "results/$fig.txt"; then
        echo "figure drift: $fig output differs from committed results/" >&2
        diff "results/$fig.txt" "$fig_tmp" | head -20 >&2 || true
        exit 1
    fi
    echo "$fig: byte-identical to committed results/"
done

echo "==> all checks passed"
