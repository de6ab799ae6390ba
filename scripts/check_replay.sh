#!/usr/bin/env bash
# CI gate for the memory-trace capture/replay mode, in four parts:
#
# 1. Byte gate: a fixed-seed captured BFS run swept over a fixed
#    16-point L1 grid must render a replay.json byte-for-byte identical
#    to the committed golden. The capture records architecturally-
#    ordered line accesses only, the sweep collects results in grid
#    order, and the renderer is all-integer — so `(graph generator,
#    algorithm, schedule, config, grid)` fully determines the bytes.
#    Any drift — in coalescing, the cache model, the trace format, or
#    the renderer — shows up as a diff against the golden.
#
# 2. Self-check: `swreplay verify` must reproduce the live run's
#    LevelStats bit for bit (the hierarchy is a pure function of its
#    call sequence; the trace *is* that call sequence). swreplay exits 1
#    on a mismatch, so `set -e` enforces this.
#
# 3. Corrupt input: the capture with its last 25 bytes cut off must be
#    refused by `swreplay verify` with exit 4 and a byte offset.
#
# 4. Speed assertion: the point of replay is that sweeping cache
#    geometries does not require re-simulating cores. A 16-config sweep
#    must be at least MIN_SPEEDUP_X times faster than 16 full
#    simulations (estimated as 16x one measured run, same binary, same
#    warm graph-generator path).
#
# The artifact opens with its envelope (schema, version, tool version,
# capture-config and trace fingerprints), so a tool-version bump
# regenerates the golden too. On top of byte-identity,
# `swprof diff golden fresh --tolerance 0` must
# read both artifacts' envelopes and find no changed metric (exit 0).
#
# The fresh artifact is left at ./replay.json (gitignored) so CI can
# upload it for run-to-run differential analysis across commits.
#
# To regenerate after an intentional change (e.g. a schema extension —
# raise REPLAY_SCHEMA's version in crates/core/src/replay.rs on breaks):
#   cargo run --release --bin swsim -- run \
#     --gen powerlaw:600:6000:1.9:11 --algo bfs --schedule sw \
#     --mem-trace-out replay_capture.swmtrace
#   cargo run --release --bin swreplay -- sweep --trace replay_capture.swmtrace \
#     --l1-sizes 4096,8192,16384,32768,65536,131072,262144,524288 \
#     --ways 2,4 --out scripts/replay_golden.json
set -euo pipefail
cd "$(dirname "$0")/.."

MIN_SPEEDUP_X="${MIN_SPEEDUP_X:-10}"
GOLDEN=scripts/replay_golden.json
TRACE=replay_capture.swmtrace
OUT=replay.json

# Build once up front so timing below measures runs, not compilation.
cargo build --release --quiet --bin swsim --bin swreplay --bin swprof

sim_start=$(date +%s%N)
./target/release/swsim run \
    --gen powerlaw:600:6000:1.9:11 --algo bfs --schedule sw \
    --mem-trace-out "$TRACE" > /dev/null
sim_ns=$(( $(date +%s%N) - sim_start ))
echo "ok: capture run complete ($((sim_ns / 1000000)) ms)"

./target/release/swreplay verify --trace "$TRACE" > /dev/null
echo "ok: replay under the capture config is bit-identical to the live run"

# A capture cut short (footer and part of a record gone) is refused as
# corrupt: exit 4, with the byte offset where decoding stopped.
head -c -25 "$TRACE" > "$TRACE.cut"
code=0
./target/release/swreplay verify --trace "$TRACE.cut" > /dev/null 2> "$TRACE.err" || code=$?
if [[ $code -ne 4 ]] || ! grep -Eq 'offset [0-9]+' "$TRACE.err"; then
    echo "FAIL: a truncated capture must exit 4 naming a byte offset" \
         "(exit $code: $(cat "$TRACE.err"))" >&2
    exit 1
fi
echo "ok: truncated capture refused ($(cat "$TRACE.err"))"
rm -f "$TRACE.cut" "$TRACE.err"

sweep_start=$(date +%s%N)
./target/release/swreplay sweep --trace "$TRACE" \
    --l1-sizes 4096,8192,16384,32768,65536,131072,262144,524288 \
    --ways 2,4 --jobs 4 --out "$OUT"
sweep_ns=$(( $(date +%s%N) - sweep_start ))
echo "ok: 16-config sweep complete ($((sweep_ns / 1000000)) ms)"

if ! diff -u "$GOLDEN" "$OUT"; then
    echo "FAIL: replay artifact drifted from $GOLDEN" >&2
    echo "If the change is intentional, regenerate the golden (see header)." >&2
    exit 1
fi
echo "ok: fixed-seed replay.json is byte-identical to the golden artifact"

./target/release/swprof diff "$GOLDEN" "$OUT" --tolerance 0 > /dev/null
echo "ok: swprof diff finds no metric change between golden and fresh"

# Jobs-invariance: the artifact bytes must not depend on the job count.
./target/release/swreplay sweep --trace "$TRACE" \
    --l1-sizes 4096,8192,16384,32768,65536,131072,262144,524288 \
    --ways 2,4 --jobs 1 --out "$OUT.serial"
if ! cmp -s "$OUT" "$OUT.serial"; then
    echo "FAIL: --jobs 4 and --jobs 1 rendered different replay.json bytes" >&2
    exit 1
fi
rm -f "$OUT.serial"
echo "ok: sweep artifact is byte-identical across --jobs values"

# 16 full sims vs one 16-config sweep.
full_ns=$(( sim_ns * 16 ))
if (( full_ns < MIN_SPEEDUP_X * sweep_ns )); then
    echo "FAIL: 16-config sweep took $((sweep_ns / 1000000)) ms but 16 full" \
         "sims would take ~$((full_ns / 1000000)) ms — less than" \
         "${MIN_SPEEDUP_X}x faster; replay has lost its reason to exist" >&2
    exit 1
fi
echo "ok: sweep is >= ${MIN_SPEEDUP_X}x faster than re-simulating" \
     "(16 sims ~$((full_ns / 1000000)) ms vs sweep $((sweep_ns / 1000000)) ms)"

rm -f "$TRACE"
