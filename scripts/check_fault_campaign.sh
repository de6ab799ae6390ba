#!/usr/bin/env bash
# CI gate for the fault-injection campaign runner: a fixed-seed 200-run
# BFS campaign must reproduce byte-for-byte.
#
# The campaign derives every per-run injector seed from the campaign
# seed (SplitMix64 child streams), so `(spec, seed, runs)` fully
# determines the machine's fault history and therefore the summary.
# Any drift — in the injector, the retry/fallback protocol, the
# classifier, or the simulator's fault surfaces — shows up as a diff
# against the committed golden summary.
#
# `swfault` itself enforces the other two acceptance properties: it
# exits non-zero if any run panicked (the machine model must surface
# faults as typed errors) or if the four outcome classes do not sum to
# the number of runs.
#
# The first campaign runs twice: at --jobs 1, and at --jobs 2, where the
# worker threads share the campaign's kernel cache.
#
# A second fixed-seed campaign runs with `--no-fallback` at rates chosen
# so every outcome class — including hang — appears: dropping Weaver
# responses without the S_wm degradation surfaces Weaver timeouts as
# hangs deterministically. Beyond byte-identity, this gate asserts all
# four classes are non-zero, closing the hang-coverage gap (ROADMAP).
#
# Each summary opens with the artifact envelope (schema, version, tool
# version, config and graph fingerprints), so a tool-version bump
# regenerates the goldens too.
#
# To regenerate after an intentional change (e.g. a new fault site):
#   cargo run --release --bin swfault -- \
#     --inject reg=0.0001,mem=0.00005,fetch=0.00005,weaver-drop=0.05 \
#     --runs 200 --seed 2025 > scripts/fault_campaign_golden.json
#   cargo run --release --bin swfault -- \
#     --inject reg=0.002,mem=0.001,fetch=0.001,weaver-drop=0.02 \
#     --runs 200 --seed 7 --no-fallback > scripts/fault_campaign_hang_golden.json
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN=scripts/fault_campaign_golden.json
HANG_GOLDEN=scripts/fault_campaign_hang_golden.json
OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT

cargo run --release --quiet --bin swfault -- \
    --inject reg=0.0001,mem=0.00005,fetch=0.00005,weaver-drop=0.05 \
    --runs 200 --seed 2025 > "$OUT"

if ! diff -u "$GOLDEN" "$OUT"; then
    echo "FAIL: campaign summary drifted from $GOLDEN" >&2
    echo "If the change is intentional, regenerate the golden (see header)." >&2
    exit 1
fi
echo "ok: 200-run fixed-seed campaign is byte-identical to the golden summary"

# The same campaign on two worker threads, which share one kernel cache
# (the golden run's) and so race to compile the S_wm fallback kernels.
cargo run --release --quiet --bin swfault -- \
    --inject reg=0.0001,mem=0.00005,fetch=0.00005,weaver-drop=0.05 \
    --runs 200 --seed 2025 --jobs 2 > "$OUT"

if ! diff -u "$GOLDEN" "$OUT"; then
    echo "FAIL: campaign summary at --jobs 2 drifted from $GOLDEN" >&2
    exit 1
fi
echo "ok: the same campaign at --jobs 2 is byte-identical to the golden summary"

cargo run --release --quiet --bin swfault -- \
    --inject reg=0.002,mem=0.001,fetch=0.001,weaver-drop=0.02 \
    --runs 200 --seed 7 --no-fallback > "$OUT"

if ! diff -u "$HANG_GOLDEN" "$OUT"; then
    echo "FAIL: no-fallback campaign summary drifted from $HANG_GOLDEN" >&2
    echo "If the change is intentional, regenerate the golden (see header)." >&2
    exit 1
fi
for class in masked sdc detected_crash hang; do
    if ! grep -q "\"$class\":[1-9]" "$OUT"; then
        echo "FAIL: outcome class \"$class\" is zero — campaign no longer covers all four classes" >&2
        exit 1
    fi
done
echo "ok: no-fallback campaign is byte-identical and covers all four outcome classes"
