#!/usr/bin/env bash
# CI gate for the deterministic profile artifact: a fixed-seed profiled
# BFS run must render a profile.json that is byte-for-byte identical to
# the committed golden.
#
# The profiler records only architecturally-ordered events (memory
# fills, Weaver responses, per-warp issue slots) into fixed power-of-two
# histogram buckets with all-integer arithmetic, and the renderer sorts
# every map — so `(graph generator, algorithm, schedule, config)` fully
# determines the bytes. Any drift — in the simulator's timing, the
# profiler's bucketing, or the renderer — shows up as a diff against
# the golden artifact.
#
# On top of byte-identity, the gate exercises the swprof toolchain the
# way CI consumers do: `swprof report` must parse and render the fresh
# artifact, and `swprof diff golden fresh --tolerance 0` must find no
# changed metric (exit 0). A deliberately mismatched diff direction is
# NOT tested here — `swprof --selftest` covers the regression-detection
# side with synthetic fixtures.
#
# The artifact opens with its envelope (schema, version, tool version,
# config and graph fingerprints), so a tool-version bump regenerates the
# golden too.
#
# The fresh artifact is left at ./profile.json (gitignored) so CI can
# upload it for run-to-run differential analysis across commits.
#
# To regenerate after an intentional change (e.g. a new histogram or a
# schema extension — raise PROFILE_SCHEMA's version in
# crates/core/src/profile.rs on breaks):
#   cargo run --release --bin swsim -- run \
#     --gen powerlaw:600:6000:1.9:11 --algo bfs --schedule sw \
#     --profile-out scripts/profile_golden.json
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN=scripts/profile_golden.json
OUT=profile.json

cargo run --release --quiet --bin swsim -- run \
    --gen powerlaw:600:6000:1.9:11 --algo bfs --schedule sw \
    --profile-out "$OUT" > /dev/null

if ! diff -u "$GOLDEN" "$OUT"; then
    echo "FAIL: profile artifact drifted from $GOLDEN" >&2
    echo "If the change is intentional, regenerate the golden (see header)." >&2
    exit 1
fi
echo "ok: fixed-seed profile.json is byte-identical to the golden artifact"

cargo run --release --quiet --bin swprof -- report "$OUT" > /dev/null
echo "ok: swprof report renders the fresh artifact"

cargo run --release --quiet --bin swprof -- diff "$GOLDEN" "$OUT" --tolerance 0
echo "ok: swprof diff finds no metric change between golden and fresh"
