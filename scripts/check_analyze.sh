#!/usr/bin/env bash
# CI gate for the abstract-interpretation analyzer: `swlint --analyze
# --json` over the whole built-in kernel zoo (every algorithm x every
# schedule, default config) must render byte-for-byte identical to the
# committed golden.
#
# The analyzer is a deterministic forward fixpoint — its transfer
# functions are all-integer, diagnostics are sorted by (pc, rule), and
# the JSON renderer emits fields in a fixed order — so the kernel
# templates and the machine geometry fully determine the bytes. Any
# drift — a template change, a transfer-function change, a new or
# retired SW-L5xx finding — shows up as a diff against the golden.
#
# The gate also re-checks two analyzer invariants the golden encodes
# implicitly: the fixpoint converged on every kernel (swlint exits
# nonzero otherwise) and no shipped kernel has a proved out-of-bounds
# access (no "SW-L501" anywhere in the document).
#
# The stream's first line is the artifact envelope (schema
# `sparseweaver-analyze`, the tool version and the config fingerprint);
# every further line is one kernel's report.
#
# The fresh document is left at ./analyze.json (gitignored) so CI can
# upload it for cross-commit comparison.
#
# To regenerate after an intentional change (the envelope's tool version
# is part of the bytes, so a version bump regenerates too):
#   cargo run --release --bin swlint -- --analyze --json \
#     > scripts/analyze_golden.json
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN=scripts/analyze_golden.json
OUT=analyze.json

cargo run --release --quiet --bin swlint -- --analyze --json > "$OUT"

if ! diff -u "$GOLDEN" "$OUT"; then
    echo "FAIL: analyzer output drifted from $GOLDEN" >&2
    echo "If the change is intentional, regenerate the golden (see header)." >&2
    exit 1
fi
echo "ok: kernel-zoo analyzer output is byte-identical to the golden"

if grep -q 'SW-L501' "$OUT"; then
    echo "FAIL: a shipped kernel has a proved out-of-bounds access" >&2
    exit 1
fi
echo "ok: no proved out-of-bounds access in any shipped kernel"
