#!/usr/bin/env bash
# CI gate for crash-safe simulation (docs/robustness.md): an interrupted
# run resumed from its `swckpt` checkpoint — and an interrupted
# journaled campaign resumed from its JSONL journal — must reproduce the
# uninterrupted artifacts byte-for-byte.
#
# Part 1: a fixed-seed `swsim run` is killed mid-run (SIGTERM while the
# simulation is in flight, with the deterministic --stop-after-launches
# bound as a fallback on very fast machines); `swsim resume` must then
# produce a metrics.json byte-identical to the uninterrupted golden.
#
# Part 1b: the same kill→resume with every resumable observer attached —
# a streamed trace file, the profiler, and a Weaver fault injector — must
# reproduce metrics.json, the trace file and profile.json byte-for-byte
# (the restored file sink truncates the trace back to the checkpointed
# byte count; the injector's RNG resumes mid-stream).
#
# Part 2: a journaled `swfault` campaign is interrupted (journal
# truncated to a completed-run prefix, exactly what a kill leaves
# behind, including a torn final line); `swfault --resume` must render
# the summary byte-identical to the uninterrupted golden at --jobs 1
# AND --jobs 8.
#
# Exit code 5 ("stopped early, resumable") is asserted on both
# interruption paths.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

cargo build --release --quiet --bin swsim --bin swfault
SWSIM=target/release/swsim
SWFAULT=target/release/swfault

# ---- Part 1: swsim checkpoint/resume ---------------------------------------
RUN_ARGS=(run --gen powerlaw:2000:40000:2.0:7 --algo pr --iters 12
          --schedule sw --config small)

"$SWSIM" "${RUN_ARGS[@]}" --metrics-out "$WORK/golden.json" >/dev/null

# Interrupt a checkpointing run mid-flight. SIGTERM lands while the
# simulation is running; --stop-after-launches backstops the race so the
# run always stops early even if the signal arrives too late.
set +e
"$SWSIM" "${RUN_ARGS[@]}" \
    --metrics-out "$WORK/resumed.json" \
    --checkpoint-out "$WORK/run.swckpt" --checkpoint-every 1 \
    --stop-after-launches 5 >/dev/null 2>"$WORK/stop.err" &
PID=$!
sleep 0.2 && kill -TERM "$PID" 2>/dev/null
wait "$PID"
CODE=$?
set -e
if [ "$CODE" -ne 5 ]; then
    echo "FAIL: interrupted swsim run exited $CODE, expected 5" >&2
    cat "$WORK/stop.err" >&2
    exit 1
fi
if [ ! -s "$WORK/run.swckpt" ]; then
    echo "FAIL: no checkpoint written by the interrupted run" >&2
    exit 1
fi
if [ -e "$WORK/resumed.json" ]; then
    echo "FAIL: interrupted run published a partial metrics artifact" >&2
    exit 1
fi

"$SWSIM" resume "$WORK/run.swckpt" >/dev/null

if ! cmp -s "$WORK/golden.json" "$WORK/resumed.json"; then
    echo "FAIL: resumed metrics.json differs from the uninterrupted run" >&2
    diff <(head -c 400 "$WORK/golden.json") <(head -c 400 "$WORK/resumed.json") >&2 || true
    exit 1
fi
echo "ok: swsim resume after a mid-run kill reproduces metrics.json byte-for-byte"
# Keep the proven-resumable checkpoint around for the CI artifact upload.
cp "$WORK/run.swckpt" run.swckpt

# ---- Part 1b: instrumented swsim checkpoint/resume -------------------------
# Small enough that the full-category trace stays under ~10 MB; 7 launches,
# so the stop at launch 5 leaves live work for the resume.
INST_ARGS=(run --gen powerlaw:100:600:2.0:7 --algo pr --iters 3
           --schedule sw --config small
           --inject weaver-drop=0.02,weaver-delay=0.05 --seed 3)
ARTIFACTS=(metrics.json trace.jsonl profile.json)
mkdir -p "$WORK/golden" "$WORK/resumed"

"$SWSIM" "${INST_ARGS[@]}" --metrics-out "$WORK/golden/metrics.json" \
    --trace-out "$WORK/golden/trace.jsonl" \
    --profile-out "$WORK/golden/profile.json" >/dev/null

set +e
"$SWSIM" "${INST_ARGS[@]}" --metrics-out "$WORK/resumed/metrics.json" \
    --trace-out "$WORK/resumed/trace.jsonl" \
    --profile-out "$WORK/resumed/profile.json" \
    --checkpoint-out "$WORK/inst.swckpt" --checkpoint-every 1 \
    --stop-after-launches 5 >/dev/null 2>"$WORK/inst_stop.err" &
PID=$!
sleep 0.2 && kill -TERM "$PID" 2>/dev/null
wait "$PID"
CODE=$?
set -e
if [ "$CODE" -ne 5 ]; then
    echo "FAIL: interrupted instrumented run exited $CODE, expected 5" >&2
    cat "$WORK/inst_stop.err" >&2
    exit 1
fi

"$SWSIM" resume "$WORK/inst.swckpt" >/dev/null

for F in "${ARTIFACTS[@]}"; do
    if ! cmp -s "$WORK/golden/$F" "$WORK/resumed/$F"; then
        echo "FAIL: resumed $F differs from the uninterrupted instrumented run" >&2
        exit 1
    fi
done
echo "ok: instrumented resume (trace file, profiler, fault injector) reproduces ${ARTIFACTS[*]} byte-for-byte"

# ---- Part 2: swfault journal/resume ----------------------------------------
CAMPAIGN=(--inject reg=0.002,mem=0.001,weaver-drop=0.02
          --runs 64 --seed 42 --gen powerlaw:64:400:2.0:7 --algo pr --iters 3)

"$SWFAULT" "${CAMPAIGN[@]}" --jobs 2 > "$WORK/campaign_golden.json" 2>/dev/null

# A full journaled campaign changes no output bytes.
"$SWFAULT" "${CAMPAIGN[@]}" --jobs 2 --journal "$WORK/journal.jsonl" \
    > "$WORK/campaign_journaled.json" 2>/dev/null
cmp -s "$WORK/campaign_golden.json" "$WORK/campaign_journaled.json" || {
    echo "FAIL: enabling --journal changed the campaign summary" >&2; exit 1; }

# Interrupt the campaign via the wall-clock watchdog: exit 5, completed
# prefix journaled. (A huge run count guarantees the 1s budget fires
# first.)
set +e
"$SWFAULT" --inject reg=0.002,mem=0.001,weaver-drop=0.02 \
    --runs 100000 --seed 9 --gen powerlaw:64:400:2.0:7 --algo pr --iters 3 \
    --jobs 2 --journal "$WORK/wd.jsonl" --max-wall-secs 1 \
    >/dev/null 2>"$WORK/wd.err"
CODE=$?
set -e
if [ "$CODE" -ne 5 ]; then
    echo "FAIL: watchdog-stopped campaign exited $CODE, expected 5" >&2
    cat "$WORK/wd.err" >&2
    exit 1
fi
echo "ok: swfault watchdog stop exits 5 with the journal preserved"

# Simulate a kill of the 64-run campaign: keep the header + 20 completed
# runs and tear the final line in half (a mid-append crash).
head -21 "$WORK/journal.jsonl" > "$WORK/torn.jsonl"
head -c -9 "$WORK/torn.jsonl" > "$WORK/torn2.jsonl" && mv "$WORK/torn2.jsonl" "$WORK/torn.jsonl"

for JOBS in 1 8; do
    cp "$WORK/torn.jsonl" "$WORK/torn_j$JOBS.jsonl"
    "$SWFAULT" "${CAMPAIGN[@]}" --jobs "$JOBS" \
        --journal "$WORK/torn_j$JOBS.jsonl" --resume \
        > "$WORK/resumed_j$JOBS.json" 2>/dev/null
    if ! cmp -s "$WORK/campaign_golden.json" "$WORK/resumed_j$JOBS.json"; then
        echo "FAIL: resumed campaign summary differs at --jobs $JOBS" >&2
        exit 1
    fi
done
echo "ok: interrupted swfault --resume is byte-identical at --jobs 1 and --jobs 8"
