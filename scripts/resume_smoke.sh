#!/usr/bin/env bash
# Kill-and-resume smoke for sweep checkpointing: start a checkpointing
# `missweep -run all`, SIGKILL it mid-grid, resume from the checkpoint at
# workers=1 and workers=8, and require the final tables (the -out CSVs,
# which cover sync, daemon, and async cells) to be byte-identical to an
# uninterrupted run's. Exercises the whole stack: periodic atomic snapshot
# writes under pool quiesce, envelope validation on load, journal replay
# through the reorder buffer, and purity of the re-run remainder.
set -euo pipefail

BIN=${1:?usage: resume_smoke.sh <missweep-binary>}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# Uninterrupted references at two worker counts (must already agree).
"$BIN" -run all -scale 0.05 -workers 1 -out "$WORK/ref1" > /dev/null
"$BIN" -run all -scale 0.05 -workers 8 -out "$WORK/ref8" > /dev/null
diff -r "$WORK/ref1" "$WORK/ref8"

# Checkpointing run, SIGKILLed mid-grid: the kill lands as soon as the
# first periodic checkpoint exists (the file appears by rename, so it is
# whole), about 100 ms into a sweep that takes most of a second. The wait
# is bounded; if the sweep finishes first, the resume still validates the
# full-replay path (warned below so the log shows which case ran).
"$BIN" -run all -scale 0.05 -workers 8 \
  -checkpoint "$WORK/sweep.ckpt" -checkpoint-every 100ms \
  -out "$WORK/killed" > /dev/null 2>&1 &
PID=$!
for _ in $(seq 500); do
  if [ -f "$WORK/sweep.ckpt" ] || ! kill -0 "$PID" 2>/dev/null; then
    break
  fi
  sleep 0.01
done
if kill -9 "$PID" 2>/dev/null; then
  echo "SIGKILLed checkpointing sweep mid-grid (pid $PID)"
else
  echo "warning: sweep finished before the kill; resume exercises full replay"
fi
wait "$PID" 2>/dev/null || true
test -f "$WORK/sweep.ckpt" || { echo "no checkpoint was written"; exit 1; }

# Resume at both worker counts. Each resume gets its own checkpoint copy
# (resuming extends the file as the sweep completes).
cp "$WORK/sweep.ckpt" "$WORK/sweep8.ckpt"
"$BIN" -run all -scale 0.05 -workers 1 -checkpoint "$WORK/sweep.ckpt" -resume -out "$WORK/res1" > /dev/null
"$BIN" -run all -scale 0.05 -workers 8 -checkpoint "$WORK/sweep8.ckpt" -resume -out "$WORK/res8" > /dev/null
diff -r "$WORK/ref1" "$WORK/res1"
diff -r "$WORK/ref1" "$WORK/res8"

# A corrupted checkpoint must refuse to resume (exit nonzero), not resume
# silently wrong. The resume flags match the checkpoint's identity exactly,
# so only the envelope validation (truncation detection) can reject it.
SZ=$(wc -c < "$WORK/sweep8.ckpt")
head -c $((SZ / 2)) "$WORK/sweep8.ckpt" > "$WORK/torn.ckpt"
if "$BIN" -run all -scale 0.05 -workers 8 -checkpoint "$WORK/torn.ckpt" -resume > /dev/null 2>&1; then
  echo "truncated checkpoint was accepted"; exit 1
fi

echo "resume smoke: byte-identical tables after SIGKILL at workers=1 and 8; damaged checkpoint rejected"
