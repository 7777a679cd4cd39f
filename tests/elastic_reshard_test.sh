#!/usr/bin/env bash
# Elastic re-sharding determinism gate: run a campaign through the service
# daemon with a worker fleet that changes mid-flight — one worker SIGKILLed
# while it holds an assignment, a replacement joining afterwards — and
# require the fetched result to be byte-identical to a monolithic
# `fsim batch --jobs=1` run of the same spec. `fsim status` must stay
# consistent (done+remaining == grid) throughout, and the offline
# `fsim status <file>` reading the job's master checkpoint must print the
# daemon's final table byte for byte. No worker may prepare the job twice: each runs
# all its chunks of a job through one prepared session.
#
# usage: elastic_reshard_test.sh /path/to/fsim
set -euo pipefail

FSIM=${1:?usage: elastic_reshard_test.sh /path/to/fsim}

work=$(mktemp -d)
daemon_pid=""
cleanup() {
  [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT
cd "$work"

# Sized so the victim's chunk (half the grid) runs for a good while: the
# SIGKILL below must land while it still holds an unfinished assignment.
cat > spec.json <<'EOF'
{"format": "fsim-batch-v2", "runs": 400, "seed": 99,
 "regions": ["regular", "message"],
 "campaigns": [{"app": "wavetoy", "ranks": 4, "steps": 8},
               {"app": "minimd", "ranks": 4, "steps": 4}]}
EOF

echo "== monolithic reference (--jobs=1)"
"$FSIM" batch --spec=spec.json --jobs=1 --quiet --json --out=mono.json

echo "== daemon + 2 workers, binary sidecars"
"$FSIM" serve --socket=fsim.sock --state=state --ckpt-encoding=bin \
    2> serve.log &
daemon_pid=$!
for _ in $(seq 1 100); do
  [ -S fsim.sock ] && break
  sleep 0.05
done
[ -S fsim.sock ] || { echo "FAIL: daemon socket never appeared"; exit 1; }

# w1 joins alone, so it is handed half the grid in one chunk; w2 joins
# once that chunk is out and works through the rest in smaller ones.
"$FSIM" worker --socket=fsim.sock --name=w1 --checkpoint-every=1 \
    2> w1.log &
w1=$!

job=$("$FSIM" submit --socket=fsim.sock --tenant=alice --spec=spec.json)
echo "   submitted $job"

for _ in $(seq 1 200); do
  grep -q "job=$job" w1.log 2>/dev/null && break
  sleep 0.05
done
grep -q "job=$job" w1.log || { echo "FAIL: w1 never got work"; exit 1; }

"$FSIM" worker --socket=fsim.sock --name=w2 --checkpoint-every=1 \
    2> w2.log &
w2=$!

# SIGKILL w1 once its first sidecar write shows it prepared and started
# its chunk: the kill lands while it holds an unfinished assignment.
for _ in $(seq 1 500); do
  [ -e "state/jobs/$job/tasks/t0.json" ] && break
  sleep 0.02
done
kill -KILL "$w1" 2>/dev/null || true
wait "$w1" 2>/dev/null || true
echo "   killed w1 mid-assignment"

# `fsim status` must stay consistent while the fleet churns: done+remaining
# always covers the whole grid (400 runs x 2 regions x 2 campaigns).
status=$("$FSIM" status --socket=fsim.sock --job="$job")
echo "$status" | grep -Eq "state=(queued|running|done)" || {
  echo "FAIL: status missing job state"; echo "$status"; exit 1; }
echo "$status" | grep -q "done .* of 1600 " || {
  echo "FAIL: status does not cover the full grid"; echo "$status"; exit 1; }

# A replacement joins: the scheduler re-shards the remaining grid onto it.
"$FSIM" worker --socket=fsim.sock --name=w3 --checkpoint-every=1 \
    2> w3.log &
w3=$!
echo "   replacement w3 joined"

for _ in $(seq 1 2000); do
  state=$("$FSIM" status --socket=fsim.sock --job="$job" |
          sed -n 's/.*state=\([a-z]*\).*/\1/p' | head -1)
  [ "$state" = "done" ] && break
  sleep 0.2
done
[ "$state" = "done" ] || { echo "FAIL: job never finished"; exit 1; }

# The daemon must have detected the death and reclaimed the assignment.
grep -q "worker .* lost" serve.log || {
  echo "FAIL: daemon never noticed the dead worker"; exit 1; }
grep -q "reclaim job=$job task=0 " serve.log || {
  echo "FAIL: daemon never reclaimed w1's chunk"; exit 1; }

# A worker prepares the job once and runs every chunk of it through that
# session: no log holds two prepare lines, and w2, which lived through the
# whole job, prepared once for two or more assignments.
count() { grep -c "$1" "$2" || true; }
for log in w1.log w2.log w3.log; do
  n=$(count "prepare job=$job campaigns=" "$log")
  [ "$n" -le 1 ] || { echo "FAIL: $log prepared the job $n times"; exit 1; }
done
[ "$(count "prepare job=$job campaigns=" w2.log)" -eq 1 ] || {
  echo "FAIL: w2 did not prepare the job exactly once"; exit 1; }
[ "$(count ": job=$job task=" w2.log)" -ge 2 ] || {
  echo "FAIL: w2 ran fewer than two assignments"; cat w2.log; exit 1; }
echo "   each worker prepared the job at most once"

"$FSIM" fetch --socket=fsim.sock --job="$job" --out=elastic.json
cmp mono.json elastic.json || {
  echo "FAIL: elastic result differs from the monolithic run"; exit 1; }
echo "   fetched result is byte-identical to --jobs=1"

# Offline status of the job's master checkpoint agrees with the daemon:
# the status reply carries that checkpoint, so past the job header line
# (and the blank line closing the job) the two tables are the same bytes.
"$FSIM" status "state/jobs/$job/master.json" > offline.txt
grep -q "done 1600 of 1600 (complete)" offline.txt || {
  echo "FAIL: offline status disagrees"; cat offline.txt; exit 1; }
"$FSIM" status --socket=fsim.sock --job="$job" > daemon_full.txt
sed -e '1{/^job .* state=done$/d}' -e '${/^$/d}' daemon_full.txt > daemon.txt
cmp offline.txt daemon.txt || {
  echo "FAIL: daemon and offline status tables differ"
  diff offline.txt daemon_full.txt || true; exit 1; }
echo "   daemon status table is byte-identical to the offline one"
"$FSIM" status spec.json > spec_status.txt
grep -q "done 0 of 1600 (in progress)" spec_status.txt || {
  echo "FAIL: spec status should show an untouched grid"; exit 1; }

"$FSIM" shutdown --socket=fsim.sock
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
wait "$w2" "$w3" 2>/dev/null || true
echo "PASS: elastic re-sharding is deterministic"
