#!/usr/bin/env bash
# Prune x engine matrix gate: the prune-invariant aggregate digest
# (outcome_digest: everything except the pruned/pruned_rungs accounting)
# must be byte-identical across --prune=off|full, --engine=interp|threaded
# and --jobs=1|8 on the three paper apps. Any cell disagreeing means the
# precision ladder changed an outcome instead of just short-circuiting it.
# The same runs are the execution-engine A/B gate: at each prune level the
# full batch digest (pruned accounting included) must be bit-identical
# across both engines and both job counts. Digest equality cannot tell
# "pruned correctly" from "stopped pruning", so two bite gates follow:
# the heap and frame rungs on every app, and the whole ladder on wavetoy.
#
#   tests/prune_matrix_test.sh <path-to-fsim> [runs]
set -euo pipefail

fsim="${1:?usage: prune_matrix_test.sh <fsim> [runs]}"
runs="${2:-4}"

# field <json> <key>: the first integer value of "key" in the document.
field() {
  printf '%s' "$1" | grep -o "\"$2\": *[0-9]*" | head -1 | grep -o '[0-9]*$'
}

ref=""
for prune in off full; do
  ab_ref=""
  for engine in interp threaded; do
    for jobs in 1 8; do
      out="$("$fsim" batch --apps=wavetoy,minimd,atmo --runs="$runs" \
               --jobs="$jobs" --prune="$prune" --engine="$engine" \
               --json --quiet)"
      digest="$(field "$out" outcome_digest)"
      batch="$(field "$out" digest)"
      if [ -z "$digest" ] || [ -z "$batch" ]; then
        echo "prune_matrix: no outcome_digest/digest in batch output" >&2
        exit 1
      fi
      echo "  prune=$prune engine=$engine jobs=$jobs ->" \
           "outcome_digest $digest, digest $batch"
      if [ -z "$ref" ]; then
        ref="$digest"
      elif [ "$digest" != "$ref" ]; then
        echo "prune_matrix: outcome digest divergence" \
             "(prune=$prune engine=$engine jobs=$jobs:" \
             "$digest != $ref)" >&2
        exit 1
      fi
      if [ -z "$ab_ref" ]; then
        ab_ref="$batch"
      elif [ "$batch" != "$ab_ref" ]; then
        echo "prune_matrix: engine digest divergence" \
             "(prune=$prune engine=$engine jobs=$jobs:" \
             "$batch != $ab_ref)" >&2
        exit 1
      fi
    done
  done
  echo "prune_matrix: engines agree at prune=$prune (digest $ab_ref)"
done
echo "prune_matrix: all 8 cells agree (outcome_digest $ref)"

# Rung bite gate: at --prune=full every app must retire at least one heap
# fault through the allocation-site rung and one stack fault through the
# activation-window rung — digest equality alone cannot tell "pruned
# correctly" apart from "stopped pruning".
for app in wavetoy minimd atmo; do
  out="$("$fsim" campaign --app="$app" --runs="$runs" --regions=heap,stack \
           --prune=full --json --quiet | grep '^{')"
  for rung in heap frame; do
    count="$(printf '%s' "$out" |
             grep -o "\"$rung\":[0-9]*" | head -1 | grep -o '[0-9]*$')"
    if [ -z "$count" ] || [ "$count" -eq 0 ]; then
      echo "prune_matrix: $app pruned no faults through the $rung rung" >&2
      exit 1
    fi
    echo "  $app rung=$rung pruned=$count"
  done
done
echo "prune_matrix: heap and frame rungs bite on every app"

# Ladder coverage gate: at --prune=full, one wavetoy campaign over every
# region must prune regular, FP and text faults, and each of the six rungs
# of the precision ladder must decide at least one run. Run i's fault
# depends only on (seed, region, i), so counts only grow with --runs; at
# the default seed and 300 runs the scarcest rung, time-window, decides 9.
cov="$("$fsim" campaign --app=wavetoy --runs=300 --prune=full --json \
         --quiet | grep '^{' | sed 's/{"region":/\n&/g')"
for region in "Regular Reg." "FP Reg." "Text"; do
  count="$(printf '%s\n' "$cov" | grep -F "{\"region\":\"$region\"" |
           grep -o '"pruned":[0-9]*' | head -1 | grep -o '[0-9]*$')"
  if [ -z "$count" ] || [ "$count" -eq 0 ]; then
    echo "prune_matrix: wavetoy pruned no $region faults" >&2
    exit 1
  fi
  echo "  wavetoy region=$region pruned=$count"
done
rungs="$(printf '%s\n' "$cov" | grep -o '"pruned_rungs":{[^}]*}')"
for rung in base fp-ctx time-window value-range heap frame; do
  count="$(printf '%s\n' "$rungs" | { grep -o "\"$rung\":[0-9]*" || true; } |
           awk -F: '{ n += $2 } END { print n + 0 }')"
  if [ "$count" -eq 0 ]; then
    echo "prune_matrix: the $rung rung decided no wavetoy run" >&2
    exit 1
  fi
  echo "  wavetoy rung=$rung decided=$count"
done
echo "prune_matrix: every rung of the ladder decides runs"
