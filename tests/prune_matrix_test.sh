#!/usr/bin/env bash
# Prune x engine matrix gate: the prune-invariant aggregate digest
# (outcome_digest: everything except the pruned/pruned_rungs accounting)
# must be byte-identical across --prune=off|full, --engine=interp|threaded
# and --jobs=1|8 on the three paper apps. Any cell disagreeing means the
# precision ladder changed an outcome instead of just short-circuiting it.
# The same runs are the execution-engine A/B gate: at each prune level the
# full batch digest (pruned accounting included) must be bit-identical
# across both engines and both job counts.
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
