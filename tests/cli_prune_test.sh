#!/usr/bin/env bash
# CLI gate for fsim's flag handling. The --prune flag on `fsim run`: an
# unknown spelling (the old on/true/false and the retired regs level
# included) must be rejected with a message listing the valid values, and
# a valid level must report the activation verdict, live or dead for every
# dictionary fault (campaign/batch have their own digest gates); regs is
# refused in specs and checkpoints too. Empty or duplicate region lists
# and a campaign listed twice exit 1 from the CLI and from spec files (a
# repeated campaign from checkpoints too), as do empty items in any CLI
# comma list (an empty --suppress= still clears the lint suppressions),
# lint --suppress prefixes that start no symbol name in any linted app,
# and spec app params the apps cannot run (one rank; more steps than a
# 16-bit immediate). Strict flags: unknown or ignored options,
# out-of-range counts (beyond the int range too), seeds outside
# 0..2^64-1, NaN --ci/--confidence, malformed --shard values and
# --checkpoint-every without --checkpoint exit 1 naming the flag, and
# only the --name=value form carries a value, so a bare flag never
# swallows the next file. `fsim merge` folds checkpoints
# only: result exports, forged done sets (the committed tests/data
# forgeries) and adaptive shards with different policies exit 1, and
# `fsim status` refuses the forgeries too.
#
#   tests/cli_prune_test.sh <path-to-fsim>
set -euo pipefail

fsim="${1:?usage: cli_prune_test.sh <fsim>}"
case "$fsim" in /*) ;; *) fsim="$PWD/$fsim" ;; esac
data="$(cd "$(dirname "$0")" && pwd)/data"

# Unknown spelling: nonzero exit, error names the valid values.
if err="$("$fsim" run --app=wavetoy --region=heap --seed=5 --prune=bogus \
            2>&1)"; then
  echo "cli_prune: --prune=bogus unexpectedly succeeded" >&2
  exit 1
fi
case "$err" in
  *"off|full"*) ;;
  *) echo "cli_prune: error does not list valid values: $err" >&2
     exit 1 ;;
esac
echo "  --prune=bogus rejected: $err"

# Valid level: run succeeds and reports the static activation verdict.
out="$("$fsim" run --app=wavetoy --region=heap --seed=5 --prune=full)"
case "$out" in
  *"static:  activation"*) ;;
  *) echo "cli_prune: --prune=full run missing static verdict line" >&2
     printf '%s\n' "$out" >&2
     exit 1 ;;
esac
echo "  --prune=full reports a static activation verdict"

# --prune=off prints no static verdict.
out="$("$fsim" run --app=wavetoy --region=heap --seed=5 --prune=off)"
case "$out" in
  *"static:"*) echo "cli_prune: --prune=off printed a static verdict" >&2
               exit 1 ;;
  *) ;;
esac
echo "  --prune=off prints no static verdict"

# A single run draws from the campaign's annotated dictionary, so every
# data fault carries a live or dead verdict, never "unknown".
for seed in 1 2 3 4 5 6; do
  out="$("$fsim" run --app=wavetoy --region=data --seed="$seed" --prune=full)"
  grep -Eq '^static:  activation (live|dead)' <<<"$out" || {
    echo "cli_prune: data seed $seed has no live/dead verdict: $out" >&2
    exit 1; }
done
echo "  --region=data --prune=full: every fault tagged live or dead"

# Strict flags: each invocation must exit 1, and its error must contain
# the given text.
expect_fail() {
  local needle="$1"; shift
  local err status=0
  err="$("$fsim" "$@" 2>&1 >/dev/null)" || status=$?
  if [ "$status" -ne 1 ]; then
    echo "cli_prune: 'fsim $*' exited $status, expected 1: $err" >&2
    exit 1
  fi
  case "$err" in
    *"$needle"*) ;;
    *) echo "cli_prune: 'fsim $*' error lacks '$needle': $err" >&2
       exit 1 ;;
  esac
  echo "  fsim $* -> $err"
}
expect_fail "unknown option --jobz" campaign --app=jacobi --jobz=4
expect_fail "--runs" campaign --app=jacobi --runs=-5
expect_fail "--jobs" batch --apps=jacobi --runs=2 --jobs=0
expect_fail "--jobs" batch --apps=jacobi --runs=2 --jobs=-3
# Counts beyond the int range are refused, not wrapped (to 2 runs, 1 job).
expect_fail "--runs" campaign --app=jacobi --runs=4294967298
expect_fail "--jobs" campaign --app=jacobi --runs=2 --jobs=4294967297
# Seeds are strict u64 everywhere: no clamping, no wrapping of negatives.
for cmd in "run --app=jacobi" "campaign --app=jacobi --runs=2" \
           "batch --apps=jacobi --runs=2" "analyze --app=jacobi --runs=0"; do
  for bad in 99999999999999999999999 18446744073709551616 -1; do
    # shellcheck disable=SC2086
    expect_fail "option --seed expects an integer from 0 to 18446744073709551615" \
        $cmd --seed="$bad"
  done
done
# A flag that needs another one says so instead of "unknown option".
expect_fail "option --checkpoint-every requires --checkpoint=FILE" \
    batch --apps=jacobi --runs=2 --checkpoint-every=5
expect_fail "option --ckpt-encoding requires --checkpoint=FILE" \
    batch --apps=jacobi --runs=2 --ckpt-encoding=bin
# NaN is outside (0, 1) too.
expect_fail "--ci must be in (0, 1)" batch --apps=jacobi --runs=2 --ci=nan \
    --quiet
expect_fail "confidence alpha must be in (0, 1)" batch --apps=jacobi \
    --runs=2 --ci=0.1 --confidence=nan --quiet
for bad in x/y 1/ 3/2 -1/4; do
  expect_fail "option --shard expects i/N with 0 <= i < N, got '$bad'" \
      batch --apps=jacobi --runs=2 --shard="$bad"
done
expect_fail "--checkpoint-every" batch --apps=jacobi --runs=2 \
    --checkpoint=never.json --checkpoint-every=0
expect_fail "--wave" batch --apps=jacobi --runs=2 --ci=0.1 --wave=0
expect_fail "--max-runs" batch --apps=jacobi --ci=0.1 --max-runs=0
expect_fail "--chunk" serve --socket=never.sock --state=never --chunk=0
expect_fail "--rank" mix --app=jacobi --rank=-1
expect_fail "--points" trace --app=jacobi --points=0
# One spelling per prune level: the old boolean words and the retired
# integer-registers-only level are refused.
for bad in on true false regs; do
  expect_fail "option --prune expects off|full, got '$bad'" \
      run --app=jacobi --prune="$bad"
done
expect_fail "option --prune expects off|full, got 'regs'" \
    campaign --app=jacobi --runs=2 --prune=regs
expect_fail "option --prune expects off|full, got 'regs'" \
    batch --apps=jacobi --runs=2 --prune=regs
# Region lists: empty or with a region twice, refused naming the region.
expect_fail "empty region list" campaign --app=jacobi --runs=2 --regions=
expect_fail "region 'regular' listed twice" campaign --app=jacobi --runs=2 \
    --regions=regular,regular
expect_fail "region 'message' listed twice" batch --apps=jacobi --runs=2 \
    --regions=message,regular,message --quiet
# Comma lists: an empty item is a typo, refused naming the option.
expect_fail "option --apps has an empty item in 'jacobi,'" \
    batch --apps=jacobi, --runs=2 --quiet
expect_fail "option --regions has an empty item in 'regular,,stack'" \
    batch --apps=jacobi --runs=2 --regions=regular,,stack --quiet
expect_fail "option --regions has an empty item in ',regular'" \
    campaign --app=jacobi --runs=2 --regions=,regular
expect_fail "option --suppress has an empty item in 'a,'" \
    lint --app=jacobi --suppress=a,
# --suppress items are symbol-name prefixes: one that starts no symbol name
# in any app the invocation lints is a typo, refused before any report...
expect_fail "--suppress item 'no-such-check' is a prefix of no symbol in wavetoy" \
    lint --app=wavetoy --suppress=no-such-check
expect_fail "--suppress item 'wt_' is a prefix of no symbol in minimd" \
    lint --app=minimd --suppress=wt_
expect_fail "--suppress item 'nope' is a prefix of no symbol in any linted app" \
    lint --app=all --suppress=wt_,nope
[ -z "$("$fsim" lint --app=all --suppress=wt_,nope 2>/dev/null)" ] || {
  echo "cli_prune: a refused --suppress still printed a report" >&2
  exit 1; }
# ...while with --app=all a prefix that matches in one app stays legal.
"$fsim" lint --app=all --suppress=wt_ > /dev/null
echo "  lint --app=all --suppress=wt_ accepted (wt_ matches in wavetoy)"
# ...while an empty --suppress= still means "no suppressions": the
# findings wavetoy suppresses by default come back.
quiet_lint="$("$fsim" lint --app=wavetoy --json)"
loud_lint="$("$fsim" lint --app=wavetoy --json --suppress=)"
[ "$quiet_lint" != "$loud_lint" ] || {
  echo "cli_prune: lint --suppress= did not clear the suppressions" >&2
  exit 1; }
echo "  lint --suppress= clears the default suppressions"
# The same campaign twice is refused; a doubled region already was.
expect_fail "campaign for app 'wavetoy' listed twice with the same spec" \
    batch --apps=wavetoy,wavetoy --runs=2 --quiet
# Flags the chosen path ignores are refused too.
expect_fail "unknown option --wave" batch --apps=jacobi --runs=2 --wave=3
expect_fail "unexpected argument 'extra'" campaign --app=jacobi extra

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cd "$tmp"
echo '{"format": "fsim-batch-v2", "runs": 4, "regions": ["regular", "message"],
 "campaigns": [{"app": "jacobi"}]}' > spec.json
expect_fail "unknown option --runs" batch --spec=spec.json --runs=8
echo '{"format": "fsim-batch-v2", "regions": ["regular", "regular"],
 "campaigns": [{"app": "jacobi"}]}' > dup.json
expect_fail "region 'regular' listed twice" batch --spec=dup.json --quiet
echo '{"format": "fsim-batch-v2", "runs": 1, "regions": ["regular"],
 "campaigns": [{"app": "jacobi"}, {"app": "jacobi"}]}' > twice.json
expect_fail "campaign for app 'jacobi' listed twice with the same spec" \
    batch --spec=twice.json --quiet
# Two campaigns of one app that differ in seed stay legal.
echo '{"format": "fsim-batch-v2", "runs": 1, "regions": ["regular"],
 "campaigns": [{"app": "jacobi"}, {"app": "jacobi", "seed": 9}]}' \
  > seeds.json
"$fsim" batch --spec=seeds.json --quiet > /dev/null
echo "  a spec with two jacobi campaigns at different seeds runs"
# One spelling per input: a spec without "format" (the retired v1 schema),
# a JSON-boolean prune, the old region aliases and the engine alias
# "interpreter" are refused.
echo '{"runs": 4, "campaigns": [{"app": "jacobi"}]}' > v1.json
expect_fail 'missing "format": "fsim-batch-v2"' batch --spec=v1.json --quiet
echo '{"format": "fsim-batch-v2", "prune": true,
 "campaigns": [{"app": "jacobi"}]}' > boolprune.json
expect_fail "expected string" batch --spec=boolprune.json --quiet
echo '{"format": "fsim-batch-v2", "prune": "regs",
 "campaigns": [{"app": "jacobi"}]}' > regsprune.json
expect_fail "unknown prune level 'regs'" batch --spec=regsprune.json --quiet
# Checkpoints written while the regs level existed (tests/data) are
# refused in both encodings.
expect_fail "unknown prune level 'regs'" status "$data/prune_regs.json"
expect_fail "blob names an unknown prune level" \
    status "$data/prune_regs.bin.json"
expect_fail "unknown prune level 'regs'" resume "$data/prune_regs.json" \
    --quiet
# So are checkpoints of a repeated campaign (written while it was accepted).
for ext in json bin.json; do
  expect_fail "campaign for app 'jacobi' listed twice with the same spec" \
      status "$data/repeated_campaign.$ext"
done
expect_fail "campaign for app 'jacobi' listed twice with the same spec" \
    resume "$data/repeated_campaign.json" --quiet
expect_fail "campaign for app 'jacobi' listed twice with the same spec" \
    merge "$data/repeated_campaign.json"
# App params outside what the apps can run: a one-rank world (every app
# needs a neighbour) and, except for jacobi's iteration cap, more steps
# than the apps' 16-bit step immediate holds.
for app in wavetoy minimd atmo jacobi; do
  echo '{"format": "fsim-batch-v2", "runs": 1, "regions": ["regular"],
 "campaigns": [{"app": "'"$app"'", "ranks": 1}]}' > ranks1.json
  expect_fail "app '$app': ranks must be in [2, 64], got 1" \
      batch --spec=ranks1.json --quiet
done
for app in wavetoy minimd atmo; do
  echo '{"format": "fsim-batch-v2", "runs": 1, "regions": ["regular"],
 "campaigns": [{"app": "'"$app"'", "steps": 32768}]}' > steps.json
  expect_fail "app '$app': steps must be at most 32767, got 32768" \
      batch --spec=steps.json --quiet
done
for alias in reg gpr fpu msg; do
  expect_fail "unknown region '$alias'" campaign --app=jacobi --runs=2 \
      --regions="$alias"
done
expect_fail "option --engine expects interp|threaded, got 'interpreter'" \
    campaign --app=jacobi --runs=2 --engine=interpreter

# A bare flag keeps the next word positional: `resume --quiet CKPT` resumes
# and `merge a --json b` folds both files.
"$fsim" batch --spec=spec.json --jobs=1 --quiet --json > mono.json
"$fsim" batch --spec=spec.json --shard=0/2 --jobs=1 --quiet \
    --checkpoint=ck.json --out=s0.json 2>/dev/null
"$fsim" batch --spec=spec.json --shard=1/2 --jobs=1 --quiet \
    --out=s1.json 2>/dev/null
"$fsim" resume --quiet ck.json --out=r0.json 2>/dev/null
"$fsim" merge r0.json --json s1.json > merged.json
cmp -s mono.json merged.json || {
  echo "cli_prune: resume --quiet + merge a --json b differ from the" \
       "monolithic batch" >&2
  exit 1
}
echo "  resume --quiet CKPT and merge A --json B fold back to the batch"

# Merge reads checkpoints, never result exports.
expect_fail "merge, resume and status read checkpoints" merge mono.json s1.json
# Forged done sets with valid digests, in both encodings: a shard-0/2
# checkpoint of this spec claiming run 1 (shard 1/2 owns it) or run 100.
for enc in json bin.json; do
  for cmd in status merge; do
    expect_fail "run 1 belongs to another shard than 0/2" \
        $cmd "$data/forged_foreign_run.$enc"
    expect_fail "run 100 is outside the grid of 4 runs" \
        $cmd "$data/forged_out_of_grid.$enc"
  done
done
expect_fail "run 1 belongs to another shard than 0/2" \
    merge "$data/forged_foreign_run.json" s1.json
# Adaptive cell shards fold only under one stopping policy.
"$fsim" batch --spec=spec.json --ci=0.3 --wave=2 --shard=0/2 --jobs=1 \
    --quiet --out=a0.json 2>/dev/null
"$fsim" batch --spec=spec.json --ci=0.3 --wave=3 --shard=1/2 --jobs=1 \
    --quiet --out=a1.json 2>/dev/null
expect_fail "adaptive policies differ" merge a0.json a1.json

echo "cli_prune: all checks passed"
