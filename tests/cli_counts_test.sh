#!/usr/bin/env bash
# Strict counts beyond fsim: the bench drivers (bench_util.hpp's
# parse_args) and the examples read counts through util::Cli::count and
# refuse unknown options, so a negative, zero or wrapping count and a
# misspelt flag each exit 1 with the parser's message before any work.
#
#   tests/cli_counts_test.sh <tables234_batch> <working_set_trace> \
#                            <campaign_report>
set -euo pipefail

tables="${1:?usage: cli_counts_test.sh <tables234_batch> <working_set_trace> <campaign_report>}"
trace="${2:?missing working_set_trace}"
report="${3:?missing campaign_report}"

# expect_refusal "<message>" <binary> [args...]: exit 1, stderr names it.
expect_refusal() {
  local want="$1"; shift
  local err status=0
  err="$("$@" 2>&1 >/dev/null)" || status=$?
  if [ "$status" -ne 1 ]; then
    echo "cli_counts: '$*' exited $status, expected 1 ($err)" >&2
    exit 1
  fi
  case "$err" in
    *"$want"*) echo "  $(basename "$1") ${*:2} -> $err" ;;
    *) echo "cli_counts: '$*' said '$err', expected '$want'" >&2
       exit 1 ;;
  esac
}

range="expects an integer from 1 to 2147483647"
expect_refusal "option --runs $range, got -5" "$tables" --runs=-5
expect_refusal "option --jobs $range, got 0" "$tables" --jobs=0
expect_refusal "option --runs $range, got 4294967298" "$tables" \
    --runs=4294967298
expect_refusal "option --jobs expects an integer, got 'abc'" "$tables" \
    --jobs=abc
expect_refusal "unknown option --runz" "$tables" --runz=3
expect_refusal "option --points $range, got -1" "$trace" --points=-1
expect_refusal "unknown option --pionts" "$trace" --pionts=4
expect_refusal "option --runs $range, got -2" "$report" --runs=-2
expect_refusal "option --jobs $range, got 0" "$report" --jobs=0
echo "cli_counts: every bad count and unknown option exits 1"
