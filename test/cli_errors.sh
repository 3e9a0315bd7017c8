#!/bin/bash
# Usage: cli_errors.sh MIGSYN C17_BENCH
#
# Runs migsyn on expected-failure inputs, each with --ledger, and prints a
# transcript: the command, its stderr, its exit code and the number of
# migsyn-run/1 records the run appended to its ledger.
set -u
migsyn=$(realpath "$1")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cp "$2" "$work/c17.bench"
cd "$work" || exit 1
unset MIGSYN_LEDGER
echo '{"foo": 1}' > bogus.json
printf 'INPUT(a)\nINPUT(a)\nOUTPUT(a)\n' > dup_input.bench
printf 'INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n' > not2.bench
printf 'INPUT(a)\nOUTPUT(y)\ny = AND()\n' > and0.bench
printf 'INPUT(a)\nOUTPUT(y)\ny = MAJ(a, a)\n' > maj2.bench
printf '.model m\n.inputs a a\n.outputs a\n.end\n' > dup_input.blif
printf '.model m\n.inputs a b\n.outputs y\n.names a b y\n1x 1\n.end\n' > cube.blif

case_() {
  rm -f ledger.jsonl
  echo "\$ migsyn $*"
  "$migsyn" "$@" --ledger ledger.jsonl > /dev/null 2> stderr.txt
  local code=$?
  cat stderr.txt
  local records
  records=$(grep -c '"schema":"migsyn-run/1"' ledger.jsonl 2> /dev/null)
  echo "exit $code, ${records:-0} ledger record(s)"
}

case_ map c17.bench --arch 2x2
case_ map c17.bench --arch 0x8
case_ map c17.bench --arch 8x4611686018427387903
case_ flow c17.bench -s pushup
case_ flow c17.bench -s push_up --arch 1x1
case_ flow c17.bench -s 'cycle(99999999999999999999){eliminate}'
case_ profile c17.bench --flow bogus
case_ profile c17.bench --arch 2x2
case_ crossbar no_such_bench
case_ montecarlo c17.bench --trials 0
case_ faults c17.bench --rate 1.5
case_ bench no_such_bench
case_ gen --gates 10 -o x.txt
case_ report --baseline bogus.json --current bogus.json
# malformed netlists are parse errors at their line, never an exception
case_ flow dup_input.bench -s push_up
case_ flow not2.bench -s push_up
case_ flow and0.bench -s push_up
case_ flow maj2.bench -s push_up
case_ flow dup_input.blif -s push_up
case_ flow cube.blif -s push_up
# a usage error stays cmdliner's: exit 124, before any run starts
case_ stats c17.bench --bogus
