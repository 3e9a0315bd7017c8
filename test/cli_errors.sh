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
printf '.i 2\n.o 1\nx1 1\n' > cube.pla
printf '.i 2\n.o 1\n.ilb a a\n11 1\n' > dup_input.pla
printf '.i two\n.o 1\n' > count.pla
printf 'aag 3 x 0 1 1\n2\n4\n6\n6 2 4\n' > header.aag
printf 'aag 3 2 0 1 1\n2\n4\n6\n6 2 z\n' > and.aag
printf 'aag 3 2 0 1 1\n2\n40\n6\n6 2 4\n' > range.aag
printf '.i 4611686018427387903\n.o 1\n' > huge.pla
printf 'aig 4611686018427387903 4611686018427387903 0 0 0\n' > huge.aig

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
case_ map c17.bench --arch 8x0
case_ map c17.bench --arch 8xx
case_ map c17.bench --arch=-2x8
case_ map c17.bench --arch bogus
case_ flow c17.bench -s pushup
case_ flow c17.bench -s push_up --arch 1x1
case_ flow c17.bench -s 'cycle(99999999999999999999){eliminate}'
case_ map c17.bench -s bogus
case_ crossbar no_such_bench
case_ montecarlo c17.bench --trials 0
case_ montecarlo c17.bench --sigma=-1
case_ montecarlo c17.bench --vectors 0
case_ faults c17.bench --rate 1.5
case_ faults c17.bench --trials 0
case_ faults c17.bench --rate=-0.1
case_ bench no_such_bench
case_ gen --gates 10 -o x.txt
case_ report --baseline bogus.json --current bogus.json
case_ report --baseline bogus.json --current bogus.json --threshold=-1
# malformed netlists are parse errors at their line, never an exception
case_ flow dup_input.bench -s push_up
case_ flow not2.bench -s push_up
case_ flow and0.bench -s push_up
case_ flow maj2.bench -s push_up
case_ flow dup_input.blif -s push_up
case_ flow cube.blif -s push_up
case_ stats cube.pla
case_ stats dup_input.pla
case_ stats count.pla
case_ stats header.aag
case_ stats and.aag
case_ stats range.aag
case_ stats huge.pla
case_ stats huge.aig
# a usage error stays cmdliner's: exit 124, before any run starts
case_ stats c17.bench --bogus
case_ flow c17.bench -a rram-imp
