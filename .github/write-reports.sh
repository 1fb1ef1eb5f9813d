#!/usr/bin/env bash
# Writes the 17 JSON reports into OUT, timestamps removed: the suite, each
# inequality chain and each harmonic representation pair.
#
# usage: write-reports.sh OUT CMD...
#   CMD runs meanlab, e.g. `meanlab` or `python -m meanlab`.  `python` lists
#   the chains and pairs, so it must import the same meanlab (PYTHONPATH).
#
# A report verb that exits non-zero (a failing check) does not stop the
# script: every report is still written, each such exit code is printed to
# stderr, and the script exits 1 at the end.
set -euo pipefail
out=$1
shift
mkdir -p "$out"
status=0

report() {  # report NAME ARGS...: one verb, its JSON report written to OUT/NAME.json
  local name=$1
  shift
  "${cmd[@]}" "$@" --format json --out "$out/$name.json" || {
    echo "write-reports.sh: '$*' exited $?" >&2
    status=1
  }
}

cmd=("$@")
chains=$(python -c "import meanlab; print(*meanlab.CHAIN_NAMES)")
pairs=$(python -c "import meanlab; [print(e.represented, e.representer) for e in meanlab.PAIR_CATALOG]")
report suite suite --all
for chain in $chains; do
  report "ineq-$chain" ineq run --chain "$chain"
done
while read -r mean repr; do
  report "verify-$mean-$repr" harmonic verify --mean "$mean" --repr "$repr"
done <<< "$pairs"
sed -i -E 's/"timestamp": "[^"]*"/"timestamp": ""/' "$out"/*.json
exit $status
