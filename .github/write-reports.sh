#!/usr/bin/env bash
# Writes the 17 JSON reports into OUT, timestamps removed: the suite, each
# inequality chain and each harmonic representation pair.
#
# usage: write-reports.sh OUT CMD...
#   CMD runs meanlab, e.g. `meanlab` or `python -m meanlab`.  `python` lists
#   the chains and pairs, so it must import the same meanlab (PYTHONPATH).
set -euo pipefail
out=$1
shift
mkdir -p "$out"
"$@" suite --all --format json --out "$out/suite.json"
for chain in $(python -c "import meanlab; print(*meanlab.CHAIN_NAMES)"); do
  "$@" ineq run --chain "$chain" --format json --out "$out/ineq-$chain.json"
done
python -c "import meanlab; [print(e.represented, e.representer) for e in meanlab.PAIR_CATALOG]" |
  while read -r mean repr; do
    "$@" harmonic verify --mean "$mean" --repr "$repr" --format json \
      --out "$out/verify-$mean-$repr.json"
  done
sed -i -E 's/"timestamp": "[^"]*"/"timestamp": ""/' "$out"/*.json
