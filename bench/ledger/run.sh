#!/usr/bin/env bash
# Build the ledger and the sttc binary from source, then run one workload:
#   bash bench/ledger/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to stderr, so the last
# line of standard output is the ledger's result line.  In a git checkout
# the result's provenance names the commit, with "-dirty" when the tree
# differs from it; elsewhere it says "unknown" unless STTC_COMMIT is set.
set -euo pipefail
if [ -z "${STTC_COMMIT:-}" ] \
  && [ "$(git rev-parse --show-toplevel 2>/dev/null)" = "$(pwd -P)" ] \
  && commit=$(git rev-parse HEAD 2>/dev/null); then
  git diff --quiet HEAD -- 2>/dev/null || commit="$commit-dirty"
  export STTC_COMMIT="$commit"
fi
dune build --root . ./bench/ledger/ledger.exe ./bin/sttc.exe 1>&2
exec ./_build/default/bench/ledger/ledger.exe run \
  --sttc ./_build/default/bin/sttc.exe "$@"
