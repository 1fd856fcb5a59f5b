#!/usr/bin/env bash
# fuzz_smoke.sh — run every fuzz target for a short while: the one
# fuzz-target list, shared by `make fuzz-smoke` and scripts/check.sh.
#
# Environment: FUZZTIME (seconds each target runs, default 10s), e.g.
#   FUZZTIME=60s ./scripts/fuzz_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

# Each line: <fuzz target> <package>.
targets="
FuzzParse ./internal/rational
FuzzPow ./internal/rational
FuzzHvalMatchesBigRat ./internal/rational
FuzzUnmarshalJSON ./internal/mechanism
FuzzParseLevels ./cmd/dpserver
FuzzTenantSpec ./cmd/dpserver
FuzzConsumerSpec ./cmd/dpserver
FuzzCompareBody ./cmd/dpserver
FuzzBaselineParseSpec ./internal/baseline
FuzzLossParseSpec ./internal/loss
FuzzWarmStartMatchesExact ./internal/lp
FuzzSparseMatchesDense ./internal/lp
FuzzDyadicAlias ./internal/sample
FuzzStoreDecode ./internal/store
"

while read -r target pkg; do
    [ -n "${target}" ] || continue
    go test -run='^$' -fuzz="^${target}\$" -fuzztime="${FUZZTIME}" "${pkg}" </dev/null
done <<<"${targets}"
