#!/usr/bin/env bash
# bench_regression.sh — the bench-regression smoke for check.sh:
# re-run the JSON bench suites and fail if any op regressed more than
# 2x against its committed baseline (BENCH_lp.json / BENCH_sample.json /
# BENCH_store.json / BENCH_compare.json).
#
# The fresh numbers are per-op medians: bench_json.sh runs every
# benchmark 5 times and records the median, so one disturbed run
# cannot fail the gate. The gate compares per-op ns/op with a 2x ratio
# plus an absolute slack floor: nanosecond-scale ops (the dyadic kernel is ~3ns) jitter
# by integer nanoseconds under CI load, so a pure ratio would flake.
# It also compares allocs/op: at most 2x the baseline, and an op whose
# baseline is 0 allocs/op must stay at exactly 0 (allocation counts do
# not jitter, and a zero-alloc hot path gaining one is a regression).
# An op present in a baseline but missing from the fresh run fails
# too — a silently vanished benchmark is a hole in the gate. Each
# baseline's "commit" stamp (written by bench_json.sh) is printed, so a
# stale baseline is visible, and a baseline without one fails.
#
# Environment: BENCHTIME (default 0.2s — enough iterations that the
# fresh numbers are stable, cheap enough for every CI run),
# SLACK_NS (absolute regression allowance, default 2000).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-0.2s}"
SLACK_NS="${SLACK_NS:-2000}"

tmpdir="$(mktemp -d)"
trap 'rm -rf "${tmpdir}"' EXIT

BENCHTIME="${BENCHTIME}" OUT_LP="${tmpdir}/lp.json" OUT_SAMPLE="${tmpdir}/sample.json" \
    OUT_STORE="${tmpdir}/store.json" OUT_COMPARE="${tmpdir}/compare.json" \
    ./scripts/bench_json.sh >/dev/null

# compare <baseline> <fresh>: extract "op ns allocs" triples from both
# JSON files (the shape is one benchmark object per line, written by
# bench_json.sh) and apply the thresholds.
compare() {
    local baseline="$1" fresh="$2" commit
    commit="$(sed -n 's/^  "commit": "\(.*\)",$/\1/p' "${baseline}")"
    if [ -z "${commit}" ]; then
        echo "NO COMMIT stamp in ${baseline} (re-record it with scripts/bench_json.sh)"
        return 1
    fi
    echo "${baseline}: recorded at commit ${commit}"
    awk -v slack="${SLACK_NS}" -v base_name="${baseline}" '
function extract(line) {
    # line: {"op": "BenchmarkX-8", "ns_per_op": 123.4, ...}
    match(line, /"op": "[^"]*"/)
    op = substr(line, RSTART + 7, RLENGTH - 8)
    match(line, /"ns_per_op": [0-9.e+]*/)
    ns = substr(line, RSTART + 13, RLENGTH - 13) + 0
    # allocs is "" when the record carries "allocs_per_op": null.
    allocs = ""
    if (match(line, /"allocs_per_op": [0-9]+/))
        allocs = substr(line, RSTART + 17, RLENGTH - 17) + 0
}
FNR == NR && /"op":/ { extract($0); old[op] = ns; oldA[op] = allocs; next }
FNR != NR && /"op":/ { extract($0); new[op] = ns; newA[op] = allocs }
END {
    bad = 0
    for (op in old) {
        if (!(op in new)) {
            printf "MISSING %s (in %s, absent from fresh run)\n", op, base_name
            bad = 1
            continue
        }
        limit = old[op] * 2 + slack
        if (new[op] > limit) {
            printf "REGRESSION %s: %.1f ns/op > limit %.1f (baseline %.1f)\n", \
                op, new[op], limit, old[op]
            bad = 1
        }
        if (oldA[op] == "" || newA[op] == "")
            continue
        if (newA[op] > oldA[op] * 2) {
            printf "REGRESSION %s: %d allocs/op > limit %d (baseline %d)\n", \
                op, newA[op], oldA[op] * 2, oldA[op]
            bad = 1
        }
    }
    exit bad
}
' "${baseline}" "${fresh}"
}

status=0
compare BENCH_lp.json "${tmpdir}/lp.json" || status=1
compare BENCH_sample.json "${tmpdir}/sample.json" || status=1
compare BENCH_store.json "${tmpdir}/store.json" || status=1
compare BENCH_compare.json "${tmpdir}/compare.json" || status=1
if [ "${status}" -ne 0 ]; then
    echo "bench regression gate FAILED (baselines: BENCH_lp.json, BENCH_sample.json, BENCH_store.json, BENCH_compare.json)" >&2
    exit 1
fi
echo "bench regression gate passed (threshold: 2x + ${SLACK_NS}ns and 2x allocs per op, 0 stays 0)"
