#!/usr/bin/env bash
# bench_json.sh — run the benchmark suites and distill the results
# into the committed JSON baselines: one record per benchmark op with
# its median ns/op and allocs/op over COUNT=5 runs, under a "commit"
# stamp naming the code that
# was measured (git HEAD, suffixed -dirty when tracked files other than
# the baselines differ from HEAD — a baseline recorded alongside an
# uncommitted change names that change's parent). Each package's
# benchmarks run in their own `go test -count` process, the sampling
# suite first: run right after the multi-second LP benchmarks on a
# 2-vCPU amd64 container, the batch-draw op read 11.2-11.4 us against
# 6.9-9.0 us alone, and one run of an op could stray past a 2x limit
# that its median keeps.
#
#   BENCH_lp.json      LP-solver benchmarks (root package: paper-scale
#                      simplex, warm-start vs exact; internal/lp: the
#                      float basis locate) plus the engine's cache-path
#                      benchmarks.
#   BENCH_sample.json  the sampling hot path: dyadic alias kernel
#                      (internal/sample), sharded single/batch/parallel
#                      draws (internal/engine), the /v1/sample
#                      HTTP handler (cmd/dpserver), and the release-plan
#                      build whose marginals every draw samples
#                      (internal/release).
#   BENCH_store.json   the artifact-store warm-boot path: cold LP solve
#                      vs loading the persisted tailored solution from
#                      the content-addressed disk store
#                      (internal/engine BenchmarkStoreWarmBoot).
#   BENCH_compare.json the compare workbench: the warm POST /v1/compare
#                      scorecard read off the compares cache
#                      (internal/engine BenchmarkEngineCompare).
#
# CI re-runs the suites through scripts/bench_regression.sh and fails
# on >2x regressions against the committed files. For refreshing the
# baselines, run longer than the smoke default:
#
#   BENCHTIME=2s ./scripts/bench_json.sh
#
# Environment: BENCHTIME (go test -benchtime, default 1x),
# OUT_LP / OUT_SAMPLE / OUT_STORE / OUT_COMPARE (output paths, default
# the committed names).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1x}"
COUNT=5
OUT_LP="${OUT_LP:-BENCH_lp.json}"
OUT_SAMPLE="${OUT_SAMPLE:-BENCH_sample.json}"
OUT_STORE="${OUT_STORE:-BENCH_store.json}"
OUT_COMPARE="${OUT_COMPARE:-BENCH_compare.json}"
raw="$(mktemp)"
trap 'rm -f "${raw}"' EXIT

commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
if ! git diff --quiet HEAD -- . ':(exclude)BENCH_*.json'; then
    commit="${commit}-dirty"
fi

# distill <raw-file> <out-file>: go test -bench output -> JSON, one
# record per op holding the median of its runs. -benchmem is required
# upstream: allocs/op is half the point of the allocation-lean kernel
# work.
distill() {
    awk -v benchtime="${BENCHTIME}" -v commit="${commit}" '
BEGIN { CONVFMT = "%.12g" } # print medians like go test does, not as %.6g
# median(v, k): sorts v[1..k] in place and returns its median.
function median(v, k,    i, j, x) {
    for (i = 2; i <= k; i++) {
        x = v[i]
        for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
        v[j + 1] = x
    }
    return k % 2 ? v[(k + 1) / 2] : (v[k / 2] + v[k / 2 + 1]) / 2
}
/^Benchmark/ {
    # Drop the -GOMAXPROCS suffix go test appends, so baselines recorded
    # on one CPU count still name the same ops on another.
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (!(name in runs)) order[++ops] = name
    k = ++runs[name]
    ns[name, k] = $3
    for (i = 4; i <= NF; i++) {
        if ($i == "allocs/op") allocs[name, k] = $(i - 1)
    }
}
END {
    printf "{\n  \"commit\": \"%s\",\n  \"benchtime\": \"%s\",\n  \"benchmarks\": [\n", commit, benchtime
    for (o = 1; o <= ops; o++) {
        name = order[o]
        k = runs[name]
        split("", v)
        for (i = 1; i <= k; i++) v[i] = ns[name, i] + 0
        med = median(v, k)
        ma = "null"
        if ((name, 1) in allocs) {
            split("", v)
            for (i = 1; i <= k; i++) v[i] = allocs[name, i] + 0
            ma = median(v, k)
        }
        if (o > 1) printf ",\n"
        printf "    {\"op\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s}", name, med, ma
    }
    printf "\n  ]\n}\n"
}
' "$1" >"$2"
    echo "wrote $2"
}

# --- sampling suite -------------------------------------------------------
: >"${raw}"
go test -run='^$' -bench='DyadicAlias' -benchmem -benchtime="${BENCHTIME}" -count="${COUNT}" \
    ./internal/sample | tee -a "${raw}"
go test -run='^$' -bench='EngineSampler' -benchmem -benchtime="${BENCHTIME}" -count="${COUNT}" \
    ./internal/engine | tee -a "${raw}"
go test -run='^$' -bench='HandleSample' -benchmem -benchtime="${BENCHTIME}" -count="${COUNT}" \
    ./cmd/dpserver | tee -a "${raw}"
go test -run='^$' -bench='ReleasePlan' -benchmem -benchtime="${BENCHTIME}" -count="${COUNT}" \
    ./internal/release | tee -a "${raw}"
distill "${raw}" "${OUT_SAMPLE}"

# --- LP suite -------------------------------------------------------------
: >"${raw}"
go test -run='^$' \
    -bench='Table1OptimalLP|Simplex|StrongDualityCertificate|InteractionLPvsFactor' \
    -benchmem -benchtime="${BENCHTIME}" -count="${COUNT}" . | tee -a "${raw}"
go test -run='^$' -bench='SimplexFloatLocate' \
    -benchmem -benchtime="${BENCHTIME}" -count="${COUNT}" ./internal/lp | tee -a "${raw}"
go test -run='^$' -bench='EngineTailored|EngineGeometric' \
    -benchmem -benchtime="${BENCHTIME}" -count="${COUNT}" ./internal/engine | tee -a "${raw}"
distill "${raw}" "${OUT_LP}"

# --- artifact-store suite -------------------------------------------------
: >"${raw}"
go test -run='^$' -bench='StoreWarmBoot' -benchmem -benchtime="${BENCHTIME}" -count="${COUNT}" \
    ./internal/engine | tee -a "${raw}"
distill "${raw}" "${OUT_STORE}"

# --- compare workbench suite ----------------------------------------------
: >"${raw}"
go test -run='^$' -bench='EngineCompare' -benchmem -benchtime="${BENCHTIME}" -count="${COUNT}" \
    ./internal/engine | tee -a "${raw}"
distill "${raw}" "${OUT_COMPARE}"
