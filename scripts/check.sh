#!/usr/bin/env bash
# check.sh — the full CI gate for minimaxdp, runnable locally as
# `make check` or `./scripts/check.sh`.
#
# Order is cheapest-first so broken trees fail fast: format, build,
# the compiler-adjacent vets (go vet + the project's own dpvet
# invariants), then the race-enabled test suite, then a short fuzz
# smoke over the parsing/encoding fuzz targets.
set -euo pipefail
cd "$(dirname "$0")/.."

# Seconds each fuzz target runs; override for longer local soaks:
#   FUZZTIME=60s ./scripts/check.sh
FUZZTIME="${FUZZTIME:-10s}"

echo "==> gofmt"
unformatted="$(gofmt -l .)"
if [ -n "${unformatted}" ]; then
    echo "gofmt required for:" >&2
    echo "${unformatted}" >&2
    exit 1
fi

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...
# perfbench is its own module, so ./... above skips it, yet it reads
# engine.Metrics().LP field by field: vet it so a wire change that
# breaks the benchmark fails here.
(cd perfbench && go vet ./...)

echo "==> dpvet (exactness: fenced and policed packages; overflow kernels, hotpath escape gate, randomness, error handling)"
# floatflow holds the one table of exact packages: fenced ones (the
# derivation, consumer, matrix, mechanism, engine and compare
# workbench packages) may not cross into floats at all, policed ones
# (lp with its float simplex, store, tenant) may steer by floats but
# never build exact data from them. The suite also includes hotpath,
# which cross-checks //dpvet:hotpath annotations against `go build
# -gcflags=-m`: a heap allocation sneaking into an annotated
# sampler/pivot/handler body fails right here. In CI the same findings are also written as SARIF so GitHub
# code scanning annotates the offending lines.
if [ -n "${CI:-}" ]; then
    go run ./cmd/dpvet -sarif ./... >dpvet.sarif
else
    go run ./cmd/dpvet ./...
fi

echo "==> go test -race ./..."
go test -race ./...

echo "==> experiments output (fresh default run vs committed experiments_output.txt)"
# The report prints float summaries of seeded Monte-Carlo runs, so it
# is pinned on amd64 only: other architectures may fuse multiply-adds
# (the same reason TestFloatLocatePinned skips them).
if [ "$(go env GOARCH)" = "amd64" ]; then
    if ! go run ./cmd/experiments | diff -u experiments_output.txt -; then
        echo "experiments_output.txt is stale: regenerate it with" >&2
        echo "  go run ./cmd/experiments -o experiments_output.txt" >&2
        exit 1
    fi
else
    echo "skipped on $(go env GOARCH): the committed report is recorded on amd64"
fi

echo "==> bench regression gate (fresh run vs committed BENCH_lp.json / BENCH_sample.json)"
./scripts/bench_regression.sh

echo "==> fuzz smoke (${FUZZTIME} per target)"
FUZZTIME="${FUZZTIME}" ./scripts/fuzz_smoke.sh

echo "==> dpserver end-to-end smoke (store-backed run, tenant release, warm-boot restart, solve lifetime)"
smokedir="$(mktemp -d)"
trap 'rm -rf "${smokedir}"' EXIT
go build -o "${smokedir}/dpserver" ./cmd/dpserver
cat >"${smokedir}/tenants.json" <<'EOF'
{"tenants": [{"id": "smoke", "n": 8, "truth": 3, "levels": ["1/3", "1/2"], "seed": 7}]}
EOF

# start_server <log> [flag...]: launch against the shared store dir +
# tenant config (later flags override) and echo the real address once
# the listener is up.
start_server() {
    local log="$1"
    shift
    "${smokedir}/dpserver" -addr 127.0.0.1:0 -n 60 -max-tailored-n 16 \
        -store-dir "${smokedir}/store" -tenants-config "${smokedir}/tenants.json" "$@" \
        >"${log}" 2>&1 &
    srv_pid=$!
    base=""
    for _ in $(seq 1 50); do
        base="$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "${log}" | head -1)"
        [ -n "${base}" ] && break
        sleep 0.1
    done
    if [ -z "${base}" ]; then
        echo "dpserver smoke: server never reported its address" >&2
        cat "${log}" >&2
        kill "${srv_pid}" 2>/dev/null || true
        exit 1
    fi
}

# stop_server <log>: SIGTERM and require a clean graceful stop.
stop_server() {
    local log="$1"
    kill -TERM "${srv_pid}"
    if ! wait "${srv_pid}"; then
        echo "dpserver smoke: server exited non-zero after SIGTERM" >&2
        cat "${log}" >&2
        exit 1
    fi
    grep -q "dpserver: stopped" "${log}"
}

# Run 1 (cold): exercise the LP-backed surface and a tenant cascaded
# release so the artifact store is populated.
start_server "${smokedir}/dpserver.log"
curl -fsS "http://${base}/healthz" | grep -q ok
curl -fsS "http://${base}/readyz" | grep -q ok
curl -fsS "http://${base}/v1/tailored?loss=absolute&n=6&level=1" | grep -q minimax_loss
# The tailored solve above must have gone through the float-guided
# warm-start path: the engine metrics report at least one hit.
curl -fsS "http://${base}/v1/metrics" | grep -q '"warm_start_hits":[1-9]'
# Large-n cold solve: n=16 is served as the consumer's optimal
# interaction with G_{16,α} (Theorem 1), one exact LP of 34 rows
# against the tailored LP's 578: 16–19 ms end to end over three cold
# servers on a 2-vCPU amd64 container.
curl -fsS "http://${base}/v1/tailored?loss=absolute&n=16&level=1" | grep -q minimax_loss
# The revised path must report its hybrid tier counters: the n=16
# solve runs enough exact ops that the int64 fast tier is non-empty,
# and the Wide/big counters must at least be surfaced.
curl -fsS "http://${base}/v1/metrics" | grep -q '"small_ops":[1-9]'
curl -fsS "http://${base}/v1/metrics" | grep -q '"wide_ops":[0-9]'
curl -fsS "http://${base}/v1/metrics" | grep -q '"big_fallbacks":[0-9]'
# The float locate's wall time is on the wire: the solves above ran it.
curl -fsS "http://${base}/v1/metrics" | grep -q '"float_ns":[1-9]'
# Above the cap the request must be rejected, not queued.
curl -sS "http://${base}/v1/tailored?loss=absolute&n=17&level=1" | grep -q "exceeds the LP cap"
# An explicit alpha outside (0,1) is rejected before any solve (at
# alpha=1 the §2.5 LP would run instead of Theorem 1's interaction).
curl -sS "http://${base}/v1/tailored?loss=absolute&n=16&alpha=1" | grep -q '"invalid_argument"'
curl -fsS "http://${base}/v1/tenants" | grep -q '"smoke"'
curl -fsS "http://${base}/v1/tenants/smoke/release?level=2" | grep -q '"result"'
curl -fsS "http://${base}/v1/tenants/smoke/accounting" | grep -q '"spent_alpha":"1/3"'
# The survey and the tenants share one release, epoch and sample
# handler each: exercise both principals and check the body shapes.
curl -fsS "http://${base}/v1/result?level=2" \
    | grep -Eq '^\{"alpha":"2/3","epoch":1,"level":2,"result":[0-9]+\}$'
curl -fsS -X POST "http://${base}/v1/epoch" | grep -Eq '^\{"epoch":2\}$'
curl -fsS "http://${base}/v1/result" | grep -q '"epoch":2,"level":1,'
curl -fsS "http://${base}/v1/sample?count=4" \
    | grep -Eq '^\{"level":1,"alpha":"1/2","input":0,"count":4,"draws":\[[0-9]+(,[0-9]+){3}\]\}$'
curl -fsS "http://${base}/v1/tenants/smoke/sample?level=2&input=3&count=4" \
    | grep -Eq '^\{"tenant":"smoke","level":2,"alpha":"1/2","input":3,"count":4,"draws":\[[0-9]+(,[0-9]+){3}\]\}$'
# The survey reads its release plan from the engine's plans cache, as
# a tenant does: the survey calls above count as plans hits.
curl -fsS "http://${base}/v1/metrics" \
    | sed -n 's/.*"plans":\(.*\)"tailored":.*/\1/p' | grep -q '"hits":[1-9]'
curl -fsS -X POST "http://${base}/v1/tenants/smoke/epoch" \
    | grep -Eq '^\{"accounting":\{"epochs":2,"next_draw_allowed":true,"spent_alpha":"1/9"\},"epoch":2,"tenant":"smoke"\}$'
# Every tailored miss above is solved in the tailored class itself:
# until the first compare, the interactions class (the compare
# baselines' interactions) has seen no request.
curl -fsS "http://${base}/v1/metrics" | grep -q '"interactions":{"requests":0,'
# Compare workbench: the minimax geometric gap must be EXACTLY the
# string "0" (Theorem 1 part 2 — an exact equality, not a tolerance),
# and the identical second POST must be served from the compares
# cache, visible as a hit in the engine metrics.
compare_spec='{"n": 6, "alpha": "1/2", "consumer": {"loss": "absolute", "side": "1-4"}, "baselines": ["geometric", "staircase"]}'
curl -fsS -X POST -d "${compare_spec}" "http://${base}/v1/compare" \
    | grep -q '"baseline":"geometric","loss":"[0-9/]*","interaction_loss":"[0-9/]*","gap":"0"'
curl -fsS -X POST -d "${compare_spec}" "http://${base}/v1/compare" >/dev/null
curl -fsS "http://${base}/v1/metrics" \
    | sed -n 's/.*"compares":\(.*\)"sampler_draws".*/\1/p' | grep -q '"hits":[1-9]'
# The interval-side consumer's LPs have tied optima: they must be
# lex-refined on the revised simplex (counted as tied_optima). No
# solve may reach the cold two-phase fallback, which runs when the
# float locate fails or its basis is singular or infeasible.
curl -fsS "http://${base}/v1/metrics" | grep -q '"tied_optima":[1-9]'
curl -fsS "http://${base}/v1/metrics" | grep -q '"fallbacks":0'
stop_server "${smokedir}/dpserver.log"

# Run 2 (warm boot): same store dir and tenant config. The whole
# surface — tailored solve included — must come off disk: the engine
# metrics report zero LP solves.
start_server "${smokedir}/dpserver2.log"
curl -fsS "http://${base}/v1/tailored?loss=absolute&n=6&level=1" | grep -q minimax_loss
curl -fsS "http://${base}/v1/tenants/smoke/release?level=1" | grep -q '"result"'
if ! curl -fsS "http://${base}/v1/metrics" | grep -q '"solves":0'; then
    echo "dpserver smoke: warm boot performed LP solves (store not used)" >&2
    curl -fsS "http://${base}/v1/metrics" >&2 || true
    exit 1
fi
stop_server "${smokedir}/dpserver2.log"

# Run 3 (solve lifetime): a fresh store and a -solve-timeout shorter
# than the n=16 solve (16–19 ms, above). The first request may answer 504,
# but its solve runs on and is cached, so a retry within a few
# seconds gets 200 and the metrics show exactly one LP solve.
start_server "${smokedir}/dpserver3.log" -store-dir "${smokedir}/store3" -solve-timeout 5ms
lifetime_url="http://${base}/v1/tailored?loss=absolute&n=16&level=1"
code="$(curl -sS -o /dev/null -w '%{http_code}' "${lifetime_url}")"
case "${code}" in
200 | 504) ;;
*)
    echo "dpserver smoke: first timed-out request answered ${code}, want 504 or 200" >&2
    exit 1
    ;;
esac
for _ in $(seq 1 50); do
    [ "${code}" = 200 ] && break
    sleep 0.1
    code="$(curl -sS -o /dev/null -w '%{http_code}' "${lifetime_url}")"
done
if [ "${code}" != 200 ]; then
    echo "dpserver smoke: the retry of a timed-out solve never got 200 (last ${code})" >&2
    exit 1
fi
if ! curl -fsS "http://${base}/v1/metrics" | grep -q '"solves":1,'; then
    echo "dpserver smoke: the timed-out solve was not kept (want one LP solve)" >&2
    curl -fsS "http://${base}/v1/metrics" >&2 || true
    exit 1
fi
stop_server "${smokedir}/dpserver3.log"

echo "==> all checks passed"
