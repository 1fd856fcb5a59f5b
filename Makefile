# Development entry points for minimaxdp. `make check` is the same
# gate CI runs (.github/workflows/ci.yml -> scripts/check.sh).

.PHONY: check build test race vet dpvet dpvet-json dpvet-sarif fuzz-smoke bench bench-json bench-regression

## check: full CI gate (fmt, build, vet, dpvet, race tests, fuzz smoke)
check:
	./scripts/check.sh

## build: compile every package
build:
	go build ./...

## test: run the test suite
test:
	go test ./...

## race: run the test suite under the race detector
race:
	go test -race ./...

## vet: run go vet plus the project's dpvet analyzers
vet:
	go vet ./...
	go run ./cmd/dpvet ./...

## dpvet: run only the project analyzers
dpvet:
	go run ./cmd/dpvet ./...

## dpvet-json: project analyzers with machine-readable output (dpvet/1 schema)
dpvet-json:
	go run ./cmd/dpvet -json ./...

## dpvet-sarif: project analyzers as SARIF 2.1.0 (what CI uploads to code scanning)
dpvet-sarif:
	go run ./cmd/dpvet -sarif ./...

## bench: engine throughput benchmarks, one iteration (a quick smoke);
## use `go test -bench=Engine -benchmem ./internal/engine` for real numbers
bench:
	go test -run='^$$' -bench=Engine -benchtime=1x ./internal/engine

## bench-json: run the benchmark suites and write the committed
## baselines BENCH_lp.json + BENCH_sample.json + BENCH_store.json +
## BENCH_compare.json (op, ns/op, allocs/op per benchmark).
## BENCHTIME=1x default; use `BENCHTIME=2s make bench-json` when
## refreshing the committed baselines.
bench-json:
	./scripts/bench_json.sh

## bench-regression: re-run the JSON suites and fail on >2x per-op
## regressions vs the committed baselines (the CI gate)
bench-regression:
	./scripts/bench_regression.sh

## fuzz-smoke: short run of every fuzz target (FUZZTIME=10s default)
fuzz-smoke:
	go test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=$${FUZZTIME:-10s} ./internal/rational
	go test -run='^$$' -fuzz='^FuzzPow$$' -fuzztime=$${FUZZTIME:-10s} ./internal/rational
	go test -run='^$$' -fuzz='^FuzzUnmarshalJSON$$' -fuzztime=$${FUZZTIME:-10s} ./internal/mechanism
	go test -run='^$$' -fuzz='^FuzzParseLevels$$' -fuzztime=$${FUZZTIME:-10s} ./cmd/dpserver
	go test -run='^$$' -fuzz='^FuzzWarmStartMatchesExact$$' -fuzztime=$${FUZZTIME:-10s} ./internal/lp
	go test -run='^$$' -fuzz='^FuzzSparseMatchesDense$$' -fuzztime=$${FUZZTIME:-10s} ./internal/lp
	go test -run='^$$' -fuzz='^FuzzDyadicAlias$$' -fuzztime=$${FUZZTIME:-10s} ./internal/sample
