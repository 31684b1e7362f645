GO ?= go

.PHONY: verify build test vet race benchsmoke boundedsmoke fmtcheck obscheck benchcheck fuzzsmoke loc

# Tier-1 gate: a missing-module (or any build/test) regression fails here.
verify: fmtcheck vet build test benchcheck benchsmoke boundedsmoke obscheck fuzzsmoke

# bench/ is a nested module, so ./... above never compiles it: vet and
# test it here, so renaming an internal/ symbol it uses fails verify and
# its self-tests (TestSpecMatchesBenchmarkJSON among them) run.
benchcheck:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# Run every bench/ workload once on tiny instances with 1 s windows: a
# workload that stops building, fails to set up or panics fails verify
# (wrong answers print as correct=false with a failed count). Performance
# numbers come from full bench/run.sh runs, not from this smoke.
benchsmoke:
	bash bench/run.sh -smoke

# Bounded-memory smoke: seed an on-disk instance ~4x the 16 MiB
# page-cache budget and serve point lookups plus a spilling federated
# join. The benchmark asserts the resident-page gauge stays at or under
# the cap, the join spills, and GC-settled heap growth across the
# serving phase stays within 1.5x the budget — an OOM or an unbounded
# cache fails verify here. BenchmarkWarmBootAllocs asserts that a warm
# boot's allocations do not scale with the stored term count.
boundedsmoke:
	$(GO) test -run '^$$' -bench '^Benchmark(BoundedMemory|WarmBootAllocs)$$' -benchtime 1x ./

# Fuzz smoke: every Fuzz* target for 10 s on two workers (go test
# -fuzz takes one target per run). A panic, hang or broken property
# fails verify and writes the failing input under the package's
# testdata/fuzz, where plain go test replays it from then on.
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDigestWire$$' -fuzztime 10s -parallel 2 ./internal/digest
	$(GO) test -run '^$$' -fuzz '^FuzzBloomMayContain$$' -fuzztime 10s -parallel 2 ./internal/digest
	$(GO) test -run '^$$' -fuzz '^FuzzAnalyzeSubQuery$$' -fuzztime 10s -parallel 2 ./internal/digest
	$(GO) test -run '^$$' -fuzz '^FuzzParseTextQuery$$' -fuzztime 10s -parallel 2 ./internal/fulltext
	$(GO) test -run '^$$' -fuzz '^FuzzParseBGP$$' -fuzztime 10s -parallel 2 ./internal/rdf
	$(GO) test -run '^$$' -fuzz '^FuzzBatchHandler$$' -fuzztime 10s -parallel 2 ./internal/federation
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRow$$' -fuzztime 10s -parallel 2 ./internal/value
	$(GO) test -run '^$$' -fuzz '^FuzzAppendJSON$$' -fuzztime 10s -parallel 2 ./internal/value
	$(GO) test -run '^$$' -fuzz '^FuzzBatchReply$$' -fuzztime 10s -parallel 2 ./internal/federation
	$(GO) test -run '^$$' -fuzz '^FuzzParseSQL$$' -fuzztime 10s -parallel 2 ./internal/sqlparse

# Observability hygiene: no printf logging outside cmd/, and a booted
# mediator's GET /metrics must scrape as valid Prometheus text.
obscheck:
	sh scripts/obs_vet.sh

# Non-test Go lines per package under internal/ and cmd/, then the
# total: the size figure a simplification quotes. Not part of verify.
loc:
	@total=0; for d in internal/*/ cmd/*/; do \
		n=$$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		printf '%-22s %6d\n' "$${d%/}" $$n; total=$$((total + n)); \
	done; printf '%-22s %6d\n' total $$total

# Fail on any file gofmt would rewrite (prints the offenders).
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...
