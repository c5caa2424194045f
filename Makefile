.PHONY: build test check bench bench-diff

build:
	go build ./...

test:
	go test ./...

# gofmt, vet, the race-sensitive packages under the race detector, repeated
# -race runs of targeted tests, benchrunner -quick, two short fuzz runs and
# the bench module's tests (scripts/check.sh).
check:
	sh scripts/check.sh

# The gated statement benchmark (bench/README.md): every workload, writes
# bench/out/BENCH.json.
bench:
	bash bench/run.sh

# Row-by-row comparison of two BENCH.json files: make bench-diff A=old.json B=new.json
bench-diff:
	bash bench/run.sh -compare $(A) $(B)
