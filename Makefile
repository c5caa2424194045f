.PHONY: build test check bench bench-diff

build:
	go build ./...

test:
	go test ./...

# Vet + race-detector tests for the concurrency-sensitive packages
# (sharded buffer pool, access-method framework, batched scan pipeline).
check:
	sh scripts/check.sh

# The gated statement benchmark (bench/README.md): every workload, writes
# bench/out/BENCH.json.
bench:
	bash bench/run.sh

# Row-by-row comparison of two BENCH.json files: make bench-diff A=old.json B=new.json
bench-diff:
	bash bench/run.sh -compare $(A) $(B)
