GO ?= go

.PHONY: build test race vet bench bench-all fuzz check profile-cpu profile-heap

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Hot-path microbenchmarks: per-reading filter cost and parallel ingest.
# The end-to-end and per-layer numbers come from `bash bench/run.sh`
# (bench/README.md); these are for measuring while you work.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkFilterStep|BenchmarkServerIngestParallel|BenchmarkDKFStepLinear2D' -benchmem ./

# Short fuzz pass over the wire frame decoders, WAL replay, checkpoint
# reader, the placement ring and the Kalman kernel against its mat-API
# reference (the corpora are regenerated, not committed).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzFilterMatchesReference -fuzztime 30s ./internal/kalman/
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime 30s ./internal/dsms/wire/
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 30s ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzReadCheckpoint -fuzztime 15s ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzRingPlacement -fuzztime 15s ./internal/dsms/cluster/

# Full benchmark sweep regenerating every figure/table artefact.
bench-all:
	$(GO) test -run '^$$' -bench . -benchmem ./...

check: build vet test race

# Profile a live server under generated load via the admin endpoint's
# /debug/pprof (see DESIGN.md §9). Writes /tmp/dkf-{cpu,heap}.pprof.
profile-cpu:
	GO=$(GO) sh scripts/profile.sh cpu

profile-heap:
	GO=$(GO) sh scripts/profile.sh heap
