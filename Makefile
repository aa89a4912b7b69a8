GO ?= go

.PHONY: build test race vet bench bench-net bench-ingest bench-wal bench-trace bench-selfmon bench-cluster fuzz check baseline profile-cpu profile-heap

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Hot-path microbenchmarks: per-reading filter cost and parallel ingest.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkFilterStep|BenchmarkServerIngestParallel|BenchmarkDKFStepLinear2D' -benchmem ./

# Loopback TCP ingest over the binary framed wire protocol (see
# BENCH_TCP.json for recorded before/after numbers).
bench-net:
	$(GO) test -run '^$$' -bench 'BenchmarkTCPIngest' -benchmem -count 3 ./internal/dsms/

# Shard-engine datagram ingest: the rx->apply hot path, the aggregate
# fan-in comparison against the per-connection TCP model, and the
# one-update-per-datagram udpgram shape whose receive syscalls the
# reader lanes batch with recvmmsg (udpgram-unbatched pins every batch
# knob to 1 = the pre-lane layout; see BENCH_INGEST.json for recorded
# before/after numbers). The 100k-source scale run is
# `go run ./cmd/dkf-bench -fanin -sources 100000 -n 20`, which also
# takes -lanes/-rxbatch/-sendbatch/-dgram to reproduce these shapes.
bench-ingest:
	$(GO) test -run '^$$' -bench 'BenchmarkUDPIngest' -benchmem -count 3 ./internal/dsms/
	$(GO) test -run '^$$' -bench 'BenchmarkIngestFanIn' -benchmem -benchtime 100000x -count 3 ./internal/dsms/

# WAL append cost per fsync policy plus the durable loopback ingest
# path (see BENCH_WAL.json for recorded numbers).
bench-wal:
	$(GO) test -run '^$$' -bench 'BenchmarkWALAppend' -benchmem -count 3 ./internal/wal/
	$(GO) test -run '^$$' -bench 'BenchmarkTCPIngestDurable' -benchmem -count 3 ./internal/dsms/

# Flight-recorder cost: raw trace recording and the fully traced
# loopback ingest path (see DESIGN.md §12).
bench-trace:
	$(GO) test -run '^$$' -bench 'BenchmarkTraceRecord' -benchmem -count 3 ./internal/trace/
	$(GO) test -run '^$$' -bench 'BenchmarkTCPIngest/(single|traced)' -benchmem -count 3 ./internal/dsms/

# Self-monitoring cost: one full registry snapshot into the metrics
# history ring (the per-tick body of -selfmon; must stay 0 allocs/op).
bench-selfmon:
	$(GO) test -run '^$$' -bench 'BenchmarkHistorySnapshot' -benchmem -count 3 ./internal/telemetry/history/

# Cluster router cost: the per-update forwarding hop (direct vs routed
# ingest) and cross-shard aggregate answer latency at 2 and 4 shards
# (see BENCH_CLUSTER.json for recorded numbers).
bench-cluster:
	$(GO) test -run '^$$' -bench 'BenchmarkRouterForward' -benchmem -count 3 ./internal/dsms/cluster/
	$(GO) test -run '^$$' -bench 'BenchmarkClusterAggregateAnswer' -benchmem -count 3 ./internal/dsms/cluster/

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

# Re-measure the BENCH_BASELINE.json benchmarks on the current tree
# (see DESIGN.md §7; numbers are machine-dependent).
baseline:
	$(GO) test -run '^$$' -bench 'BenchmarkFilterStep|BenchmarkServerIngestParallel|BenchmarkDKFStepLinear2D' -benchmem -count 1 ./ | tee /tmp/bench.out

# Profile a live server under generated load via the admin endpoint's
# /debug/pprof (see DESIGN.md §9). Writes /tmp/dkf-{cpu,heap}.pprof.
profile-cpu:
	GO=$(GO) sh scripts/profile.sh cpu

profile-heap:
	GO=$(GO) sh scripts/profile.sh heap
