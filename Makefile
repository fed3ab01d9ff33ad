GO ?= go

.PHONY: tier1 race bench-smoke tables-check build vet test fmt-check chaos fuzz-smoke transport-race obs-smoke pipeline-race replica-race scrub-race chunk-race serve-race

tier1: ## vet + build + full test suite (the repo's gate)
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check: ## fail if any Go file is not gofmt-formatted
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

race: ## race-detector pass over the data-path packages and the root suite
	$(GO) test -race ./internal/storage/ ./internal/vdev/ ./internal/dumpfmt/ \
		./internal/physical/ ./internal/raid/ ./internal/logical/ ./internal/bufpool/ \
		./internal/tape/ ./internal/chaos/ .

transport-race: ## race-detector pass over the remote session layer
	$(GO) test -race -count 1 -run Transport -timeout 120s \
		./internal/transport/ ./internal/ndmp/ ./cmd/backupctl/

chaos: ## seeded fault-injection property tests, wide seed sweep
	CHAOS_SEEDS=8 $(GO) test -count 1 -v -run 'TestChaos' ./internal/chaos/

fuzz-smoke: ## brief real fuzzing of the untrusted-input parsers
	$(GO) test -fuzz FuzzDecodeDirEnts -fuzztime 10s ./internal/logical/
	$(GO) test -fuzz FuzzUnmarshalHeader -fuzztime 10s ./internal/dumpfmt/
	$(GO) test -fuzz FuzzStreamHeader -fuzztime 10s ./internal/physical/
	$(GO) test -fuzz FuzzDecodeJournal -fuzztime 10s ./internal/catalog/
	$(GO) test -fuzz FuzzDecodeChunkIndex -fuzztime 10s ./internal/catalog/
	$(GO) test -fuzz FuzzDecodeManifest -fuzztime 10s ./internal/catalog/
	$(GO) test -fuzz FuzzDecodeWire -fuzztime 10s ./internal/replica/
	$(GO) test -fuzz FuzzDecodeHello -fuzztime 10s ./internal/ndmp/

replica-race: ## race-detector pass over catalog replication and the failover chaos scenarios
	$(GO) test -race -count 1 -timeout 300s ./internal/replica/
	$(GO) test -race -count 1 -run 'TestChaosReplicatedJournal|TestChaosTapeHostFailover' \
		-timeout 300s ./internal/chaos/
	$(GO) test -race -count 1 -run 'TestScheduleSurvivesCatalogFailover' ./internal/sched/

scrub-race: ## race-detector pass over the integrity layer and the bit-rot chaos gauntlet
	$(GO) test -race -count 1 -timeout 300s ./internal/scrub/
	$(GO) test -race -count 1 -run 'TestChaosScrub' -timeout 300s ./internal/chaos/
	$(GO) test -race -count 1 -run 'TestPlanRoutesAround|TestSetHealth|TestRecovery' \
		-timeout 300s ./internal/catalog/

obs-smoke: ## instrumented dump with tracing + metrics, validated end to end
	$(GO) run ./cmd/backupctl stats -mb 4 -trace obs_trace.json -check > /dev/null
	rm -f obs_trace.json

pipeline-race: ## race-detector pass over the parallel pipeline, both engines' concurrency tests, and the parallel-shard chaos scenario
	$(GO) test -race -count 1 ./internal/pipeline/ ./internal/sim/
	$(GO) test -race -count 1 -run 'Parallel' -timeout 300s \
		./internal/logical/ ./internal/physical/
	$(GO) test -race -count 1 -run 'TestChaosParallel' -timeout 300s ./internal/chaos/

chunk-race: ## race-detector pass over the dedup chunk layer, its catalog/engine integration, and the mid-dump crash chaos scenarios
	$(GO) test -race -count 1 ./internal/chunk/
	$(GO) test -race -count 1 -run 'Chunk|Dedup' -timeout 300s \
		./internal/catalog/ ./internal/logical/ ./internal/physical/ \
		./internal/media/ ./internal/bench/ ./cmd/backupctl/
	$(GO) test -race -count 1 -run 'TestChunkCrashMidDump' -timeout 300s ./internal/chaos/

serve-race: ## race-detector pass over the multi-tenant serve stack: registry, scheduler, bench fleet, and the tenant-cut chaos scenario
	$(GO) test -race -count 1 ./internal/sched/
	$(GO) test -race -count 1 -run 'TestTransportHost|TestTransportServe|TestTransportReplicate|TestTransportReconnect|TestTransportData|TestTransportGate' \
		-timeout 300s ./internal/ndmp/ ./cmd/backupctl/
	$(GO) test -race -count 1 -run 'TestServeBench' -timeout 300s ./internal/bench/
	$(GO) test -race -count 1 -run 'TestChaosServe' -timeout 300s ./internal/chaos/

tables-check: ## regenerate every paper table on the virtual clock and diff it against the committed reference
	$(GO) run ./cmd/benchtables | diff -u docs/benchtables-reference.txt -

bench-smoke: ## quick fast-path micro-benchmarks, gated against the committed baseline
	$(GO) test -run xxx -bench 'RunRead|RunWrite|RecordWrite|WAFLWrite|WAFLRead' -benchtime 100x \
		./internal/storage/ ./internal/vdev/ ./internal/raid/ \
		./internal/dumpfmt/ ./internal/physical/ ./internal/wafl/
	$(GO) run ./cmd/backupctl bench -json '' -compare BENCH_fastpath.json
	$(GO) run ./cmd/backupctl bench -chunk -json '' -compare BENCH_chunk.json
	$(GO) run ./cmd/backupctl bench -clients 100 -json '' -compare BENCH_serve.json
