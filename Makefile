# Standard checks for the gqr repo. `make check` is the pre-commit
# gate: vet (also for arm64) + full tests + the pure-Go kernel tests +
# the whole module under the race detector + one run of every
# benchmark. trace-stress, durability, lifecycle and batch-stress are
# -run subsets of the race run, kept for focused local runs; check does
# not repeat them.
GO ?= go

.PHONY: check build vet vet-arm64 test purego race trace-stress durability lifecycle batch-stress fuzz-smoke bench bench-smoke

check: vet vet-arm64 test purego race bench-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The amd64 assembly (internal/vecmath/kernels_amd64.s) has a pure-Go
# fallback for every other arch and for the purego tag. vet-arm64
# compiles that fallback and runs vet's checks off amd64; purego runs
# the kernel, k-means, PQ, KMH, searcher and root-package oracles on
# it, so the fallback stays correct on a machine that would otherwise
# always take AVX2.
vet-arm64:
	GOARCH=arm64 $(GO) vet ./...

test:
	$(GO) test ./...

purego:
	$(GO) test -tags purego ./internal/vecmath ./internal/cluster ./internal/quantization ./internal/hash ./internal/query .

# The query hot path is lock-free (snapshot-based concurrent search),
# so the whole module must stay race-clean, not just the HTTP layer:
# the root package's Add+Search+batch stress test is the regression
# gate for the snapshot design.
race:
	$(GO) test -race ./...

# Flight-recorder stress under the race detector: concurrent traced
# searches and ring-buffer captures racing against /debug/querytrace
# readers and Chrome exports. The ring is lock-free (atomic pointer
# publication), so this is the regression gate for that design.
trace-stress:
	$(GO) test -race -run 'TraceStress' . ./internal/trace ./internal/server

# Crash-recovery suite under the race detector: WAL round-trips and
# torn tails at every byte offset, segment-file corruption, and the
# graceful/crash recover paths. This is the regression gate for the
# Add durability contract (acknowledged Adds are never silently lost).
durability:
	$(GO) test -race -run 'WAL|Durable|Durability|SaveFileAtomic|LoadRejects' . ./internal/wal

# Corpus-lifecycle oracle suite under the race detector: random
# Add/Delete/Update interleavings across seal/merge/crash-recovery
# boundaries must return search results identical to a fresh index
# over only the live vectors (all five query methods), and Compact
# must fold tombstones to the canonical saved form. This is the
# regression gate for the delete/update path (DESIGN.md §8f).
lifecycle:
	$(GO) test -race -run 'Lifecycle' .

# Batched-execution gate under the race detector: the batch-vs-
# sequential oracle (every querying method × rerank/tombstones/
# filter/tagmask/sharded/duplicates must return bit-identical
# neighbors AND work counters), the concurrent Add/Delete/seal stress
# of the batch engine's snapshot capture and pooled plan arena, and
# the server-side request coalescer. This is the regression gate for
# the batched query engine (DESIGN.md §8h).
batch-stress:
	$(GO) test -race -run 'TestBatch|TestShardedBatch' .
	$(GO) test -race -run 'TestCoalesc' ./internal/server

# Short fuzz runs over the three untrusted-input parsers: the index
# loader (GQRPUB1/GQRIDX3 streams, seeded with tombstone bitmaps and
# metadata slabs), the WAL replayer (add, meta-add and delete frames)
# and the hasher decoder, whose accepted hashers must also code a
# vector of their declared dimension. Ten seconds each — enough to
# catch a panic or an unbounded allocation from a hostile length field
# without stalling CI. The other runs check the dispatched kernels (AVX2
# on amd64) bit for bit: the distance kernel against the pure-Go one
# over lengths 1–255 and any bound; the packed nearest-centroid kernel,
# dispatched and pure-Go, against the row-by-row scan over d 1–130 and
# k 1–600; and ITQ's tall-thin kernels — the sign-pass row product,
# the transpose-free aᵀ·b and the covariance update — against their Go
# loops over widths 1–64, rows across tile edges, NaN, ±Inf, ±0 and
# subnormals.
fuzz-smoke:
	$(GO) test -fuzz=FuzzLoad -fuzztime=10s -run '^$$' .
	$(GO) test -fuzz=FuzzReplay -fuzztime=10s -run '^$$' ./internal/wal
	$(GO) test -fuzz=FuzzUnmarshal -fuzztime=10s -run '^$$' ./internal/hash
	$(GO) test -fuzz=FuzzSquaredL2Bounded -fuzztime=10s -run '^$$' ./internal/vecmath
	$(GO) test -fuzz=FuzzNearestCenter -fuzztime=10s -run '^$$' ./internal/vecmath
	$(GO) test -fuzz=FuzzMulRows -fuzztime=10s -run '^$$' ./internal/vecmath
	$(GO) test -fuzz=FuzzMulTP -fuzztime=10s -run '^$$' ./internal/vecmath
	$(GO) test -fuzz=FuzzCovariance -fuzztime=10s -run '^$$' ./internal/vecmath

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# Compile-and-run-once smoke over every benchmark in the module, so a
# refactor can't silently break bench code that only full `make bench`
# runs would have compiled (benchtime=1x keeps it to seconds).
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Performance measurements come from the repo benchmark, one workload
# at a time: `bash perfbench/run.sh --workload search-d128 --seed 1`
# (see perfbench/README.md). The BENCH_PR*.json files in the repo root
# are frozen snapshots written by since-retired gqr-bench measurement
# modes (reproduce at commit 6598432); nothing regenerates them.
