# Convenience targets; everything is plain `go` underneath.

.PHONY: test race bench bench-smoke reproduce ablations chaos chaos-nic chaos-fabric chaos-restart overload audit drain metrics corescale examples verify record

# test is the everyday gate: vet plus the race-enabled test suite.
test:
	go vet ./...
	go test -race ./...

race:
	go test -race ./...

bench:
	go test -bench=. -benchmem ./...

# bench-smoke: vet, race-enabled short tests, each benchmark once.
bench-smoke:
	go vet ./...
	go test -race -short ./...
	go test -short -run '^$$' -bench . -benchtime 1x ./...

reproduce:
	go run ./cmd/reproduce

ablations:
	go run ./cmd/reproduce -ablations

# chaos, chaos-nic, chaos-fabric, chaos-restart, audit: the robustness suites; any unexpected row fails.
chaos:
	go run ./cmd/reproduce -chaos

chaos-nic:
	go run ./cmd/reproduce -chaos-nic

chaos-fabric:
	go run ./cmd/reproduce -chaos-fabric

chaos-restart:
	go run ./cmd/reproduce -chaos-restart

audit:
	go run ./cmd/reproduce -audit

# overload: connect floods, credit/buffer starvation and pool edge races, under -race.
overload:
	go test -race -run 'Overload|Deadline|Budget|UQByte|Refus|Starv' ./...

# metrics: hot-path latency decomposition into BENCH_metrics.json; fails on a stage-sum mismatch.
metrics:
	go run ./cmd/reproduce -metrics

# corescale: SMP worker-pool sweep into BENCH_corescale.json; fails on its scaling gates.
corescale:
	go run ./cmd/reproduce -corescale

# drain: half-close, linger, dial deadlines, double-close and host quiesce, under -race.
drain:
	go test -race -run 'Teardown|HalfClose|Linger|Drain|DoubleClose|DialDeadline' ./...

examples:
	go run ./examples/quickstart
	go run ./examples/rawemp
	go run ./examples/ftp
	go run ./examples/webserver
	go run ./examples/matmul
	go run ./examples/kvstore

# verify is the pre-merge chain: build, vet, gofmt, race tests, the scaling gates, every suite's quick leg.
verify:
	go build ./...
	go vet ./...
	test -z "$$(gofmt -l .)"
	go test -race ./...
	go test -run TestConnScaleDispatchGate -count=1 ./internal/bench
	go test -run TestCoreScaleGate -count=1 ./internal/bench
	for s in chaos chaos-nic chaos-fabric chaos-restart audit; do go run ./cmd/reproduce -$$s -quick || exit 1; done

# record regenerates the committed experiment record artifacts.
record:
	go vet ./...
	go test ./... 2>&1 | tee test_output.txt
	go test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt
