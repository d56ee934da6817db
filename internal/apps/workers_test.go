package apps

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// workerCluster builds an n-node cluster with the given core count on
// the chosen transport.
func workerCluster(tr cluster.Transport, nodes, cores int) *cluster.Cluster {
	return cluster.New(cluster.Config{Nodes: nodes, Transport: tr, Cores: cores, Seed: 1})
}

// eachPool runs body as one subtest per stream transport and worker
// count, named like "TCP/workers=4". Workers 0 is the fork-per-connection
// server.
func eachPool(t *testing.T, workers []int, body func(t *testing.T, tr cluster.Transport, workers int)) {
	for _, tr := range []cluster.Transport{cluster.TransportTCP, cluster.TransportSubstrate} {
		for _, w := range workers {
			t.Run(fmt.Sprintf("%v/workers=%d", tr, w), func(t *testing.T) { body(t, tr, w) })
		}
	}
}

func TestWebWorkerPoolCompletesAllRequests(t *testing.T) {
	eachPool(t, []int{1, 2, 4}, func(t *testing.T, tr cluster.Transport, workers int) {
		cfg := DefaultWebConfig(1024, 1)
		cfg.Workers = workers
		res := RunWeb(workerCluster(tr, 4, 4), cfg)
		if res.Err != nil {
			t.Fatalf("worker-pool web: %v", res.Err)
		}
		if res.Requests != 72 {
			t.Fatalf("completed %d of 72 requests", res.Requests)
		}
	})
}

func TestWebWorkerPoolKeepAlive(t *testing.T) {
	// HTTP/1.1: eight requests ride each connection, so the per-connection
	// state must reset between requests instead of closing.
	eachPool(t, []int{1, 4}, func(t *testing.T, tr cluster.Transport, workers int) {
		cfg := DefaultWebConfig(4096, 8)
		cfg.Workers = workers
		res := RunWeb(workerCluster(tr, 4, 4), cfg)
		if res.Err != nil {
			t.Fatalf("worker-pool keep-alive web: %v", res.Err)
		}
		if res.Requests != 72 {
			t.Fatalf("completed %d of 72 requests", res.Requests)
		}
	})
}

// TestWebWorkerPoolMatchesForkServer: a one-worker pool changes where
// the server blocks, not what it serves — every request completes, and
// response times stay in the fork-per-connection server's regime.
func TestWebWorkerPoolMatchesForkServer(t *testing.T) {
	cfg := DefaultWebConfig(1024, 1)
	fork := RunWeb(cluster.NewSubstrate(4, nil), cfg)
	cfg.Workers = 1
	pool := RunWeb(cluster.NewSubstrate(4, nil), cfg)
	if fork.Err != nil || pool.Err != nil {
		t.Fatalf("errs: fork=%v pool=%v", fork.Err, pool.Err)
	}
	if fork.Requests != 72 || pool.Requests != fork.Requests {
		t.Fatalf("request counts: fork=%d pool=%d, want 72", fork.Requests, pool.Requests)
	}
	if pool.AvgResponse > 4*fork.AvgResponse {
		t.Fatalf("one-worker pool implausibly slow: %v vs fork %v", pool.AvgResponse, fork.AvgResponse)
	}
}

func TestWebWorkerPoolFileBacked(t *testing.T) {
	cfg := DefaultWebConfig(8192, 1)
	cfg.Workers = 2
	cfg.FileBacked = true
	res := RunWeb(workerCluster(cluster.TransportSubstrate, 4, 4), cfg)
	if res.Err != nil {
		t.Fatalf("worker-pool file-backed web: %v", res.Err)
	}
	if res.Requests != 72 {
		t.Fatalf("completed %d of 72 requests", res.Requests)
	}
}

// TestKVWorkerPoolCompletes runs every kvstore server shape past the key
// space, so clients revisit keys other clients wrote, and ends each
// client with a read-your-writes GET that must return the full value.
func TestKVWorkerPoolCompletes(t *testing.T) {
	eachPool(t, []int{0, 1, 4}, func(t *testing.T, tr cluster.Transport, workers int) {
		cfg := DefaultKVConfig(1024)
		cfg.Workers = workers
		cfg.OpsPerClient = cfg.Keys + 2
		cfg.ReadYourWrites = true
		res := RunKVStore(workerCluster(tr, 4, 4), cfg)
		if res.Err != nil {
			t.Fatalf("worker-pool kv: %v", res.Err)
		}
		if res.Ops != cfg.Clients*cfg.OpsPerClient {
			t.Fatalf("completed %d of %d ops", res.Ops, cfg.Clients*cfg.OpsPerClient)
		}
	})
}

// TestWorkerPoolComputeScalesWithCores: with a per-request ServiceTime
// that dominates the wire time, 4 workers on 4 cores must beat 1 worker
// by at least 2x on wall-clock (the requests/sec acceptance gate), and
// 4 workers on 1 core must not beat 1 worker by more than scheduling
// noise (the serialization proof).
func TestWorkerPoolComputeScalesWithCores(t *testing.T) {
	elapsed := func(workers, cores int) sim.Duration {
		cfg := DefaultKVConfig(64)
		cfg.Workers = workers
		cfg.ServiceTime = 200 * sim.Microsecond
		cfg.Clients = 4
		cfg.OpsPerClient = 25
		res := RunKVStore(workerCluster(cluster.TransportSubstrate, 5, cores), cfg)
		if res.Err != nil {
			t.Fatalf("kv %d workers %d cores: %v", workers, cores, res.Err)
		}
		return res.Elapsed
	}
	one := elapsed(1, 4)
	four := elapsed(4, 4)
	if four*2 > one {
		t.Fatalf("4 workers on 4 cores not 2x faster: 1w=%v 4w=%v", one, four)
	}
	fourOn1 := elapsed(4, 1)
	if fourOn1*4 < one*3 {
		t.Fatalf("4 workers on 1 core implausibly fast: 1w=%v 4w/1c=%v (compute should serialize)", one, fourOn1)
	}
}

// TestWorkerPoolPerWorkerTelemetry: every worker's delivery counters
// appear in the node snapshot, and with enough connections each worker
// actually serves some events (the delivery-partitioning guarantee is
// exclusive but fair).
func TestWorkerPoolPerWorkerTelemetry(t *testing.T) {
	c := workerCluster(cluster.TransportSubstrate, 4, 4)
	cfg := DefaultWebConfig(1024, 1)
	cfg.Workers = 4
	cfg.ServiceTime = 50 * sim.Microsecond
	if res := RunWeb(c, cfg); res.Err != nil {
		t.Fatal(res.Err)
	}
	snap := c.Nodes[0].Tel.Snapshot()
	byName := map[string]int64{}
	for _, ct := range snap.Counters {
		byName[ct.Layer+"/"+ct.Metric] = ct.Value
	}
	var delivered int64
	for i := 0; i < 4; i++ {
		v, ok := byName["poller/poll_waiter_w"+string(rune('0'+i))+"_delivered"]
		if !ok {
			t.Fatalf("missing per-waiter counter for worker %d in %v", i, byName)
		}
		delivered += v
		if ev := byName["apps/web_worker"+string(rune('0'+i))+"_events"]; ev == 0 {
			t.Fatalf("worker %d served no events (unfair partitioning): %v", i, byName)
		}
	}
	if delivered != byName["poller/poll_delivered"] {
		t.Fatalf("per-waiter deliveries %d do not sum to poller total %d", delivered, byName["poller/poll_delivered"])
	}
	// Core-scheduler gauges appear once compute was charged.
	if _, ok := byName["cpu/core0_busy_ns"]; !ok {
		t.Fatalf("missing cpu core telemetry in %v", byName)
	}
}

// The TestWebEventLoop* and TestKVStoreEventLoopCompletes checks keep
// their names from the single-process evented servers that the one-worker
// pool replaced. They run Workers: 1 on the default one-core cluster
// builders, the setting those servers ran in.

// streamTransports are the byte-stream cluster builders, by subtest name.
func streamTransports() map[string]func(n int) *cluster.Cluster {
	return map[string]func(n int) *cluster.Cluster{
		"tcp": cluster.NewTCP,
		"substrate-ds": func(n int) *cluster.Cluster {
			return cluster.NewSubstrate(n, nil)
		},
	}
}

func TestWebEventLoopCompletesAllRequests(t *testing.T) {
	for name, build := range streamTransports() {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultWebConfig(1024, 1)
			cfg.Workers = 1
			res := RunWeb(build(4), cfg)
			if res.Err != nil {
				t.Fatalf("one-worker web over %s: %v", name, res.Err)
			}
			if res.Requests != 72 {
				t.Fatalf("completed %d of 72 requests", res.Requests)
			}
		})
	}
}

func TestWebEventLoopKeepAlive(t *testing.T) {
	for name, build := range streamTransports() {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultWebConfig(4096, 8)
			cfg.Workers = 1
			res := RunWeb(build(4), cfg)
			if res.Err != nil {
				t.Fatalf("one-worker keep-alive web over %s: %v", name, res.Err)
			}
			if res.Requests != 72 {
				t.Fatalf("completed %d of 72 requests", res.Requests)
			}
		})
	}
}

func TestWebEventLoopFileBacked(t *testing.T) {
	cfg := DefaultWebConfig(8192, 1)
	cfg.Workers = 1
	cfg.FileBacked = true
	res := RunWeb(cluster.NewSubstrate(4, nil), cfg)
	if res.Err != nil {
		t.Fatalf("one-worker file-backed web: %v", res.Err)
	}
	if res.Requests != 72 {
		t.Fatalf("completed %d of 72 requests", res.Requests)
	}
}

func TestKVStoreEventLoopCompletes(t *testing.T) {
	for name, build := range streamTransports() {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultKVConfig(1024)
			cfg.Workers = 1
			res := RunKVStore(build(4), cfg)
			if res.Err != nil {
				t.Fatalf("one-worker kv over %s: %v", name, res.Err)
			}
			if res.Ops != cfg.Clients*cfg.OpsPerClient {
				t.Fatalf("completed %d ops", res.Ops)
			}
		})
	}
}
