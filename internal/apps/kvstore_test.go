package apps

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/sock"
)

func TestKVStoreCompletesOverBothTransports(t *testing.T) {
	for name, build := range allTransports() {
		if name == "substrate-dg" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			// The second mix runs past the key space, so clients revisit
			// keys: GETs of keys other clients wrote must not count as
			// lost writes.
			long := DefaultKVConfig(1024)
			long.OpsPerClient = long.Keys + 2
			for _, cfg := range []KVConfig{DefaultKVConfig(1024), long} {
				res := RunKVStore(build(4), cfg)
				if res.Err != nil {
					t.Fatalf("kv over %s, %d ops/client: %v", name, cfg.OpsPerClient, res.Err)
				}
				if want := cfg.Clients * cfg.OpsPerClient; res.Ops != want {
					t.Fatalf("ops = %d, want %d", res.Ops, want)
				}
				if res.AvgLatency <= 0 || res.P99Latency < res.AvgLatency {
					t.Fatalf("latency stats broken: avg=%v p99=%v", res.AvgLatency, res.P99Latency)
				}
			}
		})
	}
}

func TestKVStoreSubstrateLowerLatency(t *testing.T) {
	tcp := RunKVStore(cluster.NewTCP(4), DefaultKVConfig(256))
	sub := RunKVStore(cluster.NewSubstrate(4, nil), DefaultKVConfig(256))
	if tcp.Err != nil || sub.Err != nil {
		t.Fatalf("errs: tcp=%v sub=%v", tcp.Err, sub.Err)
	}
	if sub.AvgLatency >= tcp.AvgLatency {
		t.Fatalf("substrate kv latency %v should beat TCP %v", sub.AvgLatency, tcp.AvgLatency)
	}
	if sub.OpsPerSec() <= tcp.OpsPerSec() {
		t.Fatalf("substrate kv throughput %.0f should beat TCP %.0f", sub.OpsPerSec(), tcp.OpsPerSec())
	}
}

func TestKVStoreValueSizeScaling(t *testing.T) {
	small := RunKVStore(cluster.NewSubstrate(4, nil), DefaultKVConfig(64))
	big := RunKVStore(cluster.NewSubstrate(4, nil), DefaultKVConfig(32<<10))
	if small.Err != nil || big.Err != nil {
		t.Fatalf("errs: %v %v", small.Err, big.Err)
	}
	if big.AvgLatency <= small.AvgLatency {
		t.Fatalf("32KB values (%v) should cost more than 64B (%v)", big.AvgLatency, small.AvgLatency)
	}
}

func TestKVStoreNeedsEnoughNodes(t *testing.T) {
	res := RunKVStore(cluster.NewTCP(2), DefaultKVConfig(64))
	if res.Err == nil {
		t.Fatal("3-client workload on a 2-node cluster should error")
	}
}

// blankConn fills every Read but carries no framing object.
type blankConn struct{ sock.Conn }

func (blankConn) Read(p *sim.Proc, max int) (int, []any, error) { return max, nil, nil }

func TestKVRecvResponseMalformed(t *testing.T) {
	eng := sim.NewEngine()
	var err error
	eng.Spawn("client", func(p *sim.Proc) { _, err = kvRecvResponse(p, blankConn{}) })
	eng.Run()
	if err == nil || err.Error() != "kv: malformed response" {
		t.Fatalf("err = %v, want kv: malformed response", err)
	}
}
