package main

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/sock"
	"repro/internal/telemetry"
)

// horizon is the virtual-time limit every run is given, the same one the
// apps use internally.
const horizon = 600 * sim.Second

// workload is one traffic mix the benchmark drives; BENCHMARK.json
// says why each was chosen. setup builds everything that precedes the
// measured phase and is what setup_s times; the returned bed's run is
// the measured phase.
type workload struct {
	name  string
	setup func(seed uint64, tr *tracer) (*bed, error)
}

// bed is one set-up instance of a workload, ready to run.
type bed struct {
	c *cluster.Cluster
	// dialUs is the virtual time of the benchmark's own timed Dial
	// (sockperf only).
	dialUs float64
	run    func(tr *tracer) outcome
}

// outcome is what the measured phase observed in virtual time.
type outcome struct {
	attempted, completed int
	err                  error
	lat                  latency
	payloadBytes         int64
	goodputSpan          sim.Duration // virtual time the payload took
	opsSpan              sim.Duration // virtual time the rated operations took
	rated                int          // operations ops_per_s counts
	// stages is the snapshot the latency-stage means are read from:
	// the ping-pong alone on sockperf, the whole run elsewhere.
	stages *telemetry.Snapshot
}

var workloads = []workload{
	{"sockperf", setupSockperf},
	{"web-pool", func(seed uint64, tr *tracer) (*bed, error) { return setupWeb(seed, tr, false) }},
	{"web-tcp", func(seed uint64, tr *tracer) (*bed, error) { return setupWeb(seed, tr, true) }},
	{"kv-selfheal", setupKV},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs returns the workload's input generator for a seed. Each
// workload draws a fixed sequence from it, so a seed always yields the
// same inputs.
func inputs(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x70657266))
}

// --- sockperf ---------------------------------------------------------------

const (
	sockperfPort  = 7000
	sockperfIters = 2000
	streamChunk   = 64 << 10
)

// sockperfInputs draws the ping-pong message size (1-8 bytes, around the
// paper's 4-byte point) and the stream length (124-132 writes, about
// 8 MB).
func sockperfInputs(seed uint64) (msgBytes, streamBytes int) {
	r := inputs(seed)
	msgBytes = 1 + r.IntN(8)
	streamBytes = (124 + r.IntN(9)) * streamChunk
	return msgBytes, streamBytes
}

// setupSockperf builds the two-node substrate and opens the connection
// the measured phase uses: node 1 dials node 0.
func setupSockperf(seed uint64, tr *tracer) (*bed, error) {
	msgBytes, streamBytes := sockperfInputs(seed)
	opts := core.DefaultOptions() // DS_DA_UQ, credit 32
	sp := tr.begin("cluster.New", 0)
	c := cluster.New(cluster.Config{Nodes: 2, Transport: cluster.TransportSubstrate, Substrate: &opts, Seed: seed})
	tr.end(sp, c.Eng.Now())
	var srv, cli sock.Conn
	var lis sock.Listener
	var acceptErr, dialErr error
	var dialDur sim.Duration
	c.Eng.Spawn("sockperf-accept", func(p *sim.Proc) {
		lis, acceptErr = c.Nodes[0].Net.Listen(p, sockperfPort, 4)
		if acceptErr == nil {
			srv, acceptErr = lis.Accept(p)
		}
	})
	c.Eng.Spawn("sockperf-dial", func(p *sim.Proc) {
		start := p.Now()
		sp := tr.begin("Net.Dial", start)
		cli, dialErr = c.Nodes[1].Net.Dial(p, c.Addr(0), sockperfPort)
		dialDur = p.Now().Sub(start)
		tr.end(sp, p.Now())
	})
	sp = tr.begin("Cluster.Run", 0)
	c.Run(horizon)
	tr.end(sp, c.Eng.Now())
	if err := errors.Join(acceptErr, dialErr); err != nil || srv == nil || cli == nil {
		return nil, fmt.Errorf("sockperf: connection setup: %v", err)
	}
	b := &bed{c: c, dialUs: dialDur.Micros()}
	b.run = func(tr *tracer) outcome { return runSockperf(c, lis, srv, cli, msgBytes, streamBytes, tr) }
	return b, nil
}

// runSockperf is the measured phase: the ping-pong, then the stream, on
// the connection setup opened. Each round trip and each stream write is
// one operation; latency is half the round trip, as the paper reports,
// and the operation rate is the ping-pong's round trips per second, the
// stream's rate being its goodput.
// The listener stays open until the stream ends, as in the paper's
// server, so its posted descriptor sits in the NIC's tag-match list.
func runSockperf(c *cluster.Cluster, lis sock.Listener, srv, cli sock.Conn, msgBytes, streamBytes int, tr *tracer) outcome {
	chunks := streamBytes / streamChunk
	o := outcome{attempted: sockperfIters + chunks}
	lats := make([]sim.Duration, 0, sockperfIters)
	begin := c.Eng.Now()
	var pingEnd, streamStart, streamEnd sim.Time
	var srvErr, cliErr error
	received := 0
	c.Eng.Spawn("sockperf-server", func(p *sim.Proc) {
		defer lis.Close(p)
		defer srv.Close(p)
		for i := 0; i < sockperfIters; i++ {
			if _, _, err := sock.ReadFull(p, srv, msgBytes); err != nil {
				srvErr = err
				return
			}
			if _, err := srv.Write(p, msgBytes, nil); err != nil {
				srvErr = err
				return
			}
		}
		for received < streamBytes {
			n, _, err := srv.Read(p, streamBytes-received)
			if err != nil {
				srvErr = err
				return
			}
			received += n
		}
		streamEnd = p.Now()
	})
	c.Eng.Spawn("sockperf-client", func(p *sim.Proc) {
		defer cli.Close(p)
		for i := 0; i < sockperfIters; i++ {
			start := p.Now()
			t := tr.now()
			_, err := cli.Write(p, msgBytes, nil)
			tr.call("Conn.Write", t, p.Now().Sub(start))
			if err != nil {
				cliErr = err
				return
			}
			mid := p.Now()
			t = tr.now()
			_, _, err = sock.ReadFull(p, cli, msgBytes)
			tr.call("sock.ReadFull", t, p.Now().Sub(mid))
			if err != nil {
				cliErr = err
				return
			}
			lats = append(lats, p.Now().Sub(start)/2)
		}
		pingEnd = p.Now()
		o.stages = c.TelemetrySnapshot()
		streamStart = p.Now()
		for k := 0; k < chunks; k++ {
			at, t := p.Now(), tr.now()
			_, err := cli.Write(p, streamChunk, nil)
			tr.call("Conn.Write/stream", t, p.Now().Sub(at))
			if err != nil {
				cliErr = err
				return
			}
		}
	})
	sp := tr.begin("Cluster.Run", begin)
	c.Run(horizon)
	tr.end(sp, c.Eng.Now())
	o.completed = len(lats) + received/streamChunk
	o.rated = len(lats)
	o.err = errors.Join(srvErr, cliErr)
	o.lat = latencyFromSamples(lats)
	o.payloadBytes = int64(received)
	if streamEnd > streamStart {
		o.goodputSpan = streamEnd.Sub(streamStart)
	}
	if pingEnd > begin {
		o.opsSpan = pingEnd.Sub(begin)
	}
	return o
}

// --- web-pool and web-tcp ---------------------------------------------------

const (
	webClients     = 8
	webWorkers     = 4
	webCores       = 4
	webServiceTime = 50 * sim.Microsecond
	webCredits     = 4 // the paper's web-server credit size (Section 7.4)
)

// webInputs draws the response size (1008-1040 bytes) and the requests
// per client (124-126, about 1000 requests in all).
func webInputs(seed uint64) (respBytes, perClient int) {
	r := inputs(seed)
	respBytes = 1008 + r.IntN(33)
	perClient = 124 + r.IntN(3)
	return respBytes, perClient
}

func webConfig(seed uint64) apps.WebConfig {
	respBytes, perClient := webInputs(seed)
	cfg := apps.DefaultWebConfig(respBytes, 1) // HTTP/1.0
	cfg.Clients = webClients
	cfg.RequestsPerClient = perClient
	cfg.Workers = webWorkers
	cfg.ServiceTime = webServiceTime
	return cfg
}

func setupWeb(seed uint64, tr *tracer, tcp bool) (*bed, error) {
	cc := cluster.Config{Nodes: webClients + 1, Cores: webCores, Seed: seed}
	if tcp {
		cc.Transport = cluster.TransportTCP
	} else {
		opts := core.DefaultOptions()
		opts.Credits = webCredits
		cc.Transport = cluster.TransportSubstrate
		cc.Substrate = &opts
	}
	sp := tr.begin("cluster.New", 0)
	c := cluster.New(cc)
	tr.end(sp, c.Eng.Now())
	cfg := webConfig(seed)
	b := &bed{c: c}
	b.run = func(tr *tracer) outcome {
		sp := tr.begin("apps.RunWeb", c.Eng.Now())
		res := apps.RunWeb(c, cfg)
		tr.end(sp, c.Eng.Now())
		o := outcome{
			attempted:    cfg.Clients * cfg.RequestsPerClient,
			completed:    res.Requests,
			err:          res.Err,
			lat:          latencyFromHist(c.Nodes[0].Tel.Histogram("apps", "web_response_ns", telemetry.LatencyBounds())),
			payloadBytes: int64(res.Requests) * int64(16+cfg.ResponseBytes),
			goodputSpan:  res.Elapsed,
			opsSpan:      res.Elapsed,
			rated:        res.Requests,
		}
		o.stages = c.TelemetrySnapshot()
		return o
	}
	return b, nil
}

// --- kv-selfheal ------------------------------------------------------------

const (
	kvNodes    = 5 // primary, three clients, backup
	kvPrimary  = 0
	kvDowntime = 30 * sim.Millisecond
	kvThink    = 8 * sim.Millisecond
	// kvOpsPerClient stays at the key-space size: the kvstore client
	// only primes a key on its first op, so a run with more than
	// Keys+1 ops per client fails a correct store (see NOTES.md).
	kvOpsPerClient = 256
)

func kvConfig() apps.KVConfig {
	cfg := apps.DefaultKVConfig(1024)
	cfg.OpsPerClient = kvOpsPerClient
	cfg.Keys = kvOpsPerClient
	cfg.Sessions = true
	cfg.Think = kvThink
	cfg.Replicate = true
	cfg.ReadYourWrites = true
	return cfg
}

// kvPlan crash-restarts the primary once, at an instant the seed phases
// across one client think cycle after the first 10 ms.
func kvPlan(seed uint64) *faults.Plan {
	return &faults.Plan{Restarts: []faults.Restart{
		faults.RestartPhased(seed, kvPrimary, 10*sim.Millisecond, kvThink, kvDowntime),
	}}
}

func setupKV(seed uint64, tr *tracer) (*bed, error) {
	sp := tr.begin("cluster.New", 0)
	c := cluster.New(cluster.Config{Nodes: kvNodes, Failover: true, Seed: seed, Faults: kvPlan(seed)})
	tr.end(sp, c.Eng.Now())
	cfg := kvConfig()
	if cfg.OpsPerClient > cfg.Keys {
		return nil, fmt.Errorf("kv: %d ops per client exceeds the %d keys", cfg.OpsPerClient, cfg.Keys)
	}
	b := &bed{c: c}
	b.run = func(tr *tracer) outcome {
		sp := tr.begin("apps.RunKVStore", c.Eng.Now())
		res := apps.RunKVStore(c, cfg)
		tr.end(sp, c.Eng.Now())
		o := outcome{
			attempted:    cfg.Clients * cfg.OpsPerClient,
			completed:    res.Ops,
			err:          res.Err,
			lat:          latencyFromHist(c.Nodes[kvPrimary].Tel.Histogram("apps", "kv_latency_ns", telemetry.LatencyBounds())),
			payloadBytes: int64(res.Ops) * int64(cfg.ValueBytes),
			goodputSpan:  res.Elapsed,
			opsSpan:      res.Elapsed,
			rated:        res.Ops,
		}
		o.stages = c.TelemetrySnapshot()
		return o
	}
	return b, nil
}

// teardown kills every node and lets the engine unwind the killed
// processes. A process blocked forever is a goroutine that keeps its
// whole cluster reachable, so without this every cluster the benchmark
// builds would stay in memory for the rest of the run.
func teardown(c *cluster.Cluster) {
	for i := range c.Nodes {
		c.Kill(i)
	}
	c.Run(sim.Duration(c.Eng.Now()) + sim.Second)
}
