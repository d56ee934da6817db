package apps

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/sock"
	"repro/internal/telemetry"
)

// Key-value store: the paper's stated future work is "utilizing and
// evaluating the proposed substrate for a range of commercial
// applications in the Data center environment". This workload is a
// memcached-style in-memory store: clients hold persistent connections
// and issue GET/SET requests with small keys and configurable value
// sizes; the server answers from an in-memory table. Request latency is
// dominated by the socket round trip, which is exactly where the
// substrate's user-level path pays off.

// kvHeaderBytes frames every request and response.
const kvHeaderBytes = 16

// kvOp codes.
const (
	kvGet = iota
	kvSet
	// kvSyncReq asks a replica for its whole table: the response is a
	// bare summary header whose ValLen carries the entry count, followed
	// by that many kvSyncEnt-framed entries. A reborn primary issues it
	// before accepting its first client.
	kvSyncReq
	// kvSyncEnt frames one table entry inside a sync stream (same wire
	// shape as a SET request).
	kvSyncEnt
)

// kvRequest is the request payload object riding on the framed bytes.
type kvRequest struct {
	Op     int
	Key    string
	ValLen int
	Val    any
}

// kvResponse is the response payload object.
type kvResponse struct {
	OK     bool
	ValLen int
	Val    any
}

// KVConfig parameterizes the workload.
type KVConfig struct {
	// Clients is the number of client nodes (each one connection).
	Clients int
	// OpsPerClient is the request count per client.
	OpsPerClient int
	// ValueBytes is the stored value size.
	ValueBytes int
	// SetEveryN makes every n-th operation a SET (the rest are GETs).
	SetEveryN int
	// Keys is the key-space size.
	Keys int
	// Port is the server's listen port.
	Port int
	// EventLoop serves every connection from one process multiplexed
	// by a readiness poller instead of one handler process per
	// connection. Off by default so the measured workload is unchanged.
	EventLoop bool
	// Drain makes the server gracefully quiesce its host transport
	// after the last client disconnects. Off by default so the measured
	// workload is unchanged.
	Drain bool
	// DrainTimeout bounds the quiesce; zero uses a 50 ms default.
	DrainTimeout sim.Duration
	// Sessions runs every connection through the self-healing session
	// layer: transports that die mid-operation are redialed (failing
	// over from the substrate to kernel TCP on Failover clusters) and
	// the byte stream resumes where the peer left off. Incompatible
	// with EventLoop (sessions are not pollable). Off by default.
	Sessions bool
	// Think pauses each client for this long after every completed
	// operation. Zero (the default) keeps the measured workload
	// unchanged; the chaos suite uses it to stretch the run across its
	// scheduled fault windows.
	Think sim.Duration
	// Replicate runs a backup replica on the cluster's last node: every
	// SET is synchronously applied there before the primary acknowledges
	// it, and a rebooted primary recovers its whole table from the
	// backup before accepting clients — no acknowledged write is lost
	// across a primary crash–restart. Requires Sessions.
	Replicate bool
	// ReadYourWrites makes each client finish with one extra GET of the
	// last key it SET, verifying the acknowledged value survived the
	// run's scheduled restarts. The extra GET is not counted in the
	// latency histogram, so the exact-operation-count check still holds.
	ReadYourWrites bool
	// Workers > 0 serves with a pool of that many event-loop worker
	// processes sharing one poller (exclusive per-event delivery),
	// worker i pinned to host core i%Cores. Zero keeps the legacy
	// single-process servers byte-for-byte unchanged. Incompatible with
	// Sessions, like EventLoop.
	Workers int
	// ServiceTime is per-operation compute charged through the host's
	// core scheduler by the worker pool (hashing, serialization). Zero
	// adds no compute. Only the Workers>0 server honors it.
	ServiceTime sim.Duration
}

// DefaultKVConfig returns a read-heavy data-center mix.
func DefaultKVConfig(valueBytes int) KVConfig {
	return KVConfig{
		Clients:      3,
		OpsPerClient: 50,
		ValueBytes:   valueBytes,
		SetEveryN:    10,
		Keys:         64,
		Port:         11211,
	}
}

// KVResult reports the aggregate workload outcome.
type KVResult struct {
	Ops        int
	AvgLatency sim.Duration
	P99Latency sim.Duration
	Elapsed    sim.Duration
	Err        error
}

// OpsPerSec reports the aggregate throughput.
func (r KVResult) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// kvServer serves totalConns persistent connections, each handled by
// its own process, until every client disconnects.
func kvServer(p *sim.Proc, node *cluster.Node, cfg KVConfig, totalConns int, listen listenFn) error {
	var err error
	switch {
	case cfg.Workers > 0:
		err = kvServerWorkers(p, node, cfg, totalConns)
	case cfg.EventLoop:
		err = kvServerEvented(p, node, cfg, totalConns)
	default:
		err = kvServerForked(p, node, cfg, totalConns, listen)
	}
	if err == nil && cfg.Drain {
		err = drainNode(p, node, cfg.DrainTimeout)
	}
	return err
}

// kvServerForked is the handler-process-per-connection server.
func kvServerForked(p *sim.Proc, node *cluster.Node, cfg KVConfig, totalConns int, listen listenFn) error {
	l, err := listen(p, cfg.Port, totalConns)
	if err != nil {
		return err
	}
	defer l.Close(p)
	store := make(map[string]*kvResponse, cfg.Keys)
	wg := sim.NewWaitGroup(p.Engine(), "kv.handlers")
	for i := 0; i < totalConns; i++ {
		c, err := l.Accept(p)
		if err != nil {
			return err
		}
		setNoDelay(c)
		wg.Add(1)
		p.Engine().Spawn("kv-handler", func(hp *sim.Proc) {
			defer wg.Done()
			defer c.Close(hp)
			for {
				// Request: header + key (+ value for SET).
				n, objs, err := sock.ReadFull(hp, c, kvHeaderBytes)
				if err != nil || n < kvHeaderBytes || len(objs) == 0 {
					return // client closed
				}
				req, ok := objs[0].(*kvRequest)
				if !ok {
					return
				}
				body := len(req.Key)
				if req.Op == kvSet {
					body += req.ValLen
				}
				if body > 0 {
					if _, _, err := sock.ReadFull(hp, c, body); err != nil {
						return
					}
				}
				resp := &kvResponse{}
				switch req.Op {
				case kvSet:
					store[req.Key] = &kvResponse{OK: true, ValLen: req.ValLen, Val: req.Val}
					resp.OK = true
				case kvGet:
					if v, ok := store[req.Key]; ok {
						resp = v
					}
				}
				if _, err := c.Write(hp, kvHeaderBytes, resp); err != nil {
					return
				}
				if resp.ValLen > 0 {
					if _, err := c.Write(hp, resp.ValLen, nil); err != nil {
						return
					}
				}
			}
		})
	}
	wg.Wait(p)
	return nil
}

// kvConnState is one connection's framing state machine in the evented
// server: phase 0 accumulates the request header (whose final byte
// carries the kvRequest object), phase 1 accumulates the body.
type kvConnState struct {
	c         sock.Conn
	phase     int // 0 = header, 1 = body
	remaining int
	req       *kvRequest
}

// kvServerEvented multiplexes every persistent connection through one
// edge-triggered poller on a single process. Requests may arrive split
// across segments, so each connection carries an explicit header/body
// state machine instead of the blocking ReadFull the per-connection
// handlers use.
func kvServerEvented(p *sim.Proc, node *cluster.Node, cfg KVConfig, totalConns int) error {
	l, err := node.Net.Listen(p, cfg.Port, totalConns)
	if err != nil {
		return err
	}
	lp, ok := l.(sock.Pollable)
	if !ok {
		l.Close(p)
		return fmt.Errorf("kv: listener %T is not pollable", l)
	}
	store := make(map[string]*kvResponse, cfg.Keys)
	po := sock.NewPoller(p.Engine(), "kv.evented")
	defer po.Close()
	node.Tel.RegisterSource("poller", po.TelemetryStats)
	po.Register(lp, sock.PollIn|sock.PollErr, nil)
	accepted, finished := 0, 0
	var loopErr error
	closeConn := func(st *kvConnState) {
		po.Deregister(st.c.(sock.Pollable))
		st.c.Close(p)
		finished++
	}
	serve := func(st *kvConnState) error {
		resp := &kvResponse{}
		switch st.req.Op {
		case kvSet:
			store[st.req.Key] = &kvResponse{OK: true, ValLen: st.req.ValLen, Val: st.req.Val}
			resp.OK = true
		case kvGet:
			if v, ok := store[st.req.Key]; ok {
				resp = v
			}
		}
		if _, err := st.c.Write(p, kvHeaderBytes, resp); err != nil {
			return err
		}
		if resp.ValLen > 0 {
			if _, err := st.c.Write(p, resp.ValLen, nil); err != nil {
				return err
			}
		}
		return nil
	}
	drain := func(st *kvConnState) {
		for {
			pc := st.c.(sock.Pollable)
			if pc.PollState()&(sock.PollIn|sock.PollErr) == 0 {
				return
			}
			n, objs, err := st.c.Read(p, st.remaining)
			if err != nil || n == 0 {
				closeConn(st)
				return
			}
			st.remaining -= n
			if st.phase == 0 {
				for _, o := range objs {
					if r, ok := o.(*kvRequest); ok {
						st.req = r
					}
				}
			}
			if st.remaining > 0 {
				continue
			}
			if st.phase == 0 {
				if st.req == nil {
					closeConn(st) // malformed framing
					return
				}
				body := len(st.req.Key)
				if st.req.Op == kvSet {
					body += st.req.ValLen
				}
				if body > 0 {
					st.phase, st.remaining = 1, body
					continue
				}
			}
			if err := serve(st); err != nil {
				closeConn(st)
				return
			}
			st.phase, st.remaining, st.req = 0, kvHeaderBytes, nil
		}
	}
	for finished < totalConns && loopErr == nil {
		for _, ev := range po.Wait(p, -1) {
			if ev.Data == nil { // the listener
				for accepted < totalConns && lp.PollState()&sock.PollIn != 0 {
					c, err := l.Accept(p)
					if err != nil {
						loopErr = err
						break
					}
					setNoDelay(c)
					accepted++
					st := &kvConnState{c: c, remaining: kvHeaderBytes}
					po.Register(c.(sock.Pollable), sock.PollIn|sock.PollErr, st)
				}
				if accepted == totalConns {
					po.Deregister(lp)
				}
				continue
			}
			drain(ev.Data.(*kvConnState))
		}
	}
	l.Close(p)
	return loopErr
}

// kvClient issues the configured mix over one persistent connection.
func kvClient(p *sim.Proc, cfg KVConfig, dial dialFn, id int, lat *telemetry.Histogram) error {
	c, err := dial(p)
	if err != nil {
		return err
	}
	defer c.Close(p)
	setNoDelay(c)
	// written holds the keys this client has SET: a GET miss on one of
	// them is a lost write, a miss on any other key is just cold.
	written := make(map[string]bool)
	last := ""
	for i := 0; i < cfg.OpsPerClient; i++ {
		key := fmt.Sprintf("key-%d", (id*31+i)%cfg.Keys)
		req := &kvRequest{Op: kvGet, Key: key}
		// Prime the key space: the first pass and every n-th op write.
		if i < 1 || (cfg.SetEveryN > 0 && i%cfg.SetEveryN == 0) {
			req.Op = kvSet
			req.ValLen = cfg.ValueBytes
			req.Val = "value-object"
		}
		start := p.Now()
		body := len(req.Key)
		if req.Op == kvSet {
			body += req.ValLen
		}
		if _, err := c.Write(p, kvHeaderBytes, req); err != nil {
			return err
		}
		if body > 0 {
			if _, err := c.Write(p, body, nil); err != nil {
				return err
			}
		}
		_, objs, err := sock.ReadFull(p, c, kvHeaderBytes)
		if err != nil || len(objs) == 0 {
			return fmt.Errorf("kv: response header: %w", err)
		}
		resp, ok := objs[0].(*kvResponse)
		if !ok {
			return fmt.Errorf("kv: malformed response")
		}
		if resp.ValLen > 0 {
			if _, _, err := sock.ReadFull(p, c, resp.ValLen); err != nil {
				return err
			}
		}
		if req.Op == kvSet {
			written[key], last = true, key
		} else if !resp.OK && written[key] {
			return fmt.Errorf("kv: get miss on key %q this client set", key)
		}
		lat.ObserveDuration(p.Now().Sub(start))
		if cfg.Think > 0 {
			p.Sleep(cfg.Think)
		}
	}
	if cfg.ReadYourWrites {
		return kvReadYourWrites(p, cfg, c, last)
	}
	return nil
}

// kvReadYourWrites re-reads key, the last key the client wrote: the
// acknowledged value must have survived whatever crash–restart the run
// scheduled. The probe rides the same connection after the measured
// mix, outside the latency histogram.
func kvReadYourWrites(p *sim.Proc, cfg KVConfig, c sock.Conn, key string) error {
	if err := kvSendRequest(p, c, &kvRequest{Op: kvGet, Key: key}); err != nil {
		return err
	}
	_, objs, err := sock.ReadFull(p, c, kvHeaderBytes)
	if err != nil {
		return fmt.Errorf("kv: read-your-writes header: %w", err)
	}
	resp := findKVResponse(objs)
	if resp == nil {
		return fmt.Errorf("kv: malformed read-your-writes response")
	}
	if resp.ValLen > 0 {
		if _, _, err := sock.ReadFull(p, c, resp.ValLen); err != nil {
			return err
		}
	}
	if !resp.OK || resp.ValLen != cfg.ValueBytes {
		return fmt.Errorf("kv: lost acknowledged write %q across restart", key)
	}
	return nil
}

// RunKVStore runs the workload on a cluster of at least cfg.Clients+1
// nodes (node 0 serves).
func RunKVStore(c *cluster.Cluster, cfg KVConfig) KVResult {
	needNodes := cfg.Clients + 1
	if cfg.Replicate {
		needNodes++ // the backup replica takes the last node
	}
	if len(c.Nodes) < needNodes {
		return KVResult{Err: fmt.Errorf("kv: need %d nodes, have %d", needNodes, len(c.Nodes))}
	}
	if cfg.Replicate && !cfg.Sessions {
		return KVResult{Err: fmt.Errorf("kv: Replicate requires Sessions")}
	}
	// Bounded histogram, not sim.Sample: the run can absorb an
	// arbitrary number of operations without retaining one value each.
	// Registered so the cluster telemetry snapshot carries it too.
	lat := c.Nodes[0].Tel.Histogram("apps", "kv_latency_ns", telemetry.LatencyBounds())
	if cfg.Sessions && (cfg.EventLoop || cfg.Workers > 0) {
		return KVResult{Err: fmt.Errorf("kv: Sessions and EventLoop/Workers are incompatible")}
	}
	listen := netListen(c.Nodes[0])
	if cfg.Sessions {
		listen = sessionListen(c, 0, "kv")
	}
	var srvErr error
	cliErrs := make([]error, cfg.Clients)
	var start, end sim.Time
	if cfg.Sessions && (cfg.Replicate || restartPlanned(c)) {
		// Crash-surviving harness: bootstraps registered with SetBoot so
		// a restarted host re-runs them, server completion measured by
		// the clients' exact operation count.
		if cfg.Replicate {
			backupIdx := len(c.Nodes) - 1
			bak := kvBackupBoot(c, cfg, backupIdx, &srvErr)
			c.SetBoot(backupIdx, bak)
			c.Eng.Spawn("kv-backup", bak)
			boot := kvPrimaryBoot(c, cfg, backupIdx, &srvErr)
			c.SetBoot(0, boot)
			c.Eng.Spawn("kv-server", boot)
		} else {
			boot := kvPrimaryBoot(c, cfg, -1, &srvErr)
			c.SetBoot(0, boot)
			c.Eng.Spawn("kv-server", boot)
		}
	} else {
		c.Eng.Spawn("kv-server", func(p *sim.Proc) {
			srvErr = kvServer(p, c.Nodes[0], cfg, cfg.Clients, listen)
		})
	}
	done := sim.NewWaitGroup(c.Eng, "kv.clients")
	done.Add(cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		i := i
		dial := netDial(c.Nodes[i+1], c.Addr(0), cfg.Port)
		if cfg.Sessions {
			dial = sessionDial(c, i+1, 0, cfg.Port, "kv")
		}
		c.Eng.Spawn("kv-client", func(p *sim.Proc) {
			defer done.Done()
			p.Sleep(sim.Duration(20+10*i) * sim.Microsecond)
			if start == 0 {
				start = p.Now()
			}
			cliErrs[i] = kvClient(p, cfg, dial, i, lat)
			end = p.Now()
		})
	}
	c.Run(600 * sim.Second)
	res := KVResult{
		Ops:        int(lat.Count()),
		AvgLatency: sim.Duration(lat.Mean()),
		P99Latency: sim.Duration(lat.Percentile(99)),
		Elapsed:    end.Sub(start),
		Err:        srvErr,
	}
	for _, e := range cliErrs {
		if res.Err == nil && e != nil {
			res.Err = e
		}
	}
	want := cfg.Clients * cfg.OpsPerClient
	if res.Err == nil && res.Ops != want {
		res.Err = fmt.Errorf("kv: completed %d of %d operations", res.Ops, want)
	}
	return res
}
