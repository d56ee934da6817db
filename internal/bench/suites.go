package bench

import (
	"errors"
	"fmt"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/sock"
)

// The suite tables: each builder returns one seed's rows.
var suites = map[string]suite{
	"chaos": {title: "workloads under randomized fault plans", label: "transport",
		cols: []string{"rexmits", "fcsdrops", "injected"}, rows: chaosRows},
	"chaos-nic": {title: "sessions under NIC faults and link flaps", label: "fault",
		cols: []string{"nicfaults", "reconnect", "failover", "reattach"}, rows: nicRows},
	"chaos-fabric": {title: "single-failure survivability on a 2x2 spine-leaf fabric", label: "failure",
		cols: []string{"reroutes", "blackholed", "reconnect", "failover", "reborn", "nicfaults"}, rows: fabricRows},
	"chaos-restart": {title: "crash-restart recovery with listener resurrection", label: "target",
		cols: []string{"inc", "reconnect", "reborn", "stale", "leaks"}, rows: restartRows},
	"audit": {title: "descriptor-leak sweep across workloads", label: "transport", rows: auditRows},
}

var transports = []cluster.Transport{cluster.TransportSubstrate, cluster.TransportTCP}

// row assembles one Scenario; its seed is the cluster's.
func row(workload, label string, cfg cluster.Config, run func(*cluster.Cluster) (string, error), expect ...Expect) Scenario {
	return Scenario{Workload: workload, Label: label, Seed: cfg.Seed, Cluster: cfg, Run: run, Expect: expect}
}

// web runs cfg and reports done (formatted with the request count).
func web(cfg apps.WebConfig, done string) func(*cluster.Cluster) (string, error) {
	return func(c *cluster.Cluster) (string, error) {
		res := apps.RunWeb(c, cfg)
		if want := cfg.Clients * cfg.RequestsPerClient; res.Err == nil && res.Requests != want {
			res.Err = fmt.Errorf("%d of %d requests", res.Requests, want)
		}
		return fmt.Sprintf(done, res.Requests), res.Err
	}
}

// kv runs cfg and reports done (formatted with the op count).
func kv(cfg apps.KVConfig, done string) func(*cluster.Cluster) (string, error) {
	return func(c *cluster.Cluster) (string, error) {
		res := apps.RunKVStore(c, cfg)
		if want := cfg.Clients * cfg.OpsPerClient; res.Err == nil && res.Ops != want {
			res.Err = fmt.Errorf("%d of %d ops", res.Ops, want)
		}
		return fmt.Sprintf(done, res.Ops), res.Err
	}
}

// ftp copies a file of size bytes and checks it arrived whole.
func ftp(bytes int, done string) func(*cluster.Cluster) (string, error) {
	return func(c *cluster.Cluster) (string, error) {
		if res := apps.RunFTP(c, bytes); res.Err != nil {
			return "", res.Err
		}
		if size, _ := c.Nodes[1].FS.Stat("copy.bin"); size != bytes {
			return "", fmt.Errorf("file corrupted: %d of %d bytes", size, bytes)
		}
		return fmt.Sprintf(done, bytes), nil
	}
}

func matmul(n int) func(*cluster.Cluster) (string, error) {
	return func(c *cluster.Cluster) (string, error) {
		return fmt.Sprintf("N=%d", n), apps.RunMatmul(c, n).Err
	}
}

// sessionWeb and sessionKV are the self-healing suites' mixes: 8 ms
// think time stretches each run past the latest fault instant, so the
// faults always land on live traffic. Controls run web with sessions
// off.
func sessionWeb(reqs int, sessions bool) apps.WebConfig {
	cfg := apps.DefaultWebConfig(1024, 8)
	cfg.RequestsPerClient = reqs
	cfg.Sessions = sessions
	cfg.Think = 8 * sim.Millisecond
	return cfg
}

func sessionKV(ops int, replicated bool) apps.KVConfig {
	cfg := apps.DefaultKVConfig(1024)
	cfg.OpsPerClient = ops
	cfg.Sessions = true
	cfg.Think = 8 * sim.Millisecond
	cfg.Replicate, cfg.ReadYourWrites = replicated, replicated
	return cfg
}

const (
	served   = "%d requests served"
	complete = "%d ops completed"
	durable  = "%d ops completed, reads-your-writes held"
)

// failover is a Failover cluster (substrate primary, kernel TCP
// standby on every node), on a single switch when topo is nil.
func failover(nodes int, seed uint64, pl *faults.Plan, topo *cluster.Topology) cluster.Config {
	return cluster.Config{Nodes: nodes, Failover: true, Seed: seed, Faults: pl, Topology: topo}
}

// chaosRows: every workload on both transports under a randomized link
// fault plan, plus a node crash timing peer-failure detection.
func chaosRows(seed uint64, quick bool) []Scenario {
	ftpBytes, kvCfg := 4<<20, apps.DefaultKVConfig(1024)
	if quick {
		ftpBytes, kvCfg.OpsPerClient = 1<<20, 20
	}
	var rows []Scenario
	for _, tr := range transports {
		random := func(nodes int, dur sim.Duration) cluster.Config {
			return cluster.Config{Nodes: nodes, Transport: tr, Seed: seed, Faults: faults.RandomPlan(seed, nodes, dur)}
		}
		rows = append(rows,
			row("ftp", tr.String(), random(2, 2*sim.Second), ftp(ftpBytes, "%d bytes intact"), exact),
			row("kvstore", tr.String(), random(4, sim.Second), kv(kvCfg, complete), exact),
			row("web", tr.String(), random(4, sim.Second), web(apps.DefaultWebConfig(1024, 8), served), exact))
	}
	pl := faults.RandomPlan(seed, 2, sim.Second)
	pl.Crashes = append(pl.Crashes, faults.CrashAt(0, crashAt))
	cfg := cluster.Config{Nodes: 2, Transport: cluster.TransportSubstrate, Seed: seed, Faults: pl}
	return append(rows, row("crash", cfg.Transport.String(), cfg, crash, exact))
}

const crashAt = 20 * sim.Millisecond

// crash kills the server mid-stream and reports how long the surviving
// writer took to observe sock.ErrReset.
func crash(c *cluster.Cluster) (string, error) {
	var wrErr error
	var errAt sim.Time
	c.Eng.Spawn("server", func(p *sim.Proc) {
		l, err := c.Nodes[0].Net.Listen(p, 80, 4)
		if err != nil {
			return
		}
		conn, err := l.Accept(p)
		if err != nil {
			return
		}
		for {
			if _, _, err := conn.Read(p, 1<<20); err != nil {
				return
			}
		}
	})
	c.Eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		conn, err := c.Nodes[1].Net.Dial(p, c.Addr(0), 80)
		if err != nil {
			wrErr = err
			return
		}
		for {
			if _, err := conn.Write(p, 8<<10, nil); err != nil {
				wrErr, errAt = err, p.Now()
				return
			}
		}
	})
	c.Run(2 * sim.Second)
	if !errors.Is(wrErr, sock.ErrReset) {
		return "", fmt.Errorf("writer got %v, want reset", wrErr)
	}
	if leaked := c.Nodes[1].Sub.ActiveSockets() + c.Nodes[1].Sub.EP.PrepostedDescriptors(); leaked != 0 {
		return "", fmt.Errorf("%d resources leaked after reset", leaked)
	}
	return fmt.Sprintf("reset %v after crash, no leaks", sim.Duration(errAt)-crashAt), nil
}

// nicPlan layers the kind's NIC clauses (aimed at client node 1's NIC)
// on the flap every chaos-nic row shares: fabric address 0, the
// server's substrate port (a Failover cluster's node i has substrate
// address 2i and TCP address 2i+1), goes down for 250 ms at a seed-stable
// instant in [5, 105) ms. The outage outlasts EMP's full retry budget
// (~190 ms), so a bare substrate connection dies with sock.ErrReset,
// while a session's health watchdog detects the wedge within tens of
// milliseconds and fails over to the TCP standby.
func nicPlan(kind string, seed uint64) *faults.Plan {
	const until = 400 * sim.Millisecond
	pl := &faults.Plan{
		Clauses: faults.FlapPhased(seed, 0, 5*sim.Millisecond, 100*sim.Millisecond, 250*sim.Millisecond, 1),
	}
	wedge := faults.FirmwareWedge(1, 10*sim.Millisecond, 110*sim.Millisecond)
	switch kind {
	case "doorbell":
		pl.NIC = append(pl.NIC, faults.DoorbellDrops(1, 0, until, 0.3))
	case "dma-stall":
		pl.NIC = append(pl.NIC, faults.DMAStalls(1, 0, until, 0.3, 200*sim.Microsecond))
	case "desc-flip":
		pl.NIC = append(pl.NIC, faults.DescFlips(1, 0, until, 0.2))
	case "credit-loss":
		pl.NIC = append(pl.NIC, faults.LostCreditUpdates(1, 0, until, 0.5))
	case "wedge":
		pl.NIC = append(pl.NIC, wedge)
	case "mixed":
		pl.NIC = append(pl.NIC,
			faults.DoorbellDrops(faults.Any, 0, until, 0.1),
			faults.DMAStalls(faults.Any, 0, until, 0.1, 200*sim.Microsecond),
			faults.DescFlips(faults.Any, 0, until, 0.05),
			faults.LostCreditUpdates(faults.Any, 0, until, 0.25),
			wedge,
		)
	}
	return pl
}

// suiteOps is the per-client request count of the self-healing suites.
func suiteOps(quick bool) int {
	if quick {
		return 16
	}
	return 24
}

// nicRows: each NIC-fault kind under web and kvstore over sessions, and
// the control rerunning the wedge plan on bare transports.
func nicRows(seed uint64, quick bool) []Scenario {
	n := suiteOps(quick)
	var rows []Scenario
	for _, kind := range []string{"doorbell", "dma-stall", "desc-flip", "credit-loss", "wedge", "flap", "mixed"} {
		rows = append(rows,
			row("web", kind, failover(4, seed, nicPlan(kind, seed), nil), web(sessionWeb(n, true), served),
				exact, noAppErrors, healed),
			row("kvstore", kind, failover(4, seed, nicPlan(kind, seed), nil), kv(sessionKV(n, false), complete),
				exact, noAppErrors, healed))
	}
	return append(rows, row("control", "wedge", failover(4, seed, nicPlan("wedge", seed), nil),
		web(sessionWeb(n, false), served), mustFail("recovery", nil)))
}

// fabricKillAt computes when a fabric failure lands: past connection
// setup, plus a seed-stable phase across one 8 ms think cycle, so the
// blackhole window slides across the clients' request bursts instead
// of always falling in the idle gap between them. The element never
// comes back — recovery must be a reroute, not a wait.
func fabricKillAt(seed uint64) sim.Duration {
	phase := sim.NewRand(seed^0xfab41c).Duration(0, 8*sim.Millisecond)
	return 10*sim.Millisecond + phase
}

// spineLeaf is the chaos-fabric topology: 2 leaves, 2 spines (switch
// ids 2 and 3), trunk l*2+s joining leaf l to spine s. The failure
// detector is deliberately slow, so live traffic dies on the dead
// element and the transports' retransmission must carry connections
// across the blackhole. noReroute freezes the tables (the control).
func spineLeaf(noReroute bool) *cluster.Topology {
	return &cluster.Topology{Leaves: 2, Spines: 2, DetectDelay: 5 * sim.Millisecond, NoReroute: noReroute}
}

// fabricPlan kills one trunk ("trunkN") or one spine ("spineN").
func fabricPlan(kind string, seed uint64) *faults.Plan {
	id := int(kind[len(kind)-1] - '0')
	if kind[:5] == "spine" {
		return &faults.Plan{SwitchCrashes: []faults.SwitchCrash{faults.SwitchDown(2+id, fabricKillAt(seed))}}
	}
	return &faults.Plan{Links: []faults.LinkClause{faults.LinkDown(id, fabricKillAt(seed), 0)}}
}

// fabricRows: every single trunk and spine kill under web and kvstore
// over sessions; the control rerunning a spine kill with rerouting
// frozen and sessions off; and the compound row, which wounds a
// client's NIC, kills trunk 0 and reboots the server in one run and
// must pass the fabric and restart predicates together (its quick leg
// runs only the kvstore row).
func fabricRows(seed uint64, quick bool) []Scenario {
	n := suiteOps(quick)
	failures := []string{"trunk0", "trunk1", "trunk2", "trunk3", "spine0", "spine1"}
	if quick {
		failures = []string{"trunk0", "spine1"}
	}
	var rows []Scenario
	for _, kind := range failures {
		rows = append(rows,
			row("web", kind, failover(4, seed, fabricPlan(kind, seed), spineLeaf(false)), web(sessionWeb(n, true), served),
				exact, noAppErrors, rerouted),
			row("kvstore", kind, failover(4, seed, fabricPlan(kind, seed), spineLeaf(false)), kv(sessionKV(n, false), complete),
				exact, noAppErrors, rerouted))
	}
	rows = append(rows, row("control", "spine0", failover(4, seed, fabricPlan("spine0", seed), spineLeaf(true)),
		web(sessionWeb(n, false), served), mustFail("reroute", nil)))
	compound := func() cluster.Config {
		pl := fabricPlan("trunk0", seed)
		pl.NIC = []faults.NICClause{faults.DoorbellDrops(1, 0, 400*sim.Millisecond, 0.3)}
		pl.Restarts = restartPlan(seed, 0).Restarts
		return failover(5, seed, pl, spineLeaf(false))
	}
	if !quick {
		rows = append(rows, row("web", "compound", compound(), web(sessionWeb(n, true), served),
			exact, noAppErrors, rerouted, reborn(true)))
	}
	return append(rows, row("kvstore", "compound", compound(), kv(sessionKV(n, true), durable),
		exact, noAppErrors, rerouted, reborn(true)))
}

// restartPlan crash-restarts one host, seed-phased across one client
// think cycle like the other fault instants. The 30 ms downtime is long
// enough that keepalives declare the host's connections dead and
// blocked peers ride the reconnect backoff, short enough that
// reattaches land well inside the server's reattach window.
func restartPlan(seed uint64, node int) *faults.Plan {
	return &faults.Plan{Restarts: []faults.Restart{
		faults.RestartPhased(seed, node, 10*sim.Millisecond, 8*sim.Millisecond, 30*sim.Millisecond),
	}}
}

// restartRows: every host of the web and replicated-kvstore clusters
// rebooted in turn, and the control rebooting a client under bare
// transports, whose connection must die of it with a reset.
func restartRows(seed uint64, quick bool) []Scenario {
	n := suiteOps(quick)
	webHosts := []string{"server", "client1", "client2", "client3"}
	kvHosts := []string{"primary", "client1", "client2", "client3", "backup"}
	webTargets, kvTargets := []int{0, 1, 2, 3}, []int{0, 1, 2, 3, 4}
	if quick {
		webTargets, kvTargets = []int{0, 1}, []int{0, 4}
	}
	var rows []Scenario
	for _, t := range webTargets {
		rows = append(rows, row("web", webHosts[t], failover(4, seed, restartPlan(seed, t), nil),
			web(sessionWeb(n, true), served), exact, noAppErrors, reborn(t == 0)))
	}
	for _, t := range kvTargets {
		rows = append(rows, row("kvstore", kvHosts[t], failover(5, seed, restartPlan(seed, t), nil),
			kv(sessionKV(n, true), durable), exact, noAppErrors, reborn(t == 0 || t == 4)))
	}
	return append(rows, row("control", "client1", failover(4, seed, restartPlan(seed, 1), nil),
		web(sessionWeb(n, false), served), mustFail("sessions", sock.ErrReset)))
}

// auditRows: every workload fault-free, a connect flood and a drain
// under late dialers; the audit is the whole verdict. The rows carry
// fixed seeds, so the suite runs once.
func auditRows(seed uint64, quick bool) []Scenario {
	if seed > 1 {
		return nil
	}
	ftpBytes, matN, conns := 4<<20, 128, 32
	if quick {
		ftpBytes, matN, conns = 1<<20, 64, 16
	}
	var rows []Scenario
	for _, tr := range transports {
		plain := func(nodes int, seed uint64) cluster.Config {
			return cluster.Config{Nodes: nodes, Transport: tr, Seed: seed}
		}
		rows = append(rows,
			row("ftp", tr.String(), plain(2, 1), ftp(ftpBytes, "%d bytes"), exact),
			row("web", tr.String(), plain(4, 2), web(apps.DefaultWebConfig(1024, 8), "%d requests"), exact),
			row("matmul", tr.String(), plain(4, 3), matmul(matN), exact))
	}
	rows = append(rows, row("flood", cluster.TransportSubstrate.String(), syncDial(5, cluster.TransportSubstrate, 4), flood, exact))
	for _, tr := range transports {
		rows = append(rows, row("drain", tr.String(), syncDial(3, tr, 5), drain(conns), exact))
	}
	return rows
}

// syncDial is a fault-free cluster whose substrate dials resolve
// synchronously with no retries, so refusals surface to the dialer.
func syncDial(nodes int, tr cluster.Transport, seed uint64) cluster.Config {
	cfg := cluster.Config{Nodes: nodes, Transport: tr, Seed: seed}
	if tr == cluster.TransportSubstrate {
		opts := core.DefaultOptions()
		opts.SyncConnect = true
		opts.DialRetries = 0
		cfg.Substrate = &opts
	}
	return cfg
}

// drain is the teardown scenario: a server holding live connections —
// every one mid-conversation with a blocked reader — is drained while
// late dialers keep arriving. The drain must finish within its
// deadline and every late dial must resolve with a typed refusal.
func drain(conns int) func(*cluster.Cluster) (string, error) {
	return func(c *cluster.Cluster) (string, error) {
		const port = 80
		accepted := 0
		var drainErr error
		drainDone := false
		c.Eng.Spawn("server", func(p *sim.Proc) {
			l, err := c.Nodes[0].Net.Listen(p, port, conns)
			if err != nil {
				return
			}
			for i := 0; i < conns; i++ {
				cn, err := l.Accept(p)
				if err != nil {
					break
				}
				accepted++
				c.Eng.Spawn("drain-handler", func(hp *sim.Proc) {
					for {
						n, _, err := cn.Read(hp, 64<<10)
						if err != nil || n == 0 {
							break
						}
					}
					cn.Close(hp)
				})
			}
		})
		for i := 0; i < conns; i++ {
			c.Eng.Spawn("drain-client", func(p *sim.Proc) {
				p.Sleep(sim.Duration(10+20*i) * sim.Microsecond)
				cn, err := c.Nodes[1+i%2].Net.Dial(p, c.Addr(0), port)
				if err != nil {
					return
				}
				cn.Write(p, 256, nil)
				// Block reading until the drain's shutdown delivers EOF.
				for {
					n, _, err := cn.Read(p, 64<<10)
					if err != nil || n == 0 {
						break
					}
				}
				cn.Close(p)
			})
		}
		c.Eng.Spawn("drainer", func(p *sim.Proc) {
			p.Sleep(20 * sim.Millisecond)
			drainErr = c.Nodes[0].Drain(p, p.Now().Add(100*sim.Millisecond))
			drainDone = true
		})
		refused, bad := 0, 0
		c.Eng.Spawn("late-dialer", func(p *sim.Proc) {
			p.Sleep(25 * sim.Millisecond)
			for i := 0; i < 4; i++ {
				switch _, err := c.Nodes[2].Net.Dial(p, c.Addr(0), port); err {
				case sock.ErrRefused, sock.ErrTimeout, sock.ErrClosed:
					refused++
				default:
					bad++
				}
			}
		})
		c.Run(10 * sim.Second)
		switch {
		case accepted != conns:
			return "", fmt.Errorf("%d/%d connections accepted", accepted, conns)
		case !drainDone:
			return "", errors.New("drain never completed")
		case drainErr != nil:
			return "", fmt.Errorf("drain: %w", drainErr)
		case bad > 0:
			return "", fmt.Errorf("%d late dials resolved without a typed refusal", bad)
		}
		return fmt.Sprintf("%d conns drained, %d late dials refused", conns, refused), nil
	}
}

// flood is the overload scenario: 128 synchronous dialers against a
// backlog-8 listener that never accepts. Every dialer must resolve with
// a typed error and the refusal policy must fire.
func flood(c *cluster.Cluster) (string, error) {
	const total = 128
	resolved, refused, bad := 0, 0, 0
	var l sock.Listener
	c.Eng.Spawn("server", func(p *sim.Proc) {
		l, _ = c.Nodes[0].Net.Listen(p, 80, 8)
	})
	for i := 0; i < total; i++ {
		c.Eng.Spawn("dialer", func(p *sim.Proc) {
			p.Sleep(sim.Duration(10+3*i) * sim.Microsecond)
			switch _, err := c.Nodes[1+i%4].Net.Dial(p, c.Addr(0), 80); err {
			case sock.ErrRefused:
				refused++
			case sock.ErrTimeout:
			default:
				bad++
			}
			resolved++
		})
	}
	c.Eng.Spawn("teardown", func(p *sim.Proc) {
		for resolved < total {
			p.Sleep(sim.Millisecond)
		}
		if l != nil {
			l.Close(p)
		}
	})
	c.Run(10 * sim.Second)
	switch {
	case resolved != total:
		return "", fmt.Errorf("%d/%d dialers resolved", resolved, total)
	case bad > 0:
		return "", fmt.Errorf("%d dialers got undefined errors", bad)
	case refused == 0:
		return "", errors.New("refusal policy never fired")
	}
	return fmt.Sprintf("%d dialers: %d refused, %d timed out", total, refused, total-refused), nil
}
