package bench

import (
	"errors"
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/telemetry"
)

// The robustness suites (cmd/reproduce -chaos, -chaos-nic,
// -chaos-fabric, -chaos-restart, -audit) are tables of Scenario rows
// run by one driver: build the row's cluster, run its workload, harvest
// the union of the transport, NIC, fabric and session counters, audit
// every pool at quiescence, and judge the row by its predicates. A
// clean audit is required of every row: it is the machine-checked form
// of the paper's §5.3 claim that every descriptor is either used or
// unposted, extended across faults, crashes, floods and teardown.

// Scenario is one row of a robustness suite.
type Scenario struct {
	Suite string
	// Workload is "web", "kvstore", "ftp", "matmul", one of the bespoke
	// procs ("crash", "flood", "drain"), or "control".
	Workload string
	// Label names the row within its workload: the transport, the
	// fault kind, the failed fabric element, or the rebooted host.
	Label   string
	Seed    uint64
	Cluster cluster.Config
	// Run drives the workload on the row's cluster and returns its
	// success text, or an error when it failed or its output is short.
	Run func(c *cluster.Cluster) (string, error)
	// Expect holds the pass predicates, judged in order once the run is
	// harvested; the first that fails names why the row failed.
	Expect []Expect
}

// Expect judges a harvested row: "" when it holds, else why not.
type Expect func(r *Result) string

// Result is one executed row.
type Result struct {
	Scenario
	OK     bool
	Detail string
	// Err is what Run returned: the app-visible error or short output.
	Err error
	Counters
	// Findings is the leak audit after the run; any finding fails the row.
	Findings []audit.Finding
	// FlightDumps carries the flight-recorder rings captured when
	// connections died (sock.ErrReset) or the audit found leaks: what
	// each connection was doing when it went wrong.
	FlightDumps []telemetry.Dump
}

// Counters is the union of every suite's per-run counters, summed over
// the cluster.
type Counters struct {
	// Rexmits is the transports' recovery work: EMP retransmits plus
	// TCP (fast) retransmissions. FCSDrops counts corrupted frames
	// rejected before any payload reached EMP or TCP.
	Rexmits, FCSDrops int64
	// Injected counts link-fault firings at a single switch,
	// NICInjected NIC-domain firings (doorbells, DMA stalls, descriptor
	// flips, credit losses, wedge stalls).
	Injected, NICInjected int64
	// Reroutes counts fabric route recomputations; Blackholed counts
	// frames lost on dead trunks or for want of a live route.
	Reroutes, Blackholed int64
	// Session-layer recovery work. SessionsFailed counts sessions that
	// surfaced an error to the application.
	Reconnects, Failovers, Reattaches           int64
	ResumesReborn, ResumesStale, SessionsFailed int64
	// Incarnation is the highest boot count of any node: 2 once a
	// restarted host is back.
	Incarnation int64
}

// runScenario is the one driver every suite row goes through.
func runScenario(s Scenario) Result {
	c := cluster.New(s.Cluster)
	r := Result{Scenario: s, OK: true}
	r.Detail, r.Err = s.Run(c)
	harvest(c, &r)
	for _, ex := range s.Expect {
		if why := ex(&r); why != "" {
			r.OK, r.Detail = false, why
			break
		}
	}
	if len(r.Findings) > 0 {
		r.OK = false
		r.Detail += fmt.Sprintf("; %d audit finding(s): %s", len(r.Findings), r.Findings[0])
	}
	return r
}

// harvest sums the cluster's counters, purges residual control
// traffic exactly as a real teardown would, audits every pool, and
// collects the flight dumps.
func harvest(c *cluster.Cluster, r *Result) {
	if c.Switch != nil {
		r.Injected = c.Switch.FaultStats().Total()
	}
	if fb := c.Fabric; fb != nil {
		r.Reroutes = fb.Reroutes()
		r.Blackholed = fb.RouteDrops()
		for _, t := range fb.Trunks() {
			ab, ba := t.Drops()
			r.Blackholed += ab + ba
		}
	}
	for _, n := range c.Nodes {
		if n.Sub != nil {
			r.FCSDrops += n.Sub.EP.NIC.FCSErrors.Value
			r.Rexmits += int64(n.Sub.EP.Stats().Retransmits)
			r.NICInjected += n.Sub.EP.NIC.FaultInjected()
		}
		if n.Stack != nil {
			r.FCSDrops += n.Stack.ChecksumDrops.Value
			r.Rexmits += n.Stack.Rexmits.Value + n.Stack.FastRetransmits.Value
		}
		session := func(metric string) int64 { return n.Tel.Counter("session", metric).Value() }
		r.Reconnects += session("reconnects")
		r.Failovers += session("failovers")
		r.Reattaches += session("reattaches")
		r.ResumesReborn += session("resumes_reborn")
		r.ResumesStale += session("resumes_stale")
		r.SessionsFailed += session("failed")
		r.Incarnation = max(r.Incarnation, int64(n.Incarnation))
		if n.Sub != nil && !n.Sub.Dead() {
			n.Sub.PurgeStale()
		}
	}
	r.Findings = audit.Cluster(c).Findings
	if len(r.Findings) > 0 {
		// The auditor cannot always name the guilty connection: capture
		// every live ring as context.
		for _, n := range c.Nodes {
			n.Tel.DumpAllFlights("audit-leak")
		}
	}
	r.FlightDumps = c.FlightDumps()
}

// exact: the workload finished with exact output (for the bespoke
// procs, their own criterion held).
func exact(r *Result) string {
	if r.Err != nil {
		return r.Err.Error()
	}
	return ""
}

// noAppErrors: no session surfaced an error to the application.
func noAppErrors(r *Result) string {
	if r.SessionsFailed > 0 {
		return fmt.Sprintf("%d session(s) surfaced an error to the app", r.SessionsFailed)
	}
	return ""
}

// healed is NIC recovery evidence: the faults forced the session layer
// to reconnect, fail over or reattach.
func healed(r *Result) string {
	if r.Reconnects+r.Failovers+r.Reattaches == 0 {
		return "no reconnect or failover recorded — the plan never bit the session layer"
	}
	return ""
}

// rerouted is fabric recovery evidence: the fabric's detector tripped
// and it recomputed routes around the failure.
func rerouted(r *Result) string {
	if r.Reroutes == 0 {
		return "no reroute recorded — the failure never tripped the fabric's detector"
	}
	return ""
}

// reborn is restart recovery evidence: the rebooted host is back as
// incarnation 2, and a session resumed against it (server-side hosts)
// or reconnected from it (clients).
func reborn(serverSide bool) Expect {
	return func(r *Result) string {
		switch {
		case r.Incarnation != 2:
			return fmt.Sprintf("restarted node at incarnation %d, want 2", r.Incarnation)
		case serverSide && r.ResumesReborn == 0:
			return "no session resumed against the reborn incarnation"
		case !serverSide && r.Reconnects == 0:
			return "no session reconnected across the client reboot"
		}
		return ""
	}
}

// mustFail is the control predicate: with the recovery machinery named
// by without switched off, the same faults must make the workload fail
// (with want, when non-nil) — else the faults are toothless and the
// suite's passing rows prove nothing. A control that holds reports the
// failure it saw as its detail.
func mustFail(without string, want error) Expect {
	return func(r *Result) string {
		switch {
		case r.Err == nil:
			return "completed without " + without + " — the faults no longer bite"
		case want != nil && !errors.Is(r.Err, want):
			return fmt.Sprintf("failed with %v, want %v", r.Err, want)
		}
		r.Detail = fmt.Sprintf("failed as it must without %s: %v", without, r.Err)
		return ""
	}
}

// suite is one robustness report: its title, the header of its label
// column, the counters it prints, and the builder of one seed's rows.
type suite struct {
	title, label string
	cols         []string
	rows         func(seed uint64, quick bool) []Scenario
}

// counterCols names every printable counter.
var counterCols = map[string]func(r *Result) int64{
	"rexmits":    func(r *Result) int64 { return r.Rexmits },
	"fcsdrops":   func(r *Result) int64 { return r.FCSDrops },
	"injected":   func(r *Result) int64 { return r.Injected },
	"nicfaults":  func(r *Result) int64 { return r.NICInjected },
	"reroutes":   func(r *Result) int64 { return r.Reroutes },
	"blackholed": func(r *Result) int64 { return r.Blackholed },
	"reconnect":  func(r *Result) int64 { return r.Reconnects },
	"failover":   func(r *Result) int64 { return r.Failovers },
	"reattach":   func(r *Result) int64 { return r.Reattaches },
	"reborn":     func(r *Result) int64 { return r.ResumesReborn },
	"stale":      func(r *Result) int64 { return r.ResumesStale },
	"inc":        func(r *Result) int64 { return r.Incarnation },
	"leaks":      func(r *Result) int64 { return int64(len(r.Findings)) },
}

// SuiteNames lists the robustness suites in report order.
var SuiteNames = []string{"chaos", "chaos-nic", "chaos-fabric", "chaos-restart", "audit"}

// Suite builds and runs one robustness suite over seeds 1..seeds (seed
// 1 only when quick, which also shrinks every row).
func Suite(name string, seeds int, quick bool) []Result {
	if quick || seeds < 1 {
		seeds = 1
	}
	var rs []Result
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		for _, s := range suites[name].rows(seed, quick) {
			s.Suite = name
			rs = append(rs, runScenario(s))
		}
	}
	return rs
}

// FprintSuite renders a suite report: one line per row with the
// suite's counters, then the post-mortems — audit findings and flight
// dumps — of every failed row and of crash rows, whose reset is the
// outcome under test.
func FprintSuite(w io.Writer, name string, rs []Result) {
	s := suites[name]
	fmt.Fprintf(w, "=== %s: %s ===\n", name, s.title)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\t%s\tseed\tok\t", s.label)
	for _, col := range s.cols {
		fmt.Fprintf(tw, "%s\t", col)
	}
	fmt.Fprintln(tw, "detail")
	ok := 0
	for i := range rs {
		r := &rs[i]
		status := "FAIL"
		if r.OK {
			status = "ok"
			ok++
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t", r.Workload, r.Label, r.Seed, status)
		for _, col := range s.cols {
			fmt.Fprintf(tw, "%d\t", counterCols[col](r))
		}
		fmt.Fprintln(tw, r.Detail)
	}
	tw.Flush()
	for _, r := range rs {
		if r.OK && r.Workload != "crash" {
			continue
		}
		fmt.Fprintf(w, "--- %s %s seed %d\n", r.Workload, r.Label, r.Seed)
		for _, f := range r.Findings {
			fmt.Fprintf(w, "    %s\n", f)
		}
		for _, d := range r.FlightDumps {
			telemetry.FprintDump(w, d)
		}
	}
	fmt.Fprintf(w, "runs: %d/%d as expected\n\n", ok, len(rs))
}
