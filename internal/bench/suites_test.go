package bench

import (
	"io"
	"os"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/faults"
)

// TestSuitesQuick runs the quick leg of every robustness suite — the
// table `make verify` also drives through cmd/reproduce — and requires
// every row to come out as expected.
func TestSuitesQuick(t *testing.T) {
	for _, tc := range []struct {
		suite string
		rows  int
	}{
		{"chaos", 7},         // 3 workloads x 2 transports + crash
		{"chaos-nic", 15},    // 7 fault kinds x 2 workloads + control
		{"chaos-fabric", 6},  // trunk0, spine1 x 2 workloads + control + compound kvstore
		{"chaos-restart", 5}, // 2 web hosts + 2 kvstore hosts + control
		{"audit", 9},         // 3 workloads x 2 transports + flood + 2 drains
	} {
		t.Run(tc.suite, func(t *testing.T) {
			rs := Suite(tc.suite, 5, true)
			if len(rs) != tc.rows {
				t.Errorf("%d rows, want %d", len(rs), tc.rows)
			}
			bad := false
			for _, r := range rs {
				if !r.OK {
					bad = true
					t.Errorf("%s/%s seed %d: %s", r.Workload, r.Label, r.Seed, r.Detail)
				}
			}
			var w io.Writer = io.Discard
			if testing.Verbose() || bad {
				w = os.Stdout
			}
			FprintSuite(w, tc.suite, rs)
		})
	}
}

// sessionWebReport runs web over sessions on a fresh 4-node Failover
// cluster (a single switch when topo is nil) under pl and returns the
// cluster's full run report. Every call builds its own engine and
// cluster, so two calls with the same seed share no state — only the
// seed.
func sessionWebReport(t *testing.T, seed uint64, pl *faults.Plan, topo *cluster.Topology) string {
	t.Helper()
	c := cluster.New(failover(4, seed, pl, topo))
	cfg := sessionWeb(12, true)
	res := apps.RunWeb(c, cfg)
	if res.Err != nil {
		t.Fatalf("seed %d: web workload failed: %v", seed, res.Err)
	}
	if want := cfg.Clients * cfg.RequestsPerClient; res.Requests != want {
		t.Fatalf("seed %d: %d of %d requests", seed, res.Requests, want)
	}
	return c.Report()
}

// fabricReport is sessionWebReport on a 2x2 spine-leaf fabric.
func fabricReport(t *testing.T, seed uint64, pl *faults.Plan) string {
	return sessionWebReport(t, seed, pl, &cluster.Topology{Leaves: 2, Spines: 2})
}

// TestFabricReportDeterministic is the end-to-end determinism
// guarantee for the fabric: the same seed and topology must hash every
// flow onto the same paths and produce a byte-identical run report —
// per-switch forward counts, per-trunk carry counts, everything —
// across two fully independent runs. ECMP path stability at the frame
// level is covered by ethernet's TestECMPDeterministicAcrossRuns; this
// pins the whole-stack consequence.
func TestFabricReportDeterministic(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		a := fabricReport(t, seed, nil)
		b := fabricReport(t, seed, nil)
		if a != b {
			t.Errorf("seed %d: reports differ across identical runs\n--- first ---\n%s\n--- second ---\n%s", seed, a, b)
		}
	}
	// Distinct seeds must actually steer ECMP differently somewhere —
	// otherwise the check above is vacuous.
	if fabricReport(t, 1, nil) == fabricReport(t, 2, nil) {
		t.Log("note: seeds 1 and 2 produced identical reports (hash collision across all flows)")
	}
}

// TestFabricReportDeterministicUnderFaults repeats the byte-identity
// check with a mid-run trunk kill in the plan: detection, reroute, and
// the retransmission storm it causes must all replay exactly.
func TestFabricReportDeterministicUnderFaults(t *testing.T) {
	seed := uint64(3)
	a := fabricReport(t, seed, fabricPlan("trunk0", seed))
	b := fabricReport(t, seed, fabricPlan("trunk0", seed))
	if a != b {
		t.Errorf("reports differ across identical faulted runs\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestRestartReportDeterministic pins end-to-end determinism across a
// mid-run server reboot: crash detection, the reconnect storm during
// the downtime window, listener resurrection, offset resume against
// the reborn incarnation, and replay must all replay exactly, down to
// a byte-identical run report, across two fully independent runs.
func TestRestartReportDeterministic(t *testing.T) {
	for _, seed := range []uint64{1, 4} {
		a := sessionWebReport(t, seed, restartPlan(seed, 0), nil)
		b := sessionWebReport(t, seed, restartPlan(seed, 0), nil)
		if a != b {
			t.Errorf("seed %d: reports differ across identical restart runs\n--- first ---\n%s\n--- second ---\n%s", seed, a, b)
		}
	}
}

// TestRestartFreePlanReportUnchanged is the zero-cost-off guarantee: a
// fault plan with no Restart clause must produce a run byte-identical
// to one with no plan at all — no boot-epoch skew in message IDs, no
// restart bookkeeping in the report, nothing.
func TestRestartFreePlanReportUnchanged(t *testing.T) {
	seed := uint64(2)
	a := sessionWebReport(t, seed, nil, nil)
	b := sessionWebReport(t, seed, &faults.Plan{}, nil)
	if a != b {
		t.Errorf("empty fault plan changed the report\n--- nil plan ---\n%s\n--- empty plan ---\n%s", a, b)
	}
}
