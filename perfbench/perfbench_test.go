package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/sim"
)

// determinismSeed is the seed the determinism test runs at.
const determinismSeed = 7

// TestVirtualResultsRepeat runs every workload twice at one seed, first
// untraced and then traced, and requires the virtual end-to-end metrics
// and per-layer counts to be byte-identical: they depend on the seed
// alone, and tracing must not perturb the model. Each run must also pass
// the benchmark's correctness checks.
func TestVirtualResultsRepeat(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.name == "kv-selfheal" {
				t.Skip("kv-selfheal simulates to its 600 s horizon: about 15 s a run")
			}
			a, err := repetition(w, determinismSeed, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := repetition(w, determinismSeed, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			for _, rp := range []rep{a, b} {
				if rp.out.err != nil || rp.out.completed != rp.out.attempted || rp.virtual["audit.findings"] != 0 {
					t.Fatalf("run failed its checks: err=%v, %d of %d ops, %v audit findings",
						rp.out.err, rp.out.completed, rp.out.attempted, rp.virtual["audit.findings"])
				}
			}
			ja, _ := json.Marshal(a.virtual)
			jb, _ := json.Marshal(b.virtual)
			if string(ja) != string(jb) {
				for k, v := range a.virtual {
					if b.virtual[k] != v {
						t.Errorf("%s: %v, then %v", k, v, b.virtual[k])
					}
				}
				t.Fatalf("virtual results differ between two runs at seed %d", determinismSeed)
			}
		})
	}
}

func TestTailRankLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct{ n, tenths, rank int }{
		{1000, 990, 990},
		{2000, 995, 1990},
		{768, 986, 758},
		{11, 90, 1},
		{10, 1000, 10},
	} {
		tenths, rank := tailRank(tc.n)
		if tenths != tc.tenths || rank != tc.rank {
			t.Errorf("tailRank(%d) = p%d/10 rank %d, want p%d/10 rank %d", tc.n, tenths, rank, tc.tenths, tc.rank)
		}
	}
}

func TestLatencyFromSamples(t *testing.T) {
	var s []sim.Duration
	for i := 100; i >= 1; i-- {
		s = append(s, sim.Duration(i)*sim.Microsecond)
	}
	l := latencyFromSamples(s)
	if l.P50Us != 50 || l.TailUs != 90 || l.TailPct != 90 || l.Beyond != 10 || l.N != 100 {
		t.Errorf("latencyFromSamples = %+v, want p50 50, p90 90 with 10 beyond", l)
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json at the repository
// root lists exactly the metrics, in order and with the units, that the
// benchmark reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bench); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		got  []metric
		want []metricDef
	}{{"end_to_end", bench.EndToEnd, endToEnd}, {"per_layer", bench.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d reported", c.kind, len(c.got), len(c.want))
		}
		for i, m := range c.want {
			if c.got[i] != (metric{m.name, m.unit}) {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, the benchmark reports %s in %s", c.kind, i, c.got[i], m.name, m.unit)
			}
		}
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d defined", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, bench.Workloads[i].Name, w.name)
		}
	}
}
