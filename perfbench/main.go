// Command perfbench is the repository benchmark. It drives one workload
// through the public API of the simulated cluster — building it with
// cluster.New, running apps.RunWeb, apps.RunKVStore or its own
// ping-pong driver — and reports two kinds of numbers: the modelled
// system's, in virtual time, which repeat exactly for a seed, and the
// simulator's, in host wall time and memory.
//
//	bash perfbench/run.sh --workload web-pool --seed 3 --seconds 10 --trace 0
//
// For --seconds a run alternates timed set-ups (setup_s) with
// repetitions of set-up plus measured phase, checking every repetition:
// exact operation count, no application error, a clean resource audit,
// and virtual results identical to the first repetition's. With
// --trace 1 it alternates untraced and traced repetitions, writes every
// per-layer metric and the benchmark's spans to
// <out>/<workload>.trace.json, and reports the per-layer metrics. The
// last line of standard output is the JSON result. NOTES.md has the
// details.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	// The engine runs one simulated process at a time, handing control
	// between goroutines. On one CPU a handoff is a switch on the same
	// thread; on two, it is often a cross-CPU wakeup, whose latency on a
	// virtual machine was the least steady thing measured. One CPU also
	// puts the calibration sampler on the simulator's CPU.
	runtime.GOMAXPROCS(1)
	workload := flag.String("workload", "", "workload to run: sockperf, web-pool, web-tcp or kv-selfheal")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 10, "wall seconds of measured repetitions")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := flag.String("out", "out", "directory traced runs write their JSON to")
	flag.Parse()
	w, ok := findWorkload(*workload)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	r, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	printReport(os.Stdout, r)
	if r.traced {
		if err := writeTrace(*out, r); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(r.result()); err != nil {
		os.Exit(1)
	}
}

// A run times the workload's set-up setupReps/2 times before the first
// repetition, setupBatch times before each later one, and tops up to
// setupReps after the last. A single set-up takes well under a
// millisecond, far too short to time alone, and the host's speed
// drifts, so the samples are spread across the run.
//
// setup_s is their median in reference seconds: each set-up's wall time
// scaled by calibRef over the calibration time measured around it. Raw
// medians moved by 22% between two sets of runs of the same code, as
// the host's load changed, against a bound of 25% in BENCHMARK.json.
const (
	setupBatch = 40
	setupReps  = 400
	// calibRef is the reference host speed: one calibration sample
	// takes this long. It is about the median sample on the 2-vCPU VM
	// the benchmark was built on, so reference seconds are close to the
	// seconds measured there.
	calibRef = 5 * time.Millisecond
)

// minUntraced is the fewest untraced repetitions a run makes, however
// long they take: kv-selfheal's last 15-25 s each, and averaging two
// damps the part of wall_rel's spread that varies between repetitions.
const minUntraced = 2

// timeSetups times n set-ups, collecting garbage first so that no
// collection from earlier work overlaps them. Traced runs also time
// cluster.New alone.
func (r *report) timeSetups(w workload, n int) error {
	runtime.GC()
	for i := 0; i < n; i++ {
		var tr *tracer
		if r.traced {
			tr = newTracer()
		}
		start := time.Now()
		b, err := w.setup(r.seed, tr)
		if err != nil {
			return err
		}
		r.setup = append(r.setup, sample{start, time.Since(start)})
		teardown(b.c)
		r.builds = append(r.builds, tr.wallMs("cluster.New")...)
	}
	return nil
}

// rep is one measured repetition: set-up, then the measured phase.
type rep struct {
	traced   bool
	out      outcome
	virtual  map[string]float64 // virtual end-to-end and per-layer metrics
	start    time.Time
	wall     time.Duration // the measured phase
	alloc    uint64        // heap bytes allocated in the measured phase
	mallocs  uint64
	gcCycles uint32
}

// report is everything one run measured.
type report struct {
	workload string
	seed     uint64
	traced   bool
	reps     []rep
	calib    []sample
	setup    []sample // start and wall time of every timed set-up
	tr       *tracer  // the last traced repetition's tracer
	builds   []float64
	maxRSS   float64
	setupRaw float64  // median set-up wall time, in seconds
	problems []string // failed correctness checks
	e2e      map[string]float64
	layers   map[string]float64
}

func measure(w workload, seed uint64, seconds time.Duration, traced bool) (*report, error) {
	r := &report{workload: w.name, seed: seed, traced: traced}
	// Calibration samples are taken all through the run, repetitions
	// included, and set-ups are timed between repetitions: the host's
	// speed drifts within seconds, so each statistic spans the whole run.
	cal, err := startSampler(calibPeriod)
	if err != nil {
		return nil, err
	}
	err = r.collect(w, seconds)
	r.calib = cal.finish()
	if err != nil {
		return nil, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	r.maxRSS = float64(ru.Maxrss) / 1024 // KiB on Linux
	r.check()
	r.summarize()
	return r, nil
}

// collect warms up, then alternates timed set-ups with measured
// repetitions until the run has lasted seconds and has made at least
// minUntraced untraced repetitions; a traced run alternates untraced and
// traced repetitions and makes at least one traced.
func (r *report) collect(w workload, seconds time.Duration) error {
	for i := 0; i < 5; i++ {
		b, err := w.setup(r.seed, nil)
		if err != nil {
			return err
		}
		teardown(b.c)
	}
	start, untraced := time.Now(), 0
	for i := 0; ; i++ {
		n := setupBatch
		if i == 0 {
			n = setupReps / 2
		}
		if err := r.timeSetups(w, n); err != nil {
			return err
		}
		var tr *tracer
		if r.traced && i%2 == 1 {
			tr = newTracer()
			r.tr = tr
		}
		rp, err := repetition(w, r.seed, tr)
		if err != nil {
			return err
		}
		r.reps = append(r.reps, rp)
		if tr == nil {
			untraced++
		}
		if time.Since(start) >= seconds && untraced >= minUntraced && (!r.traced || i >= 1) {
			break
		}
	}
	return r.timeSetups(w, max(0, setupReps-len(r.setup)))
}

// repetition sets the workload up and runs its measured phase once.
func repetition(w workload, seed uint64, tr *tracer) (rep, error) {
	root := tr.begin("repetition", 0)
	b, err := w.setup(seed, tr)
	if err != nil {
		return rep{}, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	o := b.run(tr)
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	sp := tr.begin("read counters and audit", b.c.Eng.Now())
	v := virtualLayers(b, o)
	tr.end(sp, b.c.Eng.Now())
	tr.end(root, b.c.Eng.Now())
	teardown(b.c)
	v["lat_p50_us"] = o.lat.P50Us
	v["lat_tail_us"] = o.lat.TailUs
	v["lat_tail_pct"] = o.lat.TailPct
	v["lat_samples"] = float64(o.lat.N)
	v["goodput_mbps"] = ratio(float64(o.payloadBytes)*8/1e6, o.goodputSpan.Seconds())
	v["ops_per_s"] = ratio(float64(o.rated), o.opsSpan.Seconds())
	v["ok_frac"] = 1 - ratio(float64(failed(o)), float64(o.attempted))
	return rep{
		traced:   tr != nil,
		out:      o,
		virtual:  v,
		start:    start,
		wall:     wall,
		alloc:    m1.TotalAlloc - m0.TotalAlloc,
		mallocs:  m1.Mallocs - m0.Mallocs,
		gcCycles: m1.NumGC - m0.NumGC,
	}, nil
}

// failed counts a repetition's failed operations: those that never
// completed, and at least one when the application reported an error
// after completing them all (a failed read-your-writes probe).
func failed(o outcome) int {
	n := o.attempted - o.completed
	if n == 0 && o.err != nil {
		n = 1
	}
	return n
}

// check records every failed correctness check of the run.
func (r *report) check() {
	first, _ := json.Marshal(r.reps[0].virtual)
	for i, rp := range r.reps {
		o := rp.out
		if o.err != nil {
			r.problems = append(r.problems, fmt.Sprintf("repetition %d: %v", i, o.err))
		}
		if o.completed != o.attempted {
			r.problems = append(r.problems, fmt.Sprintf("repetition %d: %d of %d operations completed", i, o.completed, o.attempted))
		}
		if n := rp.virtual["audit.findings"]; n != 0 {
			r.problems = append(r.problems, fmt.Sprintf("repetition %d: %v resource-audit findings", i, n))
		}
		if got, _ := json.Marshal(rp.virtual); string(got) != string(first) {
			r.problems = append(r.problems, fmt.Sprintf("repetition %d: virtual results differ from repetition 0", i))
		}
	}
}

func (r *report) summarize() {
	var rels, traced, tracedRels, allocs, mallocs, gcs, setup, raw []float64
	for _, rp := range r.reps {
		if rp.traced {
			traced = append(traced, rp.wall.Seconds())
			tracedRels = append(tracedRels, ratio(rp.wall.Seconds(), pairedCalib(r.calib, rp.start, rp.wall)))
			mallocs = append(mallocs, ratio(float64(rp.mallocs), float64(rp.out.attempted)))
			gcs = append(gcs, float64(rp.gcCycles))
			continue
		}
		rels = append(rels, ratio(rp.wall.Seconds(), pairedCalib(r.calib, rp.start, rp.wall)))
		allocs = append(allocs, float64(rp.alloc)/(1<<20))
	}
	for _, s := range r.setup {
		raw = append(raw, s.dur.Seconds())
		setup = append(setup, ratio(s.dur.Seconds(), pairedCalib(r.calib, s.at, s.dur))*calibRef.Seconds())
	}
	r.setupRaw = median(raw)
	v := r.reps[0].virtual
	r.e2e = map[string]float64{
		"wall_rel":   median(rels),
		"setup_s":    median(setup),
		"alloc_mb":   median(allocs),
		"max_rss_mb": r.maxRSS,
	}
	for _, m := range endToEnd {
		if m.virtual {
			r.e2e[m.name] = v[m.name]
		}
	}
	if !r.traced {
		return
	}
	r.layers = map[string]float64{
		"sim.run_wall_ms":        median(traced) * 1e3,
		"runtime.mallocs_per_op": median(mallocs),
		"runtime.gc_cycles":      median(gcs),
		"cluster.build_ms":       median(r.builds),
		"bench.trace_overhead":   median(tracedRels)/median(rels) - 1,
	}
	for _, m := range perLayer {
		if m.virtual {
			r.layers[m.name] = v[m.name]
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is the JSON line that ends the output: end-to-end metrics when
// untraced, per-layer metrics when traced.
func (r *report) result() result {
	res := result{Correct: len(r.problems) == 0, Metrics: map[string]metricValue{}}
	for _, rp := range r.reps {
		res.Attempted += rp.out.attempted
		res.Failed += failed(rp.out)
	}
	defs, vals := endToEnd, r.e2e
	if r.traced {
		defs, vals = perLayer, r.layers
	}
	for _, m := range defs {
		res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
	}
	return res
}

func printReport(w io.Writer, r *report) {
	res := r.result()
	untraced := 0
	for _, rp := range r.reps {
		if !rp.traced {
			untraced++
		}
	}
	fmt.Fprintf(w, "perfbench %s seed=%d traced=%v: %d repetitions (%d untraced), %d set-ups, %d calibrations\n",
		r.workload, r.seed, r.traced, len(r.reps), untraced, len(r.setup), len(r.calib))
	v := r.reps[0].virtual
	fmt.Fprintf(w, "\n%-34s %16s  %s\n", "end-to-end", "value", "unit")
	for _, m := range endToEnd {
		note := ""
		switch m.name {
		case "lat_tail_us":
			note = fmt.Sprintf("  (p%.1f, %v samples beyond, n=%v)", v["lat_tail_pct"], r.reps[0].out.lat.Beyond, v["lat_samples"])
		case "setup_s":
			note = fmt.Sprintf("  (reference seconds; raw median %.6g s)", r.setupRaw)
		}
		fmt.Fprintf(w, "%-34s %16.6g  %s%s\n", m.name, r.e2e[m.name], m.unit, note)
	}
	fmt.Fprintf(w, "%-34s %16.6g  %s  (%d of %d operations failed)\n", "fail_frac",
		ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Failed, res.Attempted)
	if r.traced {
		fmt.Fprintf(w, "\n%-34s %16s  %s\n", "per-layer", "value", "unit")
		for _, m := range perLayer {
			fmt.Fprintf(w, "%-34s %16.6g  %s\n", m.name, r.layers[m.name], m.unit)
		}
	}
	if len(r.problems) > 0 {
		fmt.Fprintf(w, "\nINCORRECT:\n")
		for _, p := range r.problems {
			fmt.Fprintf(w, "  %s\n", p)
		}
	}
	fmt.Fprintln(w)
}

// traceFile is the traced run's JSON artifact.
type traceFile struct {
	Workload string                 `json:"workload"`
	Seed     uint64                 `json:"seed"`
	EndToEnd map[string]metricValue `json:"end_to_end"`
	PerLayer map[string]metricValue `json:"per_layer"`
	Spans    []span                 `json:"spans"`
	Calls    []callTotal            `json:"calls"`
	Problems []string               `json:"problems"`
}

func writeTrace(dir string, r *report) error {
	tf := traceFile{Workload: r.workload, Seed: r.seed, EndToEnd: map[string]metricValue{},
		PerLayer: map[string]metricValue{}, Problems: r.problems}
	for _, m := range endToEnd {
		tf.EndToEnd[m.name] = metricValue{r.e2e[m.name], m.unit}
	}
	for _, m := range perLayer {
		tf.PerLayer[m.name] = metricValue{r.layers[m.name], m.unit}
	}
	if r.tr != nil {
		tf.Spans = r.tr.spans
		tf.Calls = r.tr.callTotals()
	}
	blob, err := json.MarshalIndent(tf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, r.workload+".trace.json")
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
