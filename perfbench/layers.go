package main

import (
	"regexp"
	"strings"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/telemetry"
)

// metricDef names one reported metric. Virtual metrics are computed from
// the simulation alone and must repeat byte for byte at a seed; the rest
// are measured on the host.
type metricDef struct {
	name    string
	unit    string
	virtual bool
}

// endToEnd are the untraced run's metrics, in print order. fail_frac is
// printed beside them but reported in the JSON result as ok_frac, which
// is never 0 on a passing run.
var endToEnd = []metricDef{
	{"lat_p50_us", "us", true},
	{"lat_tail_us", "us", true},
	{"goodput_mbps", "Mbps", true},
	{"ops_per_s", "1/s", true},
	{"ok_frac", "ratio", true},
	{"wall_rel", "ratio", false},
	{"setup_s", "s", false},
	{"alloc_mb", "MiB", false},
	{"max_rss_mb", "MiB", false},
}

// perLayer are the traced run's metrics, named <module>.<metric>, in
// print order.
var perLayer = []metricDef{
	{"sim.end_virtual_s", "s", true},
	{"sim.live_procs_end", "count", true},
	{"sim.wakeups_per_op", "ratio", true},
	{"sim.run_wall_ms", "ms", false},
	{"runtime.mallocs_per_op", "ratio", false},
	{"runtime.gc_cycles", "count", false},
	{"cluster.build_ms", "ms", false},
	{"nic.tag_walked_per_lookup", "ratio", true},
	{"nic.post_wire_us", "us", true},
	{"ethernet.wire_match_us", "us", true},
	{"ethernet.fault_drops", "count", true},
	{"emp.retransmits_per_send", "ratio", true},
	{"emp.acks_per_msg", "ratio", true},
	{"emp.uq_peak_entries", "count", true},
	{"emp.desc_high_water", "count", true},
	{"emp.cache_miss_ratio", "ratio", true},
	{"emp.match_deliver_us", "us", true},
	{"emp.uq_deliver_us", "us", true},
	{"core.conns_accepted", "count", true},
	{"core.dial_retries", "count", true},
	{"core.refused_conns", "count", true},
	{"core.credit_stalls", "count", true},
	{"core.eager_deferrals", "count", true},
	{"core.dial_us", "us", true},
	{"core.write_post_us", "us", true},
	{"core.stage_read_us", "us", true},
	{"sock.poll_scanned_per_delivered", "ratio", true},
	{"sock.poll_waits_per_op", "ratio", true},
	{"sock.session_reconnects", "count", true},
	{"sock.session_failovers", "count", true},
	{"sock.session_resumes_reborn", "count", true},
	{"sock.session_replayed_bytes", "bytes", true},
	{"sock.session_failed", "count", true},
	{"apps.worker_events_skew", "ratio", true},
	{"kernel.cpu_util_bp", "bp", true},
	{"kernel.cpu_runs_per_op", "ratio", true},
	{"tcpip.rexmits_per_seg", "ratio", true},
	{"tcpip.delayed_acks", "count", true},
	{"tcpip.interrupts_per_op", "ratio", true},
	{"faults.injected", "count", true},
	{"audit.findings", "count", true},
	{"bench.trace_overhead", "ratio", false},
}

// stageMetrics files each latency/* span stage under the module that
// owns it.
var stageMetrics = map[string]string{
	"write->post":    "core.write_post_us",
	"post->wire":     "nic.post_wire_us",
	"wire->match":    "ethernet.wire_match_us",
	"match->deliver": "emp.match_deliver_us",
	"uq->deliver":    "emp.uq_deliver_us",
	"stage->read":    "core.stage_read_us",
}

var (
	workerEvents = regexp.MustCompile(`_worker\d+_events$`)
	coreRuns     = regexp.MustCompile(`^core\d+_runs$`)
	coreUtil     = regexp.MustCompile(`^core\d+_util_bp$`)
)

// counters flattens a snapshot's cluster-wide counters to "layer/metric".
func counters(s *telemetry.Snapshot) map[string]float64 {
	m := make(map[string]float64, len(s.Counters))
	for _, c := range s.Counters {
		if c.Conn == "" {
			m[c.Layer+"/"+c.Metric] += float64(c.Value)
		}
	}
	return m
}

// virtualLayers reads every virtual per-layer metric off a finished bed:
// the merged telemetry snapshot, the engine, the NICs, and — last,
// because it purges residual control traffic — the resource audit.
func virtualLayers(b *bed, o outcome) map[string]float64 {
	c := b.c
	ctr := counters(c.TelemetrySnapshot())
	ops := float64(o.attempted)
	m := map[string]float64{
		"sim.end_virtual_s":               c.Eng.Now().Micros() / 1e6,
		"sim.live_procs_end":              float64(c.Eng.LiveProcs()),
		"sim.wakeups_per_op":              ratio(float64(c.Eng.Wakeups()), ops),
		"emp.retransmits_per_send":        ratio(ctr["emp/retransmits"], ctr["emp/sends_posted"]),
		"emp.acks_per_msg":                ratio(ctr["emp/acks_sent"], ctr["emp/msgs_delivered"]),
		"emp.cache_miss_ratio":            ratio(ctr["emp/cache_misses"], ctr["emp/cache_hits"]+ctr["emp/cache_misses"]),
		"emp.uq_peak_entries":             maxOverNodes(c, "emp", "uq_peak_entries"),
		"emp.desc_high_water":             maxOverNodes(c, "emp", "desc_high_water"),
		"ethernet.fault_drops":            ctr["switch/fault_drops"] + ctr["switch/fault_partition_drops"],
		"core.conns_accepted":             ctr["core/conns_accepted"],
		"core.dial_retries":               ctr["core/dial_retries"],
		"core.refused_conns":              ctr["core/refused_conns"],
		"core.credit_stalls":              ctr["core/credit_stalls"],
		"core.eager_deferrals":            ctr["core/eager_deferrals"],
		"core.dial_us":                    b.dialUs,
		"sock.poll_scanned_per_delivered": ratio(ctr["poller/poll_scanned"], ctr["poller/poll_delivered"]),
		"sock.poll_waits_per_op":          ratio(ctr["poller/poll_waits"], ops),
		"sock.session_reconnects":         ctr["session/reconnects"],
		"sock.session_failovers":          ctr["session/failovers"],
		"sock.session_resumes_reborn":     ctr["session/resumes_reborn"],
		"sock.session_replayed_bytes":     ctr["session/replayed_bytes"],
		"sock.session_failed":             ctr["session/failed"],
		"tcpip.rexmits_per_seg":           ratio(ctr["tcp/rexmits"], ctr["tcp/segs_out"]),
		"tcpip.delayed_acks":              ctr["tcp/delayed_acks"],
		"tcpip.interrupts_per_op":         ratio(ctr["tcp/interrupts"], ops),
	}

	var walked, lookups, injected, workerMax, workerSum, workers, runs float64
	for _, n := range c.Nodes {
		if n.Sub != nil {
			walked += float64(n.Sub.EP.NIC.TagWalked.Value)
			lookups += float64(n.Sub.EP.NIC.TagLookups.Value)
			injected += float64(n.Sub.EP.NIC.FaultInjected())
		}
		injected += float64(n.Incarnation - 1) // crash-restarts performed
	}
	if c.Switch != nil {
		injected += float64(c.Switch.FaultStats().Total())
	}
	m["nic.tag_walked_per_lookup"] = ratio(walked, lookups)
	m["faults.injected"] = injected

	for k, v := range ctr {
		layer, metric, _ := strings.Cut(k, "/")
		switch {
		case layer == "apps" && workerEvents.MatchString(metric):
			workers++
			workerSum += v
			workerMax = max(workerMax, v)
		case layer == "cpu" && coreRuns.MatchString(metric):
			runs += v
		}
	}
	m["apps.worker_events_skew"] = ratio(workerMax, ratio(workerSum, workers))
	m["kernel.cpu_runs_per_op"] = ratio(runs, ops)
	m["kernel.cpu_util_bp"] = serverCPUUtil(c)

	for stage, name := range stageMetrics {
		m[name] = stageMeanUs(o.stages, stage)
	}

	for _, n := range c.Nodes {
		if n.Sub != nil && !n.Sub.Dead() {
			n.Sub.PurgeStale()
		}
	}
	m["audit.findings"] = float64(len(audit.Cluster(c).Findings))
	return m
}

// maxOverNodes is the largest per-node value of a counter: peaks and
// high-water marks do not add across nodes.
func maxOverNodes(c *cluster.Cluster, layer, metric string) float64 {
	var m float64
	for _, n := range c.Nodes {
		m = max(m, counters(n.Tel.Snapshot())[layer+"/"+metric])
	}
	return m
}

// serverCPUUtil is the mean per-core utilization of node 0, the server
// on every workload, in basis points.
func serverCPUUtil(c *cluster.Cluster) float64 {
	var sum, cores float64
	for k, v := range counters(c.Nodes[0].Tel.Snapshot()) {
		layer, metric, _ := strings.Cut(k, "/")
		if layer == "cpu" && coreUtil.MatchString(metric) {
			sum += v
			cores++
		}
	}
	return ratio(sum, cores)
}

// stageMeanUs is the mean of one latency/* span stage over every path
// and size class that recorded it, in microseconds.
func stageMeanUs(s *telemetry.Snapshot, stage string) float64 {
	if s == nil {
		return 0
	}
	var sum, count float64
	for _, h := range s.Hists {
		if h.Layer == "latency" && h.Conn == "" && strings.HasSuffix(h.Metric, "/"+stage) {
			sum += h.Sum
			count += float64(h.Count)
		}
	}
	return ratio(sum, count) / 1e3
}
