package main

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// tailBeyond is how many samples must lie beyond the reported tail
// percentile.
const tailBeyond = 10

// latency summarizes one run's per-operation latencies in virtual time.
type latency struct {
	P50Us   float64 `json:"p50_us"`
	TailUs  float64 `json:"tail_us"`
	TailPct float64 `json:"tail_pct"` // the percentile TailUs reports
	Beyond  int     `json:"beyond"`   // samples above TailPct
	N       int     `json:"n"`
}

// tailRank picks the highest percentile, in tenths, that leaves at
// least tailBeyond of n samples beyond it, and the nearest rank (1-based)
// that percentile falls on.
func tailRank(n int) (tenths, rank int) {
	if n <= tailBeyond {
		return 1000, n
	}
	tenths = 1000 * (n - tailBeyond) / n
	rank = (tenths*n + 999) / 1000
	return tenths, rank
}

// latencyFromSamples summarizes exact samples by nearest rank.
func latencyFromSamples(samples []sim.Duration) latency {
	n := len(samples)
	if n == 0 {
		return latency{}
	}
	s := append([]sim.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	tenths, rank := tailRank(n)
	return latency{
		P50Us:   s[(n+1)/2-1].Micros(),
		TailUs:  s[rank-1].Micros(),
		TailPct: float64(tenths) / 10,
		Beyond:  n - rank,
		N:       n,
	}
}

// latencyFromHist summarizes an app's latency histogram (nanoseconds),
// whose percentiles interpolate within buckets.
func latencyFromHist(h *telemetry.Histogram) latency {
	n := int(h.Count())
	if n == 0 {
		return latency{}
	}
	tenths, rank := tailRank(n)
	return latency{
		P50Us:   h.Percentile(50) / 1e3,
		TailUs:  h.Percentile(float64(tenths)/10) / 1e3,
		TailPct: float64(tenths) / 10,
		Beyond:  n - rank,
		N:       n,
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
