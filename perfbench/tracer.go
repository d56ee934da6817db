package main

import (
	"time"

	"repro/internal/sim"
)

// tracer records spans around the benchmark's calls into the program:
// wall time, and virtual time where the call runs on the engine. Spans
// of the host goroutine nest on a stack; per-message calls inside the
// ping-pong driver are folded into per-name totals instead of one span
// each. A nil tracer records nothing and reads no clock, which is the
// untraced mode.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	calls map[string]*callTotal
	order []string
}

type span struct {
	ID          int     `json:"id"`
	Parent      int     `json:"parent"` // 0: none
	Name        string  `json:"name"`
	WallStartUs float64 `json:"wall_start_us"`
	WallUs      float64 `json:"wall_us"`
	VirtStartUs float64 `json:"virt_start_us"`
	VirtUs      float64 `json:"virt_us"`
}

// callTotal aggregates every call of one name.
type callTotal struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	WallUs float64 `json:"wall_us"`
	VirtUs float64 `json:"virt_us"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), calls: map[string]*callTotal{}}
}

func (t *tracer) sinceUs() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// begin opens a span under the innermost open one, at virtual time at.
func (t *tracer) begin(name string, at sim.Time) int {
	if t == nil {
		return 0
	}
	parent := 0
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		WallStartUs: t.sinceUs(), VirtStartUs: at.Micros()})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int, at sim.Time) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.WallUs = t.sinceUs() - s.WallStartUs
	s.VirtUs = at.Micros() - s.VirtStartUs
	t.stack = t.stack[:len(t.stack)-1]
}

// now starts timing one call; it reads the clock only when tracing.
func (t *tracer) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// call adds one call of name that started at start (from now) and took
// virt of virtual time.
func (t *tracer) call(name string, start time.Time, virt sim.Duration) {
	if t == nil {
		return
	}
	c := t.calls[name]
	if c == nil {
		c = &callTotal{Name: name}
		t.calls[name] = c
		t.order = append(t.order, name)
	}
	c.Count++
	c.WallUs += float64(time.Since(start).Nanoseconds()) / 1e3
	c.VirtUs += virt.Micros()
}

func (t *tracer) callTotals() []callTotal {
	if t == nil {
		return nil
	}
	out := make([]callTotal, 0, len(t.order))
	for _, name := range t.order {
		out = append(out, *t.calls[name])
	}
	return out
}

// wallMs lists the wall time, in milliseconds, of every span called
// name.
func (t *tracer) wallMs(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.WallUs/1e3)
		}
	}
	return out
}
