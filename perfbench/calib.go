package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// Host time is normalized by a calibration loop that a sampler
// goroutine times every calibPeriod for the whole run, repetitions
// included. Each repetition's wall time is divided by the samples taken
// around it (pairedCalib), because the host's speed drifts within
// seconds: sampling only between repetitions left a 37% spread on
// kv-selfheal, whose one repetition lasts about 15 s. The process runs
// Go on one CPU (see main), so the samples interleave in time with the
// simulator on the same CPU; each repetition's wall time includes the
// sampler's share, about a tenth.
const (
	calibPeriod = 50 * time.Millisecond
	// calibWindow is the shortest span of samples a repetition is
	// paired with, centred on the repetition.
	calibWindow = 2 * time.Second
	calibOps    = 20_000
	// calibArenaN events make 16 MB, well past the L2 cache, so the
	// loop feels memory contention as the simulator's heap does.
	calibArenaN = 1 << 20
)

// sample is one calibration measurement and when it was taken.
type sample struct {
	at  time.Time // midpoint
	dur time.Duration
}

// sampler takes one calibration sample every period on its own
// goroutine until finish is called. At 2-6 ms a sample it takes about a
// tenth of the CPU.
type sampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []sample
}

func startSampler(period time.Duration) (*sampler, error) {
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer cal.release()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				start := time.Now()
				d := cal.run()
				s.samples = append(s.samples, sample{start.Add(d / 2), d})
			}
		}
	}()
	return s, nil
}

// finish stops the sampler, waits for its goroutine to exit and
// returns the samples.
func (s *sampler) finish() []sample {
	close(s.stop)
	<-s.done
	return s.samples
}

// pairedCalib is the calibration time the host showed while a
// repetition ran from start for wall: the median of the samples taken
// in that span, widened to calibWindow around its middle.
func pairedCalib(samples []sample, start time.Time, wall time.Duration) float64 {
	half := max(wall, calibWindow) / 2
	mid := start.Add(wall / 2)
	var in []float64
	for _, s := range samples {
		if s.at.After(mid.Add(-half)) && s.at.Before(mid.Add(half)) {
			in = append(in, s.dur.Seconds())
		}
	}
	return median(in)
}

type calibEvent struct {
	at  uint64
	seq int
}

// calibrator holds the calibration loop's state, allocated once so that
// every sample touches the same memory and allocates nothing. The event
// arena is mapped outside the Go heap: a 16 MB live heap object would
// raise the garbage collector's target and so change how often the
// measured program collects.
type calibrator struct {
	mem   []byte
	arena []calibEvent
	heap  []int32
	index map[int]int32
	sink  uint64 // keeps the loop's result live
}

func newCalibrator() (*calibrator, error) {
	size := calibArenaN * int(unsafe.Sizeof(calibEvent{}))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map calibration arena: %w", err)
	}
	return &calibrator{
		mem:   mem,
		arena: unsafe.Slice((*calibEvent)(unsafe.Pointer(&mem[0])), calibArenaN),
		heap:  make([]int32, 0, 4096),
		index: make(map[int]int32, 4096),
	}, nil
}

func (c *calibrator) release() { _ = syscall.Munmap(c.mem) } // the process is ending the run either way

// run times a fixed loop that uses no repository code: a binary heap of
// events keyed by a xorshift clock, with a map index, the access pattern
// of a discrete-event engine. It allocates nothing and stores no
// pointers, so neither the garbage collector's state nor its write
// barriers change its speed.
func (c *calibrator) run() time.Duration {
	start := time.Now()
	ev, heap := c.arena, c.heap[:0]
	x := uint64(88172645463325252)
	var sum uint64
	for i := 0; i < calibOps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int32(x % calibArenaN)
		ev[j] = calibEvent{at: x % 1_000_000, seq: i}
		c.index[i%4096] = j
		heap = append(heap, j)
		for k := len(heap) - 1; k > 0; {
			parent := (k - 1) / 2
			if ev[heap[parent]].at <= ev[heap[k]].at {
				break
			}
			heap[parent], heap[k] = heap[k], heap[parent]
			k = parent
		}
		if len(heap) < 2048 {
			continue
		}
		sum += ev[heap[0]].at
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for k := 0; ; {
			l, r, m := 2*k+1, 2*k+2, k
			if l < len(heap) && ev[heap[l]].at < ev[heap[m]].at {
				m = l
			}
			if r < len(heap) && ev[heap[r]].at < ev[heap[m]].at {
				m = r
			}
			if m == k {
				break
			}
			heap[m], heap[k] = heap[k], heap[m]
			k = m
		}
	}
	c.sink += sum + uint64(len(c.index))
	return time.Since(start)
}
