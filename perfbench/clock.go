package main

// Host-speed normalisation. A shared host's speed drifts by ±20% over
// tens of seconds as other tenants come and go — far more than the
// changes this benchmark should resolve, and slow enough that the median
// of a whole run drifts with it. So every run interleaves a fixed
// reference kernel (this file's code, not the simulator's) with the
// timed work, and reports each timed interval at the nominal host speed:
// its measured duration divided by how much slower than nominal the
// reference ran around it. A change to the simulator moves the timed
// work and not the reference; a slow stretch of the host moves both.
// Reference time never counts toward a timed interval.

import (
	"slices"
	"sort"
	"time"
)

const (
	// refEvery is how much timed work may run between two samples.
	refEvery = 50 * time.Millisecond
	// refWindow is how many samples, at least, an interval's host
	// speed is the median of, and how many a burst takes.
	refWindow = 7
	// refNominal is the reference kernel's time at the nominal host
	// speed: about its lower quartile on a 2-core x86-64 host.
	refNominal = 2700 * time.Microsecond
)

// timed is one timed interval: when it ran and how long its work took,
// reference-kernel time excluded.
type timed struct {
	a, b time.Time
	d    time.Duration
}

func interval(a, b time.Time, ref time.Duration) timed { return timed{a, b, b.Sub(a) - ref} }

// hostClock samples the host's speed with the reference kernel. It is
// used from one goroutine.
type hostClock struct {
	k     refKernel
	at    []time.Time // midpoint of each sample
	ref   []float64   // each sample's duration, s
	last  time.Time   // end of the last sample
	spent time.Duration
	alloc uint64 // bytes the samples allocated
}

// newHostClock runs the kernel a few times untimed, so that the heap
// has grown to hold it, and takes a first burst of samples.
func newHostClock() *hostClock {
	h := &hostClock{}
	for i := 0; i < 3; i++ {
		h.k.run()
	}
	h.burst()
	return h
}

func (h *hostClock) sample() {
	a0 := totalAlloc()
	start := time.Now()
	h.k.run()
	end := time.Now()
	h.alloc += totalAlloc() - a0
	h.at = append(h.at, start.Add(end.Sub(start)/2))
	h.ref = append(h.ref, end.Sub(start).Seconds())
	h.last = end
	h.spent += end.Sub(start)
}

// burst takes refWindow samples back to back.
func (h *hostClock) burst() {
	for i := 0; i < refWindow; i++ {
		h.sample()
	}
}

// tick takes one sample per refEvery of work since the last one, up to
// a burst after a long stretch; between short pieces of work it takes
// none.
func (h *hostClock) tick() {
	for n := min(int(time.Since(h.last)/refEvery), refWindow); n > 0; n-- {
		h.sample()
	}
}

// slowdown is how many times slower than nominal the host ran over
// [a, b]: the median of the samples taken in the interval, widened to
// the refWindow samples nearest to it, over refNominal.
func (h *hostClock) slowdown(a, b time.Time) float64 {
	lo := sort.Search(len(h.at), func(i int) bool { return !h.at[i].Before(a) })
	hi := sort.Search(len(h.at), func(i int) bool { return h.at[i].After(b) })
	for hi-lo < refWindow && (lo > 0 || hi < len(h.at)) {
		if hi == len(h.at) || (lo > 0 && a.Sub(h.at[lo-1]) <= h.at[hi].Sub(b)) {
			lo--
		} else {
			hi++
		}
	}
	return median(h.ref[lo:hi]) / refNominal.Seconds()
}

// secs is x's duration in seconds at the nominal host speed.
func (h *hostClock) secs(x timed) float64 { return x.d.Seconds() / h.slowdown(x.a, x.b) }

// total sums secs over xs.
func (h *hostClock) total(xs []timed) float64 {
	s := 0.0
	for _, x := range xs {
		s += h.secs(x)
	}
	return s
}

// summary describes the samples for the context line.
func (h *hostClock) summary() map[string]any {
	return map[string]any{
		"samples":        len(h.ref),
		"ref_ms":         summarize(scaled(h.ref, 1e3)),
		"ref_nominal_ms": ms(refNominal),
		"spent_s":        h.spent.Seconds(),
	}
}

func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// refKernel is the reference work, shaped like the simulator's: it
// fills a map of growing slices, sorts, and builds and walks a linked
// list, allocating about 1.5 MB per sample, which hostClock.alloc keeps
// out of alloc_mb_per_point. An allocation-free variant tracked the
// host worse: over five 30-second runs, serve-overlap's rates spread by
// 28% instead of 2%.
type refKernel struct{ sink int }

type refNode struct {
	next *refNode
	v    int
}

func (k *refKernel) run() {
	m := map[int][]int{}
	for i := 0; i < 60000; i++ {
		m[i%3000] = append(m[i%3000], i)
	}
	s := make([]int, 0, len(m))
	for key, v := range m {
		s = append(s, key*7+len(v))
	}
	slices.Sort(s)
	var head *refNode
	for i := 0; i < 20000; i++ {
		head = &refNode{head, i}
	}
	for n := head; n != nil; n = n.next {
		k.sink += n.v
	}
	k.sink += s[len(s)/2]
}
