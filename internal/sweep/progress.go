package sweep

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Progress prints one line per completed point with a completion
// count and an ETA derived from the wall times the engine measures:
// remaining points x mean measured wall time, divided by the worker
// count. Cache hits complete in ~zero time, so they advance the count
// without skewing the estimate.
//
// A single Engine already serialises its OnResult callbacks, but
// nothing stops two engines (a sweep and an equivalence audit sharing
// one cache, say) from observing into the same Progress from two
// goroutines, so Observe takes its own lock.
type Progress struct {
	w       io.Writer
	label   string
	total   int
	workers int

	mu       sync.Mutex
	done     int
	measured int
	wall     time.Duration
}

// NewProgress reports on a sweep of total points run by an engine with
// the given Jobs setting, prefixing every line with label. The ETA
// divides by the pool size the engine picks for that many points.
func NewProgress(w io.Writer, label string, total, jobs int) *Progress {
	return &Progress{w: w, label: label, total: total, workers: workers(jobs, total)}
}

// Observe records one completed point and prints its progress line.
func (p *Progress) Observe(r Result) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	detail := " (cached)"
	switch {
	case r.Cached:
	case r.Shared:
		// Adopted from a concurrent execution: advances the count like
		// a cache hit, and like one must not skew the wall estimate.
		detail = " (shared)"
	case r.Outcome.Err != nil:
		detail = " (failed)"
	default:
		p.measured++
		p.wall += r.Wall
		detail = fmt.Sprintf(" (%.1fs wall%s)", r.Wall.Seconds(), p.etaNote())
	}
	width := len(fmt.Sprintf("%d", p.total))
	fmt.Fprintf(p.w, "%s: [%*d/%d] %s -> %v%s\n",
		p.label, width, p.done, p.total, r.Key, r.Outcome.Dur, detail)
}

// etaNote estimates time to completion once at least one point has
// been measured; with nothing measured yet (or nothing left) it
// contributes nothing.
func (p *Progress) etaNote() string {
	remaining := p.total - p.done
	if p.measured == 0 || remaining == 0 {
		return ""
	}
	mean := p.wall / time.Duration(p.measured)
	eta := mean * time.Duration(remaining) / time.Duration(p.workers)
	return fmt.Sprintf(", ETA %v", eta.Round(time.Second))
}
