package serve

// Job bookkeeping: states, per-point counters, and the signal-latch
// event fan-out the streaming progress endpoint subscribes to.

import (
	"sync"
	"time"

	"accesys/internal/scenario"
	"accesys/internal/sweep"
)

// Job states. A job is unfinished in stateQueued and stateRunning and
// terminal in stateDone and stateFailed.
const (
	stateQueued  = "queued"
	stateRunning = "running"
	stateDone    = "done"
	stateFailed  = "failed"
)

// job is one submitted sweep.
type job struct {
	id     string
	client string
	name   string
	// scenario is dropped when the job finishes: its memo holds every
	// resolved run and fingerprinted point, which a retained job no
	// longer needs.
	scenario *scenario.Scenario
	manifest []byte
	full     bool

	mu        sync.Mutex
	state     string
	err       string
	total     int
	completed int
	cold      int // simulated here (flight leaders included)
	warm      int // served from the shared cache
	shared    int // adopted from a concurrent job's in-flight execution
	result    *scenario.Result
	submitted time.Time
	started   time.Time
	finished  time.Time
	subs      map[chan struct{}]bool
}

// observe is the job's sweep OnResult hook.
func (j *job) observe(r sweep.Result) {
	j.mu.Lock()
	j.completed++
	switch {
	case r.Cached:
		j.warm++
	case r.Shared:
		j.shared++
	default:
		j.cold++
	}
	j.mu.Unlock()
	j.publish()
}

// subscribe registers a progress listener: a capacity-1 signal latch.
// Every publish after (and one immediately, so the subscriber renders
// the current state) guarantees a pending signal; coalesced updates are
// fine because listeners re-snapshot on each signal.
func (j *job) subscribe() chan struct{} {
	ch := make(chan struct{}, 1)
	ch <- struct{}{}
	j.mu.Lock()
	if j.subs == nil {
		j.subs = map[chan struct{}]bool{}
	}
	j.subs[ch] = true
	j.mu.Unlock()
	return ch
}

func (j *job) unsubscribe(ch chan struct{}) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// publish latches a signal into every subscriber without blocking.
func (j *job) publish() {
	j.mu.Lock()
	for ch := range j.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	j.mu.Unlock()
}

// terminalState reports whether the job has reached done or failed.
func (j *job) terminalState() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == stateDone || j.state == stateFailed
}

// JobStatus is the wire form of a job's state — what poll, list, and
// the event stream serve.
type JobStatus struct {
	ID       string `json:"id"`
	Scenario string `json:"scenario"`
	Client   string `json:"client"`
	State    string `json:"state"`
	Error    string `json:"error,omitempty"`
	// Total is the point count of the expanded matrix; Completed counts
	// finished points, partitioned into Cold (simulated by this job,
	// in-flight leaders included), Warm (shared cache hits), and Shared
	// (adopted from another job's concurrent execution).
	Total     int `json:"total"`
	Completed int `json:"completed"`
	Cold      int `json:"cold"`
	Warm      int `json:"warm"`
	Shared    int `json:"shared"`
	// Timestamps are RFC 3339; started/finished are empty until reached.
	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
}

// terminal reports whether the status is final.
func (st JobStatus) terminal() bool {
	return st.State == stateDone || st.State == stateFailed
}

func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// status snapshots the job for the wire.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:          j.id,
		Scenario:    j.name,
		Client:      j.client,
		State:       j.state,
		Error:       j.err,
		Total:       j.total,
		Completed:   j.completed,
		Cold:        j.cold,
		Warm:        j.warm,
		Shared:      j.shared,
		SubmittedAt: stamp(j.submitted),
		StartedAt:   stamp(j.started),
		FinishedAt:  stamp(j.finished),
	}
}

// rows returns the rendered result once the job is done ("" state
// means not found is impossible here; ok is false while unfinished or
// failed).
func (j *job) rows() (*scenario.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state == stateDone && j.result != nil
}
