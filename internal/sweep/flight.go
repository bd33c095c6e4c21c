package sweep

// In-flight deduplication: a Flight coalesces concurrent cold
// executions of the same point so engines sharing one warm cache —
// the serve daemon running several clients' overlapping manifests at
// once — pay for each unique simulation exactly once. The cache
// already dedupes across time (a later run warm-hits an earlier one's
// entry); the Flight dedupes across *concurrency*, the window where
// two engines both miss and would otherwise both simulate.

import "sync"

// flightCall is one in-flight execution. done closes when the leader
// finishes; out is only read after that.
type flightCall struct {
	done chan struct{}
	out  Outcome
}

// Flight deduplicates concurrent executions by key (use the raw
// fingerprint's Digest). The zero value is ready; one Flight is meant
// to be shared by every engine working the same cache. It is safe for
// concurrent use.
type Flight struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

// Do executes fn once per key among concurrent callers: the first
// caller in (the leader) runs fn, everyone else arriving before it
// finishes blocks and adopts the leader's outcome. The boolean reports
// whether this caller led. Once a call completes its key is forgotten,
// so a later Do runs fn again — persistent memoisation is the cache's
// job, not the Flight's. A failed outcome (Err set) is handed to the
// followers like any other.
func (f *Flight) Do(key string, fn func() Outcome) (Outcome, bool) {
	f.mu.Lock()
	if f.calls == nil {
		f.calls = make(map[string]*flightCall)
	}
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		<-c.done
		return c.out, false
	}
	c := &flightCall{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()

	c.out = fn()
	f.mu.Lock()
	delete(f.calls, key)
	f.mu.Unlock()
	close(c.done)
	return c.out, true
}

// Inflight reports how many keys are currently executing — a health
// metric for the serve daemon's stats endpoint.
func (f *Flight) Inflight() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}
