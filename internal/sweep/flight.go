package sweep

// In-flight deduplication: a Flight coalesces concurrent cold
// executions of the same point so engines sharing one warm cache —
// the serve daemon running several clients' overlapping manifests at
// once — pay for each unique simulation exactly once. The cache
// already dedupes across time (a later run warm-hits an earlier one's
// entry); the Flight dedupes across *concurrency*, the window where
// two engines both miss and would otherwise both simulate.
//
// A Flight built with NewFlight also carries the simulation budget of
// every engine sharing it: at most that many cold simulations run at
// once, whichever engine they belong to.

import "sync"

// Call is one in-flight execution of a key. Its leader lands the
// outcome once; every other joiner reads it with Wait.
type Call struct {
	key  string
	done chan struct{}
	out  Outcome
}

// Wait blocks until the call's leader lands and returns its outcome.
func (c *Call) Wait() Outcome {
	<-c.done
	return c.out
}

// Flight deduplicates concurrent executions by key (use the raw
// fingerprint's Digest). The zero value is ready and bounds nothing;
// one Flight is meant to be shared by every engine working the same
// cache. It is safe for concurrent use.
type Flight struct {
	mu    sync.Mutex
	calls map[string]*Call
	slots chan struct{} // one token per running cold simulation; nil: unbounded
}

// NewFlight returns a Flight whose engines together run at most slots
// cold simulations at once; slots <= 0 bounds nothing.
func NewFlight(slots int) *Flight {
	f := &Flight{}
	if slots > 0 {
		f.slots = make(chan struct{}, slots)
	}
	return f
}

// Join enters key's flight. When no execution of key is in flight the
// caller leads: it gets a fresh call, executes the point and must Land
// the outcome. Otherwise it gets the in-flight call and led is false;
// the caller may do other work before it Waits, so no joiner ever
// blocks a leader's progress.
func (f *Flight) Join(key string) (c *Call, led bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.calls == nil {
		f.calls = make(map[string]*Call)
	}
	if c, ok := f.calls[key]; ok {
		return c, false
	}
	c = &Call{key: key, done: make(chan struct{})}
	f.calls[key] = c
	return c, true
}

// Land publishes a leader's outcome to every joiner of c and forgets
// its key, so a later Join leads afresh — persistent memoisation is
// the cache's job, not the Flight's. A failed outcome (Err set) is
// handed to the joiners like any other.
func (f *Flight) Land(c *Call, out Outcome) {
	c.out = out
	f.mu.Lock()
	delete(f.calls, c.key)
	f.mu.Unlock()
	close(c.done)
}

// acquire takes a simulation slot, waiting while every slot is held.
// A nil or unbounded Flight admits at once.
func (f *Flight) acquire() {
	if f != nil && f.slots != nil {
		f.slots <- struct{}{}
	}
}

// release returns the slot acquire took.
func (f *Flight) release() {
	if f != nil && f.slots != nil {
		<-f.slots
	}
}

// Inflight reports how many keys are currently executing — a health
// metric for the serve daemon's stats endpoint.
func (f *Flight) Inflight() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}
