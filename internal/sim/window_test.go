package sim

// Freelist-accounting regression tests for windowed execution: when a
// runUntil window returns with events still scheduled, pending pooled
// events must neither leak out of the accounting nor be recycled
// while still queued. The invariant checks below walk both the
// pending slice and the freelist by identity, so a double-recycle
// (one handle at two freelist slots, or queued and free at once)
// fails loudly instead of corrupting a later window.

import (
	"math/rand"
	"testing"
)

// runUntil dispatches the events due at or before limit, leaving later
// ones queued, and then advances the clock to limit whether or not the
// queue drained first. The window tests and the fuzz target chop their
// workloads with it; the simulator itself only ever runs to drain.
func runUntil(q *EventQueue, limit Tick) {
	for n := len(q.pending); n > 0 && q.pending[n-1].when <= limit; n = len(q.pending) {
		q.Step()
	}
	q.now = max(q.now, limit)
}

// checkAccounting verifies the pending/freelist bookkeeping
// invariants: the pending slice is sorted latest-first, every pending
// entry knows its index and is not simultaneously free, every freelist
// entry knows its slot and is not simultaneously queued, and no handle
// appears twice anywhere. Each given lane holds a pending slot exactly
// when it has items, keyed by its head item.
func checkAccounting(t *testing.T, q *EventQueue, lanes ...*Lane) {
	t.Helper()
	seen := make(map[*Event]string, len(q.pending)+len(q.free))
	for i, e := range q.pending {
		if e.index != i {
			t.Fatalf("pending[%d] has index %d", i, e.index)
		}
		if i > 0 && !eventLess(e, q.pending[i-1]) {
			t.Fatalf("pending[%d] does not dispatch before pending[%d]", i, i-1)
		}
		if e.freeIdx >= 0 {
			t.Fatalf("pending[%d] also sits in the freelist at %d", i, e.freeIdx)
		}
		if where, dup := seen[e]; dup {
			t.Fatalf("event in pending[%d] already seen at %s", i, where)
		}
		seen[e] = "pending"
	}
	for i, e := range q.free {
		if e.freeIdx != i {
			t.Fatalf("free[%d] has freeIdx %d", i, e.freeIdx)
		}
		if e.index >= 0 {
			t.Fatalf("free[%d] is also pending at pending index %d", i, e.index)
		}
		if where, dup := seen[e]; dup {
			t.Fatalf("event in free[%d] already seen at %s", i, where)
		}
		seen[e] = "free"
	}
	for i, l := range lanes {
		if l.n == 0 {
			if l.ev.Pending() {
				t.Fatalf("empty lane %d still holds pending slot %d", i, l.ev.index)
			}
			continue
		}
		if seen[&l.ev] != "pending" {
			t.Fatalf("lane %d holds %d items but no pending slot", i, l.n)
		}
		head := l.items[l.head]
		if l.ev.when != head.when || l.ev.seq != head.seq {
			t.Fatalf("lane %d slot keyed (%v, %d), head item is (%v, %d)", i, l.ev.when, l.ev.seq, head.when, head.seq)
		}
	}
}

// TestRunUntilPendingEventsStayAccounted drives a random windowed
// workload — every window ends with events and lane items still
// pending — and checks the accounting after each window, after a
// drain to completion, and across a reuse cycle.
func TestRunUntilPendingEventsStayAccounted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := NewEventQueue()
	lanes := []*Lane{q.NewLane("a"), q.NewLane("b")}
	laneLast := make([]Tick, len(lanes))
	fired := 0
	var schedule func(depth int)
	schedule = func(depth int) {
		fn := func() {
			fired++
			if depth > 0 && rng.Intn(2) == 0 {
				schedule(depth - 1)
			}
		}
		when := q.Now() + Tick(1+rng.Intn(40))
		if i := rng.Intn(3); i < len(lanes) {
			when = max(when, laneLast[i])
			laneLast[i] = when
			lanes[i].Push(fn, when)
			return
		}
		q.Schedule(fn, when)
	}
	for i := 0; i < 64; i++ {
		schedule(3)
	}
	for limit := Tick(10); q.Len() > 0; limit += 10 {
		runUntil(q, limit)
		checkAccounting(t, q, lanes...)
		if q.Now() != limit {
			t.Fatalf("runUntil(%d) left now at %d", limit, q.Now())
		}
	}
	if fired == 0 {
		t.Fatal("workload never fired")
	}
	// Everything recycled exactly once: schedule again from the
	// freelist and drain; the free count must return to its high-water
	// mark, not grow (leak) or shrink (lost handle).
	high := len(q.free)
	for i := 0; i < high; i++ {
		q.Schedule(func() {}, q.Now()+1)
	}
	checkAccounting(t, q)
	if len(q.free) != 0 {
		t.Fatalf("freelist holds %d after draining it via Schedule", len(q.free))
	}
	q.Run()
	checkAccounting(t, q)
	if len(q.free) != high {
		t.Fatalf("freelist holds %d after redispatch, want %d", len(q.free), high)
	}
}

// TestDescheduleAcrossWindows pins that descheduling and rescheduling
// pooled events around a window boundary keeps the accounting exact (a
// cancelled one-shot returns to the freelist; pulling it back out
// un-frees it).
func TestDescheduleAcrossWindows(t *testing.T) {
	q := NewEventQueue()
	a := q.Schedule(func() {}, 100)
	b := q.Schedule(func() {}, 200)
	runUntil(q, 50) // nothing fires; both still pending
	checkAccounting(t, q)

	q.Deschedule(a) // cancelled one-shot returns to the freelist
	checkAccounting(t, q)
	if got := q.Schedule(func() {}, 60); got != a {
		t.Fatalf("Schedule did not reuse the cancelled handle")
	}
	checkAccounting(t, q)

	q.Reschedule(b, 70)
	checkAccounting(t, q)
	q.Run()
	checkAccounting(t, q)
	if len(q.free) != 2 {
		t.Fatalf("freelist holds %d, want both handles back", len(q.free))
	}
}

// TestWindowedDispatchAllocFree extends the zero-alloc gate to
// windowed execution: repeated runUntil windows with events pending
// across every boundary must not allocate.
func TestWindowedDispatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	q := NewEventQueue()
	fn := func() {}
	for i := 0; i < 64; i++ {
		q.Schedule(fn, q.Now()+Tick(i))
	}
	q.Run()

	allocs := testing.AllocsPerRun(100, func() {
		base := q.Now()
		for i := 0; i < 64; i++ {
			q.Schedule(fn, base+Tick(1+i))
		}
		// Four windows, each leaving later events pending.
		for w := Tick(16); w <= 64; w += 16 {
			runUntil(q, base+w)
		}
	})
	if allocs != 0 {
		t.Fatalf("windowed dispatch allocated %.2f per run, want 0", allocs)
	}
}

// TestWindowedDispatchOrderMatchesRun pins that chopping a schedule
// into runUntil windows cannot change the dispatch order: the same
// seeded workload replayed on a fresh queue under Run() fires
// identically.
func TestWindowedDispatchOrderMatchesRun(t *testing.T) {
	build := func() (*EventQueue, *[]Tick) {
		rng := rand.New(rand.NewSource(11))
		q := NewEventQueue()
		log := &[]Tick{}
		var schedule func(depth int)
		schedule = func(depth int) {
			q.Schedule(func() {
				*log = append(*log, q.Now())
				if depth > 0 && rng.Intn(2) == 0 {
					schedule(depth - 1)
				}
			}, q.Now()+Tick(1+rng.Intn(30)))
		}
		for i := 0; i < 48; i++ {
			schedule(4)
		}
		return q, log
	}

	qa, la := build()
	for qa.Len() > 0 {
		runUntil(qa, qa.Now()+7)
	}
	qb, lb := build()
	qb.Run()

	if len(*la) != len(*lb) {
		t.Fatalf("windowed run fired %d events, sequential %d", len(*la), len(*lb))
	}
	for i := range *la {
		if (*la)[i] != (*lb)[i] {
			t.Fatalf("dispatch %d at tick %v windowed vs %v sequential", i, (*la)[i], (*lb)[i])
		}
	}
}
