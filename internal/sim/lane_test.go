package sim

// Lane tests. The property test pins the equivalence a Lane promises:
// a random workload mixing lanes and ordinary events dispatches in
// exactly the order of a reference queue that schedules every lane
// item as its own event.

import (
	"math/rand"
	"strings"
	"testing"
)

// laneHarness drives one seeded random workload. With lanes set, lane
// items go through Lane.Push; without, each becomes its own event at
// PriorityDefault — the reference the lanes must match. Ordinary
// events take all three priority bands.
type laneHarness struct {
	q       *EventQueue
	rng     *rand.Rand
	lanes   []*Lane  // nil for the reference queue
	last    []Tick   // last pushed tick per lane
	pending []*Event // ordinary events, candidates for Deschedule
	log     [][2]uint64
	next    uint64
	budget  int
}

var laneTestPrios = []Priority{PriorityUpdate, PriorityDefault, PriorityStats}

func newLaneHarness(seed int64, nLanes int, useLanes bool) *laneHarness {
	h := &laneHarness{q: NewEventQueue(), rng: rand.New(rand.NewSource(seed)), budget: 600}
	h.last = make([]Tick, nLanes)
	if useLanes {
		for i := 0; i < nLanes; i++ {
			h.lanes = append(h.lanes, h.q.NewLane("lane"))
		}
	}
	return h
}

func (h *laneHarness) fired(id uint64) {
	h.log = append(h.log, [2]uint64{id, uint64(h.q.Now())})
	for k := h.rng.Intn(3); k > 0; k-- {
		h.addWork()
	}
	if h.rng.Intn(4) == 0 {
		h.cancel()
	}
}

// addWork adds one lane item or ordinary event, on a coarse tick grid
// so same-tick ties are common, often due at the current tick.
func (h *laneHarness) addWork() {
	if h.budget == 0 {
		return
	}
	h.budget--
	id := h.next
	h.next++
	fn := func() { h.fired(id) }
	now := h.q.Now()
	if h.rng.Intn(3) > 0 {
		i := h.rng.Intn(len(h.last))
		when := max(now, h.last[i]) + Tick(h.rng.Intn(4))*5
		h.last[i] = when
		if h.lanes != nil {
			h.lanes[i].Push(fn, when)
		} else {
			h.q.ScheduleEvent(h.q.NewEvent("ref", fn), when, PriorityDefault)
		}
		return
	}
	e := h.q.NewEvent("ev", fn)
	h.q.ScheduleEvent(e, now+Tick(h.rng.Intn(6))*5, laneTestPrios[h.rng.Intn(len(laneTestPrios))])
	h.pending = append(h.pending, e)
}

// cancel deschedules a random ordinary event (a no-op once it fired).
func (h *laneHarness) cancel() {
	if len(h.pending) > 0 {
		h.q.Deschedule(h.pending[h.rng.Intn(len(h.pending))])
	}
}

// run seeds the workload, then dispatches it in random runUntil
// windows, adding and cancelling work between windows. check, when
// non-nil, runs after every window.
func (h *laneHarness) run(check func()) {
	for i := 0; i < 40; i++ {
		h.addWork()
	}
	for h.q.Len() > 0 {
		runUntil(h.q, h.q.Now()+Tick(h.rng.Intn(40)))
		if check != nil {
			check()
		}
		if h.rng.Intn(2) == 0 {
			h.addWork()
		}
		h.cancel()
	}
}

func TestLaneDispatchMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		nLanes := 1 + int(seed%5)
		got := newLaneHarness(seed, nLanes, true)
		got.run(func() { checkAccounting(t, got.q, got.lanes...) })
		want := newLaneHarness(seed, nLanes, false)
		want.run(nil)

		if len(got.log) < 100 {
			t.Fatalf("seed %d: workload fired only %d items", seed, len(got.log))
		}
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: lanes fired %d items, reference %d", seed, len(got.log), len(want.log))
		}
		for i := range got.log {
			if got.log[i] != want.log[i] {
				t.Fatalf("seed %d: dispatch %d is (id, tick) %v with lanes, %v in the reference", seed, i, got.log[i], want.log[i])
			}
		}
		if got.q.Executed != want.q.Executed {
			t.Fatalf("seed %d: Executed %d with lanes, %d in the reference", seed, got.q.Executed, want.q.Executed)
		}
	}
}

// Same-tick items of a lane interleave with ordinary events by the
// sequence number each took at push time, not by when the lane's
// slot was last keyed.
func TestLaneSameTickInterleaving(t *testing.T) {
	q := NewEventQueue()
	l := q.NewLane("lane")
	var got []string
	add := func(s string) func() { return func() { got = append(got, s) } }
	q.Schedule(add("e0"), 5)
	l.Push(add("l1"), 5)
	q.Schedule(add("e2"), 5)
	l.Push(add("l3"), 5)
	l.Push(add("l4"), 7)
	q.Schedule(add("e5"), 6)
	if q.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (three events and one lane slot)", q.Len())
	}
	q.Run()
	if want := "e0 l1 e2 l3 e5 l4"; strings.Join(got, " ") != want {
		t.Fatalf("dispatch order %q, want %q", strings.Join(got, " "), want)
	}
	if q.Executed != 6 {
		t.Fatalf("Executed = %d, want 6", q.Executed)
	}
}

func TestLanePushOrderPanics(t *testing.T) {
	mustPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", name)
			}
			if msg, _ := r.(string); !strings.Contains(msg, want) {
				t.Fatalf("%s: panic %v, want it to mention %q", name, r, want)
			}
		}()
		f()
	}
	fn := func() {}

	q := NewEventQueue()
	l := q.NewLane("pipe")
	l.Push(fn, 10)
	mustPanic("before last", "before its last item", func() { l.Push(fn, 9) })
	l.Push(fn, 10) // a tie with the last item is fine

	q.Run()
	mustPanic("into the past", "before now", func() { l.Push(fn, 5) })
	runUntil(q, 50)
	mustPanic("past after a window", "before now", func() { l.Push(fn, 49) })
	l.Push(fn, 50)
	q.Run()
	if q.Executed != 3 {
		t.Fatalf("Executed = %d, want 3", q.Executed)
	}
}

// The ring grows past its initial size and keeps FIFO order across the
// wrap.
func TestLaneRingWraps(t *testing.T) {
	q := NewEventQueue()
	l := q.NewLane("lane")
	var got []int
	n := 0
	push := func(k int) {
		for ; k > 0; k-- {
			i := n
			n++
			l.Push(func() { got = append(got, i) }, q.Now()+Tick(i))
		}
	}
	push(6)
	runUntil(q, 3) // pops four, leaving the head mid-ring
	push(20)       // wraps, then grows
	if l.n != 22 {
		t.Fatalf("lane holds %d items, want 22", l.n)
	}
	q.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("item %d fired as %d: %v", i, v, got)
		}
	}
	if len(got) != n || l.n != 0 || q.Len() != 0 {
		t.Fatalf("fired %d of %d, lane holds %d, queue holds %d", len(got), n, l.n, q.Len())
	}
}
