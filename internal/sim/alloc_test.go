package sim

import "testing"

// Steady-state scheduling must be allocation-free: one-shot events
// come from the queue's freelist and return to it after dispatch, and
// the heap slice reaches a stable capacity. This is the regression
// gate for the zero-alloc event loop.
func TestScheduleDispatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	q := NewEventQueue()
	fn := func() {}
	// Warm the freelist and the heap slice.
	for i := 0; i < 64; i++ {
		q.Schedule(fn, q.Now()+1)
	}
	q.Run()

	const inner = 128
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < inner; i++ {
			q.Schedule(fn, q.Now()+1)
		}
		q.Run()
	})
	if allocs != 0 {
		t.Fatalf("schedule->dispatch cycle allocated %.2f per run, want 0", allocs)
	}
}

// A persistent NewEvent handle that reschedules itself must also run
// allocation-free: ScheduleEvent and Reschedule touch only the heap.
func TestRescheduleCycleAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	q := NewEventQueue()
	n := 0
	var e *Event
	e = q.NewEvent("tick", func() {
		n++
		if n%2 == 0 {
			q.ScheduleEvent(e, q.Now()+3, PriorityUpdate)
		}
	})
	q.ScheduleEvent(e, 1, PriorityDefault)
	q.Run()

	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			q.ScheduleEvent(e, q.Now()+1, PriorityDefault)
			q.Reschedule(e, q.Now()+2)
			q.Run()
		}
	})
	if allocs != 0 {
		t.Fatalf("schedule->reschedule->dispatch cycle allocated %.2f per run, want 0", allocs)
	}
}

// Steady-state lane traffic must be allocation-free too: once the ring
// has grown to the lane's depth, Push and dispatch touch only the ring
// and the lane's one heap slot. An ordinary event rides along so the
// lane's slot is re-keyed against other heap entries.
func TestLanePushDispatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	q := NewEventQueue()
	l := q.NewLane("lane")
	fn := func() {}
	cycle := func() {
		base := q.Now()
		for i := 0; i < 64; i++ {
			l.Push(fn, base+Tick(1+i/2))
		}
		q.Schedule(fn, base+16)
		q.Run()
	}
	cycle() // grow the ring and warm the freelist
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("lane push->dispatch cycle allocated %.2f per run, want 0", allocs)
	}
}

// A recycled one-shot handle that is rescheduled after firing must be
// pulled back out of the freelist, never handed out twice.
func TestRecycledHandleReschedule(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	q := NewEventQueue()
	n := 0
	e := q.Schedule(func() { n++ }, 5)
	q.Run()
	if n != 1 {
		t.Fatalf("fired %d times, want 1", n)
	}
	// e now sits in the freelist; rescheduling it must reclaim it.
	q.Reschedule(e, 10)
	e2 := q.Schedule(func() {}, 11)
	if e2 == e {
		t.Fatal("freelist handed out an event that was rescheduled")
	}
	q.Run()
	if n != 2 {
		t.Fatalf("fired %d times after reschedule, want 2", n)
	}
}

// Descheduling a one-shot event recycles it; the handle must then be
// reusable by the next Schedule call.
func TestDescheduleRecycles(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	q := NewEventQueue()
	e := q.Schedule(func() { t.Fatal("cancelled event fired") }, 5)
	q.Deschedule(e)
	e2 := q.Schedule(func() {}, 6)
	if e2 != e {
		t.Fatal("descheduled one-shot was not recycled")
	}
	q.Run()
}
