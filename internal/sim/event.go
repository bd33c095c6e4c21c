package sim

import (
	"fmt"
	"runtime"
)

// Priority orders events that fire on the same tick. Lower values run
// first. The bands follow gem5's convention: component state updates
// run before default-priority work, stat dumps run last.
type Priority int

// Priority bands for same-tick ordering.
const (
	PriorityUpdate  Priority = -100 // internal state updates
	PriorityDefault Priority = 0    // normal component events
	PriorityStats   Priority = 100  // statistics collection
)

// Event is a scheduled closure. Events are created by EventQueue and
// may be rescheduled or cancelled while pending. An Event value must
// not be shared across queues.
//
// Events returned by Schedule/ScheduleAfter are recycled into the
// queue's freelist once they fire (or are descheduled) and may be
// handed out again by a later Schedule call. Holding such a handle
// past its dispatch is safe only if nothing else schedules in
// between; components that keep and reschedule an event long-term
// must create it with NewEvent, which never recycles.
type Event struct {
	fn      func()
	when    Tick
	prio    Priority
	seq     uint64
	index   int // position in the pending slice, -1 when not queued
	freeIdx int // freelist index, -1 when not in the freelist
	recycle bool
	name    string
}

// When reports the tick the event is scheduled for. Meaningless if the
// event is not pending.
func (e *Event) When() Tick { return e.when }

// Pending reports whether the event currently sits in its queue.
func (e *Event) Pending() bool { return e.index >= 0 }

// Name returns the diagnostic label assigned at creation.
func (e *Event) Name() string { return e.name }

// EventQueue is the deterministic discrete-event scheduler. It is not
// safe for concurrent use; the whole simulation runs on one queue in
// one goroutine.
//
// The pending set is one slice sorted latest-first by (tick,
// priority, sequence), so the next event is its tail: Step pops it and
// moves nothing, and insert shifts only the entries that dispatch
// before the new one. Insertion is O(n), which beats a heap's sift
// loops only while the set stays small (BenchmarkEventQueuePending
// crosses over between 32 and 64 entries). With every PCIe stage on a
// Lane the whole-system set is bounded by the number of components,
// not by packets in flight: it peaks near 24.
type EventQueue struct {
	pending []*Event // sorted latest-first; pending[i].index == i
	free    []*Event // recycled one-shot events
	now     Tick
	seq     uint64
	// Executed counts events dispatched since creation; useful for
	// progress reporting and performance measurement.
	Executed uint64
}

// NewEventQueue returns an empty queue positioned at tick 0.
func NewEventQueue() *EventQueue {
	return &EventQueue{}
}

// Now reports the current simulation tick.
func (q *EventQueue) Now() Tick { return q.now }

// Len reports the number of pending entries: every pending event,
// plus one per non-empty Lane however many items it holds.
func (q *EventQueue) Len() int { return len(q.pending) }

// NewEvent creates a named, unscheduled event bound to this queue.
// NewEvent events are owned by the caller and are never recycled.
func (q *EventQueue) NewEvent(name string, fn func()) *Event {
	return &Event{fn: fn, index: -1, freeIdx: -1, name: name}
}

// Schedule inserts fn to run at absolute tick when, with default
// priority, and returns the event handle. The event comes from the
// queue's freelist when one is available, so steady-state scheduling
// allocates nothing.
func (q *EventQueue) Schedule(fn func(), when Tick) *Event {
	var e *Event
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		e.freeIdx = -1
		e.fn = fn
		e.name = ""
	} else {
		e = &Event{fn: fn, index: -1, freeIdx: -1}
	}
	e.recycle = true
	q.ScheduleEvent(e, when, PriorityDefault)
	return e
}

// ScheduleAfter inserts fn to run delay ticks after the current time.
func (q *EventQueue) ScheduleAfter(fn func(), delay Tick) *Event {
	return q.Schedule(fn, q.now+delay)
}

// ScheduleEvent inserts a previously created (or previously fired)
// event at an absolute tick with an explicit priority. Scheduling an
// already-pending event or scheduling into the past panics: both
// indicate a component protocol bug that must not be masked.
func (q *EventQueue) ScheduleEvent(e *Event, when Tick, prio Priority) {
	if e.Pending() {
		panic(fmt.Sprintf("sim: event %q already scheduled", e.name))
	}
	if when < q.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %v before now %v", e.name, when, q.now))
	}
	if e.freeIdx >= 0 {
		// A recycled one-shot handle is being scheduled again; pull it
		// back out of the freelist so Schedule cannot hand it out twice.
		q.unfree(e)
	}
	seq := q.seq
	q.seq++
	q.insert(e, when, prio, seq)
}

// insert keys e by (when, prio, seq) and adds it to the pending
// slice, walking back from the tail over the entries that dispatch
// before it. The caller has checked e is not pending and has taken seq
// from q.seq.
func (q *EventQueue) insert(e *Event, when Tick, prio Priority, seq uint64) {
	e.when = when
	e.prio = prio
	e.seq = seq
	p := append(q.pending, e)
	i := len(p) - 1
	for ; i > 0 && eventLess(p[i-1], e); i-- {
		p[i] = p[i-1]
		p[i].index = i
	}
	p[i] = e
	e.index = i
	q.pending = p
}

// Deschedule removes a pending event from the queue. Descheduling a
// non-pending event is a no-op. A cancelled one-shot event returns to
// the freelist like a fired one.
func (q *EventQueue) Deschedule(e *Event) {
	if !e.Pending() {
		return
	}
	q.remove(e)
	if e.recycle {
		q.toFree(e)
	}
}

// Reschedule moves a pending event to a new tick (or schedules it if it
// was idle), keeping its priority.
func (q *EventQueue) Reschedule(e *Event, when Tick) {
	prio := e.prio
	if e.Pending() {
		q.remove(e)
	}
	q.ScheduleEvent(e, when, prio)
}

// Step dispatches the single next event. It reports false when the
// queue is empty.
func (q *EventQueue) Step() bool {
	n := len(q.pending) - 1
	if n < 0 {
		return false
	}
	e := q.pending[n]
	q.pending[n] = nil
	q.pending = q.pending[:n]
	e.index = -1
	q.now = e.when
	q.Executed++
	e.fn()
	if e.recycle && e.index < 0 && e.freeIdx < 0 {
		q.toFree(e)
	}
	return true
}

// yieldEvery is the dispatch checkpoint interval (a power of two):
// Run calls runtime.Gosched after every yieldEvery-th dispatch. A
// simulation is one compute-bound goroutine, and on a single P the
// garbage collector's fractional mark worker otherwise gets the
// processor only when the scheduler preempts the loop, about 10 ms
// later. Until the mark phase ends every pointer store in the loop
// pays the write barrier, which cost small points about a quarter of
// their wall time. Yielding here gets the mark worker running within
// a fraction of a millisecond; at a few hundred nanoseconds per event
// the checkpoint itself costs under 0.1%. README's Performance
// section has the measurements behind 1024.
const yieldEvery = 1024

// Run dispatches events until the queue drains.
func (q *EventQueue) Run() {
	for q.Step() {
		q.checkpoint()
	}
}

// checkpoint yields the processor on every yieldEvery-th dispatch.
func (q *EventQueue) checkpoint() {
	if q.Executed&(yieldEvery-1) == 0 {
		runtime.Gosched()
	}
}

// eventLess reports whether a dispatches strictly before b: earlier tick
// first, then lower priority band, then FIFO by sequence number.
func eventLess(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// remove deletes e from the pending slice, shifting the entries that
// dispatch after it down one slot.
func (q *EventQueue) remove(e *Event) {
	p := q.pending
	n := len(p) - 1
	for i := e.index; i < n; i++ {
		p[i] = p[i+1]
		p[i].index = i
	}
	p[n] = nil
	q.pending = p[:n]
	e.index = -1
}

// toFree pushes a dead one-shot event onto the freelist.
func (q *EventQueue) toFree(e *Event) {
	e.freeIdx = len(q.free)
	q.free = append(q.free, e)
}

// unfree removes e from the freelist (swap with the tail).
func (q *EventQueue) unfree(e *Event) {
	n := len(q.free) - 1
	moved := q.free[n]
	q.free[e.freeIdx] = moved
	moved.freeIdx = e.freeIdx
	q.free[n] = nil
	q.free = q.free[:n]
	e.freeIdx = -1
}
