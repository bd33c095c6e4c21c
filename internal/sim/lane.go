package sim

import "fmt"

// Lane is a FIFO of callbacks due at non-decreasing ticks. However
// many items it holds, it occupies one slot in its queue's pending
// slice, keyed by its head item, so a pipeline stage with hundreds of
// packets in flight costs the queue one entry instead of hundreds —
// which is what keeps the pending set small enough for the queue's
// linear insert.
//
// Push reserves the queue's next sequence number for the item, exactly
// as ScheduleEvent would, and the lane's slot carries its head's
// original (tick, priority, sequence). The global dispatch order is
// therefore the one a queue scheduling every item as its own event
// would produce, and each item is still one Step and one count in
// Executed. That equivalence needs the items of one lane to be due in
// push order, so Push panics on an item due before the lane's last one.
type Lane struct {
	q     *EventQueue
	ev    Event
	items []laneItem // ring buffer; length zero or a power of two
	head  int
	n     int
	last  Tick // tick of the most recently pushed item
}

type laneItem struct {
	fn   func()
	when Tick
	seq  uint64
}

// NewLane creates an empty lane on q whose items dispatch at
// PriorityDefault. Like NewEvent's, the lane is owned by the caller.
func (q *EventQueue) NewLane(name string) *Lane {
	l := &Lane{q: q}
	l.ev = Event{fn: l.fire, index: -1, freeIdx: -1, name: name}
	return l
}

// Push appends fn to run at tick when. Pushing into the past, or
// before the lane's last pushed item, panics: both break the ordering
// the lane promises and indicate a component protocol bug.
func (l *Lane) Push(fn func(), when Tick) {
	q := l.q
	if when < q.now {
		panic(fmt.Sprintf("sim: lane %q push at %v before now %v", l.ev.name, when, q.now))
	}
	if when < l.last {
		panic(fmt.Sprintf("sim: lane %q push at %v before its last item at %v", l.ev.name, when, l.last))
	}
	if l.n == len(l.items) {
		l.grow()
	}
	seq := q.seq
	q.seq++
	l.items[(l.head+l.n)&(len(l.items)-1)] = laneItem{fn: fn, when: when, seq: seq}
	l.n++
	l.last = when
	if l.n == 1 {
		q.insert(&l.ev, when, PriorityDefault, seq)
	}
}

// grow doubles the ring, unwrapping it so the head sits at index 0.
func (l *Lane) grow() {
	size := 2 * len(l.items)
	if size == 0 {
		size = 8
	}
	items := make([]laneItem, size)
	for i := 0; i < l.n; i++ {
		items[i] = l.items[(l.head+i)&(len(l.items)-1)]
	}
	l.items, l.head = items, 0
}

// fire is the lane's event callback: it pops the head item, requeues
// the lane under its next item's original key, and runs the popped
// item.
func (l *Lane) fire() {
	it := &l.items[l.head]
	fn := it.fn
	it.fn = nil
	l.head = (l.head + 1) & (len(l.items) - 1)
	l.n--
	if l.n > 0 {
		next := &l.items[l.head]
		l.q.insert(&l.ev, next.when, PriorityDefault, next.seq)
	}
	fn()
}
