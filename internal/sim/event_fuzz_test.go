package sim

// FuzzEventQueueOrder is a differential check of the queue's dispatch
// order. A byte-driven workload mixes Schedule, ScheduleEvent in all
// three priority bands, Deschedule and Reschedule (also issued from
// inside dispatching callbacks), Lane.Push, Step and runUntil windows.
// A brute-force reference keeps every pending item as a plain (tick,
// priority, sequence) key and finds the next dispatch by a min-scan;
// each dispatch must be the reference's minimum, and the queue's
// bookkeeping must hold after every step.

import (
	"math/rand"
	"testing"
)

// refKey is one pending item in the reference model.
type refKey struct {
	when Tick
	prio Priority
	seq  uint64
}

func (a refKey) less(b refKey) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// Workload opcodes; each is followed by two argument bytes. Delays
// fall on a coarse grid (multiples of 3 ticks, often 0) so same-tick
// ties and inserts at the current tick during dispatch are common.
const (
	opSchedule      = iota // recycled one-shot at now + delay
	opScheduleEvent        // owned event, explicit band
	opDeschedule           // owned event or live one-shot
	opReschedule           // owned event to now + delay
	opLanePush             // lane item at or after the lane's last tick
	opStep                 // one Step (top level only)
	opRunUntil             // runUntil(now + delay) (top level only)
	numOps
)

const (
	fuzzOwned = 6
	fuzzLanes = 3
)

type orderFuzzer struct {
	t     *testing.T
	q     *EventQueue
	data  []byte
	owned []*Event
	lanes []*Lane
	last  []Tick // last pushed tick per lane
	// ref maps an item id to its key: ids below fuzzOwned are the
	// owned events, later ids one-shots and lane items.
	ref     map[int]refKey
	prio    [fuzzOwned]Priority // owned events' last priority
	seq     uint64              // mirrors the queue's sequence counter
	nextID  int
	oneshot []int // ids of one-shots that may still be pending
	handle  map[int]*Event
	fired   uint64
}

func (f *orderFuzzer) byte() byte {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[0]
	f.data = f.data[1:]
	return b
}

func (f *orderFuzzer) key(when Tick, prio Priority) refKey {
	k := refKey{when: when, prio: prio, seq: f.seq}
	f.seq++
	return k
}

// dispatched is every item's callback: the item must be the
// reference's minimum. It then issues up to two more operations from
// inside dispatch.
func (f *orderFuzzer) dispatched(id int) {
	t := f.t
	min, found := -1, false
	for other, k := range f.ref {
		if !found || k.less(f.ref[min]) {
			min, found = other, true
		}
	}
	if !found || min != id {
		t.Fatalf("dispatch %d fired item %d at tick %v; reference minimum is item %d (%v)", f.fired, id, f.q.Now(), min, f.ref[min])
	}
	if k := f.ref[id]; k.when != f.q.Now() {
		t.Fatalf("item %d fired at tick %v, keyed for %v", id, f.q.Now(), k.when)
	}
	delete(f.ref, id)
	delete(f.handle, id)
	f.fired++
	checkAccounting(t, f.q, f.lanes...)
	for n := f.byte() % 3; n > 0; n-- {
		f.op(f.byte()%opStep, false)
	}
}

func (f *orderFuzzer) newID() int {
	id := f.nextID
	f.nextID++
	return id
}

func (f *orderFuzzer) op(op byte, top bool) {
	q := f.q
	a, b := f.byte(), f.byte()
	switch op {
	case opSchedule:
		id := f.newID()
		when := q.Now() + Tick(a%8)*3
		f.ref[id] = f.key(when, PriorityDefault)
		f.handle[id] = q.Schedule(func() { f.dispatched(id) }, when)
		f.oneshot = append(f.oneshot, id)
	case opScheduleEvent:
		k := int(a) % fuzzOwned
		if e := f.owned[k]; !e.Pending() {
			when, prio := q.Now()+Tick(b%8)*3, laneTestPrios[int(b>>3)%len(laneTestPrios)]
			f.ref[k] = f.key(when, prio)
			f.prio[k] = prio
			q.ScheduleEvent(e, when, prio)
		}
	case opDeschedule:
		if a%2 == 0 || len(f.oneshot) == 0 {
			k := int(b) % fuzzOwned
			q.Deschedule(f.owned[k])
			delete(f.ref, k)
			return
		}
		i := int(b) % len(f.oneshot)
		id := f.oneshot[i]
		f.oneshot = append(f.oneshot[:i], f.oneshot[i+1:]...)
		if e, live := f.handle[id]; live {
			q.Deschedule(e)
			delete(f.ref, id)
			delete(f.handle, id)
		}
	case opReschedule:
		k := int(a) % fuzzOwned
		when := q.Now() + Tick(b%8)*3
		f.ref[k] = f.key(when, f.prio[k])
		q.Reschedule(f.owned[k], when)
	case opLanePush:
		i := int(a) % fuzzLanes
		when := max(q.Now(), f.last[i]) + Tick(b%4)*3
		f.last[i] = when
		id := f.newID()
		f.ref[id] = f.key(when, PriorityDefault)
		f.lanes[i].Push(func() { f.dispatched(id) }, when)
	case opStep:
		if top {
			q.Step()
		}
	case opRunUntil:
		if top {
			from := q.Now()
			limit := from + Tick(a%16)*3
			runUntil(q, limit)
			if want := max(from, limit); q.Now() != want {
				f.t.Fatalf("runUntil(%v) from %v left now at %v", limit, from, q.Now())
			}
			for id, k := range f.ref {
				if k.when <= limit {
					f.t.Fatalf("runUntil(%v) returned with item %d due at %v", limit, id, k.when)
				}
			}
		}
	}
}

func runOrderWorkload(t *testing.T, data []byte) {
	q := NewEventQueue()
	f := &orderFuzzer{t: t, q: q, data: data, ref: map[int]refKey{}, handle: map[int]*Event{}, nextID: fuzzOwned}
	for k := 0; k < fuzzOwned; k++ {
		f.owned = append(f.owned, q.NewEvent("owned", func() { f.dispatched(k) }))
	}
	for i := 0; i < fuzzLanes; i++ {
		f.lanes = append(f.lanes, q.NewLane("lane"))
	}
	f.last = make([]Tick, fuzzLanes)
	for len(f.data) > 0 {
		f.op(f.byte()%numOps, true)
		checkAccounting(t, q, f.lanes...)
		if q.Len() > len(f.ref) {
			t.Fatalf("queue holds %d entries for %d pending items", q.Len(), len(f.ref))
		}
	}
	for q.Step() {
		checkAccounting(t, q, f.lanes...)
	}
	if len(f.ref) != 0 {
		t.Fatalf("queue drained with %d items still pending in the reference", len(f.ref))
	}
	if q.Executed != f.fired {
		t.Fatalf("Executed = %d, reference dispatched %d", q.Executed, f.fired)
	}
}

// orderSeeds builds corpus entries in the shapes of the property tests:
// a seeded random mix, one tick of same-band FIFO work, scrambled
// priority bands on one tick, a lane-heavy windowed run and a
// deschedule/reschedule-heavy run.
func orderSeeds() [][]byte {
	enc := func(ops ...[3]byte) []byte {
		var out []byte
		for _, o := range ops {
			out = append(out, o[:]...)
		}
		return out
	}
	var seeds [][]byte
	for seed := int64(1); seed <= 4; seed++ {
		b := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(b)
		seeds = append(seeds, b)
	}
	var fifo [][3]byte
	for i := 0; i < 40; i++ {
		fifo = append(fifo, [3]byte{opSchedule, 0, 0})
	}
	seeds = append(seeds, enc(fifo...))
	var bands [][3]byte
	for k := byte(0); k < fuzzOwned; k++ {
		bands = append(bands, [3]byte{opScheduleEvent, k, (2 - k%3) << 3})
	}
	seeds = append(seeds, enc(bands...))
	rng := rand.New(rand.NewSource(5))
	var lanes [][3]byte
	for i := 0; i < 120; i++ {
		op := byte(opLanePush)
		switch rng.Intn(5) {
		case 0:
			op = opRunUntil
		case 1:
			op = opSchedule
		}
		lanes = append(lanes, [3]byte{op, byte(rng.Intn(256)), byte(rng.Intn(256))})
	}
	seeds = append(seeds, enc(lanes...))
	var churn [][3]byte
	for i := 0; i < 120; i++ {
		op := []byte{opScheduleEvent, opDeschedule, opReschedule, opStep}[rng.Intn(4)]
		churn = append(churn, [3]byte{op, byte(rng.Intn(256)), byte(rng.Intn(256))})
	}
	seeds = append(seeds, enc(churn...))
	return seeds
}

func FuzzEventQueueOrder(f *testing.F) {
	for _, s := range orderSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		runOrderWorkload(t, data)
	})
}
