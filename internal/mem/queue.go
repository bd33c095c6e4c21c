package mem

import (
	"fmt"

	"accesys/internal/sim"
)

// PacketQueue drives packets out of a port in tick order while honoring
// the retry protocol, like gem5's PacketQueue/QueuedPort. The owner
// schedules packets with a readiness tick (folding its internal
// latency into the queue); the queue sends them in order, blocks when
// the peer refuses, and resumes when the owner forwards the retry
// signal via RetryReceived.
type PacketQueue struct {
	eq   *sim.EventQueue
	send func(*Packet) bool
	// entries[head:] is the live queue. Popping advances head instead
	// of re-slicing the front away, so the backing array's capacity is
	// reused forever — the queue allocates nothing in steady state.
	entries []queuedPacket
	head    int
	event   *sim.Event
	blocked bool

	// OnDrain, when non-nil, runs after each successful send. Owners
	// use it to wake requestors that were refused for lack of space.
	OnDrain func()
}

type queuedPacket struct {
	pkt   *Packet
	ready sim.Tick
}

// NewPacketQueue builds a queue that emits packets through send, which
// is typically port.SendTimingReq or port.SendTimingResp.
func NewPacketQueue(name string, eq *sim.EventQueue, send func(*Packet) bool) *PacketQueue {
	q := &PacketQueue{eq: eq, send: send}
	q.event = eq.NewEvent(name+".send", q.trySend)
	return q
}

// Len reports the number of packets waiting to be sent.
func (q *PacketQueue) Len() int { return len(q.entries) - q.head }

// Empty reports whether nothing is queued.
func (q *PacketQueue) Empty() bool { return q.head == len(q.entries) }

// Schedule enqueues pkt to be sent no earlier than when. Packets keep
// FIFO order among equal readiness ticks; a packet scheduled earlier
// than queued predecessors is inserted in tick order (ordered
// insertion, matching gem5's insert-sorted packet queue).
func (q *PacketQueue) Schedule(pkt *Packet, when sim.Tick) {
	if when < q.eq.Now() {
		when = q.eq.Now()
	}
	n := len(q.entries)
	if n == q.head || q.entries[n-1].ready <= when {
		// In order (the common case): no later entry to shift.
		q.entries = append(q.entries, queuedPacket{pkt: pkt, ready: when})
	} else {
		i := n - 1
		for i > q.head && q.entries[i-1].ready > when {
			i--
		}
		q.entries = append(q.entries, queuedPacket{})
		copy(q.entries[i+1:], q.entries[i:])
		q.entries[i] = queuedPacket{pkt: pkt, ready: when}
	}
	q.arm()
}

// pop removes the head entry, reclaiming the consumed front of the
// backing array once it dominates the slice.
func (q *PacketQueue) pop() {
	q.entries[q.head] = queuedPacket{}
	q.head++
	if q.head == len(q.entries) {
		q.entries = q.entries[:0]
		q.head = 0
	} else if q.head >= 32 && q.head*2 >= len(q.entries) {
		n := copy(q.entries, q.entries[q.head:])
		clear(q.entries[n:])
		q.entries = q.entries[:n]
		q.head = 0
	}
}

func (q *PacketQueue) arm() {
	if q.blocked || q.Empty() {
		return
	}
	ready := q.entries[q.head].ready
	// arm can run reentrantly (a send chain scheduling back into this
	// queue) while the head still awaits its pop; never arm in the past.
	if now := q.eq.Now(); ready < now {
		ready = now
	}
	if q.event.Pending() {
		if q.event.When() <= ready {
			return
		}
		q.eq.Deschedule(q.event)
	}
	q.eq.ScheduleEvent(q.event, ready, sim.PriorityDefault)
}

func (q *PacketQueue) trySend() {
	for !q.Empty() && !q.blocked {
		head := q.entries[q.head]
		if head.ready > q.eq.Now() {
			q.arm()
			return
		}
		if !q.send(head.pkt) {
			q.blocked = true
			return
		}
		q.pop()
		if q.OnDrain != nil {
			q.OnDrain()
		}
	}
}

// RetryReceived must be called by the owner when the peer signals a
// retry (RecvRetryReq / RecvRetryResp for this queue's port).
func (q *PacketQueue) RetryReceived() {
	if !q.blocked {
		return
	}
	q.blocked = false
	if !q.Empty() {
		q.eq.Reschedule(q.event, q.eq.Now())
	}
}

// Blocked reports whether the queue is stalled waiting for a retry.
func (q *PacketQueue) Blocked() bool { return q.blocked }

// Audit reports a queue, known to its owner as name, that still holds
// packets or waits for a retry: the state no drained run may leave.
func (q *PacketQueue) Audit(name string) error {
	if q.Empty() && !q.blocked {
		return nil
	}
	return fmt.Errorf("%s: %d packets queued, blocked %v", name, q.Len(), q.blocked)
}
