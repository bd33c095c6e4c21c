package sim

import (
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestEventQueueOrdersByTick(t *testing.T) {
	q := NewEventQueue()
	var got []int
	q.Schedule(func() { got = append(got, 3) }, 30)
	q.Schedule(func() { got = append(got, 1) }, 10)
	q.Schedule(func() { got = append(got, 2) }, 20)
	q.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if q.Now() != 30 {
		t.Fatalf("Now() = %v, want 30", q.Now())
	}
}

func TestEventQueueSameTickFIFO(t *testing.T) {
	q := NewEventQueue()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.Schedule(func() { got = append(got, i) }, 5)
	}
	q.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-tick order = %v, want insertion order", got)
		}
	}
}

func TestEventQueuePriority(t *testing.T) {
	q := NewEventQueue()
	var got []string
	e1 := q.NewEvent("stats", func() { got = append(got, "stats") })
	e2 := q.NewEvent("update", func() { got = append(got, "update") })
	e3 := q.NewEvent("default", func() { got = append(got, "default") })
	q.ScheduleEvent(e1, 7, PriorityStats)
	q.ScheduleEvent(e3, 7, PriorityDefault)
	q.ScheduleEvent(e2, 7, PriorityUpdate)
	q.Run()
	if got[0] != "update" || got[1] != "default" || got[2] != "stats" {
		t.Fatalf("priority order = %v", got)
	}
}

func TestScheduleDuringDispatch(t *testing.T) {
	q := NewEventQueue()
	var fired []Tick
	q.Schedule(func() {
		fired = append(fired, q.Now())
		q.ScheduleAfter(func() { fired = append(fired, q.Now()) }, 15)
	}, 10)
	q.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 25 {
		t.Fatalf("fired = %v, want [10 25]", fired)
	}
}

func TestDeschedule(t *testing.T) {
	q := NewEventQueue()
	ran := false
	e := q.Schedule(func() { ran = true }, 10)
	if !e.Pending() {
		t.Fatal("event should be pending after Schedule")
	}
	q.Deschedule(e)
	if e.Pending() {
		t.Fatal("event should not be pending after Deschedule")
	}
	q.Run()
	if ran {
		t.Fatal("descheduled event ran")
	}
	// Descheduling again is a harmless no-op.
	q.Deschedule(e)
}

func TestReschedule(t *testing.T) {
	q := NewEventQueue()
	var at Tick
	e := q.Schedule(func() { at = q.Now() }, 10)
	q.Reschedule(e, 40)
	q.Run()
	if at != 40 {
		t.Fatalf("fired at %v, want 40", at)
	}
	// Rescheduling a fired (idle) event schedules it fresh.
	q.Reschedule(e, 50)
	q.Run()
	if at != 50 {
		t.Fatalf("refired at %v, want 50", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	q := NewEventQueue()
	q.Schedule(func() {}, 100)
	q.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past did not panic")
		}
	}()
	q.Schedule(func() {}, 50)
}

func TestDoubleSchedulePanics(t *testing.T) {
	q := NewEventQueue()
	e := q.Schedule(func() {}, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("double-scheduling did not panic")
		}
	}()
	q.ScheduleEvent(e, 20, PriorityDefault)
}

// Property: dispatch order equals the stable sort of (tick, seq) no
// matter the insertion order.
func TestEventOrderProperty(t *testing.T) {
	f := func(seed int64, raw []uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		_ = rng
		q := NewEventQueue()
		type rec struct {
			tick Tick
			seq  int
		}
		var want []rec
		var got []rec
		for i, r := range raw {
			tick := Tick(r % 512)
			i := i
			want = append(want, rec{tick, i})
			q.Schedule(func() { got = append(got, rec{tick, i}) }, tick)
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].tick < want[b].tick })
		q.Run()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTickString(t *testing.T) {
	cases := []struct {
		t    Tick
		want string
	}{
		{500, "500ps"},
		{1500, "1.500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
		{Second, "1.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Tick(%d).String() = %q, want %q", uint64(c.t), got, c.want)
		}
	}
}

func TestTickConversions(t *testing.T) {
	if TicksFromNanoseconds(1.5) != 1500 {
		t.Fatalf("TicksFromNanoseconds(1.5) = %v", TicksFromNanoseconds(1.5))
	}
	if TicksFromNanoseconds(-1) != 0 {
		t.Fatal("negative duration should clamp to zero")
	}
	if got := (2 * Nanosecond).Nanoseconds(); got != 2 {
		t.Fatalf("Nanoseconds() = %v", got)
	}
	if got := (3 * Second).Seconds(); got != 3 {
		t.Fatalf("Seconds() = %v", got)
	}
}

func TestClock(t *testing.T) {
	c := NewClock(1000) // 1 GHz -> 1ns period
	if c.Cycles(5) != 5*Nanosecond {
		t.Fatalf("Cycles(5) = %v", c.Cycles(5))
	}
	if got := NewClock(4000).Cycles(4); got != Nanosecond {
		t.Fatalf("4 cycles at 4 GHz = %v, want 1ns", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero frequency should panic")
		}
	}()
	NewClock(0)
}

func TestExecutedCounter(t *testing.T) {
	q := NewEventQueue()
	for i := 0; i < 7; i++ {
		q.Schedule(func() {}, Tick(i))
	}
	q.Run()
	if q.Executed != 7 {
		t.Fatalf("Executed = %d, want 7", q.Executed)
	}
}

// On one P a goroutine that becomes runnable while the event loop runs
// gets the processor only when the loop yields it; the garbage
// collector's mark worker is such a goroutine. Run must yield within
// two checkpoint intervals, not wait for the scheduler to preempt it
// some milliseconds later. Without the checkpoint the chain below
// finishes all its dispatches before the goroutine runs.
func TestRunYieldsProcessor(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, tc := range []struct {
		name string
		run  func(q *EventQueue)
	}{
		{"Run", (*EventQueue).Run},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const limit = 2 * yieldEvery
			q := NewEventQueue()
			var ran atomic.Bool
			var seenAt uint64
			var fire func()
			fire = func() {
				if ran.Load() {
					seenAt = q.Executed
					return
				}
				if q.Executed < 4*limit {
					q.ScheduleAfter(fire, 1)
				}
			}
			q.ScheduleAfter(fire, 1)
			go ran.Store(true)
			tc.run(q)
			if seenAt == 0 || seenAt > limit {
				t.Fatalf("goroutine observed at dispatch %d of %d, want within %d (0 = never)",
					seenAt, q.Executed, limit)
			}
		})
	}
}

func BenchmarkEventQueueThroughput(b *testing.B) {
	q := NewEventQueue()
	var fire func()
	n := 0
	fire = func() {
		n++
		if n < b.N {
			q.ScheduleAfter(fire, 100)
		}
	}
	q.ScheduleAfter(fire, 100)
	b.ResetTimer()
	q.Run()
}

func BenchmarkEventQueueDeepHeap(b *testing.B) {
	q := NewEventQueue()
	// 4096 pending events at all times, popping and pushing.
	for i := 0; i < 4096; i++ {
		var fn func()
		fn = func() { q.ScheduleAfter(fn, Tick(1000+i%97)) }
		q.ScheduleAfter(fn, Tick(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Step()
	}
}

// BenchmarkEventQueuePending times one dispatch plus one re-insert
// with n events pending at all times, each rescheduling itself after a
// pseudo-random delay in [1, 1024] ticks so re-inserts land throughout
// the pending set. It locates the size at which the sorted pending
// slice's linear insert stops paying; whole-system runs peak near 24.
func BenchmarkEventQueuePending(b *testing.B) {
	for _, n := range []int{8, 16, 24, 32, 64, 128, 256, 1024, 4096} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			q := NewEventQueue()
			x := uint32(n)
			delay := func() Tick {
				x ^= x << 13 // xorshift32: cheap, deterministic
				x ^= x >> 17
				x ^= x << 5
				return Tick(1 + x&1023)
			}
			for i := 0; i < n; i++ {
				var fn func()
				fn = func() { q.ScheduleAfter(fn, delay()) }
				q.ScheduleAfter(fn, delay())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Step()
			}
		})
	}
}
