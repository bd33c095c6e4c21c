package sweep

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accesys/internal/sim"
)

func TestFlightCoalescesConcurrentCallers(t *testing.T) {
	var f Flight
	leader, led := f.Join("k")
	if !led {
		t.Fatal("first caller did not lead")
	}

	const followers = 8
	var wg, joined sync.WaitGroup
	outs := make([]Outcome, followers)
	calls := make([]*Call, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		joined.Add(1)
		go func(i int) {
			defer wg.Done()
			c, led := f.Join("k")
			joined.Done()
			if led {
				t.Error("follower led while the leader was in flight")
			}
			calls[i] = c
			outs[i] = c.Wait()
		}(i)
	}
	// Joining never blocks, so every follower holds the call before
	// the leader lands and all of them adopt the leader's outcome.
	joined.Wait()
	f.Land(leader, Outcome{Dur: 42})
	wg.Wait()
	for i, out := range outs {
		if out.Dur != 42 || calls[i] != leader {
			t.Fatalf("follower %d outcome = %v on call %p, want 42 on the leader's %p", i, out.Dur, calls[i], leader)
		}
	}
	if out := leader.Wait(); out.Dur != 42 {
		t.Fatalf("leader outcome = %v", out.Dur)
	}
	if f.Inflight() != 0 {
		t.Fatal("flight still tracks a completed call")
	}
}

func TestFlightForgetsCompletedCalls(t *testing.T) {
	var f Flight
	for i := 0; i < 3; i++ {
		c, led := f.Join("k")
		f.Land(c, Outcome{Dur: 7})
		if out := c.Wait(); !led || out.Dur != 7 {
			t.Fatalf("sequential call %d: led=%v out=%v", i, led, out.Dur)
		}
	}
}

func TestFlightDistinctKeysRunConcurrently(t *testing.T) {
	var f Flight
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Every key waits on the same gate: if distinct keys
			// serialised, this would deadlock.
			c, led := f.Join(fmt.Sprintf("k%d", i))
			if !led {
				t.Errorf("key k%d did not lead", i)
			}
			if i == 3 {
				close(gate)
			}
			<-gate
			f.Land(c, Outcome{})
		}(i)
	}
	wg.Wait()
}

func TestFlightFailureReachesLeader(t *testing.T) {
	var f Flight
	boom := errors.New("boom")
	c, led := f.Join("k")
	f.Land(c, Outcome{Err: boom})
	if out := c.Wait(); !led || out.Err != boom {
		t.Fatalf("leader got led=%v err=%v, want its own failure", led, out.Err)
	}
	if f.Inflight() != 0 {
		t.Fatal("failed call still tracked")
	}
	// The key is forgotten: a later call leads again.
	if c, led := f.Join("k"); !led || c.out.Err != nil {
		t.Fatalf("call after a failure: led=%v err=%v, want a fresh run", led, c.out.Err)
	}
}

func TestFlightFailureReachesFollowers(t *testing.T) {
	// Joining does not block, so the follower is inside the leader's
	// flight by construction: no retry loop is needed to overlap them.
	var f Flight
	boom := errors.New("boom")
	leader, _ := f.Join("k")
	c, led := f.Join("k")
	if led {
		t.Fatal("follower led while the leader was in flight")
	}
	follower := make(chan Outcome, 1)
	go func() { follower <- c.Wait() }()
	f.Land(leader, Outcome{Err: boom})
	if out := <-follower; out.Err != boom {
		t.Fatalf("follower adopted %+v, want the leader's failure", out)
	}
}

// TestEnginesSharingFlightSimulateOnce is the dedup contract the serve
// daemon rests on: two engines over one cache and one flight, running
// overlapping point sets concurrently, cold-simulate each unique
// fingerprint exactly once — and the cache misses count leaders only.
func TestEnginesSharingFlightSimulateOnce(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var flight Flight
	var sims atomic.Int32
	points := func(n int) []Point {
		ps := make([]Point, n)
		for i := range ps {
			i := i
			ps[i] = Point{
				Key:         fmt.Sprintf("p%d", i),
				Fingerprint: Fingerprint("flight-shared", i),
				Run: func() Outcome {
					sims.Add(1)
					time.Sleep(time.Millisecond) // widen the overlap window
					return Outcome{Dur: sim.Tick(1000 + i)}
				},
			}
		}
		return ps
	}

	const unique = 16
	var shared, cold atomic.Int32
	count := func(r Result) {
		switch {
		case r.Shared:
			shared.Add(1)
		case !r.Cached:
			cold.Add(1)
		}
	}
	var wg sync.WaitGroup
	for e := 0; e < 2; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := &Engine{Jobs: 4, Cache: cache, Flight: &flight, OnResult: count}
			outs := eng.Run(points(unique))
			for i, out := range outs {
				if out.Dur != sim.Tick(1000+i) {
					t.Errorf("point %d outcome = %v", i, out.Dur)
				}
			}
		}()
	}
	wg.Wait()

	if n := sims.Load(); n != unique {
		t.Fatalf("simulated %d times, want %d (in-flight dedup lost)", n, unique)
	}
	if n := cold.Load(); n != unique {
		t.Fatalf("cold results = %d, want %d", n, unique)
	}
	hits, misses, errors := cache.Stats()
	if misses != unique || errors != 0 {
		t.Fatalf("cache stats: %d hits, %d misses, %d errors; want exactly %d misses", hits, misses, errors, unique)
	}
	// Every non-leader completion was either shared (overlapped in
	// flight) or a warm hit (arrived after the leader's Put).
	if got := int(shared.Load()) + hits; got != unique {
		t.Fatalf("shared (%d) + hits (%d) = %d, want %d", shared.Load(), hits, got, unique)
	}
}

// TestEngineFlightPanicKeyWrapped pins that a panic inside a flight
// still surfaces as a failed outcome naming the point's key.
func TestEngineFlightPanicKeyWrapped(t *testing.T) {
	var flight Flight
	eng := &Engine{Jobs: 1, Flight: &flight}
	outs := eng.Run([]Point{{Key: "bad", Fingerprint: "fp-bad", Run: func() Outcome { panic("boom") }}})
	if err := outs[0].Err; err == nil || !strings.Contains(err.Error(), `"bad" panicked: boom`) {
		t.Fatalf("Err = %v, want the key-wrapped panic", err)
	}
	if flight.Inflight() != 0 {
		t.Fatal("failed call still tracked")
	}
}

// TestEnginesSharingFlightLeaderPanicFailsFollowers is the audit of
// the serve daemon's failure path: when two engines sharing one flight
// submit an overlapping point concurrently and the *leader's*
// simulation panics, the follower must adopt the failure — Shared, Err
// set to the leader's key-wrapped panic — never hang on the done
// channel and never adopt a zero Outcome as a real result. Nothing is
// cached. The overlap is raced under -race; attempts where both
// engines led (no overlap) retry until a genuine follower adopted the
// failure.
func TestEnginesSharingFlightLeaderPanicFailsFollowers(t *testing.T) {
	for attempt := 0; attempt < 100; attempt++ {
		cache := openT(t, "s")
		var flight Flight
		var runs atomic.Int32
		var startOnce sync.Once
		started := make(chan struct{})
		release := make(chan struct{})
		point := Point{
			Key:         "overlap",
			Fingerprint: "fp-overlap-panic",
			Run: func() Outcome {
				runs.Add(1)
				startOnce.Do(func() { close(started) })
				<-release
				panic("simulation blew up")
			},
		}

		ends := make(chan Result, 2)
		launch := func() {
			go func() {
				eng := &Engine{Jobs: 2, Cache: cache, Flight: &flight, OnResult: func(r Result) { ends <- r }}
				eng.Run([]Point{point})
			}()
		}
		launch()
		<-started // the leader is inside its simulation
		launch()  // the second engine overlaps (or races in late and leads)
		time.Sleep(time.Duration(attempt+1) * time.Millisecond)
		close(release)

		timeout := time.After(30 * time.Second)
		var got [2]Result
		for i := range got {
			select {
			case got[i] = <-ends:
			case <-timeout:
				t.Fatal("an engine hung after the leader's panic — follower never unblocked")
			}
		}
		for i, r := range got {
			if err := r.Outcome.Err; err == nil || !strings.Contains(err.Error(), `"overlap" panicked: simulation blew up`) {
				t.Fatalf("engine %d reported %+v, want the key-wrapped leader panic", i, r)
			}
		}
		if _, ok := cache.Get(point.Fingerprint); ok {
			t.Fatal("the failed point was cached")
		}
		if runs.Load() == 1 {
			if !got[0].Shared && !got[1].Shared {
				t.Fatal("one simulation but no engine reported a shared outcome")
			}
			return // the other engine followed and adopted the failure
		}
		// Both engines led their own call (the second arrived after the
		// first completed): the follower path was not exercised; retry.
	}
	t.Fatal("engines never overlapped on the panicking point in 100 attempts")
}

// TestEngineAdoptsLedPointLast is the no-wait contract: a one-worker
// engine that meets a point another engine is leading keeps the
// flight and runs its other points first, then adopts the held point
// as Shared, with outcomes still in declaration order.
func TestEngineAdoptsLedPointLast(t *testing.T) {
	var flight Flight
	started, release := make(chan struct{}), make(chan struct{})
	held := Point{Key: "held", Fingerprint: "fp-held", Run: func() Outcome {
		close(started)
		<-release
		return Outcome{Dur: 7}
	}}
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		(&Engine{Jobs: 1, Flight: &flight}).Run([]Point{held})
	}()
	<-started

	point := func(key string, dur sim.Tick) Point {
		return Point{Key: key, Fingerprint: "fp-" + key, Run: func() Outcome { return Outcome{Dur: dur} }}
	}
	points := []Point{point("a", 1), held, point("c", 3)}
	reports := make(chan Result, len(points))
	outs := make(chan []Outcome, 1)
	go func() {
		outs <- (&Engine{Jobs: 1, Flight: &flight, OnResult: func(r Result) { reports <- r }}).Run(points)
	}()
	// Both other points finish while the held one is still in flight.
	for _, want := range []string{"a", "c"} {
		select {
		case r := <-reports:
			if r.Key != want || r.Shared || r.Cached {
				t.Fatalf("report %+v, want %s run cold", r, want)
			}
		case <-time.After(10 * time.Second):
			close(release)
			t.Fatalf("engine waited on the held point before running %s", want)
		}
	}
	close(release)
	if r := <-reports; r.Key != "held" || !r.Shared || r.Index != 1 || r.Outcome.Dur != 7 {
		t.Fatalf("last report %+v, want the held point adopted as Shared", r)
	}
	got := <-outs
	for i, want := range []sim.Tick{1, 7, 3} {
		if got[i].Dur != want {
			t.Fatalf("outcome %d = %v, want %v (declaration order)", i, got[i].Dur, want)
		}
	}
	<-leaderDone
	if flight.Inflight() != 0 {
		t.Fatal("flight still tracks a landed call")
	}
}

// blocking returns n distinct points that count how many of them are
// running at once (peak holds the maximum) and block until release
// closes.
func blocking(tag string, n int, running, peak *atomic.Int32, release chan struct{}) []Point {
	ps := make([]Point, n)
	for i := range ps {
		ps[i] = Point{Key: fmt.Sprintf("%s%d", tag, i), Fingerprint: fmt.Sprintf("fp-%s-%d", tag, i), Run: func() Outcome {
			now := running.Add(1)
			for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
			}
			<-release
			running.Add(-1)
			return Outcome{Dur: sim.Tick(i)}
		}}
	}
	return ps
}

// waitRunning polls until want points are running at once.
func waitRunning(t *testing.T, running *atomic.Int32, want int32) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for running.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%d points running, want %d", running.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlightSlotsBoundEveryEngine pins the shared simulation budget:
// one engine may use every free slot, and two engines sharing the
// Flight never simulate more than its slots together.
func TestFlightSlotsBoundEveryEngine(t *testing.T) {
	t.Run("one engine uses every slot", func(t *testing.T) {
		flight := NewFlight(3)
		var running, peak atomic.Int32
		release := make(chan struct{})
		done := make(chan []Outcome, 1)
		go func() { done <- (&Engine{Jobs: 3, Flight: flight}).Run(blocking("a", 3, &running, &peak, release)) }()
		waitRunning(t, &running, 3)
		close(release)
		<-done
	})
	t.Run("two engines share the slots", func(t *testing.T) {
		flight := NewFlight(2)
		var running, peak atomic.Int32
		release := make(chan struct{})
		var wg sync.WaitGroup
		for _, tag := range []string{"a", "b"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				(&Engine{Jobs: 4, Flight: flight}).Run(blocking(tag, 4, &running, &peak, release))
			}()
		}
		waitRunning(t, &running, 2)
		time.Sleep(20 * time.Millisecond) // room for a third to slip in
		close(release)
		wg.Wait()
		if p := peak.Load(); p != 2 {
			t.Fatalf("peak %d simulations at once, want 2 (the Flight's slots)", p)
		}
	})
}

// TestColdWallExcludesSlotWait pins where the wall clock starts: a
// point that waited for a slot reports only its own run as Wall, so
// the profile and cold-point latencies never count the queueing.
func TestColdWallExcludesSlotWait(t *testing.T) {
	flight := NewFlight(1)
	var running, peak atomic.Int32
	release := make(chan struct{})
	holder := make(chan []Outcome, 1)
	go func() {
		holder <- (&Engine{Jobs: 1, Flight: flight}).Run(blocking("hold", 1, &running, &peak, release))
	}()
	waitRunning(t, &running, 1)

	var wall time.Duration
	waiter := make(chan []Outcome, 1)
	go func() {
		eng := &Engine{Jobs: 1, Flight: flight, OnResult: func(r Result) { wall = r.Wall }}
		waiter <- eng.Run([]Point{{Key: "quick", Fingerprint: "fp-quick", Run: func() Outcome { return Outcome{Dur: 1} }}})
	}()
	const held = 100 * time.Millisecond
	time.Sleep(held)
	close(release)
	<-holder
	<-waiter
	if wall >= held/2 {
		t.Fatalf("quick point's Wall = %v after a %v slot wait, want only its own run", wall, held)
	}
}
