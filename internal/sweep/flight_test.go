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
	var runs atomic.Int32
	release := make(chan struct{})
	started := make(chan struct{})

	leaderDone := make(chan Outcome, 1)
	go func() {
		out, led := f.Do("k", func() Outcome {
			close(started)
			runs.Add(1)
			<-release
			return Outcome{Dur: 42}
		})
		if !led {
			t.Error("first caller did not lead")
		}
		leaderDone <- out
	}()
	<-started

	const followers = 8
	var wg sync.WaitGroup
	var calling sync.WaitGroup
	outs := make([]Outcome, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		calling.Add(1)
		go func(i int) {
			defer wg.Done()
			calling.Done()
			out, led := f.Do("k", func() Outcome {
				runs.Add(1)
				return Outcome{Dur: 9999}
			})
			if led {
				t.Error("follower led while the leader was in flight")
			}
			outs[i] = out
		}(i)
	}
	// The leader stays blocked on release until every follower is at
	// (or past) its Do call, so all of them join the in-flight call.
	calling.Wait()
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if out := <-leaderDone; out.Dur != 42 {
		t.Fatalf("leader outcome = %v", out.Dur)
	}
	for i, out := range outs {
		if out.Dur != 42 {
			t.Fatalf("follower %d outcome = %v, want 42", i, out.Dur)
		}
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	if f.Inflight() != 0 {
		t.Fatal("flight still tracks a completed call")
	}
}

func TestFlightForgetsCompletedCalls(t *testing.T) {
	var f Flight
	for i := 0; i < 3; i++ {
		out, led := f.Do("k", func() Outcome { return Outcome{Dur: 7} })
		if !led || out.Dur != 7 {
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
			f.Do(fmt.Sprintf("k%d", i), func() Outcome {
				if i == 3 {
					close(gate)
				}
				<-gate
				return Outcome{}
			})
		}(i)
	}
	wg.Wait()
}

func TestFlightFailureReachesLeader(t *testing.T) {
	var f Flight
	boom := errors.New("boom")
	out, led := f.Do("k", func() Outcome { return Outcome{Err: boom} })
	if !led || out.Err != boom {
		t.Fatalf("leader got led=%v err=%v, want its own failure", led, out.Err)
	}
	if f.Inflight() != 0 {
		t.Fatal("failed call still tracked")
	}
	// The key is forgotten: a later call runs fn again.
	if out, led := f.Do("k", func() Outcome { return Outcome{Dur: 1} }); !led || out.Err != nil {
		t.Fatalf("call after a failure: led=%v err=%v, want a fresh run", led, out.Err)
	}
}

func TestFlightFailureReachesFollowers(t *testing.T) {
	// A follower that arrives after the leader's call completes leads a
	// fresh call instead of adopting the failure, so retry the scenario
	// until the follower genuinely followed.
	boom := errors.New("boom")
	for attempt := 0; attempt < 100; attempt++ {
		var f Flight
		release := make(chan struct{})
		started := make(chan struct{})
		go f.Do("k", func() Outcome {
			close(started)
			<-release
			return Outcome{Err: boom}
		})
		<-started
		type outcome struct {
			led bool
			out Outcome
		}
		follower := make(chan outcome, 1)
		go func() {
			var o outcome
			o.out, o.led = f.Do("k", func() Outcome { return Outcome{Dur: 1} })
			follower <- o
		}()
		time.Sleep(time.Duration(attempt+1) * time.Millisecond)
		close(release)
		o := <-follower
		if o.led {
			continue // follower raced in too late; try again
		}
		if o.out.Err != boom {
			t.Fatalf("follower adopted %+v, want the leader's failure", o.out)
		}
		return
	}
	t.Fatal("follower never overlapped the leader in 100 attempts")
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
