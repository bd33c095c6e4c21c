package sweep

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accesys/internal/sim"
)

func fillCache(t *testing.T, c *Cache, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		c.Put(Fingerprint("gc", i), Outcome{Dur: 1})
	}
}

func TestUsageCountsOnlyEntries(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fillCache(t, c, 3)
	// A superseding Put and non-log files in the directory must not
	// count.
	c.Put(Fingerprint("gc", 0), Outcome{Dur: 2})
	if err := os.WriteFile(filepath.Join(c.Dir(), countersName), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(c.Dir(), "put-zz.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, bytes, err := c.Usage()
	if err != nil {
		t.Fatal(err)
	}
	if entries != 3 {
		t.Fatalf("entries = %d, want 3", entries)
	}
	if bytes == 0 {
		t.Fatal("usage bytes should be nonzero")
	}
}

// fillAt puts entries gc/from..gc/to-1 with the cache Clock reading at.
func fillAt(c *Cache, from, to int, at time.Time) {
	c.Clock = func() time.Time { return at }
	for i := from; i < to; i++ {
		c.Put(Fingerprint("gc", i), Outcome{Dur: 1})
	}
}

func TestGCByCountEvictsOldest(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// The first two entries are written an hour earlier, so write-time
	// ordering is unambiguous.
	fillAt(c, 0, 2, gcBase)
	fillAt(c, 2, 5, gcBase.Add(time.Hour))

	res, err := c.GC(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 5 || res.Evicted != 2 || res.EvictedBytes == 0 {
		t.Fatalf("gc result = %+v, want scanned 5, evicted 2", res)
	}
	// The older entries are gone; the newest three survive.
	for i := 0; i < 2; i++ {
		if _, ok := c.Get(Fingerprint("gc", i)); ok {
			t.Fatalf("entry %d should be evicted", i)
		}
	}
	for i := 2; i < 5; i++ {
		if _, ok := c.Get(Fingerprint("gc", i)); !ok {
			t.Fatalf("entry %d should survive", i)
		}
	}
}

// gcBase is the fixed epoch the fake-clock tests write entries and age
// them against, so ages are exact and independent of when the test
// runs.
var gcBase = time.Unix(1_700_000_000, 0)

func TestGCByAge(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Entry 0 is 49h old at GC time, the others 13h — only 0 crosses
	// the 24h bound.
	fillAt(c, 0, 1, gcBase)
	fillAt(c, 1, 3, gcBase.Add(36*time.Hour))
	c.Clock = func() time.Time { return gcBase.Add(49 * time.Hour) }
	res, err := c.GC(24*time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evicted != 1 {
		t.Fatalf("evicted %d, want 1", res.Evicted)
	}
	if entries, _, _ := c.Usage(); entries != 2 {
		t.Fatalf("entries = %d, want 2", entries)
	}
	if _, ok := c.Get(Fingerprint("gc", 0)); ok {
		t.Fatal("49h-old entry should be evicted")
	}
	// A second handle reading the compacted log agrees.
	again, err := Open(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if entries, _, _ := again.Usage(); entries != 2 {
		t.Fatalf("reopened entries = %d, want 2", entries)
	}
}

func TestGCRemovesStaleTemps(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(c.Dir(), "put-stale.tmp")
	fresh := filepath.Join(c.Dir(), "put-fresh.tmp")
	for p, mod := range map[string]time.Time{
		stale: gcBase,                // age gcTempAge+1m: abandoned
		fresh: gcBase.Add(gcTempAge), // age 1m: maybe a live writer
	} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, mod, mod); err != nil {
			t.Fatal(err)
		}
	}
	c.Clock = func() time.Time { return gcBase.Add(gcTempAge + time.Minute) }
	res, err := c.GC(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Temps != 1 {
		t.Fatalf("temps removed = %d, want 1", res.Temps)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatal("fresh temp (possibly a live writer's) must survive")
	}
}

// TestGCRacesWarmSweep hammers GC against engines reading and writing
// the same cache — the serve daemon's steady state. A nanosecond max
// age makes every landed entry instantly stale, so eviction races
// every Get window (the real clock stays: skewing it forward would
// also age in-flight staging temps past gcTempAge, a reap no live
// deployment sees). Evicted entries must read as misses and
// re-simulate; nothing may surface as an error or a wrong outcome.
func TestGCRacesWarmSweep(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	points := make([]Point, 8)
	for i := range points {
		i := i
		points[i] = Point{
			Key:         fmt.Sprintf("p%d", i),
			Fingerprint: Fingerprint("gc-race", i),
			Run:         func() Outcome { return Outcome{Dur: sim.Tick(100 + i)} },
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := cache.GC(time.Nanosecond, 2); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	eng := &Engine{Jobs: 4, Cache: cache}
	for round := 0; round < 10; round++ {
		for i, out := range eng.Run(points) {
			if out.Dur != sim.Tick(100+i) {
				t.Fatalf("round %d point %d outcome = %v", round, i, out.Dur)
			}
		}
	}
	close(stop)
	wg.Wait()

	if _, _, errors := cache.Stats(); errors != 0 {
		t.Fatalf("eviction races produced %d cache errors; evicted entries must read as plain misses", errors)
	}
}

func TestGCUnboundedKeepsEverything(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fillCache(t, c, 4)
	res, err := c.GC(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evicted != 0 || res.Scanned != 4 {
		t.Fatalf("unbounded gc evicted %d of %d", res.Evicted, res.Scanned)
	}
}

func TestCountersFlushAccumulates(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.Put(Fingerprint("x"), Outcome{Dur: 1})
	c.Get(Fingerprint("x")) // hit
	c.Get(Fingerprint("y")) // miss
	if err := c.FlushCounters(); err != nil {
		t.Fatal(err)
	}
	// Flush resets the in-memory counts so a second flush adds nothing.
	if err := c.FlushCounters(); err != nil {
		t.Fatal(err)
	}
	tot, err := c.Counters()
	if err != nil {
		t.Fatal(err)
	}
	if tot.Hits != 1 || tot.Misses != 1 || tot.Errors != 0 {
		t.Fatalf("counters = %+v, want 1 hit 1 miss", tot)
	}

	// A second process sharing the directory folds its counts in.
	c2, err := Open(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	c2.Get(Fingerprint("x"))
	if err := c2.FlushCounters(); err != nil {
		t.Fatal(err)
	}
	tot, err = c.Counters()
	if err != nil {
		t.Fatal(err)
	}
	if tot.Hits != 2 {
		t.Fatalf("cumulative hits = %d, want 2", tot.Hits)
	}
}

func TestCountersSurviveGC(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fillCache(t, c, 2)
	c.Get(Fingerprint("gc", 0))
	if err := c.FlushCounters(); err != nil {
		t.Fatal(err)
	}
	p, err := LoadProfile(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	p.Observe("gc", time.Second)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GC(0, 1); err != nil {
		t.Fatal(err)
	}
	// Both journals hold the only copy of what was flushed: GC must
	// leave them in place.
	for _, name := range []string{countersJournalName, profileJournalName} {
		if _, err := os.Stat(filepath.Join(c.Dir(), name)); err != nil {
			t.Fatalf("gc removed %s: %v", name, err)
		}
	}
	tot, err := c.Counters()
	if err != nil {
		t.Fatal(err)
	}
	if tot.Hits != 1 {
		t.Fatalf("counters lost by gc: %+v", tot)
	}
	if p, err = LoadProfile(c.Dir()); err != nil {
		t.Fatal(err)
	}
	if w, ok := p.Wall("gc"); !ok || w != time.Second {
		t.Fatalf("profile lost by gc: %v, %v", w, ok)
	}
}

// TestFlushCountersConcurrentHandlesLoseNothing pins the cross-handle
// counter race: two Caches on one directory — as two processes sharing
// it hold — flush concurrently, and every count must land. A
// read-modify-write of counters.json under a per-Cache mutex loses
// some; journalled deltas under the directory's lock file lose none.
func TestFlushCountersConcurrentHandlesLoseNothing(t *testing.T) {
	dir := t.TempDir()
	const rounds = 200
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		c, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c.Get(Fingerprint("absent", w, i)) // one miss
				if err := c.FlushCounters(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tot, err := c.Counters()
	if err != nil {
		t.Fatal(err)
	}
	if (tot != Counters{Misses: 2 * rounds}) {
		t.Fatalf("counters = %+v, want %d misses (a concurrent flush lost counts)", tot, 2*rounds)
	}
}

// TestTotalsNeverDropDuringFlush pins the lifetime counters a daemon
// reports against a concurrent flush. FlushCounters moves counts from
// memory into the persisted file; a reader summing the two must never
// see a total below the count already recorded, as it would if it
// read the zeroed memory counts and then the not-yet-renamed file.
func TestTotalsNeverDropDuringFlush(t *testing.T) {
	c := openT(t, "")
	const flushes = 300
	var recorded atomic.Int64
	done := make(chan error, 1)
	go func() {
		for i := 0; i < flushes; i++ {
			c.Get(Fingerprint("absent", i)) // one miss
			recorded.Add(1)
			if err := c.FlushCounters(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for reads := 0; ; reads++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if tot, err := c.Totals(); err != nil || tot.Misses != flushes {
				t.Fatalf("final totals = %+v, %v; want %d misses", tot, err, flushes)
			}
			return
		default:
		}
		want := recorded.Load()
		tot, err := c.Totals()
		if err != nil {
			t.Fatal(err)
		}
		if int64(tot.Misses) < want {
			t.Fatalf("read %d: totals show %d misses after %d were recorded", reads, tot.Misses, want)
		}
	}
}
