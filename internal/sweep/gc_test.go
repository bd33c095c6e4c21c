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
	// Non-entry files in the directory must not count.
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

func TestGCByCountEvictsOldest(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fillCache(t, c, 5)
	// Backdate the first two entries so mtime ordering is unambiguous.
	old := time.Now().Add(-time.Hour)
	for i := 0; i < 2; i++ {
		path := c.path(c.key(Fingerprint("gc", i)))
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
	}

	res, err := c.GC(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 5 || res.Evicted != 2 || res.EvictedBytes == 0 {
		t.Fatalf("gc result = %+v, want scanned 5, evicted 2", res)
	}
	// The backdated entries are gone; the newest three survive.
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

// gcBase is the fixed epoch the fake-clock GC tests pin entry mtimes
// and the cache Clock against, so ages are exact and independent of
// when the test runs.
var gcBase = time.Unix(1_700_000_000, 0)

func TestGCByAge(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fillCache(t, c, 3)
	// Pin every entry's mtime and read "now" off the fake clock: entry
	// 0 is 49h old, the others 13h — only 0 crosses the 24h bound.
	for i := 0; i < 3; i++ {
		mod := gcBase.Add(36 * time.Hour)
		if i == 0 {
			mod = gcBase
		}
		path := c.path(c.key(Fingerprint("gc", i)))
		if err := os.Chtimes(path, mod, mod); err != nil {
			t.Fatal(err)
		}
	}
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
// also age in-flight put temps past gcTempAge, a reap no live
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
	if _, err := c.GC(0, 1); err != nil {
		t.Fatal(err)
	}
	tot, err := c.Counters()
	if err != nil {
		t.Fatal(err)
	}
	if tot.Hits != 1 {
		t.Fatalf("counters lost by gc: %+v", tot)
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
