package sweep

import (
	"errors"
	"os"
	"testing"
)

// TestMemoryCacheRoundTrip pins the cache with no directory: Put and Get
// round-trip through the memory tier, hits hand out copies of Values,
// hits and misses are counted, and nothing appears on disk — not even
// relative to the working directory.
func TestMemoryCacheRoundTrip(t *testing.T) {
	t.Chdir(t.TempDir())
	c := Memory()
	c.Salt = "s"
	if c.Dir() != "" {
		t.Fatalf("Dir() = %q, want empty", c.Dir())
	}
	fp := Fingerprint("mem")
	if _, ok := c.Get(fp); ok {
		t.Fatal("empty memory cache served a hit")
	}
	vals := map[string]float64{"x": 1}
	c.Put(fp, Outcome{Dur: 5, Values: vals})
	vals["x"] = 42 // the caller keeps its map; the cache must not alias it
	for i := 0; i < 3; i++ {
		out, ok := c.Get(fp)
		if !ok || out.Dur != 5 || out.Values["x"] != 1 || len(out.Values) != 1 {
			t.Fatalf("get %d = %+v %v, want the stored outcome", i, out, ok)
		}
		out.Values["x"] = 99
		out.Values["y"] = 7
	}
	c.Put(fp, Outcome{Dur: 6})
	if out, ok := c.Get(fp); !ok || out.Dur != 6 {
		t.Fatalf("Get after a second Put = %+v %v, want the new outcome", out, ok)
	}
	if hits, misses, errors := c.Stats(); hits != 4 || misses != 1 || errors != 0 {
		t.Fatalf("stats = %d/%d/%d, want 4 hits 1 miss", hits, misses, errors)
	}
	c.FlushCounters()
	c.GC(0, 1)
	des, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 0 {
		t.Fatalf("memory cache wrote %d files into the working directory", len(des))
	}
}

// TestMemoryCacheBounded pins that Put respects memCap: the tier never
// grows past it however many distinct points a process runs.
func TestMemoryCacheBounded(t *testing.T) {
	c := Memory()
	for i := 0; i < memCap+16; i++ {
		c.Put(Fingerprint("bound", i), Outcome{Dur: 1})
	}
	c.mu.Lock()
	size := len(c.mem)
	c.mu.Unlock()
	if size != memCap {
		t.Fatalf("memory tier holds %d entries, want memCap=%d", size, memCap)
	}
	hits := 0
	for i := 0; i < memCap+16; i++ {
		if _, ok := c.Get(Fingerprint("bound", i)); ok {
			hits++
		}
	}
	if hits != memCap {
		t.Fatalf("%d of %d puts still served, want memCap=%d", hits, memCap+16, memCap)
	}
}

// TestMemoryCacheDiskMethodsFail pins that every disk-only method
// refuses a cache with no directory instead of resolving paths against
// the working directory.
func TestMemoryCacheDiskMethodsFail(t *testing.T) {
	t.Chdir(t.TempDir())
	c := Memory()
	c.Get(Fingerprint("miss"))
	disk := openT(t, "")
	checks := map[string]error{}
	_, checks["Counters"] = c.Counters()
	checks["FlushCounters"] = c.FlushCounters()
	_, checks["GC"] = c.GC(0, 0)
	_, _, checks["Usage"] = c.Usage()
	_, checks["ImportFrom into memory"] = c.ImportFrom(disk)
	_, checks["ImportFrom out of memory"] = disk.ImportFrom(c)
	checks["AddCounters"] = c.AddCounters(Counters{Hits: 1})
	for name, err := range checks {
		if !errors.Is(err, errNoDir) {
			t.Errorf("%s on a memory cache: err = %v, want errNoDir", name, err)
		}
	}
	// A refused flush keeps the counts, and Totals still reports them.
	tot, err := c.Totals()
	if !errors.Is(err, errNoDir) || tot != (Counters{Misses: 1}) {
		t.Fatalf("Totals = %+v, %v; want 1 miss with errNoDir", tot, err)
	}
	if des, _ := os.ReadDir("."); len(des) != 0 {
		t.Fatalf("memory cache wrote %d files into the working directory", len(des))
	}
}
