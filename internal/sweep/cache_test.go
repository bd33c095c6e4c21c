package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accesys/internal/sim"
)

// TestCacheHitValuesAreCopies pins that no caller can alias an outcome
// the memory tier keeps: mutating the Values of a disk hit or of a
// memory hit never changes what the next Get returns.
func TestCacheHitValuesAreCopies(t *testing.T) {
	c := openT(t, "s")
	fp := Fingerprint("copies")
	c.Put(fp, Outcome{Dur: 5, Values: map[string]float64{"x": 1}})
	for i := 0; i < 3; i++ {
		out, ok := c.Get(fp)
		if !ok || out.Dur != 5 || out.Values["x"] != 1 || len(out.Values) != 1 {
			t.Fatalf("get %d = %+v %v, want the stored outcome", i, out, ok)
		}
		out.Values["x"] = 99
		out.Values["y"] = 7
	}
	if hits, misses, errors := c.Stats(); hits != 3 || misses != 0 || errors != 0 {
		t.Fatalf("stats = %d/%d/%d, want 3 hits", hits, misses, errors)
	}
}

// TestCachePutAfterMemoryHitIsVisible pins that Put invalidates the
// memory tier: a Get served from memory never hides a later Put.
func TestCachePutAfterMemoryHitIsVisible(t *testing.T) {
	c := openT(t, "s")
	fp := Fingerprint("overwrite")
	c.Put(fp, Outcome{Dur: 1})
	c.Get(fp) // disk hit, promoted
	c.mu.Lock()
	_, promoted := c.mem[c.key(fp)]
	c.mu.Unlock()
	if !promoted {
		t.Fatal("a verified disk hit should be promoted to the memory tier")
	}
	if out, ok := c.Get(fp); !ok || out.Dur != 1 {
		t.Fatalf("memory hit = %+v %v", out, ok)
	}
	c.Put(fp, Outcome{Dur: 2})
	if out, ok := c.Get(fp); !ok || out.Dur != 2 {
		t.Fatalf("Get after Put = %+v %v, want the new outcome", out, ok)
	}
}

// TestCacheGCEvictionClearsMemoryTier pins that an evicted entry reads
// as a miss and re-simulates even though this process already served
// it from memory.
func TestCacheGCEvictionClearsMemoryTier(t *testing.T) {
	c := openT(t, "s")
	var ran atomic.Int64
	eng := &Engine{Jobs: 1, Cache: c}
	eng.Run(slowPoints(4, &ran))
	eng.Run(slowPoints(4, &ran)) // warm: every point promoted
	eng.Run(slowPoints(4, &ran)) // served from memory
	if ran.Load() != 4 {
		t.Fatalf("ran %d points before GC, want 4", ran.Load())
	}
	c.Clock = func() time.Time { return time.Now().Add(time.Hour) }
	if res, err := c.GC(time.Minute, 0); err != nil || res.Evicted != 4 {
		t.Fatalf("GC = %+v %v, want 4 evicted", res, err)
	}
	eng.Run(slowPoints(4, &ran))
	if ran.Load() != 8 {
		t.Fatalf("ran %d points after GC, want every evicted point re-simulated (8)", ran.Load())
	}
	if hits, misses, errors := c.Stats(); hits != 8 || misses != 8 || errors != 0 {
		t.Fatalf("stats = %d/%d/%d, want 8/8/0", hits, misses, errors)
	}
}

// TestCacheCountsFixedSequence pins the hit/miss/error accounting of a
// fixed Get/Put/GC sequence, so the memory tier never changes what the
// counters and counters.json mean.
func TestCacheCountsFixedSequence(t *testing.T) {
	c := openT(t, "s")
	a, b, d := Fingerprint("seq-a"), Fingerprint("seq-b"), Fingerprint("seq-d")
	corrupt := func(fp string) {
		if err := os.WriteFile(c.path(c.key(fp)), []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c.Get(a) // miss
	c.Put(a, Outcome{Dur: 1})
	c.Get(a) // hit (disk)
	c.Get(a) // hit
	c.Get(b) // miss
	c.Put(b, Outcome{Dur: 2})
	c.Get(b) // hit (disk)
	c.Put(a, Outcome{Dur: 3})
	c.Get(a) // hit (disk)
	corrupt(b)
	c.Put(b, Outcome{Dur: 2}) // repairs the file
	c.Get(b)                  // hit (disk)
	c.Put(d, Outcome{Dur: 4})
	corrupt(d)
	c.Get(d) // miss, error
	c.Put(d, Outcome{Dur: 4})
	c.Get(d) // hit (disk)
	c.Clock = func() time.Time { return time.Now().Add(time.Hour) }
	if _, err := c.GC(time.Minute, 0); err != nil {
		t.Fatal(err)
	}
	c.Get(a) // miss
	c.Get(b) // miss
	hits, misses, errors := c.Stats()
	if hits != 6 || misses != 5 || errors != 1 {
		t.Fatalf("stats = %d/%d/%d, want 6 hits, 5 misses, 1 error", hits, misses, errors)
	}
}

// TestPutRefBytesTakeFastPath pins PutRef's on-disk bytes to the exact
// prefix decodeTail compares against, so real entries are decoded
// without re-parsing their fingerprint.
func TestPutRefBytesTakeFastPath(t *testing.T) {
	c := openT(t, fmt.Sprintf("%064x", 3))
	fp := Fingerprint("gemm", 64, map[string]any{"Name": "a<b>&c", "Sep": "\u2028"})
	out := Outcome{Dur: 9054850, Values: map[string]float64{"pages": 12}}
	c.Put(fp, out)
	data, err := os.ReadFile(c.path(c.key(fp)))
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := entryPrefix(c.key(fp))
	if err != nil {
		t.Fatal(err)
	}
	if want := string(prefix) + `{"dur":9054850,"values":{"pages":12}}}`; string(data) != want {
		t.Fatalf("entry bytes %q, want %q", data, want)
	}
	if got, ok := decodeTail(data, c.key(fp)); !ok || !reflect.DeepEqual(got, out) {
		t.Fatalf("fast path on PutRef output = %+v %v", got, ok)
	}
}

// TestCacheReadErrorCountsAsError pins that a broken cache directory
// shows up in the error counter: a directory sitting at an entry's path
// cannot be read, which is a miss and an error, unlike a plain absent
// entry.
func TestCacheReadErrorCountsAsError(t *testing.T) {
	c := openT(t, "s")
	if _, ok := c.Get(Fingerprint("absent")); ok {
		t.Fatal("absent entry hit")
	}
	if _, misses, errors := c.Stats(); misses != 1 || errors != 0 {
		t.Fatalf("absent entry: %d misses %d errors, want 1/0", misses, errors)
	}
	fp := Fingerprint("dir-in-the-way")
	if err := os.Mkdir(c.path(c.key(fp)), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(fp); ok {
		t.Fatal("unreadable entry hit")
	}
	if _, misses, errors := c.Stats(); misses != 2 || errors != 1 {
		t.Fatalf("unreadable entry: %d misses %d errors, want 2/1", misses, errors)
	}
}

// TestCacheMemoryTierBounded pins the memory tier's capacity.
func TestCacheMemoryTierBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("writes memCap+ entries")
	}
	c := openT(t, "s")
	n := memCap + 16
	for i := 0; i < n; i++ {
		c.Put(Fingerprint("bound", i), Outcome{Dur: 1})
	}
	for i := 0; i < n; i++ {
		if _, ok := c.Get(Fingerprint("bound", i)); !ok {
			t.Fatalf("entry %d missed", i)
		}
	}
	c.mu.Lock()
	size := len(c.mem)
	c.mu.Unlock()
	if size != memCap {
		t.Fatalf("memory tier holds %d entries, want memCap=%d", size, memCap)
	}
}

// TestCacheTierConcurrentGetPutGC drives the memory tier from several
// goroutines at once (run it under -race), in front of a directory and
// in a cache from Memory: every hit must return the key's own outcome,
// and callers mutating their copies never disturb one another.
func TestCacheTierConcurrentGetPutGC(t *testing.T) {
	for name, c := range map[string]*Cache{"disk": openT(t, "s"), "memory": Memory()} {
		t.Run(name, func(t *testing.T) {
			const keys = 4
			fps := make([]string, keys)
			for k := range fps {
				fps[k] = Fingerprint("concurrent", k)
				c.Put(fps[k], Outcome{Dur: sim.Tick(k), Values: map[string]float64{"k": float64(k)}})
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						k := (g + i) % keys
						switch {
						case g == 0 && i%20 == 0 && c.Dir() != "":
							if _, err := c.GC(0, 2); err != nil {
								t.Error(err)
								return
							}
						case g == 1 && i%5 == 0:
							c.Put(fps[k], Outcome{Dur: sim.Tick(k), Values: map[string]float64{"k": float64(k)}})
						default:
							out, ok := c.Get(fps[k])
							if !ok {
								continue // evicted by GC
							}
							if out.Dur != sim.Tick(k) || out.Values["k"] != float64(k) || len(out.Values) != 1 {
								t.Errorf("key %d: got %+v", k, out)
								return
							}
							out.Values["k"] = -1
						}
					}
				}()
			}
			wg.Wait()
			if _, _, errors := c.Stats(); errors != 0 {
				t.Fatalf("%d cache errors, want 0", errors)
			}
		})
	}
}

// FuzzCacheEntry differentially checks decodeEntry's prefix fast path
// against the full decode: for arbitrary entry bytes and keys both must
// agree on hit or miss and on the outcome. Each input is tried as a
// whole file and as an outcome spliced behind the key's own prefix,
// where the fast path actually engages.
func FuzzCacheEntry(f *testing.F) {
	keys := []string{
		"plain",
		fmt.Sprintf("%064x\x00%s", 7, Fingerprint("gemm", 64, map[string]any{"Name": "a<b>&c", "N": 3})),
		"html <>&",
		"nul \x00 byte",
		"line\nbreak\ttab\r",
		"bad utf8 \xff\xfe",
		"\u2028\u2029 separators",
		`quote " backslash \`,
	}
	outs := []Outcome{
		{},
		{Dur: 9054850, Values: map[string]float64{"bytes_in": 32768, "pages": 12}},
		{Dur: 1, Values: map[string]float64{}},
	}
	for _, key := range keys {
		for _, out := range outs {
			data, err := json.Marshal(entry{Fingerprint: key, Outcome: out})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data, key)
			f.Add(append(data, '\n'), key)
			tail, _ := json.Marshal(out)
			f.Add(tail, key)
		}
	}
	f.Add([]byte(`{"fingerprint":"plain","outcome":{"dur":1},"fingerprint":"other"}`), "plain")
	f.Add([]byte(`{"dur":1},"fingerprint":"other"`), "plain")
	f.Add([]byte(`{"fingerprint":"plain","outcome":{"dur":1}}`), "plain")
	f.Add([]byte(`{"Fingerprint":"plain","outcome":{"dur":1}}`), "plain")
	f.Add([]byte(`{"dur":"x"}`), "plain")
	f.Add([]byte(`null`), "plain")
	f.Add([]byte(`{not json`), "plain")

	f.Fuzz(func(t *testing.T, data []byte, key string) {
		check := func(what string, data []byte) {
			got, gok := decodeEntry(data, key)
			want, wok := decodeFull(data, key)
			if gok != wok || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %q key %q: fast path %+v %v, full decode %+v %v", what, data, key, got, gok, want, wok)
			}
		}
		check("file", data)
		if prefix, err := entryPrefix(key); err == nil {
			check("spliced", append(append(prefix, data...), '}'))
		}
	})
}

// FuzzProfileLoad feeds arbitrary bytes to LoadProfile as a cache
// directory's profile.json. A file that loads must hold only positive
// walls, predict a positive wall for any digest given a positive
// default, and survive Load -> Flush -> Load with every wall intact.
func FuzzProfileLoad(f *testing.F) {
	dir := f.TempDir()
	p, err := LoadProfile(dir)
	if err != nil {
		f.Fatal(err)
	}
	p.Observe("a", 10*time.Millisecond)
	p.Observe("b", 30*time.Millisecond)
	p.Observe("b", time.Nanosecond)
	if err := p.Flush(); err != nil {
		f.Fatal(err)
	}
	flushed, err := os.ReadFile(filepath.Join(dir, ProfileName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(flushed)
	f.Add([]byte(`{"walls_ns":{"a":0,"b":-5,"c":1}}`))
	f.Add([]byte(`{"walls_ns":{"a":9223372036854775807,"b":9223372036854775807}}`))
	f.Add([]byte(`{"walls_ns":null}`))
	f.Add([]byte(`{"walls_ns":{"a":1.5}}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, ProfileName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := LoadProfile(dir)
		if err != nil {
			return
		}
		for d, ns := range p.walls {
			if ns <= 0 {
				t.Fatalf("loaded wall %d for %q", ns, d)
			}
			if got := p.Predict(d, time.Nanosecond); got <= 0 {
				t.Fatalf("Predict(%q) = %v", d, got)
			}
		}
		if got := p.Predict(Digest("unprofiled"), time.Nanosecond); got <= 0 {
			t.Fatalf("Predict(unprofiled) = %v", got)
		}
		// Mark every wall as this process's, so Flush rewrites them all
		// over the fuzzed file it re-reads.
		for d := range p.walls {
			p.updated[d] = true
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := LoadProfile(dir)
		if err != nil {
			t.Fatalf("reload after Flush: %v", err)
		}
		if !reflect.DeepEqual(again.walls, p.walls) {
			t.Fatalf("walls changed across Flush:\n%v\n%v", p.walls, again.walls)
		}
	})
}

// FuzzCountersLoad feeds arbitrary bytes to Counters as a cache
// directory's counters.json. Counters that load must survive
// Load -> FlushCounters -> Load unchanged.
func FuzzCountersLoad(f *testing.F) {
	c, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	fp := Fingerprint("counters")
	c.Get(fp)
	c.Put(fp, Outcome{Dur: 1})
	c.Get(fp)
	if err := c.FlushCounters(); err != nil {
		f.Fatal(err)
	}
	flushed, err := os.ReadFile(filepath.Join(c.Dir(), countersName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(flushed)
	f.Add([]byte(`{"hits":-1,"misses":9223372036854775807}`))
	f.Add([]byte(`{"hits":1,"Hits":2}`))
	f.Add([]byte(`{"hits":1.5}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, countersName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := c.Counters()
		if err != nil {
			return
		}
		if err := c.FlushCounters(); err != nil {
			t.Fatal(err)
		}
		reopened, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		again, err := reopened.Counters()
		if err != nil {
			t.Fatalf("reload after FlushCounters: %v", err)
		}
		if again != loaded {
			t.Fatalf("counters changed across FlushCounters: %+v -> %+v", loaded, again)
		}
	})
}

// BenchmarkCacheGet measures one warm Cache.Get, the sweep.cache_get_us
// layer: "disk" reads and verifies the entry file on every iteration,
// "mem" is served by the memory tier. The entry is realistically sized
// (a ~2 KB salted fingerprint). It runs only when asked for with
// -bench in this package, never in the BENCH_*.json ratchet.
func BenchmarkCacheGet(b *testing.B) {
	fields := make(map[string]int, 80)
	for i := 0; i < 80; i++ {
		fields[fmt.Sprintf("Field%02d", i)] = i * 1000
	}
	fp := Fingerprint("gemm", 64, fields, "<nil>")
	out := Outcome{Dur: 9054850, Values: map[string]float64{"bytes_in": 32768, "bytes_out": 16384, "pages": 12, "tiles": 16}}
	for _, mode := range []string{"disk", "mem"} {
		b.Run(mode, func(b *testing.B) {
			c, err := Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			c.Salt = fmt.Sprintf("%064x", 1)
			c.Put(fp, out)
			c.Get(fp)
			b.ReportAllocs()
			for b.Loop() {
				if mode == "disk" {
					c.dropMem("")
				}
				if _, ok := c.Get(fp); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}
