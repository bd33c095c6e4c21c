package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"accesys/internal/sim"
)

// overwriteRecord replaces the entry JSON of fp's latest record in
// place with data, padded with spaces to the record's length, the way
// a disk corruption would: the log keeps its size and line layout.
func overwriteRecord(t *testing.T, c *Cache, fp, data string) {
	t.Helper()
	l := &c.log
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.refreshLocked(); err != nil {
		t.Fatal(err)
	}
	rec, ok := l.idx[sha256.Sum256([]byte(c.key(fp)))]
	n := rec.n - rec.head - 1
	if !ok || len(data) > n {
		t.Fatalf("no record of %d+ bytes for %q", len(data), fp)
	}
	f, err := os.OpenFile(l.path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte(data+strings.Repeat(" ", n-len(data))), rec.off+int64(rec.head)); err != nil {
		t.Fatal(err)
	}
}

// appendLog appends raw bytes to c's log, as another writer would.
func appendLog(t *testing.T, c *Cache, data string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(c.Dir(), logName), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(data); err != nil {
		t.Fatal(err)
	}
}

// TestLogHandlesSeeEachOthersPuts pins that two caches on one
// directory, as two processes would hold it, see each other's records
// on their next access, the latest record per key winning.
func TestLogHandlesSeeEachOthersPuts(t *testing.T) {
	a := openT(t, "s")
	b, err := Open(a.Dir())
	if err != nil {
		t.Fatal(err)
	}
	b.Salt = "s"
	x, y := Fingerprint("x"), Fingerprint("y")
	a.Put(x, Outcome{Dur: 1})
	if out, ok := b.Get(x); !ok || out.Dur != 1 {
		t.Fatalf("b.Get(x) = %+v %v, want a's record", out, ok)
	}
	b.Put(y, Outcome{Dur: 2})
	b.Put(x, Outcome{Dur: 3})
	if out, ok := a.Get(y); !ok || out.Dur != 2 {
		t.Fatalf("a.Get(y) = %+v %v, want b's record", out, ok)
	}
	if out, ok := a.Get(x); !ok || out.Dur != 3 {
		t.Fatalf("a.Get(x) = %+v %v, want b's superseding record", out, ok)
	}
	for name, c := range map[string]*Cache{"a": a, "b": b} {
		if _, misses, errors := c.Stats(); misses != 0 || errors != 0 {
			t.Fatalf("%s: %d misses %d errors, want none", name, misses, errors)
		}
	}
}

// TestLogConcurrentHandles drives two caches on one directory from four
// goroutines each (run it under -race): every Get returns what was put,
// and every record in the log decodes afterwards.
func TestLogConcurrentHandles(t *testing.T) {
	dir := t.TempDir()
	const keys = 16
	outcome := func(k int) Outcome {
		return Outcome{Dur: sim.Tick(k + 1), Values: map[string]float64{"k": float64(k)}}
	}
	var wg sync.WaitGroup
	for h := 0; h < 2; h++ {
		c, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					k := (h*7 + g*3 + i) % keys
					fp := Fingerprint("log-concurrent", k)
					if i%3 == 0 {
						c.Put(fp, outcome(k))
						continue
					}
					if out, ok := c.Get(fp); ok && !reflect.DeepEqual(out, outcome(k)) {
						t.Errorf("key %d: got %+v", k, out)
						return
					}
				}
				if _, _, errors := c.Stats(); errors != 0 {
					t.Errorf("%d cache errors", errors)
				}
			}()
		}
	}
	wg.Wait()

	data, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if last := lines[len(lines)-1]; len(last) != 0 {
		t.Fatalf("log ends in a partial line %q", last)
	}
	for _, line := range lines[:len(lines)-1] {
		if len(line) == 1 {
			continue // a handle that caught another's append mid-write started a fresh line
		}
		rec, key, ok := parseRecord(line)
		if !ok {
			t.Fatalf("line does not decode: %q", line)
		}
		if _, ok := decodeFull(line[rec.head:len(line)-1], key); !ok {
			t.Fatalf("entry does not decode: %q", line)
		}
	}
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < keys; k++ {
		if out, ok := fresh.Get(Fingerprint("log-concurrent", k)); !ok || !reflect.DeepEqual(out, outcome(k)) {
			t.Fatalf("key %d after the race: %+v %v", k, out, ok)
		}
	}
}

// TestLogTornTailLosesOnlyTornRecord pins that a record cut short (a
// writer killed mid-append) costs only itself: the next Put starts a
// fresh line, and every other record still reads back.
func TestLogTornTailLosesOnlyTornRecord(t *testing.T) {
	c := openT(t, "s")
	a, b, d := Fingerprint("torn-a"), Fingerprint("torn-b"), Fingerprint("torn-d")
	c.Put(a, Outcome{Dur: 1})
	c.Put(b, Outcome{Dur: 2})
	path := filepath.Join(c.Dir(), logName)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-10); err != nil {
		t.Fatal(err)
	}
	c.Put(d, Outcome{Dur: 4})

	fresh, err := Open(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	fresh.Salt = "s"
	for name, c := range map[string]*Cache{"writer": c, "fresh": fresh} {
		if out, ok := c.Get(a); !ok || out.Dur != 1 {
			t.Fatalf("%s: record before the torn one = %+v %v", name, out, ok)
		}
		if _, ok := c.Get(b); ok {
			t.Fatalf("%s: torn record hit", name)
		}
		if out, ok := c.Get(d); !ok || out.Dur != 4 {
			t.Fatalf("%s: record after the torn one = %+v %v", name, out, ok)
		}
		// The torn line kept its fingerprint, so it is b's latest record
		// and fails verification.
		if _, misses, errors := c.Stats(); misses != 1 || errors != 1 {
			t.Fatalf("%s: %d misses %d errors, want the torn record as a miss and an error", name, misses, errors)
		}
	}
}

// TestLogGCWhileAppending runs GC from one cache while another on the
// same directory appends: nothing panics or errors, and the appender
// re-indexes the compacted log once it sees it replaced.
func TestLogGCWhileAppending(t *testing.T) {
	a := openT(t, "s")
	b, err := Open(a.Dir())
	if err != nil {
		t.Fatal(err)
	}
	b.Salt = "s"
	stop := make(chan struct{})
	done := make(chan struct{})
	var puts atomic.Int64
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			fp := Fingerprint("gc-append", i%64)
			b.Put(fp, Outcome{Dur: sim.Tick(i%64 + 1)})
			puts.Add(1)
			if out, ok := b.Get(fp); ok && out.Dur != sim.Tick(i%64+1) {
				t.Errorf("b.Get = %+v", out)
				return
			}
		}
	}()
	// Compact until the appender has run well past the first GCs, so
	// the two overlap however the goroutines are scheduled.
	for gcs := 0; gcs < 50 || puts.Load() < 300; gcs++ {
		if _, err := a.GC(0, 8); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done

	if _, err := a.GC(0, 1); err != nil {
		t.Fatal(err)
	}
	if entries, _, err := b.Usage(); err != nil || entries != 1 {
		t.Fatalf("b.Usage after GC = %d, %v; want the compacted log's 1 entry", entries, err)
	}
	z := Fingerprint("after-gc")
	b.Put(z, Outcome{Dur: 9})
	if out, ok := a.Get(z); !ok || out.Dur != 9 {
		t.Fatalf("a.Get of b's append to the compacted log = %+v %v", out, ok)
	}
	for name, c := range map[string]*Cache{"a": a, "b": b} {
		if _, _, errors := c.Stats(); errors != 0 {
			t.Fatalf("%s: %d cache errors", name, errors)
		}
	}
}

// FuzzCacheLog feeds arbitrary bytes to a cache as its entries.log.
// Refresh, Get, Usage, GC and Put must never panic; every hit must
// equal decodeFull of a complete line naming its key; a Put after any
// content must read back from a fresh cache; and a GC with no bounds
// must keep every hit.
func FuzzCacheLog(f *testing.F) {
	c, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	c.Put(Fingerprint("gemm", 64, map[string]any{"Name": "a<b>&c"}), Outcome{Dur: 9054850, Values: map[string]float64{"pages": 12}})
	c.Put("plain", Outcome{Dur: 1})
	c.Put("plain", Outcome{Dur: 2})
	c.Put("bad utf8 \xff", Outcome{})
	real, err := os.ReadFile(filepath.Join(c.Dir(), logName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(real[:len(real)-7])
	f.Add(append(bytes.Clone(real), "12 {not json\n\n"...))
	f.Add([]byte("1 {\"fingerprint\":\"plain\",\"outcome\":{\"dur\":1}}\n1 {\"fingerprint\":\"plain\",\"outcome\":{\"dur\":\"x\"}}\n"))
	f.Add([]byte("x {\"fingerprint\":\"plain\",\"outcome\":{}}\n -1 {}\n"))
	f.Add([]byte("1 {\"fingerprint\":\"a\",\"outcome\":{\"dur\":1},\"fingerprint\":\"b\"}\n2 {\"outcome\":{\"dur\":2},\"fingerprint\":\"b\"}\n"))
	f.Add([]byte("1 {\"fingerprint\":\"a\\\"b\",XXXXXXXXXX{\"dur\":1}}\n"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, logName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		hits := checkLogHits(t, c, data)
		if entries, _, err := c.Usage(); err != nil || entries < len(hits) {
			t.Fatalf("Usage = %d, %v; want at least the %d keys that hit", entries, err, len(hits))
		}
		const fresh = "a key put after the fuzzed content"
		c.Put(fresh, Outcome{Dur: 7})
		// The Put may have completed a torn last line, so take the hits
		// from the log as it now is, then check GC keeps them all.
		if data, err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		var want map[string]Outcome
		for _, gc := range []bool{false, true} {
			if gc {
				if _, err := c.GC(0, 0); err != nil {
					t.Fatal(err)
				}
			}
			again, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			got := checkLogHits(t, again, data)
			if out, ok := got[fresh]; !ok || out.Dur != 7 {
				t.Fatalf("gc %v: Put after the fuzzed content reads back %+v %v", gc, out, ok)
			}
			if gc && !reflect.DeepEqual(got, want) {
				t.Fatalf("GC changed the hits:\n%+v\n%+v", want, got)
			}
			want = got
		}
	})
}

// checkLogHits gets every key a complete line of the log data names
// from c, checks each hit equals decodeFull of one of those lines, and
// returns the hits.
func checkLogHits(t *testing.T, c *Cache, data []byte) map[string]Outcome {
	t.Helper()
	lines := map[string][]Outcome{}
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		body, complete := bytes.CutSuffix(line, []byte("\n"))
		at, entryJSON, ok := bytes.Cut(body, []byte(" "))
		if !complete || !ok {
			continue
		}
		if _, err := strconv.ParseInt(string(at), 10, 64); err != nil {
			continue
		}
		var e entry
		if json.Unmarshal(entryJSON, &e) != nil {
			continue
		}
		if out, ok := decodeFull(entryJSON, e.Fingerprint); ok {
			lines[e.Fingerprint] = append(lines[e.Fingerprint], out)
		}
	}
	hits := map[string]Outcome{}
	for key, outs := range lines {
		if out, ok := c.Get(key); ok {
			if !slices.ContainsFunc(outs, func(o Outcome) bool { return reflect.DeepEqual(o, out) }) {
				t.Fatalf("Get(%q) = %+v, no line naming the key decodes to it: %+v", key, out, outs)
			}
			hits[key] = out
		}
	}
	return hits
}
