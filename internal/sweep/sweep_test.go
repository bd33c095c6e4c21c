package sweep

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"accesys/internal/sim"
)

// slowPoints builds n points whose outcomes are derived from their
// index; earlier points sleep longer so completion order inverts
// declaration order under parallel execution.
func slowPoints(n int, ran *atomic.Int64) []Point {
	points := make([]Point, n)
	for i := 0; i < n; i++ {
		points[i] = Point{
			Key:         fmt.Sprintf("p%d", i),
			Fingerprint: Fingerprint("slow", i),
			Run: func() Outcome {
				if ran != nil {
					ran.Add(1)
				}
				time.Sleep(time.Duration(n-i) * time.Millisecond)
				return Outcome{
					Dur:    sim.Tick(i + 1),
					Values: map[string]float64{"idx": float64(i)},
				}
			},
		}
	}
	return points
}

func TestRunPreservesDeclarationOrder(t *testing.T) {
	points := slowPoints(16, nil)
	outs := (&Engine{Jobs: 8}).Run(points)
	if len(outs) != len(points) {
		t.Fatalf("got %d outcomes, want %d", len(outs), len(points))
	}
	for i, o := range outs {
		if o.Dur != sim.Tick(i+1) || o.Value("idx") != float64(i) {
			t.Fatalf("outs[%d] = %+v, not the declared point's outcome", i, o)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	seq := (&Engine{Jobs: 1}).Run(slowPoints(12, nil))
	par := (&Engine{Jobs: 6}).Run(slowPoints(12, nil))
	for i := range seq {
		if seq[i].Dur != par[i].Dur || seq[i].Value("idx") != par[i].Value("idx") {
			t.Fatalf("outcome %d differs: sequential %+v parallel %+v", i, seq[i], par[i])
		}
	}
}

func TestOnResultSeesEveryPointOnce(t *testing.T) {
	seen := make(map[int]int)
	eng := &Engine{Jobs: 4, OnResult: func(r Result) { seen[r.Index]++ }}
	eng.Run(slowPoints(10, nil))
	for i := 0; i < 10; i++ {
		if seen[i] != 1 {
			t.Fatalf("point %d reported %d times", i, seen[i])
		}
	}
}

func TestRunPanicPropagatesWithKey(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			points := slowPoints(4, nil)
			points[2].Run = func() Outcome { panic("boom") }
			outs := (&Engine{Jobs: jobs}).Run(points)
			err := outs[2].Err
			if err == nil || !errors.Is(err, ErrPoint) {
				t.Fatalf("panicking point's Err = %v, want an ErrPoint", err)
			}
			if msg := err.Error(); !strings.Contains(msg, `"p2" panicked`) || !strings.Contains(msg, "boom") {
				t.Fatalf("error %q missing point key or cause", msg)
			}
			if got := Failed(outs); got == nil || got.Error() != err.Error() {
				t.Fatalf("Failed = %v, want just the p2 error", got)
			}
		})
	}
}

// TestParallelPanicFinishesSiblings is the failure contract of a
// sweep: one panicking point in a -jobs 4 sweep fails only itself.
// Every sibling finishes, is cached and profiled; the bad point is
// neither, and a warm re-run re-simulates only it.
func TestParallelPanicFinishesSiblings(t *testing.T) {
	const n, bad = 12, 5
	cache := openT(t, "s")
	prof, err := LoadProfile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	points := slowPoints(n, &ran)
	points[bad].Run = func() Outcome { ran.Add(1); panic("early failure") }
	var failedReports atomic.Int64
	eng := &Engine{Jobs: 4, Cache: cache, Profile: prof, OnResult: func(r Result) {
		if r.Outcome.Err != nil {
			failedReports.Add(1)
		}
	}}
	outs := eng.Run(points)
	if got := ran.Load(); got != n {
		t.Fatalf("%d of %d points ran; every sibling must finish", got, n)
	}
	for i, o := range outs {
		if i == bad {
			if o.Err == nil {
				t.Fatal("panicking point reported no error")
			}
			continue
		}
		if o.Err != nil || o.Dur != sim.Tick(i+1) {
			t.Fatalf("sibling %d = %+v, want its own outcome", i, o)
		}
	}
	if failedReports.Load() != 1 {
		t.Fatalf("OnResult saw %d failed points, want 1", failedReports.Load())
	}
	if _, ok := cache.Get(points[bad].Fingerprint); ok {
		t.Fatal("the failed point was cached")
	}
	if _, ok := prof.Wall(points[bad].Fingerprint); ok || prof.Len() != n-1 {
		t.Fatalf("profile holds %d walls (failed point profiled: %v), want the %d siblings only", prof.Len(), ok, n-1)
	}
	ran.Store(0)
	again := eng.Run(points)
	if got := ran.Load(); got != 1 || again[bad].Err == nil {
		t.Fatalf("warm re-run simulated %d points (bad Err %v), want only the failed one", got, again[bad].Err)
	}
}

func TestFailedJoinsInDeclarationOrder(t *testing.T) {
	if err := Failed([]Outcome{{Dur: 1}, {}}); err != nil {
		t.Fatalf("Failed over successes = %v", err)
	}
	a, b := errors.New("a"), errors.New("b")
	err := Failed([]Outcome{{Err: a}, {Dur: 1}, {Err: b}})
	if !errors.Is(err, a) || !errors.Is(err, b) || err.Error() != "a\nb" {
		t.Fatalf("Failed = %q, want a then b", err)
	}
}

func TestOpenSaltedUsesBuildFingerprint(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenSalted(dir)
	if err != nil {
		t.Fatal(err)
	}
	if a.Salt == "" {
		t.Fatal("OpenSalted left the cache unsalted")
	}
	fp := Fingerprint("x")
	a.Put(fp, Outcome{Dur: 3})
	b, err := OpenSalted(dir)
	if err != nil {
		t.Fatal(err)
	}
	if out, ok := b.Get(fp); !ok || out.Dur != 3 {
		t.Fatalf("same binary should share entries, got %+v %v", out, ok)
	}
	unsalted, _ := Open(dir)
	if _, ok := unsalted.Get(fp); ok {
		t.Fatal("unsalted cache must not see salted entries")
	}
}

func TestSaltInvalidatesEntries(t *testing.T) {
	dir := t.TempDir()
	buildA, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	buildA.Salt = "build-a"
	fp := Fingerprint("point")
	buildA.Put(fp, Outcome{Dur: 9})

	buildB, _ := Open(dir)
	buildB.Salt = "build-b"
	if _, ok := buildB.Get(fp); ok {
		t.Fatal("entry from another build must read as a miss")
	}
	if out, ok := buildA.Get(fp); !ok || out.Dur != 9 {
		t.Fatalf("same-build entry should hit, got %+v %v", out, ok)
	}
}

func TestBinaryFingerprintStable(t *testing.T) {
	a, err := BinaryFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := BinaryFingerprint()
	if err != nil || a != b {
		t.Fatalf("fingerprint not stable within one process: %q vs %q (%v)", a, b, err)
	}
	if len(a) != 64 {
		t.Fatalf("expected sha256 hex, got %q", a)
	}
}

func TestFingerprintStableAndDistinct(t *testing.T) {
	type cfg struct {
		A int
		B string
	}
	a := Fingerprint("kind", cfg{1, "x"}, 64)
	if a != Fingerprint("kind", cfg{1, "x"}, 64) {
		t.Fatal("identical inputs gave different fingerprints")
	}
	for _, other := range []string{
		Fingerprint("kind", cfg{2, "x"}, 64),
		Fingerprint("kind", cfg{1, "y"}, 64),
		Fingerprint("kind", cfg{1, "x"}, 128),
		Fingerprint("other", cfg{1, "x"}, 64),
	} {
		if a == other {
			t.Fatal("distinct inputs aliased to one fingerprint")
		}
	}
}

func TestFingerprintRejectsUnencodable(t *testing.T) {
	type node struct{ Next *node }
	cyclic := &node{}
	cyclic.Next = cyclic
	for name, c := range map[string]struct {
		v    any
		want string
	}{
		"func":   {func() {}, "sweep: unencodable fingerprint part of type func()"},
		"chan":   {make(chan int), "sweep: unencodable fingerprint part of type chan int"},
		"field":  {struct{ F func() }{func() {}}, "sweep: unencodable fingerprint part of type func()"},
		"cyclic": {cyclic, "sweep: unencodable fingerprint part: nesting deeper than 64 (cyclic value?)"},
	} {
		func() {
			defer func() {
				if got := recover(); got != c.want {
					t.Errorf("%s value panicked with %v, want %q", name, got, c.want)
				}
			}()
			Fingerprint(c.v)
		}()
	}
}

func TestCacheHitSkipsRuns(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	var ran atomic.Int64
	cold := (&Engine{Jobs: 4, Cache: cache}).Run(slowPoints(8, &ran))
	if ran.Load() != 8 {
		t.Fatalf("cold run executed %d points, want 8", ran.Load())
	}

	ran.Store(0)
	var cached int
	eng := &Engine{Jobs: 4, Cache: cache, OnResult: func(r Result) {
		if r.Cached {
			cached++
		}
	}}
	warm := eng.Run(slowPoints(8, &ran))
	if ran.Load() != 0 {
		t.Fatalf("warm run executed %d points, want 0", ran.Load())
	}
	if cached != 8 {
		t.Fatalf("warm run reported %d cache hits, want 8", cached)
	}
	for i := range cold {
		if cold[i].Dur != warm[i].Dur || cold[i].Value("idx") != warm[i].Value("idx") {
			t.Fatalf("cached outcome %d differs: %+v vs %+v", i, cold[i], warm[i])
		}
	}
	hits, misses, errors := cache.Stats()
	if hits != 8 || misses != 8 || errors != 0 {
		t.Fatalf("stats = %d hits %d misses %d errors, want 8/8/0", hits, misses, errors)
	}
}

func TestCacheMissOnDifferentFingerprint(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(Fingerprint("a"), Outcome{Dur: 1})
	if _, ok := cache.Get(Fingerprint("b")); ok {
		t.Fatal("different fingerprint should miss")
	}
	if out, ok := cache.Get(Fingerprint("a")); !ok || out.Dur != 1 {
		t.Fatalf("stored fingerprint should hit, got %+v %v", out, ok)
	}
}

func TestCacheCorruptEntryReadsAsMiss(t *testing.T) {
	dir := t.TempDir()
	cache, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fp := Fingerprint("corrupt-me")
	cache.Put(fp, Outcome{Dur: 42})

	overwriteRecord(t, cache, fp, "{not json")
	if _, ok := cache.Get(fp); ok {
		t.Fatal("corrupt entry must read as a miss")
	}
	if _, _, errors := cache.Stats(); errors == 0 {
		t.Fatal("corruption should be counted as an error")
	}

	// A fingerprint-mismatching record (hash collision, stray write) is
	// equally a miss, and Put supersedes it.
	overwriteRecord(t, cache, fp, `{"fingerprint":"someone else","outcome":{"dur":7}}`)
	if _, ok := cache.Get(fp); ok {
		t.Fatal("mismatching fingerprint must read as a miss")
	}
	cache.Put(fp, Outcome{Dur: 42})
	if out, ok := cache.Get(fp); !ok || out.Dur != 42 {
		t.Fatalf("Put did not repair the entry: %+v %v", out, ok)
	}
}

func TestEmptyFingerprintBypassesCache(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	p := Point{Key: "uncacheable", Run: func() Outcome {
		ran.Add(1)
		return Outcome{Dur: 5}
	}}
	eng := &Engine{Jobs: 1, Cache: cache}
	eng.Run([]Point{p})
	eng.Run([]Point{p})
	if ran.Load() != 2 {
		t.Fatalf("uncacheable point ran %d times, want 2", ran.Load())
	}
	if hits, _, _ := cache.Stats(); hits != 0 {
		t.Fatalf("cache recorded %d hits for uncacheable point", hits)
	}
}

// TestFingerprintEncodingPinned pins the exact byte format of
// Fingerprint — version header, then " "+canonical form per part —
// because it is on-disk cache key material: a drift here silently
// invalidates every existing cache entry.
func TestFingerprintEncodingPinned(t *testing.T) {
	type cfg struct {
		N    int
		Name string
	}
	parts := []any{"gemm", 256, cfg{N: 3, Name: "a<b&c"}, []float64{1, 2.5}, nil}
	want := `sweep/v2 "gemm" 256; {3;"a<b&c"} [2;1;2.5;] n`
	if got := Fingerprint(parts...); got != want {
		t.Fatalf("fingerprint encoding drifted:\n got %q\nwant %q", got, want)
	}

	// Maps sort by key, pointers lead with '*', interfaces carry their
	// dynamic type, and unexported fields are skipped.
	five := 5
	type more struct {
		M      map[string]int
		P, Nil *int
		I, E   any
		hidden int
		On     bool
		U      uint8
		F      float32
	}
	got := Fingerprint(more{M: map[string]int{"b": 2, "a": 1}, P: &five, I: 7, hidden: 9, On: true, U: 3, F: 0.1})
	want = `sweep/v2 {<2;"a"1;"b"2;>*5;n"int"7;nt3;0.1;}`
	if got != want {
		t.Fatalf("fingerprint encoding drifted:\n got %q\nwant %q", got, want)
	}

	// A non-nil pointer part encodes as the value it points to, so a
	// config passed by pointer keys like one passed by value; a nested
	// pointer still leads with '*' and a nil pointer part is n.
	c := cfg{N: 3, Name: "a<b&c"}
	var nilCfg *cfg
	got = Fingerprint("gemm", &c, more{P: &five}, nilCfg)
	want = `sweep/v2 "gemm" {3;"a<b&c"} {n*5;nnnf0;0;} n`
	if got != want {
		t.Fatalf("fingerprint encoding drifted:\n got %q\nwant %q", got, want)
	}
	if byValue := Fingerprint("gemm", c); Fingerprint("gemm", &c) != byValue {
		t.Fatalf("pointer part keys differently from its value: %q vs %q", Fingerprint("gemm", &c), byValue)
	}
}

// TestCacheRefMatchesGetPut pins that the precomputed-Ref path and the
// plain fingerprint path address the same on-disk entry.
func TestCacheRefMatchesGetPut(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.Salt = "s"
	fp := Fingerprint("ref-point")
	c.PutRef(c.Ref(fp), Outcome{Dur: 42})
	if out, ok := c.Get(fp); !ok || out.Dur != 42 {
		t.Fatalf("Get after PutRef = %v %v", out, ok)
	}
	c.Put(fp, Outcome{Dur: 7})
	r := c.Ref(fp)
	if out, ok := c.getRef(&r); !ok || out.Dur != 7 {
		t.Fatalf("getRef after Put = %v %v", out, ok)
	}
}
