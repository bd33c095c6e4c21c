package sweep

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestProfileObserveAndLookup(t *testing.T) {
	p, err := LoadProfile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Wall("fp-a"); ok {
		t.Fatal("empty profile claims an estimate")
	}
	p.Observe("fp-a", 4*time.Second)
	if w, ok := p.Wall("fp-a"); !ok || w != 4*time.Second {
		t.Fatalf("first observation = %v, %v; want 4s", w, ok)
	}
	// EWMA with alpha 0.5: halfway from 4s toward 2s.
	p.Observe("fp-a", 2*time.Second)
	if w, _ := p.Wall("fp-a"); w != 3*time.Second {
		t.Fatalf("EWMA = %v, want 3s", w)
	}
	// Zero walls (cache hits) must not poison the estimate.
	p.Observe("fp-a", 0)
	if w, _ := p.Wall("fp-a"); w != 3*time.Second {
		t.Fatalf("zero wall moved the EWMA to %v", w)
	}
	// Digest keying: the plan-side lookup sees the same value.
	if w, ok := p.WallByDigest(Digest("fp-a")); !ok || w != 3*time.Second {
		t.Fatalf("WallByDigest = %v, %v", w, ok)
	}
}

func TestProfileFlushRoundTrips(t *testing.T) {
	dir := t.TempDir()
	p, err := LoadProfile(dir)
	if err != nil {
		t.Fatal(err)
	}
	p.Observe("fp-a", 2*time.Second)
	p.Observe("fp-b", 500*time.Millisecond)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := LoadProfile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("reloaded profile has %d entries, want 2", got.Len())
	}
	if w, _ := got.Wall("fp-a"); w != 2*time.Second {
		t.Fatalf("reloaded fp-a = %v", w)
	}
	if w, _ := got.Wall("fp-b"); w != 500*time.Millisecond {
		t.Fatalf("reloaded fp-b = %v", w)
	}
}

func TestProfileFlushOverlaysDoesNotClobber(t *testing.T) {
	// Two profiles over one directory observing disjoint points: the
	// second flush must keep the first's estimates.
	dir := t.TempDir()
	p1, _ := LoadProfile(dir)
	p1.Observe("fp-a", time.Second)
	if err := p1.Flush(); err != nil {
		t.Fatal(err)
	}
	p2, _ := LoadProfile(dir) // loaded before p1 flushed would also work
	p2.Observe("fp-b", 2*time.Second)
	if err := p2.Flush(); err != nil {
		t.Fatal(err)
	}
	got, _ := LoadProfile(dir)
	if w, ok := got.Wall("fp-a"); !ok || w != time.Second {
		t.Fatalf("fp-a clobbered: %v, %v", w, ok)
	}
	if w, ok := got.Wall("fp-b"); !ok || w != 2*time.Second {
		t.Fatalf("fp-b missing: %v, %v", w, ok)
	}
}

// TestProfileFlushForgetsFlushedDigests pins that a flush persists
// each observation once: a long-lived profile that flushed digest d
// must not re-write d on its later flushes, which would overwrite the
// newer estimate another process flushed for d in between.
func TestProfileFlushForgetsFlushedDigests(t *testing.T) {
	dir := t.TempDir()
	a, _ := LoadProfile(dir)
	a.Observe("d", time.Second)
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	b, _ := LoadProfile(dir)
	b.Observe("d", 3*time.Second) // EWMA: 2s
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	a.Observe("e", time.Second)
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	got, _ := LoadProfile(dir)
	if w, ok := got.Wall("d"); !ok || w != 2*time.Second {
		t.Fatalf("d = %v, %v; want b's flushed 2s, not a's stale 1s", w, ok)
	}
	if w, ok := got.Wall("e"); !ok || w != time.Second {
		t.Fatalf("e = %v, %v; want 1s", w, ok)
	}
}

// TestProfileFlushConcurrentDisjointWriters pins the Flush
// serialization fix: two flushers racing read-overlay-rename cycles on
// one directory, each persisting a digest the other never observes.
// Every round reloads a fresh Profile so a dropped update is gone for
// good — the unlocked implementation reliably loses some.
func TestProfileFlushConcurrentDisjointWriters(t *testing.T) {
	dir := t.TempDir()
	const rounds = 50
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				p, err := LoadProfile(dir)
				if err != nil {
					t.Error(err)
					return
				}
				p.Observe(fmt.Sprintf("fp-w%d-%d", w, i), time.Duration(i+1)*time.Millisecond)
				if err := p.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	got, err := LoadProfile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2*rounds {
		t.Fatalf("profile holds %d entries, want %d (concurrent flush dropped updates)", got.Len(), 2*rounds)
	}
	for w := 0; w < 2; w++ {
		for i := 0; i < rounds; i++ {
			fp := fmt.Sprintf("fp-w%d-%d", w, i)
			if wall, ok := got.Wall(fp); !ok || wall != time.Duration(i+1)*time.Millisecond {
				t.Fatalf("%s = %v, %v; want %v", fp, wall, ok, time.Duration(i+1)*time.Millisecond)
			}
		}
	}
}

func TestProfileFlushWithoutUpdatesWritesNothing(t *testing.T) {
	dir := t.TempDir()
	p, _ := LoadProfile(dir)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{ProfileName, profileJournalName} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("no-op flush created %s", name)
		}
	}
}

func TestProfileMalformedFileIsAnError(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ProfileName), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadProfile(dir); err == nil {
		t.Fatal("malformed profile loaded silently")
	}
}

func TestProfileFoldSemantics(t *testing.T) {
	src, _ := LoadProfile(t.TempDir())
	src.Observe("fp-a", 2*time.Second)
	src.Observe("fp-b", 4*time.Second)

	dst, _ := LoadProfile(t.TempDir())
	dst.Observe("fp-b", 2*time.Second)
	dst.Fold(src)
	// Absent key copies, present key moves halfway: b = (2+4)/2 = 3s.
	if w, _ := dst.Wall("fp-a"); w != 2*time.Second {
		t.Fatalf("folded fp-a = %v", w)
	}
	if w, _ := dst.Wall("fp-b"); w != 3*time.Second {
		t.Fatalf("folded fp-b = %v", w)
	}

	// Folding equal values is a no-op (fp-a matches src exactly), but a
	// still-differing key keeps moving toward the source — which is why
	// replayed folds must be ledger-gated by the caller.
	dst.Fold(src)
	if w, _ := dst.Wall("fp-a"); w != 2*time.Second {
		t.Fatalf("re-folded fp-a drifted to %v", w)
	}
	if w, _ := dst.Wall("fp-b"); w != 3500*time.Millisecond {
		t.Fatalf("re-folded fp-b = %v, want 3.5s", w)
	}
}

func TestEngineRecordsProfile(t *testing.T) {
	prof, err := LoadProfile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(0, 0)
	var calls int
	eng := &Engine{
		Jobs:    1,
		Profile: prof,
		// Each clock reading advances 100ms: every cold point measures
		// a 100ms wall.
		Clock: func() time.Time { calls++; return base.Add(time.Duration(calls) * 100 * time.Millisecond) },
	}
	points := []Point{
		{Key: "a", Fingerprint: "fp-a", Run: func() Outcome { return Outcome{Dur: 1} }},
		{Key: "b", Run: func() Outcome { return Outcome{Dur: 1} }}, // no fingerprint: unprofiled
	}
	eng.Run(points)
	if prof.Len() != 1 {
		t.Fatalf("profile holds %d entries, want 1 (fingerprint-less point must not profile)", prof.Len())
	}
	if w, ok := prof.Wall("fp-a"); !ok || w != 100*time.Millisecond {
		t.Fatalf("profiled wall = %v, %v; want 100ms", w, ok)
	}
}

func TestEngineCacheHitDoesNotProfile(t *testing.T) {
	dir := t.TempDir()
	cache, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache.Put("fp-a", Outcome{Dur: 7})
	prof, _ := LoadProfile(dir)
	eng := &Engine{Jobs: 1, Cache: cache, Profile: prof}
	eng.Run([]Point{{Key: "a", Fingerprint: "fp-a", Run: func() Outcome { panic("must be served warm") }}})
	if prof.Len() != 0 {
		t.Fatalf("cache hit profiled: %d entries", prof.Len())
	}
}

// TestProfileRejectsNonPositiveWalls pins the satellite bugfix: zero
// and negative observations (fake clocks, clock skew) must not enter
// the EWMA — neither through Observe nor through fold/Fold — because
// both fleet scheduling and explore's cost model read these
// estimates.
func TestProfileRejectsNonPositiveWalls(t *testing.T) {
	p, err := LoadProfile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p.Observe("fp", 0)
	p.Observe("fp", -time.Second)
	if p.Len() != 0 {
		t.Fatalf("non-positive observations created %d estimates", p.Len())
	}
	p.Observe("fp", 10*time.Millisecond)
	p.Observe("fp", 0)
	p.Observe("fp", -time.Minute)
	if w, ok := p.Wall("fp"); !ok || w != 10*time.Millisecond {
		t.Fatalf("estimate moved to %v after non-positive observations, want 10ms", w)
	}

	// fold is the shared entry for Fold: a poisoned source estimate
	// must be skipped, not clamped into a bogus 1ns wall.
	p.fold(Digest("poison"), 0)
	p.fold(Digest("poison"), -5)
	if _, ok := p.Wall("poison"); ok {
		t.Fatal("fold admitted a non-positive wall")
	}
	p.fold(Digest("fp"), 0) // existing estimate must not move either
	if w, _ := p.Wall("fp"); w != 10*time.Millisecond {
		t.Fatalf("fold(0) moved the estimate to %v", w)
	}
}

// TestProfilePredictLadder pins explore's cost model: a profiled
// digest predicts its own EWMA; an unprofiled digest predicts the
// profile mean; an empty (or nil) profile predicts the caller's
// default.
func TestProfilePredictLadder(t *testing.T) {
	var nilProf *Profile
	if got := nilProf.Predict("d", 7*time.Second); got != 7*time.Second {
		t.Fatalf("nil profile predicted %v", got)
	}
	if got := nilProf.Predict(Digest("a"), 0); got != 0 {
		t.Fatalf("nil profile predicted %v with a zero default", got)
	}

	p, err := LoadProfile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Predict(Digest("a"), 3*time.Second); got != 3*time.Second {
		t.Fatalf("empty profile predicted %v, want the default", got)
	}
	p.Observe("a", 10*time.Millisecond)
	p.Observe("b", 30*time.Millisecond)
	if got := p.Predict(Digest("a"), time.Second); got != 10*time.Millisecond {
		t.Fatalf("profiled digest predicted %v, want its own estimate", got)
	}
	if got := p.Predict(Digest("zzz"), time.Second); got != 20*time.Millisecond {
		t.Fatalf("unprofiled digest predicted %v, want the 20ms mean", got)
	}
	// The mean fallback ignores the caller's default entirely.
	if got := p.Predict(Digest("zzz"), 0); got != 20*time.Millisecond {
		t.Fatalf("unprofiled digest with a zero default predicted %v, want the 20ms mean", got)
	}
}
