package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"accesys/internal/sim"
)

// openT opens a cache in a fresh temp dir with a fixed salt.
func openT(t *testing.T, salt string) *Cache {
	t.Helper()
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.Salt = salt
	return c
}

func TestImportFromCopiesEntries(t *testing.T) {
	src := openT(t, "s")
	dst := openT(t, "s")
	src.Put("a", Outcome{Dur: 1})
	src.Put("b", Outcome{Dur: 2})

	st, err := dst.ImportFrom(src)
	if err != nil {
		t.Fatal(err)
	}
	if st.Imported != 2 || st.Duplicates != 0 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v, want 2 imported", st)
	}
	for fp, want := range map[string]sim.Tick{"a": 1, "b": 2} {
		out, ok := dst.Get(fp)
		if !ok || out.Dur != want {
			t.Fatalf("Get(%q) = %v, %v after import", fp, out, ok)
		}
	}
}

func TestImportFromSkipsIdenticalEntries(t *testing.T) {
	src := openT(t, "s")
	dst := openT(t, "s")
	src.Put("shared", Outcome{Dur: 7})
	dst.Put("shared", Outcome{Dur: 7})
	src.Put("only-src", Outcome{Dur: 9})

	st, err := dst.ImportFrom(src)
	if err != nil {
		t.Fatal(err)
	}
	if st.Imported != 1 || st.Duplicates != 1 {
		t.Fatalf("stats = %+v, want 1 imported + 1 duplicate", st)
	}
}

func TestImportFromDetectsDivergentPayloads(t *testing.T) {
	// Same fingerprint, different outcomes: the determinism contract
	// broken somewhere. The import must refuse, not pick a winner.
	src := openT(t, "s")
	dst := openT(t, "s")
	src.Put("before", Outcome{Dur: 3})
	src.Put("fp", Outcome{Dur: 1})
	dst.Put("fp", Outcome{Dur: 2})

	_, err := dst.ImportFrom(src)
	var ce *CollisionError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CollisionError", err)
	}
	if ce.SrcFingerprint != ce.DstFingerprint {
		t.Fatalf("collision between distinct fingerprints reported: %+v", ce)
	}
	if sum := sha256.Sum256([]byte(dst.key("fp"))); ce.Name != hex.EncodeToString(sum[:]) {
		t.Fatalf("collision name %q, want the record hash", ce.Name)
	}
	// The destination must be untouched: nothing was appended.
	if out, ok := dst.Get("fp"); !ok || out.Dur != 2 {
		t.Fatalf("destination entry clobbered: %v, %v", out, ok)
	}
	if _, ok := dst.Get("before"); ok {
		t.Fatal("an aborted import appended records")
	}
}

func TestImportFromSkipsCorruptSourceEntries(t *testing.T) {
	src := openT(t, "s")
	dst := openT(t, "s")
	src.Put("good", Outcome{Dur: 1})
	// A record that does not decode, between two that do.
	appendLog(t, src, "1 {not json\n")
	src.Put("also-good", Outcome{Dur: 2})
	st, err := dst.ImportFrom(src)
	if err != nil {
		t.Fatal(err)
	}
	if st.Imported != 2 || st.Corrupt != 1 {
		t.Fatalf("stats = %+v, want 2 imported + 1 corrupt", st)
	}
}

func TestImportFromOverwritesCorruptDestinationEntry(t *testing.T) {
	src := openT(t, "s")
	dst := openT(t, "s")
	src.Put("fp", Outcome{Dur: 5})
	dst.Put("fp", Outcome{Dur: 5})
	overwriteRecord(t, dst, "fp", "{broken")

	st, err := dst.ImportFrom(src)
	if err != nil {
		t.Fatal(err)
	}
	if st.Imported != 1 {
		t.Fatalf("stats = %+v, want the healthy copy imported", st)
	}
	if out, ok := dst.Get("fp"); !ok || out.Dur != 5 {
		t.Fatalf("Get after repair = %v, %v", out, ok)
	}
}

func TestAddCountersFoldsIntoPersistedTotals(t *testing.T) {
	c := openT(t, "")
	if err := c.AddCounters(Counters{Hits: 2, Misses: 3}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddCounters(Counters{Hits: 1, Errors: 4}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Counters()
	if err != nil {
		t.Fatal(err)
	}
	if (got != Counters{Hits: 3, Misses: 3, Errors: 4}) {
		t.Fatalf("counters = %+v", got)
	}
}

// TestMergeCountersNotClobberedOnSharedEntries is the regression test
// for the merge counter-folding path: when source and destination
// caches share an entry (and both carry persisted counter history),
// folding the source's counters must ADD to the destination's
// persisted totals — a write that replaced them would silently lose
// the destination's history — and a later FlushCounters of pending
// in-memory counts must land on top of the merged totals, not over
// them.
func TestMergeCountersNotClobberedOnSharedEntries(t *testing.T) {
	src := openT(t, "s")
	dst := openT(t, "s")
	// Overlapping entries: "shared" lives in both caches.
	dst.Put("shared", Outcome{Dur: 1})
	dst.Put("dst-only", Outcome{Dur: 2})
	src.Put("shared", Outcome{Dur: 1})
	src.Put("src-only", Outcome{Dur: 3})

	// Both caches have persisted counter history.
	if err := dst.AddCounters(Counters{Hits: 5}); err != nil {
		t.Fatal(err)
	}
	if err := src.AddCounters(Counters{Hits: 3, Misses: 1}); err != nil {
		t.Fatal(err)
	}

	// Merge path: import entries, fold the source's persisted counters.
	if _, err := dst.ImportFrom(src); err != nil {
		t.Fatal(err)
	}
	sc, err := src.Counters()
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.AddCounters(sc); err != nil {
		t.Fatal(err)
	}
	got, err := dst.Counters()
	if err != nil {
		t.Fatal(err)
	}
	if (got != Counters{Hits: 8, Misses: 1}) {
		t.Fatalf("merged counters = %+v, want hits 8 + misses 1 (destination history clobbered?)", got)
	}

	// Pending in-memory counts flushed after the merge must add on top.
	if _, ok := dst.Get("shared"); !ok {
		t.Fatal("warm entry missing")
	}
	if err := dst.FlushCounters(); err != nil {
		t.Fatal(err)
	}
	got, err = dst.Counters()
	if err != nil {
		t.Fatal(err)
	}
	if (got != Counters{Hits: 9, Misses: 1}) {
		t.Fatalf("counters after flush = %+v, want hits 9 + misses 1", got)
	}
}
