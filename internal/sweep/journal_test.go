package sweep

import (
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"
)

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestProfileJournalCompacts drives flushes of 4 digests each, new and
// re-observed ones mixed, through two compactions. The journal must
// never outgrow the snapshot (or the floor) by more than one flush's
// records, must be truncated by each compaction, and every reload must
// equal the flusher's view.
func TestProfileJournalCompacts(t *testing.T) {
	dir := t.TempDir()
	p, err := LoadProfile(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := profileJournal(dir)
	var compactions int
	var last int64
	for i := 0; compactions < 2; i++ {
		for k := 0; k < 4; k++ {
			p.Observe(fmt.Sprint("fp", (i*4+k)%1500), time.Duration(i+1)*time.Microsecond)
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		size := fileSize(t, j.path(j.name))
		if size < last {
			compactions++
			if size != 0 {
				t.Fatalf("flush %d compacted to a %d-byte journal, want it truncated", i, size)
			}
		}
		last = size
		bound := int64(journalFloor)
		if st, err := os.Stat(j.path(j.snapshot)); err == nil {
			bound = max(bound, st.Size())
		}
		if size > bound+4*96 {
			t.Fatalf("flush %d left a %d-byte journal beside a %d-byte bound", i, size, bound)
		}
		if i%500 == 0 || size == 0 {
			got, err := LoadProfile(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.walls, p.walls) {
				t.Fatalf("flush %d: reload holds %d walls, flusher %d", i, got.Len(), p.Len())
			}
		}
	}
}

// TestCountersJournalCompacts appends counter deltas past the journal
// floor: the compaction must fold them into counters.json exactly.
func TestCountersJournalCompacts(t *testing.T) {
	c := openT(t, "")
	j := c.countersJournal()
	d := Counters{Hits: 1 << 30, Misses: 1, Errors: 2}
	var want Counters
	var last int64
	for compacted := false; !compacted; {
		if err := c.AddCounters(d); err != nil {
			t.Fatal(err)
		}
		want.Hits += d.Hits
		want.Misses += d.Misses
		want.Errors += d.Errors
		size := fileSize(t, j.path(j.name))
		compacted = size < last
		last = size
	}
	if last != 0 {
		t.Fatalf("compaction left a %d-byte journal", last)
	}
	got, err := c.Counters()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("counters after compaction = %+v, want %+v", got, want)
	}
}

// TestJournalCutsTornRecord pins what a writer that died mid-record
// leaves behind: readers skip the torn line, and the next flush cuts
// it off rather than completing it into a record readers would take
// ("b 12" is what is left of "b 123").
func TestJournalCutsTornRecord(t *testing.T) {
	dir := t.TempDir()
	j := profileJournal(dir)
	if err := os.WriteFile(j.path(j.name), []byte("a 5\nb 12"), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadProfile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]int64{"a": 5}; !reflect.DeepEqual(p.walls, want) {
		t.Fatalf("loaded %v, want %v", p.walls, want)
	}
	p.ObserveDigest("c", 7)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(j.path(j.name)); string(data) != "a 5\nc 7\n" {
		t.Fatalf("journal after the flush = %q", data)
	}

	c := openT(t, "")
	cj := c.countersJournal()
	if err := os.WriteFile(cj.path(cj.name), []byte("1 0 0\n2 0"), 0o644); err != nil {
		t.Fatal(err)
	}
	c.Get(Fingerprint("absent"))
	if err := c.FlushCounters(); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Counters(); err != nil || (got != Counters{Hits: 1, Misses: 1}) {
		t.Fatalf("counters = %+v, %v; want 1 hit, 1 miss", got, err)
	}
}

// TestCompactionReplacesMalformedSnapshot pins the repair path: a
// snapshot that does not parse makes loads fail until a compaction,
// which folds it as empty, rewrites it from the journal.
func TestCompactionReplacesMalformedSnapshot(t *testing.T) {
	dir := t.TempDir()
	j := profileJournal(dir)
	if err := os.WriteFile(j.path(j.snapshot), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(j.path(j.name), []byte("a 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadProfile(dir); err == nil {
		t.Fatal("malformed snapshot loaded silently")
	}
	compactNow(t, j, compactProfile)
	p, err := LoadProfile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]int64{"a": 5}; !reflect.DeepEqual(p.walls, want) {
		t.Fatalf("loaded %v, want %v", p.walls, want)
	}
}
