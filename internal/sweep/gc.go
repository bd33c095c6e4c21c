package sweep

// Cache lifecycle: compaction, on-disk usage accounting, and persisted
// hit/miss/error counters. Entries never expire on their own — a
// long-lived cache's log only grows — so GC bounds it by age and entry
// count, and Usage/Counters back the `accesys cachestats` inspection
// command.

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// isEntryName reports whether a directory entry is a pre-log entry
// file: the hex SHA-256 of its key plus ".json". Such files are misses
// already, salted by the binary that wrote them; GC removes them.
func isEntryName(name string) bool {
	const hexLen = 64
	if !strings.HasSuffix(name, ".json") || len(name) != hexLen+len(".json") {
		return false
	}
	_, err := hex.DecodeString(name[:hexLen])
	return err == nil
}

// Usage reports the cache's on-disk footprint: the number of keys the
// log holds a record for, and the log's size in bytes (superseded
// records included until GC compacts them).
func (c *Cache) Usage() (entries int, bytes int64, err error) {
	if c.dir == "" {
		return 0, 0, errNoDir
	}
	l := &c.log
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.refreshLocked(); err != nil {
		return 0, 0, err
	}
	return len(l.idx), l.size, nil
}

// GCResult summarizes one eviction pass.
type GCResult struct {
	// Scanned counts entries examined.
	Scanned int
	// Evicted counts entries removed, EvictedBytes their total size.
	Evicted      int
	EvictedBytes int64
	// Temps counts abandoned staging files cleaned up.
	Temps int
}

// gcTempAge is how old an abandoned *.tmp staging file must be before
// GC removes it; younger temps may belong to a live writer.
const gcTempAge = time.Hour

// gcLockName is the lock file GC holds while it compacts the log.
const gcLockName = logName + ".lock"

// GC compacts the log. It keeps the latest record per key, evicts
// entries written more than maxAge ago (0 = no age bound), then the
// oldest-written entries beyond maxEntries (0 = no count bound), and
// renames the survivors, staged in a temp file, over the log. Age is
// the write time the Put recorded — hits never refresh it — measured
// against the cache's Clock. GC also removes abandoned staging temps
// and pre-log entry files.
//
// GCs serialise on a lock file; appenders never take it. Readers and
// writers in other processes switch to the compacted log on their next
// access; an append from another process that lands during the
// compaction may be lost, and like an evicted entry reads as a miss
// and is re-simulated. Any eviction clears this Cache's memory tier;
// other processes' tiers keep serving outcomes they already verified.
func (c *Cache) GC(maxAge time.Duration, maxEntries int) (GCResult, error) {
	var res GCResult
	if c.dir == "" {
		return res, errNoDir
	}
	unlock, err := lockFile(filepath.Join(c.dir, gcLockName))
	if err != nil {
		return res, err
	}
	defer unlock()
	now := c.now()
	res.Temps = c.removeStale(now)

	l := &c.log
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.refreshLocked(); err != nil {
		return res, err
	}
	live := make([]keyed, 0, len(l.idx))
	for sum, rec := range l.idx {
		live = append(live, keyed{sum, rec})
	}
	res.Scanned = len(live)
	// Newest first; of two records written at the same time, the later
	// in the log counts as newer.
	sort.Slice(live, func(i, j int) bool {
		if live[i].rec.at != live[j].rec.at {
			return live[i].rec.at > live[j].rec.at
		}
		return live[i].rec.off > live[j].rec.off
	})
	keep := len(live)
	if maxEntries > 0 {
		keep = min(keep, maxEntries)
	}
	if maxAge > 0 {
		for i, k := range live[:keep] {
			if now.Sub(time.Unix(0, k.rec.at)) > maxAge {
				keep = i
				break
			}
		}
	}
	var kept int64
	for _, k := range live[:keep] {
		kept += int64(k.rec.n)
	}
	for _, k := range live[keep:] {
		res.Evicted++
		res.EvictedBytes += int64(k.rec.n)
	}
	if kept == l.size {
		return res, nil // no eviction, superseded record or stray byte to drop
	}
	if err := l.compactLocked(c.dir, live[:keep], kept); err != nil {
		return GCResult{Scanned: res.Scanned, Temps: res.Temps}, err
	}
	if res.Evicted > 0 {
		c.dropMem("")
	}
	return res, nil
}

// compactLocked writes the survivors, in log order, over the log
// (staged and renamed) and switches the handle and index to it.
func (l *entryLog) compactLocked(dir string, survivors []keyed, size int64) error {
	sort.Slice(survivors, func(i, j int) bool { return survivors[i].rec.off < survivors[j].rec.off })
	data := make([]byte, 0, size)
	idx := make(map[[32]byte]record, len(survivors))
	for _, k := range survivors {
		off := len(data)
		data = data[:off+k.rec.n]
		if _, err := l.f.ReadAt(data[off:], k.rec.off); err != nil {
			return err
		}
		k.rec.off = int64(off)
		idx[k.sum] = k.rec
	}
	if err := WriteFileAtomic(dir, "entries-*.tmp", logName, data); err != nil {
		return err
	}
	l.closeLocked()
	f, err := os.OpenFile(l.path, os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	// Appends that landed since the rename are scanned by the next
	// refresh, from size.
	l.f, l.end, l.size, l.idx = f, size, size, idx
	return nil
}

// removeStale removes staging temps older than gcTempAge and every
// pre-log entry file, and returns how many temps it removed.
func (c *Cache) removeStale(now time.Time) (temps int) {
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return 0
	}
	for _, de := range des {
		name := de.Name()
		path := filepath.Join(c.dir, name)
		switch {
		case strings.HasSuffix(name, ".tmp"):
			if info, err := de.Info(); err == nil && now.Sub(info.ModTime()) > gcTempAge && os.Remove(path) == nil {
				temps++
			}
		case isEntryName(name):
			os.Remove(path)
		}
	}
	return temps
}

// Counters are cumulative hit/miss/error counts across processes
// sharing a cache directory.
type Counters struct {
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
	Errors int `json:"errors"`
}

// countersName holds the persisted counters' snapshot inside the cache
// dir, and countersJournalName the deltas flushed since it was last
// compacted (see journal.go), one per flush:
//
//	<hits> <misses> <errors>\n
const (
	countersName        = "counters.json"
	countersJournalName = "counters.journal"
	countersLockName    = countersName + ".lock"
)

func (c *Cache) countersJournal() journal {
	return journal{dir: c.dir, snapshot: countersName, name: countersJournalName, lock: countersLockName}
}

// Counters reads the persisted cumulative counters: the snapshot plus
// every journalled delta (zero if never flushed). A snapshot that does
// not parse is an error; a journal line that does not parse is
// skipped.
func (c *Cache) Counters() (Counters, error) {
	if c.dir == "" {
		return Counters{}, errNoDir
	}
	snap, recs, err := c.countersJournal().load()
	if err != nil {
		return Counters{}, err
	}
	t, err := foldCounters(snap, recs)
	if err != nil {
		return Counters{}, err
	}
	return t, nil
}

// countersRecord is d's counters journal line.
func countersRecord(d Counters) []byte {
	rec := strconv.AppendInt(nil, int64(d.Hits), 10)
	rec = append(rec, ' ')
	rec = strconv.AppendInt(rec, int64(d.Misses), 10)
	rec = append(rec, ' ')
	rec = strconv.AppendInt(rec, int64(d.Errors), 10)
	return append(rec, '\n')
}

// foldCounters sums a snapshot (nil when absent) and a journal's
// deltas. A snapshot that does not parse is reported, with the
// journal's sum alone, for compaction to replace it.
func foldCounters(snap, recs []byte) (Counters, error) {
	var t Counters
	var err error
	if snap != nil {
		if err = json.Unmarshal(snap, &t); err != nil {
			t = Counters{}
		}
	}
	eachRecord(recs, func(line []byte) {
		f := bytes.Fields(line)
		if len(f) != 3 {
			return
		}
		var d [3]int
		for i, b := range f {
			n, perr := strconv.Atoi(string(b))
			if perr != nil {
				return
			}
			d[i] = n
		}
		t.Hits += d[0]
		t.Misses += d[1]
		t.Errors += d[2]
	})
	return t, err
}

// compactCounters is the counters journal's compaction.
func compactCounters(snap, recs []byte) []byte {
	t, _ := foldCounters(snap, recs)
	data, _ := json.Marshal(t)
	return data
}

// FlushCounters adds this process's hit/miss/error counts to the
// persisted totals and resets the in-memory counts, so repeated
// flushes never double-count. The add is one journalled delta (see
// addCountersLocked), appended under the counters' lock file: existing
// persisted totals — this process's earlier flushes, other processes',
// merged shard counters — are added to, never clobbered, whichever
// Cache or process flushes. flushMu additionally spans the move from
// memory to disk, for Totals. On failure the in-memory counts are
// restored so a retry can still flush them.
func (c *Cache) FlushCounters() error {
	if c.dir == "" {
		return errNoDir
	}
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	c.mu.Lock()
	d := Counters{Hits: c.hits, Misses: c.misses, Errors: c.errors}
	c.hits, c.misses, c.errors = 0, 0, 0
	c.mu.Unlock()
	if err := c.addCountersLocked(d); err != nil {
		c.mu.Lock()
		c.hits += d.Hits
		c.misses += d.Misses
		c.errors += d.Errors
		c.mu.Unlock()
		return err
	}
	return nil
}

// FlushState persists the counters and, when p is non-nil, p's wall
// profile; both are attempted and the first error wins.
func (c *Cache) FlushState(p *Profile) error {
	err := c.FlushCounters()
	if p != nil {
		if perr := p.Flush(); err == nil {
			err = perr
		}
	}
	return err
}

// Totals returns the persisted counters plus this process's unflushed
// counts, under flushMu so a concurrent FlushCounters cannot hide counts
// it is moving to disk. A read error still returns the unflushed part.
func (c *Cache) Totals() (Counters, error) {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	t, err := c.Counters()
	hits, misses, errors := c.Stats()
	t.Hits += hits
	t.Misses += misses
	t.Errors += errors
	return t, err
}
