package sweep

// Cache lifecycle: eviction, on-disk usage accounting, and persisted
// hit/miss/error counters. Entries never expire on their own — a
// long-lived cache directory only grows — so GC bounds it by age and
// entry count, and Usage/Counters back the `accesys cachestats`
// inspection command.

import (
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// isEntryName reports whether a directory entry is a cache record:
// the hex SHA-256 of its key plus ".json" (see Cache.path). Anything
// else in the directory (counters file, staging temps) is not an
// entry.
func isEntryName(name string) bool {
	const hexLen = 64
	if !strings.HasSuffix(name, ".json") || len(name) != hexLen+len(".json") {
		return false
	}
	_, err := hex.DecodeString(name[:hexLen])
	return err == nil
}

// Usage reports the cache's on-disk footprint: entry count and total
// entry bytes.
func (c *Cache) Usage() (entries int, bytes int64, err error) {
	if c.dir == "" {
		return 0, 0, errNoDir
	}
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return 0, 0, err
	}
	for _, de := range des {
		if !isEntryName(de.Name()) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // racing eviction; skip
		}
		entries++
		bytes += info.Size()
	}
	return entries, bytes, nil
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

// gcTempAge is how old an abandoned put-*.tmp staging file must be
// before GC removes it; younger temps may belong to a live writer.
const gcTempAge = time.Hour

// GC evicts entries written more than maxAge ago (0 = no age bound),
// then the oldest-written entries beyond maxEntries (0 = no count
// bound), and removes abandoned staging temps. Age is the entry file's
// mtime, set by the Put that wrote it — hits never refresh it — and is
// measured against the cache's Clock. Eviction is safe against
// concurrent readers and writers: a removed entry simply reads as a
// miss and is re-simulated. Any eviction clears this Cache's memory
// tier; other processes' tiers keep serving outcomes they already
// verified.
func (c *Cache) GC(maxAge time.Duration, maxEntries int) (GCResult, error) {
	var res GCResult
	if c.dir == "" {
		return res, errNoDir
	}
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return res, err
	}
	now := c.now()

	type entryInfo struct {
		path string
		mod  time.Time
		size int64
	}
	var live []entryInfo
	evict := func(e entryInfo) {
		if os.Remove(e.path) == nil {
			res.Evicted++
			res.EvictedBytes += e.size
		}
	}
	for _, de := range des {
		name := de.Name()
		path := filepath.Join(c.dir, name)
		info, err := de.Info()
		if err != nil {
			continue
		}
		if strings.HasSuffix(name, ".tmp") {
			if now.Sub(info.ModTime()) > gcTempAge && os.Remove(path) == nil {
				res.Temps++
			}
			continue
		}
		if !isEntryName(name) {
			continue
		}
		res.Scanned++
		e := entryInfo{path: path, mod: info.ModTime(), size: info.Size()}
		if maxAge > 0 && now.Sub(e.mod) > maxAge {
			evict(e)
			continue
		}
		live = append(live, e)
	}

	if maxEntries > 0 && len(live) > maxEntries {
		sort.Slice(live, func(i, j int) bool { return live[i].mod.Before(live[j].mod) })
		for _, e := range live[:len(live)-maxEntries] {
			evict(e)
		}
	}
	if res.Evicted > 0 {
		c.dropMem("")
	}
	return res, nil
}

// Counters are cumulative hit/miss/error counts across processes
// sharing a cache directory.
type Counters struct {
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
	Errors int `json:"errors"`
}

// countersName holds the persisted counters inside the cache dir; its
// name deliberately fails isEntryName so GC and Usage ignore it.
const countersName = "counters.json"

// Counters reads the persisted cumulative counters (zero if never
// flushed).
func (c *Cache) Counters() (Counters, error) {
	var t Counters
	if c.dir == "" {
		return t, errNoDir
	}
	data, err := os.ReadFile(filepath.Join(c.dir, countersName))
	if os.IsNotExist(err) {
		return t, nil
	}
	if err != nil {
		return t, err
	}
	if err := json.Unmarshal(data, &t); err != nil {
		return Counters{}, err
	}
	return t, nil
}

// FlushCounters folds this process's hit/miss/error counts into the
// persisted totals and resets the in-memory counts, so repeated
// flushes never double-count. The fold is a full read-modify-write
// (see addCountersLocked): existing persisted totals — this process's
// earlier flushes, other processes', merged shard counters — are added
// to, never clobbered. It is atomic against readers (temp file +
// rename) and against concurrent flushers and mergers on the same
// Cache (flushMu serialises the whole cycle); only a flusher in a
// different process can still race it, and a lost update there costs
// only accuracy of the advisory cachestats report. On failure the
// in-memory counts are restored so a retry can still flush them.
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
