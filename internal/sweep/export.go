package sweep

// Cache export/import: the distributed-shard merge path. A shard
// worker fills a self-contained cache directory; ImportFrom folds one
// such directory into another, entry by entry, and AddCounters folds
// its persisted counters — together they turn N shard caches into one
// canonical cache that warm-hits exactly like a single-process run.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// ImportStats summarises one ImportFrom pass.
type ImportStats struct {
	// Imported counts entries copied into the destination.
	Imported int
	// Duplicates counts entries the destination already held with
	// byte-identical payloads (skipped).
	Duplicates int
	// Corrupt counts unreadable or unparseable source entries
	// (skipped — Get would treat them as misses anyway).
	Corrupt int
}

// CollisionError reports two caches holding different payloads under
// one entry key — either a SHA-256 filename collision between distinct
// fingerprints (astronomically unlikely) or, the case worth detecting,
// equal fingerprints with diverging outcomes: two shard workers that
// should have produced interchangeable results did not.
type CollisionError struct {
	// Name is the colliding entry file name.
	Name string
	// SrcFingerprint and DstFingerprint are the stored (salted) keys.
	SrcFingerprint string
	DstFingerprint string
}

func (e *CollisionError) Error() string {
	if e.SrcFingerprint == e.DstFingerprint {
		return fmt.Sprintf("sweep: cache entry %s: fingerprint collision with differing payloads (divergent outcomes for one configuration)", e.Name)
	}
	return fmt.Sprintf("sweep: cache entry %s: hash collision between distinct fingerprints", e.Name)
}

// ImportFrom copies every entry of src into c. Entries already present
// with identical payloads are skipped; an entry present with a
// different payload is a *CollisionError and aborts the import (the
// destination is left valid — every entry fully copied or untouched).
// Corrupt source entries are skipped and counted; a corrupt
// destination entry is overwritten by a healthy source one. Counters
// are not touched — fold them separately with AddCounters.
func (c *Cache) ImportFrom(src *Cache) (ImportStats, error) {
	var st ImportStats
	if c.dir == "" || src.dir == "" {
		return st, errNoDir
	}
	des, err := os.ReadDir(src.dir)
	if err != nil {
		return st, err
	}
	for _, de := range des {
		name := de.Name()
		if !isEntryName(name) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src.dir, name))
		if err != nil {
			st.Corrupt++
			continue
		}
		var se entry
		if err := json.Unmarshal(data, &se); err != nil {
			st.Corrupt++
			continue
		}
		dstPath := filepath.Join(c.dir, name)
		if old, err := os.ReadFile(dstPath); err == nil {
			if bytes.Equal(old, data) {
				st.Duplicates++
				continue
			}
			var oe entry
			if err := json.Unmarshal(old, &oe); err == nil {
				return st, &CollisionError{Name: name, SrcFingerprint: se.Fingerprint, DstFingerprint: oe.Fingerprint}
			}
			// Destination entry is corrupt: the healthy source copy wins.
		}
		if err := c.writeEntry(dstPath, data); err != nil {
			return st, fmt.Errorf("sweep: importing %s: %v", name, err)
		}
		st.Imported++
	}
	return st, nil
}

// writeEntry stages data and renames it onto the entry file at path,
// the same atomicity Put guarantees.
func (c *Cache) writeEntry(path string, data []byte) error {
	return WriteFileAtomic(c.dir, "put-*.tmp", filepath.Base(path), data)
}

// AddCounters folds the given deltas into the persisted totals — the
// counter half of a cache merge. Like FlushCounters it is a full
// read-modify-write: existing persisted counts are added to, never
// clobbered, so merging a shard's counters into a destination that
// already has its own history keeps both.
func (c *Cache) AddCounters(d Counters) error {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	return c.addCountersLocked(d)
}

// addCountersLocked is AddCounters with flushMu held.
func (c *Cache) addCountersLocked(d Counters) error {
	t, err := c.Counters()
	if err != nil {
		return err
	}
	t.Hits += d.Hits
	t.Misses += d.Misses
	t.Errors += d.Errors
	data, err := json.Marshal(t)
	if err != nil {
		return err
	}
	return WriteFileAtomic(c.dir, "counters-*.tmp", countersName, data)
}
