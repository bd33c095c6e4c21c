package sweep

// Cache export/import: the distributed-shard merge path. A shard
// worker fills a self-contained cache directory; ImportFrom folds one
// such directory's log into another in one append, and AddCounters
// folds its persisted counters — together they turn N shard caches
// into one canonical cache that warm-hits exactly like a
// single-process run.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
)

// ImportStats summarises one ImportFrom pass.
type ImportStats struct {
	// Imported counts entries copied into the destination.
	Imported int
	// Duplicates counts entries the destination already held with the
	// same fingerprint and outcome (skipped).
	Duplicates int
	// Corrupt counts source records that do not decode (skipped — Get
	// would treat them as misses anyway).
	Corrupt int
}

// CollisionError reports two caches holding different entries under
// one record hash — either a SHA-256 collision between distinct
// fingerprints (astronomically unlikely) or, the case worth detecting,
// equal fingerprints with diverging outcomes: two shard workers that
// should have produced interchangeable results did not.
type CollisionError struct {
	// Name is the colliding record's hash: the hex SHA-256 of its
	// stored key.
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

// ImportFrom copies the latest record of every key in src's log into
// c. A key c already holds with the same fingerprint and outcome is a
// duplicate and skipped; one held with a different entry is a
// *CollisionError and aborts the import before anything is written.
// Source records that do not decode are skipped and counted; a corrupt
// destination record is superseded by the healthy source one. The
// imported records, with their original write times, land in one
// append. Counters are not touched — fold them separately with
// AddCounters.
func (c *Cache) ImportFrom(src *Cache) (ImportStats, error) {
	var st ImportStats
	if c.dir == "" || src.dir == "" {
		return st, errNoDir
	}
	type srcRecord struct {
		keyed
		line []byte
		e    entry
	}
	var recs []srcRecord
	latest := map[[32]byte]int{} // key hash -> index in recs
	f, err := os.Open(src.log.path)
	if os.IsNotExist(err) {
		return st, nil
	}
	if err != nil {
		return st, err
	}
	info, err := f.Stat()
	if err == nil {
		_, err = eachLine(f, 0, info.Size(), func(_ int64, line []byte) {
			if len(line) == 1 {
				return // the empty line an append after a torn record leaves
			}
			r := srcRecord{line: bytes.Clone(line)}
			var ok bool
			if r.rec, _, ok = parseRecord(r.line); !ok || json.Unmarshal(r.line[r.rec.head:len(r.line)-1], &r.e) != nil {
				st.Corrupt++
				return
			}
			r.sum = sha256.Sum256([]byte(r.e.Fingerprint))
			if i, seen := latest[r.sum]; seen {
				recs[i] = r
				return
			}
			latest[r.sum] = len(recs)
			recs = append(recs, r)
		})
	}
	f.Close()
	if err != nil {
		return st, err
	}

	l := &c.log
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.refreshLocked(); err != nil {
		return st, err
	}
	var lines []byte
	var add []keyed
	for _, r := range recs {
		if old, ok := l.idx[r.sum]; ok {
			var oe entry
			if data, err := l.readLocked(old); err == nil && json.Unmarshal(data, &oe) == nil {
				if oe.Fingerprint == r.e.Fingerprint && reflect.DeepEqual(oe.Outcome, r.e.Outcome) {
					st.Duplicates++
					continue
				}
				return st, &CollisionError{Name: hex.EncodeToString(r.sum[:]), SrcFingerprint: r.e.Fingerprint, DstFingerprint: oe.Fingerprint}
			}
			// The destination record is corrupt: the healthy source copy wins.
		}
		r.rec.off = int64(len(lines))
		add = append(add, r.keyed)
		lines = append(lines, r.line...)
	}
	if len(add) == 0 {
		return st, nil
	}
	if err := l.appendLocked(lines, add); err != nil {
		return st, fmt.Errorf("sweep: importing %d entries: %v", len(add), err)
	}
	st.Imported = len(add)
	c.dropMem("")
	return st, nil
}

// AddCounters folds the given deltas into the persisted totals — the
// counter half of a cache merge. Like FlushCounters it appends one
// journalled delta: existing persisted counts are added to, never
// clobbered, so merging a shard's counters into a destination that
// already has its own history keeps both.
func (c *Cache) AddCounters(d Counters) error {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	return c.addCountersLocked(d)
}

// addCountersLocked is AddCounters with flushMu held. A zero delta
// writes nothing.
func (c *Cache) addCountersLocked(d Counters) error {
	if c.dir == "" {
		return errNoDir
	}
	if d == (Counters{}) {
		return nil
	}
	return c.countersJournal().append(countersRecord(d), compactCounters)
}
