package sweep

// Snapshot journals: the wall profile and the hit/miss counters each
// persist as a snapshot file (profile.json, counters.json) plus an
// append-only journal of the records flushed since that snapshot was
// written (profile.journal, counters.journal), one record per line. A
// flush is one O_APPEND write of the records it changes, under the
// snapshot's lock file, so its cost does not grow with everything the
// directory has ever recorded. A reader folds the journal over the
// snapshot; a line that does not parse — a record torn by a crashed
// writer, or garbage — is skipped, as the entry log skips one, and the
// next append cuts a torn last record off. Once a journal outgrows its
// snapshot (and a constant floor), the flush that noticed folds both
// into a new snapshot, renames it into place and truncates the
// journal, which keeps a flush amortised O(changed) and the directory
// O(points).
//
// A crash between that rename and the truncation leaves a journal the
// new snapshot already holds: replaying a profile record is a no-op
// (the last record for a digest wins), while replayed counter deltas
// count twice — acceptable for counts that only feed the advisory
// cachestats report.

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// journalFloor is the journal size below which a flush never compacts,
// however small the snapshot: compaction rewrites the whole snapshot,
// so it waits until at least this many bytes of records share its cost.
const journalFloor = 64 << 10

// journal names one snapshot, its journal and the lock file that
// serialises appends, compactions and reads of the pair.
type journal struct {
	dir      string
	snapshot string // snapshot file name
	name     string // journal file name
	lock     string // lock file name
}

func (j journal) path(name string) string { return filepath.Join(j.dir, name) }

// load returns the snapshot's bytes, nil when it does not exist, and
// the journal's. It holds the lock while it reads when a journal exists
// (a compaction between the two reads would otherwise drop or repeat
// the journal's records); without a journal the snapshot, renamed into
// place whole, reads consistently on its own. A lock that cannot be
// taken — a read-only directory — leaves the read unlocked.
func (j journal) load() (snap, recs []byte, err error) {
	if _, err := os.Stat(j.path(j.name)); err == nil {
		if unlock, err := lockFile(j.path(j.lock)); err == nil {
			defer unlock()
		}
	}
	snap, err = os.ReadFile(j.path(j.snapshot))
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	recs, err = os.ReadFile(j.path(j.name))
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	return snap, recs, nil
}

// append writes recs, whole newline-terminated records, to the end of
// the journal in one write under the lock. The write is the flush's
// commit point: compaction after it is housekeeping, and its failure
// only leaves the journal for the next flush to compact.
//
// compact folds a snapshot (nil when absent) and a journal into the
// new snapshot's bytes. A snapshot that does not parse holds nothing a
// reader can use, so compact folds it as empty, replacing it.
func (j journal) append(recs []byte, compact func(snap, recs []byte) []byte) error {
	unlock, err := lockFile(j.path(j.lock))
	if err != nil {
		return err
	}
	defer unlock()
	f, err := os.OpenFile(j.path(j.name), os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	if size > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], size-1); err != nil {
			return err
		}
		if last[0] != '\n' {
			// A writer died mid-record (appends hold the lock, so none
			// is in flight): cut the torn record off, so this append
			// can neither glue onto it nor complete it into a line
			// readers would take.
			if size, err = cutTorn(f, size); err != nil {
				return err
			}
		}
	}
	if _, err := f.Write(recs); err != nil {
		return err
	}
	size += int64(len(recs))
	if size > journalFloor {
		if st, err := os.Stat(j.path(j.snapshot)); err != nil || size > st.Size() {
			// The records are persisted: a failed compaction only
			// leaves the journal for the next flush to compact.
			_ = j.compactLocked(f, compact)
		}
	}
	return f.Close()
}

// compactLocked folds the snapshot and the journal into a new
// snapshot, renames it into place and truncates the journal f. The
// caller holds the lock.
func (j journal) compactLocked(f *os.File, compact func(snap, recs []byte) []byte) error {
	snap, err := os.ReadFile(j.path(j.snapshot))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	recs, err := os.ReadFile(j.path(j.name))
	if err != nil {
		return err
	}
	pattern := strings.TrimSuffix(j.snapshot, filepath.Ext(j.snapshot)) + "-*.tmp"
	if err := WriteFileAtomic(j.dir, pattern, j.snapshot, compact(snap, recs)); err != nil {
		return err
	}
	return f.Truncate(0)
}

// cutTorn truncates the journal f of the given size after its last
// complete line and returns the new size.
func cutTorn(f *os.File, size int64) (int64, error) {
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil {
		return 0, err
	}
	keep := int64(bytes.LastIndexByte(data, '\n') + 1)
	return keep, f.Truncate(keep)
}

// eachRecord calls fn for every complete line of a journal, newline
// stripped; a torn last line, which has none, is skipped.
func eachRecord(recs []byte, fn func(line []byte)) {
	for {
		i := bytes.IndexByte(recs, '\n')
		if i < 0 {
			return
		}
		fn(recs[:i])
		recs = recs[i+1:]
	}
}
