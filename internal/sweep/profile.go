package sweep

// Per-point wall-time profiling: the engine measures how long each
// cold point takes to simulate, and a Profile persists an EWMA of
// those walls (profile.json and its journal, alongside the cache's
// counters) so later runs can predict point costs they have not yet
// paid. The weighted shard partitioner consumes these predictions to
// balance a fleet by measured wall time instead of point count.
//
// Profiles are keyed by the Digest of the raw (unsalted) fingerprint:
// a point's cost is a property of its configuration, not of the
// simulator build, so profiles deliberately survive rebuilds that
// invalidate the result cache.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"
)

// Digest is the hex SHA-256 of a raw fingerprint — the stable identity
// shard plans and wall-time profiles reference points by without
// embedding the full (long) fingerprint material.
func Digest(fingerprint string) string {
	s := sha256.Sum256([]byte(fingerprint))
	return hex.EncodeToString(s[:])
}

// ProfileName holds the persisted profile's snapshot inside a cache
// directory (profileJournalName holds the records flushed since); its
// name fails the cache's pre-log entry-name check, so GC leaves it
// in place.
const ProfileName = "profile.json"

// profileFile is the on-disk format: fingerprint digest -> EWMA wall
// in nanoseconds. JSON maps marshal with sorted keys, so the file is
// byte-deterministic for a given state.
type profileFile struct {
	WallsNs map[string]int64 `json:"walls_ns"`
}

// profileAlpha weights the newest observation in the EWMA: high enough
// to track a point that genuinely changed cost, low enough that one
// noisy wall does not swing the schedule.
const profileAlpha = 0.5

// Profile is an in-memory view of a directory's persisted wall-time
// estimates plus this process's observations. It is safe for
// concurrent use by engine workers. Walls are advisory scheduling
// hints: flushes of disjoint points serialise through a lock file and
// all land, while concurrent flushes of the *same* point may lose an
// EWMA step — which costs schedule quality, never correctness.
type Profile struct {
	dir string

	mu      sync.Mutex
	walls   map[string]int64 // digest -> EWMA wall ns (current view)
	updated map[string]bool  // digests this process observed or folded
}

// LoadProfile reads dir's persisted profile: the snapshot, then the
// journal's records over it (empty when neither exists — a cold
// profile is a state, not an error). A snapshot that does not parse is
// an error; a journal line that does not parse is skipped.
func LoadProfile(dir string) (*Profile, error) {
	snap, recs, err := profileJournal(dir).load()
	if err != nil {
		return nil, err
	}
	walls, err := profileWalls(snap, recs)
	if err != nil {
		return nil, fmt.Errorf("sweep: %s: malformed %s: %v", dir, ProfileName, err)
	}
	return &Profile{dir: dir, walls: walls, updated: map[string]bool{}}, nil
}

// profileWalls folds a snapshot (nil when absent) and a journal into
// one digest -> wall map: the snapshot's positive walls, then every
// journal record in order, so the last record for a digest wins. A
// snapshot that does not parse is reported after the journal is still
// folded, for compaction to replace it.
func profileWalls(snap, recs []byte) (map[string]int64, error) {
	var f profileFile
	var err error
	if snap != nil {
		if err = json.Unmarshal(snap, &f); err != nil {
			f.WallsNs = nil
		}
	}
	walls := f.WallsNs
	if walls == nil {
		walls = map[string]int64{}
	}
	for d, ns := range walls {
		if ns <= 0 {
			delete(walls, d)
		}
	}
	eachRecord(recs, func(line []byte) {
		if d, ns, ok := parseWallRecord(line); ok {
			walls[d] = ns
		}
	})
	return walls, err
}

// Len reports how many points the profile holds estimates for.
func (p *Profile) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.walls)
}

// Wall returns the profiled wall-time estimate for the raw
// fingerprint, or false when the point has never been measured.
func (p *Profile) Wall(fingerprint string) (time.Duration, bool) {
	return p.WallByDigest(Digest(fingerprint))
}

// WallByDigest is Wall keyed by an already-computed fingerprint digest
// — the form shard plans carry.
func (p *Profile) WallByDigest(digest string) (time.Duration, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ns, ok := p.walls[digest]
	return time.Duration(ns), ok
}

// Observe folds one measured wall into the fingerprint's EWMA. Zero
// and negative walls are ignored (cache hits complete in ~zero time
// and must not poison the estimate).
func (p *Profile) Observe(fingerprint string, wall time.Duration) {
	p.ObserveDigest(Digest(fingerprint), wall)
}

// ObserveDigest is Observe keyed by an already-computed fingerprint
// digest, for callers that memoize the hash per point.
func (p *Profile) ObserveDigest(digest string, wall time.Duration) {
	if wall <= 0 {
		return
	}
	p.fold(digest, wall.Nanoseconds())
}

// fold applies the EWMA update for one digest. Non-positive walls are
// dropped here too, not just in ObserveDigest: Fold replays whole
// source profiles (shard merges, hand-edited files), and a zero or
// negative estimate sneaking in would poison both fleet scheduling
// and explore's cost model.
func (p *Profile) fold(digest string, ns int64) {
	if ns <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if old, ok := p.walls[digest]; ok {
		ns = int64(profileAlpha*float64(ns) + (1-profileAlpha)*float64(old))
	}
	if ns < 1 {
		ns = 1
	}
	p.walls[digest] = ns
	p.updated[digest] = true
}

// Fold merges every estimate of src into p with the same EWMA update a
// fresh observation gets: absent keys copy over, present keys move
// halfway toward the source. Folding identical values is a no-op, but
// repeated folds of a *differing* source keep moving the estimate, so
// callers replaying sources (e.g. a retried shard merge) must gate
// folds on their own dedup ledger.
func (p *Profile) Fold(src *Profile) {
	src.mu.Lock()
	walls := make(map[string]int64, len(src.walls))
	for d, ns := range src.walls {
		walls[d] = ns
	}
	src.mu.Unlock()
	for d, ns := range walls {
		p.fold(d, ns)
	}
}

// Predict estimates one point's simulation wall from the digest's
// profiled EWMA, falling back to the mean across every profiled point
// (a same-scenario sibling is the best available prior), then to def
// when the profile is empty or nil — the ladder explore costs
// candidates with before promoting them against a wall budget.
func (p *Profile) Predict(digest string, def time.Duration) time.Duration {
	if p == nil {
		return def
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if ns, ok := p.walls[digest]; ok {
		return time.Duration(ns)
	}
	if m := p.meanLocked(); m > 0 {
		return m
	}
	return def
}

func (p *Profile) meanLocked() time.Duration {
	if len(p.walls) == 0 {
		return 0
	}
	var sum int64
	for _, ns := range p.walls {
		sum += ns
	}
	return time.Duration(sum / int64(len(p.walls)))
}

// lockName serialises Flush's appends and compactions, and reads of
// the journal, inside a cache directory. Like ProfileName it fails the
// cache's pre-log entry-name check, so GC leaves it in place.
const lockName = ProfileName + ".lock"

// profileJournalName holds the records flushed since profile.json was
// last compacted (see journal.go), one per changed digest:
//
//	<digest> <EWMA wall ns>\n
//
// A digest is the hex Digest; a key that could break the line (one
// holding a newline, or starting with a quote), which only a
// hand-edited snapshot can supply, is written Go-quoted instead.
const profileJournalName = "profile.journal"

func profileJournal(dir string) journal {
	return journal{dir: dir, snapshot: ProfileName, name: profileJournalName, lock: lockName}
}

// appendWallRecord appends one journal record for digest d.
func appendWallRecord(b []byte, d string, ns int64) []byte {
	if strings.ContainsRune(d, '\n') || strings.HasPrefix(d, `"`) {
		b = strconv.AppendQuote(b, d)
	} else {
		b = append(b, d...)
	}
	b = append(b, ' ')
	b = strconv.AppendInt(b, ns, 10)
	return append(b, '\n')
}

// parseWallRecord decodes one journal line. It reports false for a
// line that does not hold a digest and a positive wall; a digest that
// is not valid UTF-8 is refused too, since the JSON snapshot could not
// keep it.
func parseWallRecord(line []byte) (string, int64, bool) {
	i := bytes.LastIndexByte(line, ' ')
	if i < 0 {
		return "", 0, false
	}
	ns, err := strconv.ParseInt(string(line[i+1:]), 10, 64)
	if err != nil || ns <= 0 {
		return "", 0, false
	}
	d := string(line[:i])
	if strings.HasPrefix(d, `"`) {
		if d, err = strconv.Unquote(d); err != nil {
			return "", 0, false
		}
	}
	if !utf8.ValidString(d) {
		return "", 0, false
	}
	return d, ns, true
}

// compactProfile is the profile journal's compaction: the snapshot
// and journal folded into one snapshot.
func compactProfile(snap, recs []byte) []byte {
	walls, _ := profileWalls(snap, recs)
	return encodeProfile(walls)
}

// encodeProfile returns the snapshot of walls byte for byte as
// json.MarshalIndent(profileFile{walls}, "", "  ") and a newline would:
// keys sorted, so the file is deterministic for a state. Encoding by
// hand skips the reflection that would dominate a compaction.
func encodeProfile(walls map[string]int64) []byte {
	keys := slices.Sorted(maps.Keys(walls))
	b := make([]byte, 0, 32+len(keys)*96)
	b = append(b, "{\n  \"walls_ns\": {"...)
	for i, d := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    "...)
		b = appendJSONString(b, d)
		b = append(b, ": "...)
		b = strconv.AppendInt(b, walls[d], 10)
	}
	if len(keys) > 0 {
		b = append(b, "\n  "...)
	}
	return append(b, "}\n}\n"...)
}

// appendJSONString appends s as encoding/json quotes it. Hex digests
// take the fast path; any other key falls back to json.Marshal.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, _ := json.Marshal(s)
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// Flush persists the profile: under an exclusive lock on the
// directory's profile lock file, one append adds a journal record for
// each estimate this process updated since its last flush, so
// concurrent flushers — goroutines or processes — profiling disjoint
// points through one directory all land, and a flush costs O(updated),
// not O(every digest ever profiled). Concurrent updates to the *same*
// point still last-write-win one EWMA step, which is acceptable for a
// scheduling hint. A record torn by a crash is skipped by readers.
func (p *Profile) Flush() error {
	p.mu.Lock()
	if len(p.updated) == 0 {
		p.mu.Unlock()
		return nil
	}
	type wall struct {
		d  string
		ns int64
	}
	updated := make([]wall, 0, len(p.updated))
	recs := make([]byte, 0, len(p.updated)*96) // a hex digest, a wall, separators
	for d := range p.updated {
		ns := p.walls[d]
		updated = append(updated, wall{d, ns})
		recs = appendWallRecord(recs, d, ns)
	}
	p.mu.Unlock()

	if err := profileJournal(p.dir).append(recs, compactProfile); err != nil {
		return err
	}
	// The flushed estimates are persisted: stop re-writing them, so a
	// later flush neither re-appends them nor overwrites newer
	// estimates other processes flushed for them. A digest observed
	// again since the copy keeps its mark.
	p.mu.Lock()
	for _, w := range updated {
		if p.walls[w.d] == w.ns {
			delete(p.updated, w.d)
		}
	}
	p.mu.Unlock()
	return nil
}
