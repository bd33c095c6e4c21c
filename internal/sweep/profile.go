package sweep

// Per-point wall-time profiling: the engine measures how long each
// cold point takes to simulate, and a Profile persists an EWMA of
// those walls (profile.json, alongside the cache's counters.json) so
// later runs can predict point costs they have not yet paid. The
// weighted shard partitioner consumes these predictions to balance a
// fleet by measured wall time instead of point count.
//
// Profiles are keyed by the Digest of the raw (unsalted) fingerprint:
// a point's cost is a property of its configuration, not of the
// simulator build, so profiles deliberately survive rebuilds that
// invalidate the result cache.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Digest is the hex SHA-256 of a raw fingerprint — the stable identity
// shard plans and wall-time profiles reference points by without
// embedding the full (long) fingerprint material.
func Digest(fingerprint string) string {
	s := sha256.Sum256([]byte(fingerprint))
	return hex.EncodeToString(s[:])
}

// ProfileName holds the persisted profile inside a cache directory;
// its name fails the cache's pre-log entry-name check, so GC leaves it
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

// LoadProfile reads dir's persisted profile (empty when the file does
// not exist — a cold profile is a state, not an error).
func LoadProfile(dir string) (*Profile, error) {
	p := &Profile{dir: dir, walls: map[string]int64{}, updated: map[string]bool{}}
	data, err := os.ReadFile(filepath.Join(dir, ProfileName))
	if os.IsNotExist(err) {
		return p, nil
	}
	if err != nil {
		return nil, err
	}
	var f profileFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("sweep: %s: malformed %s: %v", dir, ProfileName, err)
	}
	for d, ns := range f.WallsNs {
		if ns > 0 {
			p.walls[d] = ns
		}
	}
	return p, nil
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

// lockName guards Flush's read-overlay-rename cycle inside a cache
// directory. Like ProfileName it fails the cache's pre-log entry-name
// check, so GC leaves it in place.
const lockName = ProfileName + ".lock"

// Flush persists the profile: under an exclusive lock on the
// directory's profile lock file, the persisted file is re-read and
// this process's updated estimates are overlaid, so concurrent
// flushers — goroutines or processes — profiling disjoint points
// through one directory all land. Concurrent updates to the *same*
// point still last-write-win one EWMA step, which is acceptable for a
// scheduling hint. The write is staged and renamed, so readers never
// see a half-written profile.
func (p *Profile) Flush() error {
	p.mu.Lock()
	if len(p.updated) == 0 {
		p.mu.Unlock()
		return nil
	}
	updated := make(map[string]int64, len(p.updated))
	for d := range p.updated {
		updated[d] = p.walls[d]
	}
	p.mu.Unlock()

	unlock, err := lockFile(filepath.Join(p.dir, lockName))
	if err != nil {
		return err
	}
	defer unlock()

	out := profileFile{WallsNs: map[string]int64{}}
	data, err := os.ReadFile(filepath.Join(p.dir, ProfileName))
	if err == nil {
		var f profileFile
		if json.Unmarshal(data, &f) == nil {
			for d, ns := range f.WallsNs {
				if ns > 0 {
					out.WallsNs[d] = ns
				}
			}
		}
	}
	for d, ns := range updated {
		out.WallsNs[d] = ns
	}

	enc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := WriteFileAtomic(p.dir, "profile-*.tmp", ProfileName, append(enc, '\n')); err != nil {
		return err
	}
	// The flushed estimates are persisted: stop re-writing them, so a
	// later flush neither costs O(every digest ever observed) nor
	// overwrites newer estimates other processes flushed for them. A
	// digest observed again since the copy keeps its mark.
	p.mu.Lock()
	for d, ns := range updated {
		if p.walls[d] == ns {
			delete(p.updated, d)
		}
	}
	p.mu.Unlock()
	return nil
}
