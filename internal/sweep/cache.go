package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"maps"
	"os"
	"path/filepath"
	"sync"
	"time"
	"unicode/utf8"
)

// Cache is the on-disk result store. Every entry is one record of the
// directory's append-only log, entries.log (see log.go), indexed by the
// SHA-256 of its salted fingerprint. Each record stores the full
// fingerprint and is verified against it on every disk read, so hash
// collisions and stale or corrupt records read as misses rather than
// wrong results. A Put is one append, so a Cache is safe for concurrent
// use by engine workers and by processes on one host sharing a
// directory; a Get picks up other processes' records by reading only
// what the log gained since its last look. Writers on several hosts
// sharing one directory over a network filesystem are not supported.
// A directory Cache keeps the log open from its first disk access; the
// descriptor is released when the Cache is garbage collected.
//
// In front of the log sits a bounded, per-process memory tier holding
// outcomes a disk read has already verified against the stored
// fingerprint, so a repeated hit skips the log entirely. Put drops the
// key from it and any GC eviction clears it. A cache from Memory has
// no directory and keeps outcomes in that tier alone.
type Cache struct {
	dir string
	log entryLog

	// Salt, when non-empty, is mixed into every entry key so results
	// from a different simulator build read as misses. Set it before
	// first use — BinaryFingerprint gives a ready-made value.
	Salt string

	// Clock supplies the wall-clock readings Put stamps records with
	// and GC ages them against, injectable so a daemon's periodic GC is
	// testable without sleeps. Nil means time.Now.
	Clock func() time.Time

	// mu guards the counters and the memory tier.
	mu     sync.Mutex
	hits   int
	misses int
	errors int

	// mem maps salted keys to verified outcomes, at most memCap of
	// them. memGen counts Puts and GC evictions: a disk read only
	// promotes its outcome if no write or eviction landed since the
	// read began, so the tier never keeps an outcome this Cache has
	// since overwritten or evicted.
	mem    map[string]Outcome
	memGen uint64

	// flushMu spans FlushCounters' move of counts from memory to the
	// counters journal, so Totals never reads them in neither place.
	// The journal's lock file serialises the appends themselves, across
	// Caches and processes.
	flushMu sync.Mutex
}

// memCap bounds the memory tier's entry count (a few KB each, mostly
// the key).
const memCap = 4096

// entry is the JSON a log record carries after its write time.
type entry struct {
	Fingerprint string  `json:"fingerprint"`
	Outcome     Outcome `json:"outcome"`
}

// errNoDir is what disk-only methods return for a cache from Memory.
var errNoDir = errors.New("sweep: cache has no directory")

// Memory returns a cache with no directory. Put stores outcomes in the
// bounded memory tier only and a tier miss is a plain miss: nothing
// touches the disk, and the disk-only methods return an error.
func Memory() *Cache { return &Cache{} }

// Open creates (if needed) and returns the cache rooted at dir.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Cache{dir: dir, log: entryLog{path: filepath.Join(dir, logName)}}, nil
}

// OpenSalted opens the cache at dir salted with the running binary's
// fingerprint — the standard configuration for tools: rebuilding the
// simulator from different code invalidates prior entries instead of
// silently serving stale results. It fails if the binary cannot be
// fingerprinted, because an unsalted cache would lose that guarantee.
func OpenSalted(dir string) (*Cache, error) {
	cache, err := Open(dir)
	if err != nil {
		return nil, err
	}
	salt, err := BinaryFingerprint()
	if err != nil {
		return nil, err
	}
	cache.Salt = salt
	return cache, nil
}

// Dir returns the cache root, or "" for a cache from Memory.
func (c *Cache) Dir() string { return c.dir }

// now reads the cache's clock.
func (c *Cache) now() time.Time {
	if c.Clock != nil {
		return c.Clock()
	}
	return time.Now()
}

// key is the salted fingerprint entries are stored and compared
// under; with a build-derived Salt, entries written by a different
// simulator binary can never match.
func (c *Cache) key(fingerprint string) string {
	if c.Salt == "" {
		return fingerprint
	}
	return c.Salt + "\x00" + fingerprint
}

// Ref is a precomputed cache reference: the salted key for one
// fingerprint, reusable across lookups and PutRef. Compute it after Salt
// is set; a Ref does not track later Salt changes. The key's log index
// hash is computed only when the disk is touched (a memory hit never
// needs it).
type Ref struct {
	key    string
	sum    [32]byte
	hashed bool
}

// Ref precomputes the cache reference for a fingerprint.
func (c *Cache) Ref(fingerprint string) Ref {
	return Ref{key: c.key(fingerprint)}
}

// hash returns the key's log index hash, computing it on first use so
// the engine's miss path hashes once across get and put.
func (r *Ref) hash() *[32]byte {
	if !r.hashed {
		r.sum = sha256.Sum256([]byte(r.key))
		r.hashed = true
	}
	return &r.sum
}

// Get returns the cached outcome for the fingerprint. A fingerprint
// with no record is a plain miss; a record that is malformed or stores
// a different fingerprint, or a log read failure, counts as a miss and
// an error (the next Put supersedes the bad record).
func (c *Cache) Get(fingerprint string) (Outcome, bool) {
	r := c.Ref(fingerprint)
	return c.getRef(&r)
}

// getRef serves r from the memory tier, else reads and verifies its
// latest log record, promoting a verified outcome into the tier. Every
// hit returns its own copy of Values.
func (c *Cache) getRef(r *Ref) (Outcome, bool) {
	c.mu.Lock()
	out, ok := c.mem[r.key]
	if ok {
		c.hits++
	}
	gen := c.memGen
	c.mu.Unlock()
	if ok {
		return cloneOutcome(out), true
	}
	if c.dir == "" {
		c.count(&c.misses)
		return Outcome{}, false
	}

	data, found, err := c.log.read(r.hash())
	if err != nil || !found {
		c.mu.Lock()
		if err != nil {
			c.errors++
		}
		c.misses++
		c.mu.Unlock()
		return Outcome{}, false
	}
	out, ok = decodeEntry(data, r.key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if !ok {
		c.errors++
		c.misses++
		return Outcome{}, false
	}
	c.hits++
	if gen == c.memGen {
		c.rememberLocked(r.key, out)
	}
	return cloneOutcome(out), true
}

// rememberLocked inserts out into the memory tier, evicting an
// arbitrary entry first when the tier is full. The caller holds mu.
func (c *Cache) rememberLocked(key string, out Outcome) {
	if c.mem == nil {
		c.mem = make(map[string]Outcome)
	}
	if len(c.mem) >= memCap {
		for k := range c.mem {
			delete(c.mem, k)
			break
		}
	}
	c.mem[key] = out
}

// cloneOutcome copies out's Values so callers can never alias an
// outcome the memory tier keeps.
func cloneOutcome(out Outcome) Outcome {
	out.Values = maps.Clone(out.Values)
	return out
}

// dropMem invalidates the memory tier after a write or eviction: the
// whole tier when key is empty, else just key. Bumping memGen stops
// disk reads already in flight from promoting what they read.
func (c *Cache) dropMem(key string) {
	c.mu.Lock()
	c.memGen++
	if key == "" {
		clear(c.mem)
	} else {
		delete(c.mem, key)
	}
	c.mu.Unlock()
}

// decodeEntry parses a record's entry JSON and reports whether it records
// key's outcome. PutRef's encoding is deterministic, so a file whose
// bytes start with exactly the fingerprint prefix PutRef would write
// needs only its small outcome tail decoded; anything else takes the
// full decode, which alone decides mismatches and malformed records.
func decodeEntry(data []byte, key string) (Outcome, bool) {
	if out, ok := decodeTail(data, key); ok {
		return out, true
	}
	return decodeFull(data, key)
}

// decodeFull unmarshals a whole entry and compares its stored
// fingerprint with key.
func decodeFull(data []byte, key string) (Outcome, bool) {
	var e entry
	if err := json.Unmarshal(data, &e); err != nil || e.Fingerprint != key {
		return Outcome{}, false
	}
	return e.Outcome, true
}

// decodeTail is decodeEntry's fast path: it matches data against the
// byte prefix PutRef writes for key and decodes only the outcome
// between it and the closing brace. It reports false whenever it
// cannot decide on its own. Keys that are not valid UTF-8 never take
// it: json.Marshal rewrites their invalid bytes to U+FFFD, so the
// prefix would match a record whose decoded fingerprint differs from key.
func decodeTail(data []byte, key string) (Outcome, bool) {
	if !utf8.ValidString(key) {
		return Outcome{}, false
	}
	prefix, err := entryPrefix(key)
	if err != nil || !bytes.HasPrefix(data, prefix) || !bytes.HasSuffix(data, []byte("}")) {
		return Outcome{}, false
	}
	var out Outcome
	if err := json.Unmarshal(data[len(prefix):len(data)-1], &out); err != nil {
		return Outcome{}, false
	}
	return out, true
}

// entryPrefix is the start of PutRef's encoding for key, up to the
// outcome value.
func entryPrefix(key string) ([]byte, error) {
	fp, err := json.Marshal(key)
	if err != nil {
		return nil, err
	}
	prefix := make([]byte, 0, len(`{"fingerprint":,"outcome":`)+len(fp))
	prefix = append(prefix, `{"fingerprint":`...)
	prefix = append(prefix, fp...)
	return append(prefix, `,"outcome":`...), nil
}

// Put stores the outcome under the fingerprint. Failures are recorded
// in the error counter but otherwise ignored: a broken cache must
// never break the sweep.
func (c *Cache) Put(fingerprint string, out Outcome) {
	c.PutRef(c.Ref(fingerprint), out)
}

// PutRef is Put for an already-computed reference: one append of a
// record stamped with the Clock's time. Without a directory it inserts
// a copy of out into the memory tier.
func (c *Cache) PutRef(r Ref, out Outcome) {
	if c.dir == "" {
		c.mu.Lock()
		c.rememberLocked(r.key, cloneOutcome(out))
		c.mu.Unlock()
		return
	}
	// Drop the key only once the write has landed (or failed), so no
	// concurrent read can re-promote the outcome it replaces.
	defer c.dropMem(r.key)
	line, rec, err := encodeRecord(c.now().UnixNano(), entry{Fingerprint: r.key, Outcome: out})
	if err != nil {
		c.count(&c.errors)
		return
	}
	if err := c.log.put(r.hash(), line, rec); err != nil {
		c.count(&c.errors)
	}
}

func (c *Cache) count(field *int) {
	c.mu.Lock()
	*field++
	c.mu.Unlock()
}

// Stats reports the hit, miss, and error counts not yet flushed.
func (c *Cache) Stats() (hits, misses, errors int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.errors
}

// BinaryFingerprint hashes the running executable, giving a cache
// salt that changes whenever the simulator is rebuilt from different
// code — cached results can then never outlive the build that
// produced them. A running process's executable does not change, so
// the hash is taken once per process and every later call (each
// OpenSalted, each shard or fleet salt check) returns the memo.
func BinaryFingerprint() (string, error) { return binaryFingerprint() }

var binaryFingerprint = sync.OnceValues(func() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
})
