package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"
)

// BenchmarkProfileFlush measures one Profile.Flush of 4 changed
// digests against a persisted profile of n entries — the flush a serve
// runner does after every job. Compactions, which rewrite the snapshot
// once the journal outgrows it, are amortised into the per-flush
// figures, so a flat result across n means a flush costs O(changed).
// It runs only when asked for with -bench, never in the BENCH_*.json
// ratchet.
func BenchmarkProfileFlush(b *testing.B) {
	for _, n := range []int{100, 900, 5000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			dir := b.TempDir()
			digests := make([]string, n)
			snap := profileFile{WallsNs: make(map[string]int64, n)}
			for i := range digests {
				digests[i] = Digest(fmt.Sprint("point", i))
				snap.WallsNs[digests[i]] = int64(i+1) * 1000
			}
			enc, err := json.MarshalIndent(snap, "", "  ")
			if err != nil {
				b.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, ProfileName), append(enc, '\n'), 0o644); err != nil {
				b.Fatal(err)
			}
			p, err := LoadProfile(dir)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				for k := 0; k < 4; k++ {
					p.ObserveDigest(digests[i%n], time.Duration(i+1)*time.Microsecond)
					i++
				}
				if err := p.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFlushCounters measures one Cache.FlushCounters carrying a
// hit and a miss — the counter flush after every serve job.
func BenchmarkFlushCounters(b *testing.B) {
	c, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		c.mu.Lock()
		c.hits++
		c.misses++
		c.mu.Unlock()
		if err := c.FlushCounters(); err != nil {
			b.Fatal(err)
		}
	}
}
