package sweep_test

import (
	"fmt"
	"testing"

	"accesys/internal/scenario"
	"accesys/internal/sweep"
)

// BenchmarkCachePut measures one cold point's cache write, the
// sweep.cache_put_us layer: Put of a real fig4 fingerprint and outcome
// into a cache in a fresh directory under the test temp dir (set
// TMPDIR to time another filesystem; the cost of creating files
// differs widely between them). Every iteration stores a new key: the
// 35 fig4 fingerprints are salted afresh on each pass over them. It
// runs only when asked for with -bench, never in the BENCH_*.json
// ratchet.
func BenchmarkCachePut(b *testing.B) {
	points, err := scenario.MustBuiltin("fig4").PointsFor(false)
	if err != nil {
		b.Fatal(err)
	}
	out := sweep.Outcome{Dur: 9054850, Values: map[string]float64{"bytes_in": 32768, "bytes_out": 16384, "pages": 12, "tiles": 16}}
	c, err := sweep.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if i%len(points) == 0 {
			c.Salt = fmt.Sprintf("%064x", i)
		}
		c.Put(points[i%len(points)].Fingerprint, out)
		i++
	}
	if _, _, errors := c.Stats(); errors != 0 {
		b.Fatalf("%d put errors", errors)
	}
}
