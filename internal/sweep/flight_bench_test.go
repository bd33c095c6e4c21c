package sweep_test

import (
	"sync"
	"testing"
	"time"

	"accesys/internal/scenario"
	"accesys/internal/sweep"
)

// overlapManifest is eight small cold GEMM points: a few milliseconds
// of simulation each.
const overlapManifest = `{
  "name": "overlap",
  "base": "pcie8gb",
  "workload": {"kind": "gemm", "n": 64},
  "axes": [
    {"axis": "lanes", "values": [2, 4, 8, 16]},
    {"axis": "packet_bytes", "values": [64, 256]}
  ]
}`

// BenchmarkFlightOverlap measures the serve daemon's overlap case as a
// layer: two engines sweep the same cold points at once, sharing one
// two-slot Flight and one sweep.Memory() cache, as two jobs with
// identical manifests do under `accesys serve -jobs 1 -concurrency 2`.
// It reports the wall time per unique point; every point is simulated
// once per iteration, by whichever engine leads it.
func BenchmarkFlightOverlap(b *testing.B) {
	sc, err := scenario.Parse([]byte(overlapManifest))
	if err != nil {
		b.Fatal(err)
	}
	points, err := sc.PointsFor(false)
	if err != nil {
		b.Fatal(err)
	}
	const engines, slots = 2, 2
	var wall time.Duration
	for b.Loop() {
		flight, cache := sweep.NewFlight(slots), sweep.Memory()
		start := time.Now()
		var wg sync.WaitGroup
		for range engines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				eng := &sweep.Engine{Jobs: slots, Cache: cache, Flight: flight}
				if err := sweep.Failed(eng.Run(points)); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
		wall += time.Since(start)
		if _, misses, _ := cache.Stats(); misses != len(points) {
			b.Fatalf("%d cache misses, want each of the %d points simulated once", misses, len(points))
		}
	}
	b.ReportMetric(float64(wall.Microseconds())/float64(b.N*len(points)), "us/point")
}
