package sweep

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestProgressCountsAndETA(t *testing.T) {
	var sb strings.Builder
	p := NewProgress(&sb, "figX", 3, 1)

	p.Observe(Result{Index: 0, Key: "a", Outcome: Outcome{Dur: 1000}, Wall: 2 * time.Second})
	line := sb.String()
	if !strings.Contains(line, "figX: [1/3] a ->") {
		t.Fatalf("missing count prefix: %q", line)
	}
	if !strings.Contains(line, "2.0s wall") {
		t.Fatalf("missing wall time: %q", line)
	}
	// One measured point at 2 s, two remaining, one worker: ETA 4 s.
	if !strings.Contains(line, "ETA 4s") {
		t.Fatalf("missing ETA: %q", line)
	}

	sb.Reset()
	p.Observe(Result{Index: 1, Key: "b", Outcome: Outcome{Dur: 1000}, Cached: true})
	line = sb.String()
	if !strings.Contains(line, "[2/3]") || !strings.Contains(line, "(cached)") {
		t.Fatalf("cached line wrong: %q", line)
	}
	if strings.Contains(line, "ETA") {
		t.Fatalf("cached line should not carry an ETA: %q", line)
	}

	// The cache hit must not dilute the estimate: one point left,
	// mean still 2 s.
	sb.Reset()
	p.Observe(Result{Index: 2, Key: "c", Outcome: Outcome{Dur: 1000}, Wall: 2 * time.Second})
	line = sb.String()
	if !strings.Contains(line, "[3/3]") {
		t.Fatalf("final count wrong: %q", line)
	}
	if strings.Contains(line, "ETA") {
		t.Fatalf("final line should not carry an ETA: %q", line)
	}
}

func TestProgressAllCachedHasNoETA(t *testing.T) {
	var sb strings.Builder
	p := NewProgress(&sb, "warm", 2, 4)
	p.Observe(Result{Key: "a", Cached: true})
	p.Observe(Result{Key: "b", Cached: true})
	if strings.Contains(sb.String(), "ETA") {
		t.Fatalf("all-cached run should never print an ETA:\n%s", sb.String())
	}
}

func TestProgressDividesByWorkers(t *testing.T) {
	var sb strings.Builder
	p := NewProgress(&sb, "par", 5, 2)
	p.Observe(Result{Key: "a", Wall: 4 * time.Second})
	// Mean 4 s, four remaining, two workers: ETA 8 s.
	if !strings.Contains(sb.String(), "ETA 8s") {
		t.Fatalf("worker-adjusted ETA wrong: %q", sb.String())
	}
}

// TestEngineWorkers pins the engine's pool size rule, which Progress
// divides its ETA by: Jobs caps it, the point count caps it, and it
// never drops below one worker.
func TestEngineWorkers(t *testing.T) {
	for _, tc := range []struct{ jobs, n, want int }{
		{4, 10, 4}, {4, 2, 2}, {4, 0, 1}, {-1, 0, 1},
	} {
		if got := workers(tc.jobs, tc.n); got != tc.want {
			t.Errorf("workers(%d, %d) = %d, want %d", tc.jobs, tc.n, got, tc.want)
		}
	}
	if got, want := workers(0, 1<<20), runtime.NumCPU(); got != want {
		t.Errorf("workers(0, many) = %d, want one per CPU (%d)", got, want)
	}
}

// TestProgressETADeterministicWithInjectedClock pins the exact
// progress output of a full engine run under a scripted clock: the
// engine's Clock field is the only time source on the ETA path, so the
// lines — wall notes and ETAs included — must be byte-stable.
func TestProgressETADeterministicWithInjectedClock(t *testing.T) {
	var sb strings.Builder
	base := time.Unix(1000, 0)
	var calls int
	eng := &Engine{
		Jobs: 1,
		// Every reading advances 1.5s; runPoint reads twice per cold
		// point, so each point measures a 1.5s wall.
		Clock: func() time.Time { calls++; return base.Add(time.Duration(calls) * 1500 * time.Millisecond) },
	}
	points := []Point{
		{Key: "a", Run: func() Outcome { return Outcome{Dur: 1000000} }},
		{Key: "b", Run: func() Outcome { return Outcome{Dur: 1000000} }},
		{Key: "c", Run: func() Outcome { return Outcome{Dur: 1000000} }},
	}
	eng.OnResult = NewProgress(&sb, "clk", len(points), eng.Jobs).Observe
	eng.Run(points)
	// Mean wall is always 1.5s with one worker: [1/3] leaves 2 points
	// (ETA 3s), [2/3] leaves 1 (1.5s rounds to 2s), [3/3] leaves none.
	want := "clk: [1/3] a -> 1.000us (1.5s wall, ETA 3s)\n" +
		"clk: [2/3] b -> 1.000us (1.5s wall, ETA 2s)\n" +
		"clk: [3/3] c -> 1.000us (1.5s wall)\n"
	if sb.String() != want {
		t.Fatalf("progress output not deterministic:\n--- got\n%s--- want\n%s", sb.String(), want)
	}
}

// TestEngineProgressIntegration drives Progress through a real engine
// run: every point reports, counts reach n/n.
func TestEngineProgressIntegration(t *testing.T) {
	var sb strings.Builder
	points := make([]Point, 4)
	for i := range points {
		points[i] = Point{Key: string(rune('a' + i)), Run: func() Outcome { return Outcome{Dur: 1} }}
	}
	eng := &Engine{Jobs: 2}
	eng.OnResult = NewProgress(&sb, "int", len(points), eng.Jobs).Observe
	eng.Run(points)
	out := sb.String()
	if strings.Count(out, "\n") != len(points) {
		t.Fatalf("want %d progress lines, got:\n%s", len(points), out)
	}
	if !strings.Contains(out, "[4/4]") {
		t.Fatalf("missing final count:\n%s", out)
	}
}

func TestProgressMarksFailedPoints(t *testing.T) {
	var sb strings.Builder
	p := NewProgress(&sb, "pkt", 2, 1)
	p.Observe(Result{Key: "bad", Outcome: Outcome{Err: ErrPoint}, Wall: time.Hour})
	p.Observe(Result{Key: "good", Outcome: Outcome{Dur: 1000}, Wall: time.Second})
	lines := strings.Split(sb.String(), "\n")
	if !strings.HasSuffix(lines[0], "bad -> 0ps (failed)") {
		t.Fatalf("failed point line = %q", lines[0])
	}
	// The failed point's wall does not feed the estimate.
	if strings.Contains(sb.String(), "ETA") || !strings.Contains(lines[1], "1.0s wall") {
		t.Fatalf("failed wall leaked into the progress estimate:\n%s", sb.String())
	}
}
