package main

// serve-overlap: an in-process `accesys serve` daemon on loopback and
// two closed-loop clients in lockstep rounds. Each client works through
// a seed-generated list of manifests: it submits one, waits on the job's
// /events stream until the terminal status, fetches the rows and checks
// them against rows rendered from the fixture; when both are done, the
// next round starts. Half of client 1's manifests repeat client 0's
// manifest of the same round, so the two often run the same points at
// once and share them through the daemon's in-flight dedup; later
// manifests revisit points earlier jobs cached. The lists are a fixed
// amount of work, sized to --seconds, so every run of one seed sees the
// same mix of cold, warm and shared points.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"reflect"
	"sort"
	"sync"
	"time"

	"accesys/internal/scenario"
	"accesys/internal/serve"
	"accesys/internal/sweep"
)

// serveJob is one manifest a client submits.
type serveJob struct {
	manifest []byte
	runs     []scenario.Run
	digests  []string // fingerprint digests of the job's points
	headers  []string
	rows     [][]string // what the fixture says the rows must be
}

// serveJobs generates n manifests per client from the seed. Each is a
// 4-point cross product inside the grid: one size, two links, two packet
// sizes, one memory, one access method.
func (r *run) serveJobs(n int) ([2][]serveJob, error) {
	rng := rand.New(rand.NewPCG(r.seed, 0x5e7e))
	grid := gridScenario()
	pick := func(vals []scenario.Value, k int) []scenario.Value {
		idx := rng.Perm(len(vals))[:k]
		sort.Ints(idx)
		out := make([]scenario.Value, k)
		for i, j := range idx {
			out[i] = vals[j]
		}
		return out
	}
	gen := func() (serveJob, error) {
		sc := gridScenario()
		sc.Axes[0].Values = pick(grid.Axes[0].Values, 1)
		sc.Axes[1].Values = pick(grid.Axes[1].Values, 2)
		sc.Axes[2].Values = pick(grid.Axes[2].Values, 2)
		sc.Axes[3].Values = pick(grid.Axes[3].Values, 1)
		sc.Axes[4].Values = pick(grid.Axes[4].Values, 1)
		data, err := scenario.Marshal(sc)
		if err != nil {
			return serveJob{}, err
		}
		runs, err := sc.Expand(false)
		if err != nil {
			return serveJob{}, err
		}
		j := serveJob{manifest: data, runs: runs}
		outs := make([]sweep.Outcome, len(runs))
		for i, p := range sc.Points(runs) {
			e, ok := r.fx[runs[i].Key]
			if !ok {
				return serveJob{}, fmt.Errorf("point %s is not in the fixture", runs[i].Key)
			}
			outs[i] = e.Outcome
			j.digests = append(j.digests, sweep.Digest(p.Fingerprint))
		}
		res, err := sc.Render(false, runs, outs)
		if err != nil {
			return serveJob{}, err
		}
		j.headers, j.rows = res.Headers, res.Rows
		return j, nil
	}
	var jobs [2][]serveJob
	for k := 0; k < n; k++ {
		a, err := gen()
		if err != nil {
			return jobs, err
		}
		b := a
		if rng.IntN(2) == 0 {
			if b, err = gen(); err != nil {
				return jobs, err
			}
		}
		jobs[0] = append(jobs[0], a)
		jobs[1] = append(jobs[1], b)
	}
	return jobs, nil
}

// session is a running in-process daemon and the HTTP client that
// talks to it.
type session struct {
	base    string
	srv     *serve.Server
	hs      *http.Server
	served  chan struct{}
	profile *sweep.Profile
	client  *http.Client
}

// startServer starts a daemon over an empty cache on a loopback port,
// configured as `accesys serve -jobs 1 -concurrency 2` would be.
func (r *run) startServer() (*session, error) {
	c, p, err := r.freshCache()
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Cache: c, Profile: p, Jobs: 1, Concurrency: 2})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &session{
		base:    "http://" + ln.Addr().String(),
		srv:     srv,
		hs:      &http.Server{Handler: srv.Handler()},
		served:  make(chan struct{}),
		profile: p,
		client:  &http.Client{},
	}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln)
	}()
	return s, nil
}

// stop shuts the HTTP server down, waits for it, and drains the daemon.
func (s *session) stop() error {
	err := s.hs.Shutdown(context.Background())
	<-s.served
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	s.client.CloseIdleConnections()
	return err
}

// jobObs is what a client saw of one job.
type jobObs struct {
	job                       *serveJob
	status                    serve.JobStatus
	start, submitted, settled time.Time // submit sent, 202 received, terminal status received
	rowsDone                  time.Time
	queue, run                time.Duration // from the daemon's own timestamps
}

// do submits one job, waits for its terminal status on the event
// stream, fetches its rows and checks them.
func (s *session) do(client string, j *serveJob) (jobObs, error) {
	o := jobObs{job: j, start: time.Now()}
	req, err := http.NewRequest(http.MethodPost, s.base+"/sweeps", bytes.NewReader(j.manifest))
	if err != nil {
		return o, err
	}
	req.Header.Set("X-Accesys-Client", client)
	var sub struct {
		ID string `json:"id"`
	}
	if err := s.getJSON(req, http.StatusAccepted, &sub); err != nil {
		return o, fmt.Errorf("submit: %w", err)
	}
	o.submitted = time.Now()

	resp, err := s.client.Get(s.base + "/sweeps/" + sub.ID + "/events")
	if err != nil {
		return o, err
	}
	dec := json.NewDecoder(resp.Body)
	for o.status.State != "done" && o.status.State != "failed" {
		if err := dec.Decode(&o.status); err != nil {
			resp.Body.Close()
			return o, fmt.Errorf("job %s events: %w", sub.ID, err)
		}
	}
	resp.Body.Close()
	o.settled = time.Now()
	if o.status.State != "done" {
		return o, fmt.Errorf("job %s failed: %s", sub.ID, o.status.Error)
	}

	var rows struct {
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}
	req, err = http.NewRequest(http.MethodGet, s.base+"/sweeps/"+sub.ID+"/rows", nil)
	if err != nil {
		return o, err
	}
	if err := s.getJSON(req, http.StatusOK, &rows); err != nil {
		return o, fmt.Errorf("job %s rows: %w", sub.ID, err)
	}
	o.rowsDone = time.Now()
	if !reflect.DeepEqual(rows.Headers, j.headers) || !reflect.DeepEqual(rows.Rows, j.rows) {
		return o, fmt.Errorf("job %s rows %v differ from the fixture's %v", sub.ID, rows.Rows, j.rows)
	}
	stamp := func(s string) time.Time { t, _ := time.Parse(time.RFC3339Nano, s); return t }
	o.queue = stamp(o.status.StartedAt).Sub(stamp(o.status.SubmittedAt))
	o.run = stamp(o.status.FinishedAt).Sub(stamp(o.status.StartedAt))
	return o, nil
}

// getJSON sends req and decodes a JSON answer with the wanted status.
func (s *session) getJSON(req *http.Request, want int, v any) error {
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d", req.Method, req.URL.Path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// drive runs the two clients through their manifests in rounds: in
// each round both submit their next manifest at once and wait for its
// result, and between rounds the host clock samples the host while the
// daemon is idle, so the reference kernel never competes with it. It
// returns the jobs and the session, reference time taken out.
func (r *run) drive(s *session, jobs [2][]serveJob) ([]jobObs, timed) {
	var obs []jobObs
	ref0 := r.clock.spent
	start := time.Now()
	for k := range jobs[0] {
		var round [2]jobObs
		var errs [2]error
		var wg sync.WaitGroup
		for c := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				round[c], errs[c] = s.do(fmt.Sprintf("client%d", c), &jobs[c][k])
			}()
		}
		wg.Wait()
		for c := range jobs {
			r.attempted += len(jobs[c][k].runs)
			if errs[c] != nil {
				r.fail(len(jobs[c][k].runs), "%v", errs[c])
			} else {
				obs = append(obs, round[c])
			}
		}
		r.clock.tick()
	}
	return obs, interval(start, time.Now(), r.clock.spent-ref0)
}

// serveJobsPerSecond sizes each client's manifest list: about what one
// client completes per second, in lockstep rounds with the other, on a
// 2-core x86-64 host.
const serveJobsPerSecond = 60

// serveOverlap: the daemon workload. Cold point walls come from the
// daemon's wall profile, which records each simulated point once.
func serveOverlap(r *run) error {
	var t tally
	var jobs [2][]serveJob
	var s *session
	err := r.timeSetups(&t.setups, func() error {
		if s != nil {
			if err := s.stop(); err != nil {
				return err
			}
		}
		var err error
		if jobs, err = r.serveJobs(serveJobsPerSecond * int(r.seconds/time.Second)); err != nil {
			return err
		}
		s, err = r.startServer()
		return err
	})
	if err != nil {
		return err
	}
	a0 := r.allocMark()
	obs, session := r.drive(s, jobs)
	if err := s.stop(); err != nil {
		return err
	}
	t.alloc = r.allocSince(a0)
	cold, warm, _, done := tallyJobs(obs)
	t.cold, t.points = cold, done
	t.coldWall, t.jobWall = []timed{session}, []timed{session}
	t.warm, t.warmN = []timed{session}, []int{warm}
	seen := map[string]bool{}
	for _, o := range obs {
		job := interval(o.start, o.settled, 0)
		t.jobs = append(t.jobs, job)
		for _, d := range o.job.digests {
			if w, ok := s.profile.WallByDigest(d); ok && !seen[d] {
				t.coldPts = append(t.coldPts, timed{job.a, job.b, w})
			}
			seen[d] = true
		}
	}
	r.endToEnd(t)
	return nil
}

// tallyJobs sums the daemon's per-job point counts.
func tallyJobs(obs []jobObs) (cold, warm, shared, done int) {
	for _, o := range obs {
		cold += o.status.Cold
		warm += o.status.Warm
		shared += o.status.Shared
		done += o.status.Completed
	}
	return cold, warm, shared, done
}

// setServeLayers reports the daemon's phases — submit round trip,
// queue wait, run and rows round trip — and its dedup ratio, and adds
// spans for the phases each client saw.
func (r *run) setServeLayers(t *tracer, obs []jobObs) {
	var submit, queue, run, rows []float64
	for _, o := range obs {
		submit = append(submit, ms(o.submitted.Sub(o.start)))
		queue = append(queue, ms(o.queue))
		run = append(run, ms(o.run))
		rows = append(rows, ms(o.rowsDone.Sub(o.settled)))
		job := t.add("serve.job", 0, o.status.ID, o.start, o.rowsDone)
		t.add("serve.submit", job, o.status.ID, o.start, o.submitted)
		t.add("serve.wait", job, o.status.ID, o.submitted, o.settled)
		t.add("serve.rows", job, o.status.ID, o.settled, o.rowsDone)
	}
	r.set("serve.submit_ms", "ms", median(submit))
	r.set("serve.queue_wait_ms", "ms", median(queue))
	r.set("serve.run_ms", "ms", median(run))
	r.set("serve.rows_ms", "ms", median(rows))
	_, _, shared, done := tallyJobs(obs)
	r.set("sweep.flight_shared_ratio", "ratio", float64(shared)/float64(max(done, 1)))
}

// probeServe runs a short daemon session, three manifests per client,
// for the workloads that do not drive the daemon themselves.
func (r *run) probeServe() error {
	jobs, err := r.serveJobs(3)
	if err != nil {
		return err
	}
	s, err := r.startServer()
	if err != nil {
		return err
	}
	obs, _ := r.drive(s, jobs)
	if err := s.stop(); err != nil {
		return err
	}
	r.setServeLayers(newTracer(), obs)
	return nil
}

// traceServeSample bounds how many of a session's distinct points the
// traced run re-runs through the pipeline.
const traceServeSample = 200

// traceServe runs the daemon session as the untraced run does, then
// re-runs its first distinct points untraced and traced to attribute
// their cost to layers.
func traceServe(r *run) error {
	jobs, err := r.serveJobs(serveJobsPerSecond * int(r.seconds/time.Second))
	if err != nil {
		return err
	}
	s, err := r.startServer()
	if err != nil {
		return err
	}
	obs, _ := r.drive(s, jobs)
	if err := s.stop(); err != nil {
		return err
	}
	t := newTracer()
	r.setServeLayers(t, obs)

	var runs []scenario.Run
	seen := map[string]bool{}
	for _, o := range obs {
		for _, run := range o.job.runs {
			if len(runs) < traceServeSample && !seen[run.Key] {
				seen[run.Key] = true
				runs = append(runs, run)
			}
		}
	}
	sc := gridScenario()
	c, p, err := r.freshCache()
	if err != nil {
		return err
	}
	untraced, err := r.sweepPass(runs, sc.Points(runs), c, p)
	if err != nil {
		return err
	}
	if err := r.traceGrid(t, sc, runs, untraced.wall.d); err != nil {
		return err
	}
	_, warm, _, done := tallyJobs(obs)
	r.set("sweep.cache_hit_ratio", "ratio", float64(warm)/float64(max(done, 1)))
	if err := r.probeViT(); err != nil {
		return err
	}
	return t.write(r)
}
