package serve

// The HTTP surface. All responses are JSON except the rows endpoint's
// csv/text formats and the ndjson event stream.
//
//	POST /sweeps            submit a manifest (body), ?full=1 for
//	                        paper-scale; 202 + job id, 400 bad
//	                        manifest, 429 over quota, 503 queue full
//	                        (both with Retry-After)
//	GET  /sweeps            list every job's status
//	GET  /sweeps/{id}       poll one job
//	GET  /sweeps/{id}/rows  rendered result; ?format=json (default),
//	                        csv, or text; 409 until the job is done
//	GET  /sweeps/{id}/events  ndjson status stream until terminal
//	GET  /stats             cache counters, in-flight dedup, queue depth
//	GET  /healthz           liveness
//
// Clients identify themselves with the X-Accesys-Client header; absent
// that, the remote address's host stands in.

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"

	"accesys/internal/scenario"
)

// maxManifestBytes bounds a submission body; a scenario manifest is a
// few KB, so anything near the cap is not one.
const maxManifestBytes = 1 << 20

// submitError maps a rejected submission to its HTTP answer.
type submitError struct {
	status     int
	msg        string
	retryAfter int // seconds; 0 omits the header
}

var (
	errServerClosed  = &submitError{status: http.StatusServiceUnavailable, msg: "server is shutting down"}
	errQueueFull     = &submitError{status: http.StatusServiceUnavailable, msg: "job queue is full", retryAfter: 5}
	errQuotaExceeded = &submitError{status: http.StatusTooManyRequests, msg: "client has too many unfinished jobs", retryAfter: 10}
)

// Handler returns the server's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sweeps", s.handleSubmit)
	mux.HandleFunc("GET /sweeps", s.handleList)
	mux.HandleFunc("GET /sweeps/{id}", s.handlePoll)
	mux.HandleFunc("GET /sweeps/{id}/rows", s.handleRows)
	mux.HandleFunc("GET /sweeps/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// clientID names the submitting client for quota accounting.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-Accesys-Client"); c != "" {
		return c
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxManifestBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "manifest too large (limit %d bytes)", maxManifestBytes)
		return
	}
	sc, err := scenario.Parse(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The daemon only sweeps matrices; silently expanding a manifest
	// that asks for a search would run the wrong computation and throw
	// the stanza away.
	if sc.Explore != nil {
		writeError(w, http.StatusUnprocessableEntity,
			"manifest %q carries an \"explore\" stanza; this server only sweeps — run it with `accesys explore`", sc.Name)
		return
	}
	full := r.URL.Query().Get("full") == "1" || r.URL.Query().Get("full") == "true"
	// Expanding up front both validates the matrix fully and fixes the
	// job's total before anything runs.
	runs, err := sc.Expand(full)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	j, serr := s.submit(clientID(r), sc, body, full, len(runs))
	if serr != nil {
		if serr.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(serr.retryAfter))
		}
		writeError(w, serr.status, "%s", serr.msg)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":     j.id,
		"status": "/sweeps/" + j.id,
		"rows":   "/sweeps/" + j.id + "/rows",
		"events": "/sweeps/" + j.id + "/events",
		"total":  len(runs),
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.snapshotAll()})
}

func (s *Server) handlePoll(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// rowsPayload is the JSON form of a rendered result.
type rowsPayload struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

func (s *Server) handleRows(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	res, ok := j.rows()
	if !ok {
		st := j.status()
		if st.State == stateFailed {
			writeError(w, http.StatusConflict, "job %s failed: %s", st.ID, st.Error)
			return
		}
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, "job %s is %s (%d/%d points)", st.ID, st.State, st.Completed, st.Total)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, rowsPayload{
			ID: res.ID, Title: res.Title, Headers: res.Headers, Rows: res.Rows, Notes: res.Notes,
		})
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		res.WriteCSV(w)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		res.Fprint(w)
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want json, csv, or text)", format)
	}
}

// handleEvents streams the job's status as ndjson: one snapshot per
// state change (coalesced), ending after the terminal snapshot.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)

	ch := j.subscribe()
	defer j.unsubscribe(ch)
	enc := json.NewEncoder(w)
	for {
		select {
		case <-r.Context().Done():
			return
		case <-ch:
			st := j.status()
			if err := enc.Encode(st); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			if st.terminal() {
				return
			}
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	// Every job finish flushes the in-memory counters into the persisted
	// totals, so the lifetime numbers are the sum of both; a failed
	// read of the persisted file still reports the in-memory part.
	t, _ := s.cfg.Cache.Totals()
	s.mu.Lock()
	counts := map[string]int{}
	for _, j := range s.jobs {
		j.mu.Lock()
		counts[j.state]++
		j.mu.Unlock()
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"cache": map[string]int{"hits": t.Hits, "misses": t.Misses, "errors": t.Errors},
		"dedup": map[string]int{"inflight": s.flight.Inflight()},
		"queue": map[string]int{"depth": len(s.queue), "limit": s.cfg.queueLimit()},
		"jobs":  counts,
	})
}
