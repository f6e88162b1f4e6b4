package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"crowdram/internal/engine"
	"crowdram/internal/metrics"
	"crowdram/internal/obs"
	"crowdram/internal/store"
)

// Handler returns the service's HTTP/JSON API:
//
//	POST   /v1/jobs             submit (Spec body) → 202 Status
//	GET    /v1/jobs             list jobs, newest first
//	GET    /v1/jobs/{id}        status + result
//	GET    /v1/jobs/{id}/events SSE stream: replay, then follow to terminal
//	GET    /v1/jobs/{id}/trace  Chrome trace-event JSON of the job's spans
//	DELETE /v1/jobs/{id}        cancel
//	GET    /healthz             200 ok / 503 draining
//	GET    /metrics             queue, workers, engine cache, HTTP latency
//
// Validation failures are 400, unknown IDs 404, and a full queue or a
// draining service 503 with Retry-After — the admission-control contract.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	// Every route records its wall-clock milliseconds per request under its
	// pattern; an SSE stream records its whole lifetime.
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			h(w, r)
			s.http.observe(pattern, float64(time.Since(start).Microseconds())/1000)
		})
	}
	handle("POST /v1/jobs", s.handleSubmit)
	handle("GET /v1/jobs", s.handleList)
	handle("GET /v1/jobs/{id}", s.handleGet)
	handle("GET /v1/jobs/{id}/events", s.handleEvents)
	handle("GET /v1/jobs/{id}/trace", s.handleTrace)
	handle("DELETE /v1/jobs/{id}", s.handleCancel)
	handle("GET /healthz", s.handleHealthz)
	handle("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	var spec Spec
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{"invalid job spec: " + err.Error()})
		return
	}
	j, err := s.Submit(spec)
	switch {
	case err == nil:
		// The admitting request is the job's first pipeline stage: body
		// read, decode, validation, and queue admission.
		s.recordSpan(j, obs.Span{
			Trace: j.Trace(), Stage: obs.StageHTTP,
			Start: start, DurationMS: durMS(time.Since(start)),
		})
		writeJSON(w, http.StatusAccepted, j.Status())
	case errors.Is(err, ErrBadRequest):
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, apiError{err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, apiError{err.Error()})
	}
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	j, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// handleEvents streams the job's event log as Server-Sent Events: every
// record still on the log replays first, then the stream follows live until
// the job reaches a terminal state (whose event is the last delivered) or
// the client disconnects. id: is the event's absolute Seq; wherever the log
// has dropped events the stream would have delivered next, a comment line
// says how many, so a truncated replay is never mistaken for a complete one.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{err.Error()})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, apiError{"streaming unsupported"})
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	next := 0
	for {
		evs, changed, terminal := j.EventsSince(next)
		if len(evs) > 0 && evs[0].Seq > next {
			fmt.Fprintf(w, ": %d earlier events dropped\n\n", evs[0].Seq-next)
		}
		for _, e := range evs {
			data, err := json.Marshal(e)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Kind, data)
		}
		if len(evs) > 0 {
			next = evs[len(evs)-1].Seq + 1
			fl.Flush()
		}
		if terminal {
			return // the terminal state event has been delivered
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// handleTrace serves the job's retained spans as Chrome trace-event JSON —
// loadable in Perfetto on its own, or concatenable with the simulator's
// crowtrace export (the job track sits at its own pid above the banks).
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{err.Error()})
		return
	}
	spans, dropped := j.TraceSpans()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	obs.WriteJobTrace(w, j.ID, j.Trace(), spans, dropped)
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Metrics is the /metrics document: admission state, worker occupancy, the
// engine cache, per-state job counts, and per-endpoint latency.
type Metrics struct {
	Queue struct {
		Depth    int  `json:"depth"`
		Capacity int  `json:"capacity"`
		Draining bool `json:"draining"`
	} `json:"queue"`
	Workers struct {
		Total int `json:"total"`
		Busy  int `json:"busy"`
	} `json:"workers"`
	Engine struct {
		engine.Snapshot
		HitRatio float64 `json:"hit_ratio"`
	} `json:"engine"`
	EngineWorkers int              `json:"engine_workers"`
	Jobs          map[State]int    `json:"jobs"`
	HTTP          map[string]Stats `json:"http"`
	// Stages summarizes pipeline-stage span durations across all jobs,
	// keyed by stage name; every stage is present even before any span
	// lands on it.
	Stages map[string]Stats `json:"stages"`
	// Store is the persistent result store's footprint and counters, when
	// the service runs with one whose Backing implementation exposes
	// store.Stats (the disk store does).
	Store *store.Stats `json:"store,omitempty"`

	// HTTPHist and StageHist carry the full bucket distributions behind
	// HTTP and Stages for the Prometheus rendering; the JSON document keeps
	// its historical summary shape.
	HTTPHist  map[string]metrics.HistSnapshot `json:"-"`
	StageHist map[string]metrics.HistSnapshot `json:"-"`
}

// Metrics assembles the current metrics document.
func (s *Service) Metrics() Metrics {
	var m Metrics
	m.Queue.Depth = s.queue.Len()
	m.Queue.Capacity = s.cfg.QueueDepth
	m.Queue.Draining = s.Draining()
	m.Workers.Total = s.cfg.Workers
	m.Workers.Busy = int(s.busy.Load())
	m.Engine.Snapshot = s.pool.Snapshot()
	m.Engine.HitRatio = m.Engine.Snapshot.HitRatio()
	if st, ok := s.cfg.Backing.(interface{ Stats() store.Stats }); ok {
		stats := st.Stats()
		m.Store = &stats
	}
	m.EngineWorkers = s.pool.Workers()
	m.Jobs = make(map[State]int)
	for _, j := range s.Jobs() {
		m.Jobs[j.State()]++
	}
	m.HTTP, m.HTTPHist = s.http.snapshot()
	m.Stages, m.StageHist = s.stages.snapshot()
	return m
}

// handleMetrics serves the metrics document, content-negotiated: JSON by
// default (the historical shape, unchanged), Prometheus text exposition when
// the client asks for text/plain (what Prometheus scrapers send) or with
// ?format=prometheus (curl convenience).
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.Metrics()
	if r.URL.Query().Get("format") == "prometheus" ||
		strings.Contains(r.Header.Get("Accept"), "text/plain") {
		w.Header().Set("Content-Type", PromContentType)
		w.WriteHeader(http.StatusOK)
		WritePrometheus(w, m)
		return
	}
	writeJSON(w, http.StatusOK, m)
}

// Stats summarizes one endpoint's request latency.
type Stats struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// histSet is a set of named millisecond histograms on the shared log-bucket
// primitive from internal/metrics (the one the simulator uses for read
// latencies). The service keeps two: request latency by route, and
// pipeline-stage span duration by stage.
type histSet struct {
	mu    sync.Mutex
	hists map[string]*metrics.Histogram
}

// newHistSet registers names up front, so their /metrics series exist (at
// zero) before the first observation; any other name registers on first use.
func newHistSet[S ~string](names ...S) *histSet {
	h := &histSet{hists: make(map[string]*metrics.Histogram, len(names))}
	for _, name := range names {
		h.hists[string(name)] = metrics.NewHistogram()
	}
	return h
}

func (h *histSet) observe(name string, ms float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	hist, ok := h.hists[name]
	if !ok {
		hist = metrics.NewHistogram()
		h.hists[name] = hist
	}
	hist.Add(ms)
}

// snapshot returns every histogram twice: as the JSON document's Stats
// summary and as the full distribution the Prometheus rendering needs.
func (h *histSet) snapshot() (map[string]Stats, map[string]metrics.HistSnapshot) {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]Stats, len(h.hists))
	hists := make(map[string]metrics.HistSnapshot, len(h.hists))
	for name, hist := range h.hists {
		out[name] = Stats{
			Count:  hist.Count(),
			MeanMS: hist.Mean(),
			P50MS:  hist.Percentile(50),
			P99MS:  hist.Percentile(99),
			MaxMS:  hist.Max(),
		}
		hists[name] = hist.Snapshot()
	}
	return out, hists
}
