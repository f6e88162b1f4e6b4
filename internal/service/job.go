package service

import (
	"encoding/json"
	"sync"
	"time"

	"crowdram/crow"
	"crowdram/internal/engine"
	"crowdram/internal/exp"
	"crowdram/internal/obs"
)

// State is a job's lifecycle position. Queued and Running are transient;
// Done, Failed and Cancelled are terminal.
type State string

// Job states, in lifecycle order.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Spec is a job submission: exactly one of Experiment (a name, kind, or
// "all" from the internal/exp registry) or Options (a strict-JSON
// crow.Options document) selects the work.
type Spec struct {
	// Experiment names one or more registry experiments ("fig8",
	// "analytic", "all", ...). Their plans execute on the shared engine
	// pool and the result carries one table per experiment.
	Experiment string `json:"experiment,omitempty"`
	// Options is a single raw simulation, decoded with
	// crow.DecodeOptions (unknown fields rejected). The result carries
	// the run's crow.Report.
	Options json.RawMessage `json:"options,omitempty"`
	// Priority orders admission: higher runs first, FIFO within a
	// priority. Default 0.
	Priority int `json:"priority,omitempty"`
	// TimeoutMS bounds the job's total wall-clock time, measured from
	// admission — queue wait counts against it, so a job that spends its
	// whole budget queued fails with a deadline error without executing
	// (0 = the service default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Result is a completed job's payload.
type Result struct {
	// Report is set for Options jobs.
	Report *crow.Report `json:"report,omitempty"`
	// Tables is set for Experiment jobs, one per selected experiment in
	// registry order.
	Tables []exp.Table `json:"tables,omitempty"`
}

// EventKind classifies job event-log records.
type EventKind string

// Event kinds: state transitions, engine per-run progress, and pipeline
// stage spans.
const (
	KindState EventKind = "state"
	KindRun   EventKind = "run"
	KindSpan  EventKind = "span"
)

// maxJobEvents bounds a job's event log, the one record of what happened to
// it: the newest maxJobEvents events are kept and older ones are dropped, so
// nothing a job holds grows with its run length. A QuickScale whole-registry
// job logs 5 141 events and replays complete; a default-scale one logs 18 974
// and keeps its newest 8 192.
const maxJobEvents = 8192

// Event is one record of a job's event log, the unit the SSE stream delivers.
// Seq counts every event the job ever logged, dropped ones included.
type Event struct {
	Seq  int       `json:"seq"`
	Time time.Time `json:"time"`
	Kind EventKind `json:"kind"`
	// State is the new state (KindState only).
	State State `json:"state,omitempty"`
	// Error is the failure detail on a terminal state transition.
	Error string `json:"error,omitempty"`
	// Run is the engine progress record (KindRun only).
	Run *RunEvent `json:"run,omitempty"`
	// Span is the completed pipeline-stage span (KindSpan only).
	Span *obs.Span `json:"span,omitempty"`
}

// RunEvent mirrors one engine observer event belonging to the job's plan.
type RunEvent struct {
	Type       string  `json:"type"` // queued | started | finished | cache-hit | progress
	Label      string  `json:"label"`
	DurationMS float64 `json:"duration_ms,omitempty"`
	Error      string  `json:"error,omitempty"`
	Pending    int     `json:"pending"`
	// Telemetry carries an interval snapshot (type "progress" only; set
	// when the service runs with a telemetry interval).
	Telemetry *obs.IntervalSnapshot `json:"telemetry,omitempty"`
}

// Job is one submitted unit of work. All fields behind mu; accessors copy.
type Job struct {
	ID string

	mu        sync.Mutex
	spec      Spec
	opts      crow.Options // decoded (Options jobs)
	exps      []exp.Experiment
	seq       int64 // FIFO tiebreak within a priority
	heapIndex int   // maintained by the queue; -1 when not queued

	state     State
	err       string
	result    *Result
	submitted time.Time
	started   time.Time
	finished  time.Time

	trace obs.TraceID

	cancelRequested bool
	cancel          func() // run-context cancel; nil until running

	events  obs.Ring[Event] // the newest maxJobEvents
	spans   int64           // span events ever logged, retained or not
	changed chan struct{}   // closed and replaced on every append
}

func newJob(id string, spec Spec, seq int64) *Job {
	j := &Job{
		ID:        id,
		spec:      spec,
		seq:       seq,
		heapIndex: -1,
		state:     StateQueued,
		submitted: time.Now(),
		events:    obs.NewRing[Event](maxJobEvents),
		changed:   make(chan struct{}),
	}
	j.append(Event{Kind: KindState, State: StateQueued})
	return j
}

// append records an event (mu held by caller or not needed yet); it stamps
// sequence and time and wakes streamers.
func (j *Job) append(e Event) {
	e.Seq = int(j.events.Total())
	e.Time = time.Now()
	j.events.Push(e)
	close(j.changed)
	j.changed = make(chan struct{})
}

// setState transitions the job, records the event, and stamps timestamps.
// Transitions out of a terminal state are ignored.
func (j *Job) setState(s State, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = s
	j.err = errMsg
	now := time.Now()
	switch s {
	case StateRunning:
		j.started = now
	case StateDone, StateFailed, StateCancelled:
		j.finished = now
	}
	j.append(Event{Kind: KindState, State: s, Error: errMsg})
}

// addSpan logs a completed pipeline-stage span as a span event — the one copy
// SSE, GET /v1/jobs/{id}/trace and the slow-job log all read. Spans arriving
// after the job went terminal are dropped, matching recordRun — the terminal
// state event stays the last on the log. Returns whether the span was logged,
// so the caller keeps service-wide aggregates consistent with the job's log.
func (j *Job) addSpan(sp obs.Span) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.spans++
	j.append(Event{Kind: KindSpan, Span: &sp})
	return true
}

// Trace returns the job's trace ID ("" before admission stamping).
func (j *Job) Trace() obs.TraceID {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace
}

// TraceSpans returns the spans still on the job's event log, oldest first,
// and how many the log has dropped.
func (j *Job) TraceSpans() (spans []obs.Span, dropped int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events.Each(func(e Event) {
		if e.Kind == KindSpan {
			spans = append(spans, *e.Span)
		}
	})
	return spans, j.spans - int64(len(spans))
}

// recordRun appends an engine progress event.
func (j *Job) recordRun(e engine.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	re := &RunEvent{Type: e.Type.String(), Label: e.Label, Pending: e.Pending}
	if e.Duration > 0 {
		re.DurationMS = float64(e.Duration.Microseconds()) / 1000
	}
	if e.Err != nil {
		re.Error = e.Err.Error()
	}
	if snap, ok := e.Progress.(obs.IntervalSnapshot); ok {
		re.Telemetry = &snap
	}
	j.append(Event{Kind: KindRun, Run: re})
}

// State returns the current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// EventsSince returns a copy of the retained events with Seq >= seq, a
// channel that closes on the next append, and whether the job is terminal —
// everything an SSE streamer needs to replay-then-follow without holding
// locks. A follower resumes from its last event's Seq+1; a first event whose
// Seq is above the one asked for means the log dropped the ones between.
func (j *Job) EventsSince(seq int) (evs []Event, changed <-chan struct{}, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.events.Since(int64(seq)), j.changed, j.state.Terminal()
}

// Status is the wire form of a job (GET /v1/jobs/{id}).
type Status struct {
	ID         string          `json:"id"`
	State      State           `json:"state"`
	TraceID    string          `json:"trace_id,omitempty"`
	Experiment string          `json:"experiment,omitempty"`
	Options    json.RawMessage `json:"options,omitempty"`
	Priority   int             `json:"priority,omitempty"`
	Submitted  time.Time       `json:"submitted"`
	Started    *time.Time      `json:"started,omitempty"`
	Finished   *time.Time      `json:"finished,omitempty"`
	Error      string          `json:"error,omitempty"`
	Result     *Result         `json:"result,omitempty"`
}

// Status snapshots the job for serialization.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:         j.ID,
		State:      j.state,
		TraceID:    string(j.trace),
		Experiment: j.spec.Experiment,
		Options:    j.spec.Options,
		Priority:   j.spec.Priority,
		Submitted:  j.submitted,
		Error:      j.err,
		Result:     j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}
