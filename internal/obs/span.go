package obs

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"sync"
	"time"
)

// TraceID correlates everything one crowserve job touches: every span, every
// structured log line, and the Chrome trace export carry the same ID, so a
// job's path through admission, queueing, the engine, and the store can be
// reconstructed after the fact from telemetry alone. IDs are assigned at
// admission and ride the run context (WithTrace/TraceFrom) — never
// crow.Options, whose JSON form is the engine's memoization key.
type TraceID string

// NewTraceID returns a fresh 16-hex-digit trace ID.
func NewTraceID() TraceID {
	var b [8]byte
	rand.Read(b[:]) // never fails (crypto/rand panics internally if the source does)
	return TraceID(hex.EncodeToString(b[:]))
}

// traceKey is the context key for the trace ID.
type traceKey struct{}

// WithTrace returns a context carrying the trace ID. The service stamps the
// run context with it so every layer below can correlate its work back to the
// admitting request without the ID entering any memoization key.
func WithTrace(ctx context.Context, id TraceID) context.Context {
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceFrom returns the trace ID carried by ctx, or "".
func TraceFrom(ctx context.Context) TraceID {
	id, _ := ctx.Value(traceKey{}).(TraceID)
	return id
}

// Stage names one segment of a job's path through the service. The six
// stages partition a job's admission-to-done wall time (engine-slot waits and
// scheduling gaps are the slack between them).
type Stage string

// Pipeline stages, in the order a cold job traverses them.
const (
	// StageHTTP covers the admitting HTTP request: body read, spec decode,
	// validation, and queue admission.
	StageHTTP Stage = "http-handle"
	// StageQueueWait covers admission to worker pickup.
	StageQueueWait Stage = "queue-wait"
	// StageMemoLookup covers the engine's in-memory memo consult — for a
	// cache hit, the wait for the memoized or in-flight result.
	StageMemoLookup Stage = "memo-lookup"
	// StageStoreRead covers the persistent store's Get (hit or miss).
	StageStoreRead Stage = "store-read"
	// StageExecute covers the simulation itself.
	StageExecute Stage = "execute"
	// StageStoreWrite covers the write-behind Put after an execution.
	StageStoreWrite Stage = "store-write"
)

// Stages lists every pipeline stage in traversal order (the order the
// /metrics stage histograms render in).
func Stages() []Stage {
	return []Stage{StageHTTP, StageQueueWait, StageMemoLookup, StageStoreRead, StageExecute, StageStoreWrite}
}

// Span is one timed segment of a job's path. Spans are small and fixed-shape
// so the recorder's ring can hold them without per-record allocation.
type Span struct {
	Trace TraceID `json:"trace_id"`
	Stage Stage   `json:"stage"`
	// Name carries the per-run label for engine stages (a job can fan out
	// into many runs; each run contributes its own memo/store/execute
	// spans), empty for job-level stages.
	Name       string    `json:"name,omitempty"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
}

// SpanRecorder accumulates one job's spans in a bounded ring: recording
// never grows the buffer, the oldest spans are overwritten once it is full,
// and the overwrite count is reported so a truncated trace is never mistaken
// for a complete one. Unlike the Tracer, it is mutex-guarded — spans arrive
// from the HTTP goroutine, the job worker, and the engine's observer
// delivery, which are different goroutines.
type SpanRecorder struct {
	mu    sync.Mutex
	max   int
	buf   []Span
	next  int
	full  bool
	total int64
}

// DefaultSpanCapacity bounds a job's span ring when the service does not
// choose one: enough for a whole-registry experiment job (hundreds of runs,
// a handful of spans each) without letting a pathological job grow without
// bound.
const DefaultSpanCapacity = 4096

// NewSpanRecorder returns a recorder with the given ring capacity
// (<= 0 selects DefaultSpanCapacity). The buffer grows on demand up to the
// capacity — a recorder per job must cost a typical job (a handful of spans)
// a handful of spans, not the worst case.
func NewSpanRecorder(capacity int) *SpanRecorder {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &SpanRecorder{max: capacity}
}

// Record appends one span, overwriting the oldest once the ring is full.
func (r *SpanRecorder) Record(s Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.buf) < r.max {
		r.buf = append(r.buf, s)
		return
	}
	r.full = true
	r.buf[r.next] = s
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
}

// Spans returns a copy of the retained spans in record order (oldest first).
func (r *SpanRecorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.buf))
	if r.full {
		out = append(out, r.buf[r.next:]...)
		return append(out, r.buf[:r.next]...)
	}
	return append(out, r.buf...)
}

// Total returns the number of spans ever recorded.
func (r *SpanRecorder) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many recorded spans were overwritten by newer ones.
func (r *SpanRecorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - int64(len(r.buf))
}

// JobTracePID is the Chrome-trace process ID the job-stage track renders
// under. It sits far above any simulated channel's pid (channels number from
// 0), so a job trace concatenated with its runs' simulator traces loads as
// one Perfetto timeline: job stages as their own track, sim banks below.
const JobTracePID = 1 << 20

// WriteJobTrace writes the spans as Chrome trace-event JSON (the same JSON
// Array Format the simulator's Tracer exports): one process for the job, a
// single "stages" thread, every span a duration slice. Timestamps are
// microseconds relative to the earliest span's start so the trace begins at
// zero like the simulator's. Metadata records the recorder's drop count.
func WriteJobTrace(w io.Writer, jobID string, trace TraceID, spans []Span, dropped int64) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"job\":%q,\"trace_id\":%q,\"recorded\":%d,\"dropped\":%d},\"traceEvents\":[",
		jobID, trace, int64(len(spans))+dropped, dropped)
	fmt.Fprintf(bw, "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"crowserve job %s\"}}", JobTracePID, jobID)
	fmt.Fprintf(bw, ",{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"stages\"}}", JobTracePID)
	var base time.Time
	for _, s := range spans {
		if base.IsZero() || s.Start.Before(base) {
			base = s.Start
		}
	}
	for _, s := range spans {
		ts := float64(s.Start.Sub(base).Nanoseconds()) / 1e3
		fmt.Fprintf(bw, ",{\"ph\":\"X\",\"name\":%q,\"cat\":\"job\",\"pid\":%d,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace_id\":%q",
			string(s.Stage), JobTracePID, ts, s.DurationMS*1e3, s.Trace)
		if s.Name != "" {
			fmt.Fprintf(bw, ",\"run\":%q", s.Name)
		}
		bw.WriteString("}}")
	}
	bw.WriteString("]}")
	return bw.Flush()
}
