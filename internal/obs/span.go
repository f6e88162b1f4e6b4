package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"time"
)

// TraceID correlates everything one crowserve job touches: every span, every
// structured log line, and the Chrome trace export carry the same ID, so a
// job's path through admission, queueing, the engine, and the store can be
// reconstructed after the fact from telemetry alone. IDs are assigned at
// admission and live on the service's Job — never in crow.Options, whose JSON
// form is the engine's memoization key.
type TraceID string

// NewTraceID returns a fresh 16-hex-digit trace ID.
func NewTraceID() TraceID {
	var b [8]byte
	rand.Read(b[:]) // never fails (crypto/rand panics internally if the source does)
	return TraceID(hex.EncodeToString(b[:]))
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

// Span is one timed segment of a job's path. A job keeps its spans once, as
// span events on its bounded event log.
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

// JobTracePID is the Chrome-trace process ID the job-stage track renders
// under. It sits far above any simulated channel's pid (channels number from
// 0), so a job trace concatenated with its runs' simulator traces loads as
// one Perfetto timeline: job stages as their own track, sim banks below.
const JobTracePID = 1 << 20

// WriteJobTrace writes the spans as Chrome trace-event JSON (the same framing
// the simulator's Tracer exports through): one process for the job, a single
// "stages" thread, every span a duration slice. Timestamps are microseconds
// relative to the earliest span's start so the trace begins at zero like the
// simulator's. dropped counts the job's spans that are no longer retained.
func WriteJobTrace(w io.Writer, jobID string, trace TraceID, spans []Span, dropped int64) error {
	doc := openChrome(w, fmt.Sprintf("\"job\":%q,\"trace_id\":%q,", jobID, trace), int64(len(spans))+dropped, dropped)
	doc.name("process_name", JobTracePID, 0, "crowserve job "+jobID)
	doc.name("thread_name", JobTracePID, 0, "stages")
	var base time.Time
	for _, s := range spans {
		if base.IsZero() || s.Start.Before(base) {
			base = s.Start
		}
	}
	for _, s := range spans {
		var run string
		if s.Name != "" {
			run = fmt.Sprintf(",\"run\":%q", s.Name)
		}
		ts := float64(s.Start.Sub(base).Nanoseconds()) / 1e3
		doc.rec("{\"ph\":\"X\",\"name\":%q,\"cat\":\"job\",\"pid\":%d,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace_id\":%q%s}}",
			string(s.Stage), JobTracePID, ts, s.DurationMS*1e3, s.Trace, run)
	}
	return doc.close()
}
