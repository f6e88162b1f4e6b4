package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNewTraceID(t *testing.T) {
	id := NewTraceID()
	if len(id) != 16 {
		t.Fatalf("trace ID %q is not 16 hex digits", id)
	}
	if a, b := NewTraceID(), NewTraceID(); a == b {
		t.Fatalf("two fresh trace IDs collide: %q", a)
	}
}

// TestWriteJobTrace checks the Chrome trace-event export: valid JSON, one
// named process/thread, every span a duration slice with timestamps relative
// to the earliest start, and drop metadata.
func TestWriteJobTrace(t *testing.T) {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	id := TraceID("deadbeefcafef00d")
	spans := []Span{
		{Trace: id, Stage: StageQueueWait, Start: base, DurationMS: 1.5},
		{Trace: id, Stage: StageExecute, Name: "crow-cache on mcf", Start: base.Add(2 * time.Millisecond), DurationMS: 40},
	}
	var b bytes.Buffer
	if err := WriteJobTrace(&b, "j000042", id, spans, 3); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		OtherData struct {
			Job     string `json:"job"`
			TraceID string `json:"trace_id"`
			Dropped int64  `json:"dropped"`
		} `json:"otherData"`
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Name string  `json:"name"`
			Pid  int     `json:"pid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("export is not JSON: %v\n%s", err, b.String())
	}
	if doc.OtherData.Job != "j000042" || doc.OtherData.TraceID != string(id) || doc.OtherData.Dropped != 3 {
		t.Errorf("metadata %+v mangled", doc.OtherData)
	}
	var slices int
	for _, e := range doc.TraceEvents {
		if e.Pid != JobTracePID {
			t.Errorf("event %q on pid %d, want %d", e.Name, e.Pid, JobTracePID)
		}
		if e.Ph != "X" {
			continue
		}
		slices++
		if e.Args["trace_id"] != string(id) {
			t.Errorf("slice %q lacks trace_id", e.Name)
		}
		switch e.Name {
		case string(StageQueueWait):
			if e.Ts != 0 || e.Dur != 1500 {
				t.Errorf("queue-wait ts=%g dur=%g, want 0/1500", e.Ts, e.Dur)
			}
		case string(StageExecute):
			if e.Ts != 2000 || e.Dur != 40000 {
				t.Errorf("execute ts=%g dur=%g, want 2000/40000", e.Ts, e.Dur)
			}
			if e.Args["run"] != "crow-cache on mcf" {
				t.Errorf("execute slice lost its run label: %v", e.Args)
			}
		}
	}
	if slices != 2 {
		t.Errorf("%d duration slices, want 2", slices)
	}
}

// TestWriteJobTraceEmpty: a job with no spans still exports a valid document.
func TestWriteJobTraceEmpty(t *testing.T) {
	var b bytes.Buffer
	if err := WriteJobTrace(&b, "j1", "t1", nil, 0); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("empty export is not JSON: %v", err)
	}
}

func TestStagesOrder(t *testing.T) {
	want := []Stage{StageHTTP, StageQueueWait, StageMemoLookup, StageStoreRead, StageExecute, StageStoreWrite}
	got := Stages()
	if len(got) != len(want) {
		t.Fatalf("Stages() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Stages()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestNewLogger(t *testing.T) {
	var b bytes.Buffer
	lg, err := NewLogger(&b, "info", "text")
	if err != nil {
		t.Fatal(err)
	}
	lg.Debug("hidden")
	lg.Info("visible", "trace_id", "abc123")
	out := b.String()
	if strings.Contains(out, "hidden") {
		t.Error("debug line leaked at info level")
	}
	if !strings.Contains(out, "visible") || !strings.Contains(out, "trace_id=abc123") {
		t.Errorf("info line mangled: %q", out)
	}

	b.Reset()
	lg, err = NewLogger(&b, "warn", "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("hidden")
	lg.Warn("loud", "trace_id", "xyz")
	var line map[string]any
	if err := json.Unmarshal(b.Bytes(), &line); err != nil {
		t.Fatalf("json format line is not JSON: %v (%q)", err, b.String())
	}
	if line["msg"] != "loud" || line["trace_id"] != "xyz" {
		t.Errorf("json line mangled: %v", line)
	}

	for _, bad := range [][2]string{{"loud", "text"}, {"info", "xml"}} {
		if _, err := NewLogger(&b, bad[0], bad[1]); err == nil {
			t.Errorf("NewLogger(%q, %q) accepted", bad[0], bad[1])
		}
	}

	NopLogger().Info("dropped") // must not panic
}
