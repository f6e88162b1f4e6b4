package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"crowdram/crow"
	"crowdram/internal/obs"
)

// memBacking is an in-memory engine backing for span tests: misses on first
// read, hits after the write-behind.
type memBacking struct {
	mu sync.Mutex
	m  map[string]crow.Report
}

func newMemBacking() *memBacking { return &memBacking{m: make(map[string]crow.Report)} }

func (b *memBacking) Get(key string) (crow.Report, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.m[key]
	return r, ok
}

func (b *memBacking) Put(key string, val crow.Report) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[key] = val
}

// fetchSpans parses the Chrome trace export of GET /v1/jobs/{id}/trace.
func fetchSpans(t *testing.T, ts *httptest.Server, id string) (traceID string, events []traceEvent) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /trace = %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	var doc struct {
		OtherData struct {
			TraceID string `json:"trace_id"`
		} `json:"otherData"`
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace export is not JSON: %v\n%s", err, body)
	}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			events = append(events, e)
		}
	}
	return doc.OtherData.TraceID, events
}

type traceEvent struct {
	Ph   string         `json:"ph"`
	Name string         `json:"name"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

// TestTraceReconstruction is the acceptance walk: submit a job against a
// service with a persistent tier, let it finish, and rebuild its life from
// GET /v1/jobs/{id}/trace alone — every pipeline stage present, one trace ID
// throughout (matching the job status), and the stage durations summing to no
// more than the admission-to-done wall time.
func TestTraceReconstruction(t *testing.T) {
	run := func(ctx context.Context, o crow.Options) (crow.Report, error) {
		time.Sleep(20 * time.Millisecond) // a visible execute stage
		return crow.Report{Mechanism: o.Mechanism, IPC: []float64{1}, MPKI: []float64{10}}, nil
	}
	_, ts := newTestService(t, Config{Run: run, Backing: newMemBacking()})

	st, _ := postJob(t, ts, mcfCache)
	if st.TraceID == "" {
		t.Fatal("submit response carries no trace_id")
	}
	st = waitState(t, ts, st.ID, StateDone)

	traceID, events := fetchSpans(t, ts, st.ID)
	if traceID != st.TraceID {
		t.Fatalf("trace export ID %q != job trace ID %q", traceID, st.TraceID)
	}

	byStage := map[string][]traceEvent{}
	var pipelineMS float64 // every stage except the admitting HTTP handler
	for _, e := range events {
		byStage[e.Name] = append(byStage[e.Name], e)
		if id := e.Args["trace_id"]; id != st.TraceID {
			t.Errorf("span %q carries trace %v, want %q", e.Name, id, st.TraceID)
		}
		if e.Name != string(obs.StageHTTP) {
			pipelineMS += e.Dur / 1e3
		}
	}
	for _, stage := range obs.Stages() {
		if len(byStage[string(stage)]) == 0 {
			t.Errorf("no %q span recorded", stage)
		}
	}

	// queue-wait + memo-lookup + store-read + execute + store-write must
	// sum to within the admission-to-done wall time (the gaps — worker
	// handoff, engine slot wait, table assembly — are slack, not overlap).
	wallMS := float64(st.Finished.Sub(st.Submitted).Nanoseconds()) / 1e6
	if pipelineMS > wallMS*1.05+1 {
		t.Errorf("stage durations sum to %.3fms, exceeding the job's %.3fms wall time", pipelineMS, wallMS)
	}
	if exec := byStage[string(obs.StageExecute)]; len(exec) > 0 && exec[0].Dur < 20_000*0.9 {
		t.Errorf("execute span %.0fµs, want >= the hook's 20ms sleep", exec[0].Dur)
	}

	// The write-behind populated the store, so an identically-keyed job on a
	// fresh service over the same backing would store-hit; on this service
	// the memo wins — its lookup span is the only engine-side span added.
	st2, _ := postJob(t, ts, mcfCache)
	waitState(t, ts, st2.ID, StateDone)
	if st2.TraceID == st.TraceID {
		t.Error("two jobs share one trace ID")
	}
	_, events2 := fetchSpans(t, ts, st2.ID)
	var sawLookup bool
	for _, e := range events2 {
		switch e.Name {
		case string(obs.StageMemoLookup):
			sawLookup = true
		case string(obs.StageExecute):
			t.Error("memo-hit job recorded an execute span")
		}
	}
	if !sawLookup {
		t.Error("memo-hit job recorded no memo-lookup span")
	}
}

// TestSpanSSEReplay: after completion, the SSE stream replays the full span
// set in record order, consistent with the trace endpoint.
func TestSpanSSEReplay(t *testing.T) {
	hook := newTestHook(false)
	_, ts := newTestService(t, Config{Run: hook.run, Backing: newMemBacking()})
	st, _ := postJob(t, ts, mcfCache)
	waitState(t, ts, st.ID, StateDone)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)

	var stages []string
	for _, line := range strings.Split(string(body), "\n") {
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var ev Event
		if json.Unmarshal([]byte(data), &ev) == nil && ev.Kind == KindSpan {
			if ev.Span == nil {
				t.Fatalf("span event without span payload: %s", data)
			}
			if string(ev.Span.Trace) != st.TraceID {
				t.Errorf("span event trace %q, want %q", ev.Span.Trace, st.TraceID)
			}
			stages = append(stages, string(ev.Span.Stage))
		}
	}
	_, events := fetchSpans(t, ts, st.ID)
	if len(stages) == 0 || len(stages) != len(events) {
		t.Fatalf("SSE replayed %d spans, trace endpoint has %d", len(stages), len(events))
	}
	// Record order starts with the job-level stages, in pipeline order.
	want := []string{string(obs.StageHTTP), string(obs.StageQueueWait)}
	for i, w := range want {
		if stages[i] != w {
			t.Fatalf("replayed span order %v, want prefix %v", stages, want)
		}
	}
}

// TestSpanSSEFollow: a client following a running job receives the
// execute/store-write spans live, as the run finishes — not only on replay.
func TestSpanSSEFollow(t *testing.T) {
	hook := newTestHook(true)
	_, ts := newTestService(t, Config{Run: hook.run, Backing: newMemBacking()})
	st, _ := postJob(t, ts, mcfCache)
	waitState(t, ts, st.ID, StateRunning)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	spans := make(chan string, 64)
	go func() {
		defer close(spans)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			var ev Event
			if json.Unmarshal([]byte(data), &ev) == nil && ev.Kind == KindSpan {
				spans <- string(ev.Span.Stage)
			}
		}
	}()

	// Drain what replay already delivered (job-level stages), then release
	// the blocked run: the engine-side spans must now arrive on the live
	// stream.
	hook.release("mcf")
	waitState(t, ts, st.ID, StateDone)

	got := map[string]bool{}
	for stage := range spans {
		got[stage] = true
	}
	for _, want := range []string{string(obs.StageExecute), string(obs.StageStoreWrite)} {
		if !got[want] {
			t.Errorf("follow stream never delivered a %q span (got %v)", want, got)
		}
	}
}

// sseSeqs reads an SSE body to its end and returns every event's Seq in
// arrival order plus the body's first line. each, when set, sees every Seq as
// it arrives.
func sseSeqs(t *testing.T, body io.Reader, each func(seq int)) (first string, seqs []int) {
	t.Helper()
	sc := bufio.NewScanner(body)
	for n := 0; sc.Scan(); n++ {
		if n == 0 {
			first = sc.Text()
		}
		id, ok := strings.CutPrefix(sc.Text(), "id: ")
		if !ok {
			continue
		}
		seq, err := strconv.Atoi(id)
		if err != nil {
			t.Errorf("bad SSE id line %q", sc.Text())
		}
		seqs = append(seqs, seq)
		if each != nil {
			each(seq)
		}
	}
	return first, seqs
}

// TestJobEventLogBounded: a job's event log — the one record of its spans,
// run events and states — keeps the newest maxJobEvents and says what it
// dropped, on every surface that reads it.
func TestJobEventLogBounded(t *testing.T) {
	// A job that logs 3x the cap while an SSE client follows it: the client,
	// paced to stay within the cap of the producer, sees every Seq exactly
	// once; afterwards the log holds exactly the cap, consecutive, terminal
	// event last, and both exports report the truncation.
	t.Run("overflow", func(t *testing.T) {
		const batch = 1024
		acks := make(chan struct{}, 3*maxJobEvents/batch) // one send per batch
		run := func(ctx context.Context, o crow.Options) (crow.Report, error) {
			snapshot := obs.From(ctx).OnSnapshot
			for i := 1; i <= 3*maxJobEvents; i++ {
				snapshot(obs.IntervalSnapshot{Cycle: int64(i)})
				if i%batch == 0 {
					select {
					case <-acks: // the follower has read this many events
					case <-ctx.Done():
						return crow.Report{}, ctx.Err()
					}
				}
			}
			return crow.Report{Mechanism: o.Mechanism, IPC: []float64{1}, MPKI: []float64{1}}, nil
		}
		s, ts := newTestService(t, Config{Run: run, TelemetryInterval: 1})
		st, _ := postJob(t, ts, mcfCache)

		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		first, followed := sseSeqs(t, resp.Body, func(seq int) {
			if (seq+1)%batch == 0 {
				acks <- struct{}{}
			}
		})
		if strings.HasPrefix(first, ":") {
			t.Errorf("a follower that kept up was told of a gap: %q", first)
		}
		for i, seq := range followed {
			if seq != i {
				t.Fatalf("follower's event %d has Seq %d: every Seq must arrive exactly once, in order", i, seq)
			}
		}

		evs, _, terminal := mustGetJob(t, s, st.ID).EventsSince(0)
		if !terminal || len(evs) != maxJobEvents {
			t.Fatalf("terminal=%v with %d events retained, want exactly %d", terminal, len(evs), maxJobEvents)
		}
		for i, e := range evs {
			if e.Seq != evs[0].Seq+i {
				t.Fatalf("retained event %d has Seq %d after %d: the log has a hole", i, e.Seq, evs[i-1].Seq)
			}
		}
		last := evs[len(evs)-1]
		if last.Kind != KindState || last.State != StateDone || last.Seq != len(followed)-1 {
			t.Errorf("last retained event = %+v, want the done state the follower saw last (Seq %d)", last, len(followed)-1)
		}

		resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc struct {
			OtherData   struct{ Recorded, Dropped int }
			TraceEvents []traceEvent
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		var slices int
		for _, e := range doc.TraceEvents {
			if e.Ph == "X" {
				slices++
			}
		}
		// queue-wait was logged before the flood, execute after it.
		if od := doc.OtherData; od.Dropped < 1 || slices < 1 || od.Recorded != od.Dropped+slices {
			t.Errorf("/trace: recorded %d, dropped %d, %d slices retained — must add up, with some of each", od.Recorded, od.Dropped, slices)
		}

		resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		first, replayed := sseSeqs(t, resp.Body, nil)
		if want := fmt.Sprintf(": %d earlier events dropped", evs[0].Seq); first != want {
			t.Errorf("truncated replay opens with %q, want %q", first, want)
		}
		if len(replayed) != maxJobEvents || replayed[0] != evs[0].Seq || replayed[len(replayed)-1] != last.Seq {
			t.Errorf("replay carries %d events, Seq %d..%d; the log holds %d, Seq %d..%d",
				len(replayed), replayed[0], replayed[len(replayed)-1], len(evs), evs[0].Seq, last.Seq)
		}
	})

	// The cap is chosen to cover the largest job the tree's own tests and
	// benchmark submit: the whole registry at QuickScale replays from Seq 0.
	t.Run("whole-registry", func(t *testing.T) {
		hook := newTestHook(false)
		_, ts := newTestService(t, Config{Run: hook.run, EngineWorkers: 4})
		st, _ := postJob(t, ts, `{"experiment": "all"}`)
		waitState(t, ts, st.ID, StateDone)
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		first, seqs := sseSeqs(t, resp.Body, nil)
		if strings.HasPrefix(first, ":") || seqs[0] != 0 {
			t.Fatalf("a QuickScale whole-registry job logged %d events and its replay opens %q at Seq %d: maxJobEvents (%d) no longer covers it",
				seqs[len(seqs)-1]+1, first, seqs[0], maxJobEvents)
		}
	})
}

// TestStructuredLogCorrelation: every slog line the service emits for one
// job carries the same trace_id, and a job slower than the SlowJob threshold
// gets a "slow job" warning pointing at its trace.
func TestStructuredLogCorrelation(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	lg, err := obs.NewLogger(&lockedWriter{w: &buf, mu: &mu}, "info", "text")
	if err != nil {
		t.Fatal(err)
	}
	hook := newTestHook(false)
	_, ts := newTestService(t, Config{Run: hook.run, Logger: lg, SlowJob: time.Nanosecond})
	st, _ := postJob(t, ts, mcfCache)
	waitState(t, ts, st.ID, StateDone)

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	var jobLines, slow int
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.Contains(line, "job="+st.ID) {
			continue
		}
		jobLines++
		if !strings.Contains(line, "trace_id="+st.TraceID) {
			t.Errorf("log line for job %s lost its trace ID: %s", st.ID, line)
		}
		if strings.Contains(line, "slow job") {
			slow++
		}
	}
	if jobLines < 3 { // admitted, started, done at minimum
		t.Errorf("only %d correlated log lines:\n%s", jobLines, out)
	}
	if slow != 1 {
		t.Errorf("%d slow-job warnings, want 1:\n%s", slow, out)
	}
}

// lockedWriter serializes writes from the service's goroutines and the
// test's reads.
type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
