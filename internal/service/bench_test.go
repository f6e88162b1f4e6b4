package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"crowdram/crow"
	"crowdram/internal/exp"
)

// benchSubmitWait drives one submit→poll-to-done round trip over HTTP.
func benchSubmitWait(b *testing.B, ts *httptest.Server, body string) {
	b.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	var st Status
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b.Fatalf("submit = %d", resp.StatusCode)
	}
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			b.Fatal(err)
		}
		json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if st.State.Terminal() {
			if st.State != StateDone {
				b.Fatalf("job ended %q: %s", st.State, st.Error)
			}
			return
		}
	}
}

// BenchmarkWarmCacheSubmissions measures the serving layer alone:
// sustained submit→done round trips per second when every job is a warm
// engine-cache hit (the simulation itself executed once, before the timer).
// It measures the serving overhead — queue, worker handoff, HTTP, JSON —
// not simulation time.
func BenchmarkWarmCacheSubmissions(b *testing.B) {
	s := New(Config{Scale: exp.QuickScale(), Workers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()
	const body = `{"options": {"Mechanism": "crow-cache", "Workloads": ["gcc"]}}`
	benchSubmitWait(b, ts, body) // execute the one real simulation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSubmitWait(b, ts, body)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/sec")
	if snap := s.pool.Snapshot(); snap.Executions != 1 {
		b.Fatalf("warm-cache bench executed %d simulations, want 1", snap.Executions)
	}
}

// BenchmarkWarmFromStoreSubmissions measures submit→done round trips per
// second when every job is a persistent-store hit: each iteration uses a
// distinct key (varied seed) preloaded on disk before the timer, so the
// engine memo never helps and every job pays one store read + envelope
// verification. The delta against BenchmarkWarmCacheSubmissions is the cost
// of the disk tier.
func BenchmarkWarmFromStoreSubmissions(b *testing.B) {
	st, err := exp.OpenStore(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	var execs int64
	s := New(Config{
		Scale:   exp.QuickScale(),
		Workers: 4,
		Backing: st,
		Run: func(_ context.Context, o crow.Options) (crow.Report, error) {
			execs++
			return crow.Report{IPC: make([]float64, len(o.Workloads))}, nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()
	keyer := exp.NewRunner(exp.QuickScale())
	rep := crow.Report{Mechanism: crow.Cache, IPC: []float64{1}, MPKI: []float64{10}}
	for i := 0; i < b.N; i++ {
		st.Put(keyer.KeyOf(crow.Options{
			Mechanism: crow.Cache, Workloads: []string{"gcc"}, Seed: int64(i + 2),
		}), rep)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"options": {"Mechanism": "crow-cache", "Workloads": ["gcc"], "Seed": %d}}`, i+2)
		benchSubmitWait(b, ts, body)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/sec")
	snap := s.pool.Snapshot()
	if execs != 0 || snap.Executions != 0 || snap.StoreHits != int64(b.N) {
		b.Fatalf("store-warm bench: %d hook execs, engine %+v, want 0 executions and %d store hits",
			execs, snap, b.N)
	}
}

// BenchmarkSubmitQueuePop isolates the job-subsystem overhead without HTTP:
// submit, worker pickup, instant hook run, completion wait — span and event
// logging included. It is the numerator of CI's serving-overhead gate.
func BenchmarkSubmitQueuePop(b *testing.B) {
	s := New(Config{
		Scale:   exp.QuickScale(),
		Workers: 4,
		Run: func(_ context.Context, o crow.Options) (crow.Report, error) {
			return crow.Report{IPC: make([]float64, len(o.Workloads))}, nil
		},
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()
	spec := Spec{Options: json.RawMessage(`{"Mechanism": "crow-cache", "Workloads": ["gcc"]}`)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := s.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		waitTerminal(j)
	}
}

// BenchmarkColdJob is the denominator of CI's serving-overhead gate: each
// iteration submits a fresh-seeded job whose real QuickScale simulation
// executes (never a cache or store hit), so it prices what a production job
// pays, and BenchmarkSubmitQueuePop's fixed per-job cost is weighed against it.
func BenchmarkColdJob(b *testing.B) {
	s := New(Config{Scale: exp.QuickScale(), Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := Spec{Options: json.RawMessage(fmt.Sprintf(
			`{"Mechanism": "crow-cache", "Workloads": ["gcc"], "Seed": %d}`, i+2))}
		j, err := s.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		waitTerminal(j)
	}
	b.StopTimer()
	if snap := s.pool.Snapshot(); snap.Executions != int64(b.N) {
		b.Fatalf("cold-job bench executed %d simulations, want %d (every job must run cold)", snap.Executions, b.N)
	}
}

// waitTerminal blocks on the job's event log until a terminal state lands.
func waitTerminal(j *Job) {
	next := 0
	for {
		evs, changed, terminal := j.EventsSince(next)
		if terminal {
			return
		}
		if len(evs) > 0 {
			next = evs[len(evs)-1].Seq + 1
		}
		<-changed
	}
}

// BenchmarkEventStreamReplay measures draining a finished job's SSE log.
func BenchmarkEventStreamReplay(b *testing.B) {
	s := New(Config{
		Scale:   exp.QuickScale(),
		Workers: 1,
		Run: func(_ context.Context, o crow.Options) (crow.Report, error) {
			return crow.Report{IPC: make([]float64, len(o.Workloads))}, nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()
	j, err := s.Submit(Spec{Options: json.RawMessage(`{"Workloads": ["gcc"]}`)})
	if err != nil {
		b.Fatal(err)
	}
	waitTerminal(j)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events")
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}
