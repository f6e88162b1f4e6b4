package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"crowdram/crow"
	"crowdram/internal/exp"
	"crowdram/internal/store"
)

// storePhase runs one "process lifetime" against the shared store directory:
// a fresh service (fresh engine memo) backed by a fresh store handle, torn
// down with a full drain so the next phase models a clean restart.
func storePhase(t *testing.T, dir string, hook *testHook, f func(s *Service, ts *httptest.Server, st *store.Store[crow.Report])) {
	t.Helper()
	st, err := exp.OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Run: hook.run, Scale: exp.QuickScale(), Backing: st})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()
	f(s, ts, st)
}

// TestStoreRestartSurvival is the acceptance e2e for the persistent result
// tier: a job executed before a crowserve restart is served from disk after
// it — zero new executions, byte-identical result — and a corrupted store
// file is detected and silently re-executed rather than served.
func TestStoreRestartSurvival(t *testing.T) {
	dir := t.TempDir()

	// Phase 1: cold service executes the job and persists the result.
	var firstResult []byte
	hook1 := newTestHook(false)
	storePhase(t, dir, hook1, func(s *Service, ts *httptest.Server, st *store.Store[crow.Report]) {
		job, _ := postJob(t, ts, mcfCache)
		done := waitState(t, ts, job.ID, StateDone)
		firstResult, _ = json.Marshal(done.Result)
		if n := hook1.execs.Load(); n != 1 {
			t.Fatalf("cold run executions = %d, want 1", n)
		}
		if stats := st.Stats(); stats.Files != 1 || stats.Writes != 1 {
			t.Fatalf("store after cold run = %+v, want 1 file, 1 write", stats)
		}
	})

	// Phase 2: "restart" — new service, new engine memo, same directory.
	// The resubmission must come from the store, not from an execution.
	hook2 := newTestHook(false)
	storePhase(t, dir, hook2, func(s *Service, ts *httptest.Server, st *store.Store[crow.Report]) {
		job, _ := postJob(t, ts, mcfCache)
		done := waitState(t, ts, job.ID, StateDone)
		if n := hook2.execs.Load(); n != 0 {
			t.Errorf("warm-from-store run executions = %d, want 0", n)
		}
		snap := s.pool.Snapshot()
		if snap.Executions != 0 || snap.StoreHits != 1 {
			t.Errorf("engine after restart = %+v, want 0 executions, 1 store hit", snap)
		}
		got, _ := json.Marshal(done.Result)
		if !bytes.Equal(got, firstResult) {
			t.Errorf("result changed across restart:\n  before: %s\n  after:  %s", firstResult, got)
		}
		// The job's event log must attribute the result to the store.
		evs, _, _ := mustGetJob(t, s, job.ID).EventsSince(0)
		var sawStoreHit bool
		for _, e := range evs {
			if e.Kind == KindRun && e.Run.Type == "store-hit" {
				sawStoreHit = true
			}
		}
		if !sawStoreHit {
			t.Error("job event log has no store-hit run event")
		}
		// /metrics surfaces the persistent tier.
		var m Metrics
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if m.Engine.StoreHits != 1 || m.Store == nil || m.Store.Files != 1 || m.Store.Hits != 1 {
			t.Errorf("metrics store view = engine %+v, store %+v", m.Engine, m.Store)
		}
	})

	// Corrupt the stored result on disk.
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("store dir contents = %v (err %v), want exactly one result file", files, err)
	}
	if err := os.WriteFile(files[0], []byte(`{"version": 1, "value": "garbled`), 0o644); err != nil {
		t.Fatal(err)
	}

	// Phase 3: the corrupted file is a miss — deleted, re-executed, rewritten.
	hook3 := newTestHook(false)
	storePhase(t, dir, hook3, func(s *Service, ts *httptest.Server, st *store.Store[crow.Report]) {
		job, _ := postJob(t, ts, mcfCache)
		done := waitState(t, ts, job.ID, StateDone)
		if n := hook3.execs.Load(); n != 1 {
			t.Errorf("corrupted store entry must re-execute: executions = %d, want 1", n)
		}
		stats := st.Stats()
		if stats.Corrupt != 1 || stats.Hits != 0 || stats.Writes != 1 {
			t.Errorf("store after corruption recovery = %+v, want 1 corrupt, 0 hits, 1 write", stats)
		}
		got, _ := json.Marshal(done.Result)
		if !bytes.Equal(got, firstResult) {
			t.Errorf("re-executed result differs from the original:\n  %s\n  %s", firstResult, got)
		}
	})
}
