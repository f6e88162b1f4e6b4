package exp

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"crowdram/crow"
	"crowdram/internal/dram"
	"crowdram/internal/engine"
)

func TestAnalyticTablesRender(t *testing.T) {
	tables := []Table{Table1(), Fig5(), Fig6(), Fig7(), WeakProb(), Overhead()}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Errorf("%s: empty table", tb.Title)
		}
		s := tb.String()
		if !strings.Contains(s, tb.Title) {
			t.Errorf("rendering must include the title")
		}
		for _, row := range tb.Rows {
			if len(row) > len(tb.Header) {
				t.Errorf("%s: row wider than header", tb.Title)
			}
		}
	}
}

func TestTable1Content(t *testing.T) {
	tb := Table1()
	s := tb.String()
	// The model's ACT-t fully-restored tRCD must round to the paper's -38%.
	if !strings.Contains(s, "-38.0%") {
		t.Errorf("Table 1 must show the -38%% tRCD reduction:\n%s", s)
	}
}

func TestFig5Shape(t *testing.T) {
	tb := Fig5()
	if len(tb.Rows) != 9 {
		t.Fatalf("Figure 5 sweeps 1..9 rows, got %d", len(tb.Rows))
	}
	if tb.Rows[0][1] != "+0.0%" {
		t.Errorf("row 1 must be baseline, got %s", tb.Rows[0][1])
	}
}

// tinyScale keeps the simulation experiments fast enough for unit tests.
func tinyScale() Scale {
	return Scale{Insts: 20_000, Warmup: 2_000, MixesPerGroup: 1, Seed: 1,
		SingleApps: []string{"mcf", "soplex"}}
}

func TestFig8SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	r := NewRunner(tinyScale())
	res, err := Fig8(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 2 {
		t.Fatalf("apps = %v", res.Apps)
	}
	for _, app := range res.Apps {
		for _, c := range res.Configs {
			if hr := res.HitRate[c][app]; hr < 0 || hr > 1 {
				t.Errorf("%s CROW-%d hit rate %f out of range", app, c, hr)
			}
		}
		if res.Ideal[app] < -0.05 {
			t.Errorf("%s: ideal CROW-cache should not slow down (%.3f)", app, res.Ideal[app])
		}
	}
	// More copy rows never hurt the average hit rate.
	if res.AvgHitRate[8] < res.AvgHitRate[1]-0.01 {
		t.Errorf("hit rate must not degrade with more copy rows: %f vs %f",
			res.AvgHitRate[8], res.AvgHitRate[1])
	}
	if res.Table().Rows == nil {
		t.Error("table must render")
	}
}

func TestRunnerMemoizes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	var runs atomic.Int64
	r := NewRunner(tinyScale(), Observe(func(e engine.Event) {
		if e.Type == engine.EventFinished {
			runs.Add(1)
		}
	}))
	if _, err := Fig8(r); err != nil {
		t.Fatal(err)
	}
	first := runs.Load()
	if _, err := Fig8(r); err != nil { // fully cached
		t.Fatal(err)
	}
	if got := runs.Load(); got != first {
		t.Errorf("second Fig8 must hit the cache entirely (%d -> %d runs)", first, got)
	}
	if first == 0 {
		t.Error("observer must see fresh runs finish")
	}
}

// TestPlanCoversReduce asserts that after Execute(PlanAll), the reduce phase
// performs zero fresh simulations. The plan is recorded from the reduce code
// itself, so it cannot omit a request that depends only on the scale; what a
// recording cannot see is a request that depends on an earlier report's
// contents (the placeholder reports are all zeros), and this test is the
// guard that fails if one is ever written.
func TestPlanCoversReduce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	for _, e := range Experiments() {
		if e.Kind == Analytic {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			var fresh atomic.Int64
			executed := make(chan struct{})
			r := NewRunner(tinyScale(), Workers(4), Observe(func(ev engine.Event) {
				if ev.Type == engine.EventFinished {
					select {
					case <-executed:
						fresh.Add(1)
					default:
					}
				}
			}))
			if err := r.Execute(PlanAll(r, []Experiment{e})); err != nil {
				t.Fatal(err)
			}
			close(executed)
			if _, err := e.Table(r); err != nil {
				t.Fatal(err)
			}
			if n := fresh.Load(); n != 0 {
				t.Errorf("reduce phase ran %d simulations the recorded plan lacks", n)
			}
		})
	}
}

// TestPlanAllRecords derives every plan at QuickScale without simulating:
// no reduce function may panic on the placeholder report, every simulation
// experiment must request something, the distinct-run count is the one the
// goldens and the benchmark's repro workload were measured with, and the
// Runner handed to PlanAll executes nothing.
func TestPlanAllRecords(t *testing.T) {
	r := NewRunner(QuickScale())
	distinct := map[string]bool{}
	for _, o := range PlanAll(r, Experiments()) {
		distinct[r.KeyOf(o)] = true
	}
	if len(distinct) != 419 {
		t.Errorf("QuickScale plans hold %d distinct runs, want 419", len(distinct))
	}
	for _, e := range Experiments() {
		if n := len(PlanAll(r, []Experiment{e})); (n == 0) != (e.Kind == Analytic) {
			t.Errorf("%s (%s): %d planned runs", e.Name, e.Kind, n)
		}
	}
	if n := r.Pool().Snapshot().Executions; n != 0 {
		t.Errorf("deriving plans executed %d simulations", n)
	}
}

// TestRegistryHygiene: names are unique, goldens and registry rows pair up
// one to one (an orphaned golden would otherwise pass silently), and the
// cross-standard rows track the standards registry.
func TestRegistryHygiene(t *testing.T) {
	names := map[string]bool{}
	var stdRows []string
	for _, e := range Experiments() {
		if names[e.Name] {
			t.Errorf("experiment %q registered twice", e.Name)
		}
		names[e.Name] = true
		if _, err := os.Stat(filepath.Join("testdata", "golden", e.Name+".txt")); err != nil {
			t.Errorf("experiment %q has no golden: %v", e.Name, err)
		}
		if _, err := dram.StandardByName(e.Name); err == nil {
			stdRows = append(stdRows, e.Name)
		}
	}
	goldens, err := filepath.Glob(filepath.Join("testdata", "golden", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldens {
		if name := strings.TrimSuffix(filepath.Base(g), ".txt"); !names[name] {
			t.Errorf("golden %s has no registry row", g)
		}
	}
	var want []string
	for _, std := range dram.StandardNames() {
		if std != "lpddr4" {
			want = append(want, std)
		}
	}
	if !reflect.DeepEqual(stdRows, want) {
		t.Errorf("standards rows = %v, want %v (dram.StandardNames() minus lpddr4)", stdRows, want)
	}
}

// TestParallelMatchesSequential is the determinism guard: rendered output
// must be byte-identical whether runs execute on one worker or four, in
// whatever order the scheduler picks.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment (QuickScale)")
	}
	render := func(workers int) string {
		r := NewRunner(QuickScale(), Workers(workers))
		sel := []Experiment{}
		for _, e := range Experiments() {
			if e.Name == "fig8" || e.Name == "fig9" {
				sel = append(sel, e)
			}
		}
		if err := r.Execute(PlanAll(r, sel)); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, e := range sel {
			tb, err := e.Table(r)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(tb.String())
		}
		return b.String()
	}
	seq := render(1)
	par := render(4)
	if seq != par {
		t.Errorf("-j 4 output differs from -j 1 output:\n--- j1 ---\n%s\n--- j4 ---\n%s", seq, par)
	}
}

func TestFig13Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	s := tinyScale()
	s.SingleApps = []string{"mcf"}
	// Refresh fires every ~31k CPU cycles; the run must span many
	// refresh intervals for CROW-ref to show.
	s.Insts = 120_000
	s.Warmup = 12_000
	r := NewRunner(s)
	res, err := Fig13(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("Figure 13 sweeps 4 densities")
	}
	// Refresh savings must grow with density.
	lo, hi := res.Point(8), res.Point(64)
	if hi.SingleSpeedup <= lo.SingleSpeedup {
		t.Errorf("CROW-ref speedup must grow with density: %f vs %f",
			hi.SingleSpeedup, lo.SingleSpeedup)
	}
	if hi.SingleEnergy >= lo.SingleEnergy {
		t.Errorf("CROW-ref energy savings must grow with density")
	}
}

// TestRunLabel pins the progress label of a run: an LLC below 1 MiB prints in
// KiB, and a mitigation prints with its parameter, so the arms of hammerlab
// and tenant, which differ only there, carry distinct labels.
func TestRunLabel(t *testing.T) {
	for _, c := range []struct {
		o    crow.Options
		want string
	}{
		{crow.Options{Mechanism: crow.Cache, Workloads: []string{"mcf"}}, "crow-cache on mcf"},
		{crow.Options{Mechanism: crow.Cache, Workloads: []string{"mcf", "lbm"}, CopyRows: 8, DensityGbit: 64, LLCBytes: 8 << 20},
			"crow-cache on mcf+lbm n=8 64Gb llc=8MiB"},
		{crow.Options{Mechanism: crow.Baseline, Workloads: []string{"hammer-double"}, LLCBytes: 64 << 10},
			"baseline on hammer-double llc=64KiB"},
		{crow.Options{Mechanism: crow.Baseline, Workloads: []string{"gcc"}, LLCBytes: 1536 << 10}, "baseline on gcc llc=1536KiB"},
		{crow.Options{Mechanism: crow.Baseline, Workloads: []string{"gcc"}, Mitigation: "none"}, "baseline on gcc"},
		{crow.Options{Mechanism: crow.Baseline, Workloads: []string{"gcc"}, Mitigation: "para", ParaPerMille: 100}, "baseline on gcc para=100‰"},
		{crow.Options{Mechanism: crow.Baseline, Workloads: []string{"gcc"}, Mitigation: "refresh-scale", RefreshScale: 32}, "baseline on gcc refx32"},
		{crow.Options{Mechanism: crow.Hammer, Workloads: []string{"gcc"}, Mitigation: "crow-hammer", HammerThreshold: 128},
			"crow-hammer on gcc crow-hammer=128"},
	} {
		if got := runLabel(c.o); got != c.want {
			t.Errorf("runLabel = %q, want %q", got, c.want)
		}
	}
	sel, err := Select([]string{"hammerlab", "tenant"})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(QuickScale())
	keys := map[string]string{}
	for _, o := range PlanAll(r, sel) {
		label := runLabel(o)
		if k, seen := keys[label]; seen && k != o.Key() {
			t.Errorf("two runs share the label %q", label)
		}
		keys[label] = o.Key()
	}
}
