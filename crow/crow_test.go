package crow

import (
	"math"
	"os"
	"reflect"
	"sync"
	"testing"

	"crowdram/internal/trace"
)

func fast(o Options) Options {
	o.MeasureInsts = 30_000
	o.WarmupInsts = 3_000
	return o
}

func TestRunDefaults(t *testing.T) {
	r, err := Run(fast(Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if r.Mechanism != Baseline {
		t.Errorf("default mechanism = %s, want baseline", r.Mechanism)
	}
	if len(r.IPC) != 1 || r.IPC[0] <= 0 {
		t.Errorf("IPC = %v", r.IPC)
	}
	if r.EnergyNJ.Total() <= 0 {
		t.Error("energy must be positive")
	}
	if r.ACTt != 0 || r.ACTc != 0 {
		t.Error("baseline must not use CROW commands")
	}
}

func TestRunCROWCache(t *testing.T) {
	r, err := Run(fast(Options{Mechanism: Cache, Workloads: []string{"soplex"}}))
	if err != nil {
		t.Fatal(err)
	}
	if r.ACTt == 0 || r.ACTc == 0 {
		t.Error("CROW-cache must issue ACT-t and ACT-c")
	}
	if r.CROWTableHitRate <= 0 || r.CROWTableHitRate > 1 {
		t.Errorf("hit rate = %f", r.CROWTableHitRate)
	}
	if math.Abs(r.ChipAreaOverhead-0.0048) > 0.001 {
		t.Errorf("CROW-8 chip overhead = %f, want ~0.0048", r.ChipAreaOverhead)
	}
	if math.Abs(r.CapacityOverhead-0.015625) > 1e-9 {
		t.Errorf("capacity overhead = %f, want 1.5625%%", r.CapacityOverhead)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Options{Workloads: []string{"not-an-app"}}); err == nil {
		t.Error("unknown workload must error")
	}
	if _, err := Run(Options{Workloads: []string{"mcf", "mcf", "mcf", "mcf", "mcf"}}); err == nil {
		t.Error("more than 4 workloads must error")
	}
	if _, err := Run(Options{DensityGbit: 12}); err == nil {
		t.Error("unsupported density must error")
	}
	if _, err := Run(Options{Mechanism: "bogus"}); err == nil {
		t.Error("unknown mechanism must error")
	}
}

func TestCompareSingleCore(t *testing.T) {
	c, err := Compare(fast(Options{Mechanism: Cache, Workloads: []string{"mcf"}}), Run)
	if err != nil {
		t.Fatal(err)
	}
	if c.Speedup < -0.01 {
		t.Errorf("CROW-cache speedup = %+.3f, must not slow mcf down", c.Speedup)
	}
	if c.EnergyRatio <= 0 || c.EnergyRatio > 1.2 {
		t.Errorf("energy ratio = %.3f out of range", c.EnergyRatio)
	}
}

// TestCompareFromZeroEnergy: runs whose measured interval issued no DRAM
// command consumed no DRAM energy. Two of them compare at ratio 1 (not 0/0),
// and a mechanism that spent energy against a baseline that spent none is an
// error, not +Inf.
func TestCompareFromZeroEnergy(t *testing.T) {
	o := Options{Mechanism: Cache, Workloads: []string{"mcf"}}
	idle := Report{IPC: []float64{1}}
	c, err := CompareFrom(o, []Report{idle, idle})
	if err != nil || c.EnergyRatio != 1 || c.Speedup != 0 {
		t.Errorf("two idle runs: ratio %v, speedup %v, err %v; want 1, 0, nil", c.EnergyRatio, c.Speedup, err)
	}
	busy := idle
	busy.Mechanism, busy.EnergyNJ.Background = Cache, 5
	if c, err := CompareFrom(o, []Report{idle, busy}); err == nil {
		t.Errorf("idle baseline against a spending mechanism: ratio %v, want an error", c.EnergyRatio)
	}
	if c, err := CompareFrom(o, []Report{busy, idle}); err != nil || c.EnergyRatio != 0 {
		t.Errorf("spending baseline against an idle mechanism: ratio %v, err %v; want 0, nil", c.EnergyRatio, err)
	}
}

// TestCompareRunsCanonicalBaseline: CompareRuns runs nothing, so its rule is
// checked on the options alone. Every comparison Validate admits asks only
// for runs Validate admits (a crow-hammer mitigation is not inherited by the
// baseline); the arms of one environment share one baseline; and an app has
// one alone run per environment wherever it sits in the mix.
func TestCompareRunsCanonicalBaseline(t *testing.T) {
	mix := []string{"gems", "libq", "mcf", "mcf"}
	for _, m := range Mechanisms() {
		for _, mit := range Mitigations() {
			o := Options{Mechanism: m, Mitigation: mit, Workloads: mix}
			if o.Validate() != nil {
				continue
			}
			for i, ro := range CompareRuns(o) {
				if err := ro.Validate(); err != nil {
					t.Errorf("%s/%s: run %d of the comparison: %v", m, mit, i, err)
				}
			}
		}
	}

	baseKeys := map[string]bool{}
	for _, n := range []int{1, 8, 256} {
		o := Options{Mechanism: Cache, CopyRows: n, DensityGbit: 64, Workloads: mix}
		baseKeys[CompareRuns(o)[0].Key()] = true
	}
	if len(baseKeys) != 1 {
		t.Errorf("CROW-1, CROW-8 and CROW-256 ask for %d baselines, want 1", len(baseKeys))
	}

	alone := map[string]map[string]bool{}
	for _, ro := range CompareRuns(Options{Mechanism: Cache, Workloads: mix})[2:] {
		app := ro.Workloads[0]
		if alone[app] == nil {
			alone[app] = map[string]bool{}
		}
		alone[app][ro.Key()] = true
	}
	if len(alone) != 3 {
		t.Errorf("alone runs cover %d apps, want 3 (gems, libq, mcf)", len(alone))
	}
	for app, keys := range alone {
		if len(keys) != 1 {
			t.Errorf("%s has %d distinct alone runs, want 1", app, len(keys))
		}
	}
}

func TestBaselineMechanisms(t *testing.T) {
	for _, m := range []Mechanism{TLDRAM, SALP, IdealCache, IdealNoRefresh} {
		r, err := Run(fast(Options{Mechanism: m, Workloads: []string{"soplex"}}))
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if r.IPC[0] <= 0 {
			t.Errorf("%s: IPC = %v", m, r.IPC)
		}
	}
}

// TestSALPOpenPageGeometry: SALP-256 reshapes the bank into 256 subarrays at
// the same capacity, turns MASA on and reports the paper's 28.9 % area.
func TestSALPOpenPageGeometry(t *testing.T) {
	cfg, _, err := build(Options{Mechanism: SALP, SALPSubarrays: 256, RowPolicy: "open"}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if g := cfg.Geo; g.RowsPerSubarray != 256 || g.SubarraysPerBank() != 256 || g.RowsPerBank != 64*1024 || !cfg.Ctrl.MASA {
		t.Errorf("SALP-256 geometry %+v (MASA %v), want 256 subarrays of 256 rows, 64 Ki rows a bank, MASA on",
			g, cfg.Ctrl.MASA)
	}
	r, err := Run(fast(Options{Mechanism: SALP, SALPSubarrays: 256, RowPolicy: "open", Workloads: []string{"soplex"}}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.ChipAreaOverhead-0.289) > 1e-9 {
		t.Errorf("SALP-256 area overhead = %f, want 0.289", r.ChipAreaOverhead)
	}
}

func TestWorkloadsList(t *testing.T) {
	names := Workloads()
	if len(names) < 25 {
		t.Errorf("workload suite has %d entries, want the full suite", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate workload %s", n)
		}
		seen[n] = true
	}
	for _, want := range []string{"mcf", "random", "streaming"} {
		if !seen[want] {
			t.Errorf("workload %s missing", want)
		}
	}
}

func TestOverheadsPaperValues(t *testing.T) {
	o := OverheadsFor(8)
	if math.Abs(o.CROWTableKB-11.264) > 0.01 {
		t.Errorf("CROW-table = %.3f KB, want 11.3", o.CROWTableKB)
	}
	if math.Abs(o.DecoderArea-9.6) > 1e-9 {
		t.Errorf("decoder area = %.2f µm², want 9.6", o.DecoderArea)
	}
	if math.Abs(o.ChipArea-0.0048) > 0.0002 {
		t.Errorf("chip area overhead = %.5f, want 0.0048", o.ChipArea)
	}
	if math.Abs(o.Capacity-0.015625) > 1e-12 {
		t.Errorf("capacity = %f", o.Capacity)
	}
	if math.Abs(o.MRAPowerFactor-1.058) > 1e-9 {
		t.Errorf("MRA power factor = %f", o.MRAPowerFactor)
	}
	if math.Abs(o.CROWTableAccessNs-0.14) > 0.02 {
		t.Errorf("table access = %.3f ns, want 0.14", o.CROWTableAccessNs)
	}
}

func TestWeakRowProbabilities(t *testing.T) {
	pRow, pAny := WeakRowProbabilities(4e-9, 8)
	if math.Abs(pRow-2.62e-4)/2.62e-4 > 0.01 {
		t.Errorf("pRow = %g, want ~2.62e-4", pRow)
	}
	if len(pAny) != 8 {
		t.Fatalf("want 8 probabilities")
	}
	// Section 4.2.1: >1 → 0.99, >8 → 3.3e-11.
	if pAny[0] < 0.95 {
		t.Errorf("P(any > 1) = %g, want ~0.99", pAny[0])
	}
	if pAny[7] > 1e-9 {
		t.Errorf("P(any > 8) = %g, want ~3.3e-11", pAny[7])
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	o := fast(Options{Mechanism: CacheRef, Workloads: []string{"milc"}, Seed: 5})
	a, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Run(o)
	if a.IPC[0] != b.IPC[0] || a.Hits != b.Hits {
		t.Error("runs with identical options must be identical")
	}
}

func TestTraceFileInput(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/t.trace"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	app, _ := trace.ByName("soplex")
	if err := trace.Write(f, app.Gen(3), 5000); err != nil {
		t.Fatal(err)
	}
	f.Close()
	r, err := Run(fast(Options{Mechanism: Cache, TraceFiles: []string{path}}))
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC[0] <= 0 {
		t.Error("trace-file run must produce IPC")
	}
	if _, err := Run(Options{TraceFiles: []string{dir + "/missing.trace"}}); err == nil {
		t.Error("missing trace file must error")
	}
	if _, err := Run(Options{TraceFiles: []string{path, path, path, path, path}}); err == nil {
		t.Error("more than 4 trace files must error")
	}
}

// TestConcurrentRunsDeterministic runs the same simulations sequentially and
// then concurrently (4 goroutines, the engine's minimum interesting worker
// count) and requires identical reports: simulations share nothing a result
// can depend on (the LLC line arrays and prefill images they do share are
// covered in construct_test.go), so scheduling must not leak into results.
// Run under -race in CI.
func TestConcurrentRunsDeterministic(t *testing.T) {
	opts := []Options{
		fast(Options{}),
		fast(Options{Mechanism: Cache, Workloads: []string{"soplex"}}),
		fast(Options{Mechanism: Ref, DensityGbit: 64, Workloads: []string{"lbm"}}),
		fast(Options{Mechanism: CacheRef, Workloads: []string{"mcf", "lbm"}}),
	}
	want := make([]Report, len(opts))
	for i, o := range opts {
		rep, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep
	}
	got := make([]Report, len(opts))
	errs := make([]error, len(opts))
	var wg sync.WaitGroup
	for i, o := range opts {
		wg.Add(1)
		go func(i int, o Options) {
			defer wg.Done()
			got[i], errs[i] = Run(o)
		}(i, o)
	}
	wg.Wait()
	for i := range opts {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("run %d: concurrent report differs from sequential", i)
		}
	}
}
