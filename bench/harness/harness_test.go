package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is BENCHMARK.json as the driver's contract shapes it.
type benchmarkJSON struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []Workload `json:"workloads"`
	EndToEnd   []Metric   `json:"end_to_end"`
	PerLayer   []Metric   `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return doc
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The catalog in the binary and the lists in BENCHMARK.json must be the same
// lists, and both inside the driver's limits.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if len(doc.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the binary %d", len(doc.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if doc.Workloads[i] != w {
			t.Errorf("workload %d: BENCHMARK.json %+v, binary %+v", i, doc.Workloads[i], w)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: name or why outside the limits (why is %d characters)", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	check := func(kind string, got, want []Metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the binary %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if !bounded {
				m.Bound = 0
			}
			if got[i] != m {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, binary %+v", kind, i, got[i], m)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s metric %q (unit %q) is outside the naming limits", kind, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %q: better = %q", kind, m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s metric %q: bound %v outside (0, 0.25]", kind, m.Name, m.Bound)
			}
			if seen[m.Name] {
				t.Errorf("metric name %q is used twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	check("end_to_end", doc.EndToEnd, EndToEnd, true)
	check("per_layer", doc.PerLayer, PerLayer, false)
	if len(PerLayer) > 128 || len(EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the driver's 16 and 128", len(EndToEnd), len(PerLayer))
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not an end-to-end metric")
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
}

// Every workload, untraced and traced, at smoke scale: each catalog name is
// emitted exactly once with its unit and a finite value, every check passes,
// and nothing is left behind.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the three binaries and runs the five workloads at smoke scale")
	}
	work := t.TempDir()
	env, err := NewEnv(".", work, nil)
	if err != nil {
		t.Fatal(err)
	}
	env.Sizes = SmokeSizes()
	env.reuseBuilds = true
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	for _, w := range Workloads {
		for _, traced := range []bool{false, true} {
			began := time.Now()
			res, info := env.Run(ctx, w.Name, 1, 0.6, traced)
			t.Logf("%s traced=%v took %v", w.Name, traced, time.Since(began).Round(time.Millisecond))
			mode, defs := "untraced", EndToEnd
			if traced {
				mode, defs = "traced", PerLayer
			}
			if !res.Correct || len(info.Failures) > 0 {
				t.Errorf("%s %s: not correct: %v", w.Name, mode, info.Failures)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s %s: attempted %d, failed %d", w.Name, mode, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s %s: %d metrics, want %d", w.Name, mode, len(res.Metrics), len(defs))
			}
			for _, m := range defs {
				v, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s %s: %s missing", w.Name, mode, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s %s: %s has unit %q, want %q", w.Name, mode, m.Name, v.Unit, m.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s %s: %s = %v", w.Name, mode, m.Name, v.Value)
				case !traced && v.Value <= 0:
					t.Errorf("%s %s: end-to-end %s = %v, must never be 0", w.Name, mode, m.Name, v.Value)
				}
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Errorf("%s %s: result does not encode: %v", w.Name, mode, err)
			}
			var back map[string]json.RawMessage
			if err := json.Unmarshal(line, &back); err != nil || len(back) != 4 {
				t.Errorf("%s %s: result line has %d keys, want correct, attempted, failed, metrics", w.Name, mode, len(back))
			}
			if traced && w.Name != ServeOpen {
				var sum float64
				for name, v := range res.Metrics {
					if strings.HasSuffix(name, "_share") && name != "service.over_limit_share" {
						sum += v.Value
					}
				}
				if sum < 0.95 || sum > 1.0001 {
					t.Errorf("%s traced: shares sum to %.3f, want 0.95..1", w.Name, sum)
				}
			}
		}
	}
	if left, _ := os.ReadDir(env.tmpDir()); len(left) != 0 {
		t.Errorf("%d temporary directories left behind in %s", len(left), env.tmpDir())
	}
}

// A directory that holds the benchmark but no program must be refused.
func TestNewEnvRefusesBareDirectory(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "bench"), 0o755); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), []byte("{}"), 0o644)
	if _, err := NewEnv(dir, "", nil); err == nil {
		t.Error("NewEnv accepted a directory without the program")
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which the
// acceptance rule is written against.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 2.9, 3.0, 3.4, 2.8}, 2.85, 3.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 20, 30}, 10, 30},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	if got := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90); got != 9 {
		t.Errorf("p90 = %v", got)
	}
}

// calmWall is the lower quartile, and never below the fastest repetition
// (Python's method extrapolates on two values); scale divides by how much
// slower than nominal the reference work ran.
func TestCalmWallAndHostScale(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{14.2}, 14.2},
		{[]float64{2, 1}, 1},
		{[]float64{3, 1, 2}, 1},
		{[]float64{1.3, 1.0, 1.2, 1.1}, 1.025},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75},
	} {
		if got := calmWall(c.v); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("calmWall(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	h := &hostMeter{nominal: 200 * time.Millisecond, samples: []float64{0.30, 0.26, 0.25, 0.24, 0.25, 0.40, 0.25}}
	speed, err := h.speed()
	if err != nil {
		t.Fatal(err)
	}
	setup, wall := speed.scale(0.5, 2.5)
	if math.Abs(speed.Slowdown-1.25) > 1e-9 || math.Abs(wall-2.0) > 1e-9 || math.Abs(setup-0.4) > 1e-9 ||
		speed.RawWallS != 2.5 || speed.RawSetupS != 0.5 || speed.Samples != 7 {
		t.Errorf("scale(0.5, 2.5) = %v, %v, %+v; want 0.4 and 2.0 at a slowdown of 1.25", setup, wall, *speed)
	}
	h.err = errors.New("no such file")
	if _, err := h.speed(); err == nil {
		t.Error("speed ignored a failed sample")
	}
	if _, err := (&hostMeter{nominal: time.Second}).speed(); err == nil {
		t.Error("speed without samples")
	}
}

func TestVerdict(t *testing.T) {
	lower := Metric{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := Metric{Name: "rate", Better: "higher", Bound: 0.10}
	steady := []float64{10, 10.1, 9.9, 10.05, 9.95}
	noisy := []float64{8, 12, 10, 13, 7}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		m    Metric
		a, b []float64
		want string
	}{
		{"unchanged", lower, steady, steady, Same},
		{"5% slower is inside the bound", lower, steady, scale(steady, 1.05), Same},
		{"20% slower", lower, steady, scale(steady, 1.2), Worse},
		{"20% faster", lower, steady, scale(steady, 0.8), Better},
		{"rate down 20%", higher, steady, scale(steady, 0.8), Worse},
		{"rate up 20%", higher, steady, scale(steady, 1.2), Better},
		{"A too noisy to judge", lower, noisy, scale(noisy, 1.02), Unresolved},
		{"A noisy but every B run beats every A run", lower, noisy, scale(steady, 0.5), Better},
	} {
		if got, _ := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareReportsEveryRow(t *testing.T) {
	mk := func(wall float64, digest string) File {
		f := File{Schema: Schema}
		for seed := int64(1); seed <= 3; seed++ {
			f.Runs = append(f.Runs, RunRecord{
				Workload: MemBound, Seed: seed,
				Result: Result{Correct: true, Attempted: 6, Metrics: map[string]Value{
					"setup_s":         {1 + 0.01*float64(seed), "s"},
					"wall_s":          {wall + 0.01*float64(seed), "s"},
					"sim_minst_per_s": {3.3 / (wall + 0.01*float64(seed)), "Minst/s"},
					"peak_rss_mib":    {13, "MiB"},
				}},
				Info: Info{SimDigest: digest},
			})
		}
		return f
	}
	var out bytes.Buffer
	if problems := Compare(&out, mk(3, "aa"), mk(3.02, "aa")); problems != 0 {
		t.Errorf("two sets of the same code: %d problems\n%s", problems, out.String())
	}
	for _, m := range EndToEnd {
		if !strings.Contains(out.String(), m.Name) {
			t.Errorf("compare output has no row for %s", m.Name)
		}
	}
	out.Reset()
	if problems := Compare(&out, mk(3, "aa"), mk(4.5, "bb")); problems < 3 {
		t.Errorf("50%% slower with another digest: %d problems, want wall_s, sim_minst_per_s and the digest\n%s", problems, out.String())
	}
}

func TestMetricSetEnforcesCatalog(t *testing.T) {
	ms := newMetricSet(EndToEnd)
	ms.set("wall_s", 1)
	ms.set("wall_s", 2)
	ms.set("nonsense", 1)
	ms.set("setup_s", math.NaN())
	_, errs := ms.values(true)
	joined := strings.Join(errs, "\n")
	for _, want := range []string{"wall_s set twice", "nonsense is not in the catalog", "setup_s is not finite", "peak_rss_mib was not measured"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing complaint %q in:\n%s", want, joined)
		}
	}
}
