package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Schema identifies the output file format; -compare refuses another.
const Schema = "crowperf/v1"

// Provenance says where and on what a set of runs was made.
type Provenance struct {
	GitSHA     string    `json:"git_sha"`
	GitDirty   bool      `json:"git_dirty"`
	GoVersion  string    `json:"go_version"`
	CPUModel   string    `json:"cpu_model"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Kernel     string    `json:"kernel"`
	LoadAvg1   float64   `json:"loadavg_1m"`
	Started    time.Time `json:"started"`
}

// RunRecord is one run of one workload inside an output file.
type RunRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Result   Result  `json:"result"`
	Info     Info    `json:"info"`
}

// File is what crowperf -out writes and -compare reads.
type File struct {
	Schema     string     `json:"schema"`
	Provenance Provenance `json:"provenance"`
	// Noisy marks a set started on a busy host (1-minute load average
	// above half the CPUs): its timings are recorded, not trusted.
	Noisy bool        `json:"noisy"`
	Runs  []RunRecord `json:"runs"`
}

// Provenance gathers the host and checkout facts. Outside a git work tree
// (the driver's checkout is not one) the SHA reads "unknown".
func (e *Env) Provenance() (Provenance, bool) {
	p := Provenance{
		GitSHA:     "unknown",
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		NProc:      e.NProc,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     "unknown",
		Started:    time.Now().UTC(),
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", append([]string{"-C", e.Root}, args...)...)
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	if sha, err := git("rev-parse", "HEAD"); err == nil && sha != "" {
		p.GitSHA = sha
		if st, err := git("status", "--porcelain"); err == nil {
			p.GitDirty = st != ""
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			p.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return p, p.LoadAvg1 > 0.5*float64(e.NProc)
}

// PrintRun writes one run's metrics by name with their units, the sample
// count beside every percentile, and whatever failed.
func PrintRun(w io.Writer, r RunRecord) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %.0f s) ==\n", r.Workload, mode, r.Seed, r.Seconds)
	names := make([]string, 0, len(r.Result.Metrics))
	for name := range r.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Result.Metrics[name]
		line := fmt.Sprintf("  %-34s %14.6g %s", name, v.Value, v.Unit)
		if n, ok := r.Info.Samples[name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, correct %v\n", r.Result.Attempted, r.Result.Failed, r.Result.Correct)
	if r.Info.SimDigest != "" {
		fmt.Fprintf(w, "  sim_digest %s\n", r.Info.SimDigest)
	}
	if h := r.Info.Host; h != nil {
		fmt.Fprintf(w, "  host: reference work took %.1f ms (n=%d), %.3f of the nominal %.0f ms; as the clock read them, wall_s %.6g s and setup_s %.6g s\n",
			h.RefMS, h.Samples, h.Slowdown, h.NominalMS, h.RawWallS, h.RawSetupS)
	}
	if n, ok := r.Info.Samples["self_share"]; ok {
		fmt.Fprintf(w, "  self_share over %d profile samples\n", n)
	}
	sizes := make([]string, 0, len(r.Info.Sizes))
	for k, v := range r.Info.Sizes {
		sizes = append(sizes, fmt.Sprintf("%s=%g", k, v))
	}
	sort.Strings(sizes)
	if len(sizes) > 0 {
		fmt.Fprintf(w, "  sizes: %s\n", strings.Join(sizes, " "))
	}
	for _, n := range r.Info.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, f := range r.Info.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	if r.Workload == Repro && r.Trace {
		fmt.Fprintln(w, "  note: exp.paper_gap_pp compares a QuickScale reproduction with the paper's reported numbers; the model is not validated against hardware")
	}
}

// ReadFile loads an output file and checks its schema.
func ReadFile(path string) (File, error) {
	var f File
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != Schema {
		return f, fmt.Errorf("%s: schema %q, this crowperf reads %q", path, f.Schema, Schema)
	}
	return f, nil
}

// WriteFile stores an output file.
func WriteFile(path string, f File) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Summarise prints, per workload, each end-to-end metric's median and
// quartiles over the untraced runs of a file.
func Summarise(w io.Writer, f File) {
	for _, wl := range Workloads {
		values, _ := untracedValues(f, wl.Name)
		if len(values) == 0 {
			continue
		}
		fmt.Fprintf(w, "== %s: untraced runs ==\n", wl.Name)
		for _, m := range EndToEnd {
			v := values[m.Name]
			q1, q3 := quartiles(v)
			fmt.Fprintf(w, "  %-18s median %12.6g %-8s quartiles %.6g .. %.6g  spread %.1f%%  (n=%d)\n",
				m.Name, median(v), m.Unit, q1, q3, 100*spread(v), len(v))
		}
	}
}

func untracedValues(f File, workload string) (values map[string][]float64, runs []RunRecord) {
	values = map[string][]float64{}
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		runs = append(runs, r)
		for _, m := range EndToEnd {
			if v, ok := r.Result.Metrics[m.Name]; ok {
				values[m.Name] = append(values[m.Name], v.Value)
			}
		}
	}
	if len(runs) == 0 {
		return nil, nil
	}
	return values, runs
}

// Verdicts of Compare.
const (
	Better     = "better"
	Same       = "same"
	Worse      = "worse"
	Unresolved = "unresolved"
)

// verdict judges B against A for one metric. worsening is how far B's
// median is on the wrong side of A's, as a share of A's. When the spread
// between A's own runs exceeds the bound the metric cannot be judged, unless
// every run of B reads better than every run of A.
func verdict(m Metric, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return Unresolved, 0
	}
	worsening := (mb - ma) / ma
	if m.Better == "higher" {
		worsening = -worsening
	}
	sp := spread(a)
	if sp > m.Bound {
		allBetter := len(a) > 0 && len(b) > 0
		for _, x := range b {
			for _, y := range a {
				if (m.Better == "lower" && x >= y) || (m.Better == "higher" && x <= y) {
					allBetter = false
				}
			}
		}
		if allBetter {
			return Better, worsening
		}
		return Unresolved, worsening
	}
	switch {
	case worsening > m.Bound:
		return Worse, worsening
	case worsening < 0 && -worsening > sp:
		return Better, worsening
	}
	return Same, worsening
}

// Compare prints, per workload, one row per end-to-end metric with both
// medians, the ratio with its base, the bound and a verdict, then whether
// the simulated results are identical. It returns the number of worse or
// unresolved rows and of digest mismatches or failed runs.
func Compare(w io.Writer, a, b File) (problems int) {
	if a.Noisy || b.Noisy {
		fmt.Fprintf(w, "note: noisy host at start (A %v, B %v): timings are recorded, not trusted\n", a.Noisy, b.Noisy)
	}
	for _, wl := range Workloads {
		va, ra := untracedValues(a, wl.Name)
		vb, rb := untracedValues(b, wl.Name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		fmt.Fprintf(w, "== %s (A: %d runs, B: %d runs) ==\n", wl.Name, len(ra), len(rb))
		fmt.Fprintf(w, "  %-18s %-8s %12s %12s  %-22s %7s  %s\n", "metric", "unit", "median A", "median B", "B/A (base A)", "bound", "verdict")
		for _, m := range EndToEnd {
			v, worsening := verdict(m, va[m.Name], vb[m.Name])
			ma, mb := median(va[m.Name]), median(vb[m.Name])
			moved := fmt.Sprintf("%.1f%% worse", 100*worsening)
			if worsening < 0 {
				moved = fmt.Sprintf("%.1f%% better", -100*worsening)
			}
			fmt.Fprintf(w, "  %-18s %-8s %12.6g %12.6g  %-22s %6.0f%%  %s (%s, A's spread %.1f%%)\n",
				m.Name, m.Unit, ma, mb, fmt.Sprintf("%.3f of %.6g", ratio(mb, ma), ma), 100*m.Bound, v,
				moved, 100*spread(va[m.Name]))
			if v == Worse || v == Unresolved {
				problems++
			}
		}
		failed := 0
		for _, r := range append(append([]RunRecord(nil), ra...), rb...) {
			failed += r.Result.Failed
			if !r.Result.Correct {
				failed++
			}
		}
		fmt.Fprintf(w, "  failed operations or checks, A and B together: %d\n", failed)
		if failed > 0 {
			problems++
		}
		problems += compareDigests(w, ra, rb)
	}
	problems += compareExact(w, a, b, Repro, "exp.paper_gap_pp")
	return problems
}

// compareDigests reports whether runs of the same seed printed the same
// simulated result on both sides.
func compareDigests(w io.Writer, ra, rb []RunRecord) (problems int) {
	bySeed := map[int64]string{}
	for _, r := range ra {
		if r.Info.SimDigest != "" {
			bySeed[r.Seed] = r.Info.SimDigest
		}
	}
	matched, differ := 0, 0
	for _, r := range rb {
		if d, ok := bySeed[r.Seed]; ok && r.Info.SimDigest != "" {
			if d == r.Info.SimDigest {
				matched++
			} else {
				differ++
			}
		}
	}
	if matched+differ > 0 {
		fmt.Fprintf(w, "  sim_digest: %d seeds identical, %d differ\n", matched, differ)
	}
	return differ
}

// compareExact reports a simulated (deterministic) per-layer metric that a
// speed-only change must leave identical.
func compareExact(w io.Writer, a, b File, workload, metric string) (problems int) {
	pick := func(f File) (map[int64]float64, bool) {
		out := map[int64]float64{}
		for _, r := range f.Runs {
			if r.Workload == workload && r.Trace {
				if v, ok := r.Result.Metrics[metric]; ok {
					out[r.Seed] = v.Value
				}
			}
		}
		return out, len(out) > 0
	}
	ma, oka := pick(a)
	mb, okb := pick(b)
	if !oka || !okb {
		return 0
	}
	for seed, va := range ma {
		if vb, ok := mb[seed]; ok {
			state := "identical"
			if va != vb {
				state = "DIFFERENT"
				problems++
			}
			fmt.Fprintf(w, "%s %s at seed %d: A %.6g, B %.6g: %s\n", workload, metric, seed, va, vb, state)
		}
	}
	return problems
}
