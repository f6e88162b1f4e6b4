package harness

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"time"

	"crowdram/crow"
	"crowdram/internal/exp"
)

// simSpec is one simulator workload: the command its users type and the
// same work expressed for the in-process traced run.
type simSpec struct {
	name string
	bin  string   // crowbench or crowsim
	args []string // without -seed

	// crowsim workloads: the mechanism run and whether -compare adds the
	// baseline and alone runs. repro leaves opts zero and uses scale.
	opts    crow.Options
	compare bool
	scale   exp.Scale
	exps    []string
}

func (e *Env) simSpec(name string, seed int64) (simSpec, error) {
	z := e.Sizes
	sim := func(mix []string, insts int64, mode string) simSpec {
		return simSpec{
			name: name, bin: "crowsim",
			args: []string{"-mech", "crow-cache+ref", "-workloads", strings.Join(mix, ","),
				"-density", "64", "-insts", strconv.FormatInt(insts, 10), mode, "-j", "1", "-json"},
			opts: crow.Options{
				Mechanism: crow.CacheRef, Workloads: mix, DensityGbit: 64,
				MeasureInsts: insts, Seed: seed, Verify: mode == "-verify",
			},
			compare: mode == "-compare",
		}
	}
	switch name {
	case Repro:
		return simSpec{
			name: name, bin: "crowbench",
			args: []string{"-exp", z.ReproExp, "-insts", strconv.FormatInt(z.ReproInsts, 10), "-mixes", "1",
				"-apps", z.ReproApps, "-j", strconv.Itoa(e.NProc), "-json"},
			scale: exp.Scale{Insts: z.ReproInsts, Warmup: z.ReproInsts / 10, MixesPerGroup: 1,
				Seed: seed, SingleApps: strings.Split(z.ReproApps, ",")},
			exps: strings.Split(z.ReproExp, ","),
		}, nil
	case MemBound:
		return sim(memMix, z.MemInsts, "-compare"), nil
	case CPUBound:
		return sim(cpuMix, z.CPUInsts, "-compare"), nil
	case Verified:
		return sim(memMix, z.MemInsts, "-verify"), nil
	}
	return simSpec{}, fmt.Errorf("crowperf: %q is not a simulator workload", name)
}

// runs lists the simulations one repetition of a crowsim workload executes.
func (s simSpec) runs() []crow.Options {
	if s.compare {
		return crow.CompareRuns(s.opts)
	}
	return []crow.Options{s.opts}
}

// plan lists the distinct simulations one repetition of repro executes: what
// the selected experiments ask for, coalesced by run key as the engine does.
func (s simSpec) plan() ([]crow.Options, error) {
	sel, err := exp.Select(s.exps)
	if err != nil {
		return nil, err
	}
	r := exp.NewRunner(s.scale)
	seen := map[string]bool{}
	var distinct []crow.Options
	for _, o := range exp.PlanAll(r, sel) {
		o.MeasureInsts, o.WarmupInsts = s.scale.Insts, s.scale.Warmup
		if key := r.KeyOf(o); !seen[key] {
			seen[key] = true
			distinct = append(distinct, o)
		}
	}
	return distinct, nil
}

// budget is the workload's constant numerator of sim_minst_per_s: cores ×
// (warm-up + measured instructions) summed over the simulations executed.
func budget(runs []crow.Options) (insts int64) {
	for _, o := range runs {
		cores := len(o.TraceFiles)
		if cores == 0 {
			cores = len(o.Workloads)
		}
		if cores == 0 {
			cores = 1
		}
		warm := o.WarmupInsts
		if warm == 0 {
			warm = o.MeasureInsts / 10
		}
		insts += int64(cores) * (warm + o.MeasureInsts)
	}
	return insts
}

// simulations returns what one repetition executes.
func (s simSpec) simulations() ([]crow.Options, error) {
	if s.bin == "crowsim" {
		return s.runs(), nil
	}
	return s.plan()
}

// untracedSim measures one simulator workload end to end: the command is
// run over and over until the time budget is spent, every output is checked,
// and the lower quartile of the wall times is reported (see calmWall).
func (e *Env) untracedSim(ctx context.Context, name string, seed int64, seconds float64) (Result, Info) {
	var info Info
	res := Result{}
	ms := newMetricSet(EndToEnd)
	finish := func() (Result, Info) { return seal(&res, &info, ms, true) }

	spec, err := e.simSpec(name, seed)
	if err != nil {
		info.fail("%v", err)
		return finish()
	}
	sims, err := spec.simulations()
	if err != nil {
		info.fail("plan: %v", err)
		return finish()
	}
	insts := budget(sims)
	info.size("simulations_per_rep", float64(len(sims)))
	info.size("instructions_per_rep", float64(insts))
	info.size("seed", float64(seed))

	// The host-speed reference (hostref.go) is sampled around every set-up
	// and every repetition, so it sees the host they see; repro's one
	// repetition has five samples on either side.
	host, err := e.newHostMeter(ctx)
	if err != nil {
		info.fail("%v", err)
		return finish()
	}
	setup, err := medianSetup(e.Sizes.SetupReps, func(bool) error { return e.setupSim(ctx, spec) }, func() { host.sample(ctx, 1) })
	if err != nil {
		info.fail("set-up: %v", err)
		return finish()
	}
	e.logf("%s: set-up %.3f s (median of %d)", name, setup, e.Sizes.SetupReps)

	args := append(append([]string(nil), spec.args...), "-seed", strconv.FormatInt(seed, 10))
	var walls, rss []float64
	start := time.Now()
	for {
		host.sample(ctx, 1)
		c, err := runChild(ctx, 170*time.Second, e.bin(spec.bin), args...)
		res.Attempted += len(sims)
		if err != nil {
			res.Failed += len(sims)
			info.fail("%v", err)
			break
		}
		walls = append(walls, c.Wall.Seconds())
		rss = append(rss, c.RSSMiB)
		e.logf("%s: repetition %d took %.3f s", name, len(walls), c.Wall.Seconds())
		digest, failures := e.checkSim(spec, seed, c.Stdout)
		info.Failures = append(info.Failures, failures...)
		if info.SimDigest != "" && digest != info.SimDigest {
			info.fail("%s: repetition %d printed a different result than the first (the simulator is meant to be deterministic)", name, len(walls))
		}
		info.SimDigest = digest
		if len(failures) > 0 {
			res.Failed += len(sims)
			break
		}
		if ctx.Err() != nil {
			break
		}
		// Another repetition if most of it fits the budget; and a third
		// in any case when repetitions are short, so that a slow host
		// still leaves the quartile something to reject.
		typical := median(walls)
		fits := time.Since(start).Seconds()+0.5*typical <= seconds
		if !fits && !(len(walls) < 3 && typical < seconds/2) {
			break
		}
	}
	info.samples("wall_s", len(walls))
	if len(walls) > 0 {
		host.sample(ctx, max(1, 10-len(host.samples)))
		speed, err := host.speed()
		if err != nil {
			info.fail("%v", err)
			return finish()
		}
		info.Host = speed
		setup, w := speed.scale(setup, calmWall(walls))
		ms.set("setup_s", setup)
		e.logf("%s: reference work %.1f ms over %d samples: the host is at %.3f of its nominal time", name, speed.RefMS, speed.Samples, speed.Slowdown)
		ms.set("wall_s", w)
		ms.set("sim_minst_per_s", float64(insts)/1e6/w)
		ms.set("peak_rss_mib", median(rss))
	}
	return finish()
}

// calmWall is the wall time a run reports from its repetitions: their lower
// quartile. The program is deterministic, so a repetition is slower than
// another only because the host was; on the shared reference host half of
// the scatter between repetitions is second-to-second (successive ones differ
// by 6 % at the median, 17 % at the ninth decile), and it only ever adds
// time. The lower quartile sits near the uncontended time without resting on
// one lucky repetition as the minimum does. With fewer than four repetitions
// it is the fastest one.
func calmWall(walls []float64) float64 {
	q1, _ := quartiles(walls)
	fastest := walls[0]
	for _, w := range walls {
		fastest = math.Min(fastest, w)
	}
	return math.Max(q1, fastest) // Python's method extrapolates below two values
}

// setupSim is what precedes the timed section of a simulator workload: link
// the binary and start it once.
func (e *Env) setupSim(ctx context.Context, spec simSpec) error {
	if err := e.Build(ctx, spec.bin); err != nil {
		return err
	}
	smoke := []string{"-list"}
	if spec.bin == "crowbench" {
		smoke = []string{"-exp", "table1"}
	}
	_, err := runChild(ctx, time.Minute, e.bin(spec.bin), smoke...)
	return err
}

// checkSim verifies one repetition's standard output and returns its digest.
func (e *Env) checkSim(spec simSpec, seed int64, stdout []byte) (digest string, failures []string) {
	digest = digestOf(stdout)
	failf := func(format string, args ...any) {
		failures = append(failures, spec.name+": "+fmt.Sprintf(format, args...))
	}
	dec := json.NewDecoder(bytes.NewReader(stdout))
	dec.DisallowUnknownFields()
	switch {
	case spec.bin == "crowbench":
		var tables []exp.Table
		if err := dec.Decode(&tables); err != nil {
			failf("output is not a JSON array of tables: %v", err)
			return
		}
		failures = append(failures, e.checkTables(spec, seed, tables)...)
	case spec.compare:
		var c crow.Comparison
		if err := dec.Decode(&c); err != nil {
			failf("output is not a JSON comparison: %v", err)
			return
		}
		if c.Base.Truncated || c.Mech.Truncated {
			failf("a report is Truncated (base %v, mechanism %v)", c.Base.Truncated, c.Mech.Truncated)
		}
		if len(c.Mech.IPC) != len(spec.opts.Workloads) {
			failf("mechanism report has %d cores, want %d", len(c.Mech.IPC), len(spec.opts.Workloads))
		}
	default:
		var r crow.Report
		if err := dec.Decode(&r); err != nil {
			failf("output is not a JSON report: %v", err)
			return
		}
		if r.Truncated {
			failf("the report is Truncated")
		}
		if r.Violations != 0 {
			failf("the oracle found %d violations: %v", r.Violations, r.ViolationCounts)
		}
	}
	return
}

// checkTables compares crowbench's tables with the committed goldens. At the
// goldens' own scale and seed every table must be byte-equal; at another seed
// only the analytic tables are (they take no seed), and a simulated table
// must still carry the golden's title.
func (e *Env) checkTables(spec simSpec, seed int64, tables []exp.Table) (failures []string) {
	sel, err := exp.Select(spec.exps)
	if err != nil {
		return []string{err.Error()}
	}
	if len(tables) != len(sel) {
		return []string{fmt.Sprintf("%s: %d tables for %d experiments", spec.name, len(tables), len(sel))}
	}
	atGolden := reflect.DeepEqual(spec.scale, exp.QuickScale())
	for i, ex := range sel {
		path := filepath.Join(e.Root, "internal", "exp", "testdata", "golden", ex.Name+".txt")
		want, err := os.ReadFile(path)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: no golden for %s: %v", spec.name, ex.Name, err))
			continue
		}
		got := tables[i].String()
		switch {
		case atGolden || ex.Kind == exp.Analytic:
			if got != string(want) {
				failures = append(failures, fmt.Sprintf("%s: table %s differs from %s", spec.name, ex.Name, path))
			}
		default:
			title, _, _ := strings.Cut(string(want), "\n")
			if !strings.HasPrefix(got, title+"\n") || len(tables[i].Rows) == 0 {
				failures = append(failures, fmt.Sprintf("%s: table %s has no rows or lost its title %q", spec.name, ex.Name, title))
			}
		}
	}
	return failures
}

// indentJSON encodes v exactly as crowsim and crowbench print -json.
func indentJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
