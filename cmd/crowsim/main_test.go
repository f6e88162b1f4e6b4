package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"crowdram/crow"
)

// TestTraceOutEndToEnd is the observability acceptance test: a verified
// CROW-cache run with -trace-out produces valid Chrome trace-event JSON
// containing CROW's new activate commands (ACT-c copies, ACT-t dual
// activations) on per-bank tracks — with the correctness oracle attached to
// the very same run, proving tracer and oracle coexist on the fan-out.
func TestTraceOutEndToEnd(t *testing.T) {
	out := filepath.Join(t.TempDir(), "run.json")
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-mech", "crow-cache", "-workloads", "mcf",
		"-insts", "20000", "-warmup", "2000",
		"-verify", "-trace-out", out,
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run failed: %v\nstderr: %s", err, stderr.String())
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("no trace written: %v", err)
	}
	var trace struct {
		OtherData struct {
			Recorded int64 `json:"recorded"`
			Dropped  int64 `json:"dropped"`
		} `json:"otherData"`
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if trace.OtherData.Recorded == 0 {
		t.Fatal("trace recorded no events")
	}

	// Index the per-bank track names and collect command-event names/tracks.
	threadName := map[[2]int]string{} // {pid,tid} -> name
	cmdTracks := map[string][][2]int{}
	for _, e := range trace.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "thread_name":
			threadName[[2]int{e.Pid, e.Tid}] = e.Args.Name
		case e.Ph == "X" && e.Cat == "cmd":
			cmdTracks[e.Name] = append(cmdTracks[e.Name], [2]int{e.Pid, e.Tid})
		}
	}
	for _, want := range []string{"ACT-c", "ACT-t"} {
		tracks, ok := cmdTracks[want]
		if !ok {
			t.Fatalf("no %s events in trace; commands seen: %v", want, keys(cmdTracks))
		}
		name := threadName[tracks[0]]
		if !strings.Contains(name, "bank") {
			t.Errorf("%s event on track %v named %q, want a per-bank track", want, tracks[0], name)
		}
	}
	banks := map[string]bool{}
	for _, name := range threadName {
		if strings.Contains(name, "bank") {
			banks[name] = true
		}
	}
	if len(banks) < 2 {
		t.Errorf("only %d bank tracks named, want several: %v", len(banks), banks)
	}

	// The verified run reported a clean oracle.
	if !strings.Contains(stdout.String(), "verification") {
		t.Errorf("report does not mention verification:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "events") {
		t.Errorf("stderr missing the trace summary line: %s", stderr.String())
	}
}

// TestTraceOutRejectsCompare: -trace-out traces a single run and must refuse
// -compare rather than silently attributing events to the wrong run.
func TestTraceOutRejectsCompare(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-compare", "-trace-out", filepath.Join(t.TempDir(), "x.json"),
	}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "-compare") {
		t.Fatalf("err = %v, want a -trace-out/-compare rejection", err)
	}
}

// TestTraceCapMustBePositive: a non-positive ring capacity is a usage error,
// not a panic deep in the tracer.
func TestTraceCapMustBePositive(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-trace-out", filepath.Join(t.TempDir(), "x.json"), "-trace-cap", "0",
	}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "trace-cap") {
		t.Fatalf("err = %v, want a -trace-cap validation error", err)
	}
}

// TestCompareOfIdleRuns: with -insts 1 no run issues a DRAM command in its
// measured interval, so both energies are 0. The comparison must still print
// (ratio 1, not NaN) and -json must still encode.
func TestCompareOfIdleRuns(t *testing.T) {
	args := []string{
		"-mech", "crow-cache+ref", "-workloads", "mcf,lbm,omnetpp,stream-copy",
		"-density", "64", "-insts", "1", "-compare",
	}
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("text mode: %v\nstderr: %s", err, stderr.String())
	}
	if out := stdout.String(); !strings.Contains(out, "DRAM energy ratio:  1.000 (+0.0%)") {
		t.Errorf("text mode does not report ratio 1:\n%s", out)
	}
	stdout.Reset()
	if err := run(context.Background(), append(args, "-json"), &stdout, &stderr); err != nil {
		t.Fatalf("-json: %v\nstderr: %s", err, stderr.String())
	}
	var cmp crow.Comparison
	if err := json.Unmarshal(stdout.Bytes(), &cmp); err != nil || cmp.EnergyRatio != 1 {
		t.Errorf("-json: EnergyRatio %v, decode error %v; want 1, nil\n%s", cmp.EnergyRatio, err, stdout.String())
	}
}

// TestCompareTraceFiles: with -traces the cores are the trace files (the
// Workloads default of one mcf core does not apply), so the comparison makes
// one alone run per file and weighs two IPCs against two.
func TestCompareTraceFiles(t *testing.T) {
	dir := t.TempDir()
	var files []string
	for i, stride := range []int{64, 4096} {
		var b strings.Builder
		for r := 0; r < 500; r++ {
			fmt.Fprintf(&b, "%d 0x%x\n", 10+i, r*stride)
		}
		path := filepath.Join(dir, fmt.Sprintf("t%d.txt", i))
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		files = append(files, path)
	}
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-mech", "crow-cache", "-traces", strings.Join(files, ","),
		"-insts", "4000", "-compare", "-json",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("%v\nstderr: %s", err, stderr.String())
	}
	var cmp crow.Comparison
	if err := json.Unmarshal(stdout.Bytes(), &cmp); err != nil {
		t.Fatal(err)
	}
	if len(cmp.Base.IPC) != 2 || len(cmp.Mech.IPC) != 2 {
		t.Errorf("IPCs: base %v, mechanism %v; want two each", cmp.Base.IPC, cmp.Mech.IPC)
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestRemovedShardsFlagIsUsageError: the -shards knob is gone (DESIGN.md §11),
// and a command line that still passes it fails instead of being ignored.
func TestRemovedShardsFlagIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-shards", "2"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -shards") {
		t.Fatalf("err = %v, want an undefined-flag error for -shards", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("a rejected command line ran a simulation:\n%s", stdout.String())
	}
}

// TestExplicitZeroIsUsageError: an unset flag is a zero field, which selects
// the default its help text quotes, so an explicit 0 on such a flag is refused
// with that default named — it used to run the default without a word
// (`-copyrows 0` printed the report of `-copyrows 8`). Leaving the flag out
// still runs the default, and the flags where 0 means something take it.
func TestExplicitZeroIsUsageError(t *testing.T) {
	base := []string{"-mech", "crow-cache", "-workloads", "mcf", "-insts", "3000"}
	out := func(args ...string) (string, error) {
		var stdout bytes.Buffer
		err := run(context.Background(), args, &stdout, io.Discard)
		return stdout.String(), err
	}
	for _, c := range []struct{ flag, def string }{
		{"-copyrows", "(8)"}, {"-insts", "(500000)"}, {"-seed", "(1)"}, {"-llc", "(8)"},
		{"-warmup", "(insts/10)"}, {"-density", "(8)"}, {"-flip-blast", "(25;"},
	} {
		got, err := out(append(slices.Clone(base), c.flag, "0")...)
		if err == nil || !strings.Contains(err.Error(), c.flag+" 0 would run the default "+c.def) {
			t.Errorf("%s 0: err = %v, want a usage error naming the default %s", c.flag, err, c.def)
		}
		if got != "" {
			t.Errorf("%s 0 ran a simulation:\n%s", c.flag, got)
		}
	}
	unset, err := out(base...)
	if err != nil {
		t.Fatal(err)
	}
	if set, err := out(append(slices.Clone(base), "-copyrows", "8", "-seed", "1", "-density", "8")...); err != nil || set != unset {
		t.Errorf("unset flags do not run the defaults (err %v):\n%s\nvs\n%s", err, unset, set)
	}
	if _, err := out(append(slices.Clone(base), "-flip-hcfirst", "0", "-llc-kib", "0", "-j", "0", "-timeout", "0", "-postpone", "0")...); err != nil {
		t.Errorf("a meaningful 0 was refused: %v", err)
	}
}

// TestLLCBytesFlagResolution pins the two-flag LLC sizing contract:
// -llc-kib, when positive, overrides the MiB-granular -llc (the RowHammer
// lab needs a 64 KiB cache no MiB value can express).
func TestLLCBytesFlagResolution(t *testing.T) {
	cases := []struct {
		mib, kib int
		want     int64
	}{
		{8, 0, 8 << 20},   // default: -llc alone
		{8, 64, 64 << 10}, // -llc-kib wins
		{1, 2048, 2 << 20},
		{3, -1, 3 << 20}, // non-positive KiB falls back to MiB
	}
	for _, c := range cases {
		if got := llcBytes(c.mib, c.kib); got != c.want {
			t.Errorf("llcBytes(%d, %d) = %d, want %d", c.mib, c.kib, got, c.want)
		}
	}
}

// TestFlagsBindToOptions pins the command line: flags write straight into
// crow.Options, so an empty command line is the zero Options (no default is
// typed into crowsim), a flag lands in its field, and -h lists exactly the
// names below — dropping or renaming one breaks bench/'s command lines, and
// should fail here rather than there.
func TestFlagsBindToOptions(t *testing.T) {
	c, err := parse(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.opts.Key() != (crow.Options{}).Key() {
		t.Errorf("empty command line is not the default run:\n  %s\n  %s", c.opts.Key(), crow.Options{}.Key())
	}
	c, err = parse(strings.Fields("-mech crow-cache+ref -workloads mcf,lbm -density 64 -insts 150000 -seed 3 -llc-kib 64 -refpb -compare -j 2 -json"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := crow.Options{Mechanism: crow.CacheRef, Workloads: []string{"mcf", "lbm"}, DensityGbit: 64,
		MeasureInsts: 150000, Seed: 3, LLCBytes: 64 << 10, PerBankRefresh: true}
	if c.opts.Key() != want.Key() || !c.compare || c.jobs != 2 || !c.asJSON {
		t.Errorf("parsed %+v (compare %v, j %d, json %v), want %+v", c.opts, c.compare, c.jobs, c.asJSON, want)
	}

	var usage bytes.Buffer
	if _, err := parse([]string{"-h"}, &usage); err == nil {
		t.Fatal("-h must stop the run")
	}
	var names []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllStringSubmatch(usage.String(), -1) {
		names = append(names, m[1])
	}
	const pinned = "compare copyrows cpuprofile density exectrace flip-blast flip-hcfirst flip-jitter " +
		"flip-pattern hammer-threshold insts j json list list-standards llc llc-kib mapping mech " +
		"memprofile mitigation para-permille postpone prefetch refpb refresh-scale rowpolicy salp " +
		"sched seed standard table-share timeout tl-near trace-cap trace-out traces " +
		"translation v verify warmup workloads"
	if got := strings.Join(names, " "); got != pinned {
		t.Errorf("crowsim -h lists\n  %s\nwant\n  %s", got, pinned)
	}
}
