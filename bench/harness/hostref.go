package harness

import (
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// The host-speed reference.
//
// The reference host is a small VM on a shared machine, and its speed drifts
// with its neighbours' load: the same deterministic command takes 1.0 s in one
// minute and 1.4 s ten minutes later, CPU time rising with wall time and the
// steal counter explaining a twentieth of it. Nothing inside one run averages
// that away (windows of 10 s to 60 s, medians, quartiles and minima all leave
// ten consecutive runs 12 % apart at the median and over 30 % apart in a bad
// quarter of an hour), so a run measures the host beside the program: a fixed
// piece of work, frozen in the benchmark's own files (bench/hostref), is timed
// around every set-up and every repetition of the program (serve-open: around
// the set-ups and after each phase), and the run's wall_s and setup_s are
// divided by how much slower than nominal that work ran.
//
// The work has to slow down as the simulator does. An integer loop does not
// (it hardly slows at all: the contention is for memory, not for the CPU),
// and pointer chases over 2 and 32 MiB do not either (correlation with the
// simulator's wall time over 20 s windows 0.6 to 0.8, slopes of 4, 0.6 and
// 1.2, so dividing by them steadied nothing). The two kernels of
// bench/hostref do: a bank-queue scan shaped like the controller's
// scheduling loop (small structs behind pointers, data-dependent branches, a
// 2 MiB table) and a map-and-allocate churn that keeps the garbage collector
// as busy as constructing simulators does. Over 18 minutes of alternating
// one simulation with one sample, their summed time correlated 0.91 with the
// simulator's over 20 s windows, and dividing by it cut the spread between
// ten consecutive windows from 12 % (ninth decile 32 %) to 6 % (ninth decile
// 7 %). Ten runs of mem-bound in a bad quarter of an hour spread 25.6 % as the
// clock read them and 5.6 % scaled, and the median set-up time of ten runs,
// which moved by 26 % between two sets as the clock read it, moved by under
// 1 % scaled. In a steady hour the scaling adds a few points of its own noise
// instead (9 % to 10 %). The README has the tables.

// hostRefNominal is what one sample takes on the reference host at its
// calmest: a scaled time reads as the time on a host where it takes this.
const (
	hostRefNominalTicks = 200_000
	hostRefNominalOps   = 1_000_000
	hostRefNominal      = 200 * time.Millisecond
)

// hostMeter collects one run's reference samples.
type hostMeter struct {
	bin        string
	ticks, ops int
	nominal    time.Duration
	samples    []float64 // seconds
	err        error     // the first sample that failed
}

// newHostMeter links bench/hostref (once per process) and returns a meter
// that runs it. The reference work is a process of its own: every sample
// starts from a fresh heap, and the harness stays small, which matters
// because a child's ru_maxrss starts from its parent's resident set.
func (e *Env) newHostMeter(ctx context.Context) (*hostMeter, error) {
	e.hostRefOnce.Do(func() {
		ctx, cancel := context.WithTimeout(ctx, 5*time.Minute)
		defer cancel()
		cmd := exec.CommandContext(ctx, "go", "build", "-o", e.bin("hostref"), "./hostref")
		cmd.Dir = filepath.Join(e.Root, "bench")
		cmd.WaitDelay = 5 * time.Second
		if msg, err := cmd.CombinedOutput(); err != nil {
			e.hostRefErr = fmt.Errorf("go build ./hostref in bench: %w\n%s", err, msg)
		}
	})
	if e.hostRefErr != nil {
		return nil, e.hostRefErr
	}
	z := e.Sizes
	// A smaller kernel (the self-test's) has a proportionally smaller nominal.
	nominal := time.Duration(float64(hostRefNominal) * float64(z.HostRefOps) / hostRefNominalOps)
	return &hostMeter{bin: e.bin("hostref"), ticks: z.HostRefTicks, ops: z.HostRefOps, nominal: nominal}, nil
}

// sample times the reference work n times. The child times itself, so
// process start is not in the sample.
func (h *hostMeter) sample(ctx context.Context, n int) {
	for i := 0; i < n && h.err == nil; i++ {
		c, err := runChild(ctx, time.Minute, h.bin, strconv.Itoa(h.ticks), strconv.Itoa(h.ops))
		if err != nil {
			h.err = err
			return
		}
		fields := strings.Fields(string(c.Stdout))
		if len(fields) == 0 {
			h.err = fmt.Errorf("hostref printed nothing")
			return
		}
		us, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil || us <= 0 {
			h.err = fmt.Errorf("hostref printed %q, not a time in microseconds", c.Stdout)
			return
		}
		h.samples = append(h.samples, float64(us)/1e6)
	}
}

// HostSpeed is what a run learnt about the host it ran on, and the times it
// measured before scaling by it.
type HostSpeed struct {
	RefMS     float64 `json:"ref_ms"`      // lower quartile of the reference samples
	Samples   int     `json:"samples"`     // how many there were
	NominalMS float64 `json:"nominal_ms"`  // what a sample takes on the calm reference host
	Slowdown  float64 `json:"slowdown"`    // RefMS ÷ NominalMS: 1.2 is a host a fifth slower than that
	RawWallS  float64 `json:"raw_wall_s"`  // wall_s as the clock read it; wall_s = RawWallS ÷ Slowdown
	RawSetupS float64 `json:"raw_setup_s"` // likewise setup_s
}

// speed summarises the samples: the host's slowdown is their lower quartile
// over the nominal time (contention only adds time, to the reference work as
// to the program; see calmWall).
func (h *hostMeter) speed() (*HostSpeed, error) {
	if h.err != nil {
		return nil, fmt.Errorf("host-speed reference: %w", h.err)
	}
	if len(h.samples) == 0 {
		return nil, fmt.Errorf("host-speed reference: no samples")
	}
	ref := calmWall(h.samples)
	return &HostSpeed{
		RefMS: ref * 1000, Samples: len(h.samples), NominalMS: h.nominal.Seconds() * 1000,
		Slowdown: ref / h.nominal.Seconds(),
	}, nil
}

// scale records the run's two times as the clock read them and returns
// them divided by the host's slowdown.
func (hs *HostSpeed) scale(rawSetup, rawWall float64) (setup, wall float64) {
	hs.RawSetupS, hs.RawWallS = rawSetup, rawWall
	return rawSetup / hs.Slowdown, rawWall / hs.Slowdown
}
