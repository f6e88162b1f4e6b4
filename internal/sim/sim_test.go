package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"crowdram/internal/core"
	"crowdram/internal/cpu"
	"crowdram/internal/ctrl"
	"crowdram/internal/dram"
	"crowdram/internal/hammer"
	"crowdram/internal/metrics"
	"crowdram/internal/retention"
	"crowdram/internal/trace"
)

// lpddr4 is the paper's Table 2 standard, the one most tests build on.
var lpddr4, _ = dram.StandardByName("lpddr4")

func smallCfg(copyRows int) Config {
	cfg := DefaultFor(lpddr4, copyRows, dram.Density8Gb, 64)
	cfg.WarmupInsts = 5_000
	cfg.MeasureInsts = 40_000
	return cfg
}

func gen(name string, seed int64, t *testing.T) trace.Generator {
	t.Helper()
	app, err := trace.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return app.Gen(seed)
}

func TestBaselineSingleCoreCompletes(t *testing.T) {
	cfg := smallCfg(0)
	s := New(cfg, &core.Baseline{T: cfg.T}, []trace.Generator{gen("mcf", 1, t)})
	res := s.Run()
	if len(res.IPC) != 1 || res.IPC[0] <= 0 || res.IPC[0] > 4 {
		t.Fatalf("IPC = %v, want (0,4]", res.IPC)
	}
	if res.DRAM.Activations() == 0 || res.DRAM.RD == 0 {
		t.Errorf("no DRAM activity: %+v", res.DRAM)
	}
	if res.Energy.Total() <= 0 {
		t.Error("energy must be positive")
	}
	if res.Ctrl.Refreshes == 0 {
		t.Error("refreshes must occur during the run")
	}
	if res.MPKI[0] < 10 {
		t.Errorf("mcf MPKI = %.1f, want high intensity (>=10)", res.MPKI[0])
	}
}

func TestMemoryIntensityClasses(t *testing.T) {
	cases := []struct {
		app      string
		insts    int64
		min, max float64
	}{
		{"mcf", 40_000, 10, 100},
		// zeusmp's steady state needs at least a few tile periods.
		{"zeusmp", 300_000, 1, 10},
		// Low-intensity apps touch memory so rarely that classifying
		// them needs a longer run for the LLC to warm.
		{"povray", 800_000, 0, 1},
	}
	for _, c := range cases {
		cfg := smallCfg(0)
		cfg.WarmupInsts = c.insts / 4
		cfg.MeasureInsts = c.insts
		s := New(cfg, &core.Baseline{T: cfg.T}, []trace.Generator{gen(c.app, 1, t)})
		res := s.Run()
		if res.MPKI[0] < c.min || res.MPKI[0] > c.max {
			t.Errorf("%s MPKI = %.2f, want [%.0f, %.0f]", c.app, res.MPKI[0], c.min, c.max)
		}
	}
}

func TestCROWCacheSpeedsUpRowReuseWorkload(t *testing.T) {
	base := smallCfg(0)
	bs := New(base, &core.Baseline{T: base.T}, []trace.Generator{gen("mcf", 1, t)})
	baseRes := bs.Run()

	cfg := smallCfg(8)
	mech := core.NewCROW(cfg.Channels, cfg.Geo, cfg.T)
	mech.Cache = true
	cs := New(cfg, mech, []trace.Generator{gen("mcf", 1, t)})
	crowRes := cs.Run()

	if crowRes.Mech[core.TableHit] == 0 {
		t.Fatal("CROW-cache must register hits on a row-reuse workload")
	}
	hitRate := crowRes.Mech.HitRate()
	if hitRate <= 0.2 {
		t.Errorf("CROW-8 hit rate = %.2f, expected substantial reuse", hitRate)
	}
	if crowRes.IPC[0] <= baseRes.IPC[0]*0.99 {
		t.Errorf("CROW-cache must not slow down mcf: %.4f vs %.4f", crowRes.IPC[0], baseRes.IPC[0])
	}
	if crowRes.DRAM.ACTTwo == 0 || crowRes.DRAM.ACTCopy == 0 {
		t.Errorf("expected ACT-t and ACT-c activity: %+v", crowRes.DRAM)
	}
}

func TestCROWRefReducesRefreshes(t *testing.T) {
	mk := func(ref bool) (Result, *core.CROW) {
		cfg := smallCfg(8)
		cfg.T = dram.LPDDR4(dram.Density64Gb, 64, cfg.Geo)
		mech := core.NewCROW(cfg.Channels, cfg.Geo, cfg.T)
		if ref {
			mech.Ref = true
			mech.LoadProfile(retention.FixedProfile(retention.Geometry{
				Channels: cfg.Channels, Ranks: cfg.Geo.Ranks, Banks: cfg.Geo.Banks,
				Subarrays: cfg.Geo.SubarraysPerBank(), RowsPerSubarray: cfg.Geo.RowsPerSubarray,
			}, 3, 7))
		}
		s := New(cfg, mech, []trace.Generator{gen("mcf", 1, t)})
		return s.Run(), mech
	}
	base, _ := mk(false)
	ref, refMech := mk(true)
	if m := refMech.RefreshMultiplier(); m != 2 {
		t.Fatalf("refresh multiplier = %d, want 2", m)
	}
	// Normalize refresh counts per DRAM cycle (runtimes differ).
	baseRate := float64(base.Ctrl.Refreshes) / float64(base.DRAMCycles)
	refRate := float64(ref.Ctrl.Refreshes) / float64(ref.DRAMCycles)
	if refRate >= baseRate*0.7 {
		t.Errorf("CROW-ref must halve the refresh rate: %.3g vs %.3g", refRate, baseRate)
	}
	if ref.IPC[0] <= base.IPC[0] {
		t.Errorf("CROW-ref must speed up under heavy refresh: %.4f vs %.4f", ref.IPC[0], base.IPC[0])
	}
	if ref.Energy.Refresh >= base.Energy.Refresh {
		t.Error("CROW-ref must reduce refresh energy")
	}
}

func TestIdealFasterThanRealCROW(t *testing.T) {
	run := func(m core.Mechanism, copyRows int) Result {
		cfg := smallCfg(copyRows)
		s := New(cfg, m, []trace.Generator{gen("mcf", 3, t)})
		return s.Run()
	}
	cfg := smallCfg(8)
	mech := core.NewCROW(cfg.Channels, cfg.Geo, cfg.T)
	mech.Cache = true
	real := run(mech, 8)
	ideal := run(&core.Ideal{T: cfg.T}, 8)
	if ideal.IPC[0] < real.IPC[0]*0.98 {
		t.Errorf("ideal CROW-cache must be at least as fast: %.4f vs %.4f", ideal.IPC[0], real.IPC[0])
	}
}

func TestFourCoreRun(t *testing.T) {
	cfg := smallCfg(0)
	cfg.MeasureInsts = 20_000
	gens := []trace.Generator{gen("mcf", 1, t), gen("lbm", 2, t), gen("povray", 3, t), gen("zeusmp", 4, t)}
	s := New(cfg, &core.Baseline{T: cfg.T}, gens)
	res := s.Run()
	if len(res.IPC) != 4 {
		t.Fatalf("want 4 IPC values, got %d", len(res.IPC))
	}
	for i, ipc := range res.IPC {
		if ipc <= 0 || ipc > 4 {
			t.Errorf("core %d IPC = %.3f out of range", i, ipc)
		}
	}
	// The low-intensity core must achieve higher IPC than the high ones.
	if res.IPC[2] <= res.IPC[0] {
		t.Errorf("povray (L) IPC %.3f should exceed mcf (H) IPC %.3f", res.IPC[2], res.IPC[0])
	}
}

func TestTranslateDeterministicAndInRange(t *testing.T) {
	cfg := smallCfg(0)
	s := New(cfg, &core.Baseline{T: cfg.T}, []trace.Generator{gen("mcf", 1, t)})
	a := s.Translate(0, 0x12345678)
	if a != s.Translate(0, 0x12345678) {
		t.Error("translation must be deterministic")
	}
	if a == s.Translate(1, 0x12345678) {
		t.Error("different cores must map to different frames (with overwhelming probability)")
	}
	if a>>12 >= s.physPages {
		t.Error("frame out of range")
	}
	if a&0xFFF != 0x678 {
		t.Error("page offset must be preserved")
	}
}

func TestPrefetchImprovesStreaming(t *testing.T) {
	run := func(pf bool) Result {
		cfg := smallCfg(0)
		cfg.Prefetch = pf
		s := New(cfg, &core.Baseline{T: cfg.T}, []trace.Generator{gen("libq", 1, t)})
		return s.Run()
	}
	off := run(false)
	on := run(true)
	if on.LLC.PrefIssued == 0 {
		t.Fatal("prefetcher must issue prefetches on a streaming workload")
	}
	if on.LLC.PrefUseful == 0 {
		t.Error("some prefetches must be useful")
	}
	if on.IPC[0] <= off.IPC[0] {
		t.Errorf("prefetching must speed up streaming: %.4f vs %.4f", on.IPC[0], off.IPC[0])
	}
}

func TestReadPercentilesCoverOnlyMeasuredInterval(t *testing.T) {
	// The latency histograms must reset at measurement start: after a run,
	// the recorded sample count equals the measured-interval demand reads,
	// not the whole-run count (which includes warmup).
	cfg := smallCfg(0)
	cfg.WarmupInsts = 20_000
	cfg.MeasureInsts = 20_000
	s := New(cfg, &core.Baseline{T: cfg.T}, []trace.Generator{gen("mcf", 1, t)})
	res := s.Run()
	var samples int64
	for _, c := range s.Ctrls {
		samples += c.ReadLatency.Count()
	}
	if samples == 0 {
		t.Fatal("no read latency samples recorded")
	}
	// ReadsServed (diffed over the measured interval) includes prefetch
	// reads; with no prefetcher it must match the histogram exactly.
	if samples != res.Ctrl.ReadsServed {
		t.Errorf("histogram holds %d samples, measured interval served %d reads "+
			"(warmup must not leak into the percentiles)", samples, res.Ctrl.ReadsServed)
	}
	if res.ReadP50Ns <= 0 || res.ReadP99Ns < res.ReadP50Ns {
		t.Errorf("implausible percentiles: p50 %.0f, p99 %.0f", res.ReadP50Ns, res.ReadP99Ns)
	}
}

func TestRunContextCancellation(t *testing.T) {
	cfg := smallCfg(0)
	cfg.MeasureInsts = 10_000_000 // far more than we let it run
	s := New(cfg, &core.Baseline{T: cfg.T}, []trace.Generator{gen("mcf", 1, t)})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("RunContext on a canceled context = %v, want context.Canceled", err)
	}
	t.Run("mid-run", cancelMidRun)
}

// hookGen calls hook before every record its core fetches.
type hookGen struct {
	trace.Generator
	hook func()
}

func (g hookGen) Next() trace.Record {
	g.hook()
	return g.Generator.Next()
}

// cancelMidRun: the run loop steps over most multiples of 2^14, so the poll
// must fire on the first ticked cycle of each 2^14-cycle epoch, not on exact
// multiples. A context canceled from inside the run, shortly before each of
// the first epoch boundaries in turn, must end the run inside the next epoch.
func cancelMidRun(t *testing.T) {
	for epoch := int64(1); epoch <= 6; epoch++ {
		cfg := smallCfg(0)
		cfg.MeasureInsts = 10_000_000 // far more than we let it run
		ctx, cancel := context.WithCancel(context.Background())
		var s *System
		canceledAt := int64(0)
		g := hookGen{gen("mcf", 1, t), func() {
			if canceledAt == 0 && s.cpuCycle >= epoch<<cancelCheckShift-2_000 {
				canceledAt = s.cpuCycle
				cancel()
			}
		}}
		s = New(cfg, &core.Baseline{T: cfg.T}, []trace.Generator{g})
		_, err := s.RunContext(ctx)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("epoch %d: RunContext = %v, want context.Canceled", epoch, err)
		}
		if got, at := s.cpuCycle>>cancelCheckShift, canceledAt>>cancelCheckShift; got > at+1 {
			t.Errorf("canceled at cycle %d (epoch %d), run stopped at cycle %d (epoch %d): a whole epoch went by unpolled",
				canceledAt, at, s.cpuCycle, got)
		}
	}
}

// runBothWays runs one configuration with the jump on and with every cycle
// ticked and requires the same Result, field for field.
func runBothWays(t *testing.T, cfg Config, apps ...string) Result {
	t.Helper()
	jumped := New(cfg, &core.Baseline{T: cfg.T}, appGens(t, cfg.Seed, apps...)).Run()
	s := New(cfg, &core.Baseline{T: cfg.T}, appGens(t, cfg.Seed, apps...))
	s.everyCycle = true
	if ticked := s.Run(); !reflect.DeepEqual(jumped, ticked) {
		t.Errorf("a jumping run differs from one that ticks every cycle:\n jumped %+v\n ticked %+v", jumped, ticked)
	}
	return jumped
}

// TestLazyCoresMatchEveryCycle: a run that ticks a core only when it is due,
// and leaves it behind otherwise, is — Result field for field — the run that
// ticks every core on every cycle, while every catch-up (a completion reaching
// a core behind, a due core's own Tick, the syncs at the warm-up boundary and
// at the end) is re-ticked against a generator and a memory that panic.
func TestLazyCoresMatchEveryCycle(t *testing.T) {
	cpu.SetVerifyAdvance(true)
	t.Cleanup(func() { cpu.SetVerifyAdvance(false) })
	type lazyCase struct {
		name string
		apps []string
		set  func(*Config)
		// boundary: on the tick that completes warm-up, `stalled` cores are
		// stalled and the others inside a run, so a jump from there would move
		// measured cycles into warm-up and shift every IPC.
		boundary bool
		stalled  int
	}
	cases := []lazyCase{
		{"1 core", []string{"gcc"}, nil, false, 0},
		{"2 cores", []string{"povray", "mcf"}, nil, false, 0},
		{"3 cores", []string{"povray", "gcc", "mcf"}, nil, false, 0},
		{"4 cores", []string{"povray", "gcc", "h264-enc", "jp2-dec"}, nil, false, 0},
		{"truncated inside a run", []string{"povray", "gcc"}, func(c *Config) { c.MaxMeasureCycles = 12_345 }, false, 0},
		{"warm-up boundary", []string{"mcf", "povray", "h264-enc"}, func(c *Config) { c.Seed = 4 }, true, 1},
		{"warm-up boundary truncated", []string{"povray", "h264-enc", "jp2-dec"}, func(c *Config) {
			c.WarmupInsts, c.MeasureInsts, c.MaxMeasureCycles, c.Seed = 5_000, 1_000_000, 10_000, 7
		}, true, 2},
		// A core's finish cycle is stamped on the tick where Retired first
		// reaches the target, so a jump may not carry any core across it.
		{"finish at different times", []string{"povray", "gcc", "mcf"}, func(c *Config) {
			c.WarmupInsts, c.MeasureInsts = 2_000, 30_000
		}, false, 0},
		{"prefetch", []string{"libq", "povray"}, func(c *Config) { c.Prefetch = true }, false, 0},
		// The other clock ratios: the jump converts DRAM cycles to CPU cycles
		// and back from every accumulator phase.
		{"ddr5 3:5", []string{"povray", "gcc", "mcf"}, onStandard("ddr5"), false, 0},
		{"hbm2 1:4", []string{"povray", "gcc", "mcf"}, onStandard("hbm2"), false, 0},
		{"lpddr5 1:5", []string{"povray", "gcc", "mcf"}, onStandard("lpddr5"), false, 0},
	}
	// The rowstripe hammer mix over seeds 1-8 (1-3 under -short): its measured
	// interval is where a lazy run once drifted from the ticked one by a cycle
	// or two, first at seed 3.
	seeds := int64(8)
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(1); seed <= seeds; seed++ {
		name := "rowstripe hammer"
		if seed > 1 {
			name += fmt.Sprintf(" seed %d", seed)
		}
		cases = append(cases, lazyCase{name, []string{"hammer-double", "mcf"}, func(c *Config) {
			c.LLC.SizeBytes, c.Translation, c.Seed = 64<<10, "rowstripe", seed
			c.FlipModel = &hammer.Config{Seed: 1, HCFirst: 512}
		}, false, 0})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := smallCfg(0)
			cfg.MeasureInsts = 20_000
			if tc.set != nil {
				tc.set(&cfg)
			}
			if tc.boundary {
				s := New(cfg, &core.Baseline{T: cfg.T}, appGens(t, cfg.Seed, tc.apps...))
				if err := s.runTo(context.Background(), cfg.WarmupInsts, math.MaxInt64, 0); err != nil {
					t.Fatal(err)
				}
				boundary := s.cpuCycle
				if cfg.MaxMeasureCycles > 0 && boundary >= cfg.MaxMeasureCycles {
					t.Fatalf("warm-up took %d cycles: the cap, which bounds it too, would cut it short", boundary)
				}
				stalled := 0
				for i := range s.Cores {
					if s.due[i] == math.MaxInt64 {
						stalled++
					} else if s.due[i] <= boundary+1 {
						t.Fatalf("core %d is due on the cycle after the boundary, not inside a run: due %v at %d", i, s.due, boundary)
					}
				}
				if stalled != tc.stalled {
					t.Fatalf("%d cores stalled at the boundary, want %d: due %v", stalled, tc.stalled, s.due)
				}
				if s.jump(math.MaxInt64); s.cpuCycle == boundary {
					t.Fatal("nothing to jump over on the tick that completes warm-up: pick another configuration")
				}
			}
			res := runBothWays(t, cfg, tc.apps...)
			if res.Truncated != (cfg.MaxMeasureCycles > 0) {
				t.Fatalf("Truncated = %v", res.Truncated)
			}
			for i := 1; i < len(res.IPC); i++ {
				if slices.Contains(res.IPC[:i], res.IPC[i]) {
					t.Errorf("cores were meant to finish at different times: IPC %v", res.IPC)
				}
			}
		})
	}
}

// onStandard rebuilds a configuration on another memory standard, keeping its
// instruction counts.
func onStandard(name string) func(*Config) {
	std, err := dram.StandardByName(name)
	if err != nil {
		panic(err)
	}
	return func(c *Config) {
		warm, measure := c.WarmupInsts, c.MeasureInsts
		*c = DefaultFor(std, 0, dram.Density8Gb, 64)
		c.WarmupInsts, c.MeasureInsts = warm, measure
	}
}

// lazyStandards are one standard per clock ratio: 2:5, 3:5, 1:4, 1:5.
var lazyStandards = []string{"lpddr4", "ddr5", "hbm2", "lpddr5"}

// lazyApps span the three MPKI classes (H: mcf, lbm, libq; M: zeusmp, astar;
// L: gcc, povray, h264-enc) and the RowHammer attacker.
var lazyApps = []string{"mcf", "lbm", "libq", "zeusmp", "astar", "gcc", "povray", "h264-enc", "hammer-double"}

// FuzzLazyCores: TestLazyCoresMatchEveryCycle as a property. Over a seed, two
// of lazyApps, either translation, an LLC of 64 KiB to 8 MiB, the flip model
// on or off, a measurement cap (0: none) and one of lazyStandards, the
// jumping run is the run that ticks every cycle, Result field for field.
func FuzzLazyCores(f *testing.F) {
	f.Add(int64(3), byte(8), byte(0), true, byte(0), true, uint16(0), byte(0)) // the table's rowstripe hammer seed 3
	f.Add(int64(5), byte(6), byte(3), false, byte(7), false, uint16(12_345), byte(0))
	f.Add(int64(2), byte(0), byte(7), false, byte(3), false, uint16(0), byte(2))
	f.Add(int64(6), byte(8), byte(1), true, byte(1), true, uint16(30_000), byte(3))
	f.Fuzz(func(t *testing.T, seed int64, a, b byte, rowstripe bool, llc byte, flips bool, maxCycles uint16, std byte) {
		cfg := smallCfg(0)
		onStandard(lazyStandards[int(std)%len(lazyStandards)])(&cfg)
		cfg.MeasureInsts, cfg.Seed = 20_000, seed
		cfg.LLC.SizeBytes = 64 << 10 << (llc % 8)
		if rowstripe {
			cfg.Translation = "rowstripe"
		}
		if flips {
			cfg.FlipModel = &hammer.Config{Seed: 1, HCFirst: 512}
		}
		cfg.MaxMeasureCycles = int64(maxCycles)
		runBothWays(t, cfg, lazyApps[int(a)%len(lazyApps)], lazyApps[int(b)%len(lazyApps)])
	})
}

// TestClockConversion: at every standard's clock ratio and from every phase of
// the accumulator, the loop's divide-free conversions are the divide formula,
// and both are what ticking one CPU cycle at a time does. cpuCyclesTo(k) is
// the CPU cycle of the k-th DRAM tick ahead; advance(n) leaves the clocks and
// the accumulator where n ticks leave them.
func TestClockConversion(t *testing.T) {
	for _, name := range dram.StandardNames() {
		std := mustStandard(t, name)
		num, den := int64(std.RatioNum), int64(std.RatioDen)
		for phase := int64(0); phase < den; phase++ {
			var at []int64 // at[k-1]: the CPU cycle, counted from the phase, of the k-th DRAM tick
			accum := phase
			for n := int64(1); n <= 64; n++ {
				if accum += num; accum >= den { // System.tick's step
					accum -= den
					at = append(at, n)
				}
				s := &System{ratioNum: num, ratioDen: den, accum: phase, cpuCycle: 1000, dramCycle: 400}
				s.advance(n)
				total := phase + num*n
				if s.cpuCycle != 1000+n || s.dramCycle != 400+int64(len(at)) || s.accum != accum ||
					s.dramCycle-400 != total/den || s.accum != total%den {
					t.Errorf("%s %d:%d phase %d: advance(%d) left cycle %d, DRAM cycle %d, accumulator %d; ticking leaves %d, %d, %d",
						name, num, den, phase, n, s.cpuCycle, s.dramCycle, s.accum, 1000+n, 400+len(at), accum)
				}
			}
			for k := int64(1); k <= int64(len(at)); k++ {
				s := &System{ratioNum: num, ratioDen: den, accum: phase}
				if got, want := s.cpuCyclesTo(k), (den*k-phase+num-1)/num; got != want || got != at[k-1] {
					t.Errorf("%s %d:%d phase %d: cpuCyclesTo(%d) = %d, the divide formula %d, ticking %d",
						name, num, den, phase, k, got, want, at[k-1])
				}
			}
		}
	}
	for d := int64(1); d <= 7; d++ { // the standards' terms and two others
		for _, x := range []int64{0, 1, 2, 3, 4, 5, 6, 29, 30, 31, 1<<31 - 1, 1 << 40, 1<<62 + 3} {
			if got := quo(x, d); got != x/d {
				t.Errorf("quo(%d, %d) = %d, want %d", x, d, got, x/d)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		cfg := smallCfg(8)
		mech := core.NewCROW(cfg.Channels, cfg.Geo, cfg.T)
		mech.Cache = true
		s := New(cfg, mech, []trace.Generator{gen("soplex", 7, t)})
		return s.Run()
	}
	a, b := run(), run()
	if a.IPC[0] != b.IPC[0] || a.DRAM != b.DRAM || a.Mech != b.Mech {
		t.Error("identical configurations must produce identical results")
	}
}

// TestAvgReadNsWeightsByChannelLoad: the reported mean read latency must
// weight each channel by its read count. Averaging per-channel means lets a
// nearly idle channel's few (slow) reads count as much as a hot channel's
// millions, overstating the system mean.
func TestAvgReadNsWeightsByChannelLoad(t *testing.T) {
	hot := ctrl.Stats{ReadsServed: 1_000_000, ReadLatencySum: 40_000_000} // mean 40 cycles
	idle := ctrl.Stats{ReadsServed: 4, ReadLatencySum: 4_000}             // mean 1000 cycles
	sum := metrics.Add(hot, idle)
	want := float64(hot.ReadLatencySum+idle.ReadLatencySum) /
		float64(hot.ReadsServed+idle.ReadsServed) * dram.Cycle
	if got := sum.AvgReadLatencyNs(dram.Cycle); got != want {
		t.Fatalf("aggregated AvgReadLatencyNs = %g, want sum-of-sums/sum-of-counts = %g", got, want)
	}
	biased := (hot.AvgReadLatencyNs(dram.Cycle) + idle.AvgReadLatencyNs(dram.Cycle)) / 2
	if math.Abs(sum.AvgReadLatencyNs(dram.Cycle)-biased) < 0.1 {
		t.Fatal("test is vacuous: weighted mean and mean-of-means coincide")
	}
}

// TestAvgReadNsMatchesAggregateStats: end to end, Result.AvgReadNs must be
// exactly the read-weighted mean over channels, i.e. derived from the summed
// controller stats rather than from per-channel means.
func TestAvgReadNsMatchesAggregateStats(t *testing.T) {
	cfg := smallCfg(0)
	s := New(cfg, &core.Baseline{T: cfg.T}, []trace.Generator{gen("mcf", 1, t)})
	res := s.Run()
	if res.Ctrl.ReadsServed == 0 {
		t.Fatal("run served no reads")
	}
	if want := res.Ctrl.AvgReadLatencyNs(cfg.T.CycleTime()); res.AvgReadNs != want {
		t.Errorf("AvgReadNs = %g, want aggregate-weighted %g", res.AvgReadNs, want)
	}
}

// TestTruncatedRunReportsHonestIPC: a run that hits its cycle limit before
// the cores retire the target must say so, and must compute IPC from the
// instructions actually retired instead of pretending the target was met.
func TestTruncatedRunReportsHonestIPC(t *testing.T) {
	cfg := smallCfg(0)
	cfg.MaxMeasureCycles = 30_000
	s := New(cfg, &core.Baseline{T: cfg.T}, []trace.Generator{gen("mcf", 1, t)})
	res := s.Run()
	if !res.Truncated {
		t.Fatal("run capped far below the instruction target must report Truncated")
	}
	c := s.Cores[0]
	if c.Retired >= cfg.MeasureInsts {
		t.Fatalf("core retired %d >= target %d; cap too generous for this test", c.Retired, cfg.MeasureInsts)
	}
	if res.Cycles != cfg.MaxMeasureCycles {
		t.Errorf("truncated run measured %d cycles, want the cap %d", res.Cycles, cfg.MaxMeasureCycles)
	}
	want := float64(c.Retired) / float64(res.Cycles)
	if res.IPC[0] != want {
		t.Errorf("truncated IPC = %g, want retired/cycles = %g", res.IPC[0], want)
	}
	overstated := float64(cfg.MeasureInsts) / float64(res.Cycles)
	if res.IPC[0] >= overstated {
		t.Errorf("truncated IPC %g not below the old target/cycles value %g", res.IPC[0], overstated)
	}
}

// TestFullRunNotTruncated: a normally completing run must not set the flag.
func TestFullRunNotTruncated(t *testing.T) {
	cfg := smallCfg(0)
	s := New(cfg, &core.Baseline{T: cfg.T}, []trace.Generator{gen("gcc", 1, t)})
	if res := s.Run(); res.Truncated {
		t.Error("completed run must not report Truncated")
	}
}
