// Package sim binds the pieces into the full simulated system of Table 2:
// 1–4 trace-driven cores at 4 GHz, a shared LLC, a set of DRAM channels of
// a pluggable memory standard (LPDDR4 by default), and a pluggable
// core.Mechanism. The simulation advances in CPU cycles with an exact
// DRAM:CPU clock ratio taken from the standard (2:5 for LPDDR4-3200).
package sim

import (
	"context"
	"math"
	"slices"

	"crowdram/internal/cache"
	"crowdram/internal/core"
	"crowdram/internal/cpu"
	"crowdram/internal/ctrl"
	"crowdram/internal/dram"
	"crowdram/internal/energy"
	"crowdram/internal/hammer"
	"crowdram/internal/metrics"
	"crowdram/internal/obs"
	"crowdram/internal/oracle"
	"crowdram/internal/prefetch"
	"crowdram/internal/tldram"
	"crowdram/internal/trace"
)

// Config describes one simulated system.
type Config struct {
	Channels int
	Geo      dram.Geometry
	T        dram.Timing
	LLC      cache.Config
	Core     cpu.Config
	// Ctrl is the template every channel's controller is built from
	// (scheduler cap, row timeout, MASA, postponement, policy names, device
	// features); New fills in ChannelID, Geo and T per channel.
	Ctrl     ctrl.Config
	Prefetch bool

	// Mapping names the address-mapping layout (a row of internal/dram's table;
	// empty = dram.DefaultMapping).
	Mapping string

	// Translation selects how per-core virtual addresses map to physical
	// frames: "hash" (default, uniformly scattered 4 KiB frames) or
	// "rowstripe" (row-span-granular striping that preserves row
	// adjacency and interleaves tenants row-by-row — the RowHammer lab's
	// layout, where attacker and victim own alternating physical rows).
	Translation string

	// FlipModel, when non-nil, attaches the RowHammer bit-flip model
	// (internal/hammer) to every channel's command stream; findings are
	// reported in Result.Flips.
	FlipModel *hammer.Config

	// RatioNum/RatioDen set the DRAM:CPU clock ratio: the command clock
	// advances RatioNum ticks every RatioDen CPU cycles. Zero values mean
	// LPDDR4-3200's 2:5 (1600 MHz vs 4 GHz).
	RatioNum int
	RatioDen int

	// Verify attaches the correctness oracle (internal/oracle) to every
	// channel: a shadow data memory, refresh-deadline monitor, and
	// scheduler/accounting checks validate the run end to end. Findings
	// are reported in Result.Verify. Its cost is what crowperf's `verified`
	// workload reports (oracle.overhead_ratio).
	Verify bool

	// Obs, when non-nil and enabled, attaches the observability bundle
	// (event tracer, interval telemetry — internal/obs) to every channel,
	// controller, and the mechanism's counters. It composes with Verify: the
	// oracle and the obs consumers ride the same command fan-out. Not part
	// of the memoization key (see obs.With); a bundle serves one run.
	Obs *obs.Observers

	// WarmupInsts and MeasureInsts are per-core instruction counts: stats
	// reset once every core has retired WarmupInsts, and the run ends
	// once every core has retired WarmupInsts+MeasureInsts.
	WarmupInsts  int64
	MeasureInsts int64

	// MaxMeasureCycles, when positive, caps the measurement interval at
	// that many CPU cycles instead of the default generous formula. Runs
	// that hit the cap report Result.Truncated. Used by tests; production
	// configs leave it zero.
	MaxMeasureCycles int64

	Seed int64
}

// Default returns the Table 2 system configuration (4 channels, 8 MiB LLC)
// with the given per-copy-row geometry, density and refresh window.
func Default(copyRows int, d dram.Density, refWindowMS float64) Config {
	g := dram.Std(copyRows)
	t := dram.LPDDR4(d, refWindowMS, g)
	return Config{
		Channels:     4,
		Geo:          g,
		T:            t,
		LLC:          cache.DefaultConfig(),
		Core:         cpu.DefaultConfig(),
		Ctrl:         ctrl.DefaultConfig(0, g, t),
		WarmupInsts:  50_000,
		MeasureInsts: 500_000,
		Seed:         1,
	}
}

// DefaultFor returns the Table 2 system configuration retargeted to the
// given memory standard: its channel count, geometry, timing table, clock
// ratio, refresh granularity, and device features. For the LPDDR4 standard
// the result is field-for-field what Default returns (the explicit
// RatioNum/RatioDen and Refresh values resolve to the same behaviour as the
// zero values).
func DefaultFor(std *dram.Standard, copyRows int, d dram.Density, refWindowMS float64) Config {
	cfg := Default(copyRows, d, refWindowMS)
	g := std.Geometry(copyRows)
	cfg.Channels = std.Channels
	cfg.Geo = g
	cfg.T = std.Timing(d, refWindowMS, g)
	cfg.RatioNum, cfg.RatioDen = std.RatioNum, std.RatioDen
	cfg.Ctrl.Refresh = std.Refresh
	cfg.Ctrl.Features = std.Features
	return cfg
}

// Result reports the outcome of one simulation run.
type Result struct {
	IPC        []float64 // per-core measured IPC
	MPKI       []float64 // per-core LLC demand MPKI
	Cycles     int64     // CPU cycles in the measured interval
	DRAMCycles int64
	Energy     energy.Breakdown
	DRAM       dram.Stats // summed over channels, measured interval
	Ctrl       ctrl.Stats // summed over channels
	Mech       core.Stats // the mechanism's counters, measured interval
	LLC        cache.Stats
	AvgReadNs  float64
	// ReadP50Ns/ReadP99Ns bound the 50th/99th-percentile demand read
	// latency (log-bucket upper bounds), aggregated over channels for
	// the measured interval only (the latency histograms reset at
	// measurement start, like every other stat).
	ReadP50Ns float64
	ReadP99Ns float64
	// Truncated reports that the measurement loop hit its cycle limit
	// before every core retired MeasureInsts. IPC for the unfinished cores
	// is computed from their actual retired counts, so it stays honest,
	// but the run did not measure the interval it was asked to.
	Truncated bool
	// Verify holds the correctness oracle's findings (zero-valued unless
	// Config.Verify was set).
	Verify oracle.Findings
	// Flips holds the RowHammer flip model's findings (zero-valued unless
	// Config.FlipModel was set).
	Flips hammer.Findings
	// FlipsByCore attributes exposed flips to the core owning each victim
	// row (rowstripe translation only — under the hash translation row
	// ownership is not defined, and the slice stays nil).
	FlipsByCore []int64
}

// System is one assembled simulation instance.
type System struct {
	Cfg    Config
	Mech   core.Mechanism
	Cores  []*cpu.Core
	LLC    *cache.Cache
	Ctrls  []*ctrl.Controller
	Mapper *dram.Mapper
	Pref   *prefetch.Prefetcher
	Oracle *oracle.Oracle // nil unless Cfg.Verify
	Flips  *hammer.Model  // nil unless Cfg.FlipModel

	cpuCycle  int64
	dramCycle int64
	accum     int
	polled    int64 // the cpuCycle epoch of the last context poll (canceled)
	ratioNum  int64 // DRAM ticks per ratioDen CPU cycles
	ratioDen  int64

	// due[i] is core i's next real tick: its clock + Horizon(until) + 1, or
	// MaxInt64 while it is stalled. A core that is not due is left behind
	// and caught up by whatever reaches it first (cpu.Core.CatchUp). target
	// is the instruction count the current phase runs each core to.
	due    []int64
	target int64

	// everyCycle, set only from tests, turns jump off and ticks every core on
	// every cycle, which is what a jumping run must be indistinguishable from.
	everyCycle bool

	// readDone is the one completion callback shared by every read
	// request (built once in New): it delivers the returned line to the
	// LLC at the current CPU cycle. Requests carry the line address, so
	// the read path needs no per-request closure.
	readDone func(now int64, line uint64)

	physPages uint64
	// rowSpan/tenants drive the rowstripe translation (rowSpan 0 = hash).
	rowSpan uint64
	tenants uint64
}

// memPort adapts the controllers to the cache's Memory interface.
type memPort struct{ s *System }

func (m memPort) SendRead(lineAddr uint64, pref bool) bool {
	s := m.s
	a := s.Mapper.Decode(lineAddr)
	c := s.Ctrls[a.Channel]
	req := c.GetRequest()
	req.Type = ctrl.Read
	req.Addr = a
	req.Line = lineAddr
	req.IsPref = pref
	req.Done = s.readDone
	if !c.EnqueueRead(req, s.dramCycle) {
		c.PutRequest(req)
		return false
	}
	return true
}

func (m memPort) SendWrite(lineAddr uint64) bool {
	s := m.s
	a := s.Mapper.Decode(lineAddr)
	c := s.Ctrls[a.Channel]
	req := c.GetRequest()
	req.Type = ctrl.Write
	req.Addr = a
	if !c.EnqueueWrite(req, s.dramCycle) {
		c.PutRequest(req)
		return false
	}
	return true
}

// llcPort wraps the LLC for the cores, adding prefetcher training.
type llcPort struct{ s *System }

func (p llcPort) Access(now int64, coreID int, addr uint64, write bool, done func(now int64)) (bool, bool) {
	s := p.s
	accepted, hit := s.LLC.Access(now, coreID, addr, write, done)
	if accepted && !hit && s.Pref != nil {
		for _, pa := range s.Pref.OnMiss(coreID, addr) {
			s.LLC.Prefetch(now, pa)
		}
	}
	return accepted, hit
}

// Translate implements cpu.Translator: virtual pages map to uniformly
// scattered physical frames (emulating a steady-state system's randomized
// frame allocation, Section 7 [85]), deterministically per (core, page).
func (s *System) Translate(coreID int, vaddr uint64) uint64 {
	if s.rowSpan > 0 {
		// Rowstripe: virtual row-span region v of core c maps to physical
		// region v*tenants+c, so row adjacency survives translation and
		// tenants own alternating physical rows (the inter-VM RowHammer
		// scenario's layout).
		region := vaddr / s.rowSpan
		off := vaddr % s.rowSpan
		p := (region*s.tenants+uint64(coreID))*s.rowSpan + off
		return p % (s.physPages << 12)
	}
	vpn := vaddr >> 12
	h := uint64(coreID+1)*0x9E3779B97F4A7C15 ^ vpn*0xBF58476D1CE4E5B9
	h ^= h >> 29
	h *= 0x94D049BB133111EB
	h ^= h >> 32
	frame := h % s.physPages
	return frame<<12 | (vaddr & 0xFFF)
}

// New assembles a system running one generator per core under the given
// mechanism.
func New(cfg Config, mech core.Mechanism, gens []trace.Generator) *System {
	s := &System{Cfg: cfg, Mech: mech}
	s.ratioNum, s.ratioDen = 2, 5
	if cfg.RatioNum > 0 && cfg.RatioDen > 0 {
		s.ratioNum, s.ratioDen = int64(cfg.RatioNum), int64(cfg.RatioDen)
	}
	mapping := cfg.Mapping
	if mapping == "" {
		mapping = dram.DefaultMapping
	}
	mapper, err := dram.NewMapperFor(mapping, cfg.Channels, cfg.Geo)
	if err != nil {
		panic(err) // user-facing names are validated at the crow.Options layer
	}
	s.Mapper = mapper
	s.physPages = uint64(s.Mapper.Capacity()) >> 12
	switch cfg.Translation {
	case "", "hash":
	case "rowstripe":
		s.rowSpan = mapper.Encode(dram.Addr{Row: 1})
		s.tenants = uint64(len(gens))
		if s.tenants == 0 {
			s.tenants = 1
		}
	default:
		panic("sim: unknown translation " + cfg.Translation)
	}
	s.Ctrls = make([]*ctrl.Controller, cfg.Channels)
	for ch := range s.Ctrls {
		ccfg := cfg.Ctrl
		ccfg.ChannelID, ccfg.Geo, ccfg.T = ch, cfg.Geo, cfg.T
		s.Ctrls[ch] = ctrl.New(ccfg, mech)
	}
	if cfg.Verify {
		// The oracle consumes policy-resolved facts, not the raw config
		// strings: the cap check only applies under the capped scheduler,
		// and bank-granular refresh (perbank or DDR5's samebank) divides
		// the deadline interval.
		s.Oracle = oracle.New(oracle.Config{
			Channels:          cfg.Channels,
			Geo:               cfg.Geo,
			T:                 cfg.T,
			Cap:               s.Ctrls[0].HitCap(),
			DataChecks:        shadowDataApplies(mech),
			RefreshMultiplier: mech.RefreshMultiplier(),
			BankRefresh:       s.Ctrls[0].BankRefresh(),
			MaxPostpone:       cfg.Ctrl.MaxPostpone,
		})
		for ch := range s.Ctrls {
			s.Ctrls[ch].Dev.Attach(s.Oracle.Observer(ch))
		}
	}
	if cfg.FlipModel != nil {
		s.Flips = hammer.New(*cfg.FlipModel, cfg.Channels, cfg.Geo, cfg.T)
		for ch := range s.Ctrls {
			s.Ctrls[ch].Dev.Attach(s.Flips.Observer(ch))
		}
	}
	if cfg.Obs.Enabled() {
		cfg.Obs.Bind(cfg.Channels, cfg.Geo, cfg.T)
		for ch := range s.Ctrls {
			if co := cfg.Obs.CommandObserver(ch); co != nil {
				s.Ctrls[ch].Dev.Attach(co)
			}
			s.Ctrls[ch].Obs = cfg.Obs.SchedObserver(ch)
		}
		mech.Counters().Obs = cfg.Obs.TableObserver()
	}
	s.LLC = cache.New(cfg.LLC, memPort{s}, len(gens))
	// Completion callbacks run in DRAM-cycle context; deliver to the CPU
	// side at the current CPU cycle.
	s.readDone = func(_ int64, line uint64) { s.LLC.Fill(s.cpuCycle, line) }
	// Start from a steady-state (full, partially dirty) LLC so that
	// writeback traffic exists even in short runs.
	s.LLC.Prefill(s.Mapper.Bits()-6, 0.25, cfg.Seed)
	if cfg.Prefetch {
		s.Pref = prefetch.New(prefetch.DefaultConfig(), len(gens))
	}
	s.Cores, s.due = make([]*cpu.Core, len(gens)), make([]int64, len(gens))
	for i, g := range gens {
		s.Cores[i] = cpu.New(i, cfg.Core, g, llcPort{s}, s)
	}
	return s
}

// Release gives the system's recyclable memory (the LLC's line array) to the
// next one built in this process. A System runs once; its owner calls
// Release when that run has returned, however it ended, and must not touch
// the system afterwards.
func (s *System) Release() { s.LLC.Release() }

// tick executes one CPU cycle: the cores due on it in core order, the LLC if
// it has an event, the controllers on a DRAM cycle. A core that ticked or that
// a completion caught up (its clock reads the present) is rescheduled, its
// horizon cut at the target so that the tick reaching it is a real one.
func (s *System) tick() {
	s.cpuCycle++
	for i, c := range s.Cores {
		if s.everyCycle || s.due[i] <= s.cpuCycle {
			c.Tick(s.cpuCycle)
		}
	}
	if s.LLC.NextEvent(s.cpuCycle-1) <= s.cpuCycle {
		s.LLC.Tick(s.cpuCycle)
	}
	// ratioNum DRAM command cycles per ratioDen CPU cycles (2:5 for
	// LPDDR4-3200's 1600 MHz vs 4 GHz; 3:5 for DDR5-4800; 1:4 for HBM2).
	s.accum += int(s.ratioNum)
	if int64(s.accum) >= s.ratioDen {
		s.accum -= int(s.ratioDen)
		s.dramCycle++
		for _, c := range s.Ctrls {
			c.Tick(s.dramCycle)
		}
	}
	for i, c := range s.Cores {
		if c.Clock() != s.cpuCycle {
			continue
		}
		until := int64(math.MaxInt64)
		if c.Retired < s.target {
			until = s.target
		}
		s.due[i] = math.MaxInt64
		if h := c.Horizon(until); h < math.MaxInt64 {
			s.due[i] = s.cpuCycle + h + 1
		}
	}
}

// jump advances the system clocks past CPU cycles in which nothing observable
// happens: no core is due, the LLC has no event before its reported next one,
// and no controller has work before its reported next DRAM cycle. It lands one
// cycle short of the earliest of those events (converted to CPU cycles) and
// never crosses `limit`. The cores it passes are left behind. A jumping run is
// thus cycle-for-cycle identical to one that ticks every cycle — including
// every statistic.
func (s *System) jump(limit int64) {
	if s.everyCycle {
		return
	}
	n := min(limit, s.LLC.NextEvent(s.cpuCycle)-1, slices.Min(s.due)-1) - s.cpuCycle
	dnext := dram.Horizon
	for _, c := range s.Ctrls {
		if e := c.NextEvent(s.dramCycle); e < dnext {
			dnext = e
		}
	}
	if dnext < dram.Horizon {
		// The k-th DRAM tick from accumulator state `accum` lands
		// ceil((den*k-accum)/num) CPU cycles ahead; stop one cycle short
		// so the normal tick performs it.
		k := dnext - s.dramCycle
		m := (s.ratioDen*k - int64(s.accum) + s.ratioNum - 1) / s.ratioNum
		n = min(n, m-1)
	}
	if n <= 0 {
		return
	}
	s.cpuCycle += n
	total := int64(s.accum) + s.ratioNum*n
	s.dramCycle += total / s.ratioDen
	s.accum = int(total % s.ratioDen)
}

// syncDevStats brings each device's delta-based cycle accounting up to the
// present; a jump can leave it behind, and stats snapshots must not
// read stale counters. Idempotent at a fixed cycle.
func (s *System) syncDevStats() {
	for _, c := range s.Ctrls {
		c.Dev.Tick(s.dramCycle)
	}
}

// Run executes warmup then measurement and returns the results.
func (s *System) Run() Result {
	res, _ := s.RunContext(context.Background())
	return res
}

// cancelCheckShift gates how often the run loop polls its context: once per
// 2^14-cycle epoch of the CPU clock, on the first ticked cycle inside it (a
// jump can step over the epoch's first cycle, never over the epoch's poll).
// One poll is an atomic load amortized over up to 16k system ticks (far below
// noise), while even the smallest useful runs (~tens of thousands of cycles)
// span several epochs, so short timeouts and Ctrl-C take effect mid-run
// rather than after it.
const cancelCheckShift = 14

// canceled reports, once per epoch, whether ctx is done.
func (s *System) canceled(ctx context.Context) bool {
	if e := s.cpuCycle >> cancelCheckShift; e != s.polled {
		s.polled = e
		return ctx.Err() != nil
	}
	return false
}

// runTo is the run loop; nothing else advances the system clock. Each pass
// ticks, takes the interval snapshots due from DRAM cycle snapAt on (0: none),
// polls ctx, stamps the cores that reached target on this tick, and stops once
// every core has, or else jumps. Stopping on the crossing tick itself, before
// any jump, ends a phase on the same cycle whether or not the run jumps. The
// loop also stops at cycle limit. Every phase starts with each core at Retired
// 0, so a target of 0 runs no tick. finish[i] is the number of cycles from the
// call to the tick on which core i reached target, 0 if it never did.
func (s *System) runTo(ctx context.Context, target, limit, snapAt int64) ([]int64, error) {
	s.target = target
	clear(s.due) // a new target: every core ticks first, then is rescheduled
	start, finish, left := s.cpuCycle, make([]int64, len(s.Cores)), len(s.Cores)
	for target > 0 && left > 0 && s.cpuCycle < limit {
		s.tick()
		if snapAt > 0 && s.dramCycle >= snapAt {
			s.syncDevStats()
			s.Cfg.Obs.TakeSnapshot(s.dramCycle)
			snapAt = s.Cfg.Obs.NextSnapshot()
		}
		if s.canceled(ctx) {
			return nil, ctx.Err()
		}
		for i, c := range s.Cores {
			if finish[i] == 0 && c.Retired >= target {
				finish[i] = s.cpuCycle - start
				left--
			}
		}
		if left > 0 {
			s.jump(limit)
		}
	}
	return finish, nil
}

// RunContext is Run with cooperative cancellation: the simulation loop
// polls ctx periodically and abandons the run (returning ctx's error) once
// it is canceled or past its deadline.
func (s *System) RunContext(ctx context.Context) (Result, error) {
	warmLimit := s.Cfg.WarmupInsts*int64(len(s.Cores))*10_000 + 10_000_000
	if s.Cfg.MaxMeasureCycles > 0 && warmLimit > s.Cfg.MaxMeasureCycles {
		// A capped run bounds warmup too: a configuration that can make no
		// forward progress (e.g. a refresh-starved channel) would otherwise
		// spin out the full warmup allowance before the cap even applies.
		warmLimit = s.Cfg.MaxMeasureCycles
	}
	if _, err := s.runTo(ctx, s.Cfg.WarmupInsts, warmLimit, 0); err != nil {
		return Result{}, err
	}
	// Reset measurement state. Catch device accounting up to the present
	// first, so the snapshots see current counters.
	s.syncDevStats()
	if s.Cfg.Obs.NextSnapshot() > 0 {
		// Flush warmup activity as one interval so measured snapshots
		// start clean at the measurement boundary.
		s.Cfg.Obs.TakeSnapshot(s.dramCycle)
	}
	start, startDRAM := s.cpuCycle, s.dramCycle
	var devSnap []dram.Stats
	var ctrlSnap []ctrl.Stats
	for _, c := range s.Ctrls {
		devSnap = append(devSnap, c.Dev.Stats)
		ctrlSnap = append(ctrlSnap, c.Stats)
	}
	mechSnap := s.Mech.Counters().Stats
	for _, c := range s.Ctrls {
		c.ReadLatency.Reset()
	}
	s.LLC.ResetStats()
	for _, c := range s.Cores {
		c.CatchUp(s.cpuCycle)
		c.ResetStats()
	}

	// Measurement: run until every core retires the target; cores that
	// finish early keep running (and keep interfering), per Section 7.
	limit := start + s.Cfg.MeasureInsts*int64(len(s.Cores))*10_000 + 50_000_000
	if s.Cfg.MaxMeasureCycles > 0 {
		limit = start + s.Cfg.MaxMeasureCycles
	}
	finish, err := s.runTo(ctx, s.Cfg.MeasureInsts, limit, s.Cfg.Obs.NextSnapshot())
	if err != nil {
		return Result{}, err
	}
	s.syncDevStats()

	var res Result
	res.Cycles, res.DRAMCycles = s.cpuCycle-start, s.dramCycle-startDRAM
	insts := make([]int64, len(s.Cores))
	for i, c := range s.Cores {
		c.CatchUp(s.cpuCycle)
		cyc, retired := finish[i], s.Cfg.MeasureInsts
		if cyc == 0 {
			// The loop hit its cycle limit before this core retired the
			// target. Its IPC uses the instructions it actually retired;
			// target/cycles would overstate it.
			cyc, retired = res.Cycles, c.Retired
			res.Truncated = true
		}
		res.IPC = append(res.IPC, float64(retired)/float64(cyc))
		insts[i] = c.Retired
	}
	res.MPKI = s.LLC.MPKI(insts)
	res.LLC = s.LLC.Stats

	params := energy.DefaultParams()
	for i, c := range s.Ctrls {
		dev := c.Dev.Stats.Sub(devSnap[i])
		res.DRAM = res.DRAM.Add(dev)
		res.Ctrl = res.Ctrl.Add(c.Stats.Sub(ctrlSnap[i]))
		res.Energy = res.Energy.Add(energy.Compute(dev, s.Cfg.T, res.DRAMCycles, params))
	}
	// Mean read latency weighted by each channel's read count. Averaging
	// the per-channel means would let a nearly idle channel's handful of
	// reads count as much as a busy channel's millions.
	res.AvgReadNs = res.Ctrl.AvgReadLatencyNs(s.Cfg.T.CycleTime())
	allLat := metrics.NewHistogram()
	for _, c := range s.Ctrls {
		allLat.Merge(c.ReadLatency)
	}
	res.ReadP50Ns = allLat.Percentile(50) * s.Cfg.T.CycleTime()
	res.ReadP99Ns = allLat.Percentile(99) * s.Cfg.T.CycleTime()
	res.Mech = s.Mech.Counters().Stats.Sub(mechSnap)
	s.Cfg.Obs.Finish(s.dramCycle)
	if s.Oracle != nil {
		s.Oracle.Finish(s.dramCycle)
		for ch, c := range s.Ctrls {
			s.Oracle.CheckStats(ch, c.Dev.Stats)
		}
		res.Verify = s.Oracle.Findings()
	}
	if s.Flips != nil {
		res.Flips = s.Flips.Findings()
		if s.rowSpan > 0 && s.tenants > 0 {
			res.FlipsByCore = make([]int64, len(s.Cores))
			for _, fr := range res.Flips.Rows {
				a := dram.Addr{Channel: fr.Channel, Rank: fr.Rank, Bank: fr.Bank, Row: fr.Row}
				owner := int((s.Mapper.Encode(a) / s.rowSpan) % s.tenants)
				if owner < len(res.FlipsByCore) {
					res.FlipsByCore[owner] += fr.Flips
				}
			}
		}
	}
	return res, nil
}

// shadowDataApplies reports whether the oracle's shadow data memory models
// the mechanism's data semantics. Two mechanisms fall outside it: the
// idealized CROW (which issues fictional ACT-t commands to pairs that were
// never copied, modeling a 100% hit rate) and TL-DRAM (whose near-segment
// activations reuse the plain ACT command for rows the shadow memory cannot
// distinguish). The refresh, cap, and accounting checks apply regardless.
func shadowDataApplies(mech core.Mechanism) bool {
	switch core.Unwrap(mech).(type) {
	case *core.Ideal, *tldram.Mechanism:
		return false
	}
	return true
}
