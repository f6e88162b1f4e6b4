package harness

import (
	"fmt"
	"time"

	"crowdram/internal/cache"
	"crowdram/internal/core"
	"crowdram/internal/cpu"
	"crowdram/internal/ctrl"
	"crowdram/internal/dram"
	"crowdram/internal/oracle"
	"crowdram/internal/trace"
)

// The ladder times each simulator layer from outside, through its public
// functions only, on traffic derived from the workload: the trace generator
// feeds a core model against an always-hit memory, the same addresses feed
// the LLC against a fixed-delay memory, the LLC's miss and write-back stream
// feeds one controller per channel, and the commands those controllers
// issued are re-issued to bare channels, without and with the oracle
// listening. Only the serial Tick entry points are used.

// ladderResult holds the per-layer numbers of one ladder pass.
type ladderResult struct {
	traceNextNs  float64
	traceRecords int

	cpuTickNs float64

	cacheAccessNs    float64
	cacheHitRatio    float64
	cacheRejectRatio float64

	ctrlReqNs       float64
	ctrlTickNs      float64
	ctrlIdleTickNs  float64
	ctrlRejectRatio float64
	rowHitRatio     float64
	tableHitRatio   float64

	dramCmdNs    float64
	dramCommands int

	oracleCmdNsAdded float64
	oracleViolations int64
}

const (
	ladderChannels = 4       // Table 2
	ladderFillCPU  = 600     // CPU cycles (150 ns, a loaded DRAM) the stub memory takes to return a line
	ladderMaxCmds  = 300_000 // recorded commands kept for the device replay
	ladderIdleTick = 200_000 // empty-queue controller ticks timed
)

// hashXlat scatters 4 KiB virtual pages over the physical frames, as the
// simulator's default translation does.
type hashXlat struct{ frames uint64 }

func (x hashXlat) Translate(coreID int, vaddr uint64) uint64 {
	h := uint64(coreID+1)*0x9E3779B97F4A7C15 ^ (vaddr>>12)*0xBF58476D1CE4E5B9
	h ^= h >> 29
	h *= 0x94D049BB133111EB
	h ^= h >> 32
	return (h%x.frames)<<12 | (vaddr & 0xFFF)
}

// hitMem is the core's always-hit memory.
type hitMem struct{}

func (hitMem) Access(now int64, _ int, _ uint64, _ bool, done func(int64)) (bool, bool) {
	done(now)
	return true, true
}

// memReq is one entry of the LLC's downstream stream.
type memReq struct {
	cycle int64 // CPU cycle it left the LLC
	line  uint64
	write bool
}

// delayMem is the LLC's fixed-delay memory; it records what the LLC sends.
type delayMem struct {
	now    *int64
	stream []memReq
	fills  []memReq // reads awaiting their fill, in issue (= due) order
}

func (m *delayMem) SendRead(line uint64, _ bool) bool {
	r := memReq{cycle: *m.now, line: line}
	m.stream = append(m.stream, r)
	m.fills = append(m.fills, r)
	return true
}

func (m *delayMem) SendWrite(line uint64) bool {
	m.stream = append(m.stream, memReq{cycle: *m.now, line: line, write: true})
	return true
}

// cmdRecorder keeps the commands a controller's device issued.
type cmdRecorder struct {
	events []dram.CmdEvent
	room   *int
}

func (r *cmdRecorder) OnCommand(e dram.CmdEvent) {
	if *r.room > 0 {
		*r.room--
		r.events = append(r.events, e)
	}
}

// runLadder measures every stage for the given applications (one core each).
func runLadder(apps []string, seed int64, instsPerApp int64, densityGbit int) (ladderResult, error) {
	var res ladderResult
	if len(apps) == 0 || len(apps) > 4 {
		return res, fmt.Errorf("ladder: want 1-4 applications, got %d", len(apps))
	}
	gen := func(i int) (trace.Generator, error) {
		app, err := trace.ByName(apps[i])
		if err != nil {
			return nil, err
		}
		return app.Gen(seed + int64(i)*7919), nil
	}
	geo := dram.Std(8)
	tim := dram.LPDDR4(dram.Density(densityGbit), 64, geo)
	mapper, err := dram.NewMapperFor(dram.DefaultMapping, ladderChannels, geo)
	if err != nil {
		return res, err
	}
	xlat := hashXlat{frames: uint64(mapper.Capacity()) >> 12}

	// trace: Next() until each application's instruction budget is consumed.
	recs := make([][]trace.Record, len(apps))
	var traceTime time.Duration
	for i := range apps {
		g, err := gen(i)
		if err != nil {
			return res, err
		}
		start := time.Now()
		for insts := int64(0); insts < instsPerApp; {
			r := g.Next()
			insts += int64(r.Bubbles) + 1
			recs[i] = append(recs[i], r)
		}
		traceTime += time.Since(start)
		res.traceRecords += len(recs[i])
	}
	res.traceNextNs = perOp(traceTime, res.traceRecords)

	// cpu: one core per application against the always-hit memory.
	var cpuTime time.Duration
	var cpuTicks int
	for i := range apps {
		g, err := gen(i)
		if err != nil {
			return res, err
		}
		c := cpu.New(i, cpu.DefaultConfig(), g, hitMem{}, xlat)
		start := time.Now()
		for now := int64(1); c.Retired < instsPerApp; now++ {
			c.Tick(now)
			cpuTicks++
		}
		cpuTime += time.Since(start)
	}
	res.cpuTickNs = perOp(cpuTime, cpuTicks)

	// cache: the traces' addresses, cores interleaved, through Access / Tick
	// / Fill; the stub memory returns every line after a fixed delay.
	var now int64
	mem := &delayMem{now: &now}
	llc := cache.New(cache.DefaultConfig(), mem, len(apps))
	llc.Prefill(mapper.Bits()-6, 0.25, seed)
	done := func(int64) {}
	deliver := func() {
		for len(mem.fills) > 0 && mem.fills[0].cycle+ladderFillCPU <= now {
			llc.Fill(now, mem.fills[0].line)
			mem.fills = mem.fills[1:]
		}
		llc.Tick(now)
	}
	var attempts, rejects int
	start := time.Now()
	for k := 0; ; k++ {
		live := false
		for i := range apps {
			if k >= len(recs[i]) {
				continue
			}
			live = true
			r := recs[i][k]
			now += 1 + int64(r.Bubbles)/int64(4*len(apps))
			deliver()
			addr := xlat.Translate(i, r.Addr)
			for {
				attempts++
				if ok, _ := llc.Access(now, i, addr, r.Write, done); ok {
					break
				}
				// MSHRs full: wait for the oldest fill.
				rejects++
				if len(mem.fills) == 0 {
					return res, fmt.Errorf("ladder: the LLC rejected an access with no fill outstanding")
				}
				if due := mem.fills[0].cycle + ladderFillCPU; due > now {
					now = due
				}
				deliver()
			}
		}
		if !live {
			break
		}
	}
	cacheTime := time.Since(start)
	res.cacheAccessNs = perOp(cacheTime, attempts)
	res.cacheRejectRatio = ratio(float64(rejects), float64(attempts))
	res.cacheHitRatio = ratio(float64(llc.Stats.Hits), float64(llc.Stats.Accesses))
	recs = nil

	// ctrl: the captured stream into one controller per channel, arrival
	// times kept (CPU cycles → DRAM cycles at LPDDR4's 2:5), idle gaps
	// skipped through NextEvent as the simulator's run loop does.
	mech := core.NewCROWShared(ladderChannels, geo, tim, 1)
	mech.Cache = true
	room := ladderMaxCmds
	ctrls := make([]*ctrl.Controller, ladderChannels)
	recorders := make([]*cmdRecorder, ladderChannels)
	for ch := range ctrls {
		ctrls[ch] = ctrl.New(ctrl.DefaultConfig(ch, geo, tim), mech)
		recorders[ch] = &cmdRecorder{room: &room}
		ctrls[ch].Dev.Attach(recorders[ch])
	}
	var readsDone, readsSent, enq, enqRejects, ticks int
	onRead := func(int64, uint64) { readsDone++ }
	idle := func() bool {
		for _, c := range ctrls {
			if !c.Idle() {
				return false
			}
		}
		return true
	}
	var dnow int64
	next := 0
	start = time.Now()
	for limit := int64(1) << 40; (next < len(mem.stream) || readsDone < readsSent || !idle()) && dnow < limit; {
		for next < len(mem.stream) && mem.stream[next].cycle*2/5 <= dnow {
			m := mem.stream[next]
			a := mapper.Decode(m.line)
			c := ctrls[a.Channel]
			r := c.GetRequest()
			r.Addr, r.Line = a, m.line
			enq++
			var ok bool
			if m.write {
				r.Type = ctrl.Write
				ok = c.EnqueueWrite(r, dnow)
			} else {
				r.Type, r.Done = ctrl.Read, onRead
				ok = c.EnqueueRead(r, dnow)
			}
			if !ok {
				c.PutRequest(r)
				enqRejects++
				break // the queue is full: retry next cycle, in order
			}
			if !m.write {
				readsSent++
			}
			next++
		}
		dnow++
		for _, c := range ctrls {
			c.Tick(dnow)
		}
		ticks += len(ctrls)
		if next < len(mem.stream) && mem.stream[next].cycle*2/5 > dnow {
			wake := mem.stream[next].cycle * 2 / 5
			for _, c := range ctrls {
				if e := c.NextEvent(dnow); e < wake {
					wake = e
				}
			}
			if wake-1 > dnow {
				dnow = wake - 1
			}
		}
	}
	ctrlTime := time.Since(start)
	if readsDone < readsSent {
		return res, fmt.Errorf("ladder: only %d of %d replayed reads completed", readsDone, readsSent)
	}
	res.ctrlReqNs = perOp(ctrlTime, len(mem.stream))
	res.ctrlTickNs = perOp(ctrlTime, ticks)
	res.ctrlRejectRatio = ratio(float64(enqRejects), float64(enq))
	var hits, misses int64
	for _, c := range ctrls {
		hits += c.Stats.RowHits
		misses += c.Stats.RowMisses
	}
	res.rowHitRatio = ratio(float64(hits), float64(hits+misses))
	res.tableHitRatio = mech.Stats.HitRate()
	refMult := mech.RefreshMultiplier()
	mem.stream = nil

	// ctrl, empty queues: one read served, then ticks with nothing to do.
	{
		c := ctrl.New(ctrl.DefaultConfig(0, geo, tim), &core.Baseline{T: tim})
		served := false
		r := c.GetRequest()
		r.Type, r.Addr = ctrl.Read, dram.Addr{Row: 5}
		r.Done = func(int64, uint64) { served = true }
		c.EnqueueRead(r, 0)
		t := int64(0)
		for !served && t < 1<<20 {
			t++
			c.Tick(t)
		}
		start := time.Now()
		for i := 0; i < ladderIdleTick; i++ {
			t++
			c.Tick(t)
		}
		res.ctrlIdleTickNs = perOp(time.Since(start), ladderIdleTick)
	}

	// dram: the recorded commands re-issued to bare channels, then again
	// with the oracle attached; the difference is the oracle's cost.
	for _, r := range recorders {
		res.dramCommands += len(r.events)
	}
	replay := func(orc *oracle.Oracle) time.Duration {
		var total time.Duration
		for ch, r := range recorders {
			dev := dram.NewChannel(geo, tim)
			if orc != nil {
				dev.Attach(orc.Observer(ch))
			}
			start := time.Now()
			for _, e := range r.events {
				dev.Tick(e.Cycle)
				switch {
				case e.Cmd.IsACT():
					dev.ACT(e.Addr, e.Cycle, e.Kind, e.Plan, e.CopyRow)
				case e.Cmd == dram.CmdRD:
					dev.RD(e.Addr, e.Cycle)
				case e.Cmd == dram.CmdWR:
					dev.WR(e.Addr, e.Cycle)
				case e.Cmd == dram.CmdPRE:
					dev.PRE(e.Addr, e.Cycle)
				case e.Cmd == dram.CmdREF:
					dev.REF(e.Addr.Rank, e.Cycle)
				case e.Cmd == dram.CmdREFpb:
					dev.REFpb(e.Addr.Rank, e.Addr.Bank, e.Cycle)
				}
			}
			total += time.Since(start)
		}
		return total
	}
	bare := replay(nil)
	orc := oracle.New(oracle.Config{
		Channels: ladderChannels, Geo: geo, T: tim, Cap: 16,
		DataChecks: true, RefreshMultiplier: refMult,
	})
	watched := replay(orc)
	res.dramCmdNs = perOp(bare, res.dramCommands)
	if added := perOp(watched-bare, res.dramCommands); added > 0 {
		res.oracleCmdNsAdded = added
	}
	res.oracleViolations = orc.Findings().Total()
	return res, nil
}

func perOp(d time.Duration, n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
