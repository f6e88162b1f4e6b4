package ctrl

import (
	"testing"

	"crowdram/internal/core"
	"crowdram/internal/dram"
)

// BenchmarkReadStream measures the controller's full per-read cost — pooled
// request, enqueue, FR-FCFS scheduling, completion event — on a row-hit
// heavy stream. Run with -benchmem: the steady state must not allocate.
func BenchmarkReadStream(b *testing.B) {
	c, _ := newBenchBaseline()
	now := int64(0)
	done := 0
	cb := func(int64, uint64) { done++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := c.GetRequest()
		r.Type = Read
		r.Addr = dram.Addr{Row: 5, Col: i % 128}
		r.Done = cb
		for !c.EnqueueRead(r, now) {
			now++
			c.Tick(now)
		}
		now++
		c.Tick(now)
	}
	b.StopTimer()
	for target := b.N; done < target && now < int64(1<<40); {
		now++
		c.Tick(now)
	}
	if done < b.N {
		b.Fatalf("only %d/%d reads completed", done, b.N)
	}
}

// BenchmarkIdleTick measures ticks with empty queues after one read: a
// timeout close of the open row, then nothing before the wake-up cycle (the
// next refresh deadline), so nearly every tick is the guard's one comparison.
func BenchmarkIdleTick(b *testing.B) {
	c, _ := newBenchBaseline()
	done := false
	r := c.GetRequest()
	r.Type = Read
	r.Addr = dram.Addr{Row: 5}
	r.Done = func(int64, uint64) { done = true }
	c.EnqueueRead(r, 0)
	now := int64(0)
	for !done {
		now++
		c.Tick(now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now++
		c.Tick(now)
	}
}

// BenchmarkNextEvent measures the idle-skip query the run loop issues
// whenever every core stalls.
func BenchmarkNextEvent(b *testing.B) {
	c, _ := newBenchBaseline()
	var sink int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = c.NextEvent(int64(i))
	}
	_ = sink
}

func newBenchBaseline() (*Controller, dram.Timing) {
	g := dram.Std(0)
	t := dram.LPDDR4(dram.Density8Gb, 64, g)
	return New(DefaultConfig(0, g, t), &core.Baseline{T: t}), t
}

// BenchmarkSchedulePass measures one scheduling pass over the state a
// saturated channel presents: both queues full (so write-drain mode), a row
// open in each of the eight banks, a refresh owed and waiting on them. The
// pass is timed on the cycle a command has just issued — the command bus is
// busy, so it examines every queued request, finds each blocked, and issues
// nothing; the same pass repeats exactly. Run with -benchmem: the pass must
// not allocate.
func BenchmarkSchedulePass(b *testing.B) {
	c, _ := newBenchBaseline()
	fill := func(now int64) {
		for i := 0; len(c.readQ) < c.Cfg.ReadQ || len(c.writeQ) < c.Cfg.WriteQ; i++ {
			// Per bank: hits on row 0, conflicts in its subarray and in two others.
			r := c.GetRequest()
			r.Addr = dram.Addr{Bank: i % 8, Row: i / 8 % 4 * 257, Col: i % 128}
			enqueue := c.EnqueueRead
			if r.Type = ReqType(i / 32 % 2); r.Type == Write {
				enqueue = c.EnqueueWrite
			}
			if !enqueue(r, now) {
				c.PutRequest(r)
			}
		}
	}
	cmds := func() int64 { s := &c.Dev.Stats; return s.Activations() + s.PRE + s.RD + s.WR }
	now := int64(0)
	for issued := false; !issued || len(c.Dev.Open()) < 8; {
		if now++; now > 100_000 {
			b.Fatal("no cycle with eight open rows and a command just issued")
		}
		fill(now)
		before := cmds()
		c.Tick(now)
		issued = cmds() != before
	}
	fill(now)
	c.refDone[0]--
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.schedulePass(now) {
			b.Fatal("a command issued behind a busy command bus")
		}
	}
}
