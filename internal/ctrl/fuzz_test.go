package ctrl

import (
	"slices"
	"testing"

	"crowdram/internal/core"
	"crowdram/internal/dram"
)

// A schedule script is four configuration bytes followed by two-byte steps.
//
//	data[0]  scheduler (bits 0-1), row policy (2-3), refresh policy (4-5), MASA (7)
//	data[1]  hit cap 1..4 (bits 0-1), refresh postponement 0..8 (2-5)
//	data[2]  queue capacity 2..17, both queues
//	data[3]  mechanism (fuzzMechs): baseline, crow-cache, crow-cache with eager
//	         restore, the same over a CROW-table shared by four subarrays
//
// A step's first byte picks the kind (bits 0-1: read, write, prefetch, gap), the
// bank (2-3), one of four hot rows (4-5: two in one subarray, two in further
// subarrays of one sharing group) and one of four columns (6-7), so hits,
// conflicts in and across subarrays, cap recycles and forwards all occur. The
// second byte is how long to tick afterwards: 0-7 cycles after a request
// (bits 0-2; 0 makes a burst), 8 × the byte for a gap — long enough for
// timeouts, refreshes and their postponement. Bit 3 of a read's second byte
// makes its completion callback enqueue a write-back to the row it read.
const (
	stepRead = iota
	stepWrite
	stepPrefetch
	stepGap
)

var fuzzRows = [4]int{0, 1, 512, 1024 + 3}

// step builds one request step; gap builds one gap step.
func step(kind, bank, row, col, after int, writeBack bool) []byte {
	b := byte(after & 7)
	if writeBack {
		b |= 8
	}
	return []byte{byte(kind | bank<<2 | row<<4 | col<<6), b}
}

func gap(cycles int) []byte { return []byte{stepGap, byte(cycles / 8)} }

func script(cfg [4]byte, steps ...[]byte) []byte {
	data := cfg[:]
	for _, s := range steps {
		data = append(data, s...)
	}
	return data
}

// config builds the four configuration bytes from policy names; mech indexes
// fuzzMechs.
func config(sched, rowPolicy, refresh string, masa bool, hitCap, postpone, queue, mech int) [4]byte {
	b0 := slices.Index(SchedulerNames(), sched) | slices.Index(RowPolicyNames(), rowPolicy)<<2 |
		slices.Index(sortedKeys(refreshPolicies), refresh)<<4
	if masa {
		b0 |= 1 << 7
	}
	return [4]byte{byte(b0), byte(hitCap - 1 | postpone<<2), byte(queue - 2), byte(mech)}
}

var fuzzMechs = []struct {
	copyRows, share int
	cache, eager    bool
}{{}, {2, 1, true, false}, {1, 1, true, true}, {1, 4, true, true}}

// driveSchedule runs one script against a controller with every self-check of
// the wake contract and the scheduling pass on (verifyWake) and the device's
// independent timing checker attached, ticking every cycle so each cycle the
// controller sleeps through is re-derived. The self-checks are the oracle: a
// skipped pass that was not a no-op, a request skipped as blocked that could
// have issued, a count or an open list that drifted from a scan, panic. On top
// of them every accepted read must complete, the queues must drain, and the
// command stream must be timing-clean.
func driveSchedule(t *testing.T, data []byte) {
	t.Helper()
	if len(data) < 4 {
		return
	}
	m := fuzzMechs[int(data[3])%len(fuzzMechs)]
	g := dram.Std(m.copyRows)
	tm := dram.LPDDR4(dram.Density8Gb, 8, g) // tREFI 1 562 cycles: gaps cross it
	var mech core.Mechanism = &core.Baseline{T: tm}
	if m.cache {
		cw := core.NewCROWShared(1, g, tm, m.share)
		cw.Cache, cw.EagerRestore = true, m.eager
		mech = cw
	}
	cfg := DefaultConfig(0, g, tm)
	scheds, rows, refs := SchedulerNames(), RowPolicyNames(), sortedKeys(refreshPolicies)
	cfg.Scheduler = scheds[int(data[0]&3)%len(scheds)]
	cfg.RowPolicy = rows[int(data[0]>>2&3)%len(rows)]
	cfg.Refresh = refs[int(data[0]>>4&3)%len(refs)]
	cfg.MASA = data[0]>>7 != 0
	cfg.Cap = 1 + int(data[1]&3)
	cfg.MaxPostpone = int(data[1]>>2&15) % 9
	cfg.ReadQ = 2 + int(data[2]&15)
	cfg.WriteQ = cfg.ReadQ
	c := New(cfg, mech)
	c.verifyWake = true
	k := dram.NewChecker(c.Dev)

	now := int64(0)
	tick := func(n int) {
		for ; n > 0; n-- {
			now++
			c.Tick(now)
		}
	}
	sent, done := 0, 0
	for i := 4; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		if op&3 == stepGap {
			tick(8 * int(arg))
			continue
		}
		a := dram.Addr{Bank: int(op >> 2 & 3), Row: fuzzRows[op>>4&3], Col: int(op >> 6)}
		r := c.GetRequest()
		r.Addr, r.Line = a, uint64(i)
		if op&3 == stepWrite {
			r.Type = Write
			if !c.EnqueueWrite(r, now) {
				c.PutRequest(r)
			}
		} else {
			r.Type, r.IsPref = Read, op&3 == stepPrefetch
			r.Done = func(at int64, _ uint64) {
				done++
				if arg&8 != 0 {
					w := c.GetRequest()
					w.Type, w.Addr = Write, dram.Addr{Bank: a.Bank, Row: a.Row, Col: 5}
					if !c.EnqueueWrite(w, at) {
						c.PutRequest(w)
					}
				}
			}
			if c.EnqueueRead(r, now) {
				sent++
			} else {
				c.PutRequest(r)
			}
		}
		tick(int(arg & 7))
	}
	for deadline := now + 200_000; !c.Idle() && now < deadline; {
		tick(1)
	}
	if !c.Idle() || done != sent {
		t.Fatalf("controller did not drain: idle=%v, %d of %d reads completed by cycle %d", c.Idle(), done, sent, now)
	}
	c.audit()
	for _, v := range k.Violations {
		t.Errorf("checker: %s", v)
	}
}

// FuzzSchedulePass fuzzes the scheduling pass's shortcuts against their own
// long way round (go test -fuzz=FuzzSchedulePass ./internal/ctrl).
func FuzzSchedulePass(f *testing.F) {
	rd := func(bank, row, col, after int) []byte { return step(stepRead, bank, row, col, after, false) }
	// A hit still under the cap, waiting for its column command, must not mark
	// its subarray blocked. Rows 0 of banks 0 and 1 are open and past tRAS; the
	// cycle after a read of bank 1 issues, tCCD holds back every hit, and the
	// read of bank 0's row 1 — younger than the hit on its row 0 — is entitled
	// to the precharge.
	f.Add(script(config("frfcfs-cap", "open", "allbank", false, 4, 0, 16, 0),
		rd(0, 0, 0, 7), gap(88), rd(1, 0, 0, 7), gap(88),
		rd(1, 0, 1, 0), rd(1, 0, 2, 0), rd(1, 0, 3, 0), rd(0, 0, 1, 0), rd(0, 1, 0, 0), gap(800)))
	// Restore-before-evict over a shared table: one copy row for four subarrays,
	// so a miss in subarray 1 or 2 restores (and resets the hit count of) a row
	// of another subarray, whose ACT can be ready when its own is not.
	f.Add(script(config("frfcfs-cap", "timeout", "allbank", false, 4, 0, 16, 3),
		rd(0, 0, 0, 7), rd(0, 2, 0, 7), step(stepWrite, 0, 3, 1, 7, false),
		rd(0, 0, 1, 0), rd(0, 3, 0, 0), rd(0, 2, 2, 0), gap(1600),
		rd(0, 1, 0, 0), rd(0, 2, 0, 3), rd(0, 0, 0, 0), gap(800)))
	// A write-back enqueued from inside a completion callback, on a cycle that
	// only the completion woke the controller for: the pass must run after all.
	f.Add(script(config("frfcfs-cap", "timeout", "allbank", false, 4, 0, 16, 0),
		step(stepRead, 1, 0, 0, 0, true), gap(400), step(stepRead, 1, 2, 3, 0, true), gap(2400)))
	// Full queues across several refresh intervals with postponement, per-bank
	// refresh, MASA under the open-page policy, FCFS under the closed one.
	burst := func(cfg [4]byte) []byte {
		var steps [][]byte
		for i := 0; i < 40; i++ {
			steps = append(steps, step(i%3, i%4, i/4%4, i/16%4, i%5/4, i%7 == 0))
			if i%13 == 12 {
				steps = append(steps, gap(1200))
			}
		}
		return script(cfg, append(steps, gap(2000))...)
	}
	f.Add(burst(config("frfcfs-cap", "timeout", "allbank", false, 4, 8, 4, 1)))
	f.Add(burst(config("frfcfs", "timeout", "perbank", false, 2, 0, 8, 2)))
	f.Add(burst(config("frfcfs", "open", "allbank", true, 3, 0, 16, 0)))
	f.Add(burst(config("fcfs", "closed", "samebank", false, 1, 4, 5, 3)))
	f.Fuzz(func(t *testing.T, data []byte) {
		driveSchedule(t, data)
	})
}
