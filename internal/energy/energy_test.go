package energy

import (
	"testing"
	"testing/quick"

	"crowdram/internal/dram"
	"crowdram/internal/metrics"
)

func baseTiming() dram.Timing { return dram.LPDDR4(dram.Density8Gb, 64, dram.Std(8)) }

func TestDefaultParamsRatio(t *testing.T) {
	p := DefaultParams()
	ratio := p.IDD3N / p.IDD2N
	if ratio < 1.10 || ratio > 1.12 {
		t.Errorf("IDD3N/IDD2N = %.3f, want ≈ 1.109 (paper: +10.9%% with one open bank)", ratio)
	}
	if p.MRAFactor < 1.05 || p.MRAFactor > 1.07 {
		t.Errorf("MRAFactor = %.3f, want 1.058", p.MRAFactor)
	}
}

func TestComputeComponents(t *testing.T) {
	tm := baseTiming()
	p := DefaultParams()
	s := dram.Stats{ACT: 100, RD: 500, WR: 200, REF: 10, OpenBufferCycles: 5000, ActiveStandbyCycles: 5000}
	b := Compute(s, tm, 8, 100000, p)
	if b.ActPre <= 0 || b.Read <= 0 || b.Write <= 0 || b.Refresh <= 0 || b.Background <= 0 {
		t.Errorf("all components must be positive: %+v", b)
	}
	if b.ExtraOpenStandby != 0 {
		t.Errorf("no extra open standby when open==active cycles: %+v", b)
	}
	sum := b.ActPre + b.Read + b.Write + b.Refresh + b.Background
	if b.Total() != sum {
		t.Errorf("Total() = %f, want %f", b.Total(), sum)
	}
}

func TestMRACommandsCostMore(t *testing.T) {
	tm := baseTiming()
	p := DefaultParams()
	plain := Compute(dram.Stats{ACT: 100}, tm, 8, 1000, p)
	mra := Compute(dram.Stats{ACTTwo: 100}, tm, 8, 1000, p)
	ratio := mra.ActPre / plain.ActPre
	if ratio < 1.05 || ratio > 1.07 {
		t.Errorf("ACT-t energy ratio = %.3f, want 1.058", ratio)
	}
	// Remap single activations of copy rows cost the same as ACT.
	remap := Compute(dram.Stats{ACTCopyRow: 100}, tm, 8, 1000, p)
	if remap.ActPre != plain.ActPre {
		t.Error("ACT of a copy row alone must cost the same as a plain ACT")
	}
}

func TestRefreshEnergyScalesWithDensityAndCount(t *testing.T) {
	p := DefaultParams()
	small := Compute(dram.Stats{REF: 100}, dram.LPDDR4(dram.Density8Gb, 64, dram.Std(8)), 8, 1000, p)
	big := Compute(dram.Stats{REF: 100}, dram.LPDDR4(dram.Density64Gb, 64, dram.Std(8)), 8, 1000, p)
	if big.Refresh <= small.Refresh {
		t.Error("higher density (longer tRFC) must increase per-REF energy")
	}
	half := Compute(dram.Stats{REF: 50}, dram.LPDDR4(dram.Density8Gb, 64, dram.Std(8)), 8, 1000, p)
	if half.Refresh*2 != small.Refresh {
		t.Error("refresh energy must be linear in REF count")
	}
}

func TestSALPExtraOpenBuffersCost(t *testing.T) {
	tm := baseTiming()
	p := DefaultParams()
	// Two buffers open for the whole interval vs one.
	one := Compute(dram.Stats{OpenBufferCycles: 1000, ActiveStandbyCycles: 1000}, tm, 8, 1000, p)
	two := Compute(dram.Stats{OpenBufferCycles: 2000, ActiveStandbyCycles: 1000}, tm, 8, 1000, p)
	if two.Background <= one.Background {
		t.Error("each concurrently-open buffer must add static power")
	}
	if two.ExtraOpenStandby <= 0 {
		t.Error("extra open standby must be attributed")
	}
}

func TestAdd(t *testing.T) {
	a := Breakdown{ActPre: 1, Read: 2, Write: 3, Refresh: 4, Background: 5, ExtraOpenStandby: 1}
	b := metrics.Add(a, a)
	if b.Total() != 2*a.Total() || b.ExtraOpenStandby != 2 {
		t.Errorf("Add broken: %+v", b)
	}
}

// TestEnergyMonotonicInCounts: more commands never reduce energy.
func TestEnergyMonotonicInCounts(t *testing.T) {
	tm := baseTiming()
	p := DefaultParams()
	f := func(act, rd, wr, ref uint16) bool {
		s := dram.Stats{ACT: int64(act), RD: int64(rd), WR: int64(wr), REF: int64(ref)}
		s2 := s
		s2.ACT++
		s2.RD++
		b := Compute(s, tm, 8, 1e6, p)
		b2 := Compute(s2, tm, 8, 1e6, p)
		return b2.Total() > b.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
