// Package energy estimates DRAM energy consumption from command counts and
// state-residency statistics, in the style of DRAMPower [5], which the paper
// uses. Energies are computed from datasheet-style IDD currents; absolute
// values are approximations for an LPDDR4-3200 x32 channel, but the figures
// only use ratios between configurations.
package energy

import (
	"crowdram/internal/circuit"
	"crowdram/internal/dram"
)

// Params holds the current/voltage operating points of one channel
// (two ganged x16 LPDDR4 devices treated as a single x32 unit).
type Params struct {
	VDD float64 // volts

	// IDD currents in milliamps.
	IDD0  float64 // one-bank activate-precharge
	IDD2N float64 // precharge standby (all banks closed)
	IDD3N float64 // active standby (one bank open)
	IDD4R float64 // burst read
	IDD4W float64 // burst write
	IDD5  float64 // refresh

	// MRAFactor scales activation energy for CROW's two-row commands
	// (+5.8 % per the paper's Figure 7).
	MRAFactor float64
}

// DefaultParams returns the LPDDR4 operating point used throughout. The
// IDD3N/IDD2N ratio of 1.109 matches the paper's observation that an idle
// chip with one open bank draws 10.9 % more current (Section 8.1.4).
func DefaultParams() Params {
	return Params{
		VDD:       1.1,
		IDD0:      60,
		IDD2N:     30,
		IDD3N:     33.27,
		IDD4R:     150,
		IDD4W:     160,
		IDD5:      230,
		MRAFactor: circuit.MRAPowerFactor(2),
	}
}

// Breakdown is the per-component DRAM energy of one channel, in nanojoules.
type Breakdown struct {
	ActPre     float64 // activate + precharge pairs
	Read       float64
	Write      float64
	Refresh    float64
	Background float64
	// ExtraOpenStandby is the part of Background caused by additional
	// concurrently-open row buffers beyond the first per channel
	// (significant for SALP's open-page operation).
	ExtraOpenStandby float64
}

// Total returns the channel's total energy in nanojoules.
func (b Breakdown) Total() float64 {
	return b.ActPre + b.Read + b.Write + b.Refresh + b.Background
}

// Compute derives the energy breakdown of one channel of banks banks per rank
// from its command statistics over `cycles` DRAM clock cycles.
func Compute(s dram.Stats, t dram.Timing, banks int, cycles int64, p Params) Breakdown {
	ns := func(c int64) float64 { return float64(c) * t.CycleTime() }
	mWtoNJ := func(mA float64, dur float64) float64 { return mA * p.VDD * dur * 1e-3 }

	var b Breakdown

	// Activate-precharge energy, DRAMPower-style: the IDD0 envelope minus
	// the standby currents the background term already accounts for,
	// integrated over each activation's actual restore window. CROW's
	// early-terminated activations restore less charge and therefore
	// consume proportionally less (Section 4.1.3); its two-wordline
	// commands cost an extra 5.8 % (Figure 7).
	singles := float64(s.ACT + s.ACTCopyRow)
	mras := float64(s.ACTTwo + s.ACTCopy)
	rasSingle := s.ActRasSingle
	if rasSingle == 0 {
		rasSingle = (s.ACT + s.ACTCopyRow) * int64(t.RAS)
	}
	rasMRA := s.ActRasMRA
	if rasMRA == 0 {
		rasMRA = (s.ACTTwo + s.ACTCopy) * int64(t.RAS)
	}
	restore := mWtoNJ(p.IDD0-p.IDD3N, ns(rasSingle)) + mWtoNJ(p.IDD0-p.IDD3N, ns(rasMRA))*p.MRAFactor
	precharge := mWtoNJ(p.IDD0-p.IDD2N, ns(int64(t.RP))) * (singles + mras*p.MRAFactor)
	b.ActPre = restore + precharge

	// Column accesses: burst current above active standby for tBL.
	b.Read = mWtoNJ(p.IDD4R-p.IDD3N, ns(int64(t.BL))) * float64(s.RD)
	b.Write = mWtoNJ(p.IDD4W-p.IDD3N, ns(int64(t.BL))) * float64(s.WR)

	// Refresh: elevated current for tRFC per REFab command; a REFpb
	// refreshes one bank's share of the rows for that share of the energy.
	b.Refresh = mWtoNJ(p.IDD5-p.IDD2N, ns(int64(t.RFC))) * float64(s.REF)
	b.Refresh += mWtoNJ(p.IDD5-p.IDD2N, ns(int64(t.RFC))) / float64(banks) * float64(s.REFpb)

	// Background: precharge standby everywhere, plus the active-standby
	// increment for every concurrently-open local row buffer. Charging
	// per open buffer naturally captures SALP's multi-open-row static
	// power penalty.
	b.Background = mWtoNJ(p.IDD2N, ns(cycles)) +
		mWtoNJ(p.IDD3N-p.IDD2N, ns(s.OpenBufferCycles))
	extra := s.OpenBufferCycles - s.ActiveStandbyCycles
	if extra > 0 {
		b.ExtraOpenStandby = mWtoNJ(p.IDD3N-p.IDD2N, ns(extra))
	}
	return b
}
