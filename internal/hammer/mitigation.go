package hammer

import (
	"fmt"

	"crowdram/internal/core"
	"crowdram/internal/dram"
)

// MitConfig carries everything a mitigation may need.
type MitConfig struct {
	Channels int
	Geo      dram.Geometry
	Seed     int64
	// ParaPerMille is PARA's per-activation neighbour-refresh probability
	// in 1/1000ths (5 = 0.5%).
	ParaPerMille int
	// RefreshScale divides the refresh interval (4 = 4x refresh rate).
	RefreshScale int
	// HammerThreshold is the CROW-hammer remap trigger (activations per
	// refresh window).
	HammerThreshold int
}

// mitigations lists the names NewMitigation's switch builds, sorted. To add
// one, add the name here and a case there: TestMitigationRegistry builds
// every listed name.
var mitigations = []string{"crow-hammer", "none", "para", "refresh-scale"}

// MitigationNames lists the mitigations, sorted.
func MitigationNames() []string { return append([]string(nil), mitigations...) }

// CheckMitigation validates a mitigation name without instantiating it.
func CheckMitigation(name string) error {
	for _, n := range mitigations {
		if n == name {
			return nil
		}
	}
	return fmt.Errorf("unknown mitigation %q (have %v)", name, mitigations)
}

// NewMitigation builds the named mitigation around an inner mechanism: it may
// wrap the mechanism (PARA, refresh scaling) or configure and return it
// unchanged (CROW-hammer, which lives inside core.CROW).
func NewMitigation(name string, cfg MitConfig, inner core.Mechanism) (core.Mechanism, error) {
	switch name {
	case "none":
		return inner, nil
	case "para":
		if cfg.ParaPerMille <= 0 || cfg.ParaPerMille > 1000 {
			return nil, fmt.Errorf("para: probability %d/1000 out of range (0, 1000]", cfg.ParaPerMille)
		}
		return newShield(cfg, inner, cfg.ParaPerMille, 1), nil
	case "refresh-scale":
		if cfg.RefreshScale < 2 {
			return nil, fmt.Errorf("refresh-scale: divisor %d must be >= 2", cfg.RefreshScale)
		}
		return newShield(cfg, inner, 0, cfg.RefreshScale), nil
	case "crow-hammer":
		cw, ok := inner.(*core.CROW)
		if !ok {
			return nil, fmt.Errorf("crow-hammer: requires a crow-* mechanism (have %T)", inner)
		}
		if cfg.HammerThreshold > 0 {
			cw.HammerThreshold = cfg.HammerThreshold
		}
		if cw.HammerThreshold <= 0 {
			return nil, fmt.Errorf("crow-hammer: hammer threshold must be positive")
		}
		return inner, nil
	default:
		return nil, fmt.Errorf("unknown mitigation %q (have %v)", name, mitigations)
	}
}

// Shield wraps a mechanism with controller-side RowHammer countermeasures:
// PARA's probabilistic neighbour refresh (each activation enqueues a
// neighbour-row refresh activation with probability paraPerMille/1000,
// drained through the controller's mechanism-copy path) and/or a scaled
// refresh rate (RefreshDivisor shortens the controller's REF interval).
// All delegation preserves the inner mechanism's behavior; Unwrap exposes it
// to core.Unwrap. Shield declares every
// core.Mechanism method itself (no embedded core.NoOps), so a method added to
// the contract and not forwarded here fails to compile.
type Shield struct {
	inner core.Mechanism
	seed  int64
	geo   dram.Geometry

	paraPerMille int
	refreshDiv   int

	chans []shieldChan
}

type shieldChan struct {
	draws uint64
	queue []core.CopyOp
}

func newShield(cfg MitConfig, inner core.Mechanism, paraPerMille, refreshDiv int) *Shield {
	return &Shield{
		inner:        inner,
		seed:         cfg.Seed,
		geo:          cfg.Geo,
		paraPerMille: paraPerMille,
		refreshDiv:   refreshDiv,
		chans:        make([]shieldChan, cfg.Channels),
	}
}

// Unwrap exposes the wrapped mechanism (core.Unwrap walks it).
func (s *Shield) Unwrap() core.Mechanism { return s.inner }

// PlanActivate implements core.Mechanism, delegating unchanged.
func (s *Shield) PlanActivate(a dram.Addr, cycle int64) core.ActDecision {
	return s.inner.PlanActivate(a, cycle)
}

// RestoresAcrossSubarrays implements core.Mechanism, delegating unchanged.
func (s *Shield) RestoresAcrossSubarrays() bool { return s.inner.RestoresAcrossSubarrays() }

// OnActivate implements core.Mechanism: after delegating, PARA draws once
// per regular-row activation and, on a hit, enqueues a refresh activation of
// a random immediate neighbour. The draw is a seeded hash of a per-channel
// counter, so runs are deterministic.
func (s *Shield) OnActivate(a dram.Addr, d core.ActDecision, cycle int64) {
	s.inner.OnActivate(a, d, cycle)
	if s.paraPerMille == 0 || d.Kind == dram.ActCopyRow {
		return
	}
	c := &s.chans[a.Channel]
	c.draws++
	h := mix(uint64(s.seed) ^ uint64(a.Channel)<<56 ^ c.draws)
	if h%1000 >= uint64(s.paraPerMille) {
		return
	}
	row := a.Row - 1
	if (h>>32)&1 == 1 {
		row = a.Row + 1
	}
	if row < 0 || row >= s.geo.RowsPerBank {
		return
	}
	c.queue = append(c.queue, core.CopyOp{
		Addr: dram.Addr{Channel: a.Channel, Rank: a.Rank, Bank: a.Bank, Row: row},
		Kind: dram.ActSingle,
	})
}

// OnPrecharge implements core.Mechanism.
func (s *Shield) OnPrecharge(a dram.Addr, openRow int, fullyRestored bool, cycle int64) {
	s.inner.OnPrecharge(a, openRow, fullyRestored, cycle)
}

// OnRefreshRows implements core.Mechanism.
func (s *Shield) OnRefreshRows(channel, rank, lo, hi, startRow, n int, cycle int64) {
	s.inner.OnRefreshRows(channel, rank, lo, hi, startRow, n, cycle)
}

// RefreshMultiplier implements core.Mechanism, delegating unchanged (the
// refresh-scale divisor is a separate hook, RefreshDivisor).
func (s *Shield) RefreshMultiplier() int { return s.inner.RefreshMultiplier() }

// RefreshDivisor implements core.Mechanism: the refresh-scale factor (1 under
// PARA) on top of whatever the inner mechanism asks for.
func (s *Shield) RefreshDivisor() int { return s.refreshDiv * s.inner.RefreshDivisor() }

// NextCopy implements core.Mechanism: it drains the inner mechanism's ops
// first, then PARA's pending neighbour refreshes, each counted as a
// TableNeighborRefresh in the inner mechanism's counters.
func (s *Shield) NextCopy(channel int, cycle int64) (core.CopyOp, bool) {
	if op, ok := s.inner.NextCopy(channel, cycle); ok {
		return op, true
	}
	c := &s.chans[channel]
	if len(c.queue) == 0 {
		return core.CopyOp{}, false
	}
	op := c.queue[0]
	c.queue = c.queue[1:]
	s.inner.Counters().Count(core.TableNeighborRefresh, op.Addr, -1, cycle)
	return op, true
}

// Counters implements core.Mechanism, delegating: the shield counts into the
// wrapped mechanism's counters.
func (s *Shield) Counters() *core.Tally { return s.inner.Counters() }
