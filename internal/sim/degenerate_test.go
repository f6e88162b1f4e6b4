package sim

import (
	"reflect"
	"strings"
	"testing"

	"crowdram/internal/chargecache"
	"crowdram/internal/core"
	"crowdram/internal/dram"
	"crowdram/internal/retention"
	"crowdram/internal/tldram"
	"crowdram/internal/trace"
)

// degenerate is one side of a TestDegenerateConfigsMatch row: the system
// crow.Options would build, and the mechanism it runs.
type degenerate struct {
	copyRows    int
	windowMS    float64 // refresh window; 0 is 64 ms
	oneSubarray bool    // one subarray a bank
	masa        bool
	mech        func(Config) core.Mechanism
}

func baselineMech(cfg Config) core.Mechanism { return &core.Baseline{T: cfg.T} }

// TestDegenerateConfigsMatch holds identities that need no number from the
// paper: a mechanism in its null configuration is the baseline it extends, so
// both sides of a row must produce the same Result — every stat and Cycles —
// on a four-core mix. A row that does not hold is asserted inverted: either it
// names a finding of the model (ROADMAP item 2), or it is an exception whose
// comment says why the pair differs by design. Either way, a change that
// turns it straight fails here and must turn the row straight with it.
//
// Two candidate identities have no row, because their constructors refuse the
// zero: PARA at probability 0 (hammer.NewMitigation wants (0, 1000]) and a
// refresh-scale divisor of 1 (it wants >= 2).
func TestDegenerateConfigsMatch(t *testing.T) {
	rows := []struct {
		name string
		a, b degenerate
		// inverted, when set, names why the pair differs: a finding, or
		// "exception:" and the design reason.
		inverted string
		// missesAll marks a side a that counts every activation a table
		// miss, its hit rate's denominator: the row checks that count
		// against the device's and compares the rest.
		missesAll bool
	}{
		{
			// A conventional bank does not overlap a precharge with the
			// next activation, however many subarrays it has.
			name: "baseline-128-subarrays=baseline-1",
			a:    degenerate{mech: baselineMech},
			b:    degenerate{oneSubarray: true, mech: baselineMech},
		},
		{
			// With one subarray a bank there is nothing for MASA to
			// overlap.
			name: "salp-masa-1=baseline-1",
			a:    degenerate{oneSubarray: true, masa: true, mech: baselineMech},
			b:    degenerate{oneSubarray: true, mech: baselineMech},
		},
		{
			name: "tl-dram-0=baseline",
			a: degenerate{mech: func(c Config) core.Mechanism {
				return tldram.New(c.Channels, c.Geo, c.T, 0)
			}},
			b:         degenerate{mech: baselineMech},
			inverted:  "exception: a far-segment activation pays the isolation transistor's tRCD/tRAS penalty at any near-segment size",
			missesAll: true,
		},
		{
			name: "chargecache-0=baseline",
			a: degenerate{mech: func(c Config) core.Mechanism {
				return chargecache.New(c.Channels, c.T, 0)
			}},
			b:         degenerate{mech: baselineMech},
			missesAll: true,
		},
		{
			// RAIDR refreshes its weak rows individually and every other
			// row at a doubled window.
			name: "raidr-empty=baseline-2x-window",
			a: degenerate{mech: func(c Config) core.Mechanism {
				return core.NewRAIDR(c.Channels, c.Geo, c.T, emptyProfile(c))
			}},
			b: degenerate{windowMS: 128, mech: baselineMech},
		},
		{
			// CROW-ref with nothing to remap only extends the window.
			name: "crow-ref-empty=baseline-2x-window",
			a: degenerate{copyRows: 8, mech: func(c Config) core.Mechanism {
				m := core.NewCROW(c.Channels, c.Geo, c.T)
				m.Ref = true
				m.LoadProfile(emptyProfile(c))
				return m
			}},
			b: degenerate{windowMS: 128, mech: baselineMech},
		},
	}
	for _, std := range []string{"lpddr4", "hbm2"} {
		for _, row := range rows {
			t.Run(std+"/"+row.name, func(t *testing.T) {
				t.Parallel()
				a, b := runDegenerate(t, std, row.a), runDegenerate(t, std, row.b)
				if row.missesAll {
					if m, acts := a.Mech[core.TableMiss], a.DRAM.Activations(); m != acts {
						t.Errorf("%d table misses for %d activations", m, acts)
					}
					a.Mech[core.TableMiss] = 0
				}
				diff := resultDiff(a, b)
				switch {
				case row.inverted == "" && len(diff) > 0:
					t.Errorf("the pair differs in %s (cycles %d vs %d)", strings.Join(diff, ", "), a.Cycles, b.Cycles)
				case row.inverted != "" && len(diff) == 0:
					t.Errorf("the pair now matches: turn the row straight (%s)", row.inverted)
				case row.inverted != "":
					t.Logf("inverted, %s: cycles %d vs %d", row.inverted, a.Cycles, b.Cycles)
				}
			})
		}
	}
}

// runDegenerate runs one side of a row on the four-core mix ROADMAP item 13
// measured (mcf, lbm, libq, omnetpp) under the named standard.
func runDegenerate(t *testing.T, std string, d degenerate) Result {
	window := d.windowMS
	if window == 0 {
		window = 64
	}
	cfg := DefaultFor(mustStandard(t, std), d.copyRows, dram.Density8Gb, window)
	cfg.WarmupInsts = 5_000
	cfg.MeasureInsts = 40_000
	if d.oneSubarray {
		cfg.Geo.RowsPerSubarray = cfg.Geo.RowsPerBank
	}
	cfg.Ctrl.MASA = d.masa
	var gens []trace.Generator
	for i, w := range []string{"mcf", "lbm", "libq", "omnetpp"} {
		gens = append(gens, gen(w, int64(i+1), t))
	}
	return New(cfg, d.mech(cfg), gens).Run()
}

// emptyProfile is a retention profile with no weak row.
func emptyProfile(c Config) *retention.Profile {
	return retention.FixedProfile(retention.Geometry{
		Channels: c.Channels, Ranks: c.Geo.Ranks, Banks: c.Geo.Banks,
		Subarrays: c.Geo.SubarraysPerBank(), RowsPerSubarray: c.Geo.RowsPerSubarray,
	}, 0, 1)
}

// resultDiff names the fields of Result in which a and b differ.
func resultDiff(a, b Result) []string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	var diff []string
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			diff = append(diff, va.Type().Field(i).Name)
		}
	}
	return diff
}
