package dram

import (
	"math"
	"testing"
)

// TestStandardTimingSanity checks cross-constraint invariants of every
// registered standard's timing table at every supported density: the clock
// ratio matches the cycle time, core timings are ordered sensibly, and the
// refresh schedule covers every row within the retention window. A new
// standard registered with an inconsistent table fails here before any
// simulation runs on it.
func TestStandardTimingSanity(t *testing.T) {
	const coreGHz = 4.0 // the simulator's fixed core clock
	densities := []Density{Density8Gb, Density16Gb, Density32Gb, Density64Gb}
	for _, name := range StandardNames() {
		std, err := StandardByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			if std.Name != name {
				t.Errorf("Name = %q, listed as %q", std.Name, name)
			}
			if std.CycleNs <= 0 {
				t.Fatalf("CycleNs = %v, want positive", std.CycleNs)
			}
			if std.Channels <= 0 {
				t.Errorf("Channels = %d, want positive", std.Channels)
			}
			if std.RefWindowMS <= 0 {
				t.Errorf("RefWindowMS = %v, want positive", std.RefWindowMS)
			}
			switch std.Refresh {
			case "allbank", "perbank", "samebank":
			default:
				t.Errorf("Refresh = %q, not a registered granularity", std.Refresh)
			}

			// The clock ratio and the cycle time must describe the same
			// clock: num command ticks per den core cycles.
			num, den := std.RatioNum, std.RatioDen
			if num <= 0 || den <= 0 || num > den {
				t.Fatalf("clock ratio = %d:%d, want 0 < num <= den", num, den)
			}
			cmdGHz := 1 / std.CycleNs
			if got, want := float64(num)/float64(den), cmdGHz/coreGHz; math.Abs(got-want) > 1e-9 {
				t.Errorf("clock ratio = %d:%d (%.6f), but CycleNs implies %.6f", num, den, got, want)
			}

			g := std.Geometry(8)
			if g.Ranks <= 0 || g.Banks <= 0 || g.RowsPerBank <= 0 {
				t.Fatalf("degenerate geometry %+v", g)
			}
			if g.RowsPerBank%g.RowsPerSubarray != 0 {
				t.Errorf("RowsPerBank %d not a multiple of RowsPerSubarray %d", g.RowsPerBank, g.RowsPerSubarray)
			}
			if g.ColumnsPerRow() <= 0 {
				t.Errorf("ColumnsPerRow() = %d, want positive", g.ColumnsPerRow())
			}

			for _, d := range densities {
				tm := std.Timing(d, std.RefWindowMS, g)
				if tm.CycleTime() != std.CycleNs {
					t.Errorf("density %d: CycleTime() = %v, standard says %v", d, tm.CycleTime(), std.CycleNs)
				}
				for _, f := range []struct {
					name string
					v    int
				}{
					{"RCD", tm.RCD}, {"RAS", tm.RAS}, {"RP", tm.RP}, {"WR", tm.WR},
					{"RTP", tm.RTP}, {"WTR", tm.WTR}, {"CCD", tm.CCD}, {"RRD", tm.RRD},
					{"FAW", tm.FAW}, {"CL", tm.CL}, {"CWL", tm.CWL}, {"BL", tm.BL},
					{"RFC", tm.RFC}, {"RFCpb", tm.RFCpb}, {"REFI", tm.REFI},
					{"RowsPerRef", tm.RowsPerRef},
				} {
					if f.v <= 0 {
						t.Errorf("density %d: %s = %d, want positive", d, f.name, f.v)
					}
				}
				// Ordering constraints every row-buffer DRAM obeys.
				if tm.RAS < tm.RCD {
					t.Errorf("density %d: tRAS %d < tRCD %d", d, tm.RAS, tm.RCD)
				}
				if tm.RFC < tm.RFCpb {
					t.Errorf("density %d: tRFC %d < tRFCpb %d", d, tm.RFC, tm.RFCpb)
				}
				if tm.FAW < tm.RRD {
					t.Errorf("density %d: tFAW %d < tRRD %d", d, tm.FAW, tm.RRD)
				}
				// Refresh must not saturate the device: each all-bank REF
				// finishes well before the next is due.
				if tm.REFI <= tm.RFC {
					t.Errorf("density %d: tREFI %d <= tRFC %d (refresh saturates)", d, tm.REFI, tm.RFC)
				}
				// The schedule covers every row: refsPerWindow commands fit
				// in the window and together sweep the whole bank.
				if int64(tm.REFI)*refsPerWindow > tm.RefWindow {
					t.Errorf("density %d: %d REFs at tREFI %d overrun the %d-cycle window",
						d, refsPerWindow, tm.REFI, tm.RefWindow)
				}
				if tm.RowsPerRef*refsPerWindow < g.RowsPerBank {
					t.Errorf("density %d: %d REFs x %d rows cover only %d of %d rows",
						d, refsPerWindow, tm.RowsPerRef, tm.RowsPerRef*refsPerWindow, g.RowsPerBank)
				}
				// The window in wall-clock terms matches the requested
				// milliseconds (to within one cycle of rounding).
				wantNs := std.RefWindowMS * 1e6
				if gotNs := float64(tm.RefWindow) * tm.CycleTime(); math.Abs(gotNs-wantNs) > tm.CycleTime() {
					t.Errorf("density %d: RefWindow = %.0f ns, want %.0f ns", d, gotNs, wantNs)
				}
				// CROW's derived plans stay ordered: reduced-latency plans
				// never exceed the base, restoration plans never undercut it.
				crow := tm.CROW()
				if crow.TwoFull.RCD > tm.RCD || crow.TwoPartial.RCD > tm.RCD {
					t.Errorf("density %d: CROW ACT-t tRCD exceeds base", d)
				}
				if crow.TwoFull.RAS > tm.RAS || crow.Copy.RASFull < tm.RAS {
					t.Errorf("density %d: CROW tRAS plans out of order", d)
				}
			}
		})
	}
}

// TestStandardRegistryErrors pins the unknown-name diagnostics: the error
// names every registered choice so a CLI typo is self-correcting.
func TestStandardRegistryErrors(t *testing.T) {
	if _, err := StandardByName("ddr9"); err == nil {
		t.Fatal("unknown standard accepted")
	} else {
		for _, want := range []string{"lpddr4", "ddr5", "hbm2"} {
			if !contains(err.Error(), want) {
				t.Errorf("error %q does not list %q", err, want)
			}
		}
	}
	if err := CheckMapping("colmajor"); err == nil {
		t.Fatal("unknown mapping accepted")
	} else {
		for _, want := range []string{"robarococh", "rocobarach"} {
			if !contains(err.Error(), want) {
				t.Errorf("error %q does not list %q", err, want)
			}
		}
	}
}

// TestMappingsRoundTrip checks Decode/Encode are inverses for every
// registered mapping on every registered standard's geometry.
func TestMappingsRoundTrip(t *testing.T) {
	for _, sname := range StandardNames() {
		std, _ := StandardByName(sname)
		g := std.Geometry(0)
		for _, mname := range MappingNames() {
			m, err := NewMapperFor(mname, std.Channels, g)
			if err != nil {
				t.Fatal(err)
			}
			cap := m.Capacity()
			if cap <= 0 {
				t.Fatalf("%s/%s: capacity %d", sname, mname, cap)
			}
			for _, phys := range []uint64{0, 64, 4096, uint64(cap) - 64} {
				a := m.Decode(phys)
				if back := m.Encode(a); back != phys {
					t.Errorf("%s/%s: Encode(Decode(%#x)) = %#x", sname, mname, phys, back)
				}
				if a.Bank >= g.Banks || a.Rank >= g.Ranks || a.Row >= g.RowsPerBank ||
					a.Channel >= std.Channels || a.Col >= g.ColumnsPerRow() {
					t.Errorf("%s/%s: Decode(%#x) = %+v out of range", sname, mname, phys, a)
				}
			}
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
