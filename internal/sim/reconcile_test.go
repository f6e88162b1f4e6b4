package sim

import (
	"testing"

	"crowdram/internal/chargecache"
	"crowdram/internal/core"
	"crowdram/internal/dram"
	"crowdram/internal/tldram"
)

// TestCountersReconcileWithDevice: a mechanism's counters and the device's
// command counts are cut at the same warm-up boundary, so where each counted
// activation is one command of a known kind they agree exactly. A mechanism
// whose counters ran from cycle 0 (TL-DRAM's and ChargeCache's did) reports
// more events than the measured interval issued commands.
func TestCountersReconcileWithDevice(t *testing.T) {
	cases := []struct {
		name     string
		copyRows int
		build    func(cfg Config) core.Mechanism
		check    func(m core.Stats, d dram.Stats) bool
	}{
		{"tl-dram", 0, func(cfg Config) core.Mechanism { return tldram.New(cfg.Channels, cfg.Geo, cfg.T, 8) },
			func(m core.Stats, d dram.Stats) bool {
				return m[core.TableHit]+m[core.TableMiss] == d.ACT+d.ACTCopy && m[core.TableCopy] == d.ACTCopy
			}},
		{"chargecache", 0, func(cfg Config) core.Mechanism { return chargecache.New(cfg.Channels, cfg.T, 128) },
			func(m core.Stats, d dram.Stats) bool { return m[core.TableHit]+m[core.TableMiss] == d.ACT }},
		{"crow-cache", 8, func(cfg Config) core.Mechanism {
			m := core.NewCROW(cfg.Channels, cfg.Geo, cfg.T)
			m.Cache = true
			return m
		}, func(m core.Stats, d dram.Stats) bool {
			return m[core.TableHit] == d.ACTTwo && m[core.TableMiss] == d.ACT+d.ACTCopy &&
				m[core.TableRefRemap] == d.ACTCopyRow
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := smallCfg(c.copyRows)
			res := New(cfg, c.build(cfg), appGens(t, 1, "mcf", "lbm")).Run()
			if res.Mech[core.TableHit] == 0 || res.Mech[core.TableMiss] == 0 {
				t.Fatalf("no hits or no misses: the run reconciles nothing (%v)", res.Mech)
			}
			if !c.check(res.Mech, res.DRAM) {
				t.Errorf("counters %v do not reconcile with the device's ACT %d, ACT-t %d, ACT-c %d, copy-row ACT %d",
					res.Mech, res.DRAM.ACT, res.DRAM.ACTTwo, res.DRAM.ACTCopy, res.DRAM.ACTCopyRow)
			}
		})
	}
}
