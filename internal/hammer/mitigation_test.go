package hammer

import (
	"reflect"
	"strings"
	"testing"

	"crowdram/internal/core"
	"crowdram/internal/dram"
)

func testMitCfg() MitConfig {
	return MitConfig{Channels: 2, Geo: testGeo(), Seed: 1}
}

func TestMitigationRegistry(t *testing.T) {
	names := MitigationNames()
	for _, want := range []string{"none", "para", "refresh-scale", "crow-hammer"} {
		if CheckMitigation(want) != nil {
			t.Fatalf("builtin %q missing (have %v)", want, names)
		}
	}
	err := CheckMitigation("parra")
	if err == nil || !strings.Contains(err.Error(), "unknown mitigation") {
		t.Fatalf("misspelled name accepted: %v", err)
	}
	if _, err := NewMitigation("parra", testMitCfg(), &core.Baseline{}); err == nil {
		t.Fatal("NewMitigation accepted unknown name")
	}
	// Every listed name has a case in NewMitigation's switch.
	cfg := testMitCfg()
	cfg.ParaPerMille, cfg.RefreshScale, cfg.HammerThreshold = 5, 2, 128
	for _, name := range names {
		cw := core.NewCROW(2, testGeo(), dram.Timing{RowsPerRef: 64})
		if m, err := NewMitigation(name, cfg, cw); err != nil || m == nil {
			t.Errorf("listed mitigation %q does not build: %v", name, err)
		}
	}
}

func TestNoneMitigationPassesThrough(t *testing.T) {
	inner := &core.Baseline{}
	m, err := NewMitigation("none", testMitCfg(), inner)
	if err != nil || m != core.Mechanism(inner) {
		t.Fatalf("none must return inner unchanged: %v %v", m, err)
	}
}

func TestParaValidation(t *testing.T) {
	for _, pm := range []int{0, -1, 1001} {
		cfg := testMitCfg()
		cfg.ParaPerMille = pm
		if _, err := NewMitigation("para", cfg, &core.Baseline{}); err == nil {
			t.Fatalf("para accepted probability %d/1000", pm)
		}
	}
}

func TestRefreshScaleValidation(t *testing.T) {
	cfg := testMitCfg()
	cfg.RefreshScale = 1
	if _, err := NewMitigation("refresh-scale", cfg, &core.Baseline{}); err == nil {
		t.Fatal("refresh-scale accepted divisor 1")
	}
	cfg.RefreshScale = 4
	m, err := NewMitigation("refresh-scale", cfg, &core.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	s := m.(*Shield)
	if s.RefreshDivisor() != 4 {
		t.Fatalf("divisor %d, want 4", s.RefreshDivisor())
	}
}

func TestCrowHammerRequiresCROW(t *testing.T) {
	if _, err := NewMitigation("crow-hammer", testMitCfg(), &core.Baseline{}); err == nil {
		t.Fatal("crow-hammer accepted a non-CROW mechanism")
	}
	g := testGeo()
	cw := core.NewCROW(2, g, dram.Timing{RowsPerRef: 64})
	cfg := testMitCfg()
	cfg.HammerThreshold = 128
	m, err := NewMitigation("crow-hammer", cfg, cw)
	if err != nil {
		t.Fatal(err)
	}
	if m != core.Mechanism(cw) || cw.HammerThreshold != 128 {
		t.Fatalf("crow-hammer must configure and return inner (threshold %d)", cw.HammerThreshold)
	}
	// And reject a zero threshold.
	cfg2 := testMitCfg()
	cw2 := core.NewCROW(2, g, dram.Timing{RowsPerRef: 64})
	cw2.HammerThreshold = 0
	if _, err := NewMitigation("crow-hammer", cfg2, cw2); err == nil {
		t.Fatal("crow-hammer accepted threshold 0")
	}
}

func TestShieldParaEnqueuesNeighbours(t *testing.T) {
	cfg := testMitCfg()
	cfg.ParaPerMille = 1000 // every activation draws a neighbour refresh
	m, err := NewMitigation("para", cfg, &core.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	s := m.(*Shield)
	a := dram.Addr{Channel: 1, Bank: 1, Row: 10}
	if _, ok := s.NextCopy(1, 0); ok {
		t.Fatal("pending ops before any activation")
	}
	s.OnActivate(a, core.ActDecision{Kind: dram.ActSingle}, 0)
	if _, ok := s.NextCopy(0, 0); ok {
		t.Fatal("draw leaked across channels")
	}
	op, ok := s.NextCopy(1, 0)
	if !ok || op.Kind != dram.ActSingle {
		t.Fatalf("NextCopy after a guaranteed draw: %+v %v", op, ok)
	}
	if op.Addr.Row != 9 && op.Addr.Row != 11 {
		t.Fatalf("neighbour row %d, want 9 or 11", op.Addr.Row)
	}
	if op.Addr.Channel != 1 || op.Addr.Bank != 1 {
		t.Fatalf("neighbour bank/channel wrong: %+v", op.Addr)
	}
	if _, ok := s.NextCopy(1, 0); ok {
		t.Fatal("queue drained twice")
	}
	if n := s.Counters().Stats[core.TableNeighborRefresh]; n != 1 {
		t.Fatalf("issued count %d, want 1", n)
	}
}

func TestShieldParaSkipsOutOfRangeAndCopyActs(t *testing.T) {
	cfg := testMitCfg()
	cfg.ParaPerMille = 1000
	m, _ := NewMitigation("para", cfg, &core.Baseline{})
	s := m.(*Shield)
	// Edge rows may draw a nonexistent neighbour; those draws are dropped.
	for i := 0; i < 8; i++ {
		s.OnActivate(dram.Addr{Row: 0}, core.ActDecision{Kind: dram.ActSingle}, int64(i))
	}
	for {
		op, ok := s.NextCopy(0, 0)
		if !ok {
			break
		}
		if op.Addr.Row != 1 {
			t.Fatalf("row-0 activation refreshed row %d", op.Addr.Row)
		}
	}
	// Copy-row activations (the mitigation's own refreshes included) never
	// draw — PARA would otherwise feed back on itself.
	s.OnActivate(dram.Addr{Row: 10}, core.ActDecision{Kind: dram.ActCopyRow}, 100)
	if _, ok := s.NextCopy(0, 0); ok {
		t.Fatal("copy-row activation drew a neighbour refresh")
	}
}

func TestShieldParaDeterministicRate(t *testing.T) {
	run := func() (rows []int) {
		cfg := testMitCfg()
		cfg.ParaPerMille = 100
		m, _ := NewMitigation("para", cfg, &core.Baseline{})
		s := m.(*Shield)
		for i := 0; i < 2000; i++ {
			s.OnActivate(dram.Addr{Row: 10}, core.ActDecision{Kind: dram.ActSingle}, int64(i))
			if op, ok := s.NextCopy(0, 0); ok {
				rows = append(rows, op.Addr.Row)
			}
		}
		return rows
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs diverged: %d vs %d draws", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d diverged: %d vs %d", i, a[i], b[i])
		}
	}
	// 100/1000 over 2000 activations: expect ~200 hits; accept a wide band.
	if len(a) < 120 || len(a) > 280 {
		t.Fatalf("hit rate off: %d/2000 at 100/1000", len(a))
	}
}

// recordingMech is a core.Mechanism that only notes which of its methods ran.
type recordingMech struct{ saw map[string]bool }

func (r recordingMech) PlanActivate(dram.Addr, int64) core.ActDecision {
	r.saw["PlanActivate"] = true
	return core.ActDecision{}
}
func (r recordingMech) OnActivate(dram.Addr, core.ActDecision, int64) { r.saw["OnActivate"] = true }
func (r recordingMech) OnPrecharge(dram.Addr, int, bool, int64)       { r.saw["OnPrecharge"] = true }
func (r recordingMech) OnRefreshRows(int, int, int, int, int, int, int64) {
	r.saw["OnRefreshRows"] = true
}
func (r recordingMech) RefreshMultiplier() int { r.saw["RefreshMultiplier"] = true; return 1 }
func (r recordingMech) RefreshDivisor() int    { r.saw["RefreshDivisor"] = true; return 1 }
func (r recordingMech) Counters() *core.Tally  { r.saw["Counters"] = true; return &core.Tally{} }
func (r recordingMech) NextCopy(int, int64) (core.CopyOp, bool) {
	r.saw["NextCopy"] = true
	return core.CopyOp{}, false
}

// TestShieldForwardsEveryMethod calls every method of core.Mechanism on a
// Shield, enumerated by reflection so one added later is covered unedited, and
// requires each to reach the wrapped mechanism: a Shield that embeds
// core.NoOps, or swallows a hook, would make the wrapped mechanism deaf to it
// with no compile error.
func TestShieldForwardsEveryMethod(t *testing.T) {
	cfg := testMitCfg()
	cfg.ParaPerMille = 5
	rec := recordingMech{saw: map[string]bool{}}
	m, err := NewMitigation("para", cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	shield := reflect.ValueOf(m)
	if _, embeds := shield.Elem().Type().FieldByName("NoOps"); embeds {
		t.Error("Shield embeds core.NoOps: a method it stops forwarding would compile and do nothing")
	}
	contract := reflect.TypeOf((*core.Mechanism)(nil)).Elem()
	for i := 0; i < contract.NumMethod(); i++ {
		name := contract.Method(i).Name
		fn := shield.MethodByName(name)
		args := make([]reflect.Value, fn.Type().NumIn())
		for j := range args {
			args[j] = reflect.Zero(fn.Type().In(j))
		}
		fn.Call(args)
		if !rec.saw[name] {
			t.Errorf("Shield.%s did not reach the wrapped mechanism", name)
		}
	}
}
