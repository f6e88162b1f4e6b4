package salp

import "testing"

func TestGeometryReshape(t *testing.T) {
	g := Config{SubarraysPerBank: 256}.Geometry()
	if g.RowsPerSubarray != 256 {
		t.Errorf("RowsPerSubarray = %d, want 256", g.RowsPerSubarray)
	}
	if g.SubarraysPerBank() != 256 {
		t.Errorf("SubarraysPerBank = %d, want 256", g.SubarraysPerBank())
	}
	if g.RowsPerBank != 64*1024 {
		t.Error("capacity must be unchanged")
	}
}

func TestAreaOverheadPaperPoints(t *testing.T) {
	cases := map[int]float64{128: 0.006, 256: 0.289, 512: 0.845}
	for s, want := range cases {
		got := Config{SubarraysPerBank: s}.ChipAreaOverhead()
		if got != want {
			t.Errorf("SALP-%d overhead = %.4f, want %.4f", s, got, want)
		}
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-divisor subarray count must panic")
		}
	}()
	Config{SubarraysPerBank: 100}.Geometry()
}
