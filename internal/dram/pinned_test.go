package dram

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/standard_tables.txt from this build's tables")

// pinnedStandards states, for every standard, the two numbers the pin needs
// and cannot read through an accessor that a refactor may rename: the channel
// count the mapper is built for and the standard's default retention window.
var pinnedStandards = map[string]struct {
	channels int
	windowMS float64
}{
	"ddr4":   {4, 64},
	"ddr5":   {4, 32},
	"hbm2":   {8, 32},
	"lpddr4": {4, 64},
	"lpddr5": {4, 32},
}

// splitmix is the fixed address stream of the decode pin (no dependence on
// math/rand's generator).
func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// TestStandardTablesPinned holds every number a standard or a layout
// produces to testdata/standard_tables.txt: for every standard x {8, 16, 32,
// 64 Gbit} x {default window, twice it} the whole Timing, the Geometry with 8
// copy rows, and for every standard x layout the Bits, the Capacity and a
// digest over the Decode of 4 096 fixed addresses. The four per-standard
// goldens see a transcribed RTP 18 -> 81 only as a shifted speedup; this names
// the field. Regenerate (-update) only for a deliberate change to a table.
func TestStandardTablesPinned(t *testing.T) {
	var b strings.Builder
	for _, name := range StandardNames() {
		pin, ok := pinnedStandards[name]
		if !ok {
			t.Fatalf("standard %q has no row in pinnedStandards", name)
		}
		std, err := StandardByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := std.Geometry(8)
		fmt.Fprintf(&b, "%s geometry %+v\n", name, g)
		for _, d := range []Density{Density8Gb, Density16Gb, Density32Gb, Density64Gb} {
			for _, ms := range []float64{pin.windowMS, 2 * pin.windowMS} {
				fmt.Fprintf(&b, "%s %dGb %gms %+v\n", name, d, ms, std.Timing(d, ms, g))
			}
		}
		for _, layout := range MappingNames() {
			m, err := NewMapperFor(layout, pin.channels, g)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			seed := uint64(1)
			for i := 0; i < 4096; i++ {
				fmt.Fprintf(h, "%+v\n", m.Decode(splitmix(&seed)))
			}
			fmt.Fprintf(&b, "%s %s bits %d capacity %d decode %x\n", name, layout, m.Bits(), m.Capacity(), h.Sum(nil))
		}
	}
	const path = "testdata/standard_tables.txt"
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got %s\nwant %s", path, i+1, g, w)
		}
	}
}
