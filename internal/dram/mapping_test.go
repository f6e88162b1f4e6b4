package dram

import (
	"math/bits"
	"testing"
	"testing/quick"
)

// refDecode is the long way round a layout: take the five coordinates from
// the address in the layout's order, least-significant first, above the line
// offset, by divide and modulo. It also returns the address's canonical bits,
// the coordinates put back at their weights.
func refDecode(order [5]mapField, channels int, g Geometry, phys uint64) (Addr, uint64) {
	dims := [5]int{fieldCh: channels, fieldCol: g.ColumnsPerRow(), fieldBank: g.Banks, fieldRank: g.Ranks, fieldRow: g.RowsPerBank}
	var v [5]int
	p := phys / uint64(g.LineBytes)
	canon, weight := uint64(0), uint64(g.LineBytes)
	for _, f := range order {
		v[f] = int(p % uint64(dims[f]))
		p /= uint64(dims[f])
		canon += uint64(v[f]) * weight
		weight *= uint64(dims[f])
	}
	return Addr{Channel: v[fieldCh], Col: v[fieldCol], Bank: v[fieldBank], Rank: v[fieldRank], Row: v[fieldRow]}, canon
}

// TestMapperMatchesReference checks, for every layout on every standard's
// geometry, that Decode agrees with the field-by-field reference, that Encode
// of the decoded coordinate is the address's canonical bits (so Encode∘Decode
// is the identity on them), and that Bits counts exactly those bits.
func TestMapperMatchesReference(t *testing.T) {
	for i := range standards {
		std := &standards[i]
		g := std.Geometry(8)
		for _, l := range layouts {
			m := mustMapper(t, l.name, std.Channels, g)
			if want := uint(bits.Len64(uint64(m.Capacity()) - 1)); m.Bits() != want {
				t.Errorf("%s/%s: Bits() = %d, capacity %d needs %d", std.Name, l.name, m.Bits(), m.Capacity(), want)
			}
			f := func(phys uint64) bool {
				want, canon := refDecode(l.order, std.Channels, g, phys)
				got := m.Decode(phys)
				return got == want && m.Encode(got) == canon && canon == phys&(1<<m.Bits()-1)&^uint64(g.LineBytes-1)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
				t.Errorf("%s/%s: %v", std.Name, l.name, err)
			}
		}
	}
}
