package dram

import (
	"fmt"
	"strings"
)

// DefaultMapping is the layout every configuration uses unless overridden.
const DefaultMapping = "robarococh"

// mapField identifies one coordinate of an Addr.
type mapField uint8

const (
	fieldCh mapField = iota
	fieldCol
	fieldBank
	fieldRank
	fieldRow
)

// layouts is the one table of address layouts, sorted by name: the order in
// which the five coordinates are taken from a physical address, least
// significant first (the line offset always occupies the lowest bits). To add
// one, add a row: TestMapperMatchesReference checks it on every standard's
// geometry and TestStandardTablesPinned then asks for its digests.
var layouts = []struct {
	name  string
	order [5]mapField
}{
	// RoBaRaCoCh, the Ramulator default: consecutive cache lines interleave
	// across channels and then across the columns of one row, so streaming
	// accesses hit the same row repeatedly while spreading over all channels.
	{DefaultMapping, [5]mapField{fieldCh, fieldCol, fieldBank, fieldRank, fieldRow}},
	// RoCoBaRaCh interleaves consecutive lines across channels, then ranks
	// and banks before columns: a streaming access pattern spreads over
	// every bank instead of hammering one open row, trading row-buffer
	// locality for bank-level parallelism.
	{"rocobarach", [5]mapField{fieldCh, fieldRank, fieldBank, fieldCol, fieldRow}},
}

func layoutByName(name string) ([5]mapField, error) {
	for _, l := range layouts {
		if l.name == name {
			return l.order, nil
		}
	}
	return [5]mapField{}, fmt.Errorf("dram: unknown mapping %q (registered: %s)", name, strings.Join(MappingNames(), ", "))
}

// CheckMapping reports whether name is a mapping layout, without building it;
// the error lists the names.
func CheckMapping(name string) error {
	_, err := layoutByName(name)
	return err
}

// MappingNames returns the mapping names, sorted.
func MappingNames() []string {
	names := make([]string, len(layouts))
	for i, l := range layouts {
		names[i] = l.name
	}
	return names
}

// Mapper decodes flat physical addresses into DRAM coordinates and back. A
// layout's field order is resolved at construction into one shift and mask
// per coordinate, so Decode and Encode are five shift-and-mask terms whatever
// the layout.
type Mapper struct {
	Channels int
	Geo      Geometry

	// shift and mask are indexed by mapField; bits is Bits().
	shift [5]uint
	mask  [5]uint64
	bits  uint
}

// NewMapperFor builds the named layout for a system of `channels` identical
// channels; the error lists the names. All geometry dimensions must be powers
// of two.
func NewMapperFor(name string, channels int, g Geometry) (*Mapper, error) {
	order, err := layoutByName(name)
	if err != nil {
		return nil, err
	}
	width := [5]uint{
		fieldCh:   log2(channels),
		fieldCol:  log2(g.ColumnsPerRow()),
		fieldBank: log2(g.Banks),
		fieldRank: log2(g.Ranks),
		fieldRow:  log2(g.RowsPerBank),
	}
	m := &Mapper{Channels: channels, Geo: g, bits: log2(g.LineBytes)}
	for _, f := range order {
		m.shift[f] = m.bits
		m.mask[f] = 1<<width[f] - 1
		m.bits += width[f]
	}
	return m, nil
}

// Bits returns the total number of significant physical address bits.
func (m *Mapper) Bits() uint { return m.bits }

// Capacity returns the total regular-row byte capacity across all channels.
func (m *Mapper) Capacity() int64 { return int64(m.Channels) * m.Geo.ChannelBytes() }

// Decode splits a physical address into DRAM coordinates. Address bits above
// Bits() are ignored, so callers may pass arbitrary 64-bit addresses.
func (m *Mapper) Decode(phys uint64) Addr {
	return Addr{
		Channel: int(phys >> m.shift[fieldCh] & m.mask[fieldCh]),
		Rank:    int(phys >> m.shift[fieldRank] & m.mask[fieldRank]),
		Bank:    int(phys >> m.shift[fieldBank] & m.mask[fieldBank]),
		Row:     int(phys >> m.shift[fieldRow] & m.mask[fieldRow]),
		Col:     int(phys >> m.shift[fieldCol] & m.mask[fieldCol]),
	}
}

// Encode is the inverse of Decode; it reconstructs the canonical physical
// address of a coordinate (with a zero line offset).
func (m *Mapper) Encode(a Addr) uint64 {
	return uint64(a.Channel)<<m.shift[fieldCh] |
		uint64(a.Rank)<<m.shift[fieldRank] |
		uint64(a.Bank)<<m.shift[fieldBank] |
		uint64(a.Row)<<m.shift[fieldRow] |
		uint64(a.Col)<<m.shift[fieldCol]
}
