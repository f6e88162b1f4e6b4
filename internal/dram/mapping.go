package dram

import (
	"fmt"
	"sort"
	"strings"
)

// AddressMapper decodes flat physical addresses into DRAM coordinates and
// back. Mapper is the default implementation; alternative bit layouts
// register under a name and are selected per run.
type AddressMapper interface {
	Decode(phys uint64) Addr
	Encode(a Addr) uint64
	Bits() uint
	Capacity() int64
}

// MapperFactory builds an address mapper for a system of identical channels.
type MapperFactory func(channels int, g Geometry) AddressMapper

var mappings = map[string]MapperFactory{}

// RegisterMapping adds an address-mapping layout to the registry; it panics
// on a duplicate name so a wiring mistake fails at init.
func RegisterMapping(name string, f MapperFactory) {
	if _, dup := mappings[name]; dup {
		panic(fmt.Sprintf("dram: mapping %q registered twice", name))
	}
	mappings[name] = f
}

// NewMapperFor builds the named mapping layout; the error lists the
// registered names.
func NewMapperFor(name string, channels int, g Geometry) (AddressMapper, error) {
	if err := CheckMapping(name); err != nil {
		return nil, err
	}
	return mappings[name](channels, g), nil
}

// CheckMapping reports whether a mapping layout with the given name is
// registered, without building it; the error lists the registered names.
func CheckMapping(name string) error {
	if _, ok := mappings[name]; ok {
		return nil
	}
	return fmt.Errorf("dram: unknown mapping %q (registered: %s)", name, strings.Join(MappingNames(), ", "))
}

// MappingNames returns the registered mapping names, sorted.
func MappingNames() []string {
	names := make([]string, 0, len(mappings))
	for n := range mappings {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// mapField identifies one coordinate in a layout's bit order.
type mapField uint8

const (
	fieldCh mapField = iota
	fieldCol
	fieldBank
	fieldRank
	fieldRow
)

// layoutMapper is a table-driven mapper: fields are extracted from the
// physical address in the given order, least-significant first (the line
// offset always occupies the lowest bits).
type layoutMapper struct {
	channels int
	geo      Geometry

	order    [5]mapField
	widths   [5]uint
	lineBits uint
}

func newLayoutMapper(channels int, g Geometry, order [5]mapField) *layoutMapper {
	m := &layoutMapper{channels: channels, geo: g, order: order}
	m.lineBits = log2(g.LineBytes)
	for i, f := range order {
		switch f {
		case fieldCh:
			m.widths[i] = log2(channels)
		case fieldCol:
			m.widths[i] = log2(g.ColumnsPerRow())
		case fieldBank:
			m.widths[i] = log2(g.Banks)
		case fieldRank:
			m.widths[i] = log2(g.Ranks)
		case fieldRow:
			m.widths[i] = log2(g.RowsPerBank)
		}
	}
	return m
}

func (m *layoutMapper) Bits() uint {
	b := m.lineBits
	for _, w := range m.widths {
		b += w
	}
	return b
}

func (m *layoutMapper) Capacity() int64 { return int64(m.channels) * m.geo.ChannelBytes() }

func (m *layoutMapper) Decode(phys uint64) Addr {
	p := phys >> m.lineBits
	var a Addr
	for i, f := range m.order {
		v := int(p & mask(m.widths[i]))
		p >>= m.widths[i]
		switch f {
		case fieldCh:
			a.Channel = v
		case fieldCol:
			a.Col = v
		case fieldBank:
			a.Bank = v
		case fieldRank:
			a.Rank = v
		case fieldRow:
			a.Row = v
		}
	}
	return a
}

func (m *layoutMapper) Encode(a Addr) uint64 {
	var p uint64
	for i := len(m.order) - 1; i >= 0; i-- {
		var v uint64
		switch m.order[i] {
		case fieldCh:
			v = uint64(a.Channel)
		case fieldCol:
			v = uint64(a.Col)
		case fieldBank:
			v = uint64(a.Bank)
		case fieldRank:
			v = uint64(a.Rank)
		case fieldRow:
			v = uint64(a.Row)
		}
		p = p<<m.widths[i] | v
	}
	return p << m.lineBits
}

// DefaultMapping is the layout every configuration uses unless overridden:
// the hand-rolled RoBaRaCoCh mapper (row-streaming, channel-interleaved).
const DefaultMapping = "robarococh"

func init() {
	// The default layout keeps the dedicated Mapper implementation — the
	// decode is on the per-access hot path.
	RegisterMapping(DefaultMapping, func(channels int, g Geometry) AddressMapper {
		return NewMapper(channels, g)
	})
	// RoCoBaRaCh interleaves consecutive lines across channels, then ranks
	// and banks before columns: a streaming access pattern spreads over
	// every bank instead of hammering one open row, trading row-buffer
	// locality for bank-level parallelism.
	RegisterMapping("rocobarach", func(channels int, g Geometry) AddressMapper {
		return newLayoutMapper(channels, g, [5]mapField{fieldCh, fieldRank, fieldBank, fieldCol, fieldRow})
	})
}
