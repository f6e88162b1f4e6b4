package core

import (
	"math/bits"

	"crowdram/internal/dram"
)

// EntryKind records which mechanism owns a CROW-table entry (the paper's
// Special field, Section 3.3: one bit distinguishes CROW-cache from
// CROW-ref; the RowHammer mitigation reuses the remap behaviour).
type EntryKind uint8

// Entry owners.
const (
	EntryFree EntryKind = iota
	// EntryCache: the copy row duplicates a recently-activated regular
	// row for low-latency ACT-t activation (CROW-cache).
	EntryCache
	// EntryRef: the copy row permanently replaces a retention-weak
	// regular row (CROW-ref).
	EntryRef
	// EntryHammer: the copy row replaces a RowHammer victim row.
	EntryHammer
)

// Entry is one CROW-table entry, tracking the state of one copy row
// (Figure 4: Allocated, RegularRowID, Special).
type Entry struct {
	Allocated bool
	// RegularRow is the index, within the subarray, of the regular row
	// this copy row duplicates or replaces.
	RegularRow int
	// SubTag identifies which subarray of a sharing group the entry
	// belongs to (always 0 when the table is not shared; Section 6.1's
	// storage optimization shares one entry set across several
	// subarrays).
	SubTag int
	Kind   EntryKind
	// FullyRestored tracks whether the pair was last precharged after a
	// full restoration (the paper's isFullyRestored bit, Section 4.1.4).
	FullyRestored bool
	// CopyPending marks a CROW-ref/RowHammer remap whose ACT-c data copy
	// has not executed yet. Until it clears, the copy row holds stale
	// data: activations of the regular row must perform the copy (the
	// mechanism plans them as ACT-c) instead of being redirected to the
	// copy row.
	CopyPending bool
	lastUse     int64
}

// Touch updates the entry's LRU timestamp.
func (e *Entry) Touch(cycle int64) { e.lastUse = cycle }

// Table is the CROW-table (Section 3.3): one entry per copy row in the
// system, set-associative with one set per subarray — or, with ShareGroup
// > 1, one set shared by that many adjacent subarrays (the Section 6.1
// storage optimization, which cuts table storage by roughly the sharing
// factor at the cost of limiting how many copy rows can be in use at once).
type Table struct {
	Geo      dram.Geometry
	Channels int
	// ShareGroup is the number of adjacent subarrays sharing one entry
	// set (1 = dedicated sets).
	ShareGroup int
	sets       [][]Entry
	setsPer    int // sets per channel
	groups     int // sets per bank
	// A row's subarray is row >> subShift and its index within it row &
	// rowMask: RowsPerSubarray is a power of two (NewSharedTable insists), and
	// every lookup would otherwise divide by it.
	subShift uint
	rowMask  int
}

// NewTable allocates an empty CROW-table for a system of identical channels.
func NewTable(channels int, g dram.Geometry) *Table {
	return NewSharedTable(channels, g, 1)
}

// NewSharedTable allocates a CROW-table whose entry sets are shared across
// groups of `share` adjacent subarrays.
func NewSharedTable(channels int, g dram.Geometry, share int) *Table {
	if share < 1 {
		share = 1
	}
	if bits.OnesCount(uint(g.RowsPerSubarray)) != 1 {
		panic("core: rows per subarray is not a power of two")
	}
	groups := (g.SubarraysPerBank() + share - 1) / share
	t := &Table{
		Geo: g, Channels: channels, ShareGroup: share,
		setsPer: g.Ranks * g.Banks * groups, groups: groups,
		subShift: uint(bits.TrailingZeros(uint(g.RowsPerSubarray))), rowMask: g.RowsPerSubarray - 1,
	}
	t.sets = make([][]Entry, channels*t.setsPer)
	for i := range t.sets {
		t.sets[i] = make([]Entry, g.CopyRows)
	}
	return t
}

// rowIn returns the index of a regular row within its subarray, as entries
// record it.
func (t *Table) rowIn(row int) int { return row & t.rowMask }

// SubTag returns the tag distinguishing a.Row's subarray within its sharing
// group (always 0 for unshared tables).
func (t *Table) SubTag(a dram.Addr) int { return (a.Row >> t.subShift) % t.ShareGroup }

// AbsoluteRow reconstructs the bank-level regular-row index of an entry
// found in the set of address a (inverting the Set/SubTag split).
func (t *Table) AbsoluteRow(a dram.Addr, e Entry) int {
	group := (a.Row >> t.subShift) / t.ShareGroup
	sub := group*t.ShareGroup + e.SubTag
	return sub<<t.subShift + e.RegularRow
}

// Set returns the entries of the (group of) subarray(s) containing a.Row.
// The returned slice aliases the table; mutations are visible.
func (t *Table) Set(a dram.Addr) []Entry {
	idx := a.Channel*t.setsPer +
		(a.Rank*t.Geo.Banks+a.Bank)*t.groups +
		(a.Row>>t.subShift)/t.ShareGroup
	return t.sets[idx]
}

// Lookup finds the allocated entry matching a.Row (including its subarray
// tag in shared tables), returning its way index, or -1.
func (t *Table) Lookup(a dram.Addr) int {
	set := t.Set(a)
	row := t.rowIn(a.Row)
	tag := t.SubTag(a)
	for w := range set {
		if set[w].Allocated && set[w].RegularRow == row && set[w].SubTag == tag {
			return w
		}
	}
	return -1
}

// FreeWay returns the index of an unallocated way in the set, or -1.
func FreeWay(set []Entry) int {
	for w := range set {
		if !set[w].Allocated {
			return w
		}
	}
	return -1
}

// LRUWay returns the least-recently-used way owned by CROW-cache, or -1 if
// every way is pinned by CROW-ref or the RowHammer mitigation.
func LRUWay(set []Entry) int {
	best := -1
	for w := range set {
		if set[w].Allocated && set[w].Kind != EntryCache {
			continue
		}
		if best == -1 || set[w].lastUse < set[best].lastUse {
			best = w
		}
	}
	return best
}

// VictimWay selects an eviction victim: the LRU among fully-restored cache
// entries if one exists (replacing it needs no restore pass, Section 4.1.4),
// otherwise the LRU partial entry. Returns -1 if every way is pinned.
func VictimWay(set []Entry) int {
	full, partial := -1, -1
	for w := range set {
		if set[w].Allocated && set[w].Kind != EntryCache {
			continue
		}
		if !set[w].Allocated || set[w].FullyRestored {
			if full == -1 || set[w].lastUse < set[full].lastUse {
				full = w
			}
			continue
		}
		if partial == -1 || set[w].lastUse < set[partial].lastUse {
			partial = w
		}
	}
	if full >= 0 {
		return full
	}
	return partial
}

// Storage overhead (Section 6.1, Equations 3 and 4).

// EntryBits returns the storage of one CROW-table entry in bits
// (Equation 3): ⌈log2(regular rows per subarray)⌉ + special + allocated.
func EntryBits(rowsPerSubarray, specialBits int) int {
	bits := 0
	for 1<<bits < rowsPerSubarray {
		bits++
	}
	return bits + specialBits + 1
}

// StorageBits returns the total CROW-table storage for one channel in bits
// (Equation 4): entry bits × copy rows per subarray × subarrays.
func StorageBits(g dram.Geometry, specialBits int) int {
	return SharedStorageBits(g, specialBits, 1)
}

// SharedStorageBits returns the per-channel table storage when one entry set
// is shared across `share` subarrays (Section 6.1): the set count shrinks by
// the sharing factor while each entry grows a ⌈log2(share)⌉-bit subarray
// tag.
func SharedStorageBits(g dram.Geometry, specialBits, share int) int {
	if share < 1 {
		share = 1
	}
	tagBits := 0
	for 1<<tagBits < share {
		tagBits++
	}
	groups := (g.SubarraysPerBank() + share - 1) / share
	sets := g.Ranks * g.Banks * groups
	return (EntryBits(g.RowsPerSubarray, specialBits) + tagBits) * g.CopyRows * sets
}

// StorageKB returns the per-channel CROW-table storage in decimal kilobytes
// (11.3 for the paper's configuration).
func StorageKB(g dram.Geometry, specialBits int) float64 {
	return float64(StorageBits(g, specialBits)) / 8 / 1000
}

// AccessTimeNs approximates the CROW-table lookup latency, standing in for
// the paper's CACTI evaluation (0.14 ns for the Table 2 configuration). The
// SRAM access time grows logarithmically with the number of entries.
func AccessTimeNs(g dram.Geometry) float64 {
	entries := g.Ranks * g.Banks * g.SubarraysPerBank() * g.CopyRows
	bits := 0
	for 1<<bits < entries {
		bits++
	}
	return 0.036 + 0.008*float64(bits)
}
