package oracle_test

import (
	"encoding/binary"
	"testing"

	"crowdram/internal/dram"
	"crowdram/internal/oracle"
)

// eventBytes is the size of one fuzzed command: command, kind, rank, bank and
// copy row as signed bytes, FullyRestored as a bit, row as an int32, column,
// tRCD and tRAS as int16s and the distance from the previous command as a
// uint32 — wide enough for every operand to leave the geometry on either side
// and for a stream to outlive a refresh deadline.
const eventBytes = 20

func encodeEvents(evs []dram.CmdEvent) []byte {
	out := make([]byte, 0, len(evs)*eventBytes)
	prev := int64(0)
	for _, e := range evs {
		var b [eventBytes]byte
		b[0], b[1], b[2], b[3] = byte(e.Cmd), byte(e.Kind), byte(e.Addr.Rank), byte(e.Addr.Bank)
		binary.LittleEndian.PutUint32(b[4:], uint32(e.Addr.Row))
		binary.LittleEndian.PutUint16(b[8:], uint16(e.Addr.Col))
		b[10] = byte(e.CopyRow)
		if e.FullyRestored {
			b[11] = 1
		}
		binary.LittleEndian.PutUint32(b[12:], uint32(e.Cycle-prev))
		binary.LittleEndian.PutUint16(b[16:], uint16(e.Plan.RCD))
		binary.LittleEndian.PutUint16(b[18:], uint16(e.Plan.RAS))
		out, prev = append(out, b[:]...), e.Cycle
	}
	return out
}

func decodeEvents(data []byte) []dram.CmdEvent {
	evs := make([]dram.CmdEvent, 0, len(data)/eventBytes)
	cycle := int64(0)
	for ; len(data) >= eventBytes; data = data[eventBytes:] {
		cycle += int64(binary.LittleEndian.Uint32(data[12:]))
		evs = append(evs, dram.CmdEvent{
			Cmd:  dram.Command(int8(data[0])),
			Kind: dram.ActKind(int8(data[1])),
			Addr: dram.Addr{
				Rank: int(int8(data[2])), Bank: int(int8(data[3])),
				Row: int(int32(binary.LittleEndian.Uint32(data[4:]))),
				Col: int(int16(binary.LittleEndian.Uint16(data[8:]))),
			},
			CopyRow:       int(int8(data[10])),
			FullyRestored: data[11]&1 != 0,
			Cycle:         cycle,
			Plan: dram.ActTimings{
				RCD: int(int16(binary.LittleEndian.Uint16(data[16:]))),
				RAS: int(int16(binary.LittleEndian.Uint16(data[18:]))),
			},
		})
	}
	return evs
}

// FuzzOracleStream feeds the oracle arbitrary command sequences — legal or
// not, operands inside the geometry or not. It may report whatever it likes;
// it must not panic. The seeds are the head of every channel's stream of the
// run TestMutationVerdictsPinned records.
func FuzzOracleStream(f *testing.F) {
	rec := record(f)
	cfg := rec.cfg
	cfg.Channels = 1
	replay := func(data []byte) *oracle.Oracle {
		o := oracle.New(cfg)
		obs, end := o.Observer(0), int64(0)
		for _, e := range decodeEvents(data) {
			obs.OnCommand(e)
			end = e.Cycle
		}
		o.Finish(end)
		return o
	}
	for _, evs := range rec.events {
		seed := encodeEvents(evs[:min(len(evs), 512)])
		if fd := replay(seed).Findings(); fd.Total() != 0 {
			f.Fatalf("a recorded stream does not survive its encoding: %v", fd.Samples)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		o := replay(data)
		o.CheckStats(0, dram.Stats{})
		o.Findings()
	})
}
