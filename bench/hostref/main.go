// Command hostref is crowperf's host-speed reference: a fixed piece of work
// that slows down as the simulator does when the host's neighbours are busy.
// It times one pass over its two kernels and prints the microseconds; the
// harness runs it between the measured program's repetitions and divides the
// run's times by how much slower than nominal it ran (harness/hostref.go has
// the why and the measurements).
//
// It is a process of its own so that every sample starts from a fresh heap,
// and so that the harness stays small: a child's ru_maxrss starts from its
// parent's resident set, and peak_rss_mib must not report the harness.
//
//	hostref <ticks> <ops>
package main

import (
	"fmt"
	"os"
	"strconv"
	"time"
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: hostref <ticks> <ops>")
		os.Exit(2)
	}
	ticks, err1 := strconv.Atoi(os.Args[1])
	ops, err2 := strconv.Atoi(os.Args[2])
	if err1 != nil || err2 != nil || ticks < 1 || ops < 1 {
		fmt.Fprintln(os.Stderr, "hostref: ticks and ops are positive integers")
		os.Exit(2)
	}
	start := time.Now()
	bankScan(ticks)
	mapChurn(ops)
	fmt.Println(time.Since(start).Microseconds(), sink)
}

var sink uint64

type refReq struct {
	row, arrive, ready int64
	write              bool
}

type refBank struct {
	queue   []*refReq
	openRow int64
	nextRd  int64
}

// bankScan is a toy first-ready, first-come-first-served scheduler over 64
// bank queues: each tick it may enqueue a request, scans every queue for the
// oldest ready row hit (or else the oldest ready request), and issues it.
func bankScan(ticks int) {
	banks := make([]refBank, 64)
	x := uint64(777)
	rnd := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	rows := make([]int64, 64*4096)
	for t := int64(0); t < int64(ticks); t++ {
		if rnd()%3 != 0 {
			b := &banks[rnd()%64]
			if len(b.queue) < 32 {
				b.queue = append(b.queue, &refReq{row: int64(rnd() % 4096), arrive: t, ready: t + int64(rnd()%20), write: rnd()%4 == 0})
			}
		}
		var best *refReq
		var bestBank *refBank
		bestAt := -1
		for i := range banks {
			b := &banks[i]
			if b.nextRd > t {
				continue
			}
			for k, r := range b.queue {
				if r.ready > t {
					continue
				}
				hit := r.row == b.openRow
				if best == nil || (hit && best.row != bestBank.openRow) || (hit == (best.row == bestBank.openRow) && r.arrive < best.arrive) {
					best, bestBank, bestAt = r, b, k
				}
			}
		}
		if best != nil {
			if best.row != bestBank.openRow {
				bestBank.openRow = best.row
				bestBank.nextRd = t + 14
			} else {
				bestBank.nextRd = t + 4
			}
			rows[(best.row*64+int64(bestAt))%int64(len(rows))]++
			bestBank.queue = append(bestBank.queue[:bestAt], bestBank.queue[bestAt+1:]...)
		}
	}
	sink += uint64(rows[5])
}

type refNode struct {
	key  uint64
	val  [6]uint64
	next *refNode
}

// mapChurn inserts into, updates and thins out a map of heap nodes that
// stay reachable, so allocation, hashing and the collector all take part.
func mapChurn(ops int) {
	m := make(map[uint64]*refNode, 1024)
	x := uint64(4242)
	var head *refNode
	for i := 0; i < ops; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		key := x % 200000
		if n, ok := m[key]; ok {
			n.val[i%6]++
		} else {
			n := &refNode{key: key, next: head}
			head = n
			m[key] = n
		}
		if i%50000 == 49999 {
			for k := range m {
				delete(m, k)
				if len(m) < 100000 {
					break
				}
			}
		}
	}
	sink += uint64(len(m))
}
