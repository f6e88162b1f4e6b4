package cache

import (
	"math/rand"
	"sync"
	"testing"
)

// referencePrefill is Prefill as it was before the memoized image: three
// draws per line from math/rand, sets in order. The goldens were recorded
// against these cache contents, so Prefill must keep producing them.
func referencePrefill(sets, assoc int, lineAddrBits uint, dirtyFrac float64, seed int64) []line {
	rng := rand.New(rand.NewSource(seed))
	mask := uint64(1)<<lineAddrBits - 1
	setMask := uint64(sets - 1)
	lines := make([]line, 0, sets*assoc)
	for si := 0; si < sets; si++ {
		for w := 0; w < assoc; w++ {
			la := rng.Uint64() & mask
			la = la&^setMask | uint64(si)
			lines = append(lines, line{
				tag:     la,
				valid:   true,
				dirty:   rng.Float64() < dirtyFrac,
				lastUse: int64(-1000 + rng.Intn(1000)),
			})
		}
	}
	return lines
}

func sameLines(t *testing.T, what string, got, want []line) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: line %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// resetShared empties the slab pool and the image memo, so a test starts
// from what a new process would see.
func resetShared() {
	slabs.Lock()
	slabs.free = nil
	slabs.Unlock()
	images.Lock()
	images.lru = nil
	images.Unlock()
}

// reproGeometries are the LLCs `crowbench -exp all` builds at QuickScale:
// 64 KiB (hammerlab), 1, 8 and 32 MiB (the LLC sweep) over 28-bit line
// addresses, and the 8 MiB default again over 27.
var reproGeometries = []struct {
	size int64
	bits uint
}{
	{64 << 10, 28}, {1 << 20, 28}, {8 << 20, 27}, {8 << 20, 28}, {32 << 20, 28},
}

func TestPrefillMatchesReferenceDraws(t *testing.T) {
	resetShared()
	for _, g := range reproGeometries {
		cfg := DefaultConfig()
		cfg.SizeBytes = g.size
		sets := int(g.size) / cfg.LineBytes / cfg.Assoc
		for _, seed := range []int64{1, 2, 7} {
			want := referencePrefill(sets, cfg.Assoc, g.bits, 0.25, seed)

			fresh := New(cfg, &fakeMem{}, 1)
			fresh.Prefill(g.bits, 0.25, seed)
			sameLines(t, "fresh array", fresh.lines, want)

			// Use the cache, hand its array back, and build the next one
			// on it: what the last run left must not show.
			mem := &fakeMem{}
			mem.c = fresh
			for i := 0; i < 64; i++ {
				fresh.Access(int64(i), 0, uint64(i)<<20|0x40, true, nil)
			}
			mem.fillAll(100)
			used := &fresh.lines[0]
			fresh.Release()
			if fresh.lines != nil {
				t.Fatal("Release must leave the cache without lines")
			}
			again := New(cfg, &fakeMem{}, 1)
			if &again.lines[0] != used {
				t.Fatal("New did not take the released array of the same size")
			}
			for i, ln := range again.lines {
				if ln != (line{}) {
					t.Fatalf("New on a recycled array: line %d = %+v, want empty", i, ln)
				}
			}
			again.Prefill(g.bits, 0.25, seed)
			sameLines(t, "recycled array", again.lines, want)
			again.Release()
		}
	}
}

func TestPrefillDirtyFractionAndSeedAreKeyed(t *testing.T) {
	resetShared()
	cfg := small()
	sets := int(cfg.SizeBytes) / cfg.LineBytes / cfg.Assoc
	for _, k := range []struct {
		bits uint
		frac float64
		seed int64
	}{{20, 0.25, 1}, {20, 1, 1}, {20, 0, 1}, {21, 0.25, 1}, {20, 0.25, 2}, {20, 0.25, 1}} {
		c := New(cfg, &fakeMem{}, 1)
		c.Prefill(k.bits, k.frac, k.seed)
		sameLines(t, "keyed image", c.lines, referencePrefill(sets, cfg.Assoc, k.bits, k.frac, k.seed))
	}
}

// TestImageMemoIsBounded: a crowserve client chooses the seed, so the memo
// must forget old images instead of growing with every new one.
func TestImageMemoIsBounded(t *testing.T) {
	resetShared()
	cfg := small()
	sets := int(cfg.SizeBytes) / cfg.LineBytes / cfg.Assoc
	c := New(cfg, &fakeMem{}, 1)
	for seed := int64(1); seed <= 64; seed++ {
		c.Prefill(20, 0.25, seed)
		c.Prefill(20, 0.25, 1) // in use throughout: newer keys must not push it out
		if n := len(images.lru); n > maxImages {
			t.Fatalf("%d images retained after seed %d, bound is %d", n, seed, maxImages)
		}
	}
	if len(images.lru) != maxImages {
		t.Errorf("%d images retained, want the bound %d in use", len(images.lru), maxImages)
	}
	// Most recently used first: seed 1, then the newest of the others.
	for i, img := range images.lru {
		want := int64(1)
		if i > 0 {
			want = 65 - int64(i)
		}
		if img.key.seed != want {
			t.Fatalf("image %d retained is seed %d, want %d", i, img.key.seed, want)
		}
	}
	// An evicted image is drawn again, the same.
	c.Prefill(20, 0.25, 2)
	sameLines(t, "redrawn image", c.lines, referencePrefill(sets, cfg.Assoc, 20, 0.25, 2))
}

func TestSlabPoolHoldsOneSizeAndIsBounded(t *testing.T) {
	resetShared()
	cfg := small()
	big := cfg
	big.SizeBytes *= 2
	var caches []*Cache
	for i := 0; i < maxSlabs+3; i++ {
		caches = append(caches, New(cfg, &fakeMem{}, 1))
	}
	for _, c := range caches {
		c.Release()
		c.Release() // a second call has nothing to give
	}
	if len(slabs.free) != maxSlabs {
		t.Fatalf("%d arrays pooled, want the bound %d", len(slabs.free), maxSlabs)
	}
	b := New(big, &fakeMem{}, 1)
	if len(slabs.free) != maxSlabs {
		t.Fatal("a cache of another size took a pooled array")
	}
	b.Release()
	if len(slabs.free) != 1 || len(slabs.free[0]) != int(big.SizeBytes)/big.LineBytes {
		t.Fatalf("after releasing another size the pool holds %d arrays, want that one only", len(slabs.free))
	}
}

// TestSharedStateUnderConcurrentRuns drives the memo and the pool the way
// `-j` and crowserve's workers do: many goroutines building, prefilling,
// using and releasing caches over a handful of keys at once (run with -race).
func TestSharedStateUnderConcurrentRuns(t *testing.T) {
	resetShared()
	cfgs := []Config{small(), small()}
	cfgs[1].SizeBytes *= 4
	type key struct {
		cfg  int
		seed int64
	}
	want := map[key][]line{}
	for ci, cfg := range cfgs {
		sets := int(cfg.SizeBytes) / cfg.LineBytes / cfg.Assoc
		for seed := int64(1); seed <= 6; seed++ { // 12 keys: more than the memo holds
			want[key{ci, seed}] = referencePrefill(sets, cfg.Assoc, 22, 0.25, seed)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				k := key{(g + i) % 2, int64((g*7+i)%6 + 1)}
				mem := &fakeMem{}
				c := New(cfgs[k.cfg], mem, 1)
				mem.c = c
				c.Prefill(22, 0.25, k.seed)
				for j, ln := range c.lines {
					if ln != want[k][j] {
						t.Errorf("goroutine %d, %+v: line %d = %+v, want %+v", g, k, j, ln, want[k][j])
						return
					}
				}
				c.Access(1, 0, uint64(i)<<12, true, nil)
				mem.fillAll(2)
				c.Release()
			}
		}(g)
	}
	wg.Wait()
	if len(images.lru) > maxImages || len(slabs.free) > maxSlabs {
		t.Errorf("%d images and %d arrays retained, bounds are %d and %d",
			len(images.lru), len(slabs.free), maxImages, maxSlabs)
	}
}
