package pprofile

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var sink uint64

//go:noinline
func busyLoop(d time.Duration) {
	x := uint64(88172645463325252)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1<<16; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
	}
	sink = x
}

func TestDecodeAttributesBusyLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles a 400 ms busy loop")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	busyLoop(400 * time.Millisecond)
	pprof.StopCPUProfile()

	lv, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if lv.Total < 10 {
		t.Fatalf("only %d samples from a 400 ms busy loop", lv.Total)
	}
	var loop, pkg int64
	for fn, n := range lv.ByFunc {
		if strings.HasSuffix(fn, "pprofile.busyLoop") {
			loop += n
		}
		if Package(fn) == "crowdram/bench/pprofile" {
			pkg += n
		}
	}
	if loop*10 < lv.Total*8 {
		t.Errorf("busyLoop is the leaf of %d of %d samples, want at least 80%%: %v", loop, lv.Total, lv.ByFunc)
	}
	if pkg < loop {
		t.Errorf("package bucket %d below the function's own %d", pkg, loop)
	}
}

func TestPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"crowdram/internal/ctrl.(*Controller).Tick":      "crowdram/internal/ctrl",
		"crowdram/internal/ctrl.(*allbankRefresh).Issue": "crowdram/internal/ctrl",
		"runtime.mallocgc":                         "runtime",
		"crowdram/crow.RunContext":                 "crowdram/crow",
		"encoding/json.(*encodeState).marshal":     "encoding/json",
		"main.main":                                "main",
		"crowdram/internal/engine.(*Pool[...]).Do": "crowdram/internal/engine",
		"nodot": "nodot",
	} {
		if got := Package(fn); got != want {
			t.Errorf("Package(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a profile")); err == nil {
		t.Error("Decode accepted bytes that are not gzip")
	}
}
