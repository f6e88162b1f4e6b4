package crow

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"crowdram/internal/sim"
)

// within runs f on a goroutine of its own and fails the test if f panics or
// has not returned after d. The goroutine is what makes a hang observable:
// the loops that build a system do not poll a context.
func within(t testing.TB, d time.Duration, f func()) {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		f()
	}()
	select {
	case p := <-done:
		if p != nil {
			t.Fatalf("panic: %v", p)
		}
	case <-time.After(d):
		t.Fatalf("still running after %v", d)
	}
}

// construct builds the system o describes the way RunContext does, without
// running it.
func construct(o Options) (*sim.System, error) {
	o = o.withDefaults()
	cfg, mech, err := build(o)
	if err != nil {
		return nil, err
	}
	gens, err := generators(o)
	if err != nil {
		return nil, err
	}
	return sim.New(cfg, mech, gens), nil
}

// TestRunRejectsWhatValidateRejects: Validate is the gate of the library path
// too. Every shape it rejects comes back from Run as the same error — not as
// a panic from ctrl.New, makeslice or sim.New, and not as a loop no deadline
// reaches, which is what a third of these did before Run validated.
func TestRunRejectsWhatValidateRejects(t *testing.T) {
	for _, c := range badOptions {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			within(t, 6*time.Second, func() {
				_, err := RunContext(ctx, c.o)
				switch {
				case err == nil:
					t.Error("Run must fail")
				case errors.Is(err, context.DeadlineExceeded):
					t.Errorf("Run ran until its deadline instead of rejecting: %v", err)
				case !strings.Contains(err.Error(), c.want):
					t.Errorf("error %q does not mention %q", err, c.want)
				}
			})
		})
	}
}

// FuzzDecodeOptions: whatever DecodeOptions lets through must be buildable —
// build, generators and sim.New return without panicking, inside a deadline.
// (Running the result is MaxMeasureCycles' and the caller's deadline's job.)
func FuzzDecodeOptions(f *testing.F) {
	for _, o := range roundTripCases {
		b, err := json.Marshal(o)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, payload := range []string{
		`{"LLCBytes": 1}`,
		`{"Mechanism": "salp", "SALPSubarrays": 3}`,
		`{"RefreshWindowMS": 1e-9}`,
		`{"Mechanism": "crow-ref", "WeakRowsPerSubarray": 100000}`,
		`{"LLCBytes": 1048576000000000}`,
		`{"Mechanism": "crow-cache", "CopyRows": 1000000}`,
		`{"Mechanism": "tl-dram", "TLDRAMNearRows": 1000000}`,
	} {
		f.Add([]byte(payload))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := DecodeOptions(data)
		if err != nil {
			return
		}
		// The gate bounds memory only at what one run may ask for (a 1 GiB
		// LLC, a subarray's worth of copy rows); the fuzzer keeps to far less
		// to run many builds a second. Trace files are the file system's
		// business.
		if o.LLCBytes > 64<<20 || o.CopyRows > 64 || o.TLDRAMNearRows > 512 ||
			o.SALPSubarrays > 1024 || o.WeakRowsPerSubarray > 64 || len(o.TraceFiles) > 0 {
			t.Skip()
		}
		within(t, 10*time.Second, func() {
			sys, err := construct(o)
			if err != nil {
				t.Errorf("Validate passed what construction rejects: %v", err)
				return
			}
			sys.Release()
		})
	})
}
