package crow

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// roundTripCases are representative non-default configurations; they also seed
// FuzzDecodeOptions.
var roundTripCases = []Options{
	{},
	{Mechanism: Cache, Workloads: []string{"mcf", "lbm"}, CopyRows: 16},
	{Mechanism: CacheRef, Workloads: []string{"gcc"}, DensityGbit: 32,
		RefreshWindowMS: 128, Prefetch: true, PerBankRefresh: true,
		RefreshPostpone: 8, TableShareGroup: 4, Verify: true},
	{Mechanism: SALP, SALPSubarrays: 64, RowPolicy: "open", Seed: 7},
	{Mechanism: TLDRAM, TLDRAMNearRows: 16, LLCBytes: 16 << 20,
		MeasureInsts: 123_456, WarmupInsts: 12_000},
	{Workloads: []string{"hammer-double"}, Translation: "rowstripe",
		Mitigation: "para", ParaPerMille: 100, FlipHCFirst: 512,
		FlipJitterPct: 25, FlipBlastPct: 30, FlipPatternPct: 75,
		MaxMeasureCycles: 10_000_000},
	{Mechanism: Hammer, Workloads: []string{"hammer-many", "mcf"},
		Mitigation: "crow-hammer", HammerThreshold: 128,
		Translation: "rowstripe", FlipHCFirst: 1024},
}

// TestOptionsJSONRoundTrip: marshal → unmarshal must reproduce the value and
// its canonical key, for representative non-default configurations. The
// service depends on this — Options travel over the wire and must land in
// the same cache entry they would hit locally.
func TestOptionsJSONRoundTrip(t *testing.T) {
	for i, o := range roundTripCases {
		b, err := json.Marshal(o)
		if err != nil {
			t.Fatalf("case %d: marshal: %v", i, err)
		}
		got, err := DecodeOptions(b)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, o) {
			t.Errorf("case %d: round trip changed options:\n  in  %+v\n  out %+v", i, o, got)
		}
		if got.Key() != o.Key() {
			t.Errorf("case %d: round trip changed the canonical key", i)
		}
	}
}

// TestKeyStableAcrossDecode: a defaulted field spelled explicitly in the
// wire form must land in the same cache entry as the zero form.
func TestKeyStableAcrossDecode(t *testing.T) {
	zero, err := DecodeOptions([]byte(`{"Workloads":["mcf"]}`))
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := DecodeOptions([]byte(
		`{"Workloads":["mcf"],"CopyRows":8,"DensityGbit":8,"RefreshWindowMS":64,"Seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if zero.Key() != explicit.Key() {
		t.Error("explicit defaults must share the zero form's key")
	}
}

func TestDecodeOptionsRejectsUnknownFields(t *testing.T) {
	for _, payload := range []string{
		`{"CopyRowz": 8}`,                    // misspelled knob
		`{"Workloads":["mcf"],"extra":true}`, // stray field
		`{"Workloads":["mcf"]}{"x":1}`,       // trailing document
		`{"Workloads":"mcf"}`,                // wrong type
		`not json`,
		`{"Mitigatoin":"para"}`,     // misspelled mitigation knob
		`{"FlipHCFirstt":512}`,      // misspelled flip-model knob
		`{"Mitigation":"parra"}`,    // right knob, unknown mitigation
		`{"Mitigation":"PARA"}`,     // registry names are lower-case
		`{"Translation":"stripes"}`, // unknown translation mode
		`{"Scrub":true}`,            // a deleted knob is rejected, not ignored
	} {
		if _, err := DecodeOptions([]byte(payload)); err == nil {
			t.Errorf("DecodeOptions(%q) must fail", payload)
		}
	}
}

// badOptions is every shape Validate must reject, with a fragment of the
// message. TestRunRejectsWhatValidateRejects passes the same table to Run.
var badOptions = []struct {
	name string
	o    Options
	want string
}{
	{"mechanism", Options{Mechanism: "warp-drive"}, "unknown mechanism"},
	{"density", Options{DensityGbit: 12}, "unsupported density"},
	{"workload name", Options{Workloads: []string{"nope"}}, "unknown app"},
	{"workload count", Options{Workloads: []string{"mcf", "mcf", "mcf", "mcf", "mcf"}}, "1-4 workloads"},
	{"trace count", Options{TraceFiles: []string{"a", "b", "c", "d", "e"}}, "1-4 trace files"},
	{"negative insts", Options{MeasureInsts: -1}, "non-negative"},
	{"negative copyrows", Options{CopyRows: -2}, "non-negative"},
	{"negative window", Options{RefreshWindowMS: -5}, "non-negative"},
	{"standard", Options{Standard: "ddr9"}, `unknown standard "ddr9" (registered: ddr4, ddr5, hbm2, lpddr4, lpddr5)`},
	{"scheduler", Options{Scheduler: "rr"}, `unknown scheduler "rr" (registered: fcfs, frfcfs, frfcfs-cap)`},
	{"row policy", Options{RowPolicy: "adaptive"}, `unknown row policy "adaptive" (registered: closed, open, timeout)`},
	{"mapping", Options{Mapping: "colmajor"}, `unknown mapping "colmajor" (registered: robarococh, rocobarach)`},
	{"salp standard", Options{Mechanism: SALP, Standard: "ddr5"}, "salp supports only the lpddr4 standard"},
	{"mitigation name", Options{Mitigation: "parra"},
		`unknown mitigation "parra" (have [crow-hammer none para refresh-scale])`},
	{"crow-hammer mechanism", Options{Mitigation: "crow-hammer"},
		"crow-hammer requires a crow-* mechanism"},
	{"para probability", Options{Mitigation: "para", ParaPerMille: 1001}, "ParaPerMille"},
	{"refresh divisor", Options{Mitigation: "refresh-scale", RefreshScale: 1}, "RefreshScale"},
	{"translation", Options{Translation: "striped"}, "unknown translation"},
	{"negative hcfirst", Options{FlipHCFirst: -1}, "non-negative"},
	{"negative cap", Options{MaxMeasureCycles: -1}, "non-negative"},
	// Accepted at the parent, and fatal behind the gate: the first two
	// panicked while the system was built, the last two never returned.
	{"llc under one set", Options{LLCBytes: 1}, "smaller than one 8-way set"},
	{"salp subarrays", Options{Mechanism: SALP, SALPSubarrays: 3}, "does not divide"},
	{"refresh window", Options{RefreshWindowMS: 1e-9}, "makes tREFI 0 cycles on lpddr4"},
	{"weak rows", Options{Mechanism: Ref, WeakRowsPerSubarray: 100000}, "exceeds the 512 rows"},
	// Accepted at the parent, and an out-of-memory kill (or a makeslice panic)
	// of the process behind the gate: crowserve's every queued job with it.
	{"llc over 1 GiB", Options{LLCBytes: 1e9 << 20}, "LLCBytes 1048576000000000 exceeds the 1073741824 bytes (1 GiB)"},
	{"copy rows", Options{Mechanism: Cache, CopyRows: 1_000_000}, "CopyRows 1000000 exceeds the 512 rows"},
	{"near rows", Options{Mechanism: TLDRAM, TLDRAMNearRows: 1_000_000}, "TLDRAMNearRows 1000000 exceeds the 512 rows"},
}

func TestValidate(t *testing.T) {
	for _, c := range badOptions {
		err := c.o.Validate()
		if err == nil {
			t.Errorf("%s: Validate must fail", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	good := []Options{
		{},
		{Mechanism: Hammer, Workloads: []string{"mcf", "lbm", "gcc", "soplex"}},
		{TraceFiles: []string{"/tmp/a.trace"}}, // existence checked at run time
		{Standard: "ddr5", Scheduler: "fcfs", RowPolicy: "closed", Mapping: "rocobarach"},
		{Mechanism: Cache, Standard: "hbm2"},
		{Standard: "ddr4"},
		{Workloads: []string{"hammer-double"}, Translation: "rowstripe",
			Mitigation: "para", ParaPerMille: 1, FlipHCFirst: 512},
		{Mechanism: Hammer, Mitigation: "crow-hammer", HammerThreshold: 128},
		{Mitigation: "refresh-scale", RefreshScale: 32, MaxMeasureCycles: 1},
		// FlipBlastPct is deliberately signless: negative values clamp to 0.
		{FlipBlastPct: -1},
		// Extreme is not invalid: the smallest LLC, a refresh every cycle and
		// every row weak all build and run (slowly, or truncated).
		{LLCBytes: 512},
		{RefreshWindowMS: 0.0052},
		{Mechanism: SALP, SALPSubarrays: 65536},
		{Mechanism: Ref, WeakRowsPerSubarray: 512},
		{LLCBytes: maxLLCBytes},
		{Mechanism: Cache, CopyRows: 512},
		{Mechanism: TLDRAM, TLDRAMNearRows: 512},
	}
	for i, o := range good {
		if err := o.Validate(); err != nil {
			t.Errorf("good case %d: %v", i, err)
		}
	}
}
