package crow

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"crowdram/internal/cache"
	"crowdram/internal/ctrl"
	"crowdram/internal/dram"
	"crowdram/internal/hammer"
	"crowdram/internal/trace"
)

// Mechanisms returns every selectable mechanism in declaration order.
func Mechanisms() []Mechanism {
	return []Mechanism{Baseline, Cache, Ref, CacheRef, Hammer, IdealCache,
		IdealNoRefresh, TLDRAM, SALP, RAIDR, ChargeCache}
}

// Standards returns the registered memory-standard names, sorted.
func Standards() []string { return dram.StandardNames() }

// Schedulers returns the registered scheduler names, sorted.
func Schedulers() []string { return ctrl.SchedulerNames() }

// RowPolicies returns the registered row-policy names, sorted.
func RowPolicies() []string { return ctrl.RowPolicyNames() }

// Mappings returns the registered address-mapping names, sorted.
func Mappings() []string { return dram.MappingNames() }

// Mitigations returns the registered RowHammer mitigation names, sorted.
func Mitigations() []string { return hammer.MitigationNames() }

// Translations returns the selectable virtual-to-physical translation modes.
func Translations() []string { return []string{"hash", "rowstripe"} }

// DecodeOptions parses Options from JSON strictly: an unknown field is an
// error, not silence — a remote caller who misspells "CopyRows" gets a clear
// rejection instead of a simulation of something else. The decoded value is
// additionally validated (see Validate). It is the deserializer behind
// crowserve's POST /v1/jobs.
func DecodeOptions(data []byte) (Options, error) {
	var o Options
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&o); err != nil {
		return Options{}, fmt.Errorf("crow: invalid options: %w", err)
	}
	// A second document in the payload is as suspect as an unknown field.
	if dec.More() {
		return Options{}, fmt.Errorf("crow: invalid options: trailing data after JSON document")
	}
	if err := o.Validate(); err != nil {
		return Options{}, err
	}
	return o, nil
}

// Validate reports whether the options describe a runnable simulation: known
// names, supported density, workload names and counts, sign checks on the
// numeric knobs, and the few magnitudes that would otherwise panic, spin or
// exhaust memory while the system is built. Run calls it first, and callers
// accepting Options over the wire call it to reject bad requests before
// queueing them; nothing behind it re-checks. Values that are merely extreme (a run that
// refresh-starves or takes hours) pass: MaxMeasureCycles and the caller's
// deadline bound those.
func (o Options) Validate() error {
	d := o.withDefaults()
	known := false
	for _, m := range Mechanisms() {
		if d.Mechanism == m {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("crow: unknown mechanism %q", d.Mechanism)
	}
	switch d.DensityGbit {
	case 8, 16, 32, 64:
	default:
		return fmt.Errorf("crow: unsupported density %d Gbit (want 8, 16, 32 or 64)", d.DensityGbit)
	}
	std, err := dram.StandardByName(d.Standard)
	if err != nil {
		return fmt.Errorf("crow: %w", err)
	}
	if err := ctrl.CheckScheduler(d.Scheduler); err != nil {
		return fmt.Errorf("crow: %w", err)
	}
	if err := ctrl.CheckRowPolicy(d.RowPolicy); err != nil {
		return fmt.Errorf("crow: %w", err)
	}
	if err := dram.CheckMapping(d.Mapping); err != nil {
		return fmt.Errorf("crow: %w", err)
	}
	if d.Mechanism == SALP && d.Standard != "lpddr4" {
		return fmt.Errorf("crow: salp supports only the lpddr4 standard, got %q", d.Standard)
	}
	if err := hammer.CheckMitigation(d.Mitigation); err != nil {
		return fmt.Errorf("crow: %w", err)
	}
	if d.Mitigation == "crow-hammer" {
		switch d.Mechanism {
		case Cache, Ref, CacheRef, Hammer:
		default:
			return fmt.Errorf("crow: mitigation crow-hammer requires a crow-* mechanism, got %q", d.Mechanism)
		}
	}
	if d.Mitigation == "para" && (d.ParaPerMille <= 0 || d.ParaPerMille > 1000) {
		return fmt.Errorf("crow: ParaPerMille must be in (0, 1000], got %d", d.ParaPerMille)
	}
	if d.Mitigation == "refresh-scale" && d.RefreshScale < 2 {
		return fmt.Errorf("crow: RefreshScale must be >= 2, got %d", d.RefreshScale)
	}
	if !slices.Contains(Translations(), d.Translation) {
		return fmt.Errorf("crow: unknown translation %q (want %s)", d.Translation, strings.Join(Translations(), " or "))
	}
	if len(o.TraceFiles) > 0 {
		if len(o.TraceFiles) > 4 {
			return fmt.Errorf("crow: want 1-4 trace files, got %d", len(o.TraceFiles))
		}
	} else {
		if len(d.Workloads) < 1 || len(d.Workloads) > 4 {
			return fmt.Errorf("crow: want 1-4 workloads, got %d", len(d.Workloads))
		}
		for _, name := range d.Workloads {
			if _, err := trace.ByName(name); err != nil {
				return err
			}
		}
	}
	// Every count is non-negative; those a run allocates in proportion to are
	// bounded above too (max 0: unbounded).
	g := std.Geometry(d.CopyRows)
	subRows := int64(g.RowsPerSubarray)
	for _, f := range []struct {
		name   string
		v, max int64
		of     string
	}{
		{"CopyRows", int64(d.CopyRows), subRows, "rows of a subarray"},
		{"WeakRowsPerSubarray", int64(d.WeakRowsPerSubarray), subRows, "rows of a subarray"},
		{"LLCBytes", d.LLCBytes, maxLLCBytes, "bytes (1 GiB) an LLC may have"},
		{"TLDRAMNearRows", int64(d.TLDRAMNearRows), subRows, "rows of a subarray"},
		{"SALPSubarrays", int64(d.SALPSubarrays), 0, ""},
		{"HammerThreshold", int64(d.HammerThreshold), 0, ""},
		{"TableShareGroup", int64(d.TableShareGroup), 0, ""},
		{"ControllerCap", int64(d.ControllerCap), 0, ""},
		{"RefreshPostpone", int64(d.RefreshPostpone), 0, ""},
		{"MeasureInsts", d.MeasureInsts, 0, ""},
		{"WarmupInsts", d.WarmupInsts, 0, ""},
		{"MaxMeasureCycles", d.MaxMeasureCycles, 0, ""},
		{"ParaPerMille", int64(d.ParaPerMille), 0, ""},
		{"RefreshScale", int64(d.RefreshScale), 0, ""},
		{"FlipHCFirst", int64(d.FlipHCFirst), 0, ""},
		{"FlipJitterPct", int64(d.FlipJitterPct), 0, ""},
		{"FlipPatternPct", int64(d.FlipPatternPct), 0, ""},
	} {
		if f.v < 0 {
			return fmt.Errorf("crow: %s must be non-negative, got %d", f.name, f.v)
		}
		if f.max > 0 && f.v > f.max {
			return fmt.Errorf("crow: %s %d exceeds the %d %s", f.name, f.v, f.max, f.of)
		}
	}
	if d.RefreshWindowMS < 0 || d.RowTimeoutNs < 0 {
		return fmt.Errorf("crow: refresh window and row timeout must be non-negative")
	}
	if llc := cache.DefaultConfig(); d.LLCBytes < int64(llc.LineBytes*llc.Assoc) {
		return fmt.Errorf("crow: LLCBytes %d is smaller than one %d-way set of %d-byte lines", d.LLCBytes, llc.Assoc, llc.LineBytes)
	}
	if rows := dram.Std(0).RowsPerBank; d.Mechanism == SALP && rows%d.SALPSubarrays != 0 {
		return fmt.Errorf("crow: SALPSubarrays %d does not divide the %d rows of a bank", d.SALPSubarrays, rows)
	}
	if refi := std.Timing(dram.Density(d.DensityGbit), d.RefreshWindowMS, g).REFI; refi < 1 {
		return fmt.Errorf("crow: refresh window %g ms makes tREFI %d cycles on %s", d.RefreshWindowMS, refi, d.Standard)
	}
	return nil
}

// maxLLCBytes bounds Options.LLCBytes: 32 times Figure 14's largest LLC, and a
// run at it stays near half a GiB of memory. Beyond it a request is an
// allocation failure, not a simulation.
const maxLLCBytes = 1 << 30
