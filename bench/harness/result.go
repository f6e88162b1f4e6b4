package harness

import (
	"fmt"
	"math"
	"sort"
)

// Value is one measured number with its unit.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run of one workload reports; its JSON encoding is the
// last line of the command's standard output.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Info is what a run knows beyond its Result: the digest that lets two
// commits be shown to simulate identically, the sample count behind every
// percentile, the sizes actually used, and the checks that failed.
type Info struct {
	SimDigest string             `json:"sim_digest,omitempty"`
	Host      *HostSpeed         `json:"host,omitempty"`
	Samples   map[string]int     `json:"samples,omitempty"`
	Sizes     map[string]float64 `json:"sizes,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
}

func (in *Info) fail(format string, args ...any) {
	in.Failures = append(in.Failures, fmt.Sprintf(format, args...))
}

func (in *Info) note(format string, args ...any) {
	in.Notes = append(in.Notes, fmt.Sprintf(format, args...))
}

func (in *Info) samples(name string, n int) {
	if in.Samples == nil {
		in.Samples = map[string]int{}
	}
	in.Samples[name] = n
}

func (in *Info) size(name string, v float64) {
	if in.Sizes == nil {
		in.Sizes = map[string]float64{}
	}
	in.Sizes[name] = v
}

// metricSet collects the values of one catalog list and enforces the
// catalog: a name outside it, a second value for a name, or a value that is
// not finite is a bug in the harness and reported as such.
type metricSet struct {
	defs map[string]Metric
	vals map[string]float64
	errs []string
}

func newMetricSet(defs []Metric) *metricSet {
	m := &metricSet{defs: map[string]Metric{}, vals: map[string]float64{}}
	for _, d := range defs {
		m.defs[d.Name] = d
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	switch _, known := m.defs[name]; {
	case !known:
		m.errs = append(m.errs, "metric "+name+" is not in the catalog")
	case math.IsNaN(v) || math.IsInf(v, 0):
		m.errs = append(m.errs, fmt.Sprintf("metric %s is not finite (%v)", name, v))
	default:
		if _, dup := m.vals[name]; dup {
			m.errs = append(m.errs, "metric "+name+" set twice")
		}
		m.vals[name] = v
	}
}

// values renders the set. With requireAll every catalog name must have been
// set (the end-to-end rule); otherwise unset names read 0, the per-layer
// convention for a path the workload does not take.
func (m *metricSet) values(requireAll bool) (map[string]Value, []string) {
	errs := append([]string(nil), m.errs...)
	out := make(map[string]Value, len(m.defs))
	for name, d := range m.defs {
		v, ok := m.vals[name]
		if !ok && requireAll {
			errs = append(errs, "metric "+name+" was not measured")
		}
		out[name] = Value{Value: v, Unit: d.Unit}
	}
	sort.Strings(errs)
	return out, errs
}

// seal closes a run: the measured values become the result's metrics, what
// the metric set objected to joins the failures, and any failure makes the
// run incorrect. The driver wants attempted to be at least 1.
func seal(res *Result, info *Info, ms *metricSet, requireAll bool) (Result, Info) {
	var errs []string
	res.Metrics, errs = ms.values(requireAll)
	info.Failures = append(info.Failures, errs...)
	res.Correct = len(info.Failures) == 0
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	if !res.Correct && res.Failed == 0 {
		res.Failed = 1
	}
	return *res, *info
}
