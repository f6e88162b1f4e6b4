package exp

import (
	"fmt"

	"crowdram/crow"
	"crowdram/internal/metrics"
)

// arm is one configuration of an experiment, a row of its table. fixed holds
// the cells that are stated rather than measured (storage, capacity cost),
// by column head; a stated cell wins over a measured one.
type arm struct {
	name  string
	o     crow.Options
	fixed map[string]float64
}

// col is one column: a quantity of one (baseline, arm) pair of reports,
// sampled once per app, folded over the suite (nil fold = arithmetic mean)
// and rendered by show. A column no arm measures has a nil of.
type col struct {
	head string
	of   func(base, rep crow.Report) float64
	show func(float64) string
	fold func([]float64) float64
}

// Study is the result of an experiment stated as arms × columns: every arm
// against one baseline, a few per-run quantities folded over the suite. Each
// number it reports is addressable by (arm name, column head).
type Study struct {
	title   string
	key     string // head of the arm-name column
	notes   []string
	arms    []arm
	cols    []col
	samples map[[2]int][]float64 // {arm, col} -> one value per observed pair
}

// observe samples every measured column of arm i on one pair of reports.
func (s *Study) observe(i int, base, rep crow.Report) {
	if s.samples == nil {
		s.samples = map[[2]int][]float64{}
	}
	for j, c := range s.cols {
		if c.of != nil {
			s.samples[[2]int{i, j}] = append(s.samples[[2]int{i, j}], c.of(base, rep))
		}
	}
}

// study fills s in: each arm and base run on every app of the single-core
// suite, every column sampled on each pair.
func (r *Runner) study(s Study, base crow.Options) (Study, error) {
	for i, a := range s.arms {
		err := r.eachApp(base, a.o, func(b, rep crow.Report) { s.observe(i, b, rep) })
		if err != nil {
			return Study{}, err
		}
	}
	return s, nil
}

func (s Study) cell(i, j int) float64 {
	c := s.cols[j]
	if v, ok := s.arms[i].fixed[c.head]; ok {
		return v
	}
	fold := c.fold
	if fold == nil {
		fold = metrics.Mean
	}
	return fold(s.samples[[2]int{i, j}])
}

// At returns the number the study reports for the named arm under the named
// column head. An unknown name is a typo in the caller, so it panics rather
// than answer zero.
func (s Study) At(armName, head string) float64 {
	for i, a := range s.arms {
		if a.name != armName {
			continue
		}
		for j, c := range s.cols {
			if c.head == head {
				return s.cell(i, j)
			}
		}
	}
	panic(fmt.Sprintf("exp: %q has no cell (%q, %q)", s.title, armName, head))
}

// Table renders the study, one row per arm.
func (s Study) Table() Table {
	t := Table{Title: s.title, Header: []string{s.key}, Notes: s.notes}
	for _, c := range s.cols {
		t.Header = append(t.Header, c.head)
	}
	for i, a := range s.arms {
		row := []string{a.name}
		for j, c := range s.cols {
			row = append(row, c.show(s.cell(i, j)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// The quantities most columns report, and the folds that are not a mean.

func ipcGain(base, rep crow.Report) float64 { return metrics.Speedup(rep.IPC[0], base.IPC[0]) }

func energyRatio(base, rep crow.Report) float64 {
	return rep.EnergyNJ.Total() / base.EnergyNJ.Total()
}

func speedup(head string) col { return col{head: head, of: ipcGain, show: pct} }
func energy(head string) col  { return col{head: head, of: energyRatio, show: dec3} }

// tally is a column that adds an event count of the arm's runs up over the
// suite.
func tally(head string, n func(crow.Report) int64) col {
	return col{
		head: head,
		of:   func(_, rep crow.Report) float64 { return float64(n(rep)) },
		show: func(v float64) string { return fmt.Sprint(int64(v)) },
		fold: sum,
	}
}

func sum(vals []float64) float64 {
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s
}

// last folds a quantity that is the same on every app (a chip's area).
func last(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return vals[len(vals)-1]
}
