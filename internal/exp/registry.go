package exp

import (
	"fmt"

	"crowdram/crow"
)

// Kind classifies experiments for CLI selection groups.
type Kind string

// Experiment kinds (the crowbench -exp group names).
const (
	Analytic Kind = "analytic"
	Sim      Kind = "sim"
	Ablation Kind = "ablations"
)

// Experiment is one named row of the registry. Table states the experiment
// once: it requests every run it needs through the Runner and assembles the
// table from the reports. PlanAll derives the experiment's plan by calling
// Table on a recording Runner, so the requests Table makes must depend only
// on the Runner's Scale — never on what an earlier report contained, which
// a recording cannot see (TestPlanCoversReduce is the guard). Analytic
// experiments request no runs.
type Experiment struct {
	Name string
	Kind Kind
	// Table assembles the experiment's table. After Execute(PlanAll(...))
	// it performs no fresh simulation work.
	Table func(*Runner) (Table, error)
}

// tab adapts a typed figure function to the registry's Table signature.
func tab[T interface{ Table() Table }](fn func(*Runner) (T, error)) func(*Runner) (Table, error) {
	return func(r *Runner) (Table, error) {
		res, err := fn(r)
		if err != nil {
			return Table{}, err
		}
		return res.Table(), nil
	}
}

// analytic adapts a pure table function to the registry's signature.
func analytic(fn func() Table) func(*Runner) (Table, error) {
	return func(*Runner) (Table, error) { return fn(), nil }
}

// Experiments returns the full registry in canonical order (the order
// crowbench -exp all renders).
func Experiments() []Experiment {
	return append([]Experiment{
		{Name: "table1", Kind: Analytic, Table: analytic(Table1)},
		{Name: "fig5", Kind: Analytic, Table: analytic(Fig5)},
		{Name: "fig6", Kind: Analytic, Table: analytic(Fig6)},
		{Name: "fig7", Kind: Analytic, Table: analytic(Fig7)},
		{Name: "weakprob", Kind: Analytic, Table: analytic(WeakProb)},
		{Name: "overhead", Kind: Analytic, Table: analytic(Overhead)},
		{Name: "fig8", Kind: Sim, Table: tab(Fig8)},
		{Name: "fig9", Kind: Sim, Table: tab(Fig9)},
		{Name: "fig10", Kind: Sim, Table: tab(Fig10)},
		{Name: "fig11", Kind: Sim, Table: tab(Fig11)},
		{Name: "fig12", Kind: Sim, Table: tab(Fig12)},
		{Name: "fig13", Kind: Sim, Table: tab(Fig13)},
		{Name: "fig14", Kind: Sim, Table: tab(Fig14)},
		{Name: "sharing", Kind: Ablation, Table: tab(TableSharing)},
		{Name: "restore", Kind: Ablation, Table: tab(RestorePolicy)},
		{Name: "refcompare", Kind: Ablation, Table: tab(RefComparison)},
		{Name: "latcompare", Kind: Ablation, Table: tab(LatencyComparison)},
		{Name: "refreshmodes", Kind: Ablation, Table: tab(RefreshModes)},
		{Name: "hammer", Kind: Ablation, Table: tab(HammerAttack)},
		{Name: "sched", Kind: Ablation, Table: tab(SchedulerSensitivity)},
		{Name: "hammerlab", Kind: Ablation, Table: tab(HammerLab)},
		{Name: "tenant", Kind: Ablation, Table: tab(Tenant)},
	}, standardExperiments()...)
}

// Select resolves a crowbench -exp selection: an experiment name, a kind
// ("analytic", "sim", "ablations"), or "all". Order follows the registry.
func Select(names []string) ([]Experiment, error) {
	all := Experiments()
	want := map[string]bool{}
	for _, n := range names {
		switch n {
		case "all":
			for _, e := range all {
				want[e.Name] = true
			}
		case string(Analytic), string(Sim), string(Ablation):
			for _, e := range all {
				if e.Kind == Kind(n) {
					want[e.Name] = true
				}
			}
		default:
			found := false
			for _, e := range all {
				if e.Name == n {
					want[e.Name] = true
					found = true
				}
			}
			if !found {
				return nil, fmt.Errorf("exp: unknown experiment %q", n)
			}
		}
	}
	var sel []Experiment
	for _, e := range all {
		if want[e.Name] {
			sel = append(sel, e)
		}
	}
	return sel, nil
}

// PlanAll returns every run the selected experiments request, in request
// order: it calls each simulation experiment's Table on a recording Runner
// at r's scale (see Runner.Run), so the plan cannot disagree with the reduce
// code. r itself executes nothing. Requests repeated within or across
// experiments stay in the list; the engine coalesces them by canonical key
// at execution time.
func PlanAll(r *Runner, sel []Experiment) []crow.Options {
	rec := &Runner{Scale: r.Scale, recording: true}
	for _, e := range sel {
		if e.Kind == Analytic {
			continue
		}
		// A recording Run cannot fail, and Run is Table's only source of
		// errors.
		if _, err := e.Table(rec); err != nil {
			panic(fmt.Sprintf("exp: recording %s's plan: %v", e.Name, err))
		}
	}
	return rec.recorded
}
