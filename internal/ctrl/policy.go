package ctrl

import (
	"fmt"
	"sort"
	"strings"
)

// This file states what each controller policy name means. A name is data:
// resolvePolicies turns the three names of a Config into plain Controller
// fields once, at construction, and the scheduling pass branches on those.

// DefaultScheduler etc. are what an empty Config field resolves to — the
// Table 2 controller.
const (
	DefaultScheduler     = "frfcfs-cap"
	DefaultRowPolicy     = "timeout"
	DefaultRefreshPolicy = "allbank"
)

// schedulers: FR-FCFS [81] serves row hits first (oldest hit wins, demand
// before prefetch), then the oldest request that can make progress, and gives
// the non-preferred queue a hit-only pass so neither direction starves.
var schedulers = map[string]struct {
	// inOrder serves requests strictly in arrival order instead: only the
	// oldest request of the preferred queue may issue and the other queue gets
	// no pass. The lower bound of the scheduling design space.
	inOrder bool
	// capped recycles a row once Config.Cap column commands have been served
	// from one activation.
	capped bool
}{
	DefaultScheduler: {capped: true},
	"frfcfs":         {},
	"fcfs":           {inOrder: true},
}

// rowPolicies: when rows no queued request needs are closed.
var rowPolicies = map[string]struct {
	// closeIdle closes such rows at all; without it they close only on
	// conflicts, refresh and the hit cap (the SALP open-page policy).
	closeIdle bool
	// immediate closes them as soon as nothing wants them, rather than after
	// Config.TimeoutNs (75 ns in Table 2).
	immediate bool
}{
	DefaultRowPolicy: {closeIdle: true},
	"closed":         {closeIdle: true, immediate: true},
	"open":           {},
}

// refreshPolicies: whether refreshes are bank-granular — one bank refreshes
// (for the shorter tRFCpb) while the others keep serving, at banks-times the
// command rate — or rank-granular (REFab: the whole rank refreshes for tRFC,
// so its open rows must close first). "perbank" is LPDDR4 REFpb and HBM2's
// default; "samebank" is DDR5 REFsb with tRFCsb in the RFCpb slot — in this
// single-bank-group-per-bank model the two commands sweep the banks
// identically.
var refreshPolicies = map[string]bool{
	DefaultRefreshPolicy: false,
	"perbank":            true,
	"samebank":           true,
}

// SchedulerNames returns the scheduler names, sorted.
func SchedulerNames() []string { return sortedKeys(schedulers) }

// RowPolicyNames returns the row-policy names, sorted.
func RowPolicyNames() []string { return sortedKeys(rowPolicies) }

// CheckScheduler reports whether name is a scheduler; the error lists the
// choices.
func CheckScheduler(name string) error { return check("scheduler", schedulers, name) }

// CheckRowPolicy reports whether name is a row policy; the error lists the
// choices.
func CheckRowPolicy(name string) error { return check("row policy", rowPolicies, name) }

// CheckRefreshPolicy reports whether name is a refresh policy; the error
// lists the choices.
func CheckRefreshPolicy(name string) error { return check("refresh policy", refreshPolicies, name) }

func check[V any](kind string, m map[string]V, name string) error {
	if _, ok := m[name]; ok {
		return nil
	}
	return fmt.Errorf("ctrl: unknown %s %q (registered: %s)", kind, name, strings.Join(sortedKeys(m), ", "))
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// resolvePolicies fills the Config's empty policy names with the Table 2
// defaults and turns the three names into the fields the scheduling pass
// branches on. Unknown names panic: user-facing inputs are validated at the
// crow.Options layer, so an unknown name here is a wiring bug.
func (c *Controller) resolvePolicies() {
	cfg := &c.Cfg
	if cfg.Scheduler == "" {
		cfg.Scheduler = DefaultScheduler
	}
	if cfg.RowPolicy == "" {
		cfg.RowPolicy = DefaultRowPolicy
	}
	if cfg.Refresh == "" {
		cfg.Refresh = DefaultRefreshPolicy
	}
	for _, err := range []error{CheckScheduler(cfg.Scheduler), CheckRowPolicy(cfg.RowPolicy), CheckRefreshPolicy(cfg.Refresh)} {
		if err != nil {
			panic(err)
		}
	}
	s, r := schedulers[cfg.Scheduler], rowPolicies[cfg.RowPolicy]
	c.inOrder = s.inOrder
	if s.capped {
		c.effCap = int32(cfg.Cap)
	}
	c.closeIdle = r.closeIdle
	c.timeout = int64(cfg.TimeoutNs / cfg.T.CycleTime())
	if r.immediate {
		c.timeout = 0
	}
	c.perBank = refreshPolicies[cfg.Refresh]
}

// HitCap returns the per-activation row-hit cap the scheduler enforces (0 =
// none). With BankRefresh it is what the oracle needs to know of the policies.
func (c *Controller) HitCap() int { return int(c.effCap) }

// BankRefresh reports whether refreshes are bank-granular (REFpb/REFsb).
func (c *Controller) BankRefresh() bool { return c.perBank }
