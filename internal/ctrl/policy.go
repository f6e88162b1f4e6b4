package ctrl

import (
	"fmt"
	"sort"

	"crowdram/internal/dram"
)

// This file defines the controller's pluggable policy surfaces. The
// controller composes one Scheduler, one RowPolicy, and one RefreshPolicy,
// all resolved by name from registries at construction; the policy
// implementations are stateless (every mutable datum lives on the
// Controller), so the registered singletons are safely shared across
// concurrently running controllers.

// Scheduler decides which queued request to advance each cycle. Schedule
// runs the full pass over the preferred queue (reads, or writes in drain
// mode); ScheduleHits is the restricted pass the non-preferred queue gets so
// neither direction starves the other.
type Scheduler interface {
	Name() string
	Schedule(c *Controller, q *[]*Request, now int64) bool
	ScheduleHits(c *Controller, q *[]*Request, now int64) bool
}

// RowPolicy decides when to close rows no request needs. ServiceIdle may
// issue at most one command; a close it is still waiting for goes through
// Controller.ready, which is how the wake-up cycle learns of it.
type RowPolicy interface {
	Name() string
	ServiceIdle(c *Controller, now int64) bool
}

// RefreshPolicy decides how the per-rank refresh obligation is met. PerBank
// reports whether refreshes are bank-granular (the REFpb/REFsb command at
// banks-times the rate, for the shorter tRFCpb) or rank-granular (REFab).
// Issue tries to issue (or clear the way for) one refresh of rank r once the
// shared state machine has decided one is due: done means a command issued
// this cycle, wait means the rank is blocked on device timing and the scan
// must stop; neither means the refresh was postponed and the next rank may
// be considered.
type RefreshPolicy interface {
	Name() string
	PerBank() bool
	Issue(c *Controller, r int, now int64) (done, wait bool)
}

var (
	schedulers      = map[string]Scheduler{}
	rowPolicies     = map[string]RowPolicy{}
	refreshPolicies = map[string]RefreshPolicy{}
)

// RegisterScheduler adds a scheduler to the registry; it panics on a
// duplicate name so a wiring mistake fails at init.
func RegisterScheduler(s Scheduler) {
	if _, dup := schedulers[s.Name()]; dup {
		panic(fmt.Sprintf("ctrl: scheduler %q registered twice", s.Name()))
	}
	schedulers[s.Name()] = s
}

// RegisterRowPolicy adds a row policy to the registry.
func RegisterRowPolicy(p RowPolicy) {
	if _, dup := rowPolicies[p.Name()]; dup {
		panic(fmt.Sprintf("ctrl: row policy %q registered twice", p.Name()))
	}
	rowPolicies[p.Name()] = p
}

// RegisterRefreshPolicy adds a refresh policy to the registry.
func RegisterRefreshPolicy(p RefreshPolicy) {
	if _, dup := refreshPolicies[p.Name()]; dup {
		panic(fmt.Sprintf("ctrl: refresh policy %q registered twice", p.Name()))
	}
	refreshPolicies[p.Name()] = p
}

// SchedulerByName looks a scheduler up; the error lists registered names.
func SchedulerByName(name string) (Scheduler, error) {
	if s, ok := schedulers[name]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("ctrl: unknown scheduler %q (registered: %s)", name, join(SchedulerNames()))
}

// RowPolicyByName looks a row policy up; the error lists registered names.
func RowPolicyByName(name string) (RowPolicy, error) {
	if p, ok := rowPolicies[name]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("ctrl: unknown row policy %q (registered: %s)", name, join(RowPolicyNames()))
}

// RefreshPolicyByName looks a refresh policy up; the error lists registered
// names.
func RefreshPolicyByName(name string) (RefreshPolicy, error) {
	if p, ok := refreshPolicies[name]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("ctrl: unknown refresh policy %q (registered: %s)", name, join(RefreshPolicyNames()))
}

// SchedulerNames returns the registered scheduler names, sorted.
func SchedulerNames() []string { return sortedKeys(schedulers) }

// RowPolicyNames returns the registered row-policy names, sorted.
func RowPolicyNames() []string { return sortedKeys(rowPolicies) }

// RefreshPolicyNames returns the registered refresh-policy names, sorted.
func RefreshPolicyNames() []string { return sortedKeys(refreshPolicies) }

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func join(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

// frfcfsSched is FR-FCFS [81]: row hits first (oldest hit wins, demand
// before prefetch), then the oldest request that can make progress. The
// capped variant recycles a row once effCap column commands have been served
// from one activation; the uncapped variant sets effCap to zero (unlimited).
type frfcfsSched struct{ name string }

func (s frfcfsSched) Name() string { return s.name }
func (s frfcfsSched) Schedule(c *Controller, q *[]*Request, now int64) bool {
	return c.schedule(q, now)
}
func (s frfcfsSched) ScheduleHits(c *Controller, q *[]*Request, now int64) bool {
	return c.scheduleHits(q, now)
}

// fcfsSched serves requests strictly in arrival order: only the oldest
// request of the preferred queue may issue, and the non-preferred queue gets
// no out-of-order hit pass. The lower bound of the scheduling design space.
type fcfsSched struct{}

func (fcfsSched) Name() string { return "fcfs" }
func (fcfsSched) Schedule(c *Controller, q *[]*Request, now int64) bool {
	return c.scheduleInOrder(q, now)
}
func (fcfsSched) ScheduleHits(*Controller, *[]*Request, int64) bool { return false }

// timeoutRowPolicy closes rows idle past the controller's timeout (75 ns in
// Table 2). The "closed" variant is the same machinery with a zero timeout:
// a row closes as soon as no queued request wants it.
type timeoutRowPolicy struct{ name string }

func (p timeoutRowPolicy) Name() string { return p.name }
func (p timeoutRowPolicy) ServiceIdle(c *Controller, now int64) bool {
	return c.serviceTimeout(now)
}

// openRowPolicy never closes a row on its own; rows close only on conflicts,
// refresh, and the hit cap (the SALP open-page policy).
type openRowPolicy struct{}

func (openRowPolicy) Name() string                        { return "open" }
func (openRowPolicy) ServiceIdle(*Controller, int64) bool { return false }

// allbankRefresh issues LPDDR4-style REFab: the whole rank refreshes for
// tRFC, so open rows must close first.
type allbankRefresh struct{}

func (allbankRefresh) Name() string  { return "allbank" }
func (allbankRefresh) PerBank() bool { return false }
func (allbankRefresh) Issue(c *Controller, r int, now int64) (bool, bool) {
	if c.ready(c.Dev.ReadyREF(r), now) {
		c.Dev.REF(r, now)
		c.Stats.Refreshes++
		if c.Obs != nil {
			c.sched(SchedRefresh, dram.Addr{Channel: c.Cfg.ChannelID, Rank: r}, now)
		}
		start := c.refRow[r]
		c.Mech.OnRefreshRows(c.Cfg.ChannelID, r, -1, start, c.Cfg.T.RowsPerRef)
		c.refRow[r] = (start + c.Cfg.T.RowsPerRef) % c.Cfg.Geo.RowsPerBank
		c.refOwed[r]--
		return true, false
	}
	// Close open rows so REF can issue.
	c.osBuf = c.Dev.OpenSubarraysAppend(c.osBuf[:0])
	for _, os := range c.osBuf {
		if os.Rank != r {
			continue
		}
		a := dram.Addr{Channel: c.Cfg.ChannelID, Rank: os.Rank, Bank: os.Bank, Row: os.Row}
		if c.ready(c.Dev.ReadyPRE(a), now) {
			c.preAndNotify(a, now)
			return true, false
		}
	}
	// Blocked on tRAS/tRP; wait.
	return false, true
}

// perbankRefresh issues bank-granular refreshes round-robin over the rank's
// banks: one bank refreshes (for the shorter tRFCpb) while the others keep
// serving, at banks-times the command rate. Registered twice: as "perbank"
// (LPDDR4 REFpb, HBM2's default) and as "samebank" (DDR5 REFsb with tRFCsb
// in the RFCpb slot — in this single-bank-group-per-bank model the two
// commands sweep the banks identically).
type perbankRefresh struct{ name string }

func (p perbankRefresh) Name() string  { return p.name }
func (p perbankRefresh) PerBank() bool { return true }
func (p perbankRefresh) Issue(c *Controller, r int, now int64) (bool, bool) {
	// Time each refresh to bank idleness: defer while the target bank has
	// queued demand, within the per-bank postponement budget JEDEC allows
	// (8), so the refresh lands in a gap instead of stalling an active bank.
	budget := c.Cfg.MaxPostpone
	if budget == 0 {
		budget = c.Cfg.Geo.Banks
	}
	if c.refOwed[r] <= budget && c.hasBankDemand(r, c.refBank[r]) {
		return false, false
	}
	if c.refreshBank(r, now) {
		return true, false
	}
	return false, true
}

// Registered policy names. DefaultScheduler etc. are what an empty Config
// field resolves to — the Table 2 controller.
const (
	DefaultScheduler     = "frfcfs-cap"
	DefaultRowPolicy     = "timeout"
	DefaultRefreshPolicy = "allbank"
)

func init() {
	RegisterScheduler(frfcfsSched{name: DefaultScheduler})
	RegisterScheduler(frfcfsSched{name: "frfcfs"})
	RegisterScheduler(fcfsSched{})
	RegisterRowPolicy(timeoutRowPolicy{name: DefaultRowPolicy})
	RegisterRowPolicy(timeoutRowPolicy{name: "closed"})
	RegisterRowPolicy(openRowPolicy{})
	RegisterRefreshPolicy(allbankRefresh{})
	RegisterRefreshPolicy(perbankRefresh{name: "perbank"})
	RegisterRefreshPolicy(perbankRefresh{name: "samebank"})
}
