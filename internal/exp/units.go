package exp

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/fall"
	"repro/internal/genbench"
	"repro/internal/obs"
	"repro/internal/sat"
)

// This file defines the unit layer underneath every report: a Unit is
// the smallest independently-executable piece of an experiment run (one
// attack on one locked instance, one Fig. 6 pairing, one Table I row).
// A report suite is SuiteUnits → RunUnits → RenderSuite. cmd/fallbench
// runs all of a suite's units in one process, the 1-shard special case;
// internal/campaign enumerates the same units into a serialized plan,
// executes arbitrary shards of them, and renders the persisted unit
// results through the same RenderSuite.

// SATAttackName is the Outcome.Attack label of the baseline SAT attack.
const SATAttackName = "SAT-Attack"

// UnitKind classifies what a unit computes.
type UnitKind int

const (
	// UnitTable1 builds one spec at all four levels and reports the
	// Table I gate-count row.
	UnitTable1 UnitKind = iota
	// UnitFig5 runs one attack (SAT or a FALL analysis) on one case.
	UnitFig5
	// UnitFig6 runs the §VI-C pairing (FALL → key confirmation, plus
	// the SAT attack) on one case.
	UnitFig6
	// UnitSummary runs the combined (Auto) FALL attack on one case.
	UnitSummary
)

func (k UnitKind) String() string {
	switch k {
	case UnitTable1:
		return "table1"
	case UnitFig5:
		return "fig5"
	case UnitFig6:
		return "fig6"
	default:
		return "summary"
	}
}

// ParseUnitKind inverts UnitKind.String.
func ParseUnitKind(s string) (UnitKind, error) {
	switch s {
	case "table1":
		return UnitTable1, nil
	case "fig5":
		return UnitFig5, nil
	case "fig6":
		return UnitFig6, nil
	case "summary":
		return UnitSummary, nil
	}
	return UnitTable1, fmt.Errorf("exp: unknown unit kind %q", s)
}

// Unit identifies one executable experiment case. Level is meaningful
// for every kind but UnitTable1 (which spans all levels); Attack names
// the attack for UnitFig5 (SATAttackName or a fall analysis name) and
// the analysis for UnitSummary.
type Unit struct {
	Kind    UnitKind
	Circuit string
	Level   HLevel
	Attack  string
}

// ID returns the unit's stable identifier, used as the campaign case ID
// and artifact file name stem.
func (u Unit) ID() string {
	switch u.Kind {
	case UnitTable1:
		return "table1/" + u.Circuit
	case UnitFig5:
		return fmt.Sprintf("fig5/%s/%s/%s", u.Circuit, u.Level.Token(), u.Attack)
	case UnitFig6:
		return fmt.Sprintf("fig6/%s/%s", u.Circuit, u.Level.Token())
	default:
		return fmt.Sprintf("summary/%s/%s", u.Circuit, u.Level.Token())
	}
}

// fig5Analyses lists the FALL analyses of a Fig. 5 panel: unateness for
// HD0, sliding window everywhere else, plus Distance2H where its
// applicability condition 4h <= m holds (h = m/8, m/4).
func fig5Analyses(level HLevel) []fall.Analysis {
	switch level {
	case HD0:
		return []fall.Analysis{fall.Unateness}
	case HM3:
		return []fall.Analysis{fall.SlidingWindow}
	default:
		return []fall.Analysis{fall.SlidingWindow, fall.Distance2H}
	}
}

// Fig5AttackNames lists the attack labels of a Fig. 5 panel in output
// order (the SAT attack first, as in the paper's legends).
func Fig5AttackNames(level HLevel) []string {
	names := []string{SATAttackName}
	for _, a := range fig5Analyses(level) {
		names = append(names, a.String())
	}
	return names
}

// fig5CaseUnits enumerates the panel's units for one case in run order.
func fig5CaseUnits(circuit string, level HLevel) []Unit {
	units := []Unit{{Kind: UnitFig5, Circuit: circuit, Level: level, Attack: SATAttackName}}
	for _, a := range fig5Analyses(level) {
		units = append(units, Unit{Kind: UnitFig5, Circuit: circuit, Level: level, Attack: a.String()})
	}
	return units
}

// SuiteUnits enumerates the units of one report suite — "table1",
// "fig5:<hd0|h8|h4|h3>", "fig6" or "summary" — over cfg.Specs, without
// building any circuits. This is the order RenderSuite reports in, and
// the order of a campaign plan's cases.
func SuiteUnits(cfg Config, suite string) ([]Unit, error) {
	var units []Unit
	switch {
	case suite == "table1":
		for _, spec := range cfg.Specs {
			units = append(units, Unit{Kind: UnitTable1, Circuit: spec.Name})
		}
	case strings.HasPrefix(suite, "fig5:"):
		level, err := ParseHLevel(strings.TrimPrefix(suite, "fig5:"))
		if err != nil {
			return nil, err
		}
		for _, spec := range cfg.Specs {
			units = append(units, fig5CaseUnits(spec.Name, level)...)
		}
	case suite == "fig6":
		for _, spec := range cfg.Specs {
			for _, level := range Levels {
				units = append(units, Unit{Kind: UnitFig6, Circuit: spec.Name, Level: level})
			}
		}
	case suite == "summary":
		for _, spec := range cfg.Specs {
			for _, level := range Levels {
				units = append(units, Unit{Kind: UnitSummary, Circuit: spec.Name, Level: level, Attack: fall.Auto.String()})
			}
		}
	default:
		return nil, fmt.Errorf("exp: unknown suite %q (want table1, fig5:<level>, fig6 or summary)", suite)
	}
	return units, nil
}

// UnitResult is the outcome of one unit, with exactly one payload field
// set according to the unit's kind (Err on harness-level failure).
type UnitResult struct {
	Outcome *Outcome        // UnitFig5, UnitSummary
	Fig6    *Fig6CaseResult // UnitFig6
	Table1  *Table1Row      // UnitTable1
	Err     error
}

// Failed reports whether the unit ran but produced no usable
// measurement: a harness error, a hard attack failure, or a Fig. 6
// pairing whose SAT attack failed hard or whose key confirmation never
// ran. It is the one definition of failure behind fallbench's exit code
// and campaign's artifact accounting.
func (r UnitResult) Failed() bool {
	switch {
	case r.Err != nil:
		return true
	case r.Outcome != nil && r.Outcome.Failed:
		return true
	case r.Fig6 != nil && (r.Fig6.SA.Failed || !r.Fig6.KCRan):
		return true
	}
	return false
}

// MemoStats sums the verdict-cache hit/miss counters recorded across
// results (attack outcomes, Fig. 6 key-confirmation pipelines and their
// SAT-attack halves). Nil when no result ran with memoization enabled.
func MemoStats(results []UnitResult) *sat.MemoStats {
	var total sat.MemoStats
	found := false
	add := func(st *sat.MemoStats) {
		if st != nil {
			total = total.Add(*st)
			found = true
		}
	}
	for _, r := range results {
		if r.Outcome != nil {
			add(r.Outcome.MemoStats)
		}
		if r.Fig6 != nil {
			add(r.Fig6.KCMemoStats)
			add(r.Fig6.SA.MemoStats)
		}
	}
	if !found {
		return nil
	}
	return &total
}

// RenderSuite writes one report suite (a SuiteUnits name) to w: its
// header line, then its table, aggregated from results in SuiteUnits
// order. Results without a payload (harness errors, cases a partial
// campaign has not run yet) are skipped. Both cmd/fallbench and
// campaign merge print through it, so a merged campaign is
// byte-identical to a monolithic run with the same measurements.
func RenderSuite(w io.Writer, suite string, results []UnitResult) error {
	var outs []Outcome
	var figs []Fig6CaseResult
	var rows []Table1Row
	for _, r := range results {
		switch {
		case r.Outcome != nil:
			outs = append(outs, *r.Outcome)
		case r.Fig6 != nil:
			figs = append(figs, *r.Fig6)
		case r.Table1 != nil:
			rows = append(rows, *r.Table1)
		}
	}
	var err error
	switch {
	case suite == "table1":
		_, err = fmt.Fprintf(w, "=== Table I (regenerated) ===\n%s", FormatTable1(rows))
	case strings.HasPrefix(suite, "fig5:"):
		level, perr := ParseHLevel(strings.TrimPrefix(suite, "fig5:"))
		if perr != nil {
			return perr
		}
		_, err = fmt.Fprintf(w, "=== Fig. 5 panel %s (%s) ===\n%s", level.Token(), level.Label(), FormatCactus(outs, Fig5AttackNames(level)))
	case suite == "fig6":
		_, err = fmt.Fprintf(w, "=== Fig. 6: key confirmation vs SAT attack ===\n%s", FormatFig6(AggregateFig6(figs)))
	case suite == "summary":
		_, err = fmt.Fprintf(w, "=== §VI-B summary ===\n%s", FormatSummary(AggregateSummary(outs)))
	default:
		return fmt.Errorf("exp: unknown suite %q (want table1, fig5:<level>, fig6 or summary)", suite)
	}
	return err
}

// unitCost estimates a unit's relative runtime for the adaptive
// longest-expected-first dispatch order. The weights are heuristic but
// deterministic and monotone in the drivers that dominate measured cost:
// key size (the SAT attack's distinguishing-input space and the FALL
// candidate count), the Hamming level (cardinality-constraint size and
// lemma hardness), and the attack kind (iterative oracle loops dwarf
// one-shot analyses; the Fig. 6 pairing runs three attacks).
func unitCost(u Unit, spec genbench.Spec) int64 {
	keys := int64(spec.Keys)
	gates := int64(spec.Gates)
	h := int64(u.Level.Value(spec.Keys))
	base := gates + keys*keys
	switch u.Kind {
	case UnitTable1:
		return 4 * gates // locking only, no attacks
	case UnitSummary:
		return base * (2 + h)
	case UnitFig6:
		return 8*base*(1+h) + keys*gates // FALL + key confirmation + SAT attack
	}
	switch u.Attack {
	case SATAttackName:
		return 6*base + keys*gates
	case fall.Distance2H.String():
		return base * (3 + 2*h)
	case fall.SlidingWindow.String():
		return base * (2 + h)
	default: // unateness / auto
		return base
	}
}

// DispatchOrder returns the indices of units sorted
// longest-expected-first by the cost model (ties broken by unit index,
// so the order is deterministic). Handing the pool the expensive units
// first cuts tail latency: a long SAT attack started last would
// otherwise run alone after every cheap analysis has drained.
func DispatchOrder(units []Unit, specs map[string]genbench.Spec) []int {
	order := make([]int, len(units))
	cost := make([]int64, len(units))
	for i, u := range units {
		order[i] = i
		cost[i] = unitCost(u, specs[u.Circuit])
	}
	sort.SliceStable(order, func(a, b int) bool {
		if cost[order[a]] != cost[order[b]] {
			return cost[order[a]] > cost[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}

type caseKey struct {
	circuit string
	level   HLevel
}

// RunUnits executes units against the given pre-built cases on the
// harness worker pool, dispatching longest-expected-first, and returns
// results indexed like units (output order never depends on
// scheduling). It returns an error if some unit has no matching case.
func RunUnits(ctx context.Context, cases []*Case, units []Unit, cfg Config) ([]UnitResult, error) {
	byKey := make(map[caseKey]*Case, len(cases))
	specs := make(map[string]genbench.Spec)
	for _, cs := range cases {
		byKey[caseKey{cs.Spec.Name, cs.Level}] = cs
		specs[cs.Spec.Name] = cs.Spec
	}
	for _, u := range units {
		if u.Kind == UnitTable1 {
			for _, level := range Levels {
				if byKey[caseKey{u.Circuit, level}] == nil {
					return nil, fmt.Errorf("exp: unit %s: no case for %s/%s", u.ID(), u.Circuit, level.Token())
				}
			}
		} else if byKey[caseKey{u.Circuit, u.Level}] == nil {
			return nil, fmt.Errorf("exp: unit %s: no case for %s/%s", u.ID(), u.Circuit, u.Level.Token())
		}
	}
	order := DispatchOrder(units, specs)
	results := make([]UnitResult, len(units))
	forEachIndexed(cfg.workers(), len(units), func(j int) {
		i := order[j]
		results[i] = runUnit(ctx, units[i], byKey, cfg)
	})
	return results, nil
}

// cancelledUnit synthesizes the result of a unit whose attacks never
// started because the context was already dead: the identifying fields
// are filled in, the verdict is a timeout, and no attack setup (circuit
// encoding, solver construction) is paid. Table I units carry no attack
// work, so they are never synthesized — runUnit computes them for real.
func cancelledUnit(u Unit) UnitResult {
	switch u.Kind {
	case UnitFig5, UnitSummary:
		return UnitResult{Outcome: &Outcome{Circuit: u.Circuit, Level: u.Level, Attack: u.Attack, TimedOut: true}}
	default: // UnitFig6
		return UnitResult{Fig6: &Fig6CaseResult{
			Circuit: u.Circuit, Level: u.Level,
			SA: Outcome{Circuit: u.Circuit, Level: u.Level, Attack: SATAttackName, TimedOut: true},
		}}
	}
}

func runUnit(ctx context.Context, u Unit, byKey map[caseKey]*Case, cfg Config) UnitResult {
	// A dead context must not pay per-unit attack setup: at paper scale
	// a cancelled run would otherwise Tseitin-encode thousands of gates
	// per remaining unit just to discover the cancellation inside the
	// first solver call. (In-flight units still drain through their own
	// ctx checks; campaign shards never persist either kind.)
	if ctx.Err() != nil && u.Kind != UnitTable1 {
		return cancelledUnit(u)
	}
	// One trace span per unit (traced runs only): phases, grid cells
	// and solver queries of the unit parent here through the context.
	if sp := cfg.Trace.Child("unit", "id", u.ID()); sp != nil {
		ctx = obs.With(ctx, sp)
		defer sp.End()
	}
	switch u.Kind {
	case UnitTable1:
		var row Table1Row
		for _, level := range Levels {
			cs := byKey[caseKey{u.Circuit, level}]
			row.Name, row.In, row.Out, row.Keys = cs.Spec.Name, cs.Spec.Inputs, cs.Spec.Outputs, cs.Spec.Keys
			row.GatesOrig = cs.Orig.NumGates()
			g := cs.Lock.Locked.NumGates()
			if row.GatesMin == 0 || g < row.GatesMin {
				row.GatesMin = g
			}
			if g > row.GatesMax {
				row.GatesMax = g
			}
		}
		return UnitResult{Table1: &row}
	case UnitFig5:
		cs := byKey[caseKey{u.Circuit, u.Level}]
		var out Outcome
		if u.Attack == SATAttackName {
			out = RunSAT(ctx, cs, cfg)
		} else {
			an, ok := fall.ParseAnalysis(u.Attack)
			if !ok {
				return UnitResult{Err: fmt.Errorf("exp: unit %s: unknown attack %q", u.ID(), u.Attack)}
			}
			out = RunFALL(ctx, cs, an, cfg)
		}
		return UnitResult{Outcome: &out}
	case UnitFig6:
		r := RunFig6Case(ctx, byKey[caseKey{u.Circuit, u.Level}], cfg)
		return UnitResult{Fig6: &r}
	default: // UnitSummary
		an := fall.Auto
		if u.Attack != "" {
			// An unknown name is an error, never a silent fallback: a
			// misdescribed unit would otherwise persist a normal-looking
			// artifact whose verdict came from the wrong analysis.
			a, ok := fall.ParseAnalysis(u.Attack)
			if !ok {
				return UnitResult{Err: fmt.Errorf("exp: unit %s: unknown analysis %q", u.ID(), u.Attack)}
			}
			an = a
		}
		out := RunFALL(ctx, byKey[caseKey{u.Circuit, u.Level}], an, cfg)
		return UnitResult{Outcome: &out}
	}
}
