package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/sat"
)

// MergeResult is the reassembly of a campaign's artifacts against its
// plan: every planned case resolved to its artifact, with the
// unresolved and failed IDs called out.
type MergeResult struct {
	Plan      *Plan
	Artifacts map[string]*Artifact
	// Missing lists planned case IDs with no artifact, in plan order.
	Missing []string
	// Failed lists case IDs whose artifact records a failure, in plan
	// order.
	Failed []string
}

// Merge reads every artifact under dirs and lines them up with the
// plan. Artifacts from other plans or for unknown cases are errors; an
// incomplete campaign is not (the caller decides whether Missing is
// acceptable — see Complete).
func Merge(plan *Plan, dirs []string) (*MergeResult, error) {
	arts, err := ReadArtifacts(plan, dirs)
	if err != nil {
		return nil, err
	}
	m := &MergeResult{Plan: plan, Artifacts: arts}
	for _, pc := range plan.Cases {
		a, ok := arts[pc.ID]
		if !ok {
			m.Missing = append(m.Missing, pc.ID)
			continue
		}
		if a.Failed() {
			m.Failed = append(m.Failed, pc.ID)
		}
	}
	return m, nil
}

// Complete reports whether every planned case has an artifact.
func (m *MergeResult) Complete() bool { return len(m.Missing) == 0 }

// WinStats aggregates the per-engine racing statistics recorded across
// every artifact (attack outcomes, Fig. 6 key-confirmation pipelines
// and their SAT-attack halves), keyed by engine label in plan order —
// the campaign-level ledger snapshot that cmd/campaign merge prints and
// persists for -learn-from. Nil when the campaign did not race.
func (m *MergeResult) WinStats() []sat.ConfigStats {
	var groups [][]sat.ConfigStats
	for _, pc := range m.Plan.Cases {
		a, ok := m.Artifacts[pc.ID]
		if !ok {
			continue
		}
		if a.Outcome != nil {
			groups = append(groups, a.Outcome.PortfolioStats)
		}
		if a.Fig6 != nil {
			groups = append(groups, a.Fig6.KCPortfolio, a.Fig6.SA.PortfolioStats)
		}
	}
	return sat.MergeStats(groups...)
}

// MemoStats aggregates the verdict-cache hit/miss counters recorded
// across every artifact (attack outcomes, Fig. 6 key-confirmation
// pipelines and their SAT-attack halves). Nil when no shard ran with
// memoization enabled.
func (m *MergeResult) MemoStats() *sat.MemoStats {
	var total sat.MemoStats
	found := false
	add := func(st *sat.MemoStats) {
		if st != nil {
			total = total.Add(*st)
			found = true
		}
	}
	for _, pc := range m.Plan.Cases {
		a, ok := m.Artifacts[pc.ID]
		if !ok {
			continue
		}
		if a.Outcome != nil {
			add(a.Outcome.MemoStats)
		}
		if a.Fig6 != nil {
			add(a.Fig6.KCMemoStats)
			add(a.Fig6.SA.MemoStats)
		}
	}
	if !found {
		return nil
	}
	return &total
}

// Render writes the plan's report suites in order, reassembled from the
// artifacts, using the exact formatting of the monolithic
// exp/fallbench output — a merge over any sharding is byte-identical to
// a 1-shard run with the same measurements. Cases without artifacts are
// skipped (their runs simply do not appear), so partial campaigns still
// render.
func (m *MergeResult) Render(w io.Writer) error {
	expCfg, err := m.Plan.Config.ExpConfig()
	if err != nil {
		return err
	}
	for _, suite := range m.Plan.Config.Suites {
		units, err := exp.SuiteUnits(expCfg, suite)
		if err != nil {
			return err
		}
		switch {
		case suite == "table1":
			var rows []exp.Table1Row
			for _, u := range units {
				if a := m.Artifacts[u.ID()]; a != nil && a.Table1 != nil {
					rows = append(rows, *a.Table1)
				}
			}
			fmt.Fprintln(w, "=== Table I (regenerated) ===")
			fmt.Fprint(w, exp.FormatTable1(rows))
		case strings.HasPrefix(suite, "fig5:"):
			level, err := exp.ParseHLevel(strings.TrimPrefix(suite, "fig5:"))
			if err != nil {
				return err
			}
			var outs []exp.Outcome
			for _, u := range units {
				if a := m.Artifacts[u.ID()]; a != nil && a.Outcome != nil {
					outs = append(outs, *a.Outcome)
				}
			}
			fmt.Fprintf(w, "=== Fig. 5 panel %s (%s) ===\n", level.Token(), level.Label())
			fmt.Fprint(w, exp.FormatCactus(outs, exp.Fig5AttackNames(level)))
		case suite == "fig6":
			var results []exp.Fig6CaseResult
			for _, u := range units {
				if a := m.Artifacts[u.ID()]; a != nil && a.Fig6 != nil {
					results = append(results, *a.Fig6)
				}
			}
			fmt.Fprintln(w, "=== Fig. 6: key confirmation vs SAT attack ===")
			fmt.Fprint(w, exp.FormatFig6(exp.AggregateFig6(results)))
		case suite == "summary":
			var outs []exp.Outcome
			for _, u := range units {
				if a := m.Artifacts[u.ID()]; a != nil && a.Outcome != nil {
					outs = append(outs, *a.Outcome)
				}
			}
			fmt.Fprintln(w, "=== §VI-B summary ===")
			fmt.Fprint(w, exp.FormatSummary(exp.AggregateSummary(outs)))
		default:
			return fmt.Errorf("campaign: unknown suite %q in plan", suite)
		}
	}
	return nil
}

// SuiteStatus is the progress of one report suite.
type SuiteStatus struct {
	Suite  string
	Total  int
	Done   int
	Failed int
}

// WorkerClaim is one live (or expired) claim file observed in an
// artifact directory: the fleet's in-flight work, as `campaign status`
// shows it.
type WorkerClaim struct {
	Owner string
	Case  string
	// Age is how long ago the claim was last heartbeated. Stale means
	// Age exceeds the default lease: the owner is presumed dead and the
	// case will be re-stolen by the next scanning worker.
	Age   time.Duration
	Stale bool
}

// StatusReport is the progress of a whole campaign.
type StatusReport struct {
	Total, Done, Failed int
	Suites              []SuiteStatus
	// MissingSample lists up to 10 unfinished case IDs in plan order.
	MissingSample []string
	// Claims lists in-flight claim files for still-pending cases, by
	// owner then case — the fleet's live workers.
	Claims []WorkerClaim
	// BudgetStopped lists workers that ran out of wall-clock budget
	// with cases remaining — distinct from failures: their cases are
	// healthy and a resumed run finishes them.
	BudgetStopped []BudgetStop
}

// Complete reports whether every planned case has an artifact.
func (s *StatusReport) Complete() bool { return s.Done == s.Total }

// Status summarizes how much of the plan the artifacts in dirs cover.
func Status(plan *Plan, dirs []string) (*StatusReport, error) {
	arts, err := ReadArtifacts(plan, dirs)
	if err != nil {
		return nil, err
	}
	s := &StatusReport{Total: len(plan.Cases)}
	bySuite := map[string]int{}
	for _, pc := range plan.Cases {
		suite := pc.Suite()
		idx, ok := bySuite[suite]
		if !ok {
			idx = len(s.Suites)
			s.Suites = append(s.Suites, SuiteStatus{Suite: suite})
			bySuite[suite] = idx
		}
		ss := &s.Suites[idx]
		ss.Total++
		a, done := arts[pc.ID]
		if !done {
			if len(s.MissingSample) < 10 {
				s.MissingSample = append(s.MissingSample, pc.ID)
			}
			continue
		}
		s.Done++
		ss.Done++
		if a.Failed() {
			s.Failed++
			ss.Failed++
		}
	}
	s.scanFleet(arts, dirs)
	return s, nil
}

// scanFleet collects claim files and budget markers from the artifact
// directories: the live (and dead) workers of the fleet, and the
// shards that stopped on an exhausted wall-clock budget. Both are
// advisory displays, so unreadable files are skipped, and claims whose
// case already has an artifact are litter from a worker that died after
// persisting — not in-flight work — and are not shown.
func (s *StatusReport) scanFleet(arts map[string]*Artifact, dirs []string) {
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, ent := range entries {
			name := ent.Name()
			switch {
			case ent.IsDir():
			case strings.HasSuffix(name, ClaimSuffix):
				info, mtime, err := ReadClaim(filepath.Join(dir, name))
				if err != nil {
					continue
				}
				caseID := info.Case
				if caseID == "" {
					// Derive from the file name (claim body is advisory
					// and may be half-written).
					base := strings.TrimSuffix(strings.TrimSuffix(name, ClaimSuffix), ".json")
					caseID = strings.ReplaceAll(base, "__", "/")
				}
				if _, done := arts[caseID]; done {
					continue
				}
				age := time.Since(mtime)
				s.Claims = append(s.Claims, WorkerClaim{
					Owner: info.Owner, Case: caseID, Age: age, Stale: age > DefaultLease,
				})
			case strings.HasPrefix(name, budgetMarkerPrefix) && strings.HasSuffix(name, ".json"):
				data, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					continue
				}
				var b BudgetStop
				if json.Unmarshal(data, &b) != nil {
					continue
				}
				s.BudgetStopped = append(s.BudgetStopped, b)
			}
		}
	}
	sort.Slice(s.Claims, func(a, b int) bool {
		if s.Claims[a].Owner != s.Claims[b].Owner {
			return s.Claims[a].Owner < s.Claims[b].Owner
		}
		return s.Claims[a].Case < s.Claims[b].Case
	})
	sort.Slice(s.BudgetStopped, func(a, b int) bool {
		return s.BudgetStopped[a].Owner < s.BudgetStopped[b].Owner
	})
}

// Render writes the status as a small table.
func (s *StatusReport) Render(w io.Writer) {
	fmt.Fprintf(w, "%-10s %6s %6s %6s\n", "suite", "done", "total", "failed")
	for _, ss := range s.Suites {
		fmt.Fprintf(w, "%-10s %6d %6d %6d\n", ss.Suite, ss.Done, ss.Total, ss.Failed)
	}
	fmt.Fprintf(w, "%-10s %6d %6d %6d\n", "all", s.Done, s.Total, s.Failed)
	for _, id := range s.MissingSample {
		fmt.Fprintf(w, "  pending: %s\n", id)
	}
	for _, c := range s.Claims {
		owner := c.Owner
		if owner == "" {
			owner = "(unknown)"
		}
		if c.Stale {
			fmt.Fprintf(w, "  worker %s: claim on %s stale (%s ago — lease expired, will be re-stolen)\n",
				owner, c.Case, c.Age.Round(time.Second))
		} else {
			fmt.Fprintf(w, "  worker %s: running %s (%s)\n", owner, c.Case, c.Age.Round(time.Second))
		}
	}
	for _, b := range s.BudgetStopped {
		fmt.Fprintf(w, "  budget-stopped %s: %d case(s) remaining (stopped %s)\n",
			b.Owner, b.Remaining, b.Stopped.Format("2006-01-02 15:04:05"))
	}
}
