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

// results returns the merged artifacts' unit results in plan order.
func (m *MergeResult) results() []exp.UnitResult {
	var rs []exp.UnitResult
	for _, pc := range m.Plan.Cases {
		if a, ok := m.Artifacts[pc.ID]; ok {
			rs = append(rs, a.result())
		}
	}
	return rs
}

// WinStats aggregates the per-engine racing statistics recorded across
// every artifact (exp.WinStats), keyed by engine label in plan order —
// the campaign-level ledger snapshot that cmd/campaign merge prints and
// persists for -learn-from. Nil when the campaign did not race.
func (m *MergeResult) WinStats() []sat.ConfigStats { return exp.WinStats(m.results()) }

// MemoStats sums the verdict-cache hit/miss counters recorded across
// every artifact (exp.MemoStats). Nil when no shard ran with
// memoization enabled.
func (m *MergeResult) MemoStats() *sat.MemoStats { return exp.MemoStats(m.results()) }

// Render writes the plan's report suites in order through
// exp.RenderSuite, the renderer cmd/fallbench prints with, from the
// artifacts in plan order — a merge over any sharding is byte-identical
// to a 1-shard run with the same measurements. Cases without artifacts
// are skipped (their runs simply do not appear), so partial campaigns
// still render.
func (m *MergeResult) Render(w io.Writer) error {
	for _, suite := range m.Plan.Config.Suites {
		var results []exp.UnitResult
		for _, pc := range m.Plan.Cases {
			if a := m.Artifacts[pc.ID]; a != nil && pc.Suite() == suite {
				results = append(results, a.result())
			}
		}
		if err := exp.RenderSuite(w, suite, results); err != nil {
			return err
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
