package campaign

// merge -rescore: every artifact persists the attack's recovered key
// shortlist precisely so its verdict can be recomputed after the fact.
// When scoring rules change (e.g. the Hu et al. 2024 move from
// planted-key membership to I/O-equivalence), Rescore replays the
// harness's own scoring rule, exp.ScoreShortlist — planted-key
// membership first, the equivalence miter only for shortlists that
// miss the planted key — against deterministically rebuilt locked
// instances, and rewrites changed artifacts in place. No attack
// re-runs, no solver engine touches a locked-circuit attack query; the
// only SAT work is the sanctioned scoring miter, and none at all when
// the planted key is shortlisted.

import (
	"context"
	"fmt"
	"path/filepath"

	"repro/internal/exp"
)

// RescoreReport tallies one re-scoring pass.
type RescoreReport struct {
	// Scanned counts artifacts inspected (everything merged).
	Scanned int
	// Rescored counts attack outcomes whose scoring was replayed (a
	// key shortlist was persisted and the runtime scoring rules would
	// have scored it).
	Rescored int
	// Changed counts artifacts whose verdict fields moved — each was
	// rewritten on disk atomically.
	Changed int
	// Miters counts shortlist keys decided by the equivalence miter
	// (zero when every re-scored shortlist contains its planted key).
	Miters int
}

// Rescore recomputes PlantedKeyMatch / Equivalent / Solved for every
// merged artifact from its persisted key shortlist and rewrites the
// artifacts that changed. It mirrors the runtime scoring discipline
// exactly, so re-scoring under unchanged rules is a no-op:
//
//   - FALL-family outcomes are always scored from their shortlist.
//   - SAT-attack outcomes are scored only when the run converged to a
//     single candidate without timing out — an unconverged partial key
//     must not credit the attack with a solve it never proved.
//   - Unique is recomputed only when the solve verdict flips (it is
//     defined on solved shortlists).
//
// Timing fields are never touched: they were measured under the rules
// of the original run, and re-scoring cannot un-censor them.
//
// Miters share the plan's Timeout as a scoring budget per outcome,
// exactly like runtime scoring; an undecided miter counts as not
// equivalent. Artifacts must have been loaded from disk (Merge).
func (m *MergeResult) Rescore(ctx context.Context) (*RescoreReport, error) {
	r := &rescorer{plan: m.Plan, cache: newCaseCache(m.Plan), report: &RescoreReport{}}
	for _, pc := range m.Plan.Cases {
		a, ok := m.Artifacts[pc.ID]
		if !ok {
			continue
		}
		r.report.Scanned++
		u, err := pc.Unit()
		if err != nil {
			return r.report, err
		}
		changed := false
		if a.Outcome != nil {
			ch, err := r.outcome(ctx, a.Outcome, pc, u.Level)
			if err != nil {
				return r.report, err
			}
			changed = changed || ch
		}
		if a.Fig6 != nil {
			ch, err := r.outcome(ctx, &a.Fig6.SA, pc, u.Level)
			if err != nil {
				return r.report, err
			}
			changed = changed || ch
		}
		if changed {
			r.report.Changed++
			if a.path == "" {
				return r.report, fmt.Errorf("campaign: rescore: artifact %s was not loaded from disk", pc.ID)
			}
			if err := WriteArtifact(filepath.Dir(a.path), a); err != nil {
				return r.report, err
			}
		}
	}
	return r.report, nil
}

type rescorer struct {
	plan   *Plan
	cache  *caseCache
	report *RescoreReport
}

// outcome replays scoring for one attack outcome. Returns whether any
// verdict field changed.
func (r *rescorer) outcome(ctx context.Context, out *exp.Outcome, pc Case, level exp.HLevel) (bool, error) {
	if out.Failed || len(out.Keys) == 0 {
		return false, nil
	}
	// Runtime scoring for the SAT attack runs only on converged,
	// unique-key results; an artifact records NumKeys and TimedOut but
	// not the raw attack status, so convergence is reconstructed from
	// those (the one ambiguous edge — an iteration-capped run that
	// happens to hold one candidate — errs on not re-scoring, matching
	// the stricter runtime rule).
	if out.Attack == exp.SATAttackName && (out.NumKeys != 1 || out.TimedOut) {
		return false, nil
	}
	r.report.Rescored++
	// The instance the artifact was computed on, rebuilt from the same
	// derived seed as planning and running.
	cs, err := r.cache.get(caseNeed{pc.SpecIdx, level})
	if err != nil {
		return false, fmt.Errorf("campaign: rescore: %w", err)
	}
	// The runtime scoring rule under the plan's budget; a nil setup
	// runs the miter on the default engine.
	var scored exp.Outcome
	r.report.Miters += exp.ScoreShortlist(ctx, cs, out.Keys, exp.Config{Timeout: r.plan.Config.Timeout}, nil, &scored)
	unique := out.Unique
	if out.Solved != scored.Solved {
		// Uniqueness is defined on solved shortlists; it moves exactly
		// when the solve verdict does.
		unique = scored.Solved && out.NumKeys == 1
	}
	changed := out.PlantedKeyMatch != scored.PlantedKeyMatch || out.Equivalent != scored.Equivalent ||
		out.Solved != scored.Solved || out.Unique != unique
	out.PlantedKeyMatch, out.Equivalent, out.Solved, out.Unique = scored.PlantedKeyMatch, scored.Equivalent, scored.Solved, unique
	return changed, nil
}
