package satattack

import (
	"context"

	"repro/internal/attack"
)

// satAttack adapts the SAT attack to the unified attack API.
type satAttack struct{}

// New returns the SAT attack as an attack.Attack. Target.MaxIterations
// caps distinguishing-input iterations and Target.Solver selects the
// engine behind the miter and extraction solvers. Target.Workers is
// ignored: each distinguishing input depends on all previously learned
// constraints, so the loop is inherently sequential (the parallel
// realization is the partitioned key confirmation of
// keyconfirm.ConfirmParallel).
func New() attack.Attack { return satAttack{} }

func (satAttack) Name() string      { return "sat" }
func (satAttack) NeedsOracle() bool { return true }

func (a satAttack) Run(ctx context.Context, tgt attack.Target) (*attack.Result, error) {
	if err := attack.CheckTarget(a, tgt); err != nil {
		return nil, err
	}
	res, err := Run(ctx, tgt.Locked, tgt.Oracle, Options{MaxIterations: tgt.MaxIterations, Solver: tgt.Solver})
	if err != nil {
		return nil, err
	}
	out := &attack.Result{
		Attack:        a.Name(),
		Iterations:    res.Iterations,
		OracleQueries: res.OracleQueries,
		Elapsed:       res.Elapsed,
		Details:       res,
	}
	switch {
	case res.Solved:
		// Convergence proves the key class unique up to I/O equivalence.
		out.Status = attack.StatusUniqueKey
		out.Keys = []attack.Key{res.Key}
	case res.TimedOut:
		out.Status = attack.StatusTimeout
	default:
		out.Status = attack.StatusInconclusive
	}
	return out, nil
}

func init() { attack.Register(New()) }
