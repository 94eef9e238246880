// Package attack defines the unified attack engine API: one interface
// implemented by every attack in this repository (FALL, the SAT attack,
// SPS, Double DIP, key confirmation), a name-keyed registry, and the SAT
// plumbing those attacks share.
//
// An attack consumes a Target — the locked circuit plus the optional
// oracle, scheme parameters and budgets — and produces a Result with a
// machine-readable Status, so harnesses, CLIs and future schemes can be
// wired once against this package instead of once per attack:
//
//	atk, err := attack.Get("fall")
//	...
//	res, err := atk.Run(ctx, attack.Target{Locked: locked, H: 2})
//
// Cancellation and time budgets flow exclusively through the
// context.Context: wrap the context with context.WithTimeout to bound an
// attack, or cancel it to stop one mid-run. Attacks observe cancellation
// between SAT queries (and inside long solver calls, see
// sat.Solver.SetContext) and return promptly with a partial Result whose
// Status is StatusTimeout.
package attack

import (
	"context"
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/oracle"
)

// Key is a key assignment: key-input name -> value.
type Key = map[string]bool

// Target bundles everything an attack may consume. Locked is mandatory;
// the remaining fields are consulted only by attacks they apply to.
type Target struct {
	// Locked is the locked netlist under attack. Key inputs must be
	// marked (circuit.Node.IsKey).
	Locked *circuit.Circuit
	// Oracle grants I/O access to the activated chip. Required by
	// oracle-guided attacks (NeedsOracle() == true), ignored by
	// oracle-less ones.
	Oracle oracle.Oracle
	// H is the Hamming-distance parameter of the locking scheme, known
	// to the adversary (paper §II-A). Zero for TTLock/point functions.
	H int
	// Seed drives any randomized component (sampling, tie-breaking).
	Seed int64
	// Candidates are key guesses for confirmation-style attacks (the φ
	// predicate of paper §V). Empty means φ = true.
	Candidates []Key
	// MaxIterations bounds distinguishing-input iterations for iterative
	// attacks; 0 means unlimited. Wall-clock budgets are expressed via
	// the context instead.
	MaxIterations int
	// Workers bounds intra-attack parallelism for attacks that fan work
	// out internally (the FALL candidate×polarity grid, partitioned key
	// confirmation). 0 means runtime.GOMAXPROCS(0); 1 forces serial
	// execution. Attacks whose algorithm is inherently sequential (the
	// SAT attack's distinguishing-input loop) ignore it.
	Workers int
	// Solver builds the SAT engine behind every solver instance the
	// attack creates. nil selects a single default-configured engine;
	// (*SolverSetup).Factory yields the engine -solver names. Attacks
	// that use no SAT solving (SPS) ignore it.
	Solver SolverFactory
}

// Status is the machine-readable outcome of an attack run.
type Status int

const (
	// StatusInconclusive: the attack completed but established nothing
	// (e.g. no candidate survived the functional analyses).
	StatusInconclusive Status = iota
	// StatusUniqueKey: exactly one key was determined (proved unique or
	// confirmed against the oracle).
	StatusUniqueKey
	// StatusShortlist: more than one suspected key survived; run key
	// confirmation to pick the correct one. Also reported for
	// approximate keys with bounded residual error.
	StatusShortlist
	// StatusRecovered: the protected function was recovered without a
	// key (removal attacks); see Result.Recovered.
	StatusRecovered
	// StatusRefuted: the attack proved its hypothesis wrong (key
	// confirmation's ⊥: no candidate is consistent with the oracle).
	StatusRefuted
	// StatusTimeout: the context was cancelled or an iteration budget
	// exhausted before a verdict; the Result may be partial.
	StatusTimeout
)

func (s Status) String() string {
	switch s {
	case StatusUniqueKey:
		return "unique-key"
	case StatusShortlist:
		return "shortlist"
	case StatusRecovered:
		return "recovered"
	case StatusRefuted:
		return "refuted"
	case StatusTimeout:
		return "timeout"
	default:
		return "inconclusive"
	}
}

// Result is the unified outcome of an attack run.
type Result struct {
	// Attack is the registry name of the attack that produced this.
	Attack string
	// Status classifies the outcome.
	Status Status
	// Keys holds the candidate key(s): exactly one for StatusUniqueKey,
	// several for StatusShortlist. A StatusTimeout result may carry the
	// partial shortlist accumulated before the budget expired.
	Keys []Key
	// Recovered is the bypassed netlist produced by removal attacks
	// (StatusRecovered); nil for key-recovery attacks.
	Recovered *circuit.Circuit
	// Iterations counts attack iterations (distinguishing inputs for
	// oracle-guided attacks, analysis rounds otherwise).
	Iterations int
	// OracleQueries counts oracle calls made during the run.
	OracleQueries int
	// Elapsed is the wall-clock attack time.
	Elapsed time.Duration
	// Details exposes the attack-specific result (e.g. *fall.Result)
	// for callers that need per-stage data beyond the unified fields.
	Details any
}

// UniqueKey reports whether the run determined exactly one key.
func (r *Result) UniqueKey() bool { return r.Status == StatusUniqueKey && len(r.Keys) == 1 }

// Attack is the single interface every attack implements. Run must honor
// ctx cancellation: once ctx is done the attack returns promptly with a
// partial Result (Status StatusTimeout) rather than blocking.
type Attack interface {
	// Name is the registry key, e.g. "fall" or "sat".
	Name() string
	// NeedsOracle reports whether Run requires Target.Oracle.
	NeedsOracle() bool
	// Run executes the attack against the target.
	Run(ctx context.Context, tgt Target) (*Result, error)
}

// CheckTarget validates tgt for attack a; implementations call it at the
// top of Run.
func CheckTarget(a Attack, tgt Target) error {
	if tgt.Locked == nil {
		return fmt.Errorf("attack %s: no locked circuit in target", a.Name())
	}
	if len(tgt.Locked.KeyInputs()) == 0 {
		return fmt.Errorf("attack %s: circuit has no key inputs", a.Name())
	}
	if a.NeedsOracle() && tgt.Oracle == nil {
		return fmt.Errorf("attack %s: oracle-guided attack needs Target.Oracle", a.Name())
	}
	return nil
}

// KeysEqual reports whether two key assignments are identical.
func KeysEqual(a, b Key) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}
