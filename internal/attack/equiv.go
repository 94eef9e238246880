package attack

import (
	"context"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/oracle"
	"repro/internal/sat"
)

// KeyEquivalent reports whether the locked circuit under the given key is
// input/output-equivalent to the original circuit, decided exactly by a
// SAT miter: both circuits are encoded over shared primary inputs with
// the key inputs fixed to key, and the miter asks for an input on which
// some output pair differs. UNSAT means the key unlocks the circuit.
//
// This is the scoring criterion argued for by Hu et al. 2024 ("On the
// One-Key Premise of Logic Locking"): a recovered key distinct from the
// planted one may still be correct, and a key that merely matches some
// planted bits may not be — membership in the planted-key set is neither
// necessary nor sufficient. Harnesses should score "solved" with this
// check and report planted-key membership separately.
//
// An error is returned when the verdict is undecided (the context was
// cancelled mid-solve) or the circuits cannot be aligned; callers must
// not treat an error as "not equivalent".
func KeyEquivalent(ctx context.Context, locked, original *circuit.Circuit, key Key) (bool, error) {
	return KeyEquivalentWith(ctx, nil, locked, original, key)
}

// KeyEquivalentWith is KeyEquivalent with the miter built on the given
// solver factory (nil = default single engine), so harnesses score
// shortlists through the same factory their attacks ran with.
func KeyEquivalentWith(ctx context.Context, f SolverFactory, locked, original *circuit.Circuit, key Key) (bool, error) {
	if locked == nil || original == nil {
		return false, fmt.Errorf("attack: KeyEquivalent needs both circuits")
	}
	s := NewEngine(ctx, f)
	e := cnf.NewEncoder(s)

	// Locked copy with key inputs fixed to the candidate key.
	given := make(map[int]sat.Lit)
	for _, k := range locked.KeyInputs() {
		name := locked.Nodes[k].Name
		v, ok := key[name]
		if !ok {
			return false, fmt.Errorf("attack: candidate key missing bit %q", name)
		}
		given[k] = e.ConstLit(v)
	}
	lockedLits := e.EncodeCircuitWith(locked, given)

	// Original copy sharing the locked copy's primary inputs by name.
	piByName := make(map[string]int)
	for _, pi := range locked.PrimaryInputs() {
		piByName[locked.Nodes[pi].Name] = pi
	}
	givenOrig := make(map[int]sat.Lit)
	for _, pi := range original.PrimaryInputs() {
		if id, ok := piByName[original.Nodes[pi].Name]; ok {
			givenOrig[pi] = lockedLits[id]
		}
	}
	origLits := e.EncodeCircuitWith(original, givenOrig)

	// Align outputs by name (positional fallback for optimizer renames),
	// reusing the oracle alignment logic over a simulated original.
	outIdx, err := OutputIndex(locked, oracle.NewSim(original))
	if err != nil {
		return false, err
	}
	lockedOuts := cnf.EncodedOutputs(locked, lockedLits)
	origOuts := cnf.EncodedOutputs(original, origLits)
	aligned := make([]sat.Lit, len(lockedOuts))
	for i := range lockedOuts {
		if outIdx[i] >= len(origOuts) {
			return false, fmt.Errorf("attack: output %d maps past original outputs", i)
		}
		aligned[i] = origOuts[outIdx[i]]
	}
	e.NotEqual(lockedOuts, aligned)

	switch s.Solve() {
	case sat.Unsat:
		return true, nil
	case sat.Sat:
		return false, nil
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	return false, fmt.Errorf("attack: equivalence miter undecided")
}
