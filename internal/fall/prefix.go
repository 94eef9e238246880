package fall

import (
	"sync"

	"repro/internal/cnf"
	"repro/internal/sat"
)

// This file builds the frozen clause-stream prefixes the functional
// analyses fork instead of re-encoding. Each candidate node's cone is
// encoded at most once per shape — the two-copy Hamming-distance
// instance, the two-copy unateness instance, and the single-copy
// equivalence-check instance — into a sat.Stream, frozen, and shared
// by both polarity cells of the grid: polarity only affects the small
// per-cell delta (output units or assumptions), never the prefix. For
// engines implementing sat.FrozenLoader (the memo engine, portfolios)
// priming with the frozen prefix is O(1), and the memo keys each query
// by the prefix's content hash.

// candPrefixes caches one candidate's frozen prefixes. The two
// polarity cells may race on different workers; builders run under
// sync.Once, so the first cell to need a prefix encodes it and the
// other blocks and shares. Everything stored is immutable after the
// Once completes.
type candPrefixes struct {
	hdOnce sync.Once
	hd     *hdPrefix

	unateOnce sync.Once
	unate     *unatePrefix

	coneOnce sync.Once
	cone     *conePrefix
}

// hdPrefix is the frozen encoding of cone(X) ∧ cone(X') ∧ HD(X, X') =
// 2h shared by SlidingWindow and Distance2H: two circuit copies, the
// pairwise difference literals and the cardinality constraint. The
// per-polarity output units are left to the cell's delta, so one
// prefix serves both polarities.
type hdPrefix struct {
	h      int
	frozen *sat.Frozen
	xs, ys []sat.Lit // copy-1/copy-2 input literals, indexed like a.inputs
	ds     []sat.Lit // ds[i] = xs[i] XOR ys[i]
	f1, f2 sat.Lit   // positive-polarity outputs of the two copies
}

func buildHDPrefix(a *analysisContext, h int) *hdPrefix {
	st := sat.NewStream()
	e := cnf.NewEncoder(st)
	lits1 := e.EncodeCircuitWith(a.cone, nil)
	lits2 := e.EncodeCircuitWith(a.cone, nil)
	p := &hdPrefix{
		h:  h,
		xs: cnf.InputLits(a.inputs, lits1),
		ys: cnf.InputLits(a.inputs, lits2),
		f1: lits1[a.cone.Outputs[0]],
		f2: lits2[a.cone.Outputs[0]],
	}
	p.ds = e.XorPairs(p.xs, p.ys)
	e.ExactlyK(p.ds, 2*h, a.opts.Enc)
	p.frozen = st.Freeze()
	return p
}

func (c *candPrefixes) hdFor(a *analysisContext, h int) *hdPrefix {
	c.hdOnce.Do(func() { c.hd = buildHDPrefix(a, h) })
	if c.hd.h != h {
		// A different distance than the cached one: only possible when the
		// analyses are driven directly with varying h; build unshared.
		return buildHDPrefix(a, h)
	}
	return c.hd
}

// unatePrefix is the frozen two-copy encoding behind checkUnate: the
// copies share nothing, and eq[i] is the literal asserting the copies
// agree on input i. A cell's unateness queries select the flipped
// input and the violating output pattern purely through assumptions,
// so a single engine serves all 2m queries of a cell.
type unatePrefix struct {
	frozen *sat.Frozen
	x0, x1 []sat.Lit // the two copies' input literals, indexed like a.inputs
	eq     []sat.Lit // eq[i] true iff x0[i] == x1[i]
	f0, f1 sat.Lit   // positive-polarity outputs of the two copies
}

func (c *candPrefixes) unateFor(a *analysisContext) *unatePrefix {
	c.unateOnce.Do(func() {
		st := sat.NewStream()
		e := cnf.NewEncoder(st)
		lits0 := e.EncodeCircuitWith(a.cone, nil)
		lits1 := e.EncodeCircuitWith(a.cone, nil)
		u := &unatePrefix{
			x0: cnf.InputLits(a.inputs, lits0),
			x1: cnf.InputLits(a.inputs, lits1),
			f0: lits0[a.cone.Outputs[0]],
			f1: lits1[a.cone.Outputs[0]],
		}
		u.eq = make([]sat.Lit, len(a.inputs))
		for i := range a.inputs {
			u.eq[i] = e.Xor(u.x0[i], u.x1[i]).Neg()
		}
		u.frozen = st.Freeze()
		c.unate = u
	})
	return c.unate
}

// conePrefix is the frozen single-copy cone encoding the equivalence
// check extends with its cube-specific reference comparator and miter.
// The encoder is kept so delta encoders fork its constant-literal
// state (ForkOnto) and stay variable-for-variable identical to a
// direct, unforked construction.
type conePrefix struct {
	frozen *sat.Frozen
	ins    []sat.Lit // cone input literals, indexed like a.inputs
	f      sat.Lit   // positive-polarity output
	enc    *cnf.Encoder
}

func (c *candPrefixes) coneFor(a *analysisContext) *conePrefix {
	c.coneOnce.Do(func() {
		st := sat.NewStream()
		e := cnf.NewEncoder(st)
		lits := e.EncodeCircuitWith(a.cone, nil)
		c.cone = &conePrefix{
			frozen: st.Freeze(),
			ins:    cnf.InputLits(a.inputs, lits),
			f:      lits[a.cone.Outputs[0]],
			enc:    e,
		}
	})
	return c.cone
}
