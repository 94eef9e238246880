package fall

import (
	"context"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/attack"
	"repro/internal/circuit"
	"repro/internal/obs"
)

// This file decides each support-matched candidate once, before any of
// its candidate×polarity cells run, and orders the grid from those
// decisions. The pre-pass (filterCandidates) computes a candidate's TFC,
// flags key dependence, and runs the density filter's single
// 16384-pattern sweep on the locked netlist itself, which fixes the
// verdicts of both polarities at once; there is no separate probe. The
// cells read those verdicts, and the first cell that passes the filter
// extracts the cone the candidate's cells share. Cells are handed to the
// worker pool in longest-expected-first order (the grid-level analogue
// of exp.DispatchOrder), so one late heavy cell cannot run alone after
// every cheap cell has drained. Dispatch order changes scheduling only:
// outcomes are written at the cell's original index and merged in
// candidate order, so the shortlist stays byte-identical to a serial
// run for every worker count.

// densityWords is the density filter's sample: 256 words of 64
// patterns.
const densityWords = 256

// candidate is one support-matched node's grid state, shared by its two
// polarity cells. The pre-pass fills the verdicts before any cell runs.
// The first cell that passes the filter extracts the cone and creates
// the prefix cache, which every passing cell reads; the last passing
// cell to finish drops them, so a grid holds only the state of
// candidates still in flight.
type candidate struct {
	node int

	// Set by the pre-pass.
	decided bool    // the pre-pass reached this candidate before cancellation
	keydep  bool    // the TFC contains a key input: not a cube stripper
	coneLen int     // TFC size, which is the extracted cone's node count
	dense   [2]bool // positive/negated polarity rejected by the density filter

	coneOnce sync.Once
	cone     *circuit.Circuit
	inputMap map[int]int // cone input id -> locked-circuit node id
	inputs   []int       // cone input ids, sorted
	pre      *candPrefixes
	pending  atomic.Int32 // cells that passed the filter and have not finished
}

func newCandidate(node int) *candidate {
	return &candidate{node: node}
}

// decide fills the candidate's verdicts from the locked netlist without
// extracting its cone. scratch holds a word per node of c; only the
// TFC's entries are written or read.
func (cd *candidate) decide(c *circuit.Circuit, h int, scratch []uint64) {
	cd.decided = true
	tfc := c.TFC(cd.node)
	cd.coneLen = len(tfc)
	var ins []int
	for _, id := range tfc {
		if c.Nodes[id].Type != circuit.Input {
			continue
		}
		if c.Nodes[id].IsKey {
			cd.keydep = true
			return
		}
		ins = append(ins, id)
	}
	cd.dense = densityVerdicts(c, tfc, ins, cd.node, h, scratch)
	for _, d := range cd.dense {
		if !d {
			cd.pending.Add(1)
		}
	}
}

// densityVerdicts runs the density filter (see densityThreshold) for
// both polarities of node in one sweep over its TFC. The patterns are
// the ones the filter draws on the extracted cone: the same densityRNG
// seed, words assigned to the inputs in the same (ascending id) order.
// The negated polarity's on-count is the positive polarity's off-count.
// A count above the threshold rejects its polarity, since it can only
// grow; a count that stays within it even if every remaining pattern is
// on accepts. The sweep stops once both polarities are decided, so a
// threshold of at least the sample size simulates nothing.
func densityVerdicts(c *circuit.Circuit, tfc, ins []int, node, h int, vals []uint64) [2]bool {
	const patterns = densityWords * 64
	threshold := densityThreshold(patterns, len(ins), h)
	decided := func(count, rest int) bool {
		return float64(count) > threshold || float64(count+rest) <= threshold
	}
	rng := densityRNG(len(tfc), len(ins))
	on, n := 0, 0
	for n < patterns && !(decided(on, patterns-n) && decided(n-on, patterns-n)) {
		for _, in := range ins {
			vals[in] = rng.Uint64()
		}
		c.SimulateNodes(tfc, vals)
		on += bits.OnesCount64(vals[node])
		n += 64
	}
	return [2]bool{float64(on) > threshold, float64(n-on) > threshold}
}

// filterCandidates is the grid's pre-pass: it decides every candidate on
// the grid's worker pool, observing ctx between candidates, under a
// fall.filter span. Candidates it does not reach stay undecided.
func filterCandidates(ctx context.Context, c *circuit.Circuit, cands []*candidate, h, workers int) {
	sp := obs.SpanFrom(ctx).Child("fall.filter")
	scratch := sync.Pool{New: func() any {
		vals := make([]uint64, c.Len())
		return &vals
	}}
	attack.ForEachIndexed(workers, len(cands), func(i int) bool {
		if ctx.Err() != nil {
			return false
		}
		vals := scratch.Get().(*[]uint64)
		cands[i].decide(c, h, *vals)
		scratch.Put(vals)
		return true
	})
	if sp == nil {
		return
	}
	var decided, dense, keydep int
	for _, cd := range cands {
		if cd.decided {
			decided++
		}
		if cd.keydep {
			keydep++
		}
		for _, d := range cd.dense {
			if d {
				dense++
			}
		}
	}
	sp.Set("candidates", decided)
	sp.Set("dense_cells", dense)
	sp.Set("keydep", keydep)
	sp.End()
}

// extractCone builds the cone both polarity cells analyze, and their
// prefix cache, once.
func (cd *candidate) extractCone(c *circuit.Circuit) {
	cd.coneOnce.Do(func() {
		cd.cone, cd.inputMap = c.Cone(cd.node)
		cd.inputs = cd.cone.Inputs()
		cd.pre = &candPrefixes{}
	})
}

// cellDone records that one of the candidate's cells that passed the
// filter finished; after the last one the shared cone and prefixes
// become garbage.
func (cd *candidate) cellDone() {
	if cd.pending.Add(-1) == 0 {
		cd.cone, cd.inputMap, cd.inputs, cd.pre = nil, nil, nil, nil
	}
}

// cost estimates the relative runtime of one of the candidate's cells
// from its exact pre-pass verdicts. A cell that is key-dependent or
// rejected by the density filter does no work. Every other cell runs the
// full analysis and the equivalence-check UNSAT proof, whose cost grows
// with the cone (every SAT query Tseitin-encodes it, twice for the HD
// instances) and with h.
func (cd *candidate) cost(neg bool, h int) int64 {
	if !cd.decided || cd.keydep || cd.dense[polarity(neg)] {
		return 0
	}
	return int64(cd.coneLen) * int64(2+h)
}

func polarity(neg bool) int {
	if neg {
		return 1
	}
	return 0
}

// gridDispatchOrder returns the indices of jobs sorted
// longest-expected-first, ties broken by job index, so the order is a
// pure function of the circuit and h.
func gridDispatchOrder(jobs []analysisJob, h int) []int {
	cost := make([]int64, len(jobs))
	for i, j := range jobs {
		cost[i] = j.cand.cost(j.neg, h)
	}
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if cost[order[a]] != cost[order[b]] {
			return cost[order[a]] > cost[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}
