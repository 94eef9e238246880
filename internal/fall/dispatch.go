package fall

import (
	"context"
	"math/bits"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/attack"
	"repro/internal/circuit"
	"repro/internal/obs"
)

// This file decides each support-matched candidate once, before any of
// its candidate×polarity cells run, and orders the grid from those
// decisions. The pre-pass (filterCandidates) computes a candidate's TFC,
// flags key dependence, and runs the stripper shape filter's single
// 16384-pattern sweep on the locked netlist itself, which fixes the
// verdicts of both polarities at once; there is no separate probe. The
// filter is exact in one direction: it rejects a polarity only when two
// sampled on-set patterns could not both lie on one Hamming sphere of
// radius h, so every rejected cell is one the equivalence check would
// reject, and rejecting it early changes no outcome. The cells read
// those verdicts, and each cell that passes the filter extracts its own
// cone. Cells are handed to the worker pool in longest-expected-first
// order (the grid-level analogue of exp.DispatchOrder), so one late
// heavy cell cannot run alone after every cheap cell has drained.
// Dispatch order changes scheduling only: outcomes are written at the
// cell's original index and merged in candidate order, so the shortlist
// stays byte-identical to a serial run for every worker count.

// filterWords is the shape filter's sample: 256 words of 64 patterns.
const filterWords = 256

// filterRNG returns the deterministic pattern source for the shape
// filter over a cone of coneLen nodes and m inputs: a pure function of
// the cone, never of run order.
func filterRNG(coneLen, m int) *rand.Rand {
	return rand.New(rand.NewSource(int64(coneLen)*2654435761 + int64(m)))
}

// candidate is one support-matched node's grid state, shared by its two
// polarity cells: the verdicts the pre-pass fills before any cell runs.
type candidate struct {
	node int

	decided  bool    // the pre-pass reached this candidate before cancellation
	keydep   bool    // the TFC contains a key input: not a cube stripper
	coneLen  int     // TFC size, which is the extracted cone's node count
	rejected [2]bool // positive/negated polarity rejected by the shape filter
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
	cd.rejected = shapeVerdicts(c, tfc, ins, cd.node, h, scratch)
}

// shapeVerdicts runs the stripper shape filter for both polarities of
// node in one sweep over its TFC. The on-set of strip_h(K) is the
// Hamming sphere of radius h around K, so any two of its points differ
// in an even number of inputs, and in at most 2h. The sweep keeps each
// polarity's first on-set pattern in (word, lane) order and rejects the
// polarity at the first later on-set pattern whose distance from it is
// odd or above 2h; the negated polarity's on-set is the positive
// polarity's off-set. The patterns are the ones the filter draws on the
// extracted cone: the same filterRNG seed, words assigned to the inputs
// in the same (ascending id) order. The sweep stops once both
// polarities are rejected.
func shapeVerdicts(c *circuit.Circuit, tfc, ins []int, node, h int, vals []uint64) [2]bool {
	var rejected [2]bool
	var first [2][]uint64 // per input, the first on-set pattern's bit in every lane
	rng := filterRNG(len(tfc), len(ins))
	for w := 0; w < filterWords && !(rejected[0] && rejected[1]); w++ {
		for _, in := range ins {
			vals[in] = rng.Uint64()
		}
		c.SimulateNodes(tfc, vals)
		for pol := range rejected {
			on := vals[node]
			if pol == 1 {
				on = ^on
			}
			if rejected[pol] || on == 0 {
				continue
			}
			if first[pol] == nil {
				lane := bits.TrailingZeros64(on)
				first[pol] = make([]uint64, len(ins))
				for i, in := range ins {
					first[pol][i] = -(vals[in] >> lane & 1)
				}
			}
			rejected[pol] = on&offSphere(vals, ins, first[pol], h) != 0
		}
	}
	return rejected
}

// offSphere returns the lanes of vals whose pattern over ins differs
// from ref in an odd number of inputs or in more than 2h. It counts the
// differences of all 64 lanes at once in a bit-sliced counter: bit j of
// a lane's distance is that lane's bit in cnt[j].
func offSphere(vals []uint64, ins []int, ref []uint64, h int) uint64 {
	var cnt [64]uint64
	for i, in := range ins {
		for j, x := 0, vals[in]^ref[i]; x != 0; j++ {
			cnt[j], x = cnt[j]^x, cnt[j]&x
		}
	}
	if 2*h >= len(ins) {
		return cnt[0] // no distance exceeds 2h
	}
	var gt uint64 // lanes whose distance, read from the top bit down, exceeds 2h
	eq := ^uint64(0)
	for j := bits.Len(uint(len(ins))) - 1; j >= 0; j-- {
		if (2*h)>>j&1 == 1 {
			eq &= cnt[j]
		} else {
			gt |= eq & cnt[j]
			eq &^= cnt[j]
		}
	}
	return cnt[0] | gt
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
	var decided, rejected, keydep int
	for _, cd := range cands {
		if cd.decided {
			decided++
		}
		if cd.keydep {
			keydep++
		}
		for _, r := range cd.rejected {
			if r {
				rejected++
			}
		}
	}
	sp.Set("candidates", decided)
	sp.Set("rejected_cells", rejected)
	sp.Set("keydep", keydep)
	sp.End()
}

// cost estimates the relative runtime of one of the candidate's cells
// from its pre-pass verdicts. A cell that is key-dependent or rejected
// by the shape filter does no work. Every other cell's function passed
// the filter's sample as a subset of a Hamming sphere, so it is a likely
// stripper: it runs the full analysis and the equivalence-check UNSAT
// proof, whose cost grows with the cone (every SAT query Tseitin-encodes
// it, twice for the HD instances) and with h.
func (cd *candidate) cost(neg bool, h int) int64 {
	if !cd.decided || cd.keydep || cd.rejected[polarity(neg)] {
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
