package fall

import (
	"context"
	"math/bits"
	"math/rand"
	"sort"

	"repro/internal/circuit"
	"repro/internal/obs"
)

// This file decides each support-matched candidate once, before any of
// its candidate×polarity cells run, and groups and orders the grid from
// those decisions. The pre-pass (filterCandidates) computes each
// candidate's TFC and flags key dependence, then runs one serial sweep
// per lock: one stream of 16384 random patterns over the union of the
// live candidates' supports, simulated once over the union of their
// TFCs on the locked netlist itself. The sweep gives every cell the
// stripper shape filter's verdict and a signature of its sampled
// function; there is no separate probe. The filter is exact in one
// direction: it rejects a polarity only when two sampled on-set patterns
// could not both lie on one Hamming sphere of radius h, so every
// rejected cell is one the equivalence check would reject, and rejecting
// it early changes no outcome. Cells that pass the filter with equal
// signatures form one unit, whose cells run in job order on one worker,
// so a later cell can first check its cone against the cube its unit has
// already proved (analyzeCellInner) and skip its analysis when they
// match. Every other cell is a unit of its own. Units are handed to the
// worker pool in longest-expected-first order (the grid-level analogue
// of exp.DispatchOrder), so one late heavy unit cannot run alone after
// every cheap one has drained. Dispatch order changes scheduling only:
// outcomes are written at the cell's original index and merged in
// candidate order, so the shortlist stays byte-identical to a serial run
// for every worker count.

// filterWords is the shape filter's sample: 256 words of 64 patterns.
const filterWords = 256

// filterRNG returns the deterministic pattern source for a sweep over
// nodes TFC nodes with m inputs: a pure function of the lock, never of
// run order.
func filterRNG(nodes, m int) *rand.Rand {
	return rand.New(rand.NewSource(int64(nodes)*2654435761 + int64(m)))
}

// FNV-1a's 64-bit offset basis and prime, for the cell signatures.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// candidate is one support-matched node's grid state, shared by its two
// polarity cells: the verdicts and signatures the pre-pass fills before
// any cell runs.
type candidate struct {
	node int

	decided  bool      // the pre-pass reached this candidate before cancellation
	keydep   bool      // in the lock's key fanout: not a cube stripper
	coneLen  int       // TFC size, which is the extracted cone's node count
	rejected [2]bool   // positive/negated polarity rejected by the shape filter
	sig      [2]uint64 // FNV-1a of each polarity's sampled output words, if not rejected
}

func newCandidate(node int) *candidate {
	return &candidate{node: node}
}

// filterCandidates is the grid's pre-pass, under a fall.filter span. It
// computes each candidate's TFC and reads its key dependence from the
// lock's key fanout, observing ctx before each candidate (candidates it
// does not reach stay undecided), then runs the shape sweep over the
// decided candidates that depend on no key input.
func filterCandidates(ctx context.Context, c *circuit.Circuit, cands []*candidate, h int) {
	sp := obs.SpanFrom(ctx).Child("fall.filter")
	var live []*candidate
	var ins [][]int // live[i]'s inputs, ascending
	inUnion := make([]bool, c.Len())
	fanout := c.KeyFanout()
	for _, cd := range cands {
		if ctx.Err() != nil {
			break
		}
		cd.decided = true
		tfc := c.TFC(cd.node)
		cd.coneLen = len(tfc)
		cd.keydep = fanout[cd.node]
		if cd.keydep {
			continue
		}
		var cins []int
		for _, id := range tfc {
			inUnion[id] = true
			if c.Nodes[id].Type == circuit.Input {
				cins = append(cins, id)
			}
		}
		live = append(live, cd)
		ins = append(ins, cins)
	}
	shapeSweep(c, inUnion, live, ins, h)
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

// shapeSweep runs the stripper shape filter for both polarities of every
// live candidate under one pattern stream, and folds each polarity's
// sampled output words into its signature. inUnion marks the union of
// the candidates' TFCs, and ins[i] is live[i]'s inputs. Each word
// draws one random word per input of the union, in ascending id order,
// from filterRNG seeded by the union's size and input count, so the
// stream is a pure function of the lock; one SimulateNodes call over the
// union evaluates every candidate on it.
//
// The on-set of strip_h(K) is the Hamming sphere of radius h around K,
// so any two of its points differ in an even number of inputs, and in at
// most 2h. The sweep keeps each polarity's first on-set pattern in
// (word, lane) order and rejects the polarity at the first later on-set
// pattern whose distance from it, over the candidate's own inputs, is odd
// or above 2h; the negated polarity's on-set is the positive polarity's
// off-set. A rejected polarity's signature is never read, so the sweep
// stops folding it, and stops once every polarity is rejected.
func shapeSweep(c *circuit.Circuit, inUnion []bool, live []*candidate, ins [][]int, h int) {
	var union, inputs []int
	for id, in := range inUnion {
		if !in {
			continue
		}
		union = append(union, id)
		if c.Nodes[id].Type == circuit.Input {
			inputs = append(inputs, id)
		}
	}
	// first[i][pol] holds, per input of live[i], the polarity's first
	// on-set pattern's bit in every lane.
	first := make([][2][]uint64, len(live))
	open := 2 * len(live)
	for _, cd := range live {
		cd.sig = [2]uint64{fnvOffset, fnvOffset}
	}
	rng := filterRNG(len(union), len(inputs))
	vals := make([]uint64, c.Len())
	for w := 0; w < filterWords && open > 0; w++ {
		for _, in := range inputs {
			vals[in] = rng.Uint64()
		}
		c.SimulateNodes(union, vals)
		for i, cd := range live {
			for pol := range cd.rejected {
				if cd.rejected[pol] {
					continue
				}
				on := vals[cd.node]
				if pol == 1 {
					on = ^on
				}
				for b := 0; b < 64; b += 8 {
					cd.sig[pol] = (cd.sig[pol] ^ on>>b&0xff) * fnvPrime
				}
				if on == 0 {
					continue
				}
				if first[i][pol] == nil {
					lane := bits.TrailingZeros64(on)
					first[i][pol] = make([]uint64, len(ins[i]))
					for j, in := range ins[i] {
						first[i][pol][j] = -(vals[in] >> lane & 1)
					}
				}
				if on&offSphere(vals, ins[i], first[i][pol], h) != 0 {
					cd.rejected[pol] = true
					open--
				}
			}
		}
	}
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

// passes reports whether the polarity's cell survives the pre-pass and
// goes to the functional analyses.
func (cd *candidate) passes(neg bool) bool {
	return cd.decided && !cd.keydep && !cd.rejected[polarity(neg)]
}

// cost estimates the relative runtime of one of the candidate's cells
// from its pre-pass verdicts. A cell that is key-dependent or rejected
// by the shape filter does no work. Every other cell's function passed
// the filter's sample as a subset of a Hamming sphere, so it is a likely
// stripper: it runs the full analysis and the equivalence-check UNSAT
// proof, whose cost grows with the cone (every SAT query Tseitin-encodes
// it, twice for the HD instances) and with h. The estimate ignores that
// a later cell of a unit may stop after one equivalence check.
func (cd *candidate) cost(neg bool, h int) int64 {
	if !cd.passes(neg) {
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

// gridUnits groups the jobs into units and returns them in dispatch
// order, each unit's job indices in job order. Cells that pass the
// pre-pass are grouped by signature; every other cell is a unit of its
// own. Units are sorted longest-expected-first by summed cell cost, ties
// broken by their first job index, so the order is a pure function of
// the circuit and h.
func gridUnits(jobs []analysisJob, h int) [][]int {
	var units [][]int
	bySig := map[uint64]int{}
	for i, j := range jobs {
		if j.cand.passes(j.neg) {
			sig := j.cand.sig[polarity(j.neg)]
			if u, ok := bySig[sig]; ok {
				units[u] = append(units[u], i)
				continue
			}
			bySig[sig] = len(units)
		}
		units = append(units, []int{i})
	}
	cost := func(unit []int) (c int64) {
		for _, i := range unit {
			c += jobs[i].cand.cost(jobs[i].neg, h)
		}
		return c
	}
	// Units were created in order of their first job, so a stable sort
	// breaks cost ties by first job index.
	sort.SliceStable(units, func(a, b int) bool { return cost(units[a]) > cost(units[b]) })
	return units
}
