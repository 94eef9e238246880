package sat

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// searchRun drives one solver through an instance and records what the
// search did: one verdict letter per Solve call (S, U or ?) and an
// FNV-1a hash folded over every SAT model. It logs every clause it
// adds, so each model is checked against the whole formula and the
// call's assumptions.
type searchRun struct {
	*Solver
	clauses  [][]Lit
	verdicts []byte
	model    uint64
	bad      string // first model violation, if any
}

func (r *searchRun) AddClause(lits ...Lit) bool {
	r.clauses = append(r.clauses, append([]Lit(nil), lits...))
	return r.Solver.AddClause(lits...)
}

func (r *searchRun) solve(assumptions []Lit) Status {
	st := r.SolveAssuming(assumptions)
	r.verdicts = append(r.verdicts, "?SU"[st])
	if st != Sat {
		return st
	}
	h := fnv.New64a()
	var word [8]byte
	for i := 0; i < 8; i++ {
		word[i] = byte(r.model >> (8 * i))
	}
	h.Write(word[:])
	for v := 0; v < r.NumVars(); v++ {
		if r.Value(v) {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	r.model = h.Sum64()
	for _, a := range assumptions {
		if !r.LitTrue(a) && r.bad == "" {
			r.bad = fmt.Sprintf("call %d: model falsifies assumption %v", len(r.verdicts), a)
		}
	}
	for _, cl := range r.clauses {
		sat := false
		for _, l := range cl {
			sat = sat || r.LitTrue(l)
		}
		if !sat && r.bad == "" {
			r.bad = fmt.Sprintf("call %d: model falsifies clause %v", len(r.verdicts), cl)
		}
	}
	return st
}

// trajectory is what TestSearchTrajectory pins per instance and
// config: the verdicts, every Stats counter and the model hash.
type trajectory struct {
	verdicts string
	stats    Stats
	model    uint64
}

// incrementalSequence drives one solver through eight SolveAssuming
// calls with fresh variables and clauses added between them: a random
// 3-CNF over 60 variables, then per call a fresh variable defined as
// the AND of two old ones, a clause blocking the previous model on ten
// variables, and assumptions fixing the fresh variable and two old
// literals.
func incrementalSequence(r *searchRun) {
	rng := rand.New(rand.NewSource(5))
	const n = 60
	for i := 0; i < n; i++ {
		r.NewVar()
	}
	for i := 0; i < 200; i++ {
		r.AddClause(MkLit(rng.Intn(n), rng.Intn(2) == 1),
			MkLit(rng.Intn(n), rng.Intn(2) == 1),
			MkLit(rng.Intn(n), rng.Intn(2) == 1))
	}
	prev := Unknown
	for step := 0; step < 8; step++ {
		a, b := PosLit(rng.Intn(r.NumVars())), NegLit(rng.Intn(r.NumVars()))
		g := PosLit(r.NewVar())
		r.AddClause(g.Neg(), a)
		r.AddClause(g.Neg(), b)
		r.AddClause(g, a.Neg(), b.Neg())
		if prev == Sat {
			block := make([]Lit, 0, 10)
			for v := 0; v < 10; v++ {
				block = append(block, MkLit(v, r.Value(v)))
			}
			r.AddClause(block...)
		}
		prev = r.solve([]Lit{
			MkLit(g.Var(), step%3 == 0),
			MkLit(rng.Intn(n), rng.Intn(2) == 1),
			MkLit(rng.Intn(n), rng.Intn(2) == 1),
		})
	}
}

// trajectoryInstances is the instance side of TestSearchTrajectory:
// the verdict table, two pigeonhole instances large enough to reach
// learnt-clause deletion under geometric restarts, and one incremental
// sequence.
func trajectoryInstances() map[string]func(r *searchRun) {
	insts := map[string]func(r *searchRun){
		"php87-unsat": func(r *searchRun) { pigeonholeEngine(r, 8, 7); r.solve(nil) },
		"php98-unsat": func(r *searchRun) { pigeonholeEngine(r, 9, 8); r.solve(nil) },
		"incremental": incrementalSequence,
	}
	for name, load := range instanceTable() {
		load := load
		insts[name] = func(r *searchRun) { load(r); r.solve(nil) }
	}
	return insts
}

func runTrajectory(cfg Config, inst func(r *searchRun)) *searchRun {
	r := &searchRun{Solver: NewWith(cfg)}
	inst(r)
	return r
}

// TestSearchTrajectory pins the search path of the internal solver: for
// every instance and every solverConfigs entry, the verdicts, every
// Stats counter (decisions, propagations, conflicts, restarts, learnt
// and removed clauses, solve calls) and a hash of every model must equal
// the recorded values. Any change to the solver's data structures that
// keeps the same decisions, propagation order, learnt clauses,
// deletions and restarts leaves this table untouched; a change to the
// search itself shows up here first.
func TestSearchTrajectory(t *testing.T) {
	insts := trajectoryInstances()
	names := make([]string, 0, len(insts))
	for name := range insts {
		names = append(names, name)
	}
	sort.Strings(names)
	var mu sync.Mutex
	deleted := map[string]bool{}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, cfg := range solverConfigs() {
				cfg := cfg
				t.Run(cfg.String(), func(t *testing.T) {
					t.Parallel()
					key := name + " " + cfg.String()
					r := runTrajectory(cfg, insts[name])
					if r.bad != "" {
						t.Error(r.bad)
					}
					got := trajectory{string(r.verdicts), r.Stats(), r.model}
					if want, ok := pinnedTrajectories[key]; !ok || got != want {
						t.Errorf("search path changed\n got  %q: {%q, Stats{%d, %d, %d, %d, %d, %d, %d}, %#x},\n want %+v",
							key, got.verdicts, got.stats.Decisions, got.stats.Propagations, got.stats.Conflicts,
							got.stats.Restarts, got.stats.Learnt, got.stats.Removed, got.stats.SolveCalls, got.model, want)
					}
					if got.stats.Removed > 0 {
						mu.Lock()
						deleted[name] = true
						mu.Unlock()
					}
				})
			}
		})
	}
	for _, name := range []string{"php87-unsat", "php98-unsat"} {
		if !deleted[name] {
			t.Errorf("%s: no config reached learnt-clause deletion", name)
		}
	}
}

// pinnedTrajectories holds the recorded search paths, keyed by instance
// name and config spec. Stats fields are in declaration order:
// Decisions, Propagations, Conflicts, Restarts, Learnt, Removed,
// SolveCalls.
var pinnedTrajectories = map[string]trajectory{
	"incremental seed=0":  {"SUSSSUSS", Stats{132, 1479, 55, 8, 54, 0, 8}, 0xad2dc0c259012af0},
	"incremental seed=42": {"SUSSSUSS", Stats{132, 1479, 55, 8, 54, 0, 8}, 0xad2dc0c259012af0},
	"incremental seed=0,restart=geometric,base=50,growth=2":          {"SUSSSUSS", Stats{132, 1479, 55, 8, 54, 0, 8}, 0xad2dc0c259012af0},
	"incremental seed=0,phase=true":                                  {"SUSSSUSS", Stats{105, 1040, 37, 8, 36, 0, 8}, 0x49af35c07d807fa5},
	"incremental seed=0,phase=false,vdecay=0.9":                      {"SUSSSUSS", Stats{129, 1200, 44, 8, 43, 0, 8}, 0x9ca35dfdd85d4ad8},
	"incremental seed=7,phase=random":                                {"SUSSSUSS", Stats{122, 1277, 49, 8, 48, 0, 8}, 0xfdfb08f67afe64b1},
	"incremental seed=9,rand=0.1":                                    {"SUSSSUSS", Stats{118, 1044, 32, 8, 31, 0, 8}, 0xbe8656633d4a01c5},
	"incremental seed=11,restart=geometric,phase=random,rand=0.05":   {"SUSSSUSS", Stats{105, 963, 34, 8, 33, 0, 8}, 0x505215250b1d4cbc},
	"php55-sat seed=0":                                               {"S", Stats{11, 25, 0, 1, 0, 0, 1}, 0x881cead2a496899c},
	"php55-sat seed=42":                                              {"S", Stats{11, 25, 0, 1, 0, 0, 1}, 0x881cead2a496899c},
	"php55-sat seed=0,restart=geometric,base=50,growth=2":            {"S", Stats{11, 25, 0, 1, 0, 0, 1}, 0x881cead2a496899c},
	"php55-sat seed=0,phase=true":                                    {"S", Stats{8, 55, 4, 1, 4, 0, 1}, 0xbb44a6f6815e525c},
	"php55-sat seed=0,phase=false,vdecay=0.9":                        {"S", Stats{11, 25, 0, 1, 0, 0, 1}, 0x881cead2a496899c},
	"php55-sat seed=7,phase=random":                                  {"S", Stats{19, 80, 6, 1, 6, 0, 1}, 0x474806a1fb2e3824},
	"php55-sat seed=9,rand=0.1":                                      {"S", Stats{11, 25, 0, 1, 0, 0, 1}, 0xa3f26fd51cbef4a4},
	"php55-sat seed=11,restart=geometric,phase=random,rand=0.05":     {"S", Stats{8, 30, 1, 1, 1, 0, 1}, 0x341d62b696c5ba84},
	"php65-unsat seed=0":                                             {"U", Stats{201, 1790, 155, 2, 150, 0, 1}, 0x0},
	"php65-unsat seed=42":                                            {"U", Stats{201, 1790, 155, 2, 150, 0, 1}, 0x0},
	"php65-unsat seed=0,restart=geometric,base=50,growth=2":          {"U", Stats{211, 1892, 158, 3, 152, 0, 1}, 0x0},
	"php65-unsat seed=0,phase=true":                                  {"U", Stats{172, 1819, 167, 2, 152, 0, 1}, 0x0},
	"php65-unsat seed=0,phase=false,vdecay=0.9":                      {"U", Stats{186, 1565, 139, 2, 135, 0, 1}, 0x0},
	"php65-unsat seed=7,phase=random":                                {"U", Stats{178, 1869, 154, 2, 149, 0, 1}, 0x0},
	"php65-unsat seed=9,rand=0.1":                                    {"U", Stats{209, 1954, 163, 2, 158, 0, 1}, 0x0},
	"php65-unsat seed=11,restart=geometric,phase=random,rand=0.05":   {"U", Stats{179, 1932, 160, 2, 153, 0, 1}, 0x0},
	"php87-unsat seed=0":                                             {"U", Stats{4343, 43782, 3617, 19, 3615, 0, 1}, 0x0},
	"php87-unsat seed=42":                                            {"U", Stats{4343, 43782, 3617, 19, 3615, 0, 1}, 0x0},
	"php87-unsat seed=0,restart=geometric,base=50,growth=2":          {"U", Stats{4191, 45605, 3625, 7, 3621, 1767, 1}, 0x0},
	"php87-unsat seed=0,phase=true":                                  {"U", Stats{3362, 41025, 3271, 16, 3243, 0, 1}, 0x0},
	"php87-unsat seed=0,phase=false,vdecay=0.9":                      {"U", Stats{7671, 91491, 6133, 29, 6128, 0, 1}, 0x0},
	"php87-unsat seed=7,phase=random":                                {"U", Stats{2627, 27932, 2323, 14, 2318, 0, 1}, 0x0},
	"php87-unsat seed=9,rand=0.1":                                    {"U", Stats{5399, 55887, 4424, 23, 4421, 0, 1}, 0x0},
	"php87-unsat seed=11,restart=geometric,phase=random,rand=0.05":   {"U", Stats{2278, 23691, 2055, 6, 2044, 0, 1}, 0x0},
	"php98-unsat seed=0":                                             {"U", Stats{23343, 249845, 19427, 65, 19423, 0, 1}, 0x0},
	"php98-unsat seed=42":                                            {"U", Stats{23343, 249845, 19427, 65, 19423, 0, 1}, 0x0},
	"php98-unsat seed=0,restart=geometric,base=50,growth=2":          {"U", Stats{16647, 172808, 14467, 9, 14463, 11517, 1}, 0x0},
	"php98-unsat seed=0,phase=true":                                  {"U", Stats{20283, 253128, 19764, 68, 19733, 0, 1}, 0x0},
	"php98-unsat seed=0,phase=false,vdecay=0.9":                      {"U", Stats{24462, 245377, 19738, 67, 19731, 0, 1}, 0x0},
	"php98-unsat seed=7,phase=random":                                {"U", Stats{7618, 78899, 6732, 30, 6723, 0, 1}, 0x0},
	"php98-unsat seed=9,rand=0.1":                                    {"U", Stats{54731, 628970, 45145, 129, 45140, 0, 1}, 0x0},
	"php98-unsat seed=11,restart=geometric,phase=random,rand=0.05":   {"U", Stats{10548, 111133, 9580, 10, 9570, 6405, 1}, 0x0},
	"rand-unsat-3a seed=0":                                           {"U", Stats{0, 6, 0, 0, 0, 0, 1}, 0x0},
	"rand-unsat-3a seed=42":                                          {"U", Stats{0, 6, 0, 0, 0, 0, 1}, 0x0},
	"rand-unsat-3a seed=0,restart=geometric,base=50,growth=2":        {"U", Stats{0, 6, 0, 0, 0, 0, 1}, 0x0},
	"rand-unsat-3a seed=0,phase=true":                                {"U", Stats{0, 6, 0, 0, 0, 0, 1}, 0x0},
	"rand-unsat-3a seed=0,phase=false,vdecay=0.9":                    {"U", Stats{0, 6, 0, 0, 0, 0, 1}, 0x0},
	"rand-unsat-3a seed=7,phase=random":                              {"U", Stats{0, 6, 0, 0, 0, 0, 1}, 0x0},
	"rand-unsat-3a seed=9,rand=0.1":                                  {"U", Stats{0, 6, 0, 0, 0, 0, 1}, 0x0},
	"rand-unsat-3a seed=11,restart=geometric,phase=random,rand=0.05": {"U", Stats{0, 6, 0, 0, 0, 0, 1}, 0x0},
	"rand-unsat-7b seed=0":                                           {"U", Stats{0, 2, 0, 0, 0, 0, 1}, 0x0},
	"rand-unsat-7b seed=42":                                          {"U", Stats{0, 2, 0, 0, 0, 0, 1}, 0x0},
	"rand-unsat-7b seed=0,restart=geometric,base=50,growth=2":        {"U", Stats{0, 2, 0, 0, 0, 0, 1}, 0x0},
	"rand-unsat-7b seed=0,phase=true":                                {"U", Stats{0, 2, 0, 0, 0, 0, 1}, 0x0},
	"rand-unsat-7b seed=0,phase=false,vdecay=0.9":                    {"U", Stats{0, 2, 0, 0, 0, 0, 1}, 0x0},
	"rand-unsat-7b seed=7,phase=random":                              {"U", Stats{0, 2, 0, 0, 0, 0, 1}, 0x0},
	"rand-unsat-7b seed=9,rand=0.1":                                  {"U", Stats{0, 2, 0, 0, 0, 0, 1}, 0x0},
	"rand-unsat-7b seed=11,restart=geometric,phase=random,rand=0.05": {"U", Stats{0, 2, 0, 0, 0, 0, 1}, 0x0},
	"rand-unsat-9j seed=0":                                           {"U", Stats{0, 3, 0, 0, 0, 0, 1}, 0x0},
	"rand-unsat-9j seed=42":                                          {"U", Stats{0, 3, 0, 0, 0, 0, 1}, 0x0},
	"rand-unsat-9j seed=0,restart=geometric,base=50,growth=2":        {"U", Stats{0, 3, 0, 0, 0, 0, 1}, 0x0},
	"rand-unsat-9j seed=0,phase=true":                                {"U", Stats{0, 3, 0, 0, 0, 0, 1}, 0x0},
	"rand-unsat-9j seed=0,phase=false,vdecay=0.9":                    {"U", Stats{0, 3, 0, 0, 0, 0, 1}, 0x0},
	"rand-unsat-9j seed=7,phase=random":                              {"U", Stats{0, 3, 0, 0, 0, 0, 1}, 0x0},
	"rand-unsat-9j seed=9,rand=0.1":                                  {"U", Stats{0, 3, 0, 0, 0, 0, 1}, 0x0},
	"rand-unsat-9j seed=11,restart=geometric,phase=random,rand=0.05": {"U", Stats{0, 3, 0, 0, 0, 0, 1}, 0x0},
	"xor-chain-sat seed=0":                                           {"S", Stats{0, 12, 0, 1, 0, 0, 1}, 0x2f8bef81ea9c957d},
	"xor-chain-sat seed=42":                                          {"S", Stats{0, 12, 0, 1, 0, 0, 1}, 0x2f8bef81ea9c957d},
	"xor-chain-sat seed=0,restart=geometric,base=50,growth=2":        {"S", Stats{0, 12, 0, 1, 0, 0, 1}, 0x2f8bef81ea9c957d},
	"xor-chain-sat seed=0,phase=true":                                {"S", Stats{0, 12, 0, 1, 0, 0, 1}, 0x2f8bef81ea9c957d},
	"xor-chain-sat seed=0,phase=false,vdecay=0.9":                    {"S", Stats{0, 12, 0, 1, 0, 0, 1}, 0x2f8bef81ea9c957d},
	"xor-chain-sat seed=7,phase=random":                              {"S", Stats{0, 12, 0, 1, 0, 0, 1}, 0x2f8bef81ea9c957d},
	"xor-chain-sat seed=9,rand=0.1":                                  {"S", Stats{0, 12, 0, 1, 0, 0, 1}, 0x2f8bef81ea9c957d},
	"xor-chain-sat seed=11,restart=geometric,phase=random,rand=0.05": {"S", Stats{0, 12, 0, 1, 0, 0, 1}, 0x2f8bef81ea9c957d},
}

// TestTrajectoryCompactsArena checks that the pinned rows which delete
// learnt clauses also compact the clause arena, so TestSearchTrajectory
// covers compaction as well as deletion.
func TestTrajectoryCompactsArena(t *testing.T) {
	geometric := Config{Restart: RestartGeometric, RestartBase: 50, RestartGrowth: 2}
	insts := trajectoryInstances()
	for _, name := range []string{"php87-unsat", "php98-unsat"} {
		r := runTrajectory(geometric, insts[name])
		if r.Stats().Removed == 0 || r.compactions == 0 {
			t.Errorf("%s %s: removed %d clauses, compacted the arena %d times; want both > 0",
				name, geometric, r.Stats().Removed, r.compactions)
		}
		t.Logf("%s %s: removed %d, compactions %d", name, geometric, r.Stats().Removed, r.compactions)
	}
}
