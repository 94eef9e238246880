package satattack_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/exp"
	"repro/internal/genbench"
	"repro/internal/lock"
	"repro/internal/oracle"
	"repro/internal/sat"
	"repro/internal/satattack"
)

// recorder is an Options.Solver factory that keeps every engine it
// builds, in build order: the miter solver Q first, then the
// key-extraction solver P.
type recorder struct{ solvers []*sat.Solver }

func (r *recorder) factory(ctx context.Context) sat.Engine {
	s := attack.NewSolver(ctx)
	r.solvers = append(r.solvers, s)
	return s
}

// searchCounts renders a solver's variable count and search counters.
func searchCounts(s *sat.Solver) string {
	st := s.Stats()
	return fmt.Sprintf("vars=%d dec=%d prop=%d confl=%d", s.NumVars(), st.Decisions, st.Propagations, st.Conflicts)
}

// goldenRun renders one SAT-attack run as a golden row: its iterations,
// verdict and key (bits in key-name order), Q's final counts, and P's on
// a converged run.
func goldenRun(lr *lock.Result, res *satattack.Result, rec *recorder) string {
	var b strings.Builder
	fmt.Fprintf(&b, "it=%d solved=%v key=", res.Iterations, res.Solved)
	for _, n := range lr.KeyNames {
		if res.Key[n] {
			b.WriteByte('1')
		} else if res.Key != nil {
			b.WriteByte('0')
		}
	}
	fmt.Fprintf(&b, " Q[%s]", searchCounts(rec.solvers[0]))
	if res.Solved {
		fmt.Fprintf(&b, " P[%s]", searchCounts(rec.solvers[1]))
	}
	return b.String()
}

// goldenLock is one lock the SAT-attack pin runs on.
type goldenLock struct {
	name   string
	maxIt  int
	locked func(t *testing.T) (*lock.Result, oracle.Oracle)
}

// goldenLocks are the oracle-guided benchmark's TTLock rows c7552 and
// c499 (which converge) and c432 (which hits the 100-DIP cap), built as
// that workload builds them, plus four lock families with 8-bit keys on
// one scaled host.
func goldenLocks() []goldenLock {
	specs := genbench.Scaled(genbench.TableI, 16, 12)
	byName := func(name string) int {
		for i, s := range specs {
			if s.Name == name {
				return i
			}
		}
		panic("no host " + name)
	}
	var locks []goldenLock
	for _, host := range []string{"c7552", "c499", "c432"} {
		i := byName(host)
		locks = append(locks, goldenLock{"ttlock/" + host, 100, func(t *testing.T) (*lock.Result, oracle.Oracle) {
			cs, err := exp.BuildCase(specs[i], exp.HD0, exp.CaseSeed(2019, i))
			if err != nil {
				t.Fatal(err)
			}
			return cs.Lock, oracle.NewSim(cs.Orig)
		}})
	}
	const host = "c880"
	i := byName(host)
	for _, name := range []string{"sarlock", "antisat", "sfll-hd2", "randomxor"} {
		locks = append(locks, goldenLock{name + "/" + host, 300, func(t *testing.T) (*lock.Result, oracle.Oracle) {
			orig, err := genbench.Generate(specs[i], exp.CaseSeed(2019, i))
			if err != nil {
				t.Fatal(err)
			}
			opts := lock.Options{KeySize: 8, Seed: 5, Optimize: true}
			var lr *lock.Result
			switch name {
			case "sarlock":
				lr, err = lock.SARLock(orig, opts)
			case "antisat":
				lr, err = lock.AntiSAT(orig, opts)
			case "sfll-hd2":
				opts.H = 2
				lr, err = lock.SFLLHD(orig, opts)
			case "randomxor":
				lr, err = lock.RandomXOR(orig, opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			return lr, oracle.NewSim(orig)
		}})
	}
	return locks
}

// TestSearchPinned pins the SAT attack's search on each golden lock: the
// iterations, verdict and key, and the final variable, decision,
// propagation and conflict counts of the miter solver Q and (on
// converged runs) the extraction solver P. An encoding change that hands
// the solver the same formula state leaves this table untouched; one
// that changes the search shows up here first.
func TestSearchPinned(t *testing.T) {
	for _, gl := range goldenLocks() {
		lr, orc := gl.locked(t)
		rec := &recorder{}
		res, err := satattack.Run(context.Background(), lr.Locked, orc, satattack.Options{MaxIterations: gl.maxIt, Solver: rec.factory})
		if err != nil {
			t.Fatalf("%s: %v", gl.name, err)
		}
		if res.Solved {
			if err := oracle.CheckKey(lr.Locked, orc, res.Key, 256, 1); err != nil {
				t.Errorf("%s: recovered key is wrong: %v", gl.name, err)
			}
		}
		got := goldenRun(lr, res, rec)
		if want, ok := goldenSearch[gl.name]; !ok || got != want {
			t.Errorf("%s: search changed\n got  %q: %q,\n want %q", gl.name, gl.name, got, want)
		}
	}
}

// goldenSearch holds the recorded runs, keyed by lock.
var goldenSearch = map[string]string{
	"ttlock/c7552":   "it=13 solved=true key=011100101000 Q[vars=22488 dec=63293 prop=657627 confl=11260] P[vars=10296 dec=0 prop=10296 confl=0]",
	"ttlock/c499":    "it=28 solved=true key=111100100100 Q[vars=12800 dec=5532 prop=119271 confl=1587] P[vars=6145 dec=0 prop=6145 confl=0]",
	"ttlock/c432":    "it=100 solved=false key= Q[vars=40064 dec=6509 prop=458854 confl=215]",
	"sarlock/c880":   "it=255 solved=true key=01001111 Q[vars=127591 dec=26006 prop=3924712 confl=2727] P[vars=63504 dec=74 prop=144153 confl=64]",
	"antisat/c880":   "it=16 solved=true key=01100110 Q[vars=8297 dec=7008 prop=110533 confl=2190] P[vars=3865 dec=9 prop=3865 confl=0]",
	"sfll-hd2/c880":  "it=10 solved=true key=01001111 Q[vars=8265 dec=7464 prop=292410 confl=2639] P[vars=3719 dec=87 prop=11570 confl=41]",
	"randomxor/c880": "it=3 solved=true key=01100001 Q[vars=1951 dec=4247 prop=56470 confl=1652] P[vars=702 dec=0 prop=702 confl=0]",
}
