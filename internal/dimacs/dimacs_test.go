package dimacs

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sat"
)

const sample = `c sample UNSAT instance
p cnf 2 4
1 2 0
1 -2 0
-1 2 0
-1 -2 0
`

func TestParseSample(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 2 || len(f.Clauses) != 4 {
		t.Fatalf("got %d vars, %d clauses", f.NumVars, len(f.Clauses))
	}
	s := sat.New()
	_, ok := LoadIntoSolver(s, f)
	if ok {
		if got := s.Solve(); got != sat.Unsat {
			t.Errorf("solve = %v, want UNSAT", got)
		}
	}
}

func TestParseMultilineClause(t *testing.T) {
	src := "p cnf 3 1\n1\n2\n3 0\n"
	f, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Clauses) != 1 || len(f.Clauses[0]) != 3 {
		t.Fatalf("clauses = %v", f.Clauses)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"noProblem", "1 2 0\n"},
		{"badProblem", "p cnf x y\n"},
		{"dupProblem", "p cnf 1 0\np cnf 1 0\n"},
		{"overflowVar", "p cnf 1 1\n2 0\n"},
		{"badLiteral", "p cnf 1 1\nfoo 0\n"},
		{"unterminated", "p cnf 1 1\n1\n"},
		{"countMismatch", "p cnf 1 2\n1 0\n"},
	}
	for _, tc := range cases {
		if _, err := Parse(strings.NewReader(tc.src)); err == nil {
			t.Errorf("%s: error expected", tc.name)
		}
	}
}

// TestWriteWithUnitsRoundTrip: an assumptions-as-units dump parses back
// as a well-formed CNF whose verdict equals solving the original clauses
// under those assumptions — the contract the DIMACS-pipe engine relies
// on for SolveAssuming.
func TestWriteWithUnitsRoundTrip(t *testing.T) {
	// x1 XOR x2, satisfiable alone, unsatisfiable under x1 ∧ x2.
	f := &Formula{NumVars: 2, Clauses: [][]int{{1, 2}, {-1, -2}}}
	for _, tc := range []struct {
		units []int
		want  sat.Status
	}{
		{nil, sat.Sat},
		{[]int{1}, sat.Sat},
		{[]int{1, 2}, sat.Unsat},
		{[]int{-1, -2}, sat.Unsat},
	} {
		var buf strings.Builder
		if err := WriteWithUnits(&buf, f, tc.units); err != nil {
			t.Fatal(err)
		}
		back, err := Parse(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("units %v: dump does not parse back: %v\n%s", tc.units, err, buf.String())
		}
		if len(back.Clauses) != len(f.Clauses)+len(tc.units) {
			t.Fatalf("units %v: %d clauses, want %d", tc.units, len(back.Clauses), len(f.Clauses)+len(tc.units))
		}
		s := sat.New()
		_, ok := LoadIntoSolver(s, back)
		got := sat.Unsat
		if ok {
			got = s.Solve()
		}
		if got != tc.want {
			t.Errorf("units %v: verdict %v, want %v", tc.units, got, tc.want)
		}
	}
}

func TestParseResult(t *testing.T) {
	good := []struct {
		name, out string
		status    sat.Status
		model     map[int]bool // checked entries (1-based)
	}{
		{"sat", "c stub\ns SATISFIABLE\nv 1 -2 3 0\n", sat.Sat, map[int]bool{1: true, 2: false, 3: true}},
		{"satMultilineV", "s SATISFIABLE\nv 1 -2\nv -3\nv 0\n", sat.Sat, map[int]bool{1: true, 2: false, 3: false}},
		{"unsat", "s UNSATISFIABLE\n", sat.Unsat, nil},
		{"unknown", "s UNKNOWN\n", sat.Unknown, nil},
		{"minisatSat", "SAT\n1 -2 3 0\n", sat.Sat, map[int]bool{1: true, 3: true}},
		{"minisatUnsat", "UNSAT\n", sat.Unsat, nil},
		{"minisatIndet", "INDET\n", sat.Unknown, nil},
	}
	for _, tc := range good {
		res, err := ParseResult(strings.NewReader(tc.out), 3)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if res.Status != tc.status {
			t.Errorf("%s: status %v, want %v", tc.name, res.Status, tc.status)
		}
		for v, want := range tc.model {
			if res.Model[v] != want {
				t.Errorf("%s: model[%d] = %v, want %v", tc.name, v, res.Model[v], want)
			}
		}
	}

	bad := []struct{ name, out string }{
		{"empty", ""},
		{"noStatus", "v 1 -2 3 0\n"},
		{"commentsOnly", "c nothing to see\n"},
		{"truncatedV", "s SATISFIABLE\nv 1 -2\n"},
		{"satNoModel", "s SATISFIABLE\n"},
		{"badStatus", "s MAYBE\n"},
		{"dupStatus", "s UNSATISFIABLE\ns UNSATISFIABLE\n"},
		{"competitionThenBareStatus", "s UNSATISFIABLE\nSAT\nv 1 0\n"},
		{"bareDupStatus", "UNSAT\nSAT\n1 0\n"},
		{"bareStatusOverridden", "SAT\nUNSAT\n"},
		{"garbageV", "s SATISFIABLE\nv 1 two 0\n"},
		{"outOfRange", "s SATISFIABLE\nv 1 -2 9 0\n"},
		{"litsAfterTerminator", "s SATISFIABLE\nv 1 0\nv 2 0\n"},
		{"modelOnUnsat", "s UNSATISFIABLE\nv 1 0\n"},
		{"garbageLine", "segmentation fault\n"},
	}
	for _, tc := range bad {
		if res, err := ParseResult(strings.NewReader(tc.out), 3); err == nil {
			t.Errorf("%s: accepted malformed output: %+v", tc.name, res)
		}
	}
}

// FuzzParseResult: for any solver output and any problem size in
// 0..64, ParseResult never panics, and an accepted result written back
// in competition format (an s line plus v lines) parses back equal.
// Plain go test replays the corpus under testdata/fuzz.
func FuzzParseResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, out []byte, numVars uint8) {
		n := int(numVars % 65)
		res, err := ParseResult(bytes.NewReader(out), n)
		if err != nil {
			return
		}
		var b strings.Builder
		switch res.Status {
		case sat.Sat:
			b.WriteString("s SATISFIABLE\nv")
			for v := 1; v <= n; v++ {
				lit := v
				if !res.Model[v] {
					lit = -v
				}
				fmt.Fprintf(&b, " %d", lit)
			}
			b.WriteString(" 0\n")
		case sat.Unsat:
			b.WriteString("s UNSATISFIABLE\n")
		default:
			b.WriteString("s UNKNOWN\n")
		}
		back, err := ParseResult(strings.NewReader(b.String()), n)
		if err != nil {
			t.Fatalf("ParseResult(%q) = %+v renders %q, which does not parse: %v", out, res, b.String(), err)
		}
		if !reflect.DeepEqual(back, res) {
			t.Fatalf("ParseResult(%q) = %+v renders %q, which parses to %+v", out, res, b.String(), back)
		}
	})
}

// Property: write/parse round trip preserves the formula, and solving the
// round-tripped formula matches solving the original clauses directly.
func TestQuickRoundTripAndSolve(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 2 + rng.Intn(8)
		nClauses := 1 + rng.Intn(20)
		var clauses [][]sat.Lit
		for i := 0; i < nClauses; i++ {
			k := 1 + rng.Intn(3)
			cl := make([]sat.Lit, k)
			for j := range cl {
				cl[j] = sat.MkLit(rng.Intn(nVars), rng.Intn(2) == 1)
			}
			clauses = append(clauses, cl)
		}
		formula := FromSolverProblem(nVars, clauses)
		var buf strings.Builder
		if err := Write(&buf, formula); err != nil {
			return false
		}
		back, err := Parse(strings.NewReader(buf.String()))
		if err != nil {
			return false
		}
		s1 := sat.New()
		for i := 0; i < nVars; i++ {
			s1.NewVar()
		}
		ok1 := true
		for _, cl := range clauses {
			ok1 = s1.AddClause(cl...) && ok1
		}
		r1 := sat.Unsat
		if ok1 {
			r1 = s1.Solve()
		}
		s2 := sat.New()
		_, ok2 := LoadIntoSolver(s2, back)
		r2 := sat.Unsat
		if ok2 {
			r2 = s2.Solve()
		}
		return r1 == r2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
