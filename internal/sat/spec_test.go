package sat

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// engineSpecForms lists every spelling of the grammar with the spec it
// parses to.
var engineSpecForms = []struct {
	spec string
	want EngineSpec
}{
	{"", InternalSpec(Config{})},
	{"seed=3,restart=geometric", InternalSpec(Config{Seed: 3, Restart: RestartGeometric})},
	{"internal", InternalSpec(Config{})},
	{"internal:seed=7", InternalSpec(Config{Seed: 7})},
	{"kissat", EngineSpec{Kind: EngineProcess, Cmd: "kissat"}},
	{"kissat:path=/usr/local/bin/kissat", EngineSpec{Kind: EngineProcess, Cmd: "/usr/local/bin/kissat"}},
	{"process:cmd=/tmp/solver", EngineSpec{Kind: EngineProcess, Cmd: "/tmp/solver"}},
}

// badEngineSpecs lists specs the grammar must reject.
var badEngineSpecs = []string{
	"frobnicate=1",          // unknown internal config key
	"internal:frobnicate=1", // same, explicit kind
	"vdecay=NaN",
	"bdd", // the removed BDD engine: a reserved word, not a binary
	"bdd:max-nodes=4096",
	"bdd:max-nodes=1<<20",
	"bdd:max-nodes=0",
	"bdd:max-nodes=x",
	"bdd:max-nodes=8388609<<40",
	"bdd:color=red",
	"kissat:persistent=true", // removed persistent sessions
	"kissat:persistent=false",
	"process:cmd=/tmp/solver,persistent=true",
	"kissat:persistent=maybe",
	"process:cmd=/tmp/s,persistent=2",
	"process",         // no cmd
	"process:cmd=",    // empty cmd
	"kissat:cmd=",     // empty cmd, bare-name spelling
	"process:wrong=1", // unknown key
	"kissat:verbose=1",
	"a b",  // whitespace in a bare name
	"a\v:", // trailing white space in a bare name
	"a,b:", // comma in a bare name
}

func TestParseEngineSpecForms(t *testing.T) {
	for _, c := range engineSpecForms {
		got, err := ParseEngineSpec(c.spec)
		if err != nil {
			t.Errorf("ParseEngineSpec(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseEngineSpec(%q) = %+v, want %+v", c.spec, got, c.want)
		}
		// Canonical strings round-trip.
		again, err := ParseEngineSpec(got.String())
		if err != nil || again != got {
			t.Errorf("round trip of %q via %q: %+v, %v", c.spec, got.String(), again, err)
		}
	}
}

func TestParseEngineSpecRejectsBadSpecs(t *testing.T) {
	for _, spec := range badEngineSpecs {
		if got, err := ParseEngineSpec(spec); err == nil {
			t.Errorf("ParseEngineSpec(%q) accepted a bad spec: %+v", spec, got)
		}
	}
}

// FuzzParseEngineSpec: every spec that parses renders, through String,
// a canonical spec that parses back to an equal engine — the property
// campaign plans rely on when they record a spec on one machine and run
// it on another. Plain go test replays the seeds and the corpus under
// testdata/fuzz.
func FuzzParseEngineSpec(f *testing.F) {
	for _, c := range engineSpecForms {
		f.Add(c.spec)
	}
	for _, spec := range badEngineSpecs {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseEngineSpec(spec)
		if err != nil {
			return
		}
		again, err := ParseEngineSpec(s.String())
		if err != nil {
			t.Fatalf("ParseEngineSpec(%q) = %+v renders %q, which does not parse: %v", spec, s, s.String(), err)
		}
		if again != s {
			t.Fatalf("ParseEngineSpec(%q) = %+v renders %q, which parses to %+v", spec, s, s.String(), again)
		}
	})
}

func TestParseEngineList(t *testing.T) {
	base := Config{Seed: 5}
	specs, err := ParseEngineList("internal:seed=7,restart=geometric,kissat,process:cmd=/opt/cadical", base)
	if err != nil {
		t.Fatal(err)
	}
	want := []EngineSpec{
		InternalSpec(Config{Seed: 7, Restart: RestartGeometric}),
		{Kind: EngineProcess, Cmd: "kissat"},
		{Kind: EngineProcess, Cmd: "/opt/cadical"},
	}
	if !reflect.DeepEqual(specs, want) {
		t.Errorf("ParseEngineList = %+v, want %+v", specs, want)
	}

	// A bare "internal" entry inherits the -solver base config.
	specs, err = ParseEngineList("internal,kissat", base)
	if err != nil {
		t.Fatal(err)
	}
	if specs[0] != InternalSpec(base) {
		t.Errorf("bare internal entry = %+v, want base %+v", specs[0], InternalSpec(base))
	}

	// A leading option token with no kind starts an implicit internal
	// entry (the legacy -solver grammar embedded in a list).
	specs, err = ParseEngineList("seed=3,restart=geometric,kissat", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0] != InternalSpec(Config{Seed: 3, Restart: RestartGeometric}) || specs[1].Cmd != "kissat" {
		t.Errorf("implicit internal entry: %+v", specs)
	}

	// Options may follow a colon-less entry directly: the first
	// continuation token supplies the ':' the single-spec grammar wants.
	specs, err = ParseEngineList("internal,seed=3,restart=geometric,kissat,path=/opt/kissat", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0] != InternalSpec(Config{Seed: 3, Restart: RestartGeometric}) ||
		specs[1] != (EngineSpec{Kind: EngineProcess, Cmd: "/opt/kissat"}) {
		t.Errorf("colon-less continuation: %+v", specs)
	}

	for _, bad := range []string{"", " , ", "internal,internal", "kissat,kissat", "internal,bdd",
		"internal,stub,persistent=true", "kissat,frobnicate=1"} {
		if specs, err := ParseEngineList(bad, Config{}); err == nil {
			t.Errorf("ParseEngineList(%q) accepted a bad list: %+v", bad, specs)
		}
	}
}

// TestResolveSolverFlags: an integer width expands at parse time into
// one internal spec per PortfolioConfigs entry, whose labels are the
// ledger labels recorded portfolio stats carry; widths below 2 with an
// empty solver mean the default engine (nil); negative widths, and
// portfolios of more than maxPortfolio engines in either form, are
// rejected with an error naming the flag or the list.
func TestResolveSolverFlags(t *testing.T) {
	base := Config{Seed: 3, Restart: RestartGeometric}
	specs, err := ResolveSolverFlags("seed=3,restart=geometric", "3")
	if err != nil {
		t.Fatal(err)
	}
	configs := PortfolioConfigs(base, 3)
	if len(specs) != 3 {
		t.Fatalf("width 3 resolved to %d specs", len(specs))
	}
	for i, s := range specs {
		if s != InternalSpec(configs[i]) || s.String() != configs[i].String() {
			t.Errorf("spec %d = %+v (%q), want %q", i, s, s, configs[i])
		}
	}
	for _, width := range []string{"", "0", "1", " 1 "} {
		if specs, err := ResolveSolverFlags("", width); err != nil || specs != nil {
			t.Errorf("width %q with no solver: %+v, %v", width, specs, err)
		}
	}
	if specs, err := ResolveSolverFlags("seed=3", "1"); err != nil || len(specs) != 1 || specs[0] != InternalSpec(Config{Seed: 3}) {
		t.Errorf("width 1 with a solver: %+v, %v", specs, err)
	}
	for _, pair := range [][2]string{{"", "-2"}, {"seed=3", "-1"}, {"", "65"}, {"", "9223372036854775807"}} {
		if _, err := ResolveSolverFlags(pair[0], pair[1]); err == nil || !strings.Contains(err.Error(), "-portfolio") {
			t.Errorf("width %q: error %v does not reject the flag", pair[1], err)
		}
	}
	if specs, err := ResolveSolverFlags("", strconv.Itoa(maxPortfolio)); err != nil || len(specs) != maxPortfolio {
		t.Errorf("width %d: %d specs, %v", maxPortfolio, len(specs), err)
	}
	list := func(n int) string {
		seeds := make([]string, n)
		for i := range seeds {
			seeds[i] = fmt.Sprintf("internal:seed=%d", i)
		}
		return strings.Join(seeds, ",")
	}
	if specs, err := ResolveSolverFlags("", list(maxPortfolio)); err != nil || len(specs) != maxPortfolio {
		t.Errorf("list of %d engines: %d specs, %v", maxPortfolio, len(specs), err)
	}
	if _, err := ResolveSolverFlags("", list(maxPortfolio+1)); err == nil || !strings.Contains(err.Error(), "portfolio lists") {
		t.Errorf("list of %d engines: error %v does not reject the list", maxPortfolio+1, err)
	}
}

func TestMergeStats(t *testing.T) {
	a := []ConfigStats{{Config: "seed=0", Races: 3, Wins: 2, SatWins: 1, UnsatWins: 1, Conflicts: 10}}
	b := []ConfigStats{
		{Config: "kissat", Races: 3, Wins: 1, SatWins: 1, Conflicts: 0},
		{Config: "seed=0", Races: 4, Wins: 2, UnsatWins: 2, Conflicts: 7},
	}
	got := MergeStats(a, b)
	want := []ConfigStats{
		{Config: "seed=0", Races: 7, Wins: 4, SatWins: 1, UnsatWins: 3, Conflicts: 17},
		{Config: "kissat", Races: 3, Wins: 1, SatWins: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MergeStats = %+v, want %+v", got, want)
	}
}

// TestEnginePortfolioMixedVerdicts: a heterogeneous portfolio (two
// internal configs through the generic constructor) agrees with the
// single engine on the verdict table.
func TestEnginePortfolioMixedVerdicts(t *testing.T) {
	for name, load := range instanceTable() {
		want, _, _ := runInstance(Config{}, load)
		engines := []Engine{NewWith(Config{}), NewWith(Config{Seed: 3, Phase: PhaseFalse})}
		p := NewEnginePortfolio(engines, NewLedgerLabels([]string{"base", "neg"}))
		load(p)
		if got := p.Solve(); got != want {
			t.Errorf("%s: portfolio verdict %v, single %v", name, got, want)
		}
	}
}
