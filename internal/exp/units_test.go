package exp

import (
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/genbench"
)

func TestHLevelTokenRoundTrip(t *testing.T) {
	for _, l := range Levels {
		got, err := ParseHLevel(l.Token())
		if err != nil || got != l {
			t.Errorf("ParseHLevel(%q) = %v, %v", l.Token(), got, err)
		}
		text, err := l.MarshalText()
		if err != nil || string(text) != l.Token() {
			t.Errorf("MarshalText(%v) = %q, %v", l, text, err)
		}
	}
	if _, err := ParseHLevel("h5"); err == nil {
		t.Error("ParseHLevel accepted h5")
	}
}

func TestParseUnitKindRoundTrip(t *testing.T) {
	for _, k := range []UnitKind{UnitTable1, UnitFig5, UnitFig6, UnitSummary} {
		got, err := ParseUnitKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseUnitKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseUnitKind("fig7"); err == nil {
		t.Error("ParseUnitKind accepted fig7")
	}
}

// Suite enumeration must cover every report with globally unique case
// IDs, in the dimensions fallbench and campaign run.
func TestSuiteUnits(t *testing.T) {
	cfg := tinyConfig()
	suites := []string{"table1", "fig5:hd0", "fig5:h8", "fig5:h4", "fig5:h3", "fig6", "summary"}
	wantCounts := map[string]int{
		"table1":   len(cfg.Specs),
		"fig5:hd0": len(cfg.Specs) * 2, // SAT + unateness
		"fig5:h8":  len(cfg.Specs) * 3, // SAT + sliding window + dist2h
		"fig5:h4":  len(cfg.Specs) * 3,
		"fig5:h3":  len(cfg.Specs) * 2, // SAT + sliding window (4h > m)
		"fig6":     len(cfg.Specs) * len(Levels),
		"summary":  len(cfg.Specs) * len(Levels),
	}
	ids := map[string]bool{}
	for _, suite := range suites {
		units, err := SuiteUnits(cfg, suite)
		if err != nil {
			t.Fatalf("%s: %v", suite, err)
		}
		if len(units) != wantCounts[suite] {
			t.Errorf("%s: %d units, want %d", suite, len(units), wantCounts[suite])
		}
		for _, u := range units {
			if ids[u.ID()] {
				t.Errorf("duplicate unit ID %s", u.ID())
			}
			ids[u.ID()] = true
		}
	}
	if _, err := SuiteUnits(cfg, "fig7"); err == nil {
		t.Error("SuiteUnits accepted fig7")
	}
	if _, err := SuiteUnits(cfg, "fig5:h5"); err == nil {
		t.Error("SuiteUnits accepted fig5:h5")
	}
}

// The adaptive dispatch order must be a permutation, deterministic, and
// put expensive units (iterative SAT attacks, high-h analyses, big key
// sizes) ahead of cheap ones.
func TestDispatchOrder(t *testing.T) {
	cfg := Config{Specs: genbench.Scaled(genbench.TableI, 8, 16), Seed: 1}
	var units []Unit
	for _, suite := range []string{"table1", "fig5:h8", "summary"} {
		us, err := SuiteUnits(cfg, suite)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, us...)
	}
	specs := map[string]genbench.Spec{}
	for _, s := range cfg.Specs {
		specs[s.Name] = s
	}
	order := DispatchOrderObserved(units, specs, nil)
	if len(order) != len(units) {
		t.Fatalf("order has %d entries, want %d", len(order), len(units))
	}
	seen := make([]bool, len(units))
	for _, i := range order {
		if i < 0 || i >= len(units) || seen[i] {
			t.Fatalf("order is not a permutation: %v", order)
		}
		seen[i] = true
	}
	if !reflect.DeepEqual(order, DispatchOrderObserved(units, specs, nil)) {
		t.Error("dispatch order not deterministic")
	}
	// Costs must be non-increasing along the order.
	for j := 1; j < len(order); j++ {
		a, b := units[order[j-1]], units[order[j]]
		if unitCost(a, specs[a.Circuit]) < unitCost(b, specs[b.Circuit]) {
			t.Fatalf("dispatch order not longest-first at %d: %s before %s", j, a.ID(), b.ID())
		}
	}
	// Spot-check the heuristic's shape: a SAT attack outranks the
	// unateness analysis on the same case, and fig6 pairings outrank
	// lone summary runs.
	spec := cfg.Specs[0]
	sat := Unit{Kind: UnitFig5, Circuit: spec.Name, Level: HD0, Attack: SATAttackName}
	un := Unit{Kind: UnitFig5, Circuit: spec.Name, Level: HD0, Attack: "AnalyzeUnateness"}
	if unitCost(sat, spec) <= unitCost(un, spec) {
		t.Error("SAT attack not costed above unateness")
	}
	fig6 := Unit{Kind: UnitFig6, Circuit: spec.Name, Level: HM4}
	sum := Unit{Kind: UnitSummary, Circuit: spec.Name, Level: HM4}
	if unitCost(fig6, spec) <= unitCost(sum, spec) {
		t.Error("fig6 pairing not costed above summary run")
	}
}

// Observed wall times must reorder dispatch: measured units sort by
// their measurement (longest first), and unmeasured units slot in via
// the median observed/predicted calibration instead of being stranded.
func TestDispatchOrderObserved(t *testing.T) {
	cfg := Config{Specs: genbench.Scaled(genbench.TableI, 8, 16), Seed: 1}
	units, err := SuiteUnits(cfg, "summary")
	if err != nil {
		t.Fatal(err)
	}
	specs := map[string]genbench.Spec{}
	for _, s := range cfg.Specs {
		specs[s.Name] = s
	}
	base := DispatchOrderObserved(units, specs, nil)

	// Invert reality: the unit the model ranks cheapest was observed to
	// be by far the slowest, and the model's most expensive unit was
	// quick. Every other unit gets a measurement consistent with the
	// model (1ns per cost unit) so the calibration ratio is 1.
	cheapest, priciest := base[len(base)-1], base[0]
	observed := map[string]time.Duration{}
	for i, u := range units {
		observed[u.ID()] = time.Duration(unitCost(u, specs[u.Circuit]))
		switch i {
		case cheapest:
			observed[u.ID()] = time.Hour
		case priciest:
			observed[u.ID()] = time.Nanosecond
		}
	}
	order := DispatchOrderObserved(units, specs, observed)
	if order[0] != cheapest {
		t.Errorf("slowest-observed unit %s dispatched at %d, want first",
			units[cheapest].ID(), indexOf(order, cheapest))
	}
	if order[len(order)-1] != priciest {
		t.Errorf("fastest-observed unit %s dispatched at %d, want last",
			units[priciest].ID(), indexOf(order, priciest))
	}

	// An unmeasured unit must not be stranded. A single observation can
	// only calibrate, never reorder: the lone measured unit anchors the
	// scale, every unmeasured cost is rescaled by that same ratio (a
	// monotone transform), so the order must equal the model's exactly —
	// no unit jumps the queue on calibration alone.
	solo := map[string]time.Duration{units[cheapest].ID(): time.Hour}
	if !reflect.DeepEqual(DispatchOrderObserved(units, specs, solo), base) {
		t.Error("a lone calibration measurement reordered the dispatch")
	}

	// Nil and empty maps are exactly the model order.
	if !reflect.DeepEqual(DispatchOrderObserved(units, specs, nil), base) {
		t.Error("nil observations changed the order")
	}
	if !reflect.DeepEqual(DispatchOrderObserved(units, specs, map[string]time.Duration{}), base) {
		t.Error("empty observations changed the order")
	}
}

func indexOf(order []int, v int) int {
	for j, i := range order {
		if i == v {
			return j
		}
	}
	return -1
}

// RunUnits must fail loudly when a unit has no matching case instead of
// executing a partial suite.
func TestRunUnitsMissingCase(t *testing.T) {
	cfg := tinyConfig()
	cfg.Specs = cfg.Specs[:1]
	cases, err := BuildSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	units := []Unit{{Kind: UnitSummary, Circuit: "nosuch", Level: HD0}}
	if _, err := RunUnits(t.Context(), cases, units, cfg); err == nil {
		t.Error("RunUnits accepted a unit with no case")
	}
}

// Unit IDs must be stable: campaign resumability and artifact naming
// depend on them never changing spelling.
func TestUnitIDs(t *testing.T) {
	got := []string{
		Unit{Kind: UnitTable1, Circuit: "c432"}.ID(),
		Unit{Kind: UnitFig5, Circuit: "c432", Level: HM8, Attack: SATAttackName}.ID(),
		Unit{Kind: UnitFig6, Circuit: "c432", Level: HM3}.ID(),
		Unit{Kind: UnitSummary, Circuit: "c432", Level: HD0, Attack: "Auto"}.ID(),
	}
	want := []string{
		"table1/c432",
		"fig5/c432/h8/SAT-Attack",
		"fig6/c432/h3",
		"summary/c432/hd0",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("unit IDs changed:\n got %v\nwant %v", got, want)
	}
}

// RenderSuite pins the report layout: each suite's literal header, then
// its table over the results that carry a payload. Once fallbench and
// campaign merge both print through it, their byte-identity diffs can
// no longer catch a header or table regression; this test does.
func TestRenderSuite(t *testing.T) {
	boom := UnitResult{Err: errors.New("boom")}
	sa := Outcome{Circuit: "c432", Level: HM8, Attack: SATAttackName, TimedOut: true, Time: time.Second}
	sw := Outcome{Circuit: "c432", Level: HM8, Attack: "SlidingWindow", Solved: true, Equivalent: true, Unique: true, NumKeys: 1, Time: 12 * time.Millisecond}
	auto := Outcome{Circuit: "c432", Level: HD0, Attack: "Auto", Solved: true, Equivalent: true, Unique: true, NumKeys: 1}
	fig6 := Fig6CaseResult{Circuit: "c432", Level: HD0, KCRan: true, KCConfirmed: true, KCElapsed: 3 * time.Millisecond,
		SA: Outcome{Circuit: "c432", Level: HD0, Attack: SATAttackName, Time: time.Second}}
	for _, tc := range []struct {
		suite   string
		results []UnitResult
		want    string
	}{
		{"table1", []UnitResult{{Table1: &Table1Row{Name: "c432", In: 36, Out: 7, Keys: 12, GatesOrig: 60, GatesMin: 412, GatesMax: 896}}, boom},
			"=== Table I (regenerated) ===\n" +
				"ckt        #in  #out  #keys      orig   SFLLmin   SFLLmax\n" +
				"c432        36     7     12        60       412       896\n"},
		{"fig5:h8", []UnitResult{{Outcome: &sa}, {Outcome: &sw}, boom},
			"=== Fig. 5 panel h8 (h=m/8) ===\n" +
				"SAT-Attack: 0 solved\n" +
				"SlidingWindow: 1 solved\n" +
				"   1 solved within 12ms\n" +
				"Distance2H: 0 solved\n"},
		{"fig6", []UnitResult{boom, {Fig6: &fig6}},
			"=== Fig. 6: key confirmation vs SAT attack ===\n" +
				"ckt        keyconf-mean    keyconf-std    satatk-mean     satatk-std confirmed\n" +
				"c432                3ms             0s             1s             0s 1/1\n"},
		{"summary", []UnitResult{{Outcome: &auto}, boom},
			"=== §VI-B summary ===\n" +
				"defeated 1 / 1 locked circuits (100%)\n" +
				"unique key (oracle-less) for 1 / 1 successes (100%)\n"},
	} {
		var b strings.Builder
		if err := RenderSuite(&b, tc.suite, tc.results); err != nil {
			t.Fatalf("%s: %v", tc.suite, err)
		}
		if b.String() != tc.want {
			t.Errorf("%s rendered\n%s\nwant\n%s", tc.suite, b.String(), tc.want)
		}
	}
	for _, suite := range []string{"fig7", "fig5:h5"} {
		if err := RenderSuite(io.Discard, suite, nil); err == nil {
			t.Errorf("RenderSuite accepted suite %q", suite)
		}
	}
}
