package exp

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fall"
	"repro/internal/genbench"
)

// tinyConfig keeps experiment tests fast: 4 circuits at 1/16 scale with
// 10-12 key bits.
func tinyConfig() Config {
	return Config{
		Specs:      genbench.Scaled(genbench.TableI, 16, 12)[:4],
		Seed:       2024,
		Timeout:    10 * time.Second,
		SATIterCap: 40,
	}
}

func TestHLevelValues(t *testing.T) {
	if HD0.Value(64) != 0 || HM8.Value(64) != 8 || HM4.Value(64) != 16 || HM3.Value(64) != 21 {
		t.Errorf("level values wrong: %d %d %d %d",
			HD0.Value(64), HM8.Value(64), HM4.Value(64), HM3.Value(64))
	}
	for _, l := range Levels {
		if l.Label() == "" {
			t.Error("empty label")
		}
	}
}

func TestBuildSuiteDimensions(t *testing.T) {
	cfg := tinyConfig()
	cases, err := BuildSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(cases), len(cfg.Specs)*len(Levels); got != want {
		t.Fatalf("suite has %d cases, want %d", got, want)
	}
	for _, cs := range cases {
		if got := len(cs.Lock.Locked.KeyInputs()); got != cs.Spec.Keys {
			t.Errorf("%s/%s: %d key inputs, want %d", cs.Spec.Name, cs.Level.Label(), got, cs.Spec.Keys)
		}
		if cs.Level == HD0 && cs.H != 0 {
			t.Errorf("%s: HD0 with h=%d", cs.Spec.Name, cs.H)
		}
		if cs.Level != HD0 && cs.H < 1 {
			t.Errorf("%s/%s: h=%d < 1", cs.Spec.Name, cs.Level.Label(), cs.H)
		}
	}
}

// runSuite runs one report suite over cases and returns its unit
// results in SuiteUnits order.
func runSuite(t *testing.T, cases []*Case, suite string, cfg Config) []UnitResult {
	t.Helper()
	units, err := SuiteUnits(cfg, suite)
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunUnits(context.Background(), cases, units, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// outcomes returns the attack outcomes of Fig. 5 or summary results.
func outcomes(results []UnitResult) []Outcome {
	outs := make([]Outcome, len(results))
	for i, r := range results {
		outs[i] = *r.Outcome
	}
	return outs
}

// render returns RenderSuite's output for one suite.
func render(t *testing.T, suite string, results []UnitResult) string {
	t.Helper()
	var b strings.Builder
	if err := RenderSuite(&b, suite, results); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestTable1(t *testing.T) {
	cfg := tinyConfig()
	cases, err := BuildSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := runSuite(t, cases, "table1", cfg)
	rows := make([]Table1Row, len(results))
	for i, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		rows[i] = *r.Table1
	}
	if len(rows) != len(cfg.Specs) {
		t.Fatalf("%d rows, want %d", len(rows), len(cfg.Specs))
	}
	for _, r := range rows {
		if r.GatesMin > r.GatesMax {
			t.Errorf("%s: min %d > max %d", r.Name, r.GatesMin, r.GatesMax)
		}
		if r.GatesMin <= r.GatesOrig {
			// Locking adds logic; after strash the locked netlist is in
			// AND/NOT form so counts are not directly comparable, but it
			// should never shrink below the strashed original by much.
			t.Logf("%s: locked min %d vs orig %d (AND/NOT form)", r.Name, r.GatesMin, r.GatesOrig)
		}
	}
	text := render(t, "table1", results)
	if !strings.Contains(text, rows[0].Name) {
		t.Error("formatted table missing circuit name")
	}
}

func TestFig5PanelHD0(t *testing.T) {
	cfg := tinyConfig()
	cfg.Specs = cfg.Specs[:2]
	cases, err := BuildSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := runSuite(t, cases, "fig5:hd0", cfg)
	outs := outcomes(results)
	// 2 circuits × 2 attacks.
	if len(outs) != 4 {
		t.Fatalf("%d outcomes, want 4", len(outs))
	}
	// AnalyzeUnateness must defeat both (synthetic hosts are benign).
	cac := Cactus(outs, fall.Unateness.String())
	if len(cac) != 2 {
		t.Errorf("unateness solved %d/2", len(cac))
	}
	// The SAT attack must NOT defeat 2^10+ TTLock within the iteration cap.
	if sat := Cactus(outs, "SAT-Attack"); len(sat) != 0 {
		t.Errorf("SAT attack solved %d instances of SFLL-HD0 at 10+ key bits", len(sat))
	}
	text := render(t, "fig5:hd0", results)
	if !strings.Contains(text, "solved") {
		t.Error("cactus format empty")
	}
}

func TestFig5PanelHM8(t *testing.T) {
	cfg := tinyConfig()
	cfg.Specs = cfg.Specs[:2]
	cases, err := BuildSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	outs := outcomes(runSuite(t, cases, "fig5:h8", cfg))
	if len(outs) != 6 { // SAT + SlidingWindow + Distance2H per circuit
		t.Fatalf("%d outcomes, want 6", len(outs))
	}
	if sw := Cactus(outs, fall.SlidingWindow.String()); len(sw) != 2 {
		t.Errorf("sliding window solved %d/2", len(sw))
	}
	if d2 := Cactus(outs, fall.Distance2H.String()); len(d2) != 2 {
		t.Errorf("distance2h solved %d/2", len(d2))
	}
}

func TestFig5PanelHM3SlidingOnly(t *testing.T) {
	cfg := tinyConfig()
	cfg.Specs = cfg.Specs[:1]
	cases, err := BuildSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	outs := outcomes(runSuite(t, cases, "fig5:h3", cfg))
	for _, o := range outs {
		if o.Attack == fall.Distance2H.String() {
			t.Error("Distance2H run on h=m/3 panel (4h > m)")
		}
	}
}

func TestFig6(t *testing.T) {
	cfg := tinyConfig()
	cfg.Specs = cfg.Specs[:2]
	var cases []*Case
	for i, spec := range cfg.Specs {
		// One level per circuit keeps the test quick.
		cs, err := BuildCase(spec, HD0, CaseSeed(cfg.Seed, i))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, cs)
	}
	all, err := SuiteUnits(cfg, "fig6")
	if err != nil {
		t.Fatal(err)
	}
	var units []Unit
	for _, u := range all {
		if u.Level == HD0 {
			units = append(units, u)
		}
	}
	results, err := RunUnits(context.Background(), cases, units, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var figs []Fig6CaseResult
	for _, r := range results {
		figs = append(figs, *r.Fig6)
	}
	rows := AggregateFig6(figs)
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.KCRuns == 0 || r.SARuns == 0 {
			t.Errorf("%s: missing runs: %+v", r.Circuit, r)
			continue
		}
		if r.KCConfirmed != r.KCRuns {
			t.Errorf("%s: confirmed %d/%d", r.Circuit, r.KCConfirmed, r.KCRuns)
		}
		// The Fig. 6 shape: key confirmation beats the SAT attack.
		if r.KCMean >= r.SAMean {
			t.Errorf("%s: keyconfirm mean %v >= satattack mean %v", r.Circuit, r.KCMean, r.SAMean)
		}
	}
	text := render(t, "fig6", results)
	if !strings.Contains(text, rows[0].Circuit) {
		t.Error("fig6 format missing circuit")
	}
}

func TestSummarize(t *testing.T) {
	cfg := tinyConfig()
	cfg.Specs = cfg.Specs[:2]
	cases, err := BuildSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := runSuite(t, cases, "summary", cfg)
	s := AggregateSummary(outcomes(results))
	if s.TotalCases != 8 {
		t.Fatalf("total = %d, want 8", s.TotalCases)
	}
	// Synthetic benign hosts: expect a high defeat rate (the paper saw
	// 81% on real circuits; structure here is simpler).
	if s.Defeated < s.TotalCases/2 {
		t.Errorf("defeated only %d/%d", s.Defeated, s.TotalCases)
	}
	if s.UniqueKey > s.Defeated {
		t.Error("unique > defeated")
	}
	text := render(t, "summary", results)
	if !strings.Contains(text, "defeated") {
		t.Error("summary format wrong")
	}
}

// outcomeShape is an Outcome with timing stripped: everything that must
// be identical across harness worker counts.
type outcomeShape struct {
	Circuit    string
	Level      HLevel
	Attack     string
	Solved     bool
	Planted    bool
	Equivalent bool
	Unique     bool
	NumKeys    int
	Failed     bool
}

func shapes(outs []Outcome) []outcomeShape {
	s := make([]outcomeShape, len(outs))
	for i, o := range outs {
		s[i] = outcomeShape{o.Circuit, o.Level, o.Attack, o.Solved, o.PlantedKeyMatch, o.Equivalent, o.Unique, o.NumKeys, o.Failed}
	}
	return s
}

// The harness must produce byte-identical suites, outcome orderings and
// summary statistics for every worker count (only timings may differ).
func TestHarnessDeterministicAcrossWorkers(t *testing.T) {
	base := tinyConfig()
	base.Specs = base.Specs[:2]
	// No wall-clock budget: timeouts truncate shortlists at a
	// machine-speed-dependent point, which is exactly the kind of
	// nondeterminism this test must not conflate with scheduling. The
	// SAT attack stays bounded by SATIterCap.
	base.Timeout = 0
	var wantCases []string
	var wantPanel []outcomeShape
	var wantSummary *Summary
	for _, workers := range []int{1, 3} {
		cfg := base
		cfg.Workers = workers
		cases, err := BuildSuite(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		ids := make([]string, len(cases))
		for i, cs := range cases {
			ids[i] = fmt.Sprintf("%s/%s/h=%d/seed=%d/gates=%d",
				cs.Spec.Name, cs.Level.Label(), cs.H, cs.Seed, cs.Lock.Locked.NumGates())
		}
		panel := shapes(outcomes(runSuite(t, cases, "fig5:hd0", cfg)))
		summary := AggregateSummary(outcomes(runSuite(t, cases, "summary", cfg)))
		if wantCases == nil {
			wantCases, wantPanel, wantSummary = ids, panel, &summary
			continue
		}
		if !reflect.DeepEqual(ids, wantCases) {
			t.Errorf("workers=%d: suite differs\n got %v\nwant %v", workers, ids, wantCases)
		}
		if !reflect.DeepEqual(panel, wantPanel) {
			t.Errorf("workers=%d: Fig5 panel differs\n got %v\nwant %v", workers, panel, wantPanel)
		}
		if summary.Defeated != wantSummary.Defeated || summary.UniqueKey != wantSummary.UniqueKey ||
			!reflect.DeepEqual(summary.MultiKey, wantSummary.MultiKey) {
			t.Errorf("workers=%d: summary differs\n got %+v\nwant %+v", workers, summary, *wantSummary)
		}
	}
}

// Scoring must be multi-key aware: Solved follows SAT-miter
// I/O-equivalence, with planted-key membership kept as a separate
// signal (Hu et al. 2024).
func TestScoreShortlist(t *testing.T) {
	cfg := tinyConfig()
	cs, err := BuildCase(cfg.Specs[0], HD0, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var planted Outcome
	miters := ScoreShortlist(ctx, cs, []map[string]bool{cs.Lock.Key}, cfg, cfg.solverSetup(), &planted)
	if !planted.PlantedKeyMatch || !planted.Equivalent || !planted.Solved || miters != 0 {
		t.Errorf("planted key scored %+v with %d miters, want match+equivalent+solved and none", planted, miters)
	}

	// A flipped key bit breaks a TTLock instance on the protected cube:
	// not planted, and the miter must refute equivalence.
	wrong := map[string]bool{}
	for k, v := range cs.Lock.Key {
		wrong[k] = v
	}
	for k := range wrong {
		wrong[k] = !wrong[k]
		break
	}
	var flipped Outcome
	miters = ScoreShortlist(ctx, cs, []map[string]bool{wrong}, cfg, cfg.solverSetup(), &flipped)
	if flipped.PlantedKeyMatch || flipped.Equivalent || flipped.Solved || miters != 1 {
		t.Errorf("flipped key scored %+v with %d miters, want nothing and one", flipped, miters)
	}

	// A shortlist holding both must be Solved via the planted member.
	var both Outcome
	ScoreShortlist(ctx, cs, []map[string]bool{wrong, cs.Lock.Key}, cfg, cfg.solverSetup(), &both)
	if !both.Solved || !both.PlantedKeyMatch {
		t.Errorf("mixed shortlist scored %+v, want solved", both)
	}
}

func TestMeanStd(t *testing.T) {
	m, s := meanStd([]time.Duration{2 * time.Second, 4 * time.Second})
	if m != 3*time.Second {
		t.Errorf("mean = %v", m)
	}
	if s != time.Second {
		t.Errorf("std = %v", s)
	}
	if m, s := meanStd(nil); m != 0 || s != 0 {
		t.Error("empty meanStd not zero")
	}
}
