package campaign

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/genbench"
)

// tinyCampaignConfig keeps campaign tests fast: 2 circuits at 1/16
// scale. Timeout 0 removes the wall-clock budget so verdicts are pure
// functions of the seed (the SAT attack stays bounded by SATIterCap) —
// the same discipline exp's worker-determinism test uses.
func tinyCampaignConfig(suites ...string) Config {
	return Config{
		Specs:      genbench.Scaled(genbench.TableI, 16, 12)[:2],
		Seed:       2024,
		Timeout:    0,
		SATIterCap: 40,
		Suites:     suites,
	}
}

// Shards must be pairwise disjoint and jointly exhaustive for every
// shard count — the property the issue demands, checked over counts
// well past the case count.
func TestShardPartition(t *testing.T) {
	plan, err := NewPlan(tinyCampaignConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := len(plan.Cases)
	if n == 0 {
		t.Fatal("empty plan")
	}
	for count := 1; count <= n+3; count++ {
		seen := make([]int, n)
		for index := 0; index < count; index++ {
			idxs, err := plan.ShardIndices(index, count)
			if err != nil {
				t.Fatalf("count=%d index=%d: %v", count, index, err)
			}
			for _, i := range idxs {
				if i < 0 || i >= n {
					t.Fatalf("count=%d: index %d out of range", count, i)
				}
				seen[i]++
			}
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("count=%d: case %d covered %d times", count, i, c)
			}
		}
	}
	if _, err := plan.ShardIndices(0, 0); err == nil {
		t.Error("shard count 0 accepted")
	}
	if _, err := plan.ShardIndices(2, 2); err == nil {
		t.Error("shard index == count accepted")
	}
	if _, err := plan.ShardIndices(-1, 2); err == nil {
		t.Error("negative shard index accepted")
	}
}

func TestPlanHashAndValidation(t *testing.T) {
	cfg := tinyCampaignConfig()
	p1, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Hash != p2.Hash {
		t.Error("identical configs produced different plan hashes")
	}
	other := cfg
	other.Seed++
	p3, err := NewPlan(other)
	if err != nil {
		t.Fatal(err)
	}
	if p3.Hash == p1.Hash {
		t.Error("different seeds produced the same plan hash")
	}
	if err := p1.Validate(); err != nil {
		t.Errorf("fresh plan invalid: %v", err)
	}
	tampered := *p1
	tampered.Cases = append([]Case(nil), p1.Cases...)
	tampered.Cases[0].Seed++
	if err := tampered.Validate(); err == nil {
		t.Error("tampered plan validated")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, PlanFileName)
	if err := WritePlan(path, p1); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Hash != p1.Hash || len(back.Cases) != len(p1.Cases) {
		t.Error("plan did not round-trip")
	}
	if _, err := NewPlan(Config{}); err == nil {
		t.Error("empty config planned")
	}
	dup := cfg
	dup.Suites = []string{"summary", "summary"}
	if _, err := NewPlan(dup); err == nil {
		t.Error("duplicate suite accepted")
	}
}

// monolithicReport renders the suites the way cmd/fallbench does, fully
// in-process — the reference output every sharded merge must match.
func monolithicReport(t *testing.T, cfg Config) string {
	t.Helper()
	expCfg, err := cfg.ExpConfig()
	if err != nil {
		t.Fatal(err)
	}
	cases, err := exp.BuildSuite(expCfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var b strings.Builder
	for _, suite := range cfg.Suites {
		switch {
		case suite == "table1":
			rows, err := exp.Table1FromCases(cases, expCfg)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString("=== Table I (regenerated) ===\n")
			b.WriteString(exp.FormatTable1(rows))
		case strings.HasPrefix(suite, "fig5:"):
			level, err := exp.ParseHLevel(strings.TrimPrefix(suite, "fig5:"))
			if err != nil {
				t.Fatal(err)
			}
			outs := exp.Fig5Panel(ctx, cases, level, expCfg)
			b.WriteString("=== Fig. 5 panel " + level.Token() + " (" + level.Label() + ") ===\n")
			b.WriteString(exp.FormatCactus(outs, exp.Fig5AttackNames(level)))
		case suite == "fig6":
			b.WriteString("=== Fig. 6: key confirmation vs SAT attack ===\n")
			b.WriteString(exp.FormatFig6(exp.Fig6(ctx, cases, expCfg)))
		case suite == "summary":
			b.WriteString("=== §VI-B summary ===\n")
			b.WriteString(exp.FormatSummary(exp.Summarize(ctx, cases, expCfg)))
		default:
			t.Fatalf("unknown suite %s", suite)
		}
	}
	return b.String()
}

// runCampaign plans, runs every shard, and merges, returning the
// rendered report and the merge result.
func runCampaign(t *testing.T, cfg Config, shards int) (string, *MergeResult) {
	t.Helper()
	plan, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for index := 0; index < shards; index++ {
		report, err := Run(context.Background(), plan, dir, RunOptions{
			ShardIndex: index, ShardCount: shards, Workers: 2,
		})
		if err != nil {
			t.Fatalf("shard %d/%d: %v", index, shards, err)
		}
		if report.Skipped != 0 {
			t.Fatalf("shard %d/%d skipped %d cases on a fresh dir", index, shards, report.Skipped)
		}
	}
	m, err := Merge(plan, []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Complete() {
		t.Fatalf("merge incomplete: missing %v", m.Missing)
	}
	var b strings.Builder
	if err := m.Render(&b); err != nil {
		t.Fatal(err)
	}
	return b.String(), m
}

// sections splits a rendered report at its "=== " headers.
func sections(report string) map[string]string {
	out := map[string]string{}
	var name string
	var body strings.Builder
	flush := func() {
		if name != "" {
			out[name] = body.String()
		}
		body.Reset()
	}
	for _, line := range strings.SplitAfter(report, "\n") {
		if strings.HasPrefix(line, "=== ") {
			flush()
			name = strings.TrimSpace(line)
			continue
		}
		body.WriteString(line)
	}
	flush()
	return out
}

// The acceptance property: plan + N shard runs + merge must reproduce a
// monolithic in-process run. Table I and the §VI-B summary are timing-
// free, so those sections must be byte-identical for every shard count;
// the Fig. 5 section carries wall-clock solve times, so its verdict
// structure (attack names and solved counts) is compared instead.
func TestCampaignMatchesMonolithic(t *testing.T) {
	cfg := tinyCampaignConfig("table1", "fig5:hd0", "summary")
	mono := sections(monolithicReport(t, cfg))
	for _, shards := range []int{1, 2, 4} {
		report, _ := runCampaign(t, cfg, shards)
		merged := sections(report)
		if len(merged) != len(mono) {
			t.Fatalf("shards=%d: %d sections, want %d", shards, len(merged), len(mono))
		}
		for _, sec := range []string{"=== Table I (regenerated) ===", "=== §VI-B summary ==="} {
			if merged[sec] != mono[sec] {
				t.Errorf("shards=%d: section %s differs from monolithic run\n got:\n%s\nwant:\n%s",
					shards, sec, merged[sec], mono[sec])
			}
		}
		got := solvedCounts(merged["=== Fig. 5 panel hd0 (SFLL-HD0) ==="])
		want := solvedCounts(mono["=== Fig. 5 panel hd0 (SFLL-HD0) ==="])
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: Fig. 5 solved counts %v, want %v", shards, got, want)
		}
	}
}

// solvedCounts extracts the "<attack>: N solved" lines of a cactus
// section — its timing-free verdict structure.
func solvedCounts(section string) []string {
	var out []string
	for _, line := range strings.Split(section, "\n") {
		if strings.HasSuffix(strings.TrimSpace(line), "solved") && !strings.HasPrefix(line, " ") {
			out = append(out, line)
		}
	}
	return out
}

// Fig. 6 merged across shards must carry the same verdict structure as
// the monolithic aggregation (means are wall-clock and can differ).
func TestCampaignFig6(t *testing.T) {
	cfg := tinyCampaignConfig("fig6")
	cfg.Specs = cfg.Specs[:1]
	expCfg, err := cfg.ExpConfig()
	if err != nil {
		t.Fatal(err)
	}
	cases, err := exp.BuildSuite(expCfg)
	if err != nil {
		t.Fatal(err)
	}
	want := exp.Fig6(context.Background(), cases, expCfg)

	_, m := runCampaign(t, cfg, 2)
	var results []exp.Fig6CaseResult
	for _, pc := range m.Plan.Cases {
		a := m.Artifacts[pc.ID]
		if a == nil || a.Fig6 == nil {
			t.Fatalf("case %s has no fig6 artifact", pc.ID)
		}
		results = append(results, *a.Fig6)
	}
	got := exp.AggregateFig6(results)
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Circuit != want[i].Circuit || got[i].KCRuns != want[i].KCRuns ||
			got[i].SARuns != want[i].SARuns || got[i].KCConfirmed != want[i].KCConfirmed {
			t.Errorf("row %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// Merging must be a pure function of the artifact set: rendering twice,
// or with the artifacts scattered across directories, yields identical
// bytes.
func TestMergeDeterminism(t *testing.T) {
	cfg := tinyCampaignConfig("table1", "summary")
	cfg.Specs = cfg.Specs[:1]
	plan, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := Run(context.Background(), plan, dir, RunOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	render := func(dirs []string) string {
		m, err := Merge(plan, dirs)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Complete() {
			t.Fatalf("incomplete: %v", m.Missing)
		}
		var b strings.Builder
		if err := m.Render(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	once := render([]string{dir})
	if twice := render([]string{dir}); twice != once {
		t.Error("second render differs")
	}

	// Scatter artifacts over two directories; the merge must not care.
	split := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, ent := range entries {
		if i%2 == 0 {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(split, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, ent.Name())); err != nil {
			t.Fatal(err)
		}
	}
	if scattered := render([]string{dir, split}); scattered != once {
		t.Error("scattered-directory render differs")
	}
}

// A shard killed mid-flight must leave only complete artifacts, and a
// re-run must pick up exactly where it stopped without recomputing
// finished cases.
func TestResumeAfterKill(t *testing.T) {
	cfg := tinyCampaignConfig("summary")
	cfg.Specs = cfg.Specs[:1] // 4 cases
	plan, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := 0
	report, err := Run(ctx, plan, dir, RunOptions{
		Workers: 1,
		afterArtifact: func(string) {
			done++
			if done == 2 {
				cancel() // the "kill": no further case may persist
			}
		},
	})
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if report.Ran != 2 {
		t.Fatalf("cancelled run persisted %d cases, want 2", report.Ran)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if strings.HasPrefix(ent.Name(), ".tmp-") {
			t.Errorf("partial artifact left behind: %s", ent.Name())
		}
		if strings.HasSuffix(ent.Name(), ClaimSuffix) {
			t.Errorf("cancelled run left its claim behind: %s", ent.Name())
		}
	}

	report, err = Run(context.Background(), plan, dir, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if report.Skipped != 2 || report.Ran != len(plan.Cases)-2 {
		t.Fatalf("resume skipped %d / ran %d, want 2 / %d", report.Skipped, report.Ran, len(plan.Cases)-2)
	}
	m, err := Merge(plan, []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Complete() {
		t.Errorf("resumed campaign incomplete: %v", m.Missing)
	}

	// A third run is a no-op.
	report, err = Run(context.Background(), plan, dir, RunOptions{Workers: 1})
	if err != nil || report.Ran != 0 || report.Skipped != len(plan.Cases) {
		t.Errorf("idempotent re-run: ran %d, skipped %d, err %v", report.Ran, report.Skipped, err)
	}
}

// Artifacts from a different plan must be rejected, both on resume and
// on merge — never silently mixed into a campaign.
func TestForeignArtifactsRejected(t *testing.T) {
	cfg := tinyCampaignConfig("table1")
	cfg.Specs = cfg.Specs[:1]
	plan, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	a := &Artifact{PlanHash: "deadbeef", CaseID: plan.Cases[0].ID}
	if err := WriteArtifact(dir, a); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), plan, dir, RunOptions{}); err == nil {
		t.Error("run accepted a foreign artifact")
	}
	if _, err := Merge(plan, []string{dir}); err == nil {
		t.Error("merge accepted a foreign artifact")
	}
	if _, err := Status(plan, []string{dir}); err == nil {
		t.Error("status accepted a foreign artifact")
	}

	// An artifact with the right hash but an unplanned case ID is
	// equally suspect.
	good := &Artifact{PlanHash: plan.Hash, CaseID: "table1/nosuch"}
	dir2 := t.TempDir()
	if err := WriteArtifact(dir2, good); err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(plan, []string{dir2}); err == nil {
		t.Error("merge accepted an unplanned case")
	}
}

func TestStatusReport(t *testing.T) {
	cfg := tinyCampaignConfig("table1", "summary")
	cfg.Specs = cfg.Specs[:1]
	plan, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	s, err := Status(plan, []string{dir}) // nothing run yet; dir may not even exist
	if err != nil {
		t.Fatal(err)
	}
	if s.Done != 0 || s.Total != len(plan.Cases) || s.Complete() {
		t.Errorf("fresh status %+v", s)
	}

	// Run only shard 0 of 2.
	if _, err := Run(context.Background(), plan, dir, RunOptions{ShardIndex: 0, ShardCount: 2, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	idxs, err := plan.ShardIndices(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err = Status(plan, []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if s.Done != len(idxs) || s.Complete() {
		t.Errorf("half-run status %+v, want done=%d", s, len(idxs))
	}
	var b strings.Builder
	s.Render(&b)
	if !strings.Contains(b.String(), "table1") || !strings.Contains(b.String(), "pending:") {
		t.Errorf("status render missing suites or pending lines:\n%s", b.String())
	}

	// Merge without the second shard must refuse completeness.
	m, err := Merge(plan, []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if m.Complete() {
		t.Error("half-run campaign reported complete")
	}
	var out strings.Builder
	if err := m.Render(&out); err != nil {
		t.Errorf("partial render failed: %v", err)
	}
}

// The 1-shard campaign is the in-process path: its per-case outcome
// shapes must match direct exp runs (the "special case" wiring the
// issue demands), including the new equivalence-based scoring fields.
func TestOneShardOutcomeShapes(t *testing.T) {
	cfg := tinyCampaignConfig("summary")
	cfg.Specs = cfg.Specs[:1]
	expCfg, err := cfg.ExpConfig()
	if err != nil {
		t.Fatal(err)
	}
	cases, err := exp.BuildSuite(expCfg)
	if err != nil {
		t.Fatal(err)
	}
	want := exp.SummaryOutcomes(context.Background(), cases, expCfg)

	_, m := runCampaign(t, cfg, 1)
	for i, pc := range m.Plan.Cases {
		a := m.Artifacts[pc.ID]
		if a == nil || a.Outcome == nil {
			t.Fatalf("case %s: no outcome artifact", pc.ID)
		}
		got, w := *a.Outcome, want[i]
		if got.Circuit != w.Circuit || got.Level != w.Level || got.Solved != w.Solved ||
			got.PlantedKeyMatch != w.PlantedKeyMatch || got.Equivalent != w.Equivalent ||
			got.Unique != w.Unique || got.NumKeys != w.NumKeys || got.Failed != w.Failed {
			t.Errorf("case %s: artifact outcome %+v, direct run %+v", pc.ID, got, w)
		}
	}
}

// Artifact JSON must round-trip the full outcome, including recovered
// keys and durations.
func TestArtifactRoundTrip(t *testing.T) {
	a := &Artifact{
		PlanHash: "abc",
		CaseID:   "summary/c432/hd0",
		Outcome: &exp.Outcome{
			Circuit: "c432", Level: exp.HM8, Attack: "Auto",
			Solved: true, Equivalent: true, NumKeys: 1,
			Keys: []map[string]bool{{"keyinput0": true}},
			Time: 42 * time.Millisecond,
		},
	}
	dir := t.TempDir()
	if err := WriteArtifact(dir, a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadArtifact(ArtifactPath(dir, a.CaseID))
	if err != nil {
		t.Fatal(err)
	}
	if back.Outcome == nil || back.Outcome.Level != exp.HM8 || back.Outcome.Time != 42*time.Millisecond ||
		len(back.Outcome.Keys) != 1 || !back.Outcome.Keys[0]["keyinput0"] {
		t.Errorf("artifact did not round-trip: %+v", back.Outcome)
	}
	if back.Failed() {
		t.Error("healthy artifact reported failed")
	}
	if !(&Artifact{Error: "boom"}).Failed() {
		t.Error("error artifact not failed")
	}

	// Corrupt files are errors, not silent skips.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadArtifact(bad); err == nil {
		t.Error("corrupt artifact accepted")
	}
}
