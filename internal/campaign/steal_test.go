package campaign

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/atomicfile"
)

// Claim acquisition must be mutually exclusive for any worker count:
// with every claim held (never released), each path is won by exactly
// one of the concurrently racing workers.
func TestClaimExclusive(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		t.Run(map[int]string{1: "w1", 3: "w3", 8: "w8"}[workers], func(t *testing.T) {
			dir := t.TempDir()
			const paths = 40
			var mu sync.Mutex
			won := map[int][]*Claim{}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < paths; i++ {
						path := filepath.Join(dir, ArtifactFileName("c/"+string(rune('a'+i%26))+string(rune('0'+i/26)))+ClaimSuffix)
						c, err := TryClaim(path, ClaimInfo{Owner: "t"}, time.Hour)
						if err != nil {
							t.Error(err)
							return
						}
						if c != nil {
							mu.Lock()
							won[i] = append(won[i], c)
							mu.Unlock()
						}
					}
				}()
			}
			wg.Wait()
			for i := 0; i < paths; i++ {
				if len(won[i]) != 1 {
					t.Errorf("path %d claimed %d times, want exactly 1", i, len(won[i]))
				}
			}
			for _, cs := range won {
				for _, c := range cs {
					c.Release()
				}
			}
		})
	}
}

// A released claim is immediately re-claimable; a stale (unheartbeated)
// claim is stolen; a fresh foreign claim is not.
func TestClaimLifecycle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.json"+ClaimSuffix)

	c1, err := TryClaim(path, ClaimInfo{Owner: "alice"}, time.Hour)
	if err != nil || c1 == nil {
		t.Fatalf("fresh claim: %v %v", c1, err)
	}
	if c2, _ := TryClaim(path, ClaimInfo{Owner: "bob"}, time.Hour); c2 != nil {
		t.Fatal("live claim was double-claimed")
	}
	info, _, err := ReadClaim(path)
	if err != nil || info.Owner != "alice" {
		t.Fatalf("ReadClaim: %+v %v", info, err)
	}
	c1.Release()
	c1.Release() // idempotent
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("release left the claim file")
	}

	// Simulate a dead worker: a claim file whose mtime stopped advancing
	// a lease ago.
	if err := os.WriteFile(path, []byte(`{"owner":"dead"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	c3, err := TryClaim(path, ClaimInfo{Owner: "carol"}, time.Minute)
	if err != nil || c3 == nil {
		t.Fatalf("stale claim not stolen: %v %v", c3, err)
	}
	if !c3.Stolen {
		t.Error("stolen claim not marked Stolen")
	}
	c3.Release()
}

// The claim heartbeat must keep a held claim's mtime fresh, so a slow
// case is not stolen out from under a live worker.
func TestClaimHeartbeat(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.json"+ClaimSuffix)
	lease := 200 * time.Millisecond
	c, err := TryClaim(path, ClaimInfo{Owner: "w"}, lease)
	if err != nil || c == nil {
		t.Fatalf("claim: %v %v", c, err)
	}
	defer c.Release()
	time.Sleep(3 * lease)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if age := time.Since(st.ModTime()); age > lease {
		t.Errorf("heartbeated claim aged %v past its %v lease", age, lease)
	}
	if c2, _ := TryClaim(path, ClaimInfo{Owner: "thief"}, lease); c2 != nil {
		t.Error("live heartbeated claim was stolen")
	}
}

// The tentpole property: N stealing workers sharing one artifact
// directory must drain the plan disjointly and exhaustively — every
// case run exactly once across the fleet — and the merged report must
// be byte-identical to the monolithic run (for timing-free sections).
func TestStealDisjointExhaustive(t *testing.T) {
	cfg := tinyCampaignConfig("table1", "summary")
	plan, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mono := sections(monolithicReport(t, cfg))

	for _, fleet := range []int{1, 3} {
		t.Run(map[int]string{1: "solo", 3: "fleet3"}[fleet], func(t *testing.T) {
			dir := t.TempDir()
			reports := make([]*RunReport, fleet)
			errs := make([]error, fleet)
			var wg sync.WaitGroup
			for w := 0; w < fleet; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					reports[w], errs[w] = Run(context.Background(), plan, dir, RunOptions{
						Workers: 2, Owner: "w" + string(rune('0'+w)), Lease: time.Hour,
					})
				}(w)
			}
			wg.Wait()
			ran := 0
			for w := 0; w < fleet; w++ {
				if errs[w] != nil {
					t.Fatalf("worker %d: %v", w, errs[w])
				}
				ran += reports[w].Ran
				if reports[w].Remaining != 0 {
					t.Errorf("worker %d returned with %d cases remaining", w, reports[w].Remaining)
				}
			}
			// Disjoint and exhaustive: the fleet's Ran counts sum to
			// exactly the plan — no case lost, none run twice.
			if ran != len(plan.Cases) {
				t.Fatalf("fleet ran %d cases, plan has %d", ran, len(plan.Cases))
			}
			// No claim files or temp litter survive a clean drain.
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, ent := range entries {
				if strings.HasSuffix(ent.Name(), ClaimSuffix) || strings.HasPrefix(ent.Name(), ".tmp-") {
					t.Errorf("leftover file after drain: %s", ent.Name())
				}
			}
			m, err := Merge(plan, []string{dir})
			if err != nil {
				t.Fatal(err)
			}
			if !m.Complete() {
				t.Fatalf("fleet merge incomplete: %v", m.Missing)
			}
			var b strings.Builder
			if err := m.Render(&b); err != nil {
				t.Fatal(err)
			}
			merged := sections(b.String())
			for _, sec := range []string{"=== Table I (regenerated) ===", "=== §VI-B summary ==="} {
				if merged[sec] != mono[sec] {
					t.Errorf("section %s differs from monolithic run\n got:\n%s\nwant:\n%s", sec, merged[sec], mono[sec])
				}
			}
		})
	}
}

// Static shards are a filter on the claim loop, not a second
// scheduler: a whole-plan worker and shards 0/2 and 1/2 running at once
// on one directory claim through the same files, so every case runs
// exactly once across the three, no claim survives, and the merge
// equals the monolithic report.
func TestMixedFleetSharesOneDirectory(t *testing.T) {
	cfg := tinyCampaignConfig("table1", "summary")
	plan, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mono := monolithicReport(t, cfg)
	dir := t.TempDir()
	fleet := []RunOptions{
		{Workers: 2, Owner: "whole", Lease: time.Minute},
		{ShardIndex: 0, ShardCount: 2, Workers: 1, Owner: "shard0", Lease: time.Minute},
		{ShardIndex: 1, ShardCount: 2, Workers: 1, Owner: "shard1", Lease: time.Minute},
	}
	reports := make([]*RunReport, len(fleet))
	errs := make([]error, len(fleet))
	var wg sync.WaitGroup
	for w := range fleet {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			reports[w], errs[w] = Run(context.Background(), plan, dir, fleet[w])
		}(w)
	}
	wg.Wait()
	ran := 0
	for w := range fleet {
		if errs[w] != nil {
			t.Fatalf("worker %s: %v", fleet[w].Owner, errs[w])
		}
		ran += reports[w].Ran
	}
	if ran != len(plan.Cases) {
		t.Fatalf("fleet ran %d cases, plan has %d", ran, len(plan.Cases))
	}
	claims, err := filepath.Glob(filepath.Join(dir, "*"+ClaimSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) != 0 {
		t.Errorf("claims left after the fleet drained: %v", claims)
	}
	m, err := Merge(plan, []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Complete() {
		t.Fatalf("fleet merge incomplete: %v", m.Missing)
	}
	var b strings.Builder
	if err := m.Render(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != mono {
		t.Errorf("fleet merge differs from the monolithic run\n got:\n%s\nwant:\n%s", b.String(), mono)
	}
}

// A worker killed mid-claim must not strand its case: the lease
// expires, another worker steals the claim, and the campaign completes
// with no duplicate or lost artifacts.
func TestKillMidClaimResteal(t *testing.T) {
	cfg := tinyCampaignConfig("summary")
	cfg.Specs = cfg.Specs[:1] // 4 cases
	plan, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}

	// The "kill": a claim file whose owner stopped heartbeating a
	// long time ago (a worker that died holding the case).
	victim := plan.Cases[1].ID
	cpath := ClaimPath(dir, victim)
	data, _ := json.Marshal(ClaimInfo{Owner: "dead-worker", Case: victim, Start: time.Now().Add(-time.Hour)})
	if err := os.WriteFile(cpath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(cpath, old, old); err != nil {
		t.Fatal(err)
	}

	report, err := Run(context.Background(), plan, dir, RunOptions{
		Workers: 2, Owner: "survivor", Lease: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Ran != len(plan.Cases) {
		t.Errorf("ran %d cases, want %d", report.Ran, len(plan.Cases))
	}
	if report.Stolen != 1 {
		t.Errorf("stole %d claims, want exactly 1 (the dead worker's)", report.Stolen)
	}
	m, err := Merge(plan, []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Complete() {
		t.Errorf("merge incomplete after re-steal: %v", m.Missing)
	}
	if _, err := os.Stat(cpath); !os.IsNotExist(err) {
		t.Error("stolen claim file still present after the case completed")
	}
}

// A fresh foreign claim must NOT be stolen: the budget expires with the
// case still owned elsewhere, the run reports BudgetStopped, and a
// later resumed run (after the claim is gone) completes the campaign.
func TestBudgetStopsStealAndResumes(t *testing.T) {
	cfg := tinyCampaignConfig("summary")
	cfg.Specs = cfg.Specs[:1] // 4 cases
	plan, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}

	// A live peer holds one case (fresh mtime, long lease).
	held := plan.Cases[0].ID
	peer, err := TryClaim(ClaimPath(dir, held), ClaimInfo{Owner: "peer", Case: held}, time.Hour)
	if err != nil || peer == nil {
		t.Fatalf("peer claim: %v %v", peer, err)
	}

	report, err := Run(context.Background(), plan, dir, RunOptions{
		Workers: 2, Owner: "budgeted", Lease: time.Hour, Budget: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.BudgetStopped {
		t.Fatal("run with an unclaimable case did not report BudgetStopped")
	}
	if report.Remaining != 1 {
		t.Errorf("remaining %d, want 1 (the peer-held case)", report.Remaining)
	}
	if report.Ran != len(plan.Cases)-1 {
		t.Errorf("ran %d, want %d", report.Ran, len(plan.Cases)-1)
	}

	// Status must surface both the live claim and the budget stop.
	s, err := Status(plan, []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Claims) != 1 || s.Claims[0].Owner != "peer" || s.Claims[0].Stale {
		t.Errorf("status claims %+v, want one fresh claim by peer", s.Claims)
	}
	if len(s.BudgetStopped) != 1 || s.BudgetStopped[0].Owner != "budgeted" || s.BudgetStopped[0].Remaining != 1 {
		t.Errorf("status budget stops %+v, want one by budgeted with 1 remaining", s.BudgetStopped)
	}
	var b strings.Builder
	s.Render(&b)
	if !strings.Contains(b.String(), "worker peer: running") || !strings.Contains(b.String(), "budget-stopped budgeted") {
		t.Errorf("status render missing fleet lines:\n%s", b.String())
	}

	// The peer dies without finishing; its claim is released. A resumed
	// run completes the campaign and clears the budget marker.
	peer.Release()
	report, err = Run(context.Background(), plan, dir, RunOptions{
		Workers: 2, Owner: "resumer", Lease: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Ran != 1 || report.Skipped != len(plan.Cases)-1 || report.Remaining != 0 || report.BudgetStopped {
		t.Errorf("resume report %+v, want 1 run / %d skipped / complete", report, len(plan.Cases)-1)
	}
	s, err = Status(plan, []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Complete() || len(s.BudgetStopped) != 0 || len(s.Claims) != 0 {
		t.Errorf("final status %+v, want complete with no fleet lines", s)
	}
}

// A worker whose last open case a peer holds picks the peer's artifact
// up within one poll of its release: at the default 2 m lease the poll
// interval is capped at 100 ms, so Run returns well within a second.
func TestPeerHeldLastCaseReturnsPromptly(t *testing.T) {
	cfg := tinyCampaignConfig("summary")
	cfg.Specs = cfg.Specs[:1] // 4 cases
	plan, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := t.TempDir(), t.TempDir()
	if _, err := Run(context.Background(), plan, src, RunOptions{Workers: 2, Owner: "earlier"}); err != nil {
		t.Fatal(err)
	}
	copyArtifact := func(id string) {
		data, err := os.ReadFile(ArtifactPath(src, id))
		if err != nil {
			t.Fatal(err)
		}
		if err := atomicfile.WriteFile(dst, ArtifactFileName(id), data); err != nil {
			t.Fatal(err)
		}
	}
	held := plan.Cases[len(plan.Cases)-1].ID
	for _, c := range plan.Cases {
		if c.ID != held {
			copyArtifact(c.ID)
		}
	}
	peer, err := TryClaim(ClaimPath(dst, held), ClaimInfo{Owner: "peer", Case: held}, 0)
	if err != nil || peer == nil {
		t.Fatalf("peer claim: %v %v", peer, err)
	}

	type result struct {
		report *RunReport
		err    error
		at     time.Time
	}
	done := make(chan result, 1)
	go func() {
		report, err := Run(context.Background(), plan, dst, RunOptions{Workers: 1, Owner: "waiter"})
		done <- result{report, err, time.Now()}
	}()
	time.Sleep(200 * time.Millisecond) // the peer finishing its case
	copyArtifact(held)
	peer.Release()
	released := time.Now()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if wait := r.at.Sub(released); wait > time.Second {
			t.Errorf("Run returned %v after the peer released its last case, want < 1s", wait)
		}
		if r.report.Ran != 0 || r.report.Remaining != 0 {
			t.Errorf("report %+v, want nothing run and nothing remaining", r.report)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after the peer released its last case")
	}
}

// The modulo path honors budgets too: an expired budget gates pending
// units, the run reports BudgetStopped, and resuming completes it with
// a report identical to an unbudgeted run's.
func TestBudgetModuloResume(t *testing.T) {
	cfg := tinyCampaignConfig("summary")
	cfg.Specs = cfg.Specs[:1] // 4 cases
	plan, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reference := sections(monolithicReport(t, cfg))

	dir := t.TempDir()
	// A budget that is already spent: every unit is gated, nothing runs.
	report, err := Run(context.Background(), plan, dir, RunOptions{
		Workers: 2, Budget: time.Nanosecond, Owner: "shard0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.BudgetStopped || report.Ran != 0 || report.Remaining != len(plan.Cases) {
		t.Fatalf("spent-budget report %+v, want all %d cases remaining", report, len(plan.Cases))
	}
	s, err := Status(plan, []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.BudgetStopped) != 1 {
		t.Fatalf("status budget stops %+v, want 1", s.BudgetStopped)
	}

	// Resume without a budget: everything runs, the marker clears, and
	// the merged report matches the monolithic reference.
	report, err = Run(context.Background(), plan, dir, RunOptions{Workers: 2, Owner: "shard0"})
	if err != nil {
		t.Fatal(err)
	}
	if report.BudgetStopped || report.Ran != len(plan.Cases) {
		t.Fatalf("resume report %+v", report)
	}
	m, err := Merge(plan, []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := m.Render(&b); err != nil {
		t.Fatal(err)
	}
	if got := sections(b.String()); got["=== §VI-B summary ==="] != reference["=== §VI-B summary ==="] {
		t.Error("budget-interrupted campaign's merged summary differs from the monolithic run")
	}
	s, err = Status(plan, []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.BudgetStopped) != 0 {
		t.Errorf("budget marker survived completion: %+v", s.BudgetStopped)
	}
}
