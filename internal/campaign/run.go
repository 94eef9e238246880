package campaign

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/exp"
	"repro/internal/genbench"
	"repro/internal/obs"
)

// caseNeed identifies one locked instance a case attacks: spec index
// plus hardness level (the pure inputs of exp.BuildCase).
type caseNeed struct {
	specIdx int
	level   exp.HLevel
}

// caseCache builds each locked instance a plan's cases attack once, from
// the plan's derived seed. Generation and locking are pure functions of
// that seed, so every build of one (spec, level) is the same circuit.
// The scheduler and MergeResult.Rescore share it; it is safe for
// concurrent use.
type caseCache struct {
	plan  *Plan
	mu    sync.Mutex
	build map[caseNeed]func() (*exp.Case, error)
}

func newCaseCache(plan *Plan) *caseCache {
	return &caseCache{plan: plan, build: map[caseNeed]func() (*exp.Case, error){}}
}

func (c *caseCache) get(n caseNeed) (*exp.Case, error) {
	c.mu.Lock()
	build, ok := c.build[n]
	if !ok {
		build = sync.OnceValues(func() (*exp.Case, error) {
			spec := c.plan.Config.Specs[n.specIdx]
			cs, err := exp.BuildCase(spec, n.level, exp.CaseSeed(c.plan.Config.Seed, n.specIdx))
			if err != nil {
				return nil, fmt.Errorf("campaign: build %s/%s: %w", spec.Name, n.level.Label(), err)
			}
			return cs, nil
		})
		c.build[n] = build
	}
	c.mu.Unlock()
	return build()
}

// cases returns the instances unit u of planned case pc attacks: every
// level of its spec for a Table I row, its own level otherwise.
func (c *caseCache) cases(pc Case, u exp.Unit) ([]*exp.Case, error) {
	levels := []exp.HLevel{u.Level}
	if u.Kind == exp.UnitTable1 {
		levels = exp.Levels
	}
	out := make([]*exp.Case, len(levels))
	for j, level := range levels {
		cs, err := c.get(caseNeed{pc.SpecIdx, level})
		if err != nil {
			return nil, err
		}
		out[j] = cs
	}
	return out, nil
}

// RunOptions tunes a run.
type RunOptions struct {
	// ShardIndex / ShardCount filter the plan: the run takes only the
	// cases with index ≡ ShardIndex (mod ShardCount). Zero values mean
	// the whole plan (1 shard).
	ShardIndex int
	ShardCount int
	// Workers bounds how many cases run concurrently; <= 0 means all
	// cores.
	Workers int
	// Log, when non-nil, receives one progress line per case and the
	// memo summary.
	Log io.Writer
	// Memo shares one cross-query verdict cache across the run's cases
	// (sat.NewMemo). Verdicts are unchanged — memoized artifacts
	// additionally carry solve-time and hit/miss diagnostics, which a
	// merge aggregates.
	Memo bool
	// MemoDir, when non-empty, attaches the persistent on-disk verdict
	// store at this directory as the memo's L2 tier (implies Memo) and
	// shares it across shards, reruns, and daemon restarts. Empty falls
	// back to the plan's recorded Config.MemoDir.
	MemoDir string
	// MemoMaxBytes caps the on-disk store's size (<= 0 means
	// sat.DefaultDiskMemoBytes); past the cap, least-recently-used
	// records are evicted.
	MemoMaxBytes int64
	// Trace, when non-empty, writes an NDJSON span trace of the run to
	// this path (atomic temp+rename; the file appears only when the run
	// finishes). cmd/tracestat merges per-shard trace files into one
	// view.
	Trace string
	// Owner identifies this worker in claim files and budget markers;
	// empty means DefaultOwner() (host-pid).
	Owner string
	// Lease is the claim staleness horizon: a claim not heartbeated for
	// this long is treated as abandoned by a dead worker and re-stolen.
	// <= 0 means DefaultLease.
	Lease time.Duration
	// Budget, when > 0, is the run's wall-clock budget: once it elapses
	// the run stops claiming new cases, lets in-flight ones finish, and
	// reports BudgetStopped — the remaining cases are healthy, just
	// unstarted, and a resumed run completes them. cmd/campaign maps
	// BudgetStopped to exit code 4 so CI can requeue a continuation.
	Budget time.Duration
	// SolverOverride replaces the plan's solver engine spec for this
	// worker only — runtime configuration, not part of the plan hash.
	// It is how a heterogeneous fleet maps workers to their hardware
	// (and how the fleet benchmark simulates a slow machine with the
	// sleeping stub solver). The override must be verdict-equivalent
	// to the plan's engine; artifacts record the setup actually used.
	SolverOverride string

	// afterArtifact is a test seam invoked after each artifact lands on
	// disk (used to kill a run deterministically mid-flight).
	afterArtifact func(caseID string)
}

// RunReport summarizes a run.
type RunReport struct {
	// ShardCases counts the plan cases the run's shard filter selects.
	ShardCases int
	// Skipped counts cases whose artifact was already on disk, written
	// by an earlier run or by a concurrent peer.
	Skipped int
	// Ran counts cases executed and persisted by this run.
	Ran int
	// Failed counts shard cases whose artifact (pre-existing or fresh)
	// records a failure.
	Failed int
	// Stolen counts cases this run took over from an expired lease.
	Stolen int
	// Remaining counts shard cases still without an artifact when the
	// run returned — nonzero only for budget-stopped or cancelled runs.
	Remaining int
	// BudgetStopped reports the run stopped claiming work because its
	// wall-clock budget expired while cases remained.
	BudgetStopped bool
}

// Run drains the shard of the plan that opts selects, writing one
// artifact per completed case into artifactDir. It claims each case
// through an O_EXCL claim file next to the case's artifact path (see
// steal.go), so any number of runs — whole-plan workers and static
// shards alike — can share one artifact directory and each case is
// computed once. Re-running is idempotent: cases whose artifact already
// exists are validated against the plan hash and skipped, so a killed
// run resumes from what it persisted (atomic artifact writes guarantee
// everything on disk is complete). Run returns when every shard case is
// on disk (written by this run or by peers), the budget is spent, or
// ctx dies — never merely because open cases are claimed elsewhere: a
// peer may die, and then this run steals its lease. A cancelled context
// stops attack work promptly and persists no truncated artifact; Run
// releases its claims and returns the context error alongside the
// partial report.
func Run(ctx context.Context, plan *Plan, artifactDir string, opts RunOptions) (*RunReport, error) {
	if opts.ShardCount == 0 {
		opts.ShardCount = 1
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Owner == "" {
		opts.Owner = DefaultOwner()
	}
	if opts.Lease <= 0 {
		opts.Lease = DefaultLease
	}
	idxs, err := plan.ShardIndices(opts.ShardIndex, opts.ShardCount)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(artifactDir, 0o755); err != nil {
		return nil, err
	}
	planCfg := plan.Config
	if opts.SolverOverride != "" {
		planCfg.Solver = opts.SolverOverride
	}
	expCfg, err := planCfg.ExpConfig()
	if err != nil {
		return nil, err
	}
	expCfg.Workers = opts.Workers
	// Fail fast on missing solver binaries instead of a run full of
	// Unknown verdicts.
	if err := (&attack.SolverSetup{Spec: expCfg.Engine}).Check(); err != nil {
		return nil, err
	}
	memoDir := opts.MemoDir
	if memoDir == "" {
		memoDir = plan.Config.MemoDir
	}
	if expCfg.Memo, err = attack.NewMemoFromFlags(opts.Memo, memoDir, opts.MemoMaxBytes); err != nil {
		return nil, fmt.Errorf("campaign: memo dir: %w", err)
	}
	if opts.Trace != "" {
		tracer, err := obs.NewFileTracer(opts.Trace)
		if err != nil {
			return nil, fmt.Errorf("campaign: trace: %w", err)
		}
		root := tracer.Start("campaign.shard",
			"plan", plan.Hash, "shard", opts.ShardIndex, "shards", opts.ShardCount)
		expCfg.Trace = root
		defer func() {
			root.End()
			if err := tracer.Close(); err != nil && opts.Log != nil {
				fmt.Fprintf(opts.Log, "campaign: trace: %v\n", err)
			}
		}()
	}

	s := &scheduler{
		plan:   plan,
		dir:    artifactDir,
		opts:   opts,
		expCfg: expCfg,
		units:  make([]exp.Unit, len(plan.Cases)),
		cache:  newCaseCache(plan),
		done:   make([]bool, len(plan.Cases)),
		held:   make([]bool, len(plan.Cases)),
		report: &RunReport{ShardCases: len(idxs)},
	}
	if opts.Budget > 0 {
		s.deadline = time.Now().Add(opts.Budget)
	}
	// Scan the shard once up front: a finished case is skipped, and a
	// foreign or misnamed artifact fails the run before any case runs.
	shardUnits := make([]exp.Unit, len(idxs))
	specs := make(map[string]genbench.Spec, len(plan.Config.Specs))
	var todo []int
	for j, i := range idxs {
		pc := plan.Cases[i]
		if s.units[i], err = pc.Unit(); err != nil {
			return nil, err
		}
		shardUnits[j] = s.units[i]
		specs[pc.Circuit] = plan.Config.Specs[pc.SpecIdx]
		a, err := s.readArtifact(i)
		switch {
		case err != nil:
			return nil, err
		case a != nil:
			s.markDone(i, a.Failed(), false, false)
		default:
			todo = append(todo, i)
		}
	}
	// Claim order is the harness dispatch order — longest first by the
	// cost model — so the fleet fronts the heavy cases while there are
	// still many hands free.
	for _, j := range exp.DispatchOrder(shardUnits, specs) {
		s.order = append(s.order, idxs[j])
	}
	// Build the instances of the cases still open in one batch before
	// the first claim, so a case's progress line times its attack alone.
	buildErrs := make([]error, len(todo))
	attack.ForEachIndexed(opts.Workers, len(todo), func(j int) bool {
		_, buildErrs[j] = s.cache.cases(plan.Cases[todo[j]], s.units[todo[j]])
		return true
	})
	for _, err := range buildErrs {
		if err != nil {
			return nil, err
		}
	}

	errs := make([]error, min(opts.Workers, len(todo)))
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = s.work(ctx)
		}(w)
	}
	wg.Wait()
	if expCfg.Memo != nil && opts.Log != nil {
		attack.FprintMemoSummary(opts.Log, expCfg.Memo, expCfg.Memo.Stats(), expCfg.Memo.Len())
	}
	// Remaining work is judged on disk: peers may have completed cases
	// this run never scanned as done.
	for _, i := range idxs {
		if !s.onDisk(i) {
			s.report.Remaining++
		}
	}
	for _, err := range errs {
		if err != nil {
			return s.report, err
		}
	}
	s.markBudget()
	return s.report, nil
}

// scheduler is the shared state of one run's workers: the claim order,
// which plan cases are known complete on disk, and the report tallies.
type scheduler struct {
	plan     *Plan
	dir      string
	opts     RunOptions
	expCfg   exp.Config
	units    []exp.Unit // by plan index, for the shard's cases
	order    []int      // shard plan indices in claim order
	cache    *caseCache
	deadline time.Time

	mu     sync.Mutex
	done   []bool // by plan index: the artifact is on disk
	held   []bool // by plan index: one of this run's workers holds it
	report *RunReport
}

// readArtifact loads plan case i's artifact, checked against the plan:
// nil when none is on disk, an error when it is unreadable, belongs to
// another plan, or names another case.
func (s *scheduler) readArtifact(i int) (*Artifact, error) {
	id := s.plan.Cases[i].ID
	path := ArtifactPath(s.dir, id)
	a, err := ReadArtifact(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return nil, nil
	case err != nil:
		return nil, fmt.Errorf("campaign: unreadable artifact %s: %w (delete it to recompute the case)", path, err)
	case a.PlanHash != s.plan.Hash:
		return nil, fmt.Errorf("campaign: existing artifact %s belongs to plan %.12s…, this plan is %.12s… (stale artifact directory?)", path, a.PlanHash, s.plan.Hash)
	case a.CaseID != id:
		return nil, fmt.Errorf("campaign: artifact %s names case %s, want %s", path, a.CaseID, id)
	}
	return a, nil
}

func (s *scheduler) budgetSpent() bool {
	return s.opts.Budget > 0 && !time.Now().Before(s.deadline)
}

// markDone records plan case i as complete on disk, once.
func (s *scheduler) markDone(i int, failed, ran, stolen bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done[i] {
		return
	}
	s.done[i] = true
	if failed {
		s.report.Failed++
	}
	if !ran {
		s.report.Skipped++
		return
	}
	s.report.Ran++
	if stolen {
		s.report.Stolen++
	}
}

func (s *scheduler) isDone(i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done[i]
}

// reserve marks plan case i as held by the calling worker, unless it is
// complete or another of this run's workers holds it.
func (s *scheduler) reserve(i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done[i] || s.held[i] {
		return false
	}
	s.held[i] = true
	return true
}

func (s *scheduler) unreserve(i int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.held[i] = false
}

// work claims and runs cases until the shard is complete on disk or in
// the hands of this run's other workers, the budget is spent, or ctx
// dies. While every open case is claimed by a peer it polls, because
// the peer may die and leave its claim to be stolen.
func (s *scheduler) work(ctx context.Context) error {
	// Poll fast enough to pick freed work up promptly, slow enough not
	// to hammer a shared filesystem. One poll touches only the
	// peer-held cases: an artifact read, an O_EXCL create and a stat
	// each.
	poll := min(max(s.opts.Lease/10, 25*time.Millisecond), 100*time.Millisecond)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if s.budgetSpent() {
			return nil
		}
		i, claim, remains, err := s.claimNext()
		if err != nil {
			return err
		}
		if claim == nil {
			if !remains {
				return nil
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(poll):
			}
			continue
		}
		err = s.runOne(ctx, i, claim)
		s.unreserve(i)
		if err != nil {
			return err
		}
	}
}

// claimNext claims the first case in claim order that is neither
// complete on disk nor claimed by a live worker. It returns (-1, nil,
// remains) when nothing was claimable: remains distinguishes "nothing
// left for this worker" (false) from "open cases are claimed by peers —
// poll and retry" (true).
func (s *scheduler) claimNext() (int, *Claim, bool, error) {
	remains := false
	for _, i := range s.order {
		if !s.reserve(i) {
			continue
		}
		c, err := s.tryClaim(i)
		if err != nil {
			return -1, nil, false, err
		}
		if c != nil {
			return i, c, true, nil
		}
		s.unreserve(i)
		remains = remains || !s.isDone(i)
	}
	return -1, nil, remains, nil
}

// tryClaim claims plan case i's claim file. It returns nil when the
// case's artifact is on disk (marking the case done) or a live peer
// holds the claim.
func (s *scheduler) tryClaim(i int) (*Claim, error) {
	id := s.plan.Cases[i].ID
	a, err := s.readArtifact(i)
	if err != nil {
		return nil, err
	}
	if a != nil {
		s.markDone(i, a.Failed(), false, false)
		// Reap a claim left by a worker that died between writing the
		// artifact and releasing. Stale only: a live owner is about to
		// remove it itself, and no one re-claims a case whose artifact
		// exists, so a stale leftover is pure litter.
		if st, serr := os.Stat(ClaimPath(s.dir, id)); serr == nil && time.Since(st.ModTime()) > s.opts.Lease {
			os.Remove(ClaimPath(s.dir, id))
		}
		return nil, nil
	}
	c, err := TryClaim(ClaimPath(s.dir, id), ClaimInfo{Owner: s.opts.Owner, Case: id}, s.opts.Lease)
	if c == nil {
		return nil, err
	}
	// A peer may have persisted the case and released its claim between
	// the read above and this claim; its artifact is on disk before its
	// claim is gone, so a second read settles it.
	if a, err = s.readArtifact(i); err != nil || a != nil {
		c.Release()
		if a != nil {
			s.markDone(i, a.Failed(), false, false)
		}
		return nil, err
	}
	return c, nil
}

// runOne executes one claimed case end to end and releases the claim.
// The claim is released on every path: with an artifact written the
// case is done, without one (cancellation, write failure) the release
// hands the case straight back to the fleet.
func (s *scheduler) runOne(ctx context.Context, i int, claim *Claim) error {
	defer claim.Release()
	pc := s.plan.Cases[i]
	cases, err := s.cache.cases(pc, s.units[i])
	if err != nil {
		return err
	}
	results, err := exp.RunUnits(ctx, cases, []exp.Unit{s.units[i]}, s.expCfg)
	if err != nil {
		return err
	}
	// A cancelled context means the unit was cut short: its truncated
	// verdict must not be persisted (a resume recomputes it).
	if err := ctx.Err(); err != nil {
		return err
	}
	a := newArtifact(s.plan.Hash, pc, results[0])
	if err := WriteArtifact(s.dir, a); err != nil {
		return err
	}
	s.markDone(i, a.Failed(), true, claim.Stolen)
	if s.opts.Log != nil {
		status := "ok"
		if a.Failed() {
			status = "FAILED"
		}
		fmt.Fprintf(s.opts.Log, "campaign: %s %s\n", pc.ID, status)
	}
	if s.opts.afterArtifact != nil {
		s.opts.afterArtifact(pc.ID)
	}
	return nil
}

// onDisk reports whether plan case i's artifact is on disk. Call it
// only once the run's workers are done.
func (s *scheduler) onDisk(i int) bool {
	if s.done[i] {
		return true
	}
	_, err := os.Stat(ArtifactPath(s.dir, s.plan.Cases[i].ID))
	return err == nil
}

// markBudget applies the budget-marker rule once the run is over: a
// plan complete on disk clears every marker, a drained shard removes
// this owner's, and a spent budget with cases left writes it.
func (s *scheduler) markBudget() {
	switch {
	case s.report.Remaining == 0:
		removeBudgetMarker(s.dir, s.opts.Owner)
		for i := range s.plan.Cases {
			if !s.onDisk(i) {
				return
			}
		}
		clearBudgetMarkers(s.dir)
	case s.budgetSpent():
		s.report.BudgetStopped = true
		if err := writeBudgetMarker(s.dir, s.opts.Owner, s.report.Remaining); err != nil && s.opts.Log != nil {
			fmt.Fprintf(s.opts.Log, "campaign: budget marker: %v\n", err)
		}
	}
}

// DeleteFailed removes every artifact under dir that records a failure
// for one of the given plan-case indices (nil = the whole plan),
// returning the deleted case IDs in plan order — the first half of
// `campaign retry`: delete the failures, then Run recomputes exactly
// the now-missing cases (and resume semantics keep every healthy
// artifact untouched). The index restriction matters under sharding: a
// retrying shard must not delete another shard's failed artifact it
// will never recompute, or the campaign would degrade from "completed
// with failures" to incomplete. Artifacts from foreign plans are an
// error, exactly as in a merge.
func DeleteFailed(plan *Plan, dir string, idxs []int) ([]string, error) {
	if idxs == nil {
		idxs = make([]int, len(plan.Cases))
		for i := range idxs {
			idxs[i] = i
		}
	}
	arts, err := ReadArtifacts(plan, []string{dir})
	if err != nil {
		return nil, err
	}
	var deleted []string
	for _, i := range idxs {
		pc := plan.Cases[i]
		a, ok := arts[pc.ID]
		if !ok || !a.Failed() {
			continue
		}
		if err := os.Remove(ArtifactPath(dir, pc.ID)); err != nil {
			return deleted, err
		}
		deleted = append(deleted, pc.ID)
	}
	return deleted, nil
}
