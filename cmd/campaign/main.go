// Command campaign plans, executes and merges sharded experiment runs:
// the distributed front end to the exp harness. A campaign directory
// holds one plan.json plus an artifacts/ directory with one JSON file
// per completed case.
//
//	campaign plan   -dir camp -scale small -suites table1,summary
//	campaign run    -dir camp -budget 25m                     # any number of workers, one dir
//	campaign run    -dir camp -shard-index 0 -shard-count 4   # per machine, own dir
//	campaign status -dir camp
//	campaign retry  -dir camp                                 # recompute failures
//	campaign merge  -dir camp                                 # render reports
//	campaign merge  -dir camp -rescore                        # replay verdict scoring
//
// A run claims unowned cases one at a time via O_EXCL claim files in
// the artifact directory, so any number of workers — on any machines,
// at any speeds, joining late or dying mid-case — drain the plan
// cooperatively when pointed at one directory (a dead worker's claim
// expires by mtime lease and is re-stolen). -shard-index/-shard-count
// filter which cases a run takes (index ≡ i mod n): disjoint and
// exhaustive for any count, for fleets whose workers cannot share a
// directory. Artifacts are written atomically, and re-running skips
// every case whose artifact already exists. -budget stops a worker from
// claiming new cases once its wall clock is spent (in-flight cases
// finish; exit 4 signals CI to resume later). Cases are claimed
// longest-expected-first by the harness cost model. SIGINT or SIGTERM
// ends a run cleanly: in-flight cases are abandoned unpersisted, claims
// are released, and the run exits 130. retry deletes failed artifacts
// and recomputes exactly those cases. merge prints each suite through
// exp.RenderSuite, the renderer cmd/fallbench uses, so its output is
// byte-identical to a monolithic cmd/fallbench run over the same
// measurements, however the fleet split the work. merge -rescore
// recomputes each artifact's Solved/Equivalent verdicts from its
// persisted key shortlist through the harness's scoring rule,
// exp.ScoreShortlist (planted-key membership, then the equivalence
// miter), and rewrites changed artifacts — no attack re-runs.
//
// Exit codes: 0 success (or -h); 1 usage or hard error (stderr
// explains); 2 completed with failed cases; 3 (status/merge
// -allow-partial) campaign incomplete, so a script follows a fleet by
// polling status while it exits 3; 4 (run -budget) budget exhausted
// with cases remaining — re-run to resume; 130 (run, retry)
// interrupted by SIGINT or SIGTERM.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/genbench"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(1)
	}
	args := os.Args[2:]
	switch os.Args[1] {
	case "plan":
		cmdPlan(args)
	case "run":
		cmdRun(args)
	case "retry":
		cmdRetry(args)
	case "merge":
		cmdMerge(args)
	case "status":
		cmdStatus(args)
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "campaign: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: campaign <plan|run|retry|merge|status> [flags]

  plan    enumerate a campaign's cases into DIR/plan.json
  run     claim and run the plan's cases (or one static shard's),
          writing one artifact per completed case
  retry   delete failed artifacts and recompute exactly those cases
  merge   reassemble artifacts into the Table I / Fig. 5 / Fig. 6 /
          summary reports (byte-identical to a monolithic run)
  status  show per-suite completion counts

run 'campaign <subcommand> -h' for flags.
`)
}

// parseFlags parses a subcommand's flags: -h exits 0 after the usage,
// a bad flag exits 1 after the error, never 2, which means "completed
// with failed cases".
func parseFlags(fs *flag.FlagSet, args []string) {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		os.Exit(1)
	}
}

// fatalf prints the message with one "campaign: " prefix (errors from
// internal/campaign already carry it) and exits 1.
func fatalf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if !strings.HasPrefix(msg, "campaign: ") {
		msg = "campaign: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}

// dirFlags returns the common -dir/-artifacts flag pair on fs.
func dirFlags(fs *flag.FlagSet) (dir, artifacts *string) {
	dir = fs.String("dir", "", "campaign directory (holds plan.json)")
	artifacts = fs.String("artifacts", "", "artifact directories, comma-separated (default DIR/artifacts)")
	return
}

func artifactDirs(dir, artifacts string) []string {
	if artifacts == "" {
		return []string{filepath.Join(dir, campaign.DefaultArtifactDir)}
	}
	return strings.Split(artifacts, ",")
}

func loadPlan(dir string) *campaign.Plan {
	if dir == "" {
		fatalf("need -dir DIR")
	}
	p, err := campaign.ReadPlan(filepath.Join(dir, campaign.PlanFileName))
	if err != nil {
		fatalf("%v", err)
	}
	return p
}

func cmdPlan(args []string) {
	fs := flag.NewFlagSet("campaign plan", flag.ContinueOnError)
	dir := fs.String("dir", "", "campaign directory to create the plan in")
	scale := fs.String("scale", "small", "experiment scale: paper | medium | small | tiny")
	seed := fs.Int64("seed", 2019, "base seed")
	timeout := fs.Duration("timeout", 5*time.Second, "per-attack time budget")
	iterCap := fs.Int("satcap", 500, "SAT attack iteration cap (0 = none)")
	enc := fs.String("enc", "adder", "cardinality encoding: adder | seq")
	solver := fs.String("solver", "", "solver engine spec for every attack and scoring miter (empty = baseline CDCL)")
	memoDir := fs.String("memo-dir", "", "record a persistent verdict-store directory in the plan: every shard run attaches the on-disk memo there (verdicts unchanged)")
	suites := fs.String("suites", strings.Join(campaign.DefaultSuites(), ","), "report suites, comma-separated")
	force := fs.Bool("force", false, "overwrite an existing, different plan")
	parseFlags(fs, args)
	if *dir == "" {
		fatalf("need -dir DIR")
	}

	cfg := campaign.Config{
		Seed:       *seed,
		Timeout:    *timeout,
		SATIterCap: *iterCap,
		Enc:        *enc,
		Solver:     *solver,
		MemoDir:    *memoDir,
		Suites:     strings.Split(*suites, ","),
	}
	var err error
	if cfg.Specs, err = genbench.ParseScale(*scale); err != nil {
		fatalf("%v", err)
	}
	p, err := campaign.NewPlan(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	path := filepath.Join(*dir, campaign.PlanFileName)
	if _, statErr := os.Stat(path); statErr == nil {
		// Never clobber an existing plan without -force: its artifacts
		// may still be in flight, and a corrupt or foreign plan file is
		// more reason for a human look, not less.
		old, readErr := campaign.ReadPlan(path)
		switch {
		case readErr == nil && old.Hash == p.Hash:
			fmt.Fprintf(os.Stderr, "campaign: plan unchanged (%d cases, hash %.12s…)\n", len(p.Cases), p.Hash)
			return
		case *force:
		case readErr != nil:
			fatalf("%s exists but is unreadable (%v); pass -force to replace it", path, readErr)
		default:
			fatalf("%s exists with a different plan (hash %.12s…, new %.12s…); pass -force to replace it", path, old.Hash, p.Hash)
		}
	}
	if err := campaign.WritePlan(path, p); err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "campaign: planned %d cases into %s (hash %.12s…)\n", len(p.Cases), path, p.Hash)
}

// shardFlags collects the flags shared by run and retry.
type shardFlags struct {
	shardIndex, shardCount, workers *int
	quiet                           *bool
	trace, owner, solverOver        *string
	memo                            *attack.MemoFlags
	lease, budget                   *time.Duration
}

// runFlags declares the flags shared by run and retry on fs.
func runFlags(fs *flag.FlagSet) shardFlags {
	return shardFlags{
		shardIndex: fs.Int("shard-index", 0, "take only the cases with index ≡ shard-index (mod shard-count)"),
		shardCount: fs.Int("shard-count", 1, "total number of shards (1 = the whole plan)"),
		workers:    fs.Int("workers", runtime.GOMAXPROCS(0), "cases run concurrently (1 = serial)"),
		quiet:      fs.Bool("quiet", false, "suppress per-case progress lines"),
		owner:      fs.String("owner", "", "worker identity for claim files and budget markers (default host-pid)"),
		lease:      fs.Duration("lease", 0, "claim staleness horizon: an unheartbeated claim older than this is re-stolen (0 = 2m)"),
		budget:     fs.Duration("budget", 0, "wall-clock budget: stop claiming new cases after this long, finish in-flight ones, exit 4 if cases remain (0 = none)"),
		solverOver: fs.String("solver-override", "", "replace the plan's solver engine spec for this worker only (heterogeneous fleets; must be verdict-equivalent to the plan's engine)"),
		memo:       attack.RegisterMemoFlags(fs),
		trace:      fs.String("trace", "", "write an NDJSON span trace of the run to FILE (analyze one or many with tracestat)"),
	}
}

func runShard(name string, args []string, retry bool) {
	fs := flag.NewFlagSet("campaign "+name, flag.ContinueOnError)
	dir, artifacts := dirFlags(fs)
	f := runFlags(fs)
	parseFlags(fs, args)
	if *f.shardCount == 0 {
		*f.shardCount = 1 // as campaign.Run reads it
	}
	p := loadPlan(*dir)
	dirs := artifactDirs(*dir, *artifacts)
	if len(dirs) != 1 {
		fatalf("%s writes to exactly one artifact directory, got %d", name, len(dirs))
	}
	if retry {
		// Delete only the failures this run will recompute: its shard's
		// (deleting plan-wide would orphan other shards' cases).
		idxs, err := p.ShardIndices(*f.shardIndex, *f.shardCount)
		if err != nil {
			fatalf("%v", err)
		}
		deleted, err := campaign.DeleteFailed(p, dirs[0], idxs)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "campaign: retry: deleted %d failed artifact(s)\n", len(deleted))
	}
	opts := campaign.RunOptions{
		ShardIndex:     *f.shardIndex,
		ShardCount:     *f.shardCount,
		Workers:        *f.workers,
		Memo:           f.memo.Enabled,
		MemoDir:        f.memo.Dir,
		MemoMaxBytes:   f.memo.MaxBytes,
		Trace:          *f.trace,
		Owner:          *f.owner,
		Lease:          *f.lease,
		Budget:         *f.budget,
		SolverOverride: *f.solverOver,
	}
	if !*f.quiet {
		opts.Log = os.Stderr
	}
	// An interrupt cancels the run: in-flight cases are abandoned
	// unpersisted and every claim is released, so peers and re-runs
	// take the cases at once instead of waiting out a lease.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	report, err := campaign.Run(ctx, p, dirs[0], opts)
	interrupted := err != nil && ctx.Err() != nil && report != nil
	if err != nil && !interrupted {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "campaign: shard %d/%d: %d cases, %d already done, %d run (%d stolen), %d failed, %d remaining\n",
		*f.shardIndex, *f.shardCount, report.ShardCases, report.Skipped, report.Ran, report.Stolen, report.Failed, report.Remaining)
	switch {
	case interrupted:
		fmt.Fprintln(os.Stderr, "campaign: interrupted; re-run to resume")
		os.Exit(130)
	case report.BudgetStopped:
		fmt.Fprintf(os.Stderr, "campaign: budget exhausted with %d case(s) remaining; re-run to resume\n", report.Remaining)
		os.Exit(4)
	case report.Failed > 0:
		os.Exit(2)
	}
}

func cmdRun(args []string) { runShard("run", args, false) }

// cmdRetry deletes this plan's failed artifacts and recomputes exactly
// those cases (resume semantics keep every healthy artifact untouched).
func cmdRetry(args []string) { runShard("retry", args, true) }

func cmdMerge(args []string) {
	fs := flag.NewFlagSet("campaign merge", flag.ContinueOnError)
	dir, artifacts := dirFlags(fs)
	allowPartial := fs.Bool("allow-partial", false, "render even if some cases have no artifact yet")
	rescore := fs.Bool("rescore", false, "recompute Solved/Equivalent verdicts from each artifact's persisted key shortlist (planted-key membership, then the equivalence miter) and rewrite changed artifacts before rendering — no attack re-runs")
	parseFlags(fs, args)
	p := loadPlan(*dir)
	m, err := campaign.Merge(p, artifactDirs(*dir, *artifacts))
	if err != nil {
		fatalf("%v", err)
	}
	if !m.Complete() && !*allowPartial {
		fatalf("campaign incomplete: %d/%d cases have no artifact (first: %s); finish the shards or pass -allow-partial",
			len(m.Missing), len(p.Cases), m.Missing[0])
	}
	if *rescore {
		rep, err := m.Rescore(context.Background())
		if err != nil {
			fatalf("rescore: %v", err)
		}
		fmt.Fprintf(os.Stderr, "campaign: rescore: %d artifact(s) scanned, %d outcome(s) re-scored, %d changed, %d miter key(s)\n",
			rep.Scanned, rep.Rescored, rep.Changed, rep.Miters)
	}
	if err := m.Render(os.Stdout); err != nil {
		fatalf("%v", err)
	}
	if st := m.MemoStats(); st != nil {
		attack.FprintMemoSummary(os.Stderr, nil, *st, -1)
	}
	switch {
	case len(m.Failed) > 0:
		fmt.Fprintf(os.Stderr, "campaign: %d case(s) failed (first: %s)\n", len(m.Failed), m.Failed[0])
		os.Exit(2)
	case !m.Complete():
		fmt.Fprintf(os.Stderr, "campaign: partial merge: %d case(s) missing\n", len(m.Missing))
		os.Exit(3)
	}
}

func cmdStatus(args []string) {
	fs := flag.NewFlagSet("campaign status", flag.ContinueOnError)
	dir, artifacts := dirFlags(fs)
	parseFlags(fs, args)
	p := loadPlan(*dir)
	s, err := campaign.Status(p, artifactDirs(*dir, *artifacts))
	if err != nil {
		fatalf("%v", err)
	}
	s.Render(os.Stdout)
	switch {
	case s.Failed > 0:
		os.Exit(2)
	case !s.Complete():
		os.Exit(3)
	}
}
