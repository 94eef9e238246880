// Command fallbench regenerates the paper's evaluation artifacts:
//
//	fallbench -table1                 # Table I: benchmark statistics
//	fallbench -fig5 hd0|h8|h4|h3      # Fig. 5 panels: cactus series
//	fallbench -fig6                   # Fig. 6: key confirmation vs SAT attack
//	fallbench -summary                # §VI-B: defeated / unique-key stats
//
// Scale control:
//
//	-scale paper   full Table I dimensions (keys up to 64)
//	-scale small   1/8 gate counts, keys capped at 16 (default)
//	-scale tiny    1/16 gate counts, keys capped at 12, 6 circuits
//	-timeout 5s    per-attack budget (paper: 1000 s)
//	-workers N     suite cases run concurrently (default: all cores;
//	               output is identical for every worker count)
//	-solver SPEC   solver engine spec: an internal config
//	               (seed=3,restart=geometric) or an external DIMACS
//	               solver (kissat, process:cmd=/path)
//	-portfolio P   race engines per solver query: an integer N is
//	               shorthand for N internal variants of -solver, a list
//	               (internal,kissat) races heterogeneous backends;
//	               decided verdicts are identical for every mix
//	-learn-from F  reorder/prune the raced engines (two or more) from a
//	               prior run's portfolio-stats file before racing
//	-adapt-after N retire a raced engine mid-run once it has lost N
//	               races without a win
//	-stats-out F   persist the aggregated per-engine win statistics as
//	               JSON (feeds -learn-from of a later run)
//	-memo          share a cross-query verdict cache across every attack
//	               and scoring miter (verdicts unchanged; hit statistics
//	               and per-case encode/solve splits land on stderr)
//	-memo-dir D    persist the verdict cache in D (implies -memo): reruns
//	               and concurrent shards pointed at the same directory
//	               answer repeated queries from disk; verdicts unchanged
//	-memo-max-bytes N  size cap for the on-disk cache before
//	               least-recently-used records are evicted (0 = 1 GiB)
//	-trace F       write an NDJSON span trace of the whole suite to F
//	               (stdout unchanged; analyze with cmd/tracestat)
//
// Each requested suite runs as exp.SuiteUnits → exp.RunUnits →
// exp.RenderSuite and prints as soon as it finishes, in the order
// table1, fig5, fig6, summary. Results go to stdout, diagnostics —
// per-case encode/solve splits, the aggregated per-engine portfolio win
// statistics and the memo summary — to stderr, so racing runs diff
// clean against single-engine runs. The exit code is 0 on success, 1 on
// a usage or hard error, and 2 when some attack runs failed (their rows
// are still printed). To split a run across machines, use cmd/campaign
// with the same flags: campaign merge prints through the same
// exp.RenderSuite, so a merged campaign is byte-identical to this
// command's output.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/attack"
	"repro/internal/cnf"
	"repro/internal/exp"
	"repro/internal/genbench"
	"repro/internal/sat"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes the command line args, writing to stdout and stderr, and
// returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fallbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table1     = fs.Bool("table1", false, "regenerate Table I")
		fig5       = fs.String("fig5", "", "regenerate a Fig. 5 panel: hd0 | h8 | h4 | h3")
		fig6       = fs.Bool("fig6", false, "regenerate Fig. 6")
		summary    = fs.Bool("summary", false, "regenerate the §VI-B summary statistics")
		scale      = fs.String("scale", "small", "experiment scale: paper | medium | small | tiny")
		timeout    = fs.Duration("timeout", 5*time.Second, "per-attack time budget")
		iterCap    = fs.Int("satcap", 500, "SAT attack iteration cap (0 = none)")
		seed       = fs.Int64("seed", 2019, "base seed")
		enc        = fs.String("enc", "adder", "cardinality encoding: adder | seq")
		workers    = fs.Int("workers", runtime.GOMAXPROCS(0), "suite cases run concurrently (1 = serial; output is identical either way)")
		learnFrom  = fs.String("learn-from", "", "portfolio-stats JSON from a prior run; reorders/prunes the engine list before racing")
		adaptAfter = fs.Int64("adapt-after", 0, "retire an engine mid-run after it loses this many races without a win (0 = never)")
		statsOut   = fs.String("stats-out", "", "write the aggregated per-engine win statistics to this JSON file")
		sf         = attack.RegisterFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "fallbench: "+format+"\n", a...)
		return 1
	}

	cfg := exp.Config{Seed: *seed, Timeout: *timeout, SATIterCap: *iterCap, Workers: *workers}
	var err error
	if cfg.Specs, err = genbench.ParseScale(*scale); err != nil {
		return fail("%v", err)
	}
	if cfg.Enc, err = cnf.ParseCardEncoding(*enc); err != nil {
		return fail("%v", err)
	}
	var suites []string
	if *table1 {
		suites = append(suites, "table1")
	}
	if *fig5 != "" {
		if _, err := exp.ParseHLevel(*fig5); err != nil {
			return fail("unknown fig5 panel %q", *fig5)
		}
		suites = append(suites, "fig5:"+*fig5)
	}
	if *fig6 {
		suites = append(suites, "fig6")
	}
	if *summary {
		suites = append(suites, "summary")
	}
	if len(suites) == 0 {
		fs.Usage()
		return 1
	}
	units := make([][]exp.Unit, len(suites))
	for i, suite := range suites {
		if units[i], err = exp.SuiteUnits(cfg, suite); err != nil {
			return fail("%v", err)
		}
	}

	// Start opens the trace; from here on every return path closes it.
	if err := sf.Start("fallbench", "scale", *scale, "seed", *seed); err != nil {
		return fail("%v", err)
	}
	defer sf.EndTrace(stderr)
	cfg.Engines, cfg.Memo, cfg.Trace, cfg.AdaptAfter = sf.Specs, sf.Memo, sf.Root, *adaptAfter
	if *adaptAfter > 0 || *learnFrom != "" {
		if len(cfg.Engines) < 2 {
			return fail("-adapt-after/-learn-from need a -portfolio of at least two engines")
		}
		if *learnFrom != "" {
			prior, err := sat.ReadStatsFile(*learnFrom)
			if err != nil {
				return fail("learn-from: %v", err)
			}
			cfg.Engines = sat.LearnedConfigs(cfg.Engines, prior, *adaptAfter)
		}
		if *adaptAfter > 0 {
			cfg.Adapt = sat.NewLedgerLabels(sat.EngineLabels(cfg.Engines))
		}
	}

	// Build the locked suite once; every requested report shares it.
	cases, err := exp.BuildSuite(cfg)
	if err != nil {
		return fail("suite: %v", err)
	}
	var all []exp.UnitResult
	for i, suite := range suites {
		results, err := exp.RunUnits(context.Background(), cases, units[i], cfg)
		if err != nil {
			return fail("%s: %v", suite, err)
		}
		if err := exp.RenderSuite(stdout, suite, results); err != nil {
			return fail("%s: %v", suite, err)
		}
		all = append(all, results...)
	}

	// Per-case encode/solve wall-time split (recorded whenever a solver
	// setup exists): solve is the time spent inside the SAT engines, the
	// remainder is encoding and attack bookkeeping. Stderr like every
	// diagnostic, so stdout diffs stay clean.
	printSplit := func(label string, total time.Duration, solveNS int64) {
		if solveNS <= 0 {
			return
		}
		encode := max(total-time.Duration(solveNS), 0)
		fmt.Fprintf(stderr, "case %-32s encode=%-12v solve=%v\n",
			label, encode.Round(time.Microsecond), time.Duration(solveNS).Round(time.Microsecond))
	}
	failed := 0
	for _, r := range all {
		if r.Failed() {
			failed++
		}
		if o := r.Outcome; o != nil {
			printSplit(fmt.Sprintf("%s/%s/%s", o.Circuit, o.Level.Token(), o.Attack), o.Time, o.SolveNS)
		}
		if f := r.Fig6; f != nil {
			printSplit(fmt.Sprintf("%s/%s/keyconfirm", f.Circuit, f.Level.Token()), f.KCElapsed, f.KCSolveNS)
			printSplit(fmt.Sprintf("%s/%s/%s", f.SA.Circuit, f.SA.Level.Token(), f.SA.Attack), f.SA.Time, f.SA.SolveNS)
		}
	}
	// Racing statistics go to stderr: stdout must stay verdict-only so
	// portfolio runs diff byte-identical against single-engine runs.
	if stats := exp.WinStats(all); len(stats) > 0 {
		attack.FprintStats(stderr, stats)
		if *statsOut != "" {
			if err := sat.WriteStatsFile(*statsOut, stats); err != nil {
				return fail("stats-out: %v", err)
			}
		}
	}
	if cfg.Memo != nil {
		st := exp.MemoStats(all)
		if st == nil { // no unit queried a solver (-table1 alone)
			st = &sat.MemoStats{}
		}
		attack.FprintMemoSummary(stderr, cfg.Memo, *st, cfg.Memo.Len())
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "fallbench: %d attack run(s) failed\n", failed)
		return 2
	}
	return 0
}
