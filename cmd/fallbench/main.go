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
// Results go to stdout, diagnostics — including the aggregated
// per-engine portfolio win statistics — to stderr, so racing runs diff
// clean against single-engine runs. The exit code is 0 on success, 1 on
// a hard error, and 2 when some attack runs failed (their rows are
// still printed). To split a run across machines, use cmd/campaign with
// the same flags — a merged campaign renders byte-identical output to
// this command.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/attack"
	"repro/internal/cnf"
	"repro/internal/exp"
	"repro/internal/genbench"
	"repro/internal/sat"
)

func main() {
	var (
		table1     = flag.Bool("table1", false, "regenerate Table I")
		fig5       = flag.String("fig5", "", "regenerate a Fig. 5 panel: hd0 | h8 | h4 | h3")
		fig6       = flag.Bool("fig6", false, "regenerate Fig. 6")
		summary    = flag.Bool("summary", false, "regenerate the §VI-B summary statistics")
		scale      = flag.String("scale", "small", "experiment scale: paper | medium | small | tiny")
		timeout    = flag.Duration("timeout", 5*time.Second, "per-attack time budget")
		iterCap    = flag.Int("satcap", 500, "SAT attack iteration cap (0 = none)")
		seed       = flag.Int64("seed", 2019, "base seed")
		enc        = flag.String("enc", "adder", "cardinality encoding: adder | seq")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "suite cases run concurrently (1 = serial; output is identical either way)")
		learnFrom  = flag.String("learn-from", "", "portfolio-stats JSON from a prior run; reorders/prunes the engine list before racing")
		adaptAfter = flag.Int64("adapt-after", 0, "retire an engine mid-run after it loses this many races without a win (0 = never)")
		statsOut   = flag.String("stats-out", "", "write the aggregated per-engine win statistics to this JSON file")
		sf         = attack.RegisterFlags(flag.CommandLine)
	)
	flag.Parse()

	cfg := exp.Config{Seed: *seed, Timeout: *timeout, SATIterCap: *iterCap, Workers: *workers}
	var err error
	if cfg.Specs, err = genbench.ParseScale(*scale); err != nil {
		fatalf("%v", err)
	}
	if cfg.Enc, err = cnf.ParseCardEncoding(*enc); err != nil {
		fatalf("%v", err)
	}
	if err := sf.Start("fallbench", "scale", *scale, "seed", *seed); err != nil {
		fatalf("%v", err)
	}
	cfg.Engines, cfg.Memo, cfg.Trace, cfg.AdaptAfter = sf.Specs, sf.Memo, sf.Root, *adaptAfter
	if *adaptAfter > 0 || *learnFrom != "" {
		if len(cfg.Engines) < 2 {
			fatalf("-adapt-after/-learn-from need a -portfolio of at least two engines")
		}
		if *learnFrom != "" {
			prior, err := sat.ReadStatsFile(*learnFrom)
			if err != nil {
				fatalf("learn-from: %v", err)
			}
			cfg.Engines = sat.LearnedConfigs(cfg.Engines, prior, *adaptAfter)
		}
		if *adaptAfter > 0 {
			cfg.Adapt = sat.NewLedgerLabels(sat.EngineLabels(cfg.Engines))
		}
	}

	var level exp.HLevel
	if *fig5 != "" {
		if level, err = exp.ParseHLevel(*fig5); err != nil {
			fatalf("unknown fig5 panel %q", *fig5)
		}
	}
	if !*table1 && *fig5 == "" && !*fig6 && !*summary {
		flag.Usage()
		os.Exit(1)
	}

	// Build the locked suite once; every requested report shares it.
	ctx := context.Background()
	cases, err := exp.BuildSuite(cfg)
	if err != nil {
		fatalf("suite: %v", err)
	}

	failed := 0
	var allOuts []exp.Outcome
	var allFigs []exp.Fig6CaseResult
	if *table1 {
		rows, err := exp.Table1FromCases(cases, cfg)
		if err != nil {
			fatalf("table1: %v", err)
		}
		fmt.Println("=== Table I (regenerated) ===")
		fmt.Print(exp.FormatTable1(rows))
	}
	if *fig5 != "" {
		fmt.Printf("=== Fig. 5 panel %s (%s) ===\n", *fig5, level.Label())
		outs := exp.Fig5Panel(ctx, cases, level, cfg)
		for _, o := range outs {
			if o.Failed {
				failed++
			}
		}
		allOuts = append(allOuts, outs...)
		fmt.Print(exp.FormatCactus(outs, exp.Fig5AttackNames(level)))
	}
	if *fig6 {
		fmt.Println("=== Fig. 6: key confirmation vs SAT attack ===")
		results := exp.Fig6Results(ctx, cases, cfg)
		for _, r := range results {
			if r.Failed() {
				failed++
			}
		}
		allFigs = append(allFigs, results...)
		fmt.Print(exp.FormatFig6(exp.AggregateFig6(results)))
	}
	if *summary {
		fmt.Println("=== §VI-B summary ===")
		outs := exp.SummaryOutcomes(ctx, cases, cfg)
		s := exp.AggregateSummary(outs)
		failed += s.Failed
		allOuts = append(allOuts, outs...)
		fmt.Print(exp.FormatSummary(s))
	}
	// Per-case encode/solve wall-time split (recorded whenever a solver
	// setup exists): solve is the time spent inside the SAT engines, the
	// remainder is encoding and attack bookkeeping. Stderr like every
	// diagnostic, so stdout diffs stay clean.
	printSplit := func(label string, total time.Duration, solveNS int64) {
		if solveNS <= 0 {
			return
		}
		encode := total - time.Duration(solveNS)
		if encode < 0 {
			encode = 0
		}
		fmt.Fprintf(os.Stderr, "case %-32s encode=%-12v solve=%v\n",
			label, encode.Round(time.Microsecond), time.Duration(solveNS).Round(time.Microsecond))
	}
	for _, o := range allOuts {
		printSplit(fmt.Sprintf("%s/%s/%s", o.Circuit, o.Level.Token(), o.Attack), o.Time, o.SolveNS)
	}
	for i := range allFigs {
		r := &allFigs[i]
		printSplit(fmt.Sprintf("%s/%s/keyconfirm", r.Circuit, r.Level.Token()), r.KCElapsed, r.KCSolveNS)
		printSplit(fmt.Sprintf("%s/%s/%s", r.SA.Circuit, r.SA.Level.Token(), r.SA.Attack), r.SA.Time, r.SA.SolveNS)
	}
	// Racing statistics go to stderr: stdout must stay verdict-only so
	// portfolio runs diff byte-identical against single-engine runs.
	if stats := exp.WinStats(allOuts, allFigs); len(stats) > 0 {
		attack.FprintStats(os.Stderr, stats)
		if *statsOut != "" {
			if err := sat.WriteStatsFile(*statsOut, stats); err != nil {
				fatalf("stats-out: %v", err)
			}
		}
	}
	if cfg.Memo != nil {
		attack.FprintMemoSummary(os.Stderr, cfg.Memo, cfg.Memo.Stats(), cfg.Memo.Len())
	}
	// Closed before the failure exit path (os.Exit skips defers).
	sf.EndTrace(os.Stderr)
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "fallbench: %d attack run(s) failed\n", failed)
		os.Exit(2)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fallbench: "+format+"\n", args...)
	os.Exit(1)
}
