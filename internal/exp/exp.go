// Package exp is the experiment harness reproducing the paper's
// evaluation (§VI): Table I (benchmark statistics), Figure 5 (cactus plots
// of circuit-analysis attacks vs the SAT attack across SFLL-HD
// configurations), Figure 6 (key confirmation vs SAT attack runtimes) and
// the §VI-B summary statistics (circuits defeated, unique-key rate).
//
// Every experiment is deterministic given Config.Seed. The harness runs at
// any scale: the paper's full Table I dimensions or reduced ("scaled")
// dimensions for quick regression runs (genbench.ParseScale).
package exp

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/attack"
	_ "repro/internal/attack/all" // register every attack
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/fall"
	"repro/internal/genbench"
	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/sat"
)

// HLevel identifies the four locking configurations evaluated in Fig. 5.
type HLevel int

// The paper's four SFLL-HD configurations: h = 0 (TTLock) and h equal to
// m/8, m/4 and m/3 (floor division) for key size m.
const (
	HD0 HLevel = iota
	HM8
	HM4
	HM3
)

// Levels lists all four locking configurations in paper order.
var Levels = []HLevel{HD0, HM8, HM4, HM3}

// Label returns the paper's name for the configuration.
func (l HLevel) Label() string {
	switch l {
	case HD0:
		return "SFLL-HD0"
	case HM8:
		return "h=m/8"
	case HM4:
		return "h=m/4"
	default:
		return "h=m/3"
	}
}

// Value returns the Hamming distance h for key size m. Every level but
// HD0 locks at h >= 1, so a key too short for its fraction gets h = 1.
func (l HLevel) Value(m int) int {
	var h int
	switch l {
	case HD0:
		return 0
	case HM8:
		h = m / 8
	case HM4:
		h = m / 4
	default:
		h = m / 3
	}
	return max(h, 1)
}

// Token returns the short stable name for the configuration, used in
// CLI flags, case IDs and serialized plans: hd0, h8, h4, h3.
func (l HLevel) Token() string {
	switch l {
	case HD0:
		return "hd0"
	case HM8:
		return "h8"
	case HM4:
		return "h4"
	default:
		return "h3"
	}
}

// ParseHLevel inverts Token.
func ParseHLevel(tok string) (HLevel, error) {
	switch tok {
	case "hd0":
		return HD0, nil
	case "h8":
		return HM8, nil
	case "h4":
		return HM4, nil
	case "h3":
		return HM3, nil
	}
	return HD0, fmt.Errorf("exp: unknown h level %q (want hd0, h8, h4 or h3)", tok)
}

// MarshalText serializes the level as its Token, keeping artifacts
// readable and independent of the enum's numeric values.
func (l HLevel) MarshalText() ([]byte, error) { return []byte(l.Token()), nil }

// UnmarshalText parses a Token produced by MarshalText.
func (l *HLevel) UnmarshalText(b []byte) error {
	v, err := ParseHLevel(string(b))
	if err != nil {
		return err
	}
	*l = v
	return nil
}

// Config parameterizes an experiment run.
type Config struct {
	// Specs selects the benchmark circuits (typically genbench.TableI or
	// a Scaled copy).
	Specs []genbench.Spec
	// Seed drives circuit generation and locking.
	Seed int64
	// Timeout bounds each individual attack run (the paper used 1000 s).
	Timeout time.Duration
	// Enc selects the Hamming-distance cardinality encoding.
	Enc cnf.CardEncoding
	// SATIterCap additionally bounds SAT attack / key confirmation
	// iterations (0 = unlimited); useful at small scale where a single
	// iteration is fast but convergence needs 2^m of them.
	SATIterCap int
	// Workers bounds how many suite cases (locking jobs, attack runs)
	// execute concurrently; <= 0 means runtime.GOMAXPROCS(0). Output
	// ordering and all measured verdicts are identical for every worker
	// count: each case derives its own seed and runs its attacks with
	// intra-attack parallelism pinned to 1, and results merge in case
	// order.
	Workers int
	// Engine is the engine behind every attack query and scoring miter
	// (sat.ParseEngineSpec); the zero value, like any spelling of the
	// default spec, selects the baseline engine.
	Engine sat.EngineSpec
	// Memo is the runtime-only cross-query verdict cache shared by every
	// solver the run builds (sat.NewMemo); nil disables memoization.
	// Attaching a memo forces a solver setup even for otherwise-default
	// configs, so memoized outcomes carry solve-time and hit/miss fields
	// (verdicts and keys are unchanged — the memo replays query history
	// on misses). Like Workers it is never serialized.
	Memo *sat.Memo
	// Trace is the runtime-only parent span of the run: each unit gets
	// a child span carried through its context into the grid cells,
	// query families, and individual solver queries. Like Memo,
	// attaching a trace forces a solver setup even for
	// otherwise-default configs (verdicts unchanged; traces go to
	// their own sink, never stdout). Never serialized.
	Trace *obs.Span
}

// solverSetup derives the per-run solver setup (attack.NewSolverSetup).
// Each attack run gets a fresh setup, so its recorded solve time and
// memo counters describe that run alone; a fully-default config returns
// nil, so default outcomes carry no solver fields.
func (cfg Config) solverSetup() *attack.SolverSetup {
	return attack.NewSolverSetup(cfg.Engine, cfg.Memo, cfg.Trace != nil)
}

// workers resolves the effective harness pool size.
func (cfg Config) workers() int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// forEachIndexed distributes fn(0..n-1) over the shared bounded pool
// (attack.ForEachIndexed); harness loops always run every index, and fn
// writes its result into caller-owned slices at its index so output
// order never depends on scheduling.
func forEachIndexed(workers, n int, fn func(i int)) {
	attack.ForEachIndexed(workers, n, func(i int) bool {
		fn(i)
		return true
	})
}

// Case is one locked benchmark instance (circuit × h configuration).
type Case struct {
	Spec  genbench.Spec
	Level HLevel
	H     int
	Orig  *circuit.Circuit
	Lock  *lock.Result
	// Seed is the case's derived seed, used by every attack run on this
	// case (key validation sampling, randomized attack components). It
	// depends only on the case identity, never on run order, so
	// concurrent harness runs stay deterministic.
	Seed int64
}

// CaseSeed returns the build seed of the spec at index specIdx of a
// suite whose base seed is base. It depends only on the spec's
// position, never on run order, so every harness, plan and campaign
// worker builds the same circuits.
func CaseSeed(base int64, specIdx int) int64 { return base + int64(specIdx)*1009 }

// BuildCase generates and locks one benchmark instance.
func BuildCase(spec genbench.Spec, level HLevel, seed int64) (*Case, error) {
	orig, err := genbench.Generate(spec, seed)
	if err != nil {
		return nil, err
	}
	h := level.Value(spec.Keys)
	lr, err := lock.SFLLHD(orig, lock.Options{
		KeySize: spec.Keys, H: h, Seed: seed + int64(level)*7 + 1, Optimize: true,
	})
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", spec.Name, level.Label(), err)
	}
	return &Case{Spec: spec, Level: level, H: h, Orig: orig, Lock: lr, Seed: seed + int64(level)*7 + 1}, nil
}

// BuildSuite locks every spec at every level: the paper's 80 circuits for
// the 20 Table I specs. Cases build concurrently on cfg.Workers
// goroutines (generation and locking are pure functions of the derived
// per-case seed) and are returned in spec × level order regardless of
// the worker count.
func BuildSuite(cfg Config) ([]*Case, error) {
	type job struct {
		spec  genbench.Spec
		level HLevel
		seed  int64
	}
	var jobs []job
	for i, spec := range cfg.Specs {
		for _, level := range Levels {
			jobs = append(jobs, job{spec, level, CaseSeed(cfg.Seed, i)})
		}
	}
	cases := make([]*Case, len(jobs))
	errs := make([]error, len(jobs))
	forEachIndexed(cfg.workers(), len(jobs), func(i int) {
		cases[i], errs[i] = BuildCase(jobs[i].spec, jobs[i].level, jobs[i].seed)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return cases, nil
}

// Table1Row is one row of the regenerated Table I. It serializes to
// JSON as a campaign artifact.
type Table1Row struct {
	Name      string `json:"name"`
	In        int    `json:"in"`
	Out       int    `json:"out"`
	Keys      int    `json:"keys"`
	GatesOrig int    `json:"gates_orig"`
	// GatesMin/GatesMax range over the four SFLL configurations.
	GatesMin int `json:"gates_min"`
	GatesMax int `json:"gates_max"`
}

// FormatTable1 renders rows in the layout of the paper's Table I.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %5s %5s %6s %9s %9s %9s\n", "ckt", "#in", "#out", "#keys", "orig", "SFLLmin", "SFLLmax")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %5d %5d %6d %9d %9d %9d\n",
			r.Name, r.In, r.Out, r.Keys, r.GatesOrig, r.GatesMin, r.GatesMax)
	}
	return b.String()
}

// Outcome is one attack run on one locked instance. It serializes to
// JSON (campaign artifacts) with the level as its token and durations in
// nanoseconds.
type Outcome struct {
	Circuit string `json:"circuit"`
	Level   HLevel `json:"level"`
	Attack  string `json:"attack"`
	// Solved reports a correct key recovered: some shortlisted key is
	// I/O-equivalent to the original circuit (== Equivalent).
	Solved bool `json:"solved"`
	// PlantedKeyMatch is the legacy criterion — the planted key appears
	// verbatim in the shortlist. Kept alongside Equivalent because the
	// two can genuinely disagree (Hu et al. 2024): a distinct key may
	// still unlock the circuit.
	PlantedKeyMatch bool `json:"planted_key_match"`
	// Equivalent reports that some shortlisted key was proved
	// I/O-equivalent to the oracle circuit by a SAT miter
	// (attack.KeyEquivalent).
	Equivalent bool `json:"equivalent"`
	Unique     bool `json:"unique"` // FALL attacks: exactly one key shortlisted
	NumKeys    int  `json:"num_keys"`
	// Keys carries the recovered shortlist so artifacts can be
	// re-scored after the fact without re-running the attack.
	Keys     []attack.Key `json:"keys,omitempty"`
	TimedOut bool         `json:"timed_out"`
	// Failed reports a hard attack error (malformed target, solver
	// failure), distinct from TimedOut: failed runs carry no timing, are
	// never censored at the timeout, and never enter cactus series or
	// Fig. 6 means.
	Failed bool          `json:"failed"`
	Time   time.Duration `json:"time_ns"`
	// SolverConfig records a non-default solver setup the run used
	// (attack.SolverSetup.Label form); empty for the baseline single
	// engine, so default artifacts stay byte-identical to older ones.
	SolverConfig string `json:"solver_config,omitempty"`
	// SolveNS is the cumulative wall time (ns) the run's engines spent
	// inside Solve/SolveAssuming — the solve share of Time, the rest
	// being encoding and bookkeeping. Recorded only when a solver setup
	// exists (solver flags or memoization); a timing diagnostic like
	// conflict counts, never a verdict input.
	SolveNS int64 `json:"solve_ns,omitempty"`
	// MemoStats carries the verdict-cache hit/miss counters when
	// cross-query memoization was enabled.
	MemoStats *sat.MemoStats `json:"memo_stats,omitempty"`
}

// ScoreShortlist scores a recovered shortlist against the case:
// PlantedKeyMatch by planted-key membership, Equivalent by SAT-miter
// I/O-equivalence. The planted key is correct by construction, so the
// miter only runs on shortlists that miss it. Solved follows Equivalent.
// The miter is exact and deterministic, but UNSAT proofs are co-NP, so
// with cfg.Timeout set the miters share one scoring budget of the same
// size — a pathological miter must not hang a harness worker (or a
// campaign shard) forever. An undecided miter counts as not equivalent;
// with Timeout == 0 scoring is unbounded and verdicts stay pure
// functions of the seed (what the determinism tests rely on). It
// returns how many keys went through the miter. The harness scores
// every attack run through it, and campaign merge -rescore replays it
// on persisted shortlists (a nil setup is the default engine).
func ScoreShortlist(ctx context.Context, cs *Case, keys []attack.Key, cfg Config, setup *attack.SolverSetup, out *Outcome) (miters int) {
	for _, key := range keys {
		if attack.KeysEqual(key, cs.Lock.Key) {
			out.PlantedKeyMatch = true
			out.Equivalent = true
			break
		}
	}
	if !out.Equivalent && len(keys) > 0 {
		sctx, cancel := attackCtx(ctx, cfg)
		defer cancel()
		for _, key := range keys {
			miters++
			// The miter runs through the same solver setup as the attack,
			// so its solve time and memo hits land in the same counters.
			if eq, err := attack.KeyEquivalentWith(sctx, setup.Factory(), cs.Lock.Locked, cs.Orig, key); err == nil && eq {
				out.Equivalent = true
				break
			}
		}
	}
	out.Solved = out.Equivalent
	return miters
}

// finishSolver records the setup's timing and memoization diagnostics
// into the outcome. Nil-safe: a nil setup (the baseline default engine)
// records nothing, keeping default artifacts byte-identical.
func finishSolver(setup *attack.SolverSetup, out *Outcome) {
	if setup == nil {
		return
	}
	out.SolveNS = int64(setup.SolveTime())
	out.MemoStats = setup.MemoStats()
}

// attackCtx derives the per-run context implementing cfg.Timeout.
func attackCtx(ctx context.Context, cfg Config) (context.Context, context.CancelFunc) {
	if cfg.Timeout > 0 {
		return context.WithTimeout(ctx, cfg.Timeout)
	}
	return context.WithCancel(ctx)
}

// RunFALL executes one FALL functional analysis on a case through the
// unified attack API and scores it against the planted key. Intra-attack
// parallelism is pinned to one worker: the harness parallelizes across
// cases, and nesting pools would oversubscribe the machine.
func RunFALL(ctx context.Context, cs *Case, analysis fall.Analysis, cfg Config) Outcome {
	out := Outcome{Circuit: cs.Spec.Name, Level: cs.Level, Attack: analysis.String()}
	setup := cfg.solverSetup()
	out.SolverConfig = setup.Label()
	rctx, cancel := attackCtx(ctx, cfg)
	defer cancel()
	atk := fall.New(fall.Options{Analysis: analysis, Enc: cfg.Enc})
	res, err := atk.Run(rctx, attack.Target{Locked: cs.Lock.Locked, H: cs.H, Seed: cs.Seed, Workers: 1, Solver: setup.Factory()})
	if err != nil {
		// Hard failure (timeouts come back as StatusTimeout, not errors):
		// report the outcome failed with no fabricated timing.
		out.Failed = true
		return out
	}
	out.Time = res.Elapsed
	out.TimedOut = res.Status == attack.StatusTimeout
	out.NumKeys = len(res.Keys)
	out.Keys = res.Keys
	// Score on the outer context, not the attack's own (possibly
	// near-exhausted) deadline: scoring is harness work with its own
	// budget, and verdicts must not depend on how close the attack ran
	// to its deadline.
	ScoreShortlist(ctx, cs, res.Keys, cfg, setup, &out)
	out.Unique = out.Solved && res.UniqueKey()
	finishSolver(setup, &out)
	return out
}

// RunSAT executes the baseline SAT attack on a case through the unified
// attack API.
func RunSAT(ctx context.Context, cs *Case, cfg Config) Outcome {
	out := Outcome{Circuit: cs.Spec.Name, Level: cs.Level, Attack: "SAT-Attack"}
	setup := cfg.solverSetup()
	out.SolverConfig = setup.Label()
	rctx, cancel := attackCtx(ctx, cfg)
	defer cancel()
	res, err := attack.Run(rctx, "sat", attack.Target{
		Locked:        cs.Lock.Locked,
		Oracle:        oracle.NewSim(cs.Orig),
		MaxIterations: cfg.SATIterCap,
		Seed:          cs.Seed,
		Workers:       1,
		Solver:        setup.Factory(),
	})
	if err != nil {
		// A hard error is not a timeout: fabricating `TimedOut` with
		// Time=cfg.Timeout polluted the Fig. 5/6 censoring (and invented
		// a zero-duration "timeout" when cfg.Timeout was 0). Report the
		// failure distinctly and leave the timing empty.
		out.Failed = true
		return out
	}
	out.Time = res.Elapsed
	out.TimedOut = res.Status == attack.StatusTimeout
	// Always persist whatever the run recovered — a timed-out attack's
	// partial candidate lands in the artifact so a merge can re-score it
	// later without re-running the attack.
	out.NumKeys = len(res.Keys)
	out.Keys = res.Keys
	if res.UniqueKey() {
		// Exact miter equivalence replaces the old 128-pattern random
		// simulation check: sound on multi-key instances and free of
		// sampling luck. Only converged (proven-unique) runs are scored:
		// an unconverged candidate that happens to unlock the circuit
		// would credit the SAT attack with a solve it never proved.
		ScoreShortlist(ctx, cs, res.Keys, cfg, setup, &out)
	}
	if !out.Solved && out.Time < cfg.Timeout {
		// Censor unsolved runs at the timeout, as the paper's Fig. 6 bars
		// do (an attack stopped by the iteration cap would not have
		// finished within the time budget either).
		out.Time = cfg.Timeout
	}
	finishSolver(setup, &out)
	return out
}

// Cactus extracts the sorted solve times for one attack from a panel's
// outcomes — the x/y series of the paper's Fig. 5 (execution time vs
// number of benchmarks solved within that time).
func Cactus(outs []Outcome, attack string) []time.Duration {
	var times []time.Duration
	for _, o := range outs {
		if o.Attack == attack && o.Solved {
			times = append(times, o.Time)
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times
}

// FormatCactus renders cactus series for all attacks in a panel.
func FormatCactus(outs []Outcome, attacks []string) string {
	var b strings.Builder
	for _, a := range attacks {
		times := Cactus(outs, a)
		fmt.Fprintf(&b, "%s: %d solved\n", a, len(times))
		for i, t := range times {
			fmt.Fprintf(&b, "  %2d solved within %v\n", i+1, t.Round(time.Millisecond))
		}
	}
	return b.String()
}

// Fig6Row is one circuit's bar in Fig. 6: mean/stddev runtimes of key
// confirmation vs the SAT attack over the circuit's locked variants.
type Fig6Row struct {
	Circuit        string
	KCMean, KCStd  time.Duration
	SAMean, SAStd  time.Duration
	KCRuns, SARuns int
	KCConfirmed    int
}

// Fig6CaseResult is one case's Fig. 6 measurement: the key confirmation
// run (φ = the FALL shortlist) and the vanilla SAT attack on the same
// instance. It serializes to JSON as a campaign artifact.
type Fig6CaseResult struct {
	Circuit     string        `json:"circuit"`
	Level       HLevel        `json:"level"`
	KCRan       bool          `json:"kc_ran"`
	KCConfirmed bool          `json:"kc_confirmed"`
	KCElapsed   time.Duration `json:"kc_elapsed_ns"`
	KCKey       attack.Key    `json:"kc_key,omitempty"`
	// KCSolverConfig records the non-default solver setup of the
	// FALL→key-confirmation pipeline (the SAT attack's setup is in SA);
	// empty for the baseline single engine.
	KCSolverConfig string `json:"kc_solver_config,omitempty"`
	// KCSolveNS / KCMemoStats mirror Outcome.SolveNS / Outcome.MemoStats
	// for the FALL→key-confirmation pipeline's solver setup.
	KCSolveNS   int64          `json:"kc_solve_ns,omitempty"`
	KCMemoStats *sat.MemoStats `json:"kc_memo_stats,omitempty"`
	SA          Outcome        `json:"sat"`
}

// RunFig6Case measures one case of the key confirmation experiment
// (§VI-C): FALL supplies the candidate shortlist (falling back to
// {planted key, complement} when it is empty, mirroring the paper's use
// of stage-1 results), key confirmation resolves it against the oracle,
// and the vanilla SAT attack runs on the same instance for comparison.
func RunFig6Case(ctx context.Context, cs *Case, cfg Config) Fig6CaseResult {
	r := Fig6CaseResult{Circuit: cs.Spec.Name, Level: cs.Level}
	setup := cfg.solverSetup()
	r.KCSolverConfig = setup.Label()
	fallAtk := fall.New(fall.Options{Enc: cfg.Enc})
	var cands []attack.Key
	fctx, fcancel := attackCtx(ctx, cfg)
	if res, err := fallAtk.Run(fctx, attack.Target{Locked: cs.Lock.Locked, H: cs.H, Seed: cs.Seed, Workers: 1, Solver: setup.Factory()}); err == nil {
		cands = res.Keys
	}
	fcancel()
	if len(cands) == 0 {
		comp := map[string]bool{}
		for k, v := range cs.Lock.Key {
			comp[k] = !v
		}
		cands = []attack.Key{cs.Lock.Key, comp}
	}
	kctx, kcancel := attackCtx(ctx, cfg)
	kc, err := attack.Run(kctx, "keyconfirm", attack.Target{
		Locked:        cs.Lock.Locked,
		Oracle:        oracle.NewSim(cs.Orig),
		Candidates:    cands,
		MaxIterations: cfg.SATIterCap,
		Seed:          cs.Seed,
		Workers:       1,
		Solver:        setup.Factory(),
	})
	kcancel()
	if err == nil {
		r.KCRan = true
		r.KCElapsed = kc.Elapsed
		r.KCConfirmed = kc.Status == attack.StatusUniqueKey
		if kc.UniqueKey() {
			r.KCKey = kc.Keys[0]
		}
	}
	r.KCSolveNS = int64(setup.SolveTime())
	r.KCMemoStats = setup.MemoStats()
	r.SA = RunSAT(ctx, cs, cfg)
	return r
}

// AggregateFig6 folds per-case measurements into the per-circuit rows of
// Fig. 6, in first-appearance circuit order. It is a pure function of
// the results, so merged campaign artifacts aggregate exactly like a
// monolithic run.
func AggregateFig6(results []Fig6CaseResult) []Fig6Row {
	byCircuit := map[string]*Fig6Row{}
	var order []string
	kcTimes := map[string][]time.Duration{}
	saTimes := map[string][]time.Duration{}
	for i := range results {
		r := &results[i]
		name := r.Circuit
		row, ok := byCircuit[name]
		if !ok {
			row = &Fig6Row{Circuit: name}
			byCircuit[name] = row
			order = append(order, name)
		}
		if r.KCRan {
			kcTimes[name] = append(kcTimes[name], r.KCElapsed)
			if r.KCConfirmed {
				row.KCConfirmed++
			}
		}
		if !r.SA.Failed {
			saTimes[name] = append(saTimes[name], r.SA.Time)
		}
	}
	rows := make([]Fig6Row, 0, len(order))
	for _, name := range order {
		row := byCircuit[name]
		row.KCRuns = len(kcTimes[name])
		row.SARuns = len(saTimes[name])
		row.KCMean, row.KCStd = meanStd(kcTimes[name])
		row.SAMean, row.SAStd = meanStd(saTimes[name])
		rows = append(rows, *row)
	}
	return rows
}

func meanStd(ts []time.Duration) (mean, std time.Duration) {
	if len(ts) == 0 {
		return 0, 0
	}
	var sum float64
	for _, t := range ts {
		sum += t.Seconds()
	}
	m := sum / float64(len(ts))
	var varSum float64
	for _, t := range ts {
		d := t.Seconds() - m
		varSum += d * d
	}
	return time.Duration(m * float64(time.Second)),
		time.Duration(math.Sqrt(varSum/float64(len(ts))) * float64(time.Second))
}

// FormatFig6 renders the Fig. 6 data as a table (the paper plots it as a
// log-scale bar chart).
func FormatFig6(rows []Fig6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %14s %14s %14s %14s %s\n", "ckt", "keyconf-mean", "keyconf-std", "satatk-mean", "satatk-std", "confirmed")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %14s %14s %14s %14s %d/%d\n",
			r.Circuit,
			r.KCMean.Round(time.Millisecond), r.KCStd.Round(time.Millisecond),
			r.SAMean.Round(time.Millisecond), r.SAStd.Round(time.Millisecond),
			r.KCConfirmed, r.KCRuns)
	}
	return b.String()
}

// Summary aggregates the §VI-B headline statistics.
type Summary struct {
	// TotalCases counts locked instances (circuits × h levels).
	TotalCases int
	// Defeated counts instances where at least one FALL analysis
	// shortlisted the correct key (the paper: 65/80).
	Defeated int
	// UniqueKey counts defeated instances whose shortlist had exactly
	// one key, i.e. no oracle needed (the paper: 58/65 = 90%).
	UniqueKey int
	// MultiKey lists "circuit/level: n keys" for defeated instances with
	// more than one shortlisted key.
	MultiKey []string
	// Failed counts runs that ended in a hard attack error.
	Failed int
}

// AggregateSummary folds per-case FALL outcomes into the §VI-B defeat
// statistics, in outcome order. Pure aggregation: merged campaign
// artifacts summarize exactly like a monolithic run.
func AggregateSummary(outs []Outcome) Summary {
	s := Summary{TotalCases: len(outs)}
	for _, out := range outs {
		if out.Failed {
			s.Failed++
		}
		if !out.Solved {
			continue
		}
		s.Defeated++
		if out.Unique {
			s.UniqueKey++
		} else {
			s.MultiKey = append(s.MultiKey, fmt.Sprintf("%s/%s: %d keys", out.Circuit, out.Level.Label(), out.NumKeys))
		}
	}
	return s
}

// FormatSummary renders the summary in the style of the paper's abstract
// numbers.
func FormatSummary(s Summary) string {
	var b strings.Builder
	pct := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return 100 * float64(a) / float64(b)
	}
	fmt.Fprintf(&b, "defeated %d / %d locked circuits (%.0f%%)\n", s.Defeated, s.TotalCases, pct(s.Defeated, s.TotalCases))
	fmt.Fprintf(&b, "unique key (oracle-less) for %d / %d successes (%.0f%%)\n", s.UniqueKey, s.Defeated, pct(s.UniqueKey, s.Defeated))
	for _, m := range s.MultiKey {
		fmt.Fprintf(&b, "  multi-key: %s\n", m)
	}
	if s.Failed > 0 {
		fmt.Fprintf(&b, "failed runs: %d\n", s.Failed)
	}
	return b.String()
}
