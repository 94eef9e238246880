// Command perfbench is the repository's end-to-end benchmark. From a seed
// it builds one of three workloads over the scaled Table I suite, drives
// the library in this process on one worker, times the calls into each
// layer's public entry points, checks every verdict independently of the
// engine that produced it, and prints one JSON result as its last line:
//
//	perfbench --workload fall-oracleless --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a further, traced pass, whose spans
// are written as NDJSON under workDir.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/exp"
	"repro/internal/genbench"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in its
// order.
var (
	endToEnd = []metricDef{
		{"wall_s", "s"}, {"setup_s", "s"}, {"unit_p50_ms", "ms"}, {"unit_tail_ms", "ms"},
		{"solved_frac", "ratio"}, {"completed_frac", "ratio"}, {"peak_rss_mb", "MiB"},
	}
	perLayer = []metricDef{
		{"lock.build_ms", "ms"}, {"lock.locked_gates", "count"},
		{"fall.structural_ms", "ms"}, {"fall.analysis_ms", "ms"}, {"fall.candidates", "count"},
		{"fall.keys", "count"}, {"fall.key_yield", "ratio"}, {"fall.self_ms", "ms"},
		{"sat.queries", "count"}, {"sat.solve_ms", "ms"}, {"sat.load_ms", "ms"},
		{"sat.conflicts", "count"}, {"sat.decisions", "count"}, {"sat.propagations", "count"},
		{"sat.unknown", "count"},
		{"sat.memo_hits_memory", "count"}, {"sat.memo_hits_disk", "count"}, {"sat.memo_misses", "count"},
		{"sat.diskmemo_records", "count"}, {"sat.diskmemo_mb", "MiB"},
		{"oracle.queries", "count"}, {"oracle.query_ms", "ms"},
		{"keyconfirm.ms", "ms"}, {"keyconfirm.iterations", "count"}, {"keyconfirm.self_ms", "ms"},
		{"satattack.ms", "ms"}, {"satattack.iterations", "count"}, {"satattack.self_ms", "ms"},
		{"campaign.cold_ms", "ms"}, {"campaign.warm_ms", "ms"}, {"campaign.merge_ms", "ms"},
		{"campaign.artifact_mb", "MiB"},
		{"residual_ms", "ms"},
		{"runtime.alloc_mb", "MiB"}, {"runtime.gc_cycles", "count"},
		{"trace.wall_s", "s"}, {"trace.overhead_ratio", "ratio"},
	}
)

// workDir, under the working directory, holds the campaign stores and the
// written spans.
const workDir = ".bench_build/perfbench"

// suite is the row set of every workload: all 20 Table I rows at 1/16
// of their gate counts, with keys capped at 12 bits.
func suite() []genbench.Spec { return genbench.Scaled(genbench.TableI, 16, 12) }

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// dir holds the campaign stores and the written spans.
	dir   string
	specs []genbench.Spec
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what one run measured. layers is nil unless traced.
type report struct {
	attempted, failed int
	endToEnd, layers  map[string]float64
	// gateErr is the failed correctness check, if any.
	gateErr error
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: fall-oracleless, oracle-guided or campaign-rerun")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "measured time: whole passes run until it has elapsed")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced pass instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := config{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, dir: workDir, specs: suite()}
	rep, err := measure(context.Background(), cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := result{Correct: rep.gateErr == nil, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	defs, values := endToEnd, rep.endToEnd
	if cfg.trace {
		defs, values = perLayer, rep.layers
	}
	for _, def := range defs {
		res.Metrics[def.name] = metric{Value: values[def.name], Unit: def.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if rep.gateErr != nil {
		fmt.Fprintln(stderr, "perfbench: correctness check failed:", rep.gateErr)
		return 1
	}
	return 0
}

// measure runs one workload: set-up several times, whole untraced passes
// until cfg.seconds have elapsed, the correctness gate, and with
// cfg.trace one traced pass. It writes a readable summary to log. A
// failed correctness check is returned in the report, not as an error.
func measure(ctx context.Context, cfg config, log io.Writer) (*report, error) {
	w, err := newWorkload(cfg.workload, cfg.specs, cfg.seed, cfg.dir)
	if err != nil {
		return nil, err
	}
	defer w.reset()

	var setupS []float64
	var setupTr *tracer
	for i := 0; i < w.setups(); i++ {
		w.reset()
		var tr *tracer
		if cfg.trace && i == w.setups()-1 {
			tr = newTracer()
			setupTr = tr
		}
		runtime.GC()
		start := time.Now()
		if err := w.setup(ctx, tr); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}

	var passes []*pass
	var rt runtimeDelta
	start := time.Now()
	for {
		runtime.GC()
		before := readRuntime()
		p, err := w.pass(ctx, nil)
		if err != nil {
			return nil, fmt.Errorf("%s pass: %w", cfg.workload, err)
		}
		rt = rt.add(readRuntime().sub(before))
		passes = append(passes, p)
		if time.Since(start) >= cfg.seconds {
			break
		}
	}
	peakRSS := peakRSSMB()

	var tp *pass
	var tr *tracer
	if cfg.trace {
		runtime.GC()
		tr = newTracer()
		if tp, err = w.pass(ctx, tr); err != nil {
			return nil, fmt.Errorf("%s traced pass: %w", cfg.workload, err)
		}
	}

	first := passes[0]
	n := len(first.units)
	failedUnits := 0
	for _, u := range first.units {
		if u.failed {
			failedUnits++
		}
	}
	rep := &report{attempted: n * len(passes), failed: failedUnits * len(passes)}
	solved, gateErr := gate(ctx, w, cfg.seed, passes, tp)
	rep.gateErr = gateErr

	walls := make([]float64, len(passes))
	for i, p := range passes {
		walls[i] = p.wall.Seconds()
	}
	unitMS := make([]float64, n)
	for j := range unitMS {
		per := make([]float64, len(passes))
		for i, p := range passes {
			per[i] = ms(p.units[j].dur)
		}
		unitMS[j] = median(per)
	}
	tail, tailPct := tailValue(unitMS)
	rep.endToEnd = map[string]float64{
		"wall_s":         median(walls),
		"setup_s":        median(setupS),
		"unit_p50_ms":    median(unitMS),
		"unit_tail_ms":   tail,
		"solved_frac":    frac(solved, n),
		"completed_frac": frac(n-failedUnits, n),
		"peak_rss_mb":    peakRSS,
	}
	fmt.Fprintf(log, "workload %s seed %d: %d units, %d passes, %d set-ups\n", cfg.workload, cfg.seed, n, len(passes), len(setupS))
	fmt.Fprintf(log, "  wall_s          %.4f s (median of %d passes: %.4f)\n", median(walls), len(walls), walls)
	fmt.Fprintf(log, "  setup_s         %.4f s (median of %d set-ups: %.4f)\n", median(setupS), len(setupS), setupS)
	fmt.Fprintf(log, "  unit_p50_ms     %.3f ms (p50 of %d units)\n", median(unitMS), n)
	fmt.Fprintf(log, "  unit_tail_ms    %.3f ms (p%.1f of %d units, %d beyond it)\n", tail, tailPct, n, tailBeyond)
	fmt.Fprintf(log, "  solved_frac     %.4f (%d / %d units)\n", frac(solved, n), solved, n)
	fmt.Fprintf(log, "  failed_frac     %.4f (%d / %d units)\n", frac(failedUnits, n), failedUnits, n)
	fmt.Fprintf(log, "  completed_frac  %.4f\n", frac(n-failedUnits, n))
	fmt.Fprintf(log, "  peak_rss_mb     %.1f MiB\n", peakRSS)
	if !cfg.trace {
		return rep, nil
	}

	if rep.layers, err = layerMetrics(w, first, tp, setupTr, tr, rt.per(len(passes)), median(walls)); err != nil {
		return nil, err
	}
	for _, def := range perLayer {
		fmt.Fprintf(log, "  %-22s %.4f %s\n", def.name, rep.layers[def.name], def.unit)
	}
	for _, t := range []struct {
		phase string
		tr    *tracer
	}{{"setup", setupTr}, {"pass", tr}} {
		path := filepath.Join(cfg.dir, fmt.Sprintf("trace-%s-%d-%s.ndjson", cfg.workload, cfg.seed, t.phase))
		if err := t.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "  spans: %s (%d)\n", path, len(t.tr.spans))
	}
	return rep, nil
}

// gate checks every verdict of the first pass, the workload's own
// invariants, and that every later pass, the traced one included,
// reached the same verdicts. It returns the solved unit count.
func gate(ctx context.Context, w workload, seed int64, passes []*pass, traced *pass) (int, error) {
	first := passes[0]
	solved, err := checkUnits(ctx, first, seed)
	if err != nil {
		return 0, err
	}
	want := first.digest()
	for i, p := range append(passes, traced) {
		if p == nil {
			continue
		}
		if err := w.check(ctx, p); err != nil {
			return 0, err
		}
		if p.digest() != want {
			return 0, fmt.Errorf("pass %d reached other verdicts than pass 0", i)
		}
	}
	return solved, nil
}

// layerMetrics derives the per-layer metrics of a traced run. Layers a
// workload never reaches read 0.
func layerMetrics(w workload, first, tp *pass, setupTr, tr *tracer, rt runtimeDelta, untracedWall float64) (map[string]float64, error) {
	l := map[string]float64{}
	for k, v := range tp.counts {
		l[k] = v
	}
	gates := map[*exp.Case]bool{}
	for _, u := range first.units {
		if u.cs != nil && !gates[u.cs] {
			gates[u.cs] = true
			l["lock.locked_gates"] += float64(u.cs.Lock.Locked.NumGates())
		}
	}
	l["lock.build_ms"] = nsMS(setupTr.layerNS("lock"))
	if cells := l["fall.cells"]; cells > 0 {
		l["fall.key_yield"] = l["fall.keys"] / cells
	}
	self := tr.selfNS()
	for _, layer := range []string{"fall", "keyconfirm", "satattack"} {
		l[layer+".self_ms"] = nsMS(self[layer])
		l["residual_ms"] += nsMS(self[layer])
	}
	l["sat.queries"] = float64(tr.solveCalls)
	l["sat.solve_ms"] = nsMS(tr.layerNS("sat"))
	l["sat.load_ms"] = nsMS(tr.loadNS)
	l["sat.conflicts"] = float64(tr.engine.Conflicts)
	l["sat.decisions"] = float64(tr.engine.Decisions)
	l["sat.propagations"] = float64(tr.engine.Propagations)
	l["sat.unknown"] = float64(tr.unknown)
	l["oracle.query_ms"] = nsMS(tr.layerNS("oracle"))
	l["keyconfirm.ms"] = nsMS(tr.layerNS("keyconfirm"))
	l["satattack.ms"] = nsMS(tr.layerNS("satattack"))
	l["campaign.cold_ms"] = nsMS(setupTr.layerNS("campaign"))
	l["campaign.warm_ms"] = nsMS(tr.layerNS("campaign"))
	l["campaign.merge_ms"] = nsMS(tr.layerNS("campaign.merge"))
	if cw, ok := w.(*campaignWorkload); ok {
		st, err := cw.diskMemo()
		if err != nil {
			return nil, err
		}
		l["sat.diskmemo_records"] = float64(st.Entries)
		l["sat.diskmemo_mb"] = float64(st.Bytes) / (1 << 20)
	}
	l["runtime.alloc_mb"] = rt.allocBytes / (1 << 20)
	l["runtime.gc_cycles"] = rt.gcCycles
	l["trace.wall_s"] = tp.wall.Seconds()
	l["trace.overhead_ratio"] = tp.wall.Seconds() / untracedWall
	return l, nil
}

// runtimeDelta is the Go runtime's allocation and GC work over passes.
type runtimeDelta struct{ allocBytes, gcCycles float64 }

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeDelta{float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles}
}

func (a runtimeDelta) add(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.allocBytes + b.allocBytes, a.gcCycles + b.gcCycles}
}

func (a runtimeDelta) per(n int) runtimeDelta {
	return runtimeDelta{a.allocBytes / float64(n), a.gcCycles / float64(n)}
}

// peakRSSMB returns the process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie above the reported tail.
const tailBeyond = 10

// tailValue returns the highest percentile of xs with tailBeyond samples
// beyond it, and that percentile; with too few samples, the maximum.
func tailValue(xs []float64) (float64, float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= tailBeyond {
		return s[n-1], 100
	}
	return s[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n)
}

func frac(a, b int) float64 { return float64(a) / float64(b) }

func nsMS(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }
