package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// This file is the analysis half of tracing: it reads NDJSON trace
// files back into spans and aggregates them into the per-phase /
// per-engine / per-query-family cost breakdown that cmd/tracestat
// prints, for one file or merged over many.
// Span ids are only unique within one trace file (each process's
// tracer counts from 1), so parentage is resolved per file.

// TraceFile is one parsed trace: the spans of a single process run.
type TraceFile struct {
	Path  string
	Spans []SpanData
}

// ReadSpans parses NDJSON spans from r. Blank lines are skipped; a
// malformed line is an error carrying its line number.
func ReadSpans(r io.Reader) ([]SpanData, error) {
	var spans []SpanData
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" {
			continue
		}
		var sp SpanData
		if err := json.Unmarshal([]byte(txt), &sp); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		spans = append(spans, sp)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return spans, nil
}

// ReadTraceFile parses one NDJSON trace file.
func ReadTraceFile(path string) (*TraceFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	spans, err := ReadSpans(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &TraceFile{Path: path, Spans: spans}, nil
}

// ReadTraceFiles parses many trace files.
func ReadTraceFiles(paths []string) ([]*TraceFile, error) {
	files := make([]*TraceFile, 0, len(paths))
	for _, p := range paths {
		tf, err := ReadTraceFile(p)
		if err != nil {
			return nil, err
		}
		files = append(files, tf)
	}
	return files, nil
}

// BucketStat is one row of an aggregation (per phase, engine, or
// query family).
type BucketStat struct {
	Name    string
	Count   int64
	TotalNS int64
	MaxNS   int64
}

// QueryStat is one solver query with enough context to rank it.
type QueryStat struct {
	File    string
	Family  string // name of the enclosing (parent) span
	Engine  string
	Verdict string
	DurNS   int64
	Attrs   map[string]any
}

// Report is the aggregate view over one or many trace files.
type Report struct {
	Files     int
	Spans     int
	Queries   int64
	QueryNS   int64 // total solver wall across query spans
	Phases    []BucketStat
	Engines   []BucketStat
	Families  []BucketStat
	Slowest   []QueryStat
	MemoHits  int64 // in-memory (L1) verdict-cache hits
	MemoDisk  int64 // on-disk (L2) verdict-cache hits
	MemoMiss  int64
	Cancelled int64
}

func attrString(attrs map[string]any, key string) string {
	if v, ok := attrs[key]; ok {
		return fmt.Sprint(v)
	}
	return ""
}

type bucketAcc struct {
	order []string
	m     map[string]*BucketStat
}

func newBucketAcc() *bucketAcc { return &bucketAcc{m: make(map[string]*BucketStat)} }

func (a *bucketAcc) add(name string, ns int64) {
	b, ok := a.m[name]
	if !ok {
		b = &BucketStat{Name: name}
		a.m[name] = b
		a.order = append(a.order, name)
	}
	b.Count++
	b.TotalNS += ns
	if ns > b.MaxNS {
		b.MaxNS = ns
	}
}

func (a *bucketAcc) sorted() []BucketStat {
	out := make([]BucketStat, 0, len(a.order))
	for _, n := range a.order {
		out = append(out, *a.m[n])
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].TotalNS != out[j].TotalNS {
			return out[i].TotalNS > out[j].TotalNS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Analyze aggregates the trace files into a Report keeping the topN
// slowest queries (topN <= 0 selects 10).
func Analyze(files []*TraceFile, topN int) *Report {
	if topN <= 0 {
		topN = 10
	}
	rep := &Report{Files: len(files)}
	phases := newBucketAcc()
	engines := newBucketAcc()
	families := newBucketAcc()
	var queries []QueryStat
	for _, tf := range files {
		rep.Spans += len(tf.Spans)
		byID := make(map[uint64]*SpanData, len(tf.Spans))
		for i := range tf.Spans {
			byID[tf.Spans[i].ID] = &tf.Spans[i]
		}
		for i := range tf.Spans {
			sp := &tf.Spans[i]
			switch sp.Name {
			case "query":
				rep.Queries++
				rep.QueryNS += sp.DurNS
				family := "(root)"
				if p, ok := byID[sp.Parent]; ok {
					family = p.Name
				}
				engine := attrString(sp.Attrs, "engine")
				if engine == "" {
					engine = "internal"
				}
				engines.add(engine, sp.DurNS)
				families.add(family, sp.DurNS)
				switch attrString(sp.Attrs, "memo") {
				case "memory":
					rep.MemoHits++
				case "disk":
					rep.MemoDisk++
				case "miss":
					rep.MemoMiss++
				}
				if attrString(sp.Attrs, "cancel") != "" {
					rep.Cancelled++
				}
				queries = append(queries, QueryStat{
					File:    tf.Path,
					Family:  family,
					Engine:  engine,
					Verdict: attrString(sp.Attrs, "verdict"),
					DurNS:   sp.DurNS,
					Attrs:   sp.Attrs,
				})
			default:
				phases.add(sp.Name, sp.DurNS)
			}
		}
	}
	rep.Phases = phases.sorted()
	rep.Engines = engines.sorted()
	rep.Families = families.sorted()
	sort.SliceStable(queries, func(i, j int) bool { return queries[i].DurNS > queries[j].DurNS })
	if len(queries) > topN {
		queries = queries[:topN]
	}
	rep.Slowest = queries
	return rep
}

func dur(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

func renderBuckets(w io.Writer, title string, rows []BucketStat) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "%s:\n", title)
	for _, b := range rows {
		fmt.Fprintf(w, "  %-40s count %6d  total %12s  max %12s\n",
			b.Name, b.Count, dur(b.TotalNS), dur(b.MaxNS))
	}
}

// Render writes the human-readable report.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "trace files: %d, spans: %d, solver queries: %d, solver wall: %s\n",
		r.Files, r.Spans, r.Queries, dur(r.QueryNS))
	renderBuckets(w, "phases", r.Phases)
	renderBuckets(w, "engines (query spans)", r.Engines)
	renderBuckets(w, "query families", r.Families)
	if total := r.MemoHits + r.MemoDisk + r.MemoMiss; total > 0 {
		fmt.Fprintf(w, "memo: %d memory hits / %d disk hits / %d misses (%.1f%% hit rate)\n",
			r.MemoHits, r.MemoDisk, r.MemoMiss, 100*float64(r.MemoHits+r.MemoDisk)/float64(total))
	}
	if r.Cancelled > 0 {
		fmt.Fprintf(w, "cancelled queries: %d\n", r.Cancelled)
	}
	if len(r.Slowest) > 0 {
		fmt.Fprintf(w, "slowest queries:\n")
		for i, q := range r.Slowest {
			fmt.Fprintf(w, "  %2d. %12s  %-10s %-24s %s\n",
				i+1, dur(q.DurNS), q.Verdict, q.Engine, q.Family)
		}
	}
}

// Reconcile compares the report's per-query solver wall against an
// artifact-reported solve_ns total and returns the covered fraction
// (1 when both are zero). Query spans time exactly the same window as
// the artifact's solve accumulator, so a healthy trace covers ~100%.
func (r *Report) Reconcile(artifactSolveNS int64) float64 {
	if artifactSolveNS <= 0 {
		if r.QueryNS == 0 {
			return 1
		}
		return 0
	}
	return float64(r.QueryNS) / float64(artifactSolveNS)
}
