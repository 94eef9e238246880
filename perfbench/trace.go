package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"time"

	"repro/internal/attack"
	"repro/internal/oracle"
	"repro/internal/sat"
)

// span is one timed call into a layer. Leaf is time spent directly
// inside the span in calls too numerous to record as spans (variable and
// clause loading into the engine).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Unit   int    `json:"unit"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Leaf   int64  `json:"leaf_ns,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps the spans of a traced pass in memory. Every workload runs
// on one goroutine, so spans nest strictly and the open spans form a
// stack. A nil *tracer records nothing: untraced passes build no
// wrappers at all.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	unit  int

	solveCalls int64
	unknown    int64
	loadNS     int64
	engine     sat.Stats
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), unit: -1} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(layer string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Unit: t.unit, Layer: layer, Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// setUnit tags the spans begun from now on with a unit index.
func (t *tracer) setUnit(i int) {
	if t != nil {
		t.unit = i
	}
}

// leaf charges d, spent in an unrecorded engine call, to the innermost
// open span.
func (t *tracer) leaf(d time.Duration) {
	t.loadNS += int64(d)
	if n := len(t.open); n > 0 {
		t.spans[t.open[n-1]].Leaf += int64(d)
	}
}

// factory returns the engine factory a unit passes to the attack: nil
// (the attacks' default engine) when untraced.
func (t *tracer) factory() attack.SolverFactory {
	if t == nil {
		return nil
	}
	return func(ctx context.Context) sat.Engine {
		return &timedEngine{inner: attack.NewSolver(ctx), tr: t}
	}
}

// oracle wraps orc with a query timer when traced.
func (t *tracer) oracle(orc oracle.Oracle) oracle.Oracle {
	if t == nil {
		return orc
	}
	return &timedOracle{Oracle: orc, tr: t}
}

// timedEngine times every call into the default CDCL engine. It
// deliberately implements no sat.FrozenLoader, exactly like *sat.Solver,
// so sat.Prime keeps replaying frozen prefixes clause by clause.
type timedEngine struct {
	inner sat.Engine
	tr    *tracer
}

var _ sat.Engine = (*timedEngine)(nil)

func (e *timedEngine) NewVar() int {
	start := time.Now()
	v := e.inner.NewVar()
	e.tr.leaf(time.Since(start))
	return v
}

func (e *timedEngine) AddClause(lits ...sat.Lit) bool {
	start := time.Now()
	ok := e.inner.AddClause(lits...)
	e.tr.leaf(time.Since(start))
	return ok
}

func (e *timedEngine) Solve() sat.Status { return e.solve(e.inner.Solve) }

func (e *timedEngine) SolveAssuming(assumptions []sat.Lit) sat.Status {
	return e.solve(func() sat.Status { return e.inner.SolveAssuming(assumptions) })
}

func (e *timedEngine) solve(call func() sat.Status) sat.Status {
	pre := e.inner.Stats()
	id := e.tr.begin("sat")
	st := call()
	e.tr.end(id)
	d := e.inner.Stats().Sub(pre)
	e.tr.solveCalls++
	e.tr.engine.Conflicts += d.Conflicts
	e.tr.engine.Decisions += d.Decisions
	e.tr.engine.Propagations += d.Propagations
	if st == sat.Unknown {
		e.tr.unknown++
	}
	return st
}

func (e *timedEngine) NumVars() int                   { return e.inner.NumVars() }
func (e *timedEngine) Value(v int) bool               { return e.inner.Value(v) }
func (e *timedEngine) LitTrue(l sat.Lit) bool         { return e.inner.LitTrue(l) }
func (e *timedEngine) SetContext(ctx context.Context) { e.inner.SetContext(ctx) }
func (e *timedEngine) Stats() sat.Stats               { return e.inner.Stats() }

// timedOracle records one span per oracle query.
type timedOracle struct {
	oracle.Oracle
	tr *tracer
}

func (o *timedOracle) Query(inputs map[string]bool) []bool {
	id := o.tr.begin("oracle")
	out := o.Oracle.Query(inputs)
	o.tr.end(id)
	return out
}

// selfNS returns each layer's self time: the sum over its spans of the
// span's duration minus the part its children and leaf calls cover.
// Spans nest strictly, so a span's children never overlap one another.
func (t *tracer) selfNS() map[string]int64 {
	child := make([]int64, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			child[p] += t.spans[i].dur()
		}
	}
	self := map[string]int64{}
	for i := range t.spans {
		s := &t.spans[i]
		self[s.Layer] += s.dur() - child[i] - s.Leaf
	}
	return self
}

// layerNS sums the durations of a layer's spans.
func (t *tracer) layerNS(layer string) int64 {
	var total int64
	for i := range t.spans {
		if t.spans[i].Layer == layer {
			total += t.spans[i].dur()
		}
	}
	return total
}

// write stores the spans as NDJSON, one span per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
