package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// collectSink records emitted spans in order.
type collectSink struct{ spans []SpanData }

func (c *collectSink) Emit(sp SpanData) { c.spans = append(c.spans, sp) }
func (c *collectSink) Close() error     { return nil }

func TestSpanHierarchy(t *testing.T) {
	sink := &collectSink{}
	tr := New(sink)
	root := tr.Start("attack", "name", "fall")
	phase := root.Child("phase")
	q := phase.Child("query", "engine", "internal")
	q.Set("verdict", "UNSAT")
	q.EndAfter(5 * time.Millisecond)
	phase.End()
	root.End()

	if len(sink.spans) != 3 {
		t.Fatalf("emitted %d spans, want 3", len(sink.spans))
	}
	byName := map[string]SpanData{}
	for _, sp := range sink.spans {
		byName[sp.Name] = sp
	}
	if byName["attack"].Parent != 0 {
		t.Errorf("root parent %d, want 0", byName["attack"].Parent)
	}
	if byName["phase"].Parent != byName["attack"].ID {
		t.Errorf("phase parent %d, want %d", byName["phase"].Parent, byName["attack"].ID)
	}
	if byName["query"].Parent != byName["phase"].ID {
		t.Errorf("query parent %d, want %d", byName["query"].Parent, byName["phase"].ID)
	}
	if byName["query"].DurNS != int64(5*time.Millisecond) {
		t.Errorf("EndAfter dur %d, want %d", byName["query"].DurNS, int64(5*time.Millisecond))
	}
	if byName["query"].Attrs["verdict"] != "UNSAT" || byName["query"].Attrs["engine"] != "internal" {
		t.Errorf("query attrs: %v", byName["query"].Attrs)
	}
	// Ending twice emits once.
	root.End()
	if len(sink.spans) != 3 {
		t.Errorf("double End emitted again: %d spans", len(sink.spans))
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x", "k", "v")
	if sp != nil {
		t.Fatal("nil tracer minted a span")
	}
	// Every span method must no-op on nil.
	child := sp.Child("y")
	child.Set("k", 1)
	child.End()
	child.EndAfter(time.Second)
	if sp.ID() != 0 || child.ID() != 0 {
		t.Error("nil span has a nonzero ID")
	}
	if err := tr.Close(); err != nil {
		t.Errorf("nil tracer Close: %v", err)
	}
	// A nil span leaves the context untouched.
	if got := SpanFrom(With(t.Context(), nil)); got != nil {
		t.Errorf("nil span stored in context: %v", got)
	}
}

func TestRingBounds(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 5; i++ {
		r.Emit(SpanData{ID: uint64(i)})
	}
	got := r.Snapshot()
	if len(got) != 3 {
		t.Fatalf("ring holds %d, want 3", len(got))
	}
	for i, want := range []uint64{3, 4, 5} {
		if got[i].ID != want {
			t.Errorf("slot %d: id %d, want %d (oldest-first)", i, got[i].ID, want)
		}
	}
	if r.Total() != 5 {
		t.Errorf("lifetime total %d, want 5", r.Total())
	}
}

func TestFileSinkAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.ndjson")
	tr, err := NewFileTracer(path)
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Start("run")
	root.Child("query", "engine", "internal").EndAfter(time.Millisecond)
	root.End()

	// Before Close only the temp file exists — a killed run never leaves
	// a half-written trace under the final name.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("trace file visible before Close: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "trace.ndjson" {
		t.Fatalf("dir after Close: %v", ents)
	}

	// Round-trip: the file parses back to the emitted spans.
	tf, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) != 2 {
		t.Fatalf("read %d spans, want 2", len(tf.Spans))
	}
	if tf.Spans[0].Name != "query" || tf.Spans[1].Name != "run" {
		t.Errorf("span order: %q, %q (children end first)", tf.Spans[0].Name, tf.Spans[1].Name)
	}
	if tf.Spans[0].Parent != tf.Spans[1].ID {
		t.Errorf("parent link lost in round-trip: %d vs %d", tf.Spans[0].Parent, tf.Spans[1].ID)
	}
	if eng, ok := tf.Spans[0].Attrs["engine"].(string); !ok || eng != "internal" {
		t.Errorf("attrs round-trip: %v", tf.Spans[0].Attrs)
	}
}

func TestReadSpansBadLine(t *testing.T) {
	_, err := ReadSpans(strings.NewReader("{\"id\":1,\"name\":\"a\"}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("bad line not located: %v", err)
	}
}

// FuzzReadSpans feeds ReadSpans arbitrary bytes: it must not panic,
// and every span it accepts, written back as one NDJSON line, must read
// back as that one span. An empty attribute map counts as none, since
// the encoding omits both.
func FuzzReadSpans(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := ReadSpans(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, sp := range spans {
			line, err := json.Marshal(sp)
			if err != nil {
				t.Fatalf("accepted span %+v does not encode: %v", sp, err)
			}
			back, err := ReadSpans(bytes.NewReader(append(line, '\n')))
			if err != nil || len(back) != 1 {
				t.Fatalf("span %+v writes %s, which reads back as %d spans, %v", sp, line, len(back), err)
			}
			if len(sp.Attrs) == 0 {
				sp.Attrs = nil
			}
			if !reflect.DeepEqual(back[0], sp) {
				t.Fatalf("span %+v writes %s, which reads back as %+v", sp, line, back[0])
			}
		}
	})
}

func TestAnalyzeAndReconcile(t *testing.T) {
	sink := &collectSink{}
	tr := New(sink)
	root := tr.Start("attack")
	phase := root.Child("fall.analysis")
	cell := phase.Child("fall.cell")
	q1 := cell.Child("query", "engine", "internal")
	q1.Set("memo", "miss")
	q1.EndAfter(10 * time.Millisecond)
	q2 := cell.Child("query", "engine", "internal")
	q2.Set("memo", "memory")
	q2.Set("cancel", "context canceled")
	q2.EndAfter(2 * time.Millisecond)
	q3 := cell.Child("query", "engine", "internal")
	q3.Set("memo", "disk")
	q3.EndAfter(0)
	cell.End()
	phase.EndAfter(20 * time.Millisecond)
	root.End()

	rep := Analyze([]*TraceFile{{Path: "mem", Spans: sink.spans}}, 5)
	if rep.Spans != len(sink.spans) || rep.Queries != 3 {
		t.Fatalf("spans %d queries %d", rep.Spans, rep.Queries)
	}
	want := int64(12 * time.Millisecond)
	if rep.QueryNS != want {
		t.Errorf("QueryNS %d, want %d", rep.QueryNS, want)
	}
	if rep.MemoHits != 1 || rep.MemoDisk != 1 || rep.MemoMiss != 1 || rep.Cancelled != 1 {
		t.Errorf("memo/cancel: hits=%d disk=%d miss=%d cancelled=%d",
			rep.MemoHits, rep.MemoDisk, rep.MemoMiss, rep.Cancelled)
	}
	// The query family is the parent span's name.
	if len(rep.Families) != 1 || rep.Families[0].Name != "fall.cell" || rep.Families[0].Count != 3 {
		t.Errorf("families: %+v", rep.Families)
	}
	if len(rep.Slowest) != 3 || rep.Slowest[0].DurNS < rep.Slowest[1].DurNS {
		t.Errorf("slowest ordering: %+v", rep.Slowest)
	}
	if cov := rep.Reconcile(want); cov != 1 {
		t.Errorf("exact reconcile coverage %v, want 1", cov)
	}
	var b strings.Builder
	rep.Render(&b)
	for _, frag := range []string{"fall.cell", "internal", "memo:"} {
		if !strings.Contains(b.String(), frag) {
			t.Errorf("render missing %q:\n%s", frag, b.String())
		}
	}
}
