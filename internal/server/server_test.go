package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/attack"
	_ "repro/internal/attack/all"
	"repro/internal/bench"
	"repro/internal/lock"
	"repro/internal/oracle"
	"repro/internal/sat"
	"repro/internal/sat/testsolver"
	"repro/internal/server"
	"repro/internal/testcirc"
)

// newTTLockFixture builds a small TTLock instance shared by the HTTP
// tests: the original and locked netlists as BENCH text plus the
// planted key and its complement (a keyconfirm candidate shortlist).
func newTTLockFixture(t *testing.T) (orig, locked string, key, complement attack.Key) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	origC := testcirc.Random(rng, 10, 80)
	lr, err := lock.TTLock(origC, lock.Options{KeySize: 8, Seed: 4, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	complement = make(attack.Key, len(lr.Key))
	for k, v := range lr.Key {
		complement[k] = !v
	}
	return bench.WriteString(origC), bench.WriteString(lr.Locked), lr.Key, complement
}

// newTinyTTLockFixture is a deliberately easy instance for the
// slow-solver tests: those park a job on a sleeping stub solver, and
// once the gate lifts the solve must finish in moments even through
// per-query process spawns under -race.
func newTinyTTLockFixture(t *testing.T) (orig, locked string) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	origC := testcirc.Random(rng, 4, 12)
	lr, err := lock.TTLock(origC, lock.Options{KeySize: 4, Seed: 2, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	return bench.WriteString(origC), bench.WriteString(lr.Locked)
}

// startDaemon builds a Server on a temp store, starts its workers and
// mounts it on an httptest server. Drain runs at cleanup so no worker
// goroutine outlives the test.
func startDaemon(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Drain(0)
	})
	return srv, ts
}

func submit(t *testing.T, ts *httptest.Server, tenant string, spec server.JobSpec) (*http.Response, server.JobView) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-API-Key", tenant)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view server.JobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return resp, view
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp
}

// scrape reads GET /metrics.prom into a map from series (the metric
// name with its rendered labels, e.g. attackd_jobs{state="done"}) to
// value.
func scrape(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics.prom: %d", resp.StatusCode)
	}
	series := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("malformed exposition line %q: %v", line, err)
		}
		series[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return series
}

// waitTerminal polls GET /jobs/{id} until the job reaches a terminal
// state.
func waitTerminal(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) server.JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var view server.JobView
		resp := getJSON(t, ts, "/jobs/"+id, &view)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /jobs/%s: %d", id, resp.StatusCode)
		}
		if view.State.Terminal() {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, view.State, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitState polls until the job reports the wanted state.
func waitState(t *testing.T, ts *httptest.Server, id string, want server.JobState, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var view server.JobView
		getJSON(t, ts, "/jobs/"+id, &view)
		if view.State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s is %s, want %s after %v", id, view.State, want, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// verdictJSON projects a result to its verdict fields — the part that
// must be identical between a daemon artifact and a cmd/attack -json
// run of the same case (wall clocks differ, verdicts never).
func verdictJSON(t *testing.T, rj *attack.ResultJSON) string {
	t.Helper()
	if rj == nil {
		t.Fatal("no result")
	}
	data, err := json.Marshal(map[string]any{"status": rj.Status, "keys": rj.Keys, "iterations": rj.Iterations})
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestEndToEndHTTP drives the full submit → poll → stream → fetch flow
// for a fall, sat and keyconfirm job over HTTP and checks each
// artifact's verdict is identical to running the same case directly
// through the attack API — the daemon is a transport, never a
// different attack.
func TestEndToEndHTTP(t *testing.T) {
	orig, locked, key, complement := newTTLockFixture(t)
	_, ts := startDaemon(t, server.Config{Workers: 2})

	cases := []struct {
		name string
		spec server.JobSpec
	}{
		{"fall", server.JobSpec{Attack: "fall", Locked: locked, Seed: 5}},
		{"sat", server.JobSpec{Attack: "sat", Locked: locked, Oracle: orig, Seed: 5}},
		{"keyconfirm", server.JobSpec{Attack: "keyconfirm", Locked: locked, Oracle: orig, Seed: 5,
			Candidates: []attack.Key{complement, key}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, view := submit(t, ts, "tester", tc.spec)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: %d", resp.StatusCode)
			}
			if loc := resp.Header.Get("Location"); loc != "/jobs/"+view.ID {
				t.Errorf("Location = %q", loc)
			}
			final := waitTerminal(t, ts, view.ID, 60*time.Second)
			if final.State != server.StateDone {
				t.Fatalf("job finished %s (error %q)", final.State, final.Error)
			}

			// Fetch the artifact and compare its verdict against a
			// direct in-process run of the identical case.
			var job server.Job
			if resp := getJSON(t, ts, "/jobs/"+view.ID+"/result", &job); resp.StatusCode != http.StatusOK {
				t.Fatalf("result: %d", resp.StatusCode)
			}
			if job.Result == nil {
				t.Fatal("artifact has no result")
			}
			if len(job.Result.Engines) == 0 {
				t.Error("artifact result has no resolved engine labels")
			}
			if job.Result.WallNS <= 0 {
				t.Error("artifact result has no wall clock")
			}

			direct := runDirect(t, tc.spec)
			if got, want := verdictJSON(t, job.Result), verdictJSON(t, direct); got != want {
				t.Errorf("daemon artifact verdict differs from cmd/attack-style run:\n  daemon: %s\n  direct: %s", got, want)
			}
		})
	}
}

// runDirect executes the spec's case in-process through the same API a
// CLI run uses, returning the serialized result.
func runDirect(t *testing.T, spec server.JobSpec) *attack.ResultJSON {
	t.Helper()
	lockedC, err := bench.Parse(strings.NewReader(spec.Locked), "locked")
	if err != nil {
		t.Fatal(err)
	}
	engine, err := sat.ParseEngineSpec(spec.Solver)
	if err != nil {
		t.Fatal(err)
	}
	setup := attack.NewSolverSetup(engine, nil, false)
	tgt := attack.Target{
		Locked:        lockedC,
		H:             spec.H,
		Seed:          spec.Seed,
		MaxIterations: spec.MaxIterations,
		Candidates:    spec.Candidates,
		Solver:        setup.Factory(),
	}
	if spec.Oracle != "" {
		origC, err := bench.Parse(strings.NewReader(spec.Oracle), "oracle")
		if err != nil {
			t.Fatal(err)
		}
		tgt.Oracle = oracle.NewSim(origC)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := attack.Run(ctx, spec.Attack, tgt)
	if err != nil {
		t.Fatal(err)
	}
	rj := res.JSON()
	return &rj
}

// TestEventStream subscribes to a job's event stream and checks the
// lifecycle arrives in order with increasing sequence numbers, in both
// NDJSON and SSE encodings (replay makes the result independent of
// whether the job finished before the subscription).
func TestEventStream(t *testing.T) {
	_, locked, _, _ := newTTLockFixture(t)
	_, ts := startDaemon(t, server.Config{Workers: 1})
	_, view := submit(t, ts, "", server.JobSpec{Attack: "fall", Locked: locked, Seed: 5})
	waitTerminal(t, ts, view.ID, 60*time.Second)

	t.Run("ndjson", func(t *testing.T) {
		resp, err := ts.Client().Get(ts.URL + "/jobs/" + view.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("Content-Type = %q", ct)
		}
		checkLifecycle(t, readNDJSON(t, resp))
	})
	t.Run("sse", func(t *testing.T) {
		req, _ := http.NewRequest("GET", ts.URL+"/jobs/"+view.ID+"/events", nil)
		req.Header.Set("Accept", "text/event-stream")
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			t.Errorf("Content-Type = %q", ct)
		}
		checkLifecycle(t, readSSE(t, resp))
	})
}

func readNDJSON(t *testing.T, resp *http.Response) []server.Event {
	t.Helper()
	var evs []server.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev server.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	return evs
}

func readSSE(t *testing.T, resp *http.Response) []server.Event {
	t.Helper()
	var evs []server.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev server.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE frame %q: %v", line, err)
		}
		evs = append(evs, ev)
	}
	return evs
}

func checkLifecycle(t *testing.T, evs []server.Event) {
	t.Helper()
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	var states []string
	var lastSeq int64
	for _, ev := range evs {
		if ev.Type != server.EventJob {
			t.Errorf("unexpected event type %q", ev.Type)
		}
		if ev.Seq <= lastSeq {
			t.Errorf("sequence not increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		states = append(states, ev.State)
	}
	want := []string{"queued", "running", "done"}
	if fmt.Sprint(states) != fmt.Sprint(want) {
		t.Errorf("lifecycle = %v, want %v", states, want)
	}
	if evs[len(evs)-1].Status == "" {
		t.Error("terminal event has no attack status")
	}
}

// TestSubmitValidation exercises the 400 paths: unknown attack, missing
// circuit, oracle-guided attack without oracle, bad solver spec,
// unknown JSON fields — among them the retired portfolio field, in
// any spelling.
func TestSubmitValidation(t *testing.T) {
	_, locked, _, _ := newTTLockFixture(t)
	_, ts := startDaemon(t, server.Config{Workers: 1})
	bad := []struct {
		name string
		body string
	}{
		{"unknown attack", `{"attack":"nope","locked":"x"}`},
		{"no locked", `{"attack":"fall"}`},
		{"no oracle", fmt.Sprintf(`{"attack":"sat","locked":%q}`, locked)},
		{"bad solver", fmt.Sprintf(`{"attack":"fall","locked":%q,"solver":"martian"}`, locked)},
		{"negative portfolio", fmt.Sprintf(`{"attack":"fall","locked":%q,"portfolio":"-2"}`, locked)},
		{"oversized portfolio", fmt.Sprintf(`{"attack":"fall","locked":%q,"portfolio":"9223372036854775807"}`, locked)},
		{"portfolio", fmt.Sprintf(`{"attack":"fall","locked":%q,"portfolio":"3"}`, locked)},
		{"unknown field", fmt.Sprintf(`{"attack":"fall","locked":%q,"timeout":5}`, locked)},
		{"bad bench", `{"attack":"fall","locked":"INPUT("}`},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status = %d, want 400", resp.StatusCode)
			}
		})
	}
	if resp := getJSON(t, ts, "/jobs/0123456789abcdef", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, ts, "/jobs/../../etc/passwd", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("traversal id: %d, want 404", resp.StatusCode)
	}
}

// TestCancelRunningJob deletes a job mid-solve (hermetically slow via
// the sleeping stub solver) and checks it lands in cancelled with the
// worker freed.
func TestCancelRunningJob(t *testing.T) {
	orig, locked := newTinyTTLockFixture(t)
	spec := slowSolverSpec(t, "") // unconditionally slow
	_, ts := startDaemon(t, server.Config{Workers: 1})

	_, view := submit(t, ts, "", server.JobSpec{Attack: "sat", Locked: locked, Oracle: orig, Solver: spec})
	waitState(t, ts, view.ID, server.StateRunning, 30*time.Second)

	req, _ := http.NewRequest("DELETE", ts.URL+"/jobs/"+view.ID, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE: %d", resp.StatusCode)
	}
	final := waitTerminal(t, ts, view.ID, 30*time.Second)
	if final.State != server.StateCancelled {
		t.Errorf("state = %s, want cancelled", final.State)
	}
	// The artifact is fetchable (terminal) and carries no result.
	var job server.Job
	if resp := getJSON(t, ts, "/jobs/"+view.ID+"/result", &job); resp.StatusCode != http.StatusOK {
		t.Fatalf("result of cancelled job: %d", resp.StatusCode)
	}
	if job.Result != nil {
		t.Error("cancelled job persisted a result")
	}
	// The freed worker still serves new jobs.
	_, v2 := submit(t, ts, "", server.JobSpec{Attack: "fall", Locked: locked, Seed: 5})
	if final := waitTerminal(t, ts, v2.ID, 60*time.Second); final.State != server.StateDone {
		t.Errorf("follow-up job finished %s", final.State)
	}
	// Cancelling a terminal job conflicts.
	req, _ = http.NewRequest("DELETE", ts.URL+"/jobs/"+view.ID, nil)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("DELETE terminal: %d, want 409", resp.StatusCode)
	}
}

// TestMetrics checks /metrics.prom reports job states, queue depth and
// pool size, and that no JSON /metrics route remains.
func TestMetrics(t *testing.T) {
	_, locked, _, _ := newTTLockFixture(t)
	_, ts := startDaemon(t, server.Config{Workers: 2})
	_, view := submit(t, ts, "metrics-tenant", server.JobSpec{Attack: "fall", Locked: locked, Seed: 5})
	if final := waitTerminal(t, ts, view.ID, 60*time.Second); final.State != server.StateDone {
		t.Fatalf("job finished %s", final.State)
	}
	m := scrape(t, ts)
	if got := m[`attackd_jobs{state="done"}`]; got != 1 {
		t.Errorf("done jobs = %v, want 1", got)
	}
	if got, ok := m["attackd_queue_depth"]; !ok || got != 0 {
		t.Errorf("queue depth = %v (present %v), want 0", got, ok)
	}
	if got := m["attackd_workers"]; got != 2 {
		t.Errorf("workers = %v, want 2", got)
	}
	if resp := getJSON(t, ts, "/metrics", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /metrics: %d, want 404", resp.StatusCode)
	}
}

// TestMemoMetrics checks the daemon-global verdict memo's series: a
// repeated job hits the memory tier and writes through to disk, a
// daemon restarted on the same store answers from disk, and a daemon
// without a memo exposes no memo series.
func TestMemoMetrics(t *testing.T) {
	_, locked, _, _ := newTTLockFixture(t)
	dir := t.TempDir()
	memoOn := func(t *testing.T) *sat.Memo {
		t.Helper()
		d, err := sat.OpenDiskMemo(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		m := sat.NewMemo(0)
		m.AttachDisk(d)
		return m
	}
	run := func(t *testing.T, ts *httptest.Server) {
		t.Helper()
		_, view := submit(t, ts, "", server.JobSpec{Attack: "fall", Locked: locked, Seed: 5})
		if final := waitTerminal(t, ts, view.ID, 60*time.Second); final.State != server.StateDone {
			t.Fatalf("job finished %s", final.State)
		}
	}

	_, a := startDaemon(t, server.Config{Workers: 1, Memo: memoOn(t)})
	run(t, a)
	run(t, a)
	m := scrape(t, a)
	for _, series := range []string{
		"attackd_memo_hits_total",
		"attackd_memo_misses_total",
		"attackd_memo_entries",
		"attackd_memo_disk_writes_total",
		"attackd_memo_disk_entries",
		"attackd_memo_disk_bytes",
	} {
		if m[series] <= 0 {
			t.Errorf("%s = %v after a repeated job, want > 0", series, m[series])
		}
	}
	if got, ok := m["attackd_memo_disk_errors_total"]; !ok || got != 0 {
		t.Errorf("attackd_memo_disk_errors_total = %v (present %v) on a writable store, want 0", got, ok)
	}

	// A fresh memo over the same store: the restarted daemon resumes
	// warm.
	_, b := startDaemon(t, server.Config{Workers: 1, Memo: memoOn(t)})
	run(t, b)
	if got := scrape(t, b)["attackd_memo_disk_hits_total"]; got <= 0 {
		t.Errorf("attackd_memo_disk_hits_total = %v on a warm store, want > 0", got)
	}

	_, c := startDaemon(t, server.Config{Workers: 1})
	for series := range scrape(t, c) {
		if strings.HasPrefix(series, "attackd_memo_") {
			t.Errorf("memo-less daemon exposes %s", series)
		}
	}
}

// slowSolverSpec returns a process-engine spec whose solver sleeps
// (hermetically, via the in-repo stub DIMACS solver) whenever gate is a
// path to an existing file; gate == "" means unconditionally slow. The
// sleep makes any SAT-querying job occupy its worker until cancelled.
func slowSolverSpec(t *testing.T, gate string) string {
	t.Helper()
	if runtime.GOOS == "windows" {
		t.Skip("slow-solver wrapper is a shell script")
	}
	stub := testsolver.Build(t)
	script := filepath.Join(t.TempDir(), "slowstub")
	var body string
	if gate == "" {
		body = "#!/bin/sh\nexec " + stub + " -sleep=120s \"$@\"\n"
	} else {
		body = "#!/bin/sh\nif [ -e " + gate + " ]; then exec " + stub + " -sleep=120s \"$@\"; fi\nexec " + stub + " \"$@\"\n"
	}
	if err := os.WriteFile(script, []byte(body), 0o755); err != nil {
		t.Fatal(err)
	}
	return "process:cmd=" + script
}
