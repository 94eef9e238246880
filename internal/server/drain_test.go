package server_test

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// TestDrainFinishesInFlight checks a drain with ample grace lets an
// in-flight job run to completion instead of cancelling it.
func TestDrainFinishesInFlight(t *testing.T) {
	_, locked, _, _ := newTTLockFixture(t)
	dir := t.TempDir()
	srv, ts := startDaemon(t, server.Config{Workers: 1, Dir: dir})

	_, view := submit(t, ts, "", server.JobSpec{Attack: "fall", Locked: locked, Seed: 5})
	// Drain stops dispatch immediately, so only start draining once the
	// job has been dispatched (fast attacks may already be done).
	deadline := time.Now().Add(30 * time.Second)
	for {
		var v server.JobView
		getJSON(t, ts, "/jobs/"+view.ID, &v)
		if v.State != server.StateQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never dispatched")
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv.Drain(60 * time.Second)

	st, err := server.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := st.Get(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != server.StateDone {
		t.Errorf("after drain job is %s, want done", j.State)
	}
	if j.Result == nil {
		t.Error("drained job has no result")
	}
}

// TestDrainCancelRequeuesAndResumes is the SIGTERM-mid-solve scenario:
// a job stuck in a slow solve is cancelled when the grace expires, goes
// back to queued on disk with no truncated artifacts, and a fresh
// daemon on the same store resumes and completes it (the gate file that
// made the solver slow is removed before the restart).
func TestDrainCancelRequeuesAndResumes(t *testing.T) {
	orig, locked := newTinyTTLockFixture(t)
	dir := t.TempDir()
	gate := filepath.Join(t.TempDir(), "slow-gate")
	if err := os.WriteFile(gate, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	spec := slowSolverSpec(t, gate)

	srv, ts := startDaemon(t, server.Config{Workers: 1, Dir: dir})
	slow := server.JobSpec{Attack: "sat", Locked: locked, Oracle: orig, Seed: 5, Solver: spec}
	_, running := submit(t, ts, "drain-tenant", slow)
	waitState(t, ts, running.ID, server.StateRunning, 30*time.Second)
	// A second job that never dispatches: it must survive the restart
	// as queued too.
	_, queued := submit(t, ts, "drain-tenant", slow)

	// SIGTERM path: tiny grace, the running solve cannot finish, the
	// drain cancels it mid-query.
	done := make(chan struct{})
	go func() {
		srv.Drain(50 * time.Millisecond)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("drain did not return; cancelled solve not unwinding?")
	}

	// The store must hold only complete artifacts: every file parses,
	// no temp files, both jobs queued with no partial result.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("truncated temp artifact %s left behind", e.Name())
		}
	}
	st, err := server.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := st.List()
	if err != nil {
		t.Fatalf("store not fully parseable after drain: %v", err)
	}
	if len(jobs) != 2 {
		t.Fatalf("store holds %d jobs, want 2", len(jobs))
	}
	for _, j := range jobs {
		if j.State != server.StateQueued {
			t.Errorf("job %s is %s after drain, want queued", j.ID, j.State)
		}
		if j.Result != nil {
			t.Errorf("job %s persisted a result from a cancelled solve", j.ID)
		}
		if j.Started != nil {
			t.Errorf("requeued job %s still marked started", j.ID)
		}
	}

	// Remove the gate: the stub now answers instantly. A fresh daemon
	// on the same directory must pick both jobs up and finish them.
	if err := os.Remove(gate); err != nil {
		t.Fatal(err)
	}
	_, ts2 := startDaemon(t, server.Config{Workers: 2, Dir: dir})
	for _, id := range []string{running.ID, queued.ID} {
		final := waitTerminal(t, ts2, id, 60*time.Second)
		if final.State != server.StateDone {
			t.Errorf("resumed job %s finished %s (error %q)", id, final.State, final.Error)
		}
	}
}

// TestRestartServesFinishedArtifacts checks a restarted daemon serves
// terminal artifacts from the prior run byte-for-byte without
// re-running anything.
func TestRestartServesFinishedArtifacts(t *testing.T) {
	_, locked, _, _ := newTTLockFixture(t)
	dir := t.TempDir()
	srv, ts := startDaemon(t, server.Config{Workers: 1, Dir: dir})
	_, view := submit(t, ts, "", server.JobSpec{Attack: "fall", Locked: locked, Seed: 5})
	waitTerminal(t, ts, view.ID, 60*time.Second)

	st, err := server.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	before, err := st.Raw(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	srv.Drain(10 * time.Second)

	_, ts2 := startDaemon(t, server.Config{Workers: 1, Dir: dir})
	resp, err := ts2.Client().Get(ts2.URL + "/jobs/" + view.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result after restart: %d", resp.StatusCode)
	}
	after, err := st.Raw(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("restart rewrote a finished artifact")
	}
}

// TestSubmitDuringDrainRejected checks the daemon refuses new work once
// draining, with 503.
func TestSubmitDuringDrainRejected(t *testing.T) {
	orig, locked := newTinyTTLockFixture(t)
	spec := slowSolverSpec(t, "")
	srv, ts := startDaemon(t, server.Config{Workers: 1})
	slow := server.JobSpec{Attack: "sat", Locked: locked, Oracle: orig, Solver: spec}
	_, v := submit(t, ts, "", slow)
	waitState(t, ts, v.ID, server.StateRunning, 30*time.Second)

	done := make(chan struct{})
	go func() {
		// Short grace: the slow solve cannot finish, so the drain
		// cancels it back to queued and returns quickly.
		srv.Drain(300 * time.Millisecond)
		close(done)
	}()
	// Wait for the drain flag to be visible via /metrics.prom.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if scrape(t, ts)["attackd_draining"] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("metrics never reported draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, _ := submit(t, ts, "", server.JobSpec{Attack: "fall", Locked: locked})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit during drain: %d, want 503", resp.StatusCode)
	}
	<-done
}
