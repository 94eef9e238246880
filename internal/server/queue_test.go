package server_test

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/server"
)

// TestBackpressureQueueFull fills a depth-1 queue behind a single
// worker stuck in a slow solve and checks the next submission is
// rejected with 429 + Retry-After instead of queueing unboundedly.
func TestBackpressureQueueFull(t *testing.T) {
	orig, locked := newTinyTTLockFixture(t)
	spec := slowSolverSpec(t, "")
	_, ts := startDaemon(t, server.Config{Workers: 1, QueueDepth: 1})

	slow := server.JobSpec{Attack: "sat", Locked: locked, Oracle: orig, Solver: spec}

	// First job occupies the only worker…
	_, v1 := submit(t, ts, "", slow)
	waitState(t, ts, v1.ID, server.StateRunning, 30*time.Second)
	// …second fills the queue…
	resp, v2 := submit(t, ts, "", slow)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", resp.StatusCode)
	}
	// …third must bounce with explicit backpressure.
	resp, _ = submit(t, ts, "", slow)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// The rejected job must leave nothing behind: exactly two jobs
	// listed, both from the accepted submissions.
	var views []server.JobView
	getJSON(t, ts, "/jobs", &views)
	if len(views) != 2 {
		t.Fatalf("listed %d jobs after rejection, want 2", len(views))
	}
	for _, v := range views {
		if v.ID != v1.ID && v.ID != v2.ID {
			t.Errorf("unexpected job %s in list", v.ID)
		}
	}
}

// TestTenantConcurrencyFairness caps each tenant at one running job on
// a two-worker pool: tenant A's second slow job must wait in the queue
// without blocking tenant B's job from being dispatched and finishing.
func TestTenantConcurrencyFairness(t *testing.T) {
	orig, locked := newTinyTTLockFixture(t)
	spec := slowSolverSpec(t, "")
	_, ts := startDaemon(t, server.Config{Workers: 2, TenantConcurrency: 1})

	slow := server.JobSpec{Attack: "sat", Locked: locked, Oracle: orig, Solver: spec}

	_, a1 := submit(t, ts, "tenant-a", slow)
	waitState(t, ts, a1.ID, server.StateRunning, 30*time.Second)
	// A second job from the same tenant may not claim the free worker…
	_, a2 := submit(t, ts, "tenant-a", slow)
	// …but tenant B's job, submitted after it, must run and finish.
	_, b1 := submit(t, ts, "tenant-b", server.JobSpec{Attack: "fall", Locked: locked, Seed: 5})
	if final := waitTerminal(t, ts, b1.ID, 60*time.Second); final.State != server.StateDone {
		t.Fatalf("tenant B's job finished %s; starved behind tenant A's queue?", final.State)
	}
	var view server.JobView
	getJSON(t, ts, "/jobs/"+a2.ID, &view)
	if view.State != server.StateQueued {
		t.Errorf("tenant A's second job is %s, want queued (tenant cap 1)", view.State)
	}

	// Metrics attribute the queue to the capped tenant.
	m := scrape(t, ts)
	running := m[`attackd_tenant_jobs{tenant="tenant-a",phase="running"}`]
	queued := m[`attackd_tenant_jobs{tenant="tenant-a",phase="queued"}`]
	if running != 1 || queued != 1 {
		t.Errorf("tenant-a metrics: %v running / %v queued, want 1 / 1", running, queued)
	}

	// Cancelling A's running job releases its slot and the queued one
	// dispatches.
	req, _ := http.NewRequest("DELETE", ts.URL+"/jobs/"+a1.ID, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts, a2.ID, server.StateRunning, 30*time.Second)
}

// TestTenantRateLimit drives submissions past the per-tenant token
// bucket and checks over-rate requests get 429 + Retry-After while a
// different tenant is unaffected.
func TestTenantRateLimit(t *testing.T) {
	_, locked, _, _ := newTTLockFixture(t)
	// Practically zero refill: the burst is the whole budget.
	_, ts := startDaemon(t, server.Config{Workers: 1, TenantRate: 0.001, TenantBurst: 2})

	job := server.JobSpec{Attack: "fall", Locked: locked, Seed: 5}
	for i := 0; i < 2; i++ {
		if resp, _ := submit(t, ts, "hot", job); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d within burst: %d", i, resp.StatusCode)
		}
	}
	resp, _ := submit(t, ts, "hot", job)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-burst submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("rate-limited 429 without Retry-After")
	}
	// Buckets are per tenant: a different key still has its burst.
	if resp, _ := submit(t, ts, "cold", job); resp.StatusCode != http.StatusAccepted {
		t.Errorf("other tenant's submit: %d, want 202", resp.StatusCode)
	}
}
