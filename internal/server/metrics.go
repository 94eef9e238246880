package server

import (
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/sat"
)

// Metrics is the GET /metrics document: queue pressure, job states,
// per-tenant load, and the daemon-wide per-engine portfolio win ledger
// aggregated (sat.MergeStats) across every finished job that raced.
type Metrics struct {
	// UptimeNS is the daemon's uptime in integer nanoseconds (the _ns
	// suffix is the API-wide contract, shared with wall_ns/solve_ns in
	// job artifacts).
	UptimeNS   int64 `json:"uptime_ns"`
	Workers    int   `json:"workers"`
	QueueDepth int   `json:"queue_depth"`
	QueueCap   int   `json:"queue_cap"`
	Draining   bool  `json:"draining,omitempty"`
	// Jobs counts jobs by lifecycle state.
	Jobs map[JobState]int `json:"jobs"`
	// Tenants reports per-tenant queued/running counts, keyed by
	// tenant.
	Tenants map[string]TenantMetrics `json:"tenants,omitempty"`
	// Portfolio is the aggregated per-engine racing ledger.
	Portfolio []sat.ConfigStats `json:"portfolio,omitempty"`
	// MemoHits/MemoMisses/MemoEntries report the daemon-global verdict
	// cache when the daemon runs with one (Config.Memo). MemoHits counts
	// in-memory (L1) answers; MemoDiskHits on-disk (L2) answers;
	// MemoCapped decided results dropped by the in-memory entry cap.
	MemoHits    int64 `json:"memo_hits,omitempty"`
	MemoMisses  int64 `json:"memo_misses,omitempty"`
	MemoEntries int   `json:"memo_entries,omitempty"`
	MemoCapped  int64 `json:"memo_capped,omitempty"`
	// MemoDisk* report the persistent on-disk tier when one is attached
	// (-memo-dir): the cache that survives daemon restarts.
	MemoDiskHits    int64 `json:"memo_disk_hits,omitempty"`
	MemoDiskEntries int64 `json:"memo_disk_entries,omitempty"`
	MemoDiskBytes   int64 `json:"memo_disk_bytes,omitempty"`
}

// TenantMetrics is one tenant's live load.
type TenantMetrics struct {
	Queued  int `json:"queued,omitempty"`
	Running int `json:"running,omitempty"`
}

// Snapshot assembles the current metrics.
func (s *Server) Snapshot() Metrics {
	queued, running := s.queue.Snapshot()
	s.mu.Lock()
	m := Metrics{
		UptimeNS:   int64(time.Since(s.started)),
		Workers:    s.cfg.Workers,
		QueueDepth: s.queue.Depth(),
		QueueCap:   s.cfg.QueueDepth,
		Draining:   s.draining,
		Jobs:       map[JobState]int{},
		Portfolio:  sat.MergeStats(s.stats),
	}
	for _, j := range s.jobs {
		m.Jobs[j.State]++
	}
	if s.cfg.Memo != nil {
		// Sampled inside the lock like the rest of the snapshot, so the
		// memo counters are consistent with the job states reported
		// alongside them (a job cannot finalize mid-snapshot).
		st := s.cfg.Memo.Stats()
		m.MemoHits, m.MemoMisses, m.MemoEntries = st.Hits, st.Misses, s.cfg.Memo.Len()
		m.MemoDiskHits, m.MemoCapped = st.DiskHits, st.Capped
		if disk := s.cfg.Memo.Disk(); disk != nil {
			ds := disk.Stats()
			m.MemoDiskEntries, m.MemoDiskBytes = ds.Entries, ds.Bytes
		}
	}
	s.mu.Unlock()
	if len(queued)+len(running) > 0 {
		m.Tenants = map[string]TenantMetrics{}
		for t, n := range queued {
			tm := m.Tenants[t]
			tm.Queued = n
			m.Tenants[t] = tm
		}
		for t, n := range running {
			tm := m.Tenants[t]
			tm.Running = n
			m.Tenants[t] = tm
		}
	}
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

// buildRegistry wires the Prometheus-text registry served at
// GET /metrics.prom. Histograms are observed live in runJob; everything
// with a dynamic label set (job states, tenants, engines) is a
// collector callback sampled at scrape time.
func (s *Server) buildRegistry() {
	r := obs.NewRegistry()
	s.reg = r
	s.jobSeconds = r.Histogram("attackd_job_seconds",
		"Wall-clock duration of finished job runs in seconds.", nil)
	s.solveSeconds = r.Histogram("attackd_solve_seconds",
		"Cumulative SAT solve time per finished job in seconds.", nil)
	one := func(v float64) []obs.Sample { return []obs.Sample{{Value: v}} }
	r.CollectGauge("attackd_uptime_seconds", "Daemon uptime in seconds.", func() []obs.Sample {
		return one(time.Since(s.started).Seconds())
	})
	r.CollectGauge("attackd_workers", "Job worker-pool size.", func() []obs.Sample {
		return one(float64(s.cfg.Workers))
	})
	r.CollectGauge("attackd_queue_depth", "Jobs currently queued (undispatched).", func() []obs.Sample {
		return one(float64(s.queue.Depth()))
	})
	r.CollectGauge("attackd_queue_capacity", "Bounded job-queue capacity.", func() []obs.Sample {
		return one(float64(s.cfg.QueueDepth))
	})
	r.CollectGauge("attackd_draining", "1 while a graceful drain is in progress.", func() []obs.Sample {
		s.mu.Lock()
		defer s.mu.Unlock()
		v := 0.0
		if s.draining {
			v = 1
		}
		return one(v)
	})
	r.CollectGauge("attackd_jobs", "Jobs by lifecycle state.", func() []obs.Sample {
		s.mu.Lock()
		counts := map[JobState]int{}
		for _, j := range s.jobs {
			counts[j.State]++
		}
		s.mu.Unlock()
		out := make([]obs.Sample, 0, len(counts))
		for st, n := range counts {
			out = append(out, obs.Sample{
				Labels: []obs.Label{{Key: "state", Value: string(st)}},
				Value:  float64(n),
			})
		}
		return out
	})
	r.CollectGauge("attackd_tenant_jobs", "Per-tenant queued/running job counts.", func() []obs.Sample {
		queued, running := s.queue.Snapshot()
		var out []obs.Sample
		for t, n := range queued {
			out = append(out, obs.Sample{
				Labels: []obs.Label{{Key: "tenant", Value: t}, {Key: "phase", Value: "queued"}},
				Value:  float64(n),
			})
		}
		for t, n := range running {
			out = append(out, obs.Sample{
				Labels: []obs.Label{{Key: "tenant", Value: t}, {Key: "phase", Value: "running"}},
				Value:  float64(n),
			})
		}
		return out
	})
	r.CollectCounter("attackd_engine_wins_total", "Portfolio races won, by engine.", func() []obs.Sample {
		stats := s.Stats()
		out := make([]obs.Sample, 0, len(stats))
		for _, st := range stats {
			out = append(out, obs.Sample{
				Labels: []obs.Label{{Key: "engine", Value: st.Config}},
				Value:  float64(st.Wins),
			})
		}
		return out
	})
	if s.cfg.Memo != nil {
		r.CollectCounter("attackd_memo_hits_total", "Daemon-global verdict-cache hits.", func() []obs.Sample {
			return one(float64(s.cfg.Memo.Stats().Hits))
		})
		r.CollectCounter("attackd_memo_misses_total", "Daemon-global verdict-cache misses.", func() []obs.Sample {
			return one(float64(s.cfg.Memo.Stats().Misses))
		})
		r.CollectGauge("attackd_memo_entries", "Daemon-global verdict-cache resident entries.", func() []obs.Sample {
			return one(float64(s.cfg.Memo.Len()))
		})
		r.CollectCounter("attackd_memo_capped_total", "Decided results dropped by the in-memory verdict-cache entry cap.", func() []obs.Sample {
			return one(float64(s.cfg.Memo.Stats().Capped))
		})
		if disk := s.cfg.Memo.Disk(); disk != nil {
			r.CollectCounter("attackd_memo_disk_hits_total", "Persistent on-disk verdict-store hits.", func() []obs.Sample {
				return one(float64(disk.Stats().Hits))
			})
			r.CollectCounter("attackd_memo_disk_writes_total", "Verdict records persisted to the on-disk store.", func() []obs.Sample {
				return one(float64(disk.Stats().Writes))
			})
			r.CollectCounter("attackd_memo_disk_evictions_total", "On-disk verdict records evicted by the size-cap compaction.", func() []obs.Sample {
				return one(float64(disk.Stats().Evictions))
			})
			r.CollectCounter("attackd_memo_disk_corrupt_total", "On-disk verdict records rejected by validation and deleted.", func() []obs.Sample {
				return one(float64(disk.Stats().Corrupt))
			})
			r.CollectGauge("attackd_memo_disk_entries", "Resident on-disk verdict records.", func() []obs.Sample {
				return one(float64(disk.Stats().Entries))
			})
			r.CollectGauge("attackd_memo_disk_bytes", "Resident on-disk verdict-store size in bytes.", func() []obs.Sample {
				return one(float64(disk.Stats().Bytes))
			})
		}
	}
}

// handlePromMetrics serves the registry in the Prometheus text
// exposition format (version 0.0.4).
func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteText(w)
}

// Stats returns the aggregated per-engine win statistics in
// first-seen label order (the sat.MergeStats convention).
func (s *Server) Stats() []sat.ConfigStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]sat.ConfigStats, len(s.stats))
	copy(out, s.stats)
	return out
}
