package server

import (
	"net/http"
	"time"

	"repro/internal/obs"
)

// buildRegistry wires the Prometheus-text registry served at
// GET /metrics.prom. Histograms are observed live in runJob; everything
// with a dynamic label set (job states, tenants) is a collector
// callback sampled at scrape time.
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
				return one(float64(s.cfg.Memo.Stats().DiskHits))
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
			r.CollectCounter("attackd_memo_disk_errors_total", "On-disk verdict-store I/O errors (unwritable records, unreadable directories); lookups fall back to the memory tier.", func() []obs.Sample {
				return one(float64(disk.Stats().Errors))
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
