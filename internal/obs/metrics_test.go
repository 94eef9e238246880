package obs

import (
	"regexp"
	"strings"
	"testing"
)

func TestRegistryWriteText(t *testing.T) {
	r := NewRegistry()
	r.CollectCounter("jobs_total", "Jobs submitted.", func() []Sample { return []Sample{{Value: 3}} })
	r.CollectGauge("queue_depth", "Queued jobs.", func() []Sample { return []Sample{{Value: 2}} })
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(10)
	r.CollectGauge("tenant_jobs", "Per-tenant load.", func() []Sample {
		return []Sample{
			{Labels: []Label{{Key: "tenant", Value: "z"}}, Value: 1},
			{Labels: []Label{{Key: "tenant", Value: `a"b\c`}}, Value: 2},
		}
	})

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP jobs_total Jobs submitted.\n# TYPE jobs_total counter\njobs_total 3\n",
		"# TYPE queue_depth gauge\nqueue_depth 2\n",
		"lat_seconds_bucket{le=\"0.1\"} 1\n",
		"lat_seconds_bucket{le=\"1\"} 2\n",
		"lat_seconds_bucket{le=\"+Inf\"} 3\n",
		"lat_seconds_sum 10.55\n",
		"lat_seconds_count 3\n",
		`tenant_jobs{tenant="a\"b\\c"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Collector samples render sorted by label key — deterministic scrapes.
	if strings.Index(out, `tenant="a`) > strings.Index(out, `tenant="z"`) {
		t.Errorf("collector samples unsorted:\n%s", out)
	}

	// Every non-comment line must match the exposition grammar:
	// name{labels} value.
	lineRE := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9eE+.]+(Inf)?$`)
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !lineRE.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
}
