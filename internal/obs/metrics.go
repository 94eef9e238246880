package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// This file is the metrics half of the observability layer: a small
// registry of collector callbacks and histograms rendered in the
// Prometheus text exposition format (version 0.0.4). A collector is
// sampled at scrape time from the state it reports on, so each
// statistic has one definition and dynamic label sets (per-tenant
// load, jobs by state) need no pre-registration.

// Label is one name="value" pair. Labels render in the order given.
type Label struct {
	Key, Value string
}

// Histogram is a cumulative-bucket histogram over float64
// observations (Prometheus _bucket/_sum/_count semantics).
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64 // ascending upper bounds, +Inf implicit
	buckets []uint64  // per-bound counts (non-cumulative internally)
	sum     float64
	count   uint64
}

// DefaultLatencyBuckets spans 100µs to ~100s in half-decade steps —
// wide enough for both memo hits and external-solver stragglers.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 50, 100,
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += v
	h.count++
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i]++
			return
		}
	}
}

func (h *Histogram) snapshot() (bounds []float64, cum []uint64, sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	bounds = h.bounds
	cum = make([]uint64, len(h.buckets))
	var acc uint64
	for i, c := range h.buckets {
		acc += c
		cum[i] = acc
	}
	return bounds, cum, h.sum, h.count
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Sample is one labeled value emitted by a collector callback.
type Sample struct {
	Labels []Label
	Value  float64
}

// registration is one metric family: a histogram, or a collector
// callback of the given kind.
type registration struct {
	name, help string
	kind       metricKind
	hist       *Histogram
	collect    func() []Sample
}

// Registry holds registered metrics and renders them as Prometheus
// text. Registration order is preserved in the output.
type Registry struct {
	mu   sync.Mutex
	regs []*registration
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Histogram registers and returns a histogram with the given ascending
// bucket upper bounds (nil selects DefaultLatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	h := &Histogram{bounds: bounds, buckets: make([]uint64, len(bounds))}
	r.add(&registration{name: name, help: help, kind: kindHistogram, hist: h})
	return h
}

// CollectCounter registers a counter-typed collector callback sampled
// at every scrape — the mechanism for dynamic label sets.
func (r *Registry) CollectCounter(name, help string, fn func() []Sample) {
	r.add(&registration{name: name, help: help, kind: kindCounter, collect: fn})
}

// CollectGauge registers a gauge-typed collector callback.
func (r *Registry) CollectGauge(name, help string, fn func() []Sample) {
	r.add(&registration{name: name, help: help, kind: kindGauge, collect: fn})
}

func (r *Registry) add(reg *registration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.regs = append(r.regs, reg)
}

// WriteText renders every registered metric in the Prometheus text
// exposition format.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	regs := make([]*registration, len(r.regs))
	copy(regs, r.regs)
	r.mu.Unlock()

	var b strings.Builder
	for _, reg := range regs {
		fmt.Fprintf(&b, "# HELP %s %s\n", reg.name, escapeHelp(reg.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", reg.name, reg.kind)
		if reg.hist == nil {
			samples := reg.collect()
			sort.SliceStable(samples, func(i, j int) bool {
				return labelKey(samples[i].Labels) < labelKey(samples[j].Labels)
			})
			for _, s := range samples {
				fmt.Fprintf(&b, "%s%s %s\n", reg.name, renderLabels(s.Labels), formatFloat(s.Value))
			}
			continue
		}
		bounds, cum, sum, count := reg.hist.snapshot()
		for i, ub := range bounds {
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", reg.name, formatFloat(ub), cum[i])
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", reg.name, count)
		fmt.Fprintf(&b, "%s_sum %s\n", reg.name, formatFloat(sum))
		fmt.Fprintf(&b, "%s_count %d\n", reg.name, count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func labelKey(ls []Label) string {
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = l.Key + "=" + l.Value
	}
	return strings.Join(parts, ",")
}

func renderLabels(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString("=\"")
		b.WriteString(escapeLabel(l.Value))
		b.WriteString("\"")
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
