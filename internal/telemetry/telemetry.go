// Package telemetry is the repository's Caliper-style instrumentation layer:
// a registry of named metrics (atomic counters and gauges, log-scale latency
// histograms), wall-clock region timing, a virtual-time span timeline
// exportable as Chrome trace-event JSON (viewable in ui.perfetto.dev), an
// in-memory event stream, and an optional HTTP endpoint exposing metric
// snapshots plus net/http/pprof.
//
// The layer is globally switched: until Enable is called every instrument is
// a nil-or-flag check and nothing is recorded, so instrumented hot paths cost
// one atomic load when telemetry is off. Instrumentation never feeds back
// into the system it observes — virtual clocks, traces and generated
// benchmarks are bit-identical with telemetry on or off (pinned by the
// repository's differential tests).
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// enabled is the global switch read by every instrument's fast path.
var enabled atomic.Bool

// Enable turns collection on. Handles created before Enable start recording
// from this point; nothing recorded earlier is lost (there is nothing).
func Enable() { enabled.Store(true) }

// Disable turns collection off. Recorded values remain readable.
func Disable() { enabled.Store(false) }

// Enabled reports whether collection is on.
func Enabled() bool { return enabled.Load() }

// Counter is a monotonically increasing metric. The zero of operations: one
// atomic load (the global switch) plus one atomic add when enabled.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter by n. No-op when telemetry is disabled or c is
// nil.
func (c *Counter) Add(n int64) {
	if c == nil || !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Gauge is a set-or-adjust metric (e.g. the group count of the last merge).
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set stores v. No-op when telemetry is disabled or g is nil.
func (g *Gauge) Set(v int64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.v.Add(n)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram records duration samples (microseconds) into the trace
// pipeline's log-scale bins (internal/stats).
type Histogram struct {
	name string
	mu   sync.Mutex
	h    *stats.Histogram
}

// Observe records one sample. No-op when telemetry is disabled or h is nil.
func (h *Histogram) Observe(v float64) {
	if h == nil || !enabled.Load() {
		return
	}
	h.mu.Lock()
	h.h.Add(v)
	h.mu.Unlock()
}

// Stats returns a Clone: a struct copy would share a spilled bin array.
func (h *Histogram) Stats() stats.Histogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	return *h.h.Clone()
}

// Registry holds named metrics. All methods are safe for concurrent use;
// metric handles are created once and cached, so hot paths hold handles
// rather than performing name lookups.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// regions holds Region timing histograms, kept apart from user
	// histograms so snapshots can render them as a dedicated table.
	regions map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		regions:  make(map[string]*Histogram),
	}
}

// Default is the process-wide registry used by the package-level helpers and
// by every instrumented subsystem.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{name: name, h: stats.NewHistogram()}
		r.hists[name] = h
	}
	return h
}

// regionHist returns the named region histogram, creating it on first use.
func (r *Registry) regionHist(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.regions[name]
	if !ok {
		h = &Histogram{name: name, h: stats.NewHistogram()}
		r.regions[name] = h
	}
	return h
}

// Reset zeroes every metric in the registry (handles stay valid) and clears
// the event stream when r is the default registry. Used between telemetry
// differential-test legs and at CLI start.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		h.mu.Lock()
		h.h = stats.NewHistogram()
		h.mu.Unlock()
	}
	for _, h := range r.regions {
		h.mu.Lock()
		h.h = stats.NewHistogram()
		h.mu.Unlock()
	}
	if r == Default {
		resetEvents()
	}
}

// NewCounter returns (creating if needed) a counter in the default registry.
// Intended for package-level handle variables in instrumented packages.
func NewCounter(name string) *Counter { return Default.Counter(name) }

// NewGauge returns a gauge in the default registry.
func NewGauge(name string) *Gauge { return Default.Gauge(name) }

// NewHistogram returns a histogram in the default registry.
func NewHistogram(name string) *Histogram { return Default.Histogram(name) }

// RegionStats summarizes one region's timing distribution in a snapshot.
// The quantiles are estimated from the log-scale bins (linear interpolation
// within the crossing bin, clamped to the exact min/max envelope).
type RegionStats struct {
	Count   uint64  `json:"count"`
	TotalUS float64 `json:"total_us"`
	MeanUS  float64 `json:"mean_us"`
	MinUS   float64 `json:"min_us"`
	MaxUS   float64 `json:"max_us"`
	P50US   float64 `json:"p50_us"`
	P95US   float64 `json:"p95_us"`
	P99US   float64 `json:"p99_us"`
}

// HistStats summarizes one user histogram in a snapshot, quantiles included
// (same bin-interpolated estimate as RegionStats).
type HistStats struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Snapshot is a point-in-time copy of a registry's metrics plus the global
// event stream, marshalable to JSON (the /metrics payload).
type Snapshot struct {
	Counters   map[string]int64       `json:"counters,omitempty"`
	Gauges     map[string]int64       `json:"gauges,omitempty"`
	Histograms map[string]HistStats   `json:"histograms,omitempty"`
	Regions    map[string]RegionStats `json:"regions,omitempty"`
	Events     []string               `json:"events,omitempty"`
}

// Snapshot copies the registry's current metric values.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistStats{},
		Regions:    map[string]RegionStats{},
	}
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	regions := make([]*Histogram, 0, len(r.regions))
	for _, h := range r.regions {
		regions = append(regions, h)
	}
	r.mu.Unlock()

	for _, c := range counters {
		s.Counters[c.name] = c.Value()
	}
	for _, g := range gauges {
		s.Gauges[g.name] = g.Value()
	}
	for _, h := range hists {
		d := h.Stats()
		if d.Count == 0 {
			continue
		}
		s.Histograms[h.name] = HistStats{
			Count: d.Count, Mean: d.Mean(), Min: d.Min, Max: d.Max,
			P50: d.Quantile(0.50), P95: d.Quantile(0.95), P99: d.Quantile(0.99),
		}
	}
	for _, h := range regions {
		d := h.Stats()
		if d.Count == 0 {
			continue
		}
		s.Regions[h.name] = RegionStats{
			Count: d.Count, TotalUS: d.Sum, MeanUS: d.Mean(), MinUS: d.Min, MaxUS: d.Max,
			P50US: d.Quantile(0.50), P95US: d.Quantile(0.95), P99US: d.Quantile(0.99),
		}
	}
	if r == Default {
		s.Events = Events()
	}
	return s
}

// WriteSummary renders the snapshot as the human-readable end-of-run table
// the -telemetry CLI flag prints. Zero-valued counters and gauges are
// omitted; names sort lexically so the table is stable.
func (s *Snapshot) WriteSummary(w io.Writer) {
	fmt.Fprintln(w, "== telemetry summary ==")
	names := make([]string, 0, len(s.Counters)+len(s.Gauges))
	kind := map[string]int64{}
	for n, v := range s.Counters {
		if v != 0 {
			names = append(names, n)
			kind[n] = v
		}
	}
	for n, v := range s.Gauges {
		if v != 0 {
			names = append(names, n)
			kind[n] = v
		}
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintf(w, "%-36s %14s\n", "metric", "value")
		for _, n := range names {
			fmt.Fprintf(w, "%-36s %14d\n", n, kind[n])
		}
	}
	if len(s.Regions) > 0 {
		rnames := make([]string, 0, len(s.Regions))
		for n := range s.Regions {
			rnames = append(rnames, n)
		}
		sort.Strings(rnames)
		fmt.Fprintf(w, "%-28s %7s %12s %12s %12s %12s %12s %12s\n",
			"region", "calls", "total", "mean", "p50", "p95", "p99", "max")
		for _, n := range rnames {
			r := s.Regions[n]
			fmt.Fprintf(w, "%-28s %7d %12s %12s %12s %12s %12s %12s\n",
				n, r.Count, fmtUS(r.TotalUS), fmtUS(r.MeanUS),
				fmtUS(r.P50US), fmtUS(r.P95US), fmtUS(r.P99US), fmtUS(r.MaxUS))
		}
	}
	for _, ev := range s.Events {
		fmt.Fprintf(w, "event: %s\n", ev)
	}
}

// fmtUS renders a microsecond quantity with a readable unit.
func fmtUS(us float64) string {
	switch {
	case us >= 1e6:
		return fmt.Sprintf("%.2fs", us/1e6)
	case us >= 1e3:
		return fmt.Sprintf("%.2fms", us/1e3)
	default:
		return fmt.Sprintf("%.1fus", us)
	}
}
