package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// withTelemetry enables collection on a clean default registry for the test
// and restores the disabled state afterwards. Telemetry state is global, so
// tests using it must not run in parallel with each other.
func withTelemetry(t *testing.T) {
	t.Helper()
	Default.Reset()
	Enable()
	t.Cleanup(func() {
		Disable()
		Default.Reset()
	})
}

func TestDisabledInstrumentsRecordNothing(t *testing.T) {
	Default.Reset()
	Disable()
	c := NewCounter("test.disabled_counter")
	g := NewGauge("test.disabled_gauge")
	h := NewHistogram("test.disabled_hist")
	c.Add(5)
	c.Inc()
	g.Set(9)
	h.Observe(1.5)
	Region("test.disabled_region")()
	Eventf("should not appear")
	if c.Value() != 0 || g.Value() != 0 {
		t.Errorf("disabled metrics recorded: counter=%d gauge=%d", c.Value(), g.Value())
	}
	if d := h.Stats(); d.Count != 0 {
		t.Errorf("disabled histogram recorded %d samples", d.Count)
	}
	if evs := Events(); len(evs) != 0 {
		t.Errorf("disabled event stream recorded %v", evs)
	}
	var nilC *Counter
	nilC.Add(1) // nil handles must be safe
	if nilC.Value() != 0 {
		t.Error("nil counter non-zero")
	}
}

func TestRegistryHandlesAreStable(t *testing.T) {
	withTelemetry(t)
	a := Default.Counter("test.same")
	b := Default.Counter("test.same")
	if a != b {
		t.Error("same name produced distinct counter handles")
	}
	a.Add(3)
	if b.Value() != 3 {
		t.Errorf("handle aliasing broken: got %d", b.Value())
	}
	Default.Reset()
	if a.Value() != 0 {
		t.Errorf("Reset left counter at %d", a.Value())
	}
	a.Inc() // handle stays live across Reset
	if a.Value() != 1 {
		t.Errorf("post-Reset increment lost: %d", a.Value())
	}
}

// TestConcurrentUse hammers every metric kind from many goroutines; run
// under -race (make check does) this is the registry's thread-safety proof.
func TestConcurrentUse(t *testing.T) {
	withTelemetry(t)
	const workers = 16
	const perWorker = 200
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			c := Default.Counter("test.concurrent_counter")
			g := Default.Gauge("test.concurrent_gauge")
			h := Default.Histogram("test.concurrent_hist")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i + 1))
				Region(fmt.Sprintf("test.region_%d", w%4))()
				Eventf("worker %d iter %d", w, i)
				if i%50 == 0 {
					_ = Default.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := Default.Counter("test.concurrent_counter").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if d := Default.Histogram("test.concurrent_hist").Stats(); d.Count != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", d.Count, workers*perWorker)
	}
	snap := Default.Snapshot()
	total := uint64(0)
	for _, r := range snap.Regions {
		total += r.Count
	}
	if total != workers*perWorker {
		t.Errorf("region samples = %d, want %d", total, workers*perWorker)
	}
}

// TestSnapshotWhileObserveSpills snapshots a histogram while another
// goroutine's samples move it out of the one-bin form and keep filling its
// bin array. Under -race (make check) it fails if Stats hands out a copy
// that shares the live array.
func TestSnapshotWhileObserveSpills(t *testing.T) {
	withTelemetry(t)
	const name, samples = "test.spilling_hist", 2000
	h := Default.Histogram(name)
	h.Observe(3)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < samples; i++ {
			h.Observe(float64(int(1) << (i % 20)))
		}
	}()
	var last uint64
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		d := Default.Snapshot().Histograms[name]
		if d.Count < last || d.P50 < d.Min || d.P99 > d.Max {
			t.Fatalf("snapshot %+v after a count of %d", d, last)
		}
		last = d.Count
	}
	if last != samples+1 {
		t.Fatalf("last snapshot counted %d samples, want %d", last, samples+1)
	}
}

func TestEventRingBounds(t *testing.T) {
	withTelemetry(t)
	for i := 0; i < maxEvents+10; i++ {
		Eventf("event %d", i)
	}
	evs := Events()
	// maxEvents entries plus the drop marker.
	if len(evs) != maxEvents+1 {
		t.Fatalf("got %d events, want %d", len(evs), maxEvents+1)
	}
	if !strings.Contains(evs[len(evs)-1], "10 earlier events dropped") {
		t.Errorf("missing drop marker: %q", evs[len(evs)-1])
	}
	if !strings.HasSuffix(evs[0], "event 10") {
		t.Errorf("oldest retained event = %q, want event 10", evs[0])
	}
}

func TestSnapshotSummary(t *testing.T) {
	withTelemetry(t)
	NewCounter("test.apples").Add(7)
	NewCounter("test.zero") // zero counters are omitted
	NewGauge("test.pears").Set(3)
	Region("test.stage")()
	Eventf("note")
	var buf bytes.Buffer
	Default.Snapshot().WriteSummary(&buf)
	out := buf.String()
	for _, want := range []string{"telemetry summary", "test.apples", "test.pears", "test.stage", "event: "} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "test.zero") {
		t.Errorf("summary includes zero-valued metric:\n%s", out)
	}
}

func TestTimelineWriteChrome(t *testing.T) {
	tl := NewTimeline()
	// Insert tracks out of order; export must sort by ID.
	tl.Track(1, "rank 1").Add("Send", 10, 5)
	tl.Track(0, "rank 0").Add("Recv", 0, 15)
	tl.Track(0, "rank 0").Add("compute", 15, 3)
	var buf bytes.Buffer
	if err := tl.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Cat  string  `json:"cat"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// 1 process_name + 2 thread_name + 3 spans.
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("got %d events, want 6", len(doc.TraceEvents))
	}
	meta := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			meta++
		}
	}
	if meta != 3 {
		t.Errorf("got %d metadata events, want 3", meta)
	}
	// Track 0's spans precede track 1's.
	var spanTIDs []int
	var cats []string
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spanTIDs = append(spanTIDs, ev.TID)
			cats = append(cats, ev.Cat)
		}
	}
	if fmt.Sprint(spanTIDs) != "[0 0 1]" {
		t.Errorf("span track order = %v, want [0 0 1]", spanTIDs)
	}
	if fmt.Sprint(cats) != "[mpi compute mpi]" {
		t.Errorf("span categories = %v", cats)
	}
	if n := tl.SpanCount(); n != 3 {
		t.Errorf("SpanCount = %d, want 3", n)
	}
}

func TestCaptureRegions(t *testing.T) {
	withTelemetry(t)
	tl := NewTimeline()
	CaptureRegions(tl)
	defer CaptureRegions(nil)
	Region("test.captured")()
	spans := tl.Track(RegionTrack, "pipeline stages").Spans()
	if len(spans) != 1 || spans[0].Name != "test.captured" {
		t.Fatalf("captured spans = %+v", spans)
	}
	CaptureRegions(nil)
	Region("test.after_stop")()
	if n := tl.SpanCount(); n != 1 {
		t.Errorf("spans after stop = %d, want 1", n)
	}
}

func TestServeEndpoints(t *testing.T) {
	withTelemetry(t)
	NewCounter("test.served").Add(42)
	Eventf("served event")
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metrics")), &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if snap.Counters["test.served"] != 42 {
		t.Errorf("served counter = %d, want 42", snap.Counters["test.served"])
	}
	if len(snap.Events) == 0 {
		t.Error("/metrics snapshot missing events")
	}
	if !strings.Contains(get("/healthz"), "ok") {
		t.Error("/healthz not ok")
	}
	if !strings.Contains(get("/debug/pprof/"), "profile") {
		t.Error("/debug/pprof/ index missing")
	}
}

func TestWritePromExposition(t *testing.T) {
	withTelemetry(t)
	NewCounter("test.prom_hits").Add(3)
	NewGauge("test.prom-depth").Set(5)
	h := NewHistogram("test.prom_sizes")
	for _, v := range []float64{1, 2, 4, 8, 100} {
		h.Observe(v)
	}
	end := Region("test.prom stage")
	end()

	var buf bytes.Buffer
	if err := Default.Snapshot().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE test_prom_hits counter",
		"test_prom_hits 3",
		"# TYPE test_prom_depth gauge",
		"test_prom_depth 5",
		"# TYPE test_prom_sizes summary",
		`test_prom_sizes{quantile="0.5"}`,
		`test_prom_sizes{quantile="0.99"}`,
		"test_prom_sizes_count 5",
		"# TYPE region_test_prom_stage_us summary",
		"region_test_prom_stage_us_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom exposition missing %q:\n%s", want, out)
		}
	}
	// Exposition names must stay inside the Prometheus grammar.
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, "{")
		name, _, _ = strings.Cut(name, " ")
		for _, r := range name {
			if !(r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')) {
				t.Fatalf("invalid prom name char %q in line %q", r, line)
			}
		}
	}
}

func TestSnapshotQuantiles(t *testing.T) {
	withTelemetry(t)
	h := NewHistogram("test.quant")
	for v := 1.0; v <= 100; v++ {
		h.Observe(v)
	}
	snap := Default.Snapshot()
	hs, ok := snap.Histograms["test.quant"]
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if hs.P50 <= 0 || hs.P50 > hs.P95 || hs.P95 > hs.P99 || hs.P99 > hs.Max {
		t.Fatalf("quantiles not ordered: p50=%v p95=%v p99=%v max=%v", hs.P50, hs.P95, hs.P99, hs.Max)
	}
}
