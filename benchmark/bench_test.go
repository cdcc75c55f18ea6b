package main

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n, idx int
		pct    float64
	}{
		{5, 4, 100}, {10, 9, 100}, {11, 0, 100.0 / 11}, {24, 13, 100 * 14.0 / 24},
		{40, 29, 75}, {96, 85, 100 * 86.0 / 96}, {1000, 989, 99}, {12000, 11879, 99},
	} {
		pct, idx := tailRule(c.n)
		if idx != c.idx || pct < c.pct-1e-9 || pct > c.pct+1e-9 {
			t.Errorf("tailRule(%d) = p%.3f at %d, want p%.3f at %d", c.n, pct, idx, c.pct, c.idx)
		}
		if c.n >= 11 && c.n-1-idx < 10 {
			t.Errorf("tailRule(%d): only %d samples beyond the tail", c.n, c.n-1-idx)
		}
	}
	if i := medianIndex(24); i != 11 {
		t.Errorf("medianIndex(24) = %d", i)
	}
	if i := medianIndex(5); i != 2 {
		t.Errorf("medianIndex(5) = %d", i)
	}
}

func TestAround(t *testing.T) {
	s := make([]time.Duration, 48)
	for i := range s {
		s[i] = time.Duration(i * i)
	}
	// 48 samples: two ranks either side, fewer where an end is near.
	for _, c := range []struct{ i, lo, hi int }{{23, 21, 25}, {37, 35, 39}, {46, 46, 46}, {2, 1, 3}} {
		var want time.Duration
		for _, d := range s[c.lo : c.hi+1] {
			want += d
		}
		if got := around(s, c.i); got != want/time.Duration(c.hi-c.lo+1) {
			t.Errorf("around(%d) = %d, want the mean of [%d, %d]", c.i, got, c.lo, c.hi)
		}
	}
	if got := around(s[:10], 4); got != s[4] {
		t.Errorf("around on 10 samples = %d, want the sample itself", got)
	}
}

func TestOnReference(t *testing.T) {
	// A host running the kernel half as fast as the reference before the op
	// and as fast as it after ran the op 1.5 times slower.
	slow := slowdown(2*calReference, calReference)
	if slow != 1.5 {
		t.Errorf("slowdown = %v", slow)
	}
	if got := onReference(300*time.Millisecond, slow); got != 200*time.Millisecond {
		t.Errorf("300 ms at slowdown 1.5 = %v", got)
	}
	if d := calibrate(); d <= 0 {
		t.Errorf("calibrate took %v", d)
	}
}

func TestVerdicts(t *testing.T) {
	lower, higher := metric{Better: "lower"}, metric{Better: "higher"}
	for _, c := range []struct {
		m        metric
		old, new float64
		noisy    bool
		want     string
	}{
		{lower, 100, 109, false, same},
		{lower, 100, 111, false, worse},
		{lower, 100, 89, false, better},
		{higher, 100, 89, false, worse},
		{higher, 100, 111, false, better},
		{lower, 100, 150, true, unresolved},
		{lower, 100, 105, true, same},
		{lower, 0, 5, false, unresolved},
	} {
		if got := relativeVerdict(c.m, c.old, c.new, 0.10, c.noisy); got != c.want {
			t.Errorf("relativeVerdict(%s, %v -> %v, noisy=%v) = %s, want %s", c.m.Better, c.old, c.new, c.noisy, got, c.want)
		}
	}
	if got := absoluteVerdict(0, 0, 0); got != same {
		t.Errorf("failed_share 0 -> 0 = %s", got)
	}
	if got := absoluteVerdict(0, 0.01, 0); got != worse {
		t.Errorf("failed_share 0 -> 0.01 = %s", got)
	}
	if got := absoluteVerdict(1.20, 1.24, 0.05); got != same {
		t.Errorf("timing_error_pct 1.20 -> 1.24 = %s", got)
	}
}

func testDocument(p50, failed, events float64, digest string) *document {
	return &document{Host: host{NProc: 2, Seed: 1}, Workloads: map[string]*ledger{"chain-stencil": {
		Ops: 24, Digest: digest,
		EndToEnd: map[string]value{"op_p50_ms": {p50, "ms"}, "failed_share": {failed, "ratio"}},
		PerLayer: map[string]value{"trace.events": {events, "count"}},
	}}}
}

func TestCompareDocuments(t *testing.T) {
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	base := testDocument(100, 0, 44248, "aa")
	if c := compareDocuments(sp, base, testDocument(101, 0, 44248, "aa")); c.worse || len(c.exactDiffs) != 0 {
		t.Errorf("an unchanged run compares worse=%v, diffs %v", c.worse, c.exactDiffs)
	}
	if c := compareDocuments(sp, base, testDocument(150, 0, 44248, "aa")); !c.worse {
		t.Error("a 50 % slower median is not worse")
	}
	if c := compareDocuments(sp, base, testDocument(100, 0.04, 44248, "aa")); !c.worse {
		t.Error("a rise in failed_share is not worse")
	}
	c := compareDocuments(sp, base, testDocument(100, 0, 44249, "bb"))
	if c.worse || len(c.exactDiffs) != 2 {
		t.Errorf("changed count and digest: worse=%v, diffs %v", c.worse, c.exactDiffs)
	}
	// Workloads the new document lacks are unresolved, not silently passed.
	var missing int
	for _, r := range c.rows {
		if r.metric == "(workload)" && r.verdict == unresolved {
			missing++
		}
	}
	if missing != len(sp.Workloads)-1 {
		t.Errorf("%d missing workloads reported, want %d", missing, len(sp.Workloads)-1)
	}
}

// TestSpec holds BENCHMARK.json to the program's own tables and to the
// contract's limits.
func TestSpec(t *testing.T) {
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	same := func(kind string, got []specMetric, want []metric, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, m, w)
			}
			if !name.MatchString(m.Name) {
				t.Errorf("%s: bad metric name %q", kind, m.Name)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	same("end_to_end", sp.EndToEnd, timedEndToEnd, true)
	same("per_layer", sp.PerLayer, tracedMetrics(), false)
	if len(sp.EndToEnd) > 16 || len(sp.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(sp.EndToEnd), len(sp.PerLayer))
	}
	ws := workloads(false)
	if len(sp.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(sp.Workloads), len(ws))
	}
	for i, w := range sp.Workloads {
		if w.Name != ws[i].name || !name.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %+v vs program's %q", i, w, ws[i].name)
		}
		if small := workloads(true)[i]; small.name != w.Name {
			t.Errorf("small workload %d is %q", i, small.name)
		}
	}
	if sp.RunSeconds != referenceSeconds {
		t.Errorf("run_seconds %d, op counts are sized for %d", sp.RunSeconds, referenceSeconds)
	}
}

// TestSmoke runs every workload once on its smallest inputs, traced, and
// checks that each passes its own output checks and reports only declared
// metrics.
func TestSmoke(t *testing.T) {
	declared := map[string]bool{}
	for _, m := range tracedMetrics() {
		declared[m.Name] = true
	}
	tmp := t.TempDir()
	for _, w := range workloads(true) {
		e := &env{seed: 1, ops: w.ops, tmp: tmp}
		res, err := runWorkload(w, e, true, filepath.Join(tmp, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Failures) > 0 {
			t.Errorf("%s: %v", w.name, res.Failures)
		}
		for k := range res.Metrics {
			if !declared[k] {
				t.Errorf("%s reports undeclared metric %q", w.name, k)
			}
		}
		if res.Metrics["bench.unattributed_pct"] >= 50 {
			t.Errorf("%s: %.1f %% of op time is outside every layer span", w.name, res.Metrics["bench.unattributed_pct"])
		}
		plain, err := runWorkload(w, e, false, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range timedEndToEnd {
			if v, ok := plain.Metrics[m.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end %s = %v", w.name, m.Name, v)
			}
		}
	}
}
