package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if !h.Empty() {
		t.Fatal("new histogram should be empty")
	}
	if h.Mean() != 0 {
		t.Fatalf("empty mean = %v, want 0", h.Mean())
	}
	if h.String() != "n=0" {
		t.Fatalf("empty string = %q", h.String())
	}
}

func TestHistogramAddBasics(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{1, 2, 3, 4} {
		h.Add(v)
	}
	if h.Count != 4 {
		t.Fatalf("count = %d, want 4", h.Count)
	}
	if h.Mean() != 2.5 {
		t.Fatalf("mean = %v, want 2.5", h.Mean())
	}
	if h.Min != 1 || h.Max != 4 {
		t.Fatalf("min/max = %v/%v, want 1/4", h.Min, h.Max)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Add(-5)
	if h.Min != 0 || h.Sum != 0 {
		t.Fatalf("negative sample not clamped: min=%v sum=%v", h.Min, h.Sum)
	}
}

func TestHistogramBinIndex(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {0.5, 0}, {0.999, 0},
		{1, 1}, {1.9, 1},
		{2, 2}, {3.99, 2},
		{4, 3},
		{1024, 11},
		{math.MaxFloat64, 63},
	}
	for _, c := range cases {
		if got := binIndex(c.v); got != c.want {
			t.Errorf("binIndex(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 10; i++ {
		a.Add(float64(i))
		b.Add(float64(i * 100))
	}
	a.Merge(b)
	if a.Count != 20 {
		t.Fatalf("merged count = %d, want 20", a.Count)
	}
	if a.Max != 900 {
		t.Fatalf("merged max = %v, want 900", a.Max)
	}
	if a.Min != 0 {
		t.Fatalf("merged min = %v, want 0", a.Min)
	}
	a.Merge(nil) // must be a no-op
	if a.Count != 20 {
		t.Fatal("merge(nil) changed histogram")
	}
}

func TestHistogramMergeEmptyIntoEmpty(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Merge(b)
	if !a.Empty() {
		t.Fatal("merging empties should stay empty")
	}
}

func TestHistogramRoundTrip(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{0.25, 1, 7, 4096, 123456.789} {
		h.Add(v)
	}
	text, err := h.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var h2 Histogram
	if err := h2.UnmarshalText(text); err != nil {
		t.Fatal(err)
	}
	if !h.Equal(&h2) {
		t.Fatalf("round trip mismatch: %v vs %v", h, &h2)
	}
}

func TestHistogramUnmarshalErrors(t *testing.T) {
	var h Histogram
	for _, bad := range []string{"", "1 2 3", "x 2 3 4", "1 2 3 4 99999=1", "1 2 3 4 foo"} {
		if err := h.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("UnmarshalText(%q) succeeded, want error", bad)
		}
	}
}

func TestHistogramPropertyMeanBounded(t *testing.T) {
	// Property: for any sample set the mean lies within [min, max] and the
	// total bin population equals the count.
	f := func(raw []float64) bool {
		h := NewHistogram()
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Bound samples so the running sum cannot overflow to +Inf.
			h.Add(math.Mod(math.Abs(v), 1e12))
		}
		if h.Count == 0 {
			return true
		}
		var binSum uint64
		for _, c := range h.Bins {
			binSum += c
		}
		return binSum == h.Count && h.Mean() >= h.Min-1e-9 && h.Mean() <= h.Max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramPropertyMergeCommutes(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a1, b1 := NewHistogram(), NewHistogram()
		a2, b2 := NewHistogram(), NewHistogram()
		for _, x := range xs {
			a1.Add(float64(x))
			a2.Add(float64(x))
		}
		for _, y := range ys {
			b1.Add(float64(y))
			b2.Add(float64(y))
		}
		a1.Merge(b1) // a ∪ b
		b2.Merge(a2) // b ∪ a
		return a1.Equal(b2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("bad basic stats: %+v", s)
	}
	if s.Mean != 2.5 {
		t.Fatalf("mean = %v, want 2.5", s.Mean)
	}
	if s.Median != 2.5 {
		t.Fatalf("median = %v, want 2.5", s.Median)
	}
	want := math.Sqrt(1.25)
	if math.Abs(s.Stddev-want) > 1e-12 {
		t.Fatalf("stddev = %v, want %v", s.Stddev, want)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Percentile(0.5) != 0 {
		t.Fatalf("empty summary not zeroed: %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input mutated: %v", in)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	s := Summarize([]float64{0, 10})
	if got := s.Percentile(0.5); got != 5 {
		t.Fatalf("P50 = %v, want 5", got)
	}
	if got := s.Percentile(0); got != 0 {
		t.Fatalf("P0 = %v, want 0", got)
	}
	if got := s.Percentile(1); got != 10 {
		t.Fatalf("P100 = %v, want 10", got)
	}
	if got := s.Percentile(-1); got != 0 {
		t.Fatalf("P(-1) = %v, want clamp to min", got)
	}
	if got := s.Percentile(2); got != 10 {
		t.Fatalf("P(2) = %v, want clamp to max", got)
	}
}

func TestAbsPercentError(t *testing.T) {
	if got := AbsPercentError(40, 52); math.Abs(got-23.0769230769) > 1e-6 {
		t.Fatalf("LU-style error = %v", got)
	}
	if got := AbsPercentError(0, 0); got != 0 {
		t.Fatalf("0/0 error = %v, want 0", got)
	}
	if got := AbsPercentError(1, 0); !math.IsInf(got, 1) {
		t.Fatalf("x/0 error = %v, want +Inf", got)
	}
}

func TestMAPE(t *testing.T) {
	m := []float64{90, 110}
	r := []float64{100, 100}
	if got := MAPE(m, r); got != 10 {
		t.Fatalf("MAPE = %v, want 10", got)
	}
	if got := MAPE(nil, nil); got != 0 {
		t.Fatalf("MAPE(empty) = %v, want 0", got)
	}
}

func TestMAPEPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MAPE([]float64{1}, []float64{1, 2})
}

func TestPercentileProperty(t *testing.T) {
	// Property: percentiles are monotone in p and bounded by min/max.
	f := func(raw []float64, p1, p2 float64) bool {
		vs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			return true
		}
		s := Summarize(vs)
		a := math.Mod(math.Abs(p1), 1)
		b := math.Mod(math.Abs(p2), 1)
		if a > b {
			a, b = b, a
		}
		qa, qb := s.Percentile(a), s.Percentile(b)
		return qa <= qb+1e-9 && qa >= s.Min-1e-9 && qb <= s.Max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 {
		t.Fatalf("empty quantile = %v, want 0", h.Quantile(0.5))
	}
	// A single sample: every quantile collapses onto it.
	h.Add(7)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 7 {
			t.Fatalf("Quantile(%v) = %v, want 7", q, got)
		}
	}

	// Uniform samples across several bins: quantiles must be monotone in q,
	// bounded by [Min, Max], and the extremes exact.
	h = NewHistogram()
	for v := 1.0; v <= 1024; v++ {
		h.Add(v)
	}
	if got := h.Quantile(0); got != h.Min {
		t.Fatalf("Quantile(0) = %v, want Min %v", got, h.Min)
	}
	if got := h.Quantile(1); got != h.Max {
		t.Fatalf("Quantile(1) = %v, want Max %v", got, h.Max)
	}
	prev := 0.0
	for q := 0.05; q < 1; q += 0.05 {
		got := h.Quantile(q)
		if got < prev {
			t.Fatalf("Quantile not monotone: q=%v gives %v after %v", q, got, prev)
		}
		if got < h.Min || got > h.Max {
			t.Fatalf("Quantile(%v) = %v outside [%v, %v]", q, got, h.Min, h.Max)
		}
		prev = got
	}
	// The median of 1..1024 lies in the bin holding 512; log-scale bins only
	// localize to a power-of-two range, so allow that bin's width.
	if med := h.Quantile(0.5); med < 256 || med > 1024 {
		t.Fatalf("median = %v, want within [256, 1024]", med)
	}
}

// TestHistogramAddEqualsMergeOfOneSample pins the identity the trace builder
// relies on when it absorbs a leaf that holds a single pending sample: adding
// the sample leaves the histogram bit-equal to merging a one-sample
// histogram of it.
func TestHistogramAddEqualsMergeOfOneSample(t *testing.T) {
	samples := []float64{-3.5, math.Copysign(0, -1), 0, 1e-9, 0.5, 0.999999, 1, 1.5, 2, 1023.99, 1024,
		123456.789, 1e18, math.MaxFloat64}
	check := func(prior []float64, v float64) bool {
		added, merged := NewHistogram(), NewHistogram()
		for _, p := range prior {
			added.Add(p)
			merged.Add(p)
		}
		one := NewHistogram()
		one.Add(v)
		added.Add(v)
		merged.Merge(one)
		return *added == *merged &&
			math.Float64bits(added.Sum) == math.Float64bits(merged.Sum) &&
			math.Float64bits(added.Min) == math.Float64bits(merged.Min) &&
			math.Float64bits(added.Max) == math.Float64bits(merged.Max)
	}
	for _, v := range samples {
		for _, prior := range [][]float64{nil, {0}, {7.25}, {0.1, 0.2, 0.3}, {1e300, 1e-300}} {
			if !check(prior, v) {
				t.Errorf("Add(%g) after %v differs from merging a one-sample histogram", v, prior)
			}
		}
	}
	f := func(prior []float64, v float64) bool { return check(prior, v) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
