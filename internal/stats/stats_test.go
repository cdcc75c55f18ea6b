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
