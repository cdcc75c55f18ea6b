package stats

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
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

// logBin is the definition the recorded histograms were binned by.
func logBin(v float64) int {
	if v < 1 {
		return 0
	}
	return min(int(math.Floor(math.Log2(v)))+1, NumBins-1)
}

// TestBinIndexMatchesLog2 holds binIndex to logBin on every power of two
// of the float range +- 64 ulps (math.Log2 rounds some of the values just
// below one up), on subnormals and on random values, and checks the two
// inputs logBin has no bin for.
func TestBinIndexMatchesLog2(t *testing.T) {
	check := func(v float64) bool {
		if got, want := binIndex(v), logBin(v); got != want {
			t.Errorf("binIndex(%v) = %d, math.Log2 bins it in %d", v, got, want)
			return false
		}
		return true
	}
	for e := -1074; e <= 1023; e++ {
		p := math.Ldexp(1, e)
		down, up := p, p
		for range 64 {
			check(down)
			check(up)
			down, up = math.Nextafter(down, 0), math.Nextafter(up, math.Inf(1))
		}
	}
	for _, v := range []float64{math.SmallestNonzeroFloat64, 0x1p-1030, 0x1.fffffffffffffp-1023, 7.999999999999999, math.MaxFloat64} {
		check(v)
	}
	if got := binIndex(7.999999999999999); got != 4 {
		t.Errorf("binIndex(7.999999999999999) = %d, want 4 as recorded", got)
	}
	random := func(bits uint64) bool {
		v := math.Abs(math.Float64frombits(bits))
		return math.IsNaN(v) || math.IsInf(v, 0) || check(v)
	}
	if err := quick.Check(random, &quick.Config{MaxCount: 200000}); err != nil {
		t.Error(err)
	}
	scaled := func(x float64, e uint8) bool {
		v := math.Abs(x) * math.Ldexp(1, int(e)%80)
		return math.IsInf(v, 0) || check(v)
	}
	if err := quick.Check(scaled, &quick.Config{MaxCount: 200000}); err != nil {
		t.Error(err)
	}
	if got := binIndex(math.Inf(1)); got != NumBins-1 {
		t.Errorf("binIndex(+Inf) = %d, want %d", got, NumBins-1)
	}
	if got := binIndex(math.NaN()); got != 0 {
		t.Errorf("binIndex(NaN) = %d, want 0", got)
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
	if err := h2.ParseText(string(text)); err != nil {
		t.Fatal(err)
	}
	if !h.Equal(&h2) {
		t.Fatalf("round trip mismatch: %v vs %v", h, &h2)
	}
}

// TestHistogramUnmarshalErrors holds ParseText to naming, with a stats:
// error, every text MarshalText cannot have written. The fmt scanner it
// replaced read a prefix of each field and took every text from "12abc ..."
// on: trailing bytes, a comma-joined bin list (the rest dropped), a repeated
// bin (the last kept) and bins that do not add up to the count.
func TestHistogramUnmarshalErrors(t *testing.T) {
	for _, tc := range []struct{ text, want string }{
		{"", "malformed histogram"},
		{"1 2 3", "malformed histogram"},
		{"x 2 3 4", `bad count "x"`},
		{"1 2 3 4 99999=1", "bin index 99999 out of range"},
		{"1 2 3 4 -1=1", "bin index -1 out of range"},
		{"1 2 3 4 foo", `bad bin "foo"`},
		{"3 1 1e 1 3=3", `bad min "1e"`},
		{"12abc 1 1 1 3=12", `bad count "12abc"`},
		{"3 1x 1 1", `bad sum "1x"`},
		{"3 1 1 1.5.2 3=3", `bad max "1.5.2"`},
		{"3 3 1 1 2=1,5=9", `bad bin "2=1,5=9"`},
		{"3 1 1 1 3=3x", `bad bin "3=3x"`},
		{"3 1 1 1 2=1 2=2", "bin 2 repeated"},
		{"3 1 1 1", "bins hold 0 samples, count is 3"},
		{"5 1 1 1 3=2", "bins hold 2 samples, count is 5"},
		{"0 0 0 0 3=5", "bins hold 5 samples, count is 0"},
		{"1 1 1 1 3=18446744073709551615 4=2", `bins overflow at "4=2"`},
		{"1 +Inf +Inf +Inf 0=1", "sum is +Inf"},
		{"1 NaN NaN NaN 0=1", "sum is NaN"},
		{"1 -5 -5 -5 0=1", "sum is -5"},
		{"2 6 1 -infinity 2=2", "max is -Inf"},
		{"2 6 5 1 3=2", "min 5 exceeds max 1"},
	} {
		var h Histogram
		if err := h.ParseText(tc.text); err == nil || !strings.HasPrefix(err.Error(), "stats: ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseText(%q) = %v, want a stats: error naming %s", tc.text, err, tc.want)
		}
	}
	// The moments are checked only when there are samples: this is what
	// MarshalText writes for an empty histogram.
	var h Histogram
	if err := h.ParseText("0 0 +Inf -Inf"); err != nil {
		t.Errorf("empty histogram: %v", err)
	}
	if err := h.ParseText("1 +Inf +Inf +Inf 0=1"); !errors.Is(err, ErrBadMoments) {
		t.Errorf("infinite sum: %v, want ErrBadMoments", err)
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
		for i := range NumBins {
			binSum += h.Bin(i)
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

// refHistogram is the definition Histogram is held to: the bin-array
// histogram it replaced, every operation as it was.
type refHistogram struct {
	Count         uint64
	Sum, Min, Max float64
	Bins          [NumBins]uint64
}

func newRef() *refHistogram { return &refHistogram{Min: math.Inf(1), Max: math.Inf(-1)} }

func (h *refHistogram) Add(v float64) {
	if v < 0 {
		v = 0
	}
	h.Count++
	h.Sum += v
	if v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Bins[binIndex(v)]++
}

func (h *refHistogram) Merge(o *refHistogram) {
	if o.Count == 0 {
		return
	}
	h.Count += o.Count
	h.Sum += o.Sum
	if o.Min < h.Min {
		h.Min = o.Min
	}
	if o.Max > h.Max {
		h.Max = o.Max
	}
	for i := range h.Bins {
		h.Bins[i] += o.Bins[i]
	}
}

func (h *refHistogram) Equal(o *refHistogram) bool {
	if h.Count != o.Count || h.Sum != o.Sum {
		return false
	}
	return h.Count == 0 || h.Min == o.Min && h.Max == o.Max && h.Bins == o.Bins
}

func (h *refHistogram) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min
	}
	if q >= 1 {
		return h.Max
	}
	target := q * float64(h.Count)
	var cum float64
	for i, c := range h.Bins {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lo, hi := 0.0, 1.0
			if i > 0 {
				lo = math.Pow(2, float64(i-1))
				hi = 2 * lo
			}
			v := lo + (hi-lo)*(target-cum)/float64(c)
			return math.Min(math.Max(v, h.Min), h.Max)
		}
		cum = next
	}
	return h.Max
}

func (h *refHistogram) MarshalText() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d %g %g %g", h.Count, h.Sum, h.Min, h.Max)
	for i, c := range h.Bins {
		if c != 0 {
			fmt.Fprintf(&sb, " %d=%d", i, c)
		}
	}
	return sb.String()
}

func (h *refHistogram) UnmarshalText(text string) error {
	f := strings.Fields(text)
	*h = refHistogram{}
	if _, err := fmt.Sscanf(strings.Join(f[:4], " "), "%d %g %g %g", &h.Count, &h.Sum, &h.Min, &h.Max); err != nil {
		return err
	}
	for _, b := range f[4:] {
		var i int
		var c uint64
		if _, err := fmt.Sscanf(b, "%d=%d", &i, &c); err != nil {
			return err
		}
		h.Bins[i] = c
	}
	return nil
}

// sameAsRef reports whether h holds exactly what the reference holds, bit
// for bit.
func sameAsRef(h *Histogram, r *refHistogram) bool {
	if h.Count != r.Count || math.Float64bits(h.Sum) != math.Float64bits(r.Sum) ||
		math.Float64bits(h.Min) != math.Float64bits(r.Min) || math.Float64bits(h.Max) != math.Float64bits(r.Max) {
		return false
	}
	for i := range NumBins {
		if h.Bin(i) != r.Bins[i] {
			return false
		}
	}
	return true
}

// TestHistogramMatchesBinArrayDefinition drives the one-bin histogram and the
// reference through the same samples, merges (into empty, one-bin and spilled
// histograms, and into themselves), clones, comparisons, quantiles and a text
// round trip, and requires bit-identical results. Narrow streams stay in one
// bin; wide ones spill.
func TestHistogramMatchesBinArrayDefinition(t *testing.T) {
	// sample maps a generated word to a sample in one bin (narrow) or in one
	// of five, negatives and sub-microsecond values included.
	sample := func(x uint16, narrow bool) float64 {
		if narrow {
			return 96 + float64(x%32)
		}
		return math.Ldexp(float64(x%251)/250, int(x>>13)) - float64(x%7)/8
	}
	fill := func(xs []uint16, narrow bool) (*Histogram, *refHistogram) {
		h, r := NewHistogram(), newRef()
		for _, x := range xs {
			h.Add(sample(x, narrow))
			r.Add(sample(x, narrow))
		}
		return h, r
	}
	f := func(xs, ys []uint16, narrowX, narrowY bool, q uint16) bool {
		a, ra := fill(xs, narrowX)
		b, rb := fill(ys, narrowY)
		if !sameAsRef(a, ra) || !sameAsRef(b, rb) || a.Equal(b) != ra.Equal(rb) {
			return false
		}
		c, rc := a.Clone(), *ra
		c.Merge(b)
		rc.Merge(rb)
		if !sameAsRef(c, &rc) || !sameAsRef(a, ra) || c.Equal(a) != rc.Equal(ra) {
			return false // a wrong merge, or a Clone sharing a's bins
		}
		self, rself := b.Clone(), *rb
		self.Merge(self)
		rself.Merge(&rself)
		if !sameAsRef(self, &rself) {
			return false
		}
		for _, p := range []struct {
			h *Histogram
			r *refHistogram
		}{{a, ra}, {c, &rc}, {self, &rself}} {
			for _, q := range []float64{0, float64(q) / math.MaxUint16, 0.5, 0.99, 1} {
				if math.Float64bits(p.h.Quantile(q)) != math.Float64bits(p.r.Quantile(q)) {
					return false
				}
			}
			text, err := p.h.MarshalText()
			var back Histogram
			var rback refHistogram
			if err != nil || string(text) != p.r.MarshalText() ||
				back.ParseText(string(text)) != nil || rback.UnmarshalText(string(text)) != nil || !sameAsRef(&back, &rback) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}

	// Decoded text need not hold its samples in the bins their values fall
	// in; such a histogram keeps its bins as written, compares as the
	// reference does, and adds and merges on from there.
	texts := []string{"4 1 1 1 0=0 2=4", "2 1 1 1 7=2", "1 5 5 5 3=1", "1 5 5 5 4=1", "2 1 1 1 2=1 7=1",
		"2 1 1 1 2=1 6=1", "0 0 0 0", "3 1 1 1 9=1 0=2"}
	hs, rs := make([]Histogram, len(texts)), make([]refHistogram, len(texts))
	for i, text := range texts {
		if err := hs[i].ParseText(text); err != nil || rs[i].UnmarshalText(text) != nil || !sameAsRef(&hs[i], &rs[i]) {
			t.Fatalf("ParseText(%q) = %v, %v; reference %v", text, err, hs[i].String(), rs[i].MarshalText())
		}
	}
	for i := range texts {
		for j := range texts {
			if hs[i].Equal(&hs[j]) != rs[i].Equal(&rs[j]) {
				t.Errorf("Equal(%q, %q) = %v, reference %v", texts[i], texts[j], hs[i].Equal(&hs[j]), rs[i].Equal(&rs[j]))
			}
		}
	}
	for i, text := range texts {
		h, r := hs[i].Clone(), &rs[i]
		h.Add(100)
		r.Add(100)
		one, rone := NewHistogram(), newRef()
		one.Add(3)
		rone.Add(3)
		h.Merge(one)
		r.Merge(rone)
		if !sameAsRef(h, r) {
			t.Errorf("%q: after Add and Merge %v, reference %v", text, h.String(), r.MarshalText())
		}
	}
}

// TestHistogramIsSmall pins the point of the one-bin form: a histogram is six
// words, not 544 bytes.
func TestHistogramIsSmall(t *testing.T) {
	if size := unsafe.Sizeof(Histogram{}); size > 48 {
		t.Fatalf("stats.Histogram is %d bytes, want <= 48", size)
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
		return added.Equal(merged) &&
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
