package stats

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// sscanfUnmarshal is the fmt-scanning decoder ParseText replaced, as it was.
// It reads a prefix of every field and ignores the rest, so it accepts more
// than ParseText; FuzzHistogramText holds ParseText to accepting nothing it
// did not and to reading what both accept alike, bit for bit.
func sscanfUnmarshal(h *Histogram, text []byte) error {
	fields := strings.Fields(string(text))
	if len(fields) < 4 {
		return fmt.Errorf("stats: malformed histogram %q", text)
	}
	*h = Histogram{}
	if _, err := fmt.Sscanf(fields[0], "%d", &h.Count); err != nil {
		return fmt.Errorf("stats: bad count: %w", err)
	}
	if _, err := fmt.Sscanf(fields[1], "%g", &h.Sum); err != nil {
		return fmt.Errorf("stats: bad sum: %w", err)
	}
	if _, err := fmt.Sscanf(fields[2], "%g", &h.Min); err != nil {
		return fmt.Errorf("stats: bad min: %w", err)
	}
	if _, err := fmt.Sscanf(fields[3], "%g", &h.Max); err != nil {
		return fmt.Errorf("stats: bad max: %w", err)
	}
	var bins [NumBins]uint64
	for _, f := range fields[4:] {
		var i int
		var c uint64
		if _, err := fmt.Sscanf(f, "%d=%d", &i, &c); err != nil {
			return fmt.Errorf("stats: bad bin %q: %w", f, err)
		}
		if i < 0 || i >= NumBins {
			return fmt.Errorf("stats: bin index %d out of range", i)
		}
		bins[i] = c
	}
	nonzero := 0
	for i, c := range bins {
		if c != 0 {
			nonzero, h.bin = nonzero+1, uint8(i)
		}
	}
	if nonzero > 1 || bins[h.bin] != h.Count {
		h.bins = new([NumBins]uint64)
		*h.bins = bins
	}
	return nil
}

// sameBits reports whether two histograms hold the same count and bins and
// the same bits in every float.
func sameBits(a, b *Histogram) bool {
	if a.Count != b.Count || math.Float64bits(a.Sum) != math.Float64bits(b.Sum) ||
		math.Float64bits(a.Min) != math.Float64bits(b.Min) || math.Float64bits(a.Max) != math.Float64bits(b.Max) {
		return false
	}
	for i := range NumBins {
		if a.Bin(i) != b.Bin(i) {
			return false
		}
	}
	return true
}

// FuzzHistogramText compares ParseText with sscanfUnmarshal: text ParseText
// accepts, sscanfUnmarshal must accept with the same result; and the
// Append of a histogram of the samples given — in one bin, or spread
// over many when wide — must decode through both to that result, with the
// histogram's count and bins.
func FuzzHistogramText(f *testing.F) {
	for _, text := range []string{
		"3 10.5 2 5 2=2 3=1", "1 7 7 7 3=1", "0 0 +Inf -Inf", "4 1 1 1 0=0 2=4",
		"1 inf -infinity NaN 5=1", "2 0x1p-2 1E3 .5 2=2", "1 1_0 1 1 1=1", "1 +1 -0 1e-400 007=1",
		"12abc 1 1 1 3=12", "3 1x 1 1", "3 3 1 1 2=1,5=9", "3 1 1 1 2=1 2=2", "3 1 1 1",
		"1 1p4 1 1 1=1", "+1 1 1 1 1=1", "1 1 1 1 +1=+1", "2 1 1 1 1=1\t2=1",
	} {
		f.Add(text, []byte{3, 200, 17}, false)
	}
	f.Add("", []byte{0, 1, 2, 3, 4, 5, 64, 128, 255}, true)

	f.Fuzz(func(t *testing.T, text string, samples []byte, wide bool) {
		var got, ref Histogram
		if err := got.ParseText(text); err == nil {
			if err := sscanfUnmarshal(&ref, []byte(text)); err != nil || !sameBits(&got, &ref) {
				t.Fatalf("ParseText(%q) = %v; the fmt scanner: %v, %v", text, got.String(), err, ref.String())
			}
		}

		h := NewHistogram()
		for _, b := range samples {
			if wide {
				h.Add(math.Ldexp(float64(b)/255, int(b%48)-8))
			} else {
				h.Add(96 + float64(b%32))
			}
		}
		out := h.Append(nil)
		if err := got.ParseText(string(out)); err != nil {
			t.Fatalf("ParseText(%q): %v", out, err)
		}
		if err := sscanfUnmarshal(&ref, out); err != nil || !sameBits(&got, &ref) {
			t.Fatalf("%q: ParseText %v; the fmt scanner: %v, %v", out, got.String(), err, ref.String())
		}
		for i := range NumBins {
			if got.Count != h.Count || got.Bin(i) != h.Bin(i) {
				t.Fatalf("%q decodes to count %d, bin %d = %d; written from %d, %d", out, got.Count, i, got.Bin(i), h.Count, h.Bin(i))
			}
		}
	})
}
