// Package stats provides the small statistical toolkit used throughout the
// benchmark-generation pipeline: log-scale histograms for compute-time
// compression (the ScalaTrace delta-time representation), summary statistics,
// and the mean-absolute-percentage-error metric the paper reports.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// NumBins is the number of bins: bin i > 0 counts 2^(i-1) <= v < 2^i us, bin 0 v < 1.
const NumBins = 64

// Histogram compresses a stream of non-negative duration samples
// (microseconds) into logarithmically sized bins, as ScalaTrace does for the
// computation time between consecutive MPI calls. It additionally tracks
// exact count, sum, min and max so that the mean is exact even though the
// distribution is approximated.
type Histogram struct {
	Count uint64
	Sum   float64
	Min   float64
	Max   float64
	// bins holds the bin counts once samples span two bins; until then all
	// Count lie in bin, as a per-rank leaf's almost always do: 48 B, not 544.
	bins *[NumBins]uint64
	bin  uint8
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{Min: math.Inf(1), Max: math.Inf(-1)}
}

// Reset empties h in place.
func (h *Histogram) Reset() { *h = *NewHistogram() }

// Bin returns the number of samples in bin i, 0 <= i < NumBins.
func (h *Histogram) Bin(i int) uint64 {
	if h.bins != nil {
		return h.bins[i]
	}
	if h.Count != 0 && i == int(h.bin) {
		return h.Count
	}
	return 0
}

// spill moves the one-bin form into a bin array and returns the array.
func (h *Histogram) spill() *[NumBins]uint64 {
	if h.bins == nil {
		h.bins = new([NumBins]uint64)
		h.bins[h.bin] = h.Count
	}
	return h.bins
}

// Add records one sample. Negative samples are clamped to zero.
func (h *Histogram) Add(v float64) {
	if v < 0 {
		v = 0
	}
	switch b := binIndex(v); {
	case h.bins != nil:
		h.bins[b]++
	case h.Count == 0:
		h.bin = uint8(b)
	case int(h.bin) != b:
		h.spill()[b]++
	}
	h.Count++
	h.Sum += v
	if v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
}

func binIndex(v float64) int {
	if v < 1 {
		return 0
	}
	i := int(math.Floor(math.Log2(v))) + 1
	if i > 63 {
		i = 63
	}
	return i
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.Count == 0 {
		return
	}
	// The bins first: spilling records h's count in its one bin.
	if h.bins == nil && other.bins == nil && (h.Count == 0 || h.bin == other.bin) {
		h.bin = other.bin
	} else {
		bins := h.spill()
		for i := range bins {
			bins[i] += other.Bin(i)
		}
	}
	h.Count += other.Count
	h.Sum += other.Sum
	if other.Min < h.Min {
		h.Min = other.Min
	}
	if other.Max > h.Max {
		h.Max = other.Max
	}
}

// Mean returns the exact arithmetic mean of the recorded samples, or 0 when
// the histogram is empty.
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Empty reports whether no samples have been recorded.
func (h *Histogram) Empty() bool { return h.Count == 0 }

// Quantile estimates the q-th quantile (0 <= q <= 1) of the recorded
// distribution from the log-scale bins: it finds the bin where the
// cumulative count crosses q*Count and interpolates linearly within the
// bin's value range. The estimate is clamped to the exact [Min, Max]
// envelope, so q=0 and q=1 are exact and single-bin distributions never
// report values outside what was observed.
func (h *Histogram) Quantile(q float64) float64 {
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
	for i := range NumBins {
		c := h.Bin(i)
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			// Bin i spans [2^(i-1), 2^i); bin 0 spans [0, 1).
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

// Clone returns a deep copy of h.
func (h *Histogram) Clone() *Histogram {
	c := *h
	if h.bins != nil {
		bins := *h.bins
		c.bins = &bins
	}
	return &c
}

// Equal reports whether two histograms hold identical aggregates.
func (h *Histogram) Equal(other *Histogram) bool {
	if h.Count != other.Count || h.Sum != other.Sum {
		return false
	}
	if h.Count == 0 {
		return true
	}
	if h.Min != other.Min || h.Max != other.Max {
		return false
	}
	for i := range NumBins {
		if h.Bin(i) != other.Bin(i) {
			return false
		}
	}
	return true
}

// String renders a compact single-line summary, e.g.
// "n=100 mean=12.5us min=3.0us max=40.2us".
func (h *Histogram) String() string {
	if h.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.3fus min=%.3fus max=%.3fus", h.Count, h.Mean(), h.Min, h.Max)
}

// MarshalText encodes the histogram as "count sum min max b:i=c,..." for the
// trace file format.
func (h *Histogram) MarshalText() ([]byte, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d %.9g %.9g %.9g", h.Count, h.Sum, h.Min, h.Max)
	for i := range NumBins {
		if c := h.Bin(i); c != 0 {
			fmt.Fprintf(&sb, " %d=%d", i, c)
		}
	}
	return []byte(sb.String()), nil
}

// UnmarshalText decodes the MarshalText representation.
func (h *Histogram) UnmarshalText(text []byte) error {
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

// AbsPercentError returns 100*|measured-reference|/reference, the per-point
// error metric of Section 5.3. A zero reference yields 0 if measured is also
// zero and +Inf otherwise.
func AbsPercentError(measured, reference float64) float64 {
	if reference == 0 {
		if measured == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return 100 * math.Abs(measured-reference) / math.Abs(reference)
}
