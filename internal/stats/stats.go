// Package stats provides the small statistical toolkit used throughout the
// benchmark-generation pipeline: log-scale histograms for compute-time
// compression (the ScalaTrace delta-time representation), summary statistics,
// and the mean-absolute-percentage-error metric the paper reports.
package stats

import (
	"errors"
	"fmt"
	"math"
	"strconv"
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

// binIndex is the bin of v: floor(log2 v) + 1, capped at 63, read from the
// exponent bits. Within logBand of either end of a binade it is the formula
// the recorded histograms were made with, int(math.Floor(math.Log2(v))) + 1,
// whose rounding puts some values just below a power of two into the next
// bin (7.999999999999999 into bin 4). NaN goes in bin 0, +Inf in bin 63.
func binIndex(v float64) int {
	switch {
	case !(v >= 1):
		return 0
	case v > math.MaxFloat64:
		return NumBins - 1
	}
	bits := math.Float64bits(v)
	i := int(bits>>52) - 1023 + 1
	if m := bits & (1<<52 - 1); m < logBand || m >= 1<<52-logBand {
		i = int(math.Floor(math.Log2(v))) + 1
	}
	return min(i, NumBins-1)
}

// logBand is the width, in units of the last place, of the band at either
// end of a binade where math.Log2 may round across the binade's edge. Its
// error there is a few ulps of a result below 1024, that is under 2^-40,
// while log2 of a mantissa logBand ulps from the edge is over 2^-37 away.
const logBand = 1 << 16

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

// Append appends the histogram's text to b: "count sum min max i=c ..." for
// the trace file format. Sum, min and max are written in the shortest form
// that parses back to the same float64, so ParseText restores them bit for
// bit. The text holds digits, signs, letters, '.', '=' and spaces only, so it
// quotes as itself.
func (h *Histogram) Append(b []byte) []byte {
	b = strconv.AppendUint(b, h.Count, 10)
	for _, v := range [...]float64{h.Sum, h.Min, h.Max} {
		b = strconv.AppendFloat(append(b, ' '), v, 'g', -1, 64)
	}
	for i := range NumBins {
		if c := h.Bin(i); c != 0 {
			b = strconv.AppendInt(append(b, ' '), int64(i), 10)
			b = strconv.AppendUint(append(b, '='), c, 10)
		}
	}
	return b
}

// ErrBadMoments is what ParseText returns, wrapped, for a non-empty histogram
// whose sum, min or max is negative, infinite or NaN, or whose min exceeds
// its max: Add never builds one, and a compute time read from one is not a
// duration.
var ErrBadMoments = errors.New("stats: sum, min and max must be finite and non-negative, min <= max")

// ParseText decodes the text Append writes: count, sum, min and max,
// then one "i=c" field per bin. A field with trailing bytes, a bin index out
// of range or repeated, bins that do not add up to count, and moments
// ErrBadMoments names are errors.
func (h *Histogram) ParseText(s string) error {
	*h = Histogram{}
	head := [...]*float64{&h.Sum, &h.Min, &h.Max}
	var seen, total uint64 // bit i of seen: bin i was read
	k := 0                 // fields read
	for rest := s; rest != ""; {
		var f string
		if f, rest, _ = strings.Cut(rest, " "); f == "" {
			continue
		}
		k++
		var err error
		switch k {
		case 1:
			h.Count, err = strconv.ParseUint(f, 10, 64)
		case 2, 3, 4:
			*head[k-2], err = strconv.ParseFloat(f, 64)
		}
		if err != nil {
			return fmt.Errorf("stats: bad %s %q", [...]string{"count", "sum", "min", "max"}[k-1], f)
		}
		if k <= 4 {
			continue
		}
		is, cs, _ := strings.Cut(f, "=")
		i, err := strconv.Atoi(is)
		c, err2 := strconv.ParseUint(cs, 10, 64)
		switch {
		case err != nil || err2 != nil:
			return fmt.Errorf("stats: bad bin %q", f)
		case i < 0 || i >= NumBins:
			return fmt.Errorf("stats: bin index %d out of range", i)
		case seen>>i&1 != 0:
			return fmt.Errorf("stats: bin %d repeated", i)
		case total+c < c:
			return fmt.Errorf("stats: bins overflow at %q", f)
		}
		seen, total = seen|1<<i, total+c
		// The one-bin form holds until a second bin is non-empty.
		switch {
		case c == 0:
		case total == c: // the first non-empty bin
			h.bin = uint8(i)
		case h.bins == nil:
			h.bins = new([NumBins]uint64)
			h.bins[h.bin], h.bins[i] = total-c, c
		default:
			h.bins[i] = c
		}
	}
	if k < 4 {
		return fmt.Errorf("stats: malformed histogram %q", s)
	}
	if total != h.Count {
		return fmt.Errorf("stats: bins hold %d samples, count is %d", total, h.Count)
	}
	if h.Count == 0 {
		return nil // Append of an empty histogram writes "0 0 +Inf -Inf"
	}
	for i, v := range head {
		if !(*v >= 0) || math.IsInf(*v, 1) {
			return fmt.Errorf("%w: %s is %v", ErrBadMoments, [...]string{"sum", "min", "max"}[i], *v)
		}
	}
	if h.Min > h.Max {
		return fmt.Errorf("%w: min %v exceeds max %v", ErrBadMoments, h.Min, h.Max)
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
