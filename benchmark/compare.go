package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"text/tabwriter"
)

func loadDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// Verdicts of one workload x metric comparison.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
)

// relativeVerdict judges a metric whose bound is a share of the old value.
// noisy marks a side measured under a load-average warning: a difference
// beyond the bound is then unresolved, not a finding.
func relativeVerdict(m metric, old, new, bound float64, noisy bool) string {
	switch {
	case old == new:
		return same
	case old == 0 || math.IsNaN(old) || math.IsNaN(new):
		return unresolved
	}
	change := (new - old) / math.Abs(old) // > 0: got worse
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case math.Abs(change) <= bound:
		return same
	case noisy:
		return unresolved
	case change > 0:
		return worse
	}
	return better
}

// absoluteVerdict judges a lower-is-better metric that may be zero.
func absoluteVerdict(old, new, bound float64) string {
	switch d := new - old; {
	case d > bound:
		return worse
	case d < -bound:
		return better
	}
	return same
}

// row is one line of the comparison: ratio is new/old, its base the old value.
type row struct {
	workload, metric string
	old, new         float64
	unit, verdict    string
}

// comparison is what -compare prints and -selfcheck asserts on.
type comparison struct {
	rows []row
	// exactDiffs lists counts, virtual-time results and digests that two
	// runs of unchanged code must agree on and these two do not.
	exactDiffs []string
	worse      bool
}

func compareDocuments(sp *spec, old, new *document) *comparison {
	c := &comparison{}
	bounds := sp.bounds()
	loaded := func(d *document, l *ledger) bool {
		return math.Max(l.Load1[0], l.Load1[1]) > float64(d.Host.NProc)
	}
	for _, w := range sp.Workloads {
		a, b := old.Workloads[w.Name], new.Workloads[w.Name]
		if a == nil || b == nil {
			c.rows = append(c.rows, row{workload: w.Name, metric: "(workload)", verdict: unresolved})
			continue
		}
		noisy := loaded(old, a) || loaded(new, b) || a.Ops != b.Ops
		for _, m := range append(append([]metric(nil), timedEndToEnd...), exactEndToEnd...) {
			x, okA := a.EndToEnd[m.Name]
			y, okB := b.EndToEnd[m.Name]
			if !okA && !okB {
				continue // no op of this workload has an original to compare with
			}
			r := row{workload: w.Name, metric: m.Name, old: x.Value, new: y.Value, unit: m.Unit}
			switch abs, isAbs := absBound[m.Name]; {
			case okA != okB:
				r.verdict = unresolved
			case isAbs:
				r.verdict = absoluteVerdict(x.Value, y.Value, abs)
			case m.Name == "source_kb":
				r.verdict = relativeVerdict(m, x.Value, y.Value, sourceKBBound, false)
			default:
				r.verdict = relativeVerdict(m, x.Value, y.Value, bounds[m.Name], noisy)
			}
			if r.verdict == worse || (m.Name == "failed_share" && y.Value > x.Value) {
				c.worse = true
			}
			if m.Exact && x.Value != y.Value {
				c.exactDiffs = append(c.exactDiffs, fmt.Sprintf("%s %s: %v -> %v", w.Name, m.Name, x.Value, y.Value))
			}
			c.rows = append(c.rows, r)
		}
		for _, m := range layerMetrics {
			x, okA := a.PerLayer[m.Name]
			y, okB := b.PerLayer[m.Name]
			if m.Exact && okA && okB && x.Value != y.Value {
				c.exactDiffs = append(c.exactDiffs, fmt.Sprintf("%s %s: %v -> %v", w.Name, m.Name, x.Value, y.Value))
			}
		}
		if a.Digest != b.Digest && old.Host.Seed == new.Host.Seed && a.Ops == b.Ops {
			c.exactDiffs = append(c.exactDiffs, fmt.Sprintf("%s result_digest: %.12s -> %.12s", w.Name, a.Digest, b.Digest))
		}
	}
	return c
}

func (c *comparison) print(w *os.File) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tnew/old\tverdict")
	for _, r := range c.rows {
		ratio := "-"
		if r.old != 0 {
			ratio = fmt.Sprintf("%.3f of %.4g %s", r.new/r.old, r.old, r.unit)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%s\t%s\n", r.workload, r.metric, r.old, r.new, ratio, r.verdict)
	}
	tw.Flush()
	for _, d := range c.exactDiffs {
		fmt.Fprintln(w, "differs:", d)
	}
}

func compareFiles(sp *spec, oldPath, newPath string) error {
	old, err := loadDocument(oldPath)
	if err != nil {
		return err
	}
	new, err := loadDocument(newPath)
	if err != nil {
		return err
	}
	c := compareDocuments(sp, old, new)
	c.print(os.Stdout)
	if c.worse {
		return fmt.Errorf("%s is worse than %s", newPath, oldPath)
	}
	return nil
}

// selfCheck runs the whole benchmark twice on the same tree, traced, and
// requires the pair to agree: within the bounds on every timed metric and
// exactly on every count, virtual-time result and digest.
func selfCheck(sp *spec, o options, out string) error {
	o.traced = true
	var docs [2]*document
	for i, name := range []string{"selfcheck-a.json", "selfcheck-b.json"} {
		doc, err := runAll(o, out)
		if err != nil {
			return err
		}
		if _, err := writeJSON(filepath.Join(out, name), doc); err != nil {
			return err
		}
		docs[i] = doc
	}
	c := compareDocuments(sp, docs[0], docs[1])
	c.print(os.Stdout)
	switch {
	case len(c.exactDiffs) > 0:
		return fmt.Errorf("selfcheck: %d exact values differ between two runs of the same tree", len(c.exactDiffs))
	case c.worse:
		return fmt.Errorf("selfcheck: the second run is worse than the first beyond the bounds")
	}
	return nil
}
