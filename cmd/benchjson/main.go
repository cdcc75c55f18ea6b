// Command benchjson turns `go test -bench` output into the BENCH_<n>.json
// baseline format. It reads benchmark output on stdin, parses the ns/op,
// B/op and allocs/op columns, and prints a JSON document on stdout. With
// -merge FILE it starts from an existing baseline instead: the pre_change
// section, speedup notes and metadata are preserved, the post_change
// entries for every benchmark seen on stdin are replaced (re-runs are
// last-write-wins, stdin order deciding ties), and the date is refreshed —
// so `make bench` keeps the recorded history while updating the current
// numbers. A missing or empty -merge file is treated as a fresh baseline
// rather than an error, so the first `make bench` after a baseline-file
// rename still works.
//
// With -series, sub-benchmarks named <variant>-<N>ranks are additionally
// gathered into a "series" section — one array of points per benchmark
// family, each point carrying the variant, world size, GOMAXPROCS (from the
// -N suffix go test appends under -cpu) and the measured columns — and an
// "engine_speedups" section records, for every (shape, size, GOMAXPROCS)
// where both an event- and a goroutine- variant were measured, the ratio of
// goroutine to event ns/op. This is the BENCH_6.json rank-scaling format:
// the curve and the engine comparison are first-class data instead of a
// flat key soup. In series mode the GOMAXPROCS suffix is kept as part of
// the post_change key, since the same benchmark measured at different -cpu
// values is different data.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchLine matches one result row, e.g.
//
//	BenchmarkRunWorld/fast-256ranks   60   19406176 ns/op   4121416 B/op   4825 allocs/op
//
// The trailing -N GOMAXPROCS suffix go test appends on multiprocessor runs
// is captured separately: stripped from the key by default (so keys are
// stable across machines), kept and recorded as the point's GOMAXPROCS in
// -series mode. A benchmark name's own trailing digits (…-256ranks) cannot
// be mistaken for the suffix because the suffix is digits-only up to the
// first column of whitespace.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-(\d+))?\s+\d+\s+(\d+(?:\.\d+)?) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

// Custom b.ReportMetric columns sit between ns/op and the -benchmem pair,
// so they get their own regexes rather than a position in benchLine. The
// model checker reports its state throughput this way.
var statesLine = regexp.MustCompile(`(\d+(?:\.\d+)?) states/sec`)

// memLine re-finds the -benchmem pair independently of position, since a
// custom metric between ns/op and B/op keeps benchLine's optional groups
// from matching.
var memLine = regexp.MustCompile(`(\d+) B/op\s+(\d+) allocs/op`)

// seriesName splits a sub-benchmark key into its family, variant and world
// size, e.g. BenchmarkRankScaling/event-65536ranks.
var seriesName = regexp.MustCompile(`^Benchmark(\w+)/(.+?)-(\d+)ranks$`)

type entry struct {
	NsPerOp      float64 `json:"ns_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp  int64   `json:"allocs_per_op,omitempty"`
	StatesPerSec float64 `json:"states_per_sec,omitempty"`
}

// seriesPoint is one measured point of a -series family.
type seriesPoint struct {
	Variant      string  `json:"variant"`
	Nprocs       int     `json:"nprocs"`
	Gomaxprocs   int     `json:"gomaxprocs"`
	NsPerOp      float64 `json:"ns_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp  int64   `json:"allocs_per_op,omitempty"`
	StatesPerSec float64 `json:"states_per_sec,omitempty"`
}

func main() {
	merge := flag.String("merge", "", "existing baseline JSON to update in place of a fresh document")
	series := flag.Bool("series", false, "gather <variant>-<N>ranks sub-benchmarks into series and engine-speedup sections")
	flag.Parse()

	results := map[string]json.RawMessage{}
	pointsByFam := map[string][]seriesPoint{}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		var e entry
		e.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			e.BytesPerOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		if m[5] != "" {
			e.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		if sm := statesLine.FindStringSubmatch(sc.Text()); sm != nil {
			e.StatesPerSec, _ = strconv.ParseFloat(sm[1], 64)
		}
		if e.BytesPerOp == 0 && e.AllocsPerOp == 0 {
			if mm := memLine.FindStringSubmatch(sc.Text()); mm != nil {
				e.BytesPerOp, _ = strconv.ParseInt(mm[1], 10, 64)
				e.AllocsPerOp, _ = strconv.ParseInt(mm[2], 10, 64)
			}
		}
		raw, err := json.Marshal(e)
		if err != nil {
			fatal(err)
		}
		cpu := 1
		if m[2] != "" {
			cpu, _ = strconv.Atoi(m[2])
		}
		key := m[1]
		if *series && cpu != 1 {
			key = fmt.Sprintf("%s-%dP", key, cpu)
		}
		results[key] = raw
		if sm := seriesName.FindStringSubmatch(m[1]); *series && sm != nil {
			n, _ := strconv.Atoi(sm[3])
			pointsByFam[sm[1]] = append(pointsByFam[sm[1]], seriesPoint{
				Variant: sm[2], Nprocs: n, Gomaxprocs: cpu,
				NsPerOp: e.NsPerOp, BytesPerOp: e.BytesPerOp, AllocsPerOp: e.AllocsPerOp,
				StatesPerSec: e.StatesPerSec,
			})
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if len(results) == 0 {
		fatal(fmt.Errorf("no benchmark result lines on stdin"))
	}

	doc := map[string]json.RawMessage{}
	if *merge != "" {
		data, err := os.ReadFile(*merge)
		switch {
		case errors.Is(err, os.ErrNotExist):
			fmt.Fprintf(os.Stderr, "benchjson: %s does not exist; starting a fresh baseline\n", *merge)
		case err != nil:
			fatal(err)
		case len(bytes.TrimSpace(data)) == 0:
			fmt.Fprintf(os.Stderr, "benchjson: %s is empty; starting a fresh baseline\n", *merge)
		default:
			// An unreadable document is still fatal: silently replacing a
			// corrupt baseline would destroy the recorded history.
			if err := json.Unmarshal(data, &doc); err != nil {
				fatal(fmt.Errorf("%s: %w", *merge, err))
			}
		}
	}

	post := map[string]json.RawMessage{}
	if prev, ok := doc["post_change"]; ok {
		if err := json.Unmarshal(prev, &post); err != nil {
			fatal(fmt.Errorf("post_change: %w", err))
		}
	}
	for name, raw := range results {
		post[name] = raw
	}
	setJSON(doc, "post_change", post)
	if *series {
		fams := map[string][]seriesPoint{}
		if prev, ok := doc["series"]; ok {
			if err := json.Unmarshal(prev, &fams); err != nil {
				fatal(fmt.Errorf("series: %w", err))
			}
		}
		for fam, pts := range pointsByFam {
			// Replace matching (variant, nprocs, gomaxprocs) points, keep the
			// rest — bench6 pipes several go test invocations through here in
			// sequence and each must preserve the others' data.
			merged := fams[fam][:0:0]
			for _, old := range fams[fam] {
				replaced := false
				for _, p := range pts {
					if old.Variant == p.Variant && old.Nprocs == p.Nprocs && old.Gomaxprocs == p.Gomaxprocs {
						replaced = true
						break
					}
				}
				if !replaced {
					merged = append(merged, old)
				}
			}
			merged = append(merged, pts...)
			sort.Slice(merged, func(i, j int) bool {
				a, b := merged[i], merged[j]
				if a.Variant != b.Variant {
					return a.Variant < b.Variant
				}
				if a.Gomaxprocs != b.Gomaxprocs {
					return a.Gomaxprocs < b.Gomaxprocs
				}
				return a.Nprocs < b.Nprocs
			})
			fams[fam] = merged
		}
		setJSON(doc, "series", fams)
		setJSON(doc, "engine_speedups", engineSpeedups(fams))
		if vt := verifyThroughput(fams); len(vt) > 0 {
			setJSON(doc, "verify_throughput", vt)
		}
	}
	setJSON(doc, "date", time.Now().UTC().Format("2006-01-02"))
	setJSON(doc, "go", runtime.Version()+" "+runtime.GOOS+"/"+runtime.GOARCH)

	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

// engineSpeedups derives the engine-comparison table from the merged
// series: wherever an event(…) and a goroutine(…) variant were measured at
// the same shape, world size and GOMAXPROCS, it records goroutine ns/op
// divided by event ns/op — >1 means the event engine is faster.
func engineSpeedups(fams map[string][]seriesPoint) map[string]float64 {
	out := map[string]float64{}
	for fam, pts := range fams {
		for _, p := range pts {
			rest, ok := strings.CutPrefix(p.Variant, "event")
			if !ok {
				continue
			}
			for _, q := range pts {
				if q.Variant == "goroutine"+rest && q.Nprocs == p.Nprocs &&
					q.Gomaxprocs == p.Gomaxprocs && p.NsPerOp > 0 {
					key := fmt.Sprintf("%s%s-%dranks-%dP", fam, rest, p.Nprocs, p.Gomaxprocs)
					out[key] = math.Round(q.NsPerOp/p.NsPerOp*100) / 100
				}
			}
		}
	}
	return out
}

// verifyThroughput gathers the model checker's states/sec metric per
// measured point — the BENCH_10.json checker-throughput-vs-rank-count
// evidence. Points without the metric (every non-verifier benchmark) are
// skipped.
func verifyThroughput(fams map[string][]seriesPoint) map[string]float64 {
	out := map[string]float64{}
	for fam, pts := range fams {
		for _, p := range pts {
			if p.StatesPerSec <= 0 {
				continue
			}
			key := fmt.Sprintf("%s/%s-%dranks-%dP", fam, p.Variant, p.Nprocs, p.Gomaxprocs)
			out[key] = math.Round(p.StatesPerSec)
		}
	}
	return out
}

func setJSON(doc map[string]json.RawMessage, key string, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	doc[key] = raw
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
