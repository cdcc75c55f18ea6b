// Command benchmark is the repository's one performance ledger: seven
// closed-loop workloads over the trace -> generate -> execute chain and the
// benchd service, each reporting the same end-to-end metrics and, in a
// separate traced phase, per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/apps"
)

func k(app string, n int, class apps.Class) kernel { return kernel{app, n, class} }

// workloads lists the suite. small swaps in the smallest inputs that still
// enter every layer, for the smoke test.
func workloads(small bool) []*workload {
	const S, A = apps.ClassS, apps.ClassA
	npb := []string{"bt", "sp", "cg", "mg", "lu", "sweep3d", "ft", "is"}
	if small {
		grid := requestGrid([]string{"bt", "is"}, []int{4}, []string{"S"})
		return []*workload{
			{name: "chain-stencil", ops: 1, setup: newChain([]kernel{k("bt", 4, S), k("mg", 4, S)})},
			{name: "chain-wildcard", ops: 1, setup: newChain([]kernel{k("lu", 4, S)})},
			{name: "gen-irregular", ops: 1, setup: newGen([]kernel{k("sweep3d", 4, S), k("is", 4, S)})},
			{name: "exec-whatif", ops: 1, setup: newWhatif([]kernel{k("bt", 4, S), k("ring", 8, S)})},
			{name: "verify-wildcard", ops: 1, setup: newVerify([]kernel{k("lu", 4, S)})},
			{name: "benchd-cold", ops: len(grid), maxOps: len(grid), setup: newBenchd(false, grid)},
			{name: "benchd-warm", ops: 16, setup: newBenchd(true, grid)},
		}
	}
	grid := requestGrid(npb, []int{16, 36, 64}, []string{"S", "W"})
	return []*workload{
		{name: "chain-stencil", ops: 24, setupReps: 3,
			setup: newChain([]kernel{k("bt", 64, S), k("cg", 64, S), k("mg", 64, S)})},
		{name: "chain-wildcard", ops: 48, setupReps: 3,
			setup: newChain([]kernel{k("lu", 16, S)})},
		{name: "gen-irregular", ops: 24, setupReps: 3,
			setup: newGen([]kernel{k("sweep3d", 64, A), k("sweep3d", 36, A), k("is", 64, A), k("is", 128, A)})},
		{name: "exec-whatif", ops: 36,
			setup: newWhatif([]kernel{k("bt", 144, S), k("lu", 64, S), k("cg", 256, S), k("mg", 512, S), k("ring", 1024, S)})},
		{name: "verify-wildcard", ops: 60, setupReps: 3,
			setup: newVerify([]kernel{k("lu", 8, S), k("bt", 16, S), k("sweep3d", 16, S)})},
		{name: "benchd-cold", ops: len(grid) / 2, maxOps: len(grid),
			setup: newBenchd(false, grid)},
		{name: "benchd-warm", ops: 8000,
			setup: newBenchd(true, grid[:len(grid)/2])},
	}
}

// referenceSeconds is the run length the workloads' op counts are sized for.
const referenceSeconds = 10

// value is one metric as printed.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the last line of a single-workload run's standard output.
type line struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// options are the flags every mode shares.
type options struct {
	seed    int64
	seconds int
	traced  bool
	ops     int // 0: the workload's own count, scaled by seconds
	small   bool
}

// procs is the GOMAXPROCS of every measured process: the reference
// container has two cores. run.sh exports the same value, because the world
// pools size themselves when the process starts.
const procs = 2

func main() {
	var o options
	name := flag.String("workload", "", "run this workload only and print its result line")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every shuffle and draw")
	flag.IntVar(&o.seconds, "seconds", referenceSeconds, "run length the op counts are scaled to")
	trace := flag.Int("trace", 0, "1: also run the traced phase and report per-layer metrics")
	flag.IntVar(&o.ops, "ops", 0, "override the op count (smoke tests)")
	flag.BoolVar(&o.small, "small", false, "smallest inputs (smoke tests)")
	compare := flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	selfcheck := flag.Bool("selfcheck", false, "run everything twice and compare the two runs")
	flag.Parse()
	o.traced = *trace == 1
	if err := run(o, *name, *compare, *selfcheck); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, name string, compare, selfcheck bool) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return err
	}
	out := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	switch {
	case compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("usage: -compare old.json new.json")
		}
		return compareFiles(sp, flag.Arg(0), flag.Arg(1))
	case selfcheck:
		return selfCheck(sp, o, out)
	case name == "":
		doc, err := runAll(o, out)
		if err != nil {
			return err
		}
		data, err := writeJSON(filepath.Join(out, "result.json"), doc)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	}
	for _, w := range workloads(o.small) {
		if w.name == name {
			return runOne(w, o, out)
		}
	}
	return fmt.Errorf("unknown workload %q", name)
}

// recordPath is where a single-workload run leaves its full record (all
// eight end-to-end metrics, digest, failures) for the all-workloads mode.
func recordPath(out, name string, traced bool) string {
	return filepath.Join(out, fmt.Sprintf("%s-traced-%t.json", name, traced))
}

// runOne measures one workload in this process and prints its result line.
func runOne(w *workload, o options, out string) error {
	runtime.GOMAXPROCS(procs)
	tmp, err := os.MkdirTemp(out, "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: o.seed, tmp: tmp, ops: o.ops}
	if e.ops <= 0 {
		e.ops = int(math.Round(float64(w.ops) * float64(o.seconds) / referenceSeconds))
		if o.traced {
			e.ops /= 2
		}
		e.ops = max(e.ops, 1)
	}
	if w.maxOps > 0 {
		e.ops = min(e.ops, w.maxOps)
	}
	load0 := loadAverage()
	res, err := runWorkload(w, e, o.traced, filepath.Join(out, "trace-"+w.name+".json"))
	if err != nil {
		return err
	}
	res.Load1 = [2]float64{load0, loadAverage()}

	defs := timedEndToEnd
	if o.traced {
		defs = tracedMetrics()
	}
	l := line{Correct: len(res.Failures) == 0, Attempted: res.Attempted, Failed: len(res.Failures),
		Metrics: map[string]value{}}
	for _, m := range defs {
		l.Metrics[m.Name] = value{res.Metrics[m.Name], m.Unit}
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED", f)
	}
	if _, err := writeJSON(recordPath(out, w.name, o.traced), res); err != nil {
		return err
	}
	data, err := json.Marshal(l)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// writeJSON stores v indented and returns what it wrote.
func writeJSON(path string, v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	data = append(data, '\n')
	return data, os.WriteFile(path, data, 0o644)
}

// loadAverage reads the 1-minute load average.
func loadAverage() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	v, _ := strconv.ParseFloat(strings.Fields(string(data))[0], 64)
	return v
}

// host records where a set of runs was measured.
type host struct {
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Seed       int64    `json:"seed"`
	Warnings   []string `json:"warnings,omitempty"`
}

// document is the ledger entry: every workload's result on one host.
type document struct {
	Host      host               `json:"host"`
	WallS     float64            `json:"wall_s"`
	Workloads map[string]*ledger `json:"workloads"`
}

// ledger is one workload's entry: the untraced run's end-to-end metrics
// and, when a traced run was made, its per-layer metrics.
type ledger struct {
	Ops            int              `json:"ops"`
	WallS          float64          `json:"wall_s"`
	HostSlowdown   float64          `json:"host_slowdown"`
	Load1          [2]float64       `json:"load1_start_end"`
	TailPercentile float64          `json:"tail_percentile"`
	EndToEnd       map[string]value `json:"end_to_end"`
	PerLayer       map[string]value `json:"per_layer,omitempty"`
	Digest         string           `json:"result_digest"`
	Failures       []string         `json:"failures,omitempty"`
}

func units(defs []metric, vals map[string]float64) map[string]value {
	out := map[string]value{}
	for _, m := range defs {
		if v, ok := vals[m.Name]; ok {
			out[m.Name] = value{v, m.Unit}
		}
	}
	return out
}

// runAll re-executes this binary once per workload (and once more with
// tracing on), so world pools, caches and heap never leak between workloads.
func runAll(o options, out string) (*document, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	commit := "unknown"
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	doc := &document{Host: host{Commit: commit, GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: procs, Seed: o.seed}, Workloads: map[string]*ledger{}}
	child := func(name string, traced bool) (*result, error) {
		cmd := exec.Command(self, "-workload", name, "-trace", map[bool]string{false: "0", true: "1"}[traced],
			"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
			"-ops", strconv.Itoa(o.ops), "-small="+strconv.FormatBool(o.small))
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("workload %s: %w", name, err)
		}
		data, err := os.ReadFile(recordPath(out, name, traced))
		if err != nil {
			return nil, err
		}
		var res result
		return &res, json.Unmarshal(data, &res)
	}
	for _, w := range workloads(o.small) {
		fmt.Fprintf(os.Stderr, "benchmark: %s\n", w.name)
		res, err := child(w.name, false)
		if err != nil {
			return nil, err
		}
		l := &ledger{Ops: res.Ops, WallS: res.WallS, HostSlowdown: res.HostSlowdown, Load1: res.Load1,
			TailPercentile: res.TailPercentile, Digest: res.Digest, Failures: res.Failures,
			EndToEnd: units(append(append([]metric(nil), timedEndToEnd...), exactEndToEnd...), res.Metrics)}
		if o.traced {
			tres, err := child(w.name, true)
			if err != nil {
				return nil, err
			}
			l.PerLayer = units(layerMetrics, tres.Metrics)
			l.Failures = append(l.Failures, tres.Failures...)
		}
		if load := math.Max(l.Load1[0], l.Load1[1]); load > float64(runtime.NumCPU()) {
			doc.Host.Warnings = append(doc.Host.Warnings,
				fmt.Sprintf("%s: load average %.2f exceeds nproc %d; timings are unreliable", w.name, load, runtime.NumCPU()))
		}
		doc.Workloads[w.name] = l
	}
	doc.WallS = time.Since(start).Seconds()
	for _, warn := range doc.Host.Warnings {
		fmt.Fprintln(os.Stderr, "benchmark: WARNING", warn)
	}
	return doc, nil
}
