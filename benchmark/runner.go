package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// workload is one closed-loop scenario: a single caller issues its next op
// only after the previous one completed, until ops ops are done.
type workload struct {
	name string
	// ops is the op count of a 10-second run on the reference container;
	// -seconds scales it linearly, so the count is fixed per commit and
	// sample counts, percentiles and exact counts repeat.
	ops int
	// maxOps caps ops where the input set is finite (benchd-cold's unique
	// requests); 0 means no cap.
	maxOps int
	// setupReps is how many times setup runs (default once); setup_s is the
	// median.
	setupReps int
	setup     func(e *env) (instance, error)
}

// env is what a workload's setup may depend on. The program under test sees
// only inputs derived from it.
type env struct {
	seed int64
	ops  int    // ops per phase
	tmp  string // scratch directory inside the checkout, removed at exit
}

// instance is a set-up workload.
type instance interface {
	// beginPhase runs before each measured phase (untraced, then traced).
	beginPhase(traced bool) error
	// op runs operation c.i and returns the check of its outputs, which the
	// runner times separately.
	op(c *opCtx) (check func() error, err error)
	// probe takes the per-layer measurements that need extra runs (a bare
	// app run, a cold world, the causal profiler on and off); it is called
	// once, after the traced ops, and stores metric values by name.
	probe(into map[string]float64) error
	close()
}

// opCtx carries one op's tracing state and collects what it produced.
type opCtx struct {
	i    int
	tr   *tracer // nil with tracing off
	root int

	sourceBytes int
	errSum      float64 // timing-error samples: |generated-original|/original
	errN        int
	digest      hash.Hash
	counts      map[string]float64   // summed over the op; reported per op
	samples     map[string][]float64 // wall times; reported as their mean on the reference container
}

func (c *opCtx) traced() bool { return c.tr != nil }

// span times one call into a layer when tracing is on:
//
//	done := c.span("trace.encode"); trace.Encode(...); done()
func (c *opCtx) span(name string) func() {
	if c.tr == nil {
		return func() {}
	}
	id := c.tr.begin(name, c.i, c.root)
	return func() { c.tr.end(id) }
}

func (c *opCtx) count(name string, v float64) { c.counts[name] += v }

func (c *opCtx) sample(name string, v float64) { c.samples[name] = append(c.samples[name], v) }

func (c *opCtx) timingError(generatedUS, originalUS float64) {
	c.errSum += math.Abs(generatedUS-originalUS) / originalUS
	c.errN++
}

func (c *opCtx) digestString(s string) { c.digest.Write([]byte(s)) }

func (c *opCtx) digestFloats(v ...float64) {
	var b [8]byte
	for _, f := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		c.digest.Write(b[:])
	}
}

// phase is the outcome of one measured phase.
type phase struct {
	ops []*opCtx
	lat []time.Duration // wall time of each op
	// slow is each op's host slowdown: the calibrations just before and just
	// after it against calReference.
	slow      []float64
	wall      time.Duration // whole phase, checks and calibrations included
	checkTime time.Duration
	allocB    uint64 // bytes allocated by the ops alone
	mallocs   uint64
	failures  []string
	// Traced phases only: the telemetry registry around the ops (checks
	// excluded) and the share of CPU time the collector took.
	before, after *telemetry.Snapshot
	gcCPUPct      float64
}

// onReference returns the ops' latencies on the reference container.
func (p *phase) onReference() []time.Duration {
	out := make([]time.Duration, len(p.lat))
	for i, d := range p.lat {
		out[i] = onReference(d, p.slow[i])
	}
	return out
}

var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

// allocNow reads the process's cumulative allocation counters without
// stopping the world.
func allocNow() (bytes, objects uint64) {
	metrics.Read(allocSamples)
	return allocSamples[0].Value.Uint64(), allocSamples[1].Value.Uint64()
}

// runPhase drives the closed loop: op, its output check and, after every op
// that ends calEvery or more after the last one, a collection and a
// calibration of the host. Only the op is timed, and only its allocations
// are counted.
func runPhase(inst instance, n int, tr *tracer) *phase {
	p := &phase{ops: make([]*opCtx, n), lat: make([]time.Duration, n), slow: make([]float64, n)}
	fail := func(i int, what string, err error) {
		p.failures = append(p.failures, fmt.Sprintf("op %d %s: %v", i, what, err))
	}
	// aside runs what is not the op, with its engine runs kept out of the
	// telemetry deltas, and returns how long it took.
	var asideB, asideObjects uint64
	aside := func(f func()) time.Duration {
		if tr != nil {
			telemetry.Disable()
			defer telemetry.Enable()
		}
		t0 := time.Now()
		b0, o0 := allocNow()
		f()
		b1, o1 := allocNow()
		asideB += b1 - b0
		asideObjects += o1 - o0
		return time.Since(t0)
	}

	var gc0, cpu0 float64
	if tr != nil {
		telemetry.Enable()
		p.before = telemetry.Default.Snapshot()
		gc0, cpu0 = cpuNow()
	}
	b0, o0 := allocNow()
	start := time.Now()
	var cal time.Duration
	aside(func() { cal = calibrate() })
	calAt := time.Now()
	first := 0 // the first op since the last calibration
	for i := 0; i < n; i++ {
		c := &opCtx{i: i, tr: tr, root: -1, digest: sha256.New(),
			counts: map[string]float64{}, samples: map[string][]float64{}}
		p.ops[i] = c
		t0 := time.Now()
		if tr != nil {
			c.root = tr.begin("op", i, -1)
		}
		check, err := inst.op(c)
		if tr != nil {
			tr.end(c.root)
		}
		p.lat[i] = time.Since(t0)
		if err != nil {
			fail(i, "failed", err)
		} else {
			p.checkTime += aside(func() {
				if err := check(); err != nil {
					fail(i, "check", err)
				}
			})
		}
		if i == n-1 || time.Since(calAt) >= calEvery {
			// Start the next op from a collected heap: the garbage of this
			// op's check otherwise decides when that op pays for a
			// collection, and op times scatter by 20 %.
			runtime.GC()
			before := cal
			aside(func() { cal = calibrate() })
			calAt = time.Now()
			for ; first <= i; first++ {
				p.slow[first] = slowdown(before, cal)
			}
		}
	}
	p.wall = time.Since(start)
	b1, o1 := allocNow()
	p.allocB = b1 - b0 - asideB
	p.mallocs = o1 - o0 - asideObjects
	if tr != nil {
		gc1, cpu1 := cpuNow()
		p.gcCPUPct = 100 * (gc1 - gc0) / (cpu1 - cpu0)
		p.after = telemetry.Default.Snapshot()
		telemetry.Disable()
	}
	return p
}

// digest folds the ops' digests in op order.
func (p *phase) digest() string {
	h := sha256.New()
	for _, c := range p.ops {
		h.Write(c.digest.Sum(nil))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// endToEnd computes the eight end-to-end metrics of an untraced phase.
func (p *phase) endToEnd(setup time.Duration) map[string]float64 {
	n := float64(len(p.ops))
	lat := p.onReference()
	p50, tail := latencyStats(lat)
	var busy time.Duration
	for _, d := range lat {
		busy += d
	}
	var src int
	var errSum float64
	var errN int
	for _, c := range p.ops {
		src += c.sourceBytes
		errSum += c.errSum
		errN += c.errN
	}
	vals := map[string]float64{
		"setup_s":   setup.Seconds(),
		"op_p50_ms": p50, "op_tail_ms": tail,
		// Ops over the time spent in ops: the phase without its checks,
		// collections and calibrations.
		"ops_per_s":       n / busy.Seconds(),
		"alloc_mb_per_op": float64(p.allocB) / 1e6 / n,
		"source_kb":       float64(src) / 1e3 / n,
		"failed_share":    float64(len(p.failures)) / n,
	}
	if errN > 0 {
		vals["timing_error_pct"] = 100 * errSum / float64(errN)
	}
	return vals
}

var stageRegions = map[string]string{
	"service.trace":    "service.stage_trace_ms",
	"service.generate": "service.stage_generate_ms",
	"service.render":   "service.stage_render_ms",
	"service.predict":  "service.stage_predict_ms",
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func cpuNow() (gc, total float64) {
	metrics.Read(cpuSamples)
	return cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
}

// peakRSSMB reads the process's high-water resident set size.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// spanMetrics maps a span name to the per-layer metric its self time feeds.
var spanMetrics = map[string]string{
	"trace.finalize_merge": "trace.finalize_merge_ms",
	"trace.encode":         "trace.encode_ms",
	"trace.decode":         "trace.decode_ms",
	"wildcard.resolve":     "wildcard.resolve_ms",
	"align.align":          "align.align_ms",
	"core.traverse":        "core.traverse_ms",
	"core.gogen":           "core.gogen_ms",
	"conceptual.print":     "conceptual.print_ms",
	"conceptual.parse":     "conceptual.parse_ms",
	"conceptual.cgen":      "conceptual.cgen_ms",
	"conceptual.execute":   "conceptual.execute_ms",
	"replay.replay":        "replay.replay_ms",
}

// perLayer computes the traced phase's metrics: span self times, registry
// deltas and the ops' own counts per op, plus the instance's probes.
func perLayer(p, untraced *phase, tr *tracer, probes map[string]float64) map[string]float64 {
	before, after := p.before, p.after
	n := float64(len(p.ops))
	self := tr.selfTimes(p.slow)
	host := medianFloat(p.slow)
	perOpMS := func(span string) float64 { return ms(self[span]) / n }
	delta := func(ctr string) float64 { return float64(after.Counters[ctr]-before.Counters[ctr]) / n }
	ratio := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}

	v := map[string]float64{}
	counts := map[string]float64{}
	sampleSum := map[string]float64{}
	sampleN := map[string]int{}
	var src, errN int
	var errSum float64
	for _, c := range p.ops {
		src += c.sourceBytes
		errSum += c.errSum
		errN += c.errN
		for k, x := range c.counts {
			counts[k] += x
		}
		for k, xs := range c.samples {
			for _, x := range xs {
				sampleSum[k] += x / p.slow[c.i]
			}
			sampleN[k] += len(xs)
		}
	}
	for k, x := range counts {
		if !strings.HasPrefix(k, "_") {
			v[k] = x / n
		}
	}
	for k, s := range sampleSum {
		v[k] = s / float64(sampleN[k])
	}
	for k, x := range probes {
		v[k] = x
	}
	for span, name := range spanMetrics {
		v[name] = perOpMS(span)
	}

	v["source_kb"] = float64(src) / 1e3 / n
	v["failed_share"] = float64(len(p.failures)) / n
	if errN > 0 {
		v["timing_error_pct"] = 100 * errSum / float64(errN)
	}

	v["mpi.sched_events"] = delta("mpi.sched_events")
	v["mpi.sched_wakes"] = delta("mpi.sched_wakes")
	v["mpi.fast_match_ratio"] = ratio(delta("mpi.msgs_matched_fast"), delta("mpi.msgs_queued"))
	v["mpi.world_reuse_ratio"] = ratio(delta("mpi.world_reuse_hits"), delta("mpi.world_reuse_misses"))
	v["mpi.wildcard_recvs"] = delta("mpi.wildcard_recvs")
	v["mpi.runpool_steals"] = delta("mpi.runpool_steals")
	if run := perOpMS("app.traced_run"); run > 0 {
		v["trace.collect_ms"] = run - v["mpi.app_run_ms"]
	}
	v["trace.folds"] = delta("trace.folds")
	v["trace.rsd_merges"] = delta("trace.rsd_merges")
	if v["trace.nodes"] > 0 {
		v["trace.events_per_node"] = v["trace.events"] / v["trace.nodes"]
	}
	v["wildcard.resolved"] = delta("wildcard.resolved")
	v["align.rounds"] = delta("align.rounds")
	v["conceptual.cursor_programs"] = delta("conceptual.cursor_programs")
	if ev := counts["_exec_events"]; ev > 0 {
		v["conceptual.exec_ns_per_event"] = float64(self["conceptual.execute"]) / ev
	}
	if ev := counts["_replay_events"]; ev > 0 {
		v["replay.ns_per_event"] = float64(self["replay.replay"]) / ev
	}
	if verify := perOpMS("mpnet.verify"); verify > 0 {
		v["mpnet.crossvalidate_ms"] = verify - v["mpnet.lower_ms"] - v["mpnet.check_ms"]
		v["mpnet.states"] = delta("mpnet.states_explored")
		v["mpnet.states_per_s"] = v["mpnet.states"] / (verify / 1e3)
	}

	var stages float64
	for region, name := range stageRegions {
		// The server's own timers run on the wall clock.
		v[name] = (after.Regions[region].TotalUS - before.Regions[region].TotalUS) / 1e3 / n / host
		stages += v[name]
	}
	if req := perOpMS("service.request"); req > 0 {
		v["service.overhead_ms"] = req - stages
		mem, disk, miss := delta("service.cache_hits_mem"), delta("service.cache_hits_disk"), delta("service.cache_misses")
		v["service.cache_hits_mem"], v["service.cache_hits_disk"], v["service.cache_misses"] = mem, disk, miss
		v["service.hit_ratio"] = ratio(mem+disk, miss)
		v["service.rejected_busy"] = delta("service.jobs_rejected_busy")
	}

	var ops time.Duration // self times partition the ops
	for _, d := range self {
		ops += d
	}
	v["check.ms"] = ms(p.checkTime) / n / host
	v["host.slowdown"] = host
	v["bench.unattributed_pct"] = 100 * float64(self["op"]) / float64(ops)
	tracedP50, _ := latencyStats(p.onReference())
	untracedP50, _ := latencyStats(untraced.onReference())
	v["bench.trace_overhead_pct"] = 100 * (tracedP50/untracedP50 - 1)
	v["runtime.peak_rss_mb"] = peakRSSMB()
	v["runtime.gc_cpu_pct"] = p.gcCPUPct
	v["runtime.mallocs_per_op"] = float64(p.mallocs) / n
	return v
}

// result is what one run of one workload produced.
type result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Traced   bool    `json:"traced"`
	Ops      int     `json:"ops"`
	WallS    float64 `json:"wall_s"` // measured phases
	// HostSlowdown is the median of the untraced ops' slowdowns: multiply a
	// reported time by it to get back the wall time.
	HostSlowdown float64 `json:"host_slowdown"`
	// TailPercentile is the percentile op_tail_ms reports, fixed by Ops.
	TailPercentile float64            `json:"tail_percentile"`
	Metrics        map[string]float64 `json:"metrics"`
	Digest         string             `json:"result_digest"`
	Failures       []string           `json:"failures,omitempty"`
	Attempted      int                `json:"attempted"`
	// Load1 is the 1-minute load average when the run started and ended.
	Load1 [2]float64 `json:"load1_start_end"`
}

// runWorkload sets the workload up, runs the measured phase with tracing
// off and, when traced, the same ops again decomposed into per-layer spans.
// A traced run halves the op count so that it costs what an untraced run
// does.
func runWorkload(w *workload, e *env, traced bool, tracePath string) (*result, error) {
	// A setup of a fraction of a second is set up three times and the
	// median reported: one reading of so short a time is mostly noise.
	var inst instance
	var setups []time.Duration
	for rep := 0; rep < max(w.setupReps, 1); rep++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		var took time.Duration
		slow, err := calibrated(func() (err error) {
			t0 := time.Now()
			inst, err = w.setup(e)
			runtime.GC()
			took = time.Since(t0)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setups = append(setups, onReference(took, slow))
	}
	defer func() { inst.close() }()
	setup := medianDuration(setups)

	if err := inst.beginPhase(false); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	plain := runPhase(inst, e.ops, nil)
	res := &result{Workload: w.name, Seed: e.seed, Traced: traced, Ops: e.ops,
		WallS: plain.wall.Seconds(), HostSlowdown: medianFloat(plain.slow),
		Digest: plain.digest(), Failures: plain.failures, Attempted: e.ops}
	res.TailPercentile, _ = tailRule(e.ops)
	if !traced {
		res.Metrics = plain.endToEnd(setup)
		return res, nil
	}

	if err := inst.beginPhase(true); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	tr := newTracer()
	p := runPhase(inst, e.ops, tr)
	probes := map[string]float64{}
	if err := inst.probe(probes); err != nil {
		return nil, fmt.Errorf("%s: probe: %w", w.name, err)
	}
	res.Metrics = perLayer(p, plain, tr, probes)
	res.WallS += p.wall.Seconds()
	res.Attempted += e.ops
	res.Failures = append(res.Failures, p.failures...)
	if d := p.digest(); d != res.Digest {
		// The decomposed calls must produce what the composite ones did.
		res.Failures = append(res.Failures, fmt.Sprintf("traced phase digest %s differs from untraced %s", d, res.Digest))
	}
	if err := tr.writeChrome(tracePath); err != nil {
		return nil, err
	}
	return res, nil
}
