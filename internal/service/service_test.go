package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/conceptual"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/netmodel"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func TestMain(m *testing.M) {
	// The cache-hit assertions read telemetry counters, which only record
	// while telemetry is enabled.
	telemetry.Enable()
	os.Exit(m.Run())
}

// newTestServer stands up a daemon over httptest and returns a client bound
// to it. The server is drained at cleanup so no job outlives its test.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		hs.Close()
	})
	return srv, &Client{BaseURL: hs.URL, PollInterval: 5 * time.Millisecond}
}

// cliArtifact reproduces exactly what `tracegen | benchgen` emits for an app:
// trace the app, round-trip the trace through the codec (tracegen writes it,
// benchgen reads it), generate with benchgen's comment line, render.
func cliArtifact(t *testing.T, app string, n int, class apps.Class, model *netmodel.Model, lang string) string {
	t.Helper()
	run, err := harness.TraceApp(app, apps.NewConfig(n, class), model)
	if err != nil {
		t.Fatalf("TraceApp(%s): %v", app, err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, run.Trace); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	tr, err := trace.Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	prog, err := core.Generate(tr, &core.Options{
		Comments: []string{fmt.Sprintf("source trace: %d ranks, %d events", tr.N, tr.TotalEvents())},
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	switch lang {
	case "conceptual":
		return conceptual.Print(prog)
	case "c":
		return conceptual.GenerateC(prog)
	case "go":
		src, err := core.GenerateGo(tr, nil)
		if err != nil {
			t.Fatalf("GenerateGo: %v", err)
		}
		return src
	}
	t.Fatalf("unknown lang %q", lang)
	return ""
}

// TestServedArtifactMatchesCLI is the tentpole guarantee: for each app
// kernel and target language, the daemon serves byte-identical source to
// what the CLI pipeline produces.
func TestServedArtifactMatchesCLI(t *testing.T) {
	_, cl := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	cases := []struct {
		app  string
		n    int
		lang string
	}{
		{"ring", 8, "conceptual"},
		{"ring", 8, "c"},
		{"ring", 8, "go"},
		{"pingpong", 2, "conceptual"},
		{"halo2d", 16, "conceptual"},
	}
	for _, tc := range cases {
		t.Run(tc.app+"/"+tc.lang, func(t *testing.T) {
			want := cliArtifact(t, tc.app, tc.n, apps.ClassS, netmodel.Preset("bluegene"), tc.lang)
			res, err := cl.Generate(context.Background(),
				&Request{App: tc.app, N: tc.n, Class: "S", Lang: tc.lang})
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			if res.Source != want {
				t.Fatalf("served source differs from CLI pipeline output\n--- served\n%s\n--- cli\n%s",
					res.Source, want)
			}
			if res.N != tc.n || len(res.PerRankUS) != tc.n {
				t.Fatalf("prediction covers %d ranks, want %d", len(res.PerRankUS), tc.n)
			}
			if res.ElapsedUS <= 0 {
				t.Fatalf("predicted makespan %v, want > 0", res.ElapsedUS)
			}
			if !strings.Contains(res.Profile, "MPI_") && res.Profile == "" {
				t.Fatalf("profile missing:\n%q", res.Profile)
			}
		})
	}
}

// TestUploadedTraceMatchesCLI: uploading raw trace bytes must serve the same
// source benchgen produces from the same bytes.
func TestUploadedTraceMatchesCLI(t *testing.T) {
	run, err := harness.TraceApp("ring", apps.NewConfig(8, apps.ClassS), netmodel.Preset("bluegene"))
	if err != nil {
		t.Fatalf("TraceApp: %v", err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, run.Trace); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	raw := buf.String()

	tr, err := trace.Decode(strings.NewReader(raw))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	prog, err := core.Generate(tr, &core.Options{
		Comments: []string{fmt.Sprintf("source trace: %d ranks, %d events", tr.N, tr.TotalEvents())},
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	want := conceptual.Print(prog)

	_, cl := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	res, err := cl.Generate(context.Background(), &Request{Trace: raw})
	if err != nil {
		t.Fatalf("Generate(upload): %v", err)
	}
	if res.Source != want {
		t.Fatalf("uploaded-trace source differs from benchgen output")
	}
	if res.App != "" {
		t.Fatalf("upload result names app %q", res.App)
	}
}

// TestCacheServesRepeatRequests: the second identical request is born done
// from the memory tier without re-running the pipeline.
func TestCacheServesRepeatRequests(t *testing.T) {
	_, cl := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	req := &Request{App: "pingpong", N: 2, Class: "S"}

	st, err := cl.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.Cached != "" {
		t.Fatalf("first submission served from cache %q", st.Cached)
	}
	first, err := cl.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}

	runsBefore := ctrPipelineRuns.Value()
	hitsBefore := ctrCacheHitsMem.Value()
	st2, err := cl.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("Submit again: %v", err)
	}
	if st2.State != StateDone || st2.Cached != "mem" {
		t.Fatalf("repeat submission state=%s cached=%q, want done from mem", st2.State, st2.Cached)
	}
	second, err := cl.Wait(context.Background(), st2.ID)
	if err != nil {
		t.Fatalf("Wait(cached): %v", err)
	}
	if second.Source != first.Source || second.Key != first.Key {
		t.Fatalf("cached result differs from computed result")
	}
	if got := ctrPipelineRuns.Value(); got != runsBefore {
		t.Fatalf("cache hit still ran the pipeline (%d -> %d runs)", runsBefore, got)
	}
	if got := ctrCacheHitsMem.Value(); got != hitsBefore+1 {
		t.Fatalf("memory-tier hit counter %d -> %d, want +1", hitsBefore, got)
	}
}

// TestDiskCacheSurvivesRestart: a fresh daemon over the same cache dir
// serves the artifact from disk without recomputing.
func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	srv1, cl1 := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheDir: dir})
	req := &Request{App: "pingpong", N: 2, Class: "S"}
	first, err := cl1.Generate(context.Background(), req)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	srv1.Shutdown(context.Background())

	_, cl2 := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheDir: dir})
	runsBefore := ctrPipelineRuns.Value()
	st, err := cl2.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("Submit after restart: %v", err)
	}
	if st.State != StateDone || st.Cached != "disk" {
		t.Fatalf("restart submission state=%s cached=%q, want done from disk", st.State, st.Cached)
	}
	res, err := cl2.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if res.Source != first.Source {
		t.Fatalf("disk-tier result differs from original")
	}
	if got := ctrPipelineRuns.Value(); got != runsBefore {
		t.Fatalf("disk hit still ran the pipeline")
	}
}

// TestDamagedDiskEntryIsNeverServed: a cache file that is truncated, is not
// JSON, or holds another request's result is a miss for the daemon that
// finds it — the job is recomputed to the original artifact and the entry on
// disk is repaired.
func TestDamagedDiskEntryIsNeverServed(t *testing.T) {
	req := &Request{App: "pingpong", N: 2, Class: "S"}
	damage := map[string]func(t *testing.T, good []byte) []byte{
		"truncated": func(t *testing.T, good []byte) []byte { return good[:len(good)/2] },
		"garbage":   func(t *testing.T, good []byte) []byte { return []byte("\x00not json\xff") },
		"other-key": func(t *testing.T, good []byte) []byte {
			var res Result
			if err := json.Unmarshal(good, &res); err != nil {
				t.Fatalf("decode cache entry: %v", err)
			}
			res.Key = strings.Repeat("0", len(res.Key))
			res.Source = "stale"
			bad, err := json.Marshal(&res)
			if err != nil {
				t.Fatalf("encode cache entry: %v", err)
			}
			return bad
		},
	}
	for name, mutate := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			srv1, cl1 := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheDir: dir})
			first, err := cl1.Generate(context.Background(), req)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			srv1.Shutdown(context.Background())

			entry := filepath.Join(dir, first.Key+".json")
			good, err := os.ReadFile(entry)
			if err != nil {
				t.Fatalf("cache entry: %v", err)
			}
			if err := os.WriteFile(entry, mutate(t, good), 0o644); err != nil {
				t.Fatalf("damage cache entry: %v", err)
			}

			_, cl2 := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheDir: dir})
			runsBefore := ctrPipelineRuns.Value()
			st, err := cl2.Submit(context.Background(), req)
			if err != nil {
				t.Fatalf("Submit after restart: %v", err)
			}
			if st.Cached != "" {
				t.Fatalf("damaged entry served from the %s tier", st.Cached)
			}
			res, err := cl2.Wait(context.Background(), st.ID)
			if err != nil {
				t.Fatalf("Wait: %v", err)
			}
			if got := ctrPipelineRuns.Value(); got != runsBefore+1 {
				t.Fatalf("pipeline runs %d -> %d, want one recompute", runsBefore, got)
			}
			if res.Source != first.Source || !slices.Equal(res.PerRankUS, first.PerRankUS) {
				t.Fatalf("recomputed result differs from the original")
			}
			var onDisk Result
			if data, err := os.ReadFile(entry); err != nil {
				t.Fatalf("repaired entry: %v", err)
			} else if err := json.Unmarshal(data, &onDisk); err != nil {
				t.Fatalf("repaired entry does not decode: %v", err)
			}
			if onDisk.Key != first.Key || onDisk.Source != first.Source {
				t.Fatalf("entry on disk was not repaired")
			}
		})
	}
}

// TestLRUEviction: the memory tier stays bounded.
func TestLRUEviction(t *testing.T) {
	c, err := newCache(2, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		c.put(key, &Result{Key: key})
	}
	if c.order.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.order.Len())
	}
	if res, _ := c.get("k0"); res != nil {
		t.Fatalf("k0 should have been evicted")
	}
	if res, tier := c.get("k4"); res == nil || tier != "mem" {
		t.Fatalf("k4 should be resident")
	}
}

// TestRequestValidation covers the 400 paths and key stability.
func TestRequestValidation(t *testing.T) {
	srv, cl := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	bad := []*Request{
		{},                                  // neither app nor trace
		{App: "no-such-app", N: 4},          // unknown app
		{App: "ring", N: 8, Lang: "rust"},   // unknown lang
		{App: "ring", N: 8, Model: "wifi"},  // unknown model
		{App: "ring", N: 8, Class: "Z"},     // unknown class
		{App: "ring", N: 8, Trace: "x"},     // both app and trace
		{Trace: "scalatrace-go 1\n", N: 4},  // n with upload
		{App: "pingpong", N: 7, Class: "S"}, // invalid rank count for app
	}
	for i, req := range bad {
		if _, err := cl.Submit(context.Background(), req); err == nil {
			t.Fatalf("bad request %d accepted: %+v", i, req)
		} else if !strings.Contains(err.Error(), "400") {
			t.Fatalf("bad request %d: got %v, want a 400", i, err)
		}
	}

	// A hostile upload is refused at admission with the decoder's
	// line-numbered error — no job ever exists for it.
	_, err := cl.Submit(context.Background(),
		&Request{Trace: "scalatrace-go 1\nnprocs 99999999\n"})
	if err == nil {
		t.Fatal("hostile upload accepted")
	}
	if !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("hostile upload: %v, want a 400 carrying the decoder's line number", err)
	}

	// So is an upload that breaks a trace rule, by the rule's name: rank 0
	// calls a barrier on a communicator of ranks 1 and 2.
	srv.mu.Lock()
	jobs := len(srv.jobs)
	srv.mu.Unlock()
	_, err = cl.Submit(context.Background(), &Request{Trace: "scalatrace-go 1\nnprocs 3\ncomms 2\ncomm 0 0,1,2\ncomm 1 1,2\ngroups 1\n" +
		"group 0:2 1\nrsd op=Barrier site=1 ranks=0:2 comm=1 csize=2 peer=- tag=0 size=0 root=-1\n"})
	if err == nil || !strings.Contains(err.Error(), "400") ||
		!strings.Contains(err.Error(), "rule 4, a leaf's ranks are members of its listed communicator") {
		t.Fatalf("non-member barrier upload: %v, want a 400 naming rule 4", err)
	}
	srv.mu.Lock()
	if len(srv.jobs) != jobs {
		t.Errorf("a refused upload created a job: %d jobs, had %d", len(srv.jobs), jobs)
	}
	srv.mu.Unlock()

	// So is an upload whose compute pool holds moments no sample stream
	// produces: admitted, +Inf would reach the generated program as
	// "COMPUTES FOR +Inf MICROSECONDS", which its own parser rejects, and NaN
	// or a negative time would drop the COMPUTE.
	for _, moments := range []string{"+Inf +Inf +Inf", "NaN NaN NaN", "-5 -5 -5"} {
		_, err := cl.Submit(context.Background(), &Request{Trace: "scalatrace-go 1\nnprocs 2\ncomms 1\ncomm 0 0,1\ngroups 1\ngroup 0:1 1\n" +
			`rsd op=Send site=3 ranks=0:1 comm=0 csize=2 peer=rel1 tag=5 size=8 root=-1 compute="1 ` + moments + ` 0=1"` + "\n"})
		if err == nil || !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "must be finite") {
			t.Fatalf("compute moments %q: %v, want a 400 naming them", moments, err)
		}
	}

	// A parser-safe upload whose declared world is too large to simulate is
	// refused too: the decode bound protects the parser, MaxRunnableRanks
	// protects the simulator (a 2^20-rank world would be a ~4 TiB slab).
	n := MaxRunnableRanks + 1
	world := make([]string, n)
	for r := range world {
		world[r] = strconv.Itoa(r)
	}
	_, err = cl.Submit(context.Background(), &Request{Trace: fmt.Sprintf(
		"scalatrace-go 1\nnprocs %d\ncomms 1\ncomm 0 %s\ngroups 1\ngroup 0:%d 0\n", n, strings.Join(world, ","), n-1)})
	if err == nil {
		t.Fatal("oversized-world upload accepted")
	}
	if !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "at most") {
		t.Fatalf("oversized-world upload: %v, want a 400 naming the runnable cap", err)
	}

	if _, err := cl.Status(context.Background(), "j-999999"); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown job lookup: %v, want 404", err)
	}

	// A field the daemon does not know is a named 400, never silently
	// ignored: with the runtime selector gone, {"runtime":"goroutine"} would
	// otherwise be accepted and served by the event engine, and a misspelt
	// "clas" would fall back to the default class. These bodies cannot be
	// built from a Request, so they go to the handler as written.
	post := func(path string, body io.Reader) (int, string) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
		return rec.Code, rec.Body.String()
	}
	for _, c := range []struct{ path, body, field string }{
		{"/v1/jobs", `{"app":"ring","n":8,"runtime":"goroutine"}`, "runtime"},
		{"/v1/generate", `{"app":"ring","n":8,"clas":"S"}`, "clas"},
	} {
		code, msg := post(c.path, strings.NewReader(c.body))
		if code != http.StatusBadRequest || !strings.Contains(msg, fmt.Sprintf("unknown field %q", c.field)) {
			t.Fatalf("POST %s %s: %d %q, want a 400 naming the unknown field", c.path, c.body, code, msg)
		}
	}

	// A body past maxRequestBytes is cut off there and answered with 413
	// before the trace codec ever sees it (one endpoint: both decode through
	// decodeRequest, as the unknown-field cases above show).
	oversized := io.MultiReader(strings.NewReader(`{"trace":"`),
		io.LimitReader(fill('a'), maxRequestBytes), strings.NewReader(`"}`))
	if code, msg := post("/v1/jobs", oversized); code != http.StatusRequestEntityTooLarge ||
		strings.Contains(strings.TrimSpace(msg), "\n") {
		t.Fatalf("oversized body: %d %q, want a one-line 413", code, msg)
	}

	// Key is stable across normalization: explicit defaults hash like
	// omitted ones.
	a := &Request{App: "ring", N: 8}
	b := &Request{App: "ring", N: 8, Class: "W", Model: "bluegene", Lang: "conceptual"}
	if err := a.normalize(); err != nil {
		t.Fatal(err)
	}
	if err := b.normalize(); err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Fatalf("normalized keys differ: %s vs %s", a.Key(), b.Key())
	}
}

// fill is an endless reader of one byte value.
type fill byte

func (f fill) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// quickTraceRequest returns a tiny 2-rank one-barrier upload whose whole
// pipeline completes in milliseconds; site differentiates the trace bytes so
// each request gets its own cache key (and so its own pipeline run).
func quickTraceRequest(site int) *Request {
	return &Request{Trace: fmt.Sprintf("scalatrace-go 1\n"+
		"nprocs 2\ncomms 1\ncomm 0 0,1\ngroups 1\ngroup 0:1 1\n"+
		"rsd op=Barrier site=%d ranks=0:1 comm=0 csize=2 peer=- tag=0 size=0 root=-1\n", site)}
}

// TestJobPanicContained: a panic inside the pipeline must land the job in
// "failed" (so Done-waiters unblock and the synchronous endpoint returns 500)
// instead of leaving it "running" forever, and must not cost the pool its
// worker.
func TestJobPanicContained(t *testing.T) {
	orig := runPipelineFn
	runPipelineFn = func(context.Context, *Request, func(string)) (*Result, error) {
		panic("injected pipeline panic")
	}
	defer func() { runPipelineFn = orig }()

	_, cl := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	st, err := cl.Submit(context.Background(), quickTraceRequest(500))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := cl.Wait(ctx, st.ID); err == nil {
		t.Fatal("panicking job produced a result")
	} else if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking job: %v, want the panic surfaced as the job error", err)
	}
	if got, _ := cl.Status(context.Background(), st.ID); got.State != StateFailed {
		t.Fatalf("panicking job state %s, want failed", got.State)
	}

	// The synchronous endpoint must not hang on a panicking job either.
	if _, err := cl.Generate(ctx, quickTraceRequest(501)); err == nil {
		t.Fatal("synchronous generate of a panicking job succeeded")
	}

	// The worker survived the panic: real work still completes.
	runPipelineFn = orig
	if _, err := cl.Generate(ctx, quickTraceRequest(502)); err != nil {
		t.Fatalf("post-panic Generate: %v", err)
	}
}

// TestJobHistoryBounded: terminal jobs are evicted oldest-first past the
// JobHistory bound, and a retained terminal job no longer pins its upload
// payload.
func TestJobHistoryBounded(t *testing.T) {
	srv, cl := newTestServer(t, Config{Workers: 1, QueueDepth: 8, JobHistory: 2})
	var ids []string
	for i := 0; i < 5; i++ {
		st, err := cl.Submit(context.Background(), quickTraceRequest(600+i))
		if err != nil {
			t.Fatalf("Submit #%d: %v", i, err)
		}
		if _, err := cl.Wait(context.Background(), st.ID); err != nil {
			t.Fatalf("Wait #%d: %v", i, err)
		}
		ids = append(ids, st.ID)
	}

	// Eviction runs at registration, so at most JobHistory finished jobs plus
	// the most recent one are retained.
	srv.mu.Lock()
	retained := len(srv.order)
	srv.mu.Unlock()
	if retained > 3 {
		t.Fatalf("%d jobs retained, want at most JobHistory+1 = 3", retained)
	}
	if _, err := cl.Status(context.Background(), ids[0]); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Fatalf("oldest job lookup: %v, want 404 after eviction", err)
	}
	last := srv.job(ids[len(ids)-1])
	if last == nil {
		t.Fatal("newest job evicted")
	}
	if last.req.Trace != "" || last.req.decoded != nil {
		t.Fatal("terminal job still pins its upload payload")
	}
}

// TestDiskCachePruned: the on-disk tier stays bounded, dropping the
// oldest-modified entries first.
func TestDiskCachePruned(t *testing.T) {
	dir := t.TempDir()
	c, err := newCache(1, dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := c.put(key, &Result{Key: key}); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
		// Distinct mtimes keep the oldest-first order unambiguous.
		time.Sleep(10 * time.Millisecond)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("disk tier holds %d files, want 2", len(ents))
	}
	if res, _ := c.get("k0"); res != nil {
		t.Fatal("k0 should have been pruned from disk")
	}
	if res, tier := c.get("k3"); res == nil || tier != "disk" {
		t.Fatalf("k3: res=%v tier=%q, want a disk hit", res, tier)
	}
}

// TestObservabilityEndpoints: /metrics, /timeline and the source endpoint
// ride the same mux as the job API.
func TestObservabilityEndpoints(t *testing.T) {
	srv, cl := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	st, err := cl.Submit(context.Background(), &Request{App: "pingpong", N: 2, Class: "S"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res, err := cl.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "service.jobs_submitted") {
		t.Fatalf("/metrics: %d\n%s", code, body)
	}
	if code, body := get("/timeline"); code != 200 || !strings.Contains(body, "traceEvents") {
		t.Fatalf("/timeline: %d\n%s", code, body)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("/healthz: %d", code)
	}
	if code, body := get("/v1/jobs/" + st.ID + "/source"); code != 200 || body != res.Source {
		t.Fatalf("/source served %d bytes (code %d), want the exact artifact", len(body), code)
	}
	if code, body := get("/v1/jobs"); code != 200 || !strings.Contains(body, st.ID) {
		t.Fatalf("/v1/jobs: %d\n%s", code, body)
	}
}

// TestProfileEndpointAndPromMetrics: every served prediction carries its
// causal critical-path profile, and /metrics negotiates Prometheus text.
func TestProfileEndpointAndPromMetrics(t *testing.T) {
	srv, cl := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	st, err := cl.Submit(context.Background(), &Request{App: "pingpong", N: 2, Class: "S"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res, err := cl.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if res.CritPath == nil {
		t.Fatal("Result.CritPath not populated by the pipeline")
	}
	if math.Abs(res.CritPath.CritPathUS-res.ElapsedUS) > 1e-6*res.ElapsedUS {
		t.Fatalf("critical path %.3f != elapsed %.3f", res.CritPath.CritPathUS, res.ElapsedUS)
	}

	get := func(path, accept string) (*http.Response, string) {
		t.Helper()
		req, _ := http.NewRequest("GET", hs.URL+path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.String()
	}

	resp, body := get("/v1/jobs/"+st.ID+"/profile", "")
	if resp.StatusCode != 200 || !strings.Contains(body, `"crit_path_us"`) {
		t.Fatalf("/profile: %d\n%s", resp.StatusCode, body)
	}
	if resp, _ := get("/v1/jobs/nope/profile", ""); resp.StatusCode != 404 {
		t.Fatalf("/profile for unknown job: %d, want 404", resp.StatusCode)
	}

	// A terminal job whose cached Result predates the profiler serves 404,
	// not a null document.
	old := newJob("old", &Request{App: "pingpong", N: 2, Class: "S", Lang: "conceptual"})
	old.finishCached(&Result{Key: "k"}, "disk")
	srv.mu.Lock()
	srv.jobs["old"] = old
	srv.mu.Unlock()
	if resp, _ := get("/v1/jobs/old/profile", ""); resp.StatusCode != 404 {
		t.Fatalf("/profile without CritPath: %d, want 404", resp.StatusCode)
	}

	resp, body = get("/metrics?format=prom", "")
	if resp.StatusCode != 200 || !strings.Contains(body, "# TYPE") {
		t.Fatalf("/metrics?format=prom: %d\n%s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("prom content type: %q", ct)
	}
	if !strings.Contains(body, `quantile="0.99"`) {
		t.Fatalf("prom exposition missing quantiles:\n%s", body)
	}
	if resp, body := get("/metrics", "application/openmetrics-text"); resp.StatusCode != 200 ||
		!strings.Contains(body, "# TYPE") {
		t.Fatalf("Accept-negotiated prom: %d\n%s", resp.StatusCode, body)
	}
	if resp, body := get("/metrics", ""); resp.StatusCode != 200 || !strings.HasPrefix(strings.TrimSpace(body), "{") {
		t.Fatalf("default /metrics no longer JSON: %d\n%s", resp.StatusCode, body)
	}
}

// TestGoRenderPreparesTraceOnce: a lang=go request generates the coNCePTuaL
// program (for the prediction) and the Go source from one prepared trace, so
// Algorithm 1 runs once per request, and serves what the CLI serves.
func TestGoRenderPreparesTraceOnce(t *testing.T) {
	model := netmodel.Preset("bluegene")
	want := cliArtifact(t, "sweep3d", 16, apps.ClassS, model, "go")

	rounds := telemetry.NewCounter("align.rounds")
	run, err := harness.TraceApp("sweep3d", apps.NewConfig(16, apps.ClassS), model)
	if err != nil {
		t.Fatal(err)
	}
	before := rounds.Value()
	if _, err := core.Prepare(run.Trace, &core.Options{}); err != nil {
		t.Fatal(err)
	}
	onePrepare := rounds.Value() - before
	if onePrepare == 0 {
		t.Fatal("premise: sweep3d needs alignment")
	}

	before = rounds.Value()
	res, err := runPipeline(context.Background(), &Request{App: "sweep3d", N: 16, Class: "S", Model: "bluegene", Lang: "go"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := rounds.Value() - before; got != onePrepare {
		t.Errorf("request aligned %d collective rounds, one Prepare aligns %d", got, onePrepare)
	}
	if res.Source != want {
		t.Errorf("served Go source differs from the CLI pipeline's")
	}
}
