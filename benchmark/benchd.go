package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/conceptual"
	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/service"
	"repro/internal/trace"
)

// requestGrid lists benchd's request set in a fixed order: every app at
// three sizes, two classes and two platform models, the target language
// rotating. The order is then shuffled with a constant, so that a prefix of
// it is a fair sample whatever its length, and doubles as the popularity
// rank of the warm workload.
func requestGrid(appNames []string, sizes []int, classes []string) []service.Request {
	var out []service.Request
	langs := []string{"conceptual", "c", "go"}
	for _, app := range appNames {
		for _, n := range sizes {
			if n == 36 && !apps.ByName(app).ValidRanks(36) {
				n = 32
			}
			for _, class := range classes {
				for _, model := range []string{"bluegene", "ethernet"} {
					out = append(out, service.Request{App: app, N: n, Class: class, Model: model, Lang: langs[len(out)%3]})
				}
			}
		}
	}
	rand.New(rand.NewSource(20110516)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// countingTransport counts response body bytes for service.response_kb.
type countingTransport struct {
	http.Transport
	bytes atomic.Int64
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.Transport.RoundTrip(r)
	if err == nil {
		resp.Body = countingBody{resp.Body, &t.bytes}
	}
	return resp, err
}

// benchd is the benchd-cold and benchd-warm instance: a real server behind a
// real listener, driven by closed-loop clients.
type benchd struct {
	warm  bool
	e     *env
	set   []service.Request
	order []int // op i requests set[order[i]]
	// ref holds what each request must return: for cold, the in-process
	// chain's result for every 8th request; for warm, what the server
	// returned when the cache was filled.
	ref map[int]*service.Result
	// origUS is the original application's run time, where setup ran it.
	origUS   map[int]float64
	programs []causalInput

	transport  *countingTransport
	client     *service.Client
	servers    []*service.Server
	listeners  []*httptest.Server
	bytesStart int64
}

const refEvery = 8

func (w *benchd) startServer(cfg service.Config) error {
	dir, err := os.MkdirTemp(w.e.tmp, "cache-")
	if err != nil {
		return err
	}
	cfg.Workers, cfg.CacheDir = 2, dir
	srv, err := service.NewServer(cfg)
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	w.servers, w.listeners = append(w.servers, srv), append(w.listeners, ts)
	w.client = &service.Client{BaseURL: ts.URL, HTTPClient: &http.Client{Transport: w.transport},
		PollInterval: 2 * time.Millisecond}
	return nil
}

// reference computes a request's result in-process, the way tracegen |
// benchgen | ncrun do, and returns the original run time with it.
func reference(req *service.Request) (*service.Result, *conceptual.Program, float64, error) {
	k := kernel{req.App, req.N, apps.Class(req.Class[0])}
	model := netmodel.Preset(req.Model)
	o, text, err := traceApp(k, model)
	if err != nil {
		return nil, nil, 0, err
	}
	tr, err := trace.Decode(bytes.NewReader(text))
	if err != nil {
		return nil, nil, 0, err
	}
	prog, err := core.Generate(tr, &core.Options{
		Comments: []string{fmt.Sprintf("source trace: %d ranks, %d events", tr.N, tr.TotalEvents())}})
	if err != nil {
		return nil, nil, 0, err
	}
	var src string
	switch req.Lang {
	case "conceptual":
		src = conceptual.Print(prog)
	case "c":
		src = conceptual.GenerateC(prog)
	case "go":
		src, err = core.GenerateGo(tr, nil)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	run, err := execute(prog, k.n, model)
	if err != nil {
		return nil, nil, 0, err
	}
	return &service.Result{Key: req.Key(), Source: src, PerRankUS: run.PerTaskUS}, prog, o.origUS, nil
}

func newBenchd(warm bool, grid []service.Request) func(e *env) (instance, error) {
	return func(e *env) (instance, error) {
		w := &benchd{warm: warm, e: e, set: grid, ref: map[int]*service.Result{},
			origUS: map[int]float64{}, transport: &countingTransport{}}
		rng := rand.New(rand.NewSource(e.seed))
		if !warm {
			// Every request is issued once: a seeded order of a fixed subset.
			if e.ops < len(w.set) {
				w.set = w.set[:e.ops]
			}
			w.order = rng.Perm(len(w.set))
			for i := 0; i < len(w.set); i += refEvery {
				res, prog, origUS, err := reference(&w.set[i])
				if err != nil {
					return nil, fmt.Errorf("reference for %+v: %w", w.set[i], err)
				}
				w.ref[i], w.origUS[i] = res, origUS
				w.programs = append(w.programs, causalInput{prog, w.set[i].N})
			}
			if err := w.startServer(service.Config{}); err != nil {
				return nil, err
			}
			// Warm the listener, the connections and the job path with
			// requests from outside the measured set.
			for _, app := range []string{"is", "ft"} {
				if _, err := w.client.Generate(context.Background(), &service.Request{App: app, N: 4, Class: "S"}); err != nil {
					return nil, err
				}
			}
			return w, nil
		}

		// The memory tier holds half the set, so unpopular requests are
		// served from disk. Popularity follows the set's order.
		if err := w.startServer(service.Config{CacheEntries: len(w.set) / 2}); err != nil {
			return nil, err
		}
		if err := w.fill(); err != nil {
			return nil, err
		}
		// The draws are the same for every seed and only their order is
		// seeded, like every other workload's inputs.
		zipf := rand.NewZipf(rand.New(rand.NewSource(20110516)), 1.1, 1, uint64(len(w.set)-1))
		draw := func(n int) []int {
			out := make([]int, n)
			for i := range out {
				out[i] = int(zipf.Uint64())
			}
			return out
		}
		for _, si := range draw(200) { // brings the LRU to its steady state
			if _, err := w.client.Generate(context.Background(), &w.set[si]); err != nil {
				return nil, err
			}
		}
		w.order = draw(e.ops)
		rng.Shuffle(len(w.order), func(i, j int) { w.order[i], w.order[j] = w.order[j], w.order[i] })
		return w, nil
	}
}

// fill requests the whole set once, two at a time, least popular first, and
// keeps what was served.
func (w *benchd) fill() error {
	var next atomic.Int64
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for caller := 0; caller < 2; caller++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := len(w.set) - int(next.Add(1))
				if i < 0 {
					return
				}
				res, err := w.client.Generate(context.Background(), &w.set[i])
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("filling %+v: %w", w.set[i], err)
				}
				w.ref[i] = res
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

func (w *benchd) beginPhase(traced bool) error {
	w.bytesStart = w.transport.bytes.Load()
	if traced && !w.warm {
		// The first phase filled the first server's cache.
		return w.startServer(service.Config{})
	}
	return nil
}

func (w *benchd) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, srv := range w.servers {
		_ = srv.Shutdown(ctx) // on timeout the jobs are cancelled and waited for
		w.listeners[i].Close()
	}
	w.transport.CloseIdleConnections()
}

func (w *benchd) op(c *opCtx) (func() error, error) {
	si := w.order[c.i]
	req := w.set[si]
	ctx := context.Background()
	var res *service.Result
	var err error
	if !c.traced() {
		res, err = w.client.Generate(ctx, &req)
	} else {
		t0 := time.Now()
		done := c.span("service.request")
		var st *service.JobStatus
		if st, err = w.client.Submit(ctx, &req); err == nil {
			res, err = w.client.Wait(ctx, st.ID)
		}
		done()
		if err == nil {
			tier := map[string]string{"mem": "service.hit_mem_ms", "disk": "service.hit_disk_ms", "": "service.miss_ms"}[st.Cached]
			c.sample(tier, ms(time.Since(t0)))
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s@%d/%s: %w", req.App, req.N, req.Class, err)
	}
	c.sourceBytes += len(res.Source)
	c.digestString(res.Source)
	c.digestFloats(res.PerRankUS...)
	if us, ok := w.origUS[si]; ok {
		c.timingError(res.ElapsedUS, us)
	}
	return func() error {
		want := w.ref[si]
		switch {
		case res.Key != req.Key():
			return fmt.Errorf("%+v: served key %s", req, res.Key)
		case len(res.PerRankUS) != req.N:
			return fmt.Errorf("%+v: %d per-rank clocks", req, len(res.PerRankUS))
		case want != nil && (res.Source != want.Source || !equalFloats(res.PerRankUS, want.PerRankUS)):
			return fmt.Errorf("%+v: served result differs from the reference", req)
		case want == nil && req.Lang == "conceptual":
			if _, err := conceptual.Parse(res.Source); err != nil {
				return fmt.Errorf("%+v: served source does not parse: %w", req, err)
			}
		}
		return nil
	}, nil
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (w *benchd) probe(into map[string]float64) error {
	into["service.response_kb"] = float64(w.transport.bytes.Load()-w.bytesStart) / 1e3 / float64(w.e.ops)
	if len(w.programs) == 0 {
		return nil
	}
	// The pipeline always attaches the causal profiler to its prediction.
	return probeCausal(w.programs, netmodel.BlueGeneL(), into)
}
